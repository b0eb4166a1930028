import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqtgap import linalg
from rqtgap.errors import CapacityError, ValidationError
from rqtgap.linalg import (
    DenseOperator,
    StateVector,
    TermStack,
    X,
    Z,
    kron_all,
    operator_from_json,
    operator_to_json,
    partial_trace,
    random_pm1_matrices,
    random_pm1_observable,
    require_pm1,
    tensor_embed,
)


def test_dense_operator_dims_must_multiply():
    with pytest.raises(ValueError):
        DenseOperator(np.eye(4), (2, 3))


def test_state_vector_norm_enforced():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]), (2,))
    sv = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0), (2,))
    assert abs(np.linalg.norm(sv.vec) - 1) < 1e-12


def test_frobenius_norm_capacity_guard():
    # 14 qubit factors make a 2^28-entry operator. Its norm would take a
    # 2^14 x 2^14 product of two 2^14-entry sides (256 KiB each); the
    # guard fires before any of them is allocated.
    stack = TermStack(np.ones(1, dtype=complex), (np.eye(2, dtype=complex)[None],) * 14)
    assert 4**14 > linalg.ENTRY_CAPACITY
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            stack.frobenius_norm()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


@settings(max_examples=40, deadline=None)
@given(
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    inputs=st.integers(1, 4),
    count=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_frobenius_norm_of_each_input_is_its_own_stacks_norm(dims, inputs, count, seed):
    # A B-input stack gives each input exactly the norm of the one-input
    # stack made of that input's coefficients and factors alone.
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    stack = TermStack(draw(inputs, count), tuple(draw(inputs, count, d, d) for d in dims))
    norms = stack.frobenius_norm()
    assert norms.shape == (inputs,)
    for b in range(inputs):
        one = TermStack(stack.coeffs[b], tuple(f[b] for f in stack.factors)).frobenius_norm()
        assert type(one) is float and norms[b] == one


def test_tensor_embed_places_factors():
    m = tensor_embed((2, 2, 2), {1: X})
    np.testing.assert_allclose(m, np.kron(np.eye(2), np.kron(X, np.eye(2))))


def test_partial_trace_product_state():
    rho_a = np.array([[0.75, 0.1], [0.1, 0.25]], dtype=complex)
    rho_b = np.eye(2) / 2
    joint = DenseOperator(np.kron(rho_a, rho_b), (2, 2))
    np.testing.assert_allclose(partial_trace(joint, keep=[0]).mat, rho_a, atol=1e-12)
    np.testing.assert_allclose(partial_trace(joint, keep=[1]).mat, rho_b, atol=1e-12)


def test_partial_trace_bell_marginal_is_mixed():
    psi = StateVector(np.array([1, 0, 0, 1.0]) / np.sqrt(2.0), (2, 2))
    red = partial_trace(psi.projector(),keep=[0])
    np.testing.assert_allclose(red.mat, np.eye(2) / 2, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    dim=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    real=st.booleans(),
    # |delta| = 2 would map the 1 x 1 observable -1 to the observable 1.
    delta=st.floats(1e-8, 1.0).flatmap(lambda x: st.sampled_from((x, -x))),
    bad=st.sampled_from((np.nan, np.inf, -np.inf)),
    data=st.data(),
)
def test_require_pm1_accepts_observables_and_rejects_the_rest(dim, seed, real, delta, bad, data):
    a = random_pm1_matrices(dim, seed, real=real)
    got = require_pm1(a, "A")
    assert got.dtype == complex
    np.testing.assert_array_equal(got, a)
    # A shift by a multiple of the identity moves A^2 by 2 delta A + delta^2:
    # at least |delta| in some entry for a +/-1 observable.
    with pytest.raises(ValidationError, match="A is not a"):
        require_pm1(a + delta * np.eye(dim), "A")
    broken = np.array(a)
    broken[data.draw(st.integers(0, dim - 1)), data.draw(st.integers(0, dim - 1))] = bad
    with pytest.raises(ValidationError):
        require_pm1(broken, "A")
    with pytest.raises(ValueError, match="square"):
        require_pm1(a[:, :-1] if dim > 1 else np.ones((1, 2)), "A")


@pytest.mark.parametrize("dim", [2, 4])
def test_random_observables_are_pm1(dim):
    for seed in range(5):
        require_pm1(random_pm1_observable(dim, seed).mat, "complex")
        r = random_pm1_matrices(dim, seed, real=True)
        require_pm1(r, "real")
        assert not r.imag.any()


def test_require_pm1_checks_each_matrix_of_a_stack():
    stack = random_pm1_matrices(3, [[1, 2], [3, 4]])
    np.testing.assert_array_equal(require_pm1(stack, "A_2,1"), stack)
    stack[1, 0] = 2.0 * np.eye(3)
    with pytest.raises(ValidationError, match="A_2,1 is not a"):
        require_pm1(stack, "A_2,1")
    with pytest.raises(ValueError, match="square"):
        require_pm1(stack[..., :2], "A_2,1")


def _one_draw(dim: int, seed: int, real: bool) -> np.ndarray:
    """A draw computed one seed at a time: own rng, QR, phase fix, signs."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim))
    if not real:
        g = g + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    signs = np.array([1.0] * (dim // 2) + [-1.0] * (dim - dim // 2))
    return (q * signs) @ q.conj().T


@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_batched_draws_are_bit_identical_to_one_seed_draws(dim, real):
    seeds = np.random.default_rng(dim).integers(0, 2**63, size=(3, 4))
    got = random_pm1_matrices(dim, seeds, real=real)
    assert got.shape == (3, 4, dim, dim) and got.dtype == (float if real else complex)
    for idx in np.ndindex(seeds.shape):
        one = random_pm1_matrices(dim, int(seeds[idx]), real=real)
        np.testing.assert_array_equal(got[idx], one)
        np.testing.assert_array_equal(got[idx], _one_draw(dim, int(seeds[idx]), real))


def test_random_observable_deterministic():
    a = random_pm1_observable(4, 123).mat
    b = random_pm1_observable(4, 123).mat
    np.testing.assert_array_equal(a, b)


def test_operator_json_roundtrip_is_exact():
    m = random_pm1_observable(4, 7)
    blob = json.dumps(operator_to_json(m))
    back = operator_from_json(json.loads(blob))
    np.testing.assert_array_equal(back.mat, m.mat)
    assert back.local_dims == m.local_dims


def test_kron_all_order_convention():
    # Leftmost factor is most significant: X on site 1 flips the top bit.
    m = kron_all([X, np.eye(2)])
    v = np.zeros(4)
    v[0] = 1.0
    np.testing.assert_allclose(m @ v, np.eye(4)[2])


def test_kron_all_is_bit_identical_to_numpy_kron():
    rng = np.random.default_rng(5)
    for _ in range(50):
        mats = []
        for _ in range(int(rng.integers(0, 5))):
            shape = tuple(int(d) for d in rng.integers(1, 4, size=2))
            m = rng.normal(size=shape)
            if rng.random() < 0.5:
                m = m + 1j * rng.normal(size=shape)
            mats.append(m)
        want = np.eye(1, dtype=complex)
        for m in mats:
            want = np.kron(want, m)
        got = kron_all(mats)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
