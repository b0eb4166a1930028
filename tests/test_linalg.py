import json

import numpy as np
import pytest

from rqtgap import linalg
from rqtgap.errors import CapacityError
from rqtgap.linalg import (
    DenseOperator,
    StateVector,
    X,
    Y,
    Z,
    checks,
    fidelity_with_pure,
    kron,
    kron_all,
    norms,
    operator_from_json,
    operator_to_json,
    partial_trace,
    random_pm1_observable,
    random_real_pm1_observable,
    tensor_embed,
)


def test_dense_operator_dims_must_multiply():
    with pytest.raises(ValueError):
        DenseOperator(np.eye(4), (2, 3))


def test_state_vector_norm_enforced():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]), (2,))
    sv = StateVector.normalized(np.array([1.0, 1.0]), (2,))
    assert abs(np.linalg.norm(sv.vec) - 1) < 1e-12


def test_kron_matches_numpy():
    a = DenseOperator(X.astype(complex), (2,))
    b = DenseOperator(Z.astype(complex), (2,))
    ab = kron(a, b)
    assert ab.local_dims == (2, 2)
    np.testing.assert_allclose(ab.mat, np.kron(X, Z))


def test_capacity_guard():
    # Two 2^7-dim factors make a 2^28-entry product; the guard fires before
    # anything that large is allocated.
    big = DenseOperator(np.eye(2**7), (2**7,))
    assert big.dim**4 > linalg.ENTRY_CAPACITY
    with pytest.raises(CapacityError):
        kron(big, big)


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
    psi = StateVector.normalized(np.array([1, 0, 0, 1.0]), (2, 2))
    red = partial_trace(psi.projector(),keep=[0])
    np.testing.assert_allclose(red.mat, np.eye(2) / 2, atol=1e-12)


def test_norms_of_pauli():
    n = norms(DenseOperator(X.astype(complex), (2,)))
    assert n.trace_norm == pytest.approx(2.0)
    assert n.operator_norm == pytest.approx(1.0)
    assert n.frobenius_norm == pytest.approx(np.sqrt(2.0))


def test_checks_classify_paulis():
    for p in (X, Z):
        c = checks(DenseOperator(p.astype(complex), (2,)))
        assert c.is_hermitian and c.is_unitary and c.is_pm1_observable
        assert c.is_entrywise_real
    cy = checks(DenseOperator(Y, (2,)))
    assert cy.is_pm1_observable and not cy.is_entrywise_real


@pytest.mark.parametrize("dim", [2, 4])
def test_random_observables_are_pm1(dim):
    for seed in range(5):
        m = random_pm1_observable(dim, seed)
        assert checks(m).is_pm1_observable
        r = random_real_pm1_observable(dim, seed)
        c = checks(r)
        assert c.is_pm1_observable and c.is_entrywise_real


def test_random_observable_deterministic():
    a = random_pm1_observable(4, 123).mat
    b = random_pm1_observable(4, 123).mat
    np.testing.assert_array_equal(a, b)


def test_fidelity_with_pure():
    psi = StateVector.normalized(np.array([1, 0, 0, 1.0]), (2, 2))
    assert fidelity_with_pure(psi.projector(),psi) == pytest.approx(1.0)
    orth = StateVector.normalized(np.array([1, 0, 0, -1.0]), (2, 2))
    assert fidelity_with_pure(psi.projector(),orth) == pytest.approx(0.0, abs=1e-12)


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
