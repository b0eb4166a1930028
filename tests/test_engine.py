"""Differential tests of the conditional-state engine (the density-matrix
kernel and the pure-source vector path), the product-sum evaluator
`ConditionalStates.expect`, the seesaw's sweep on rho^0's columns, the
product-sum operators and the SOS kernels built on them, and Eve's
projector check against the dense oracle (`kron_all`, `tensor_embed`,
`build_I_operator`), and strategy-file round trips, on random inputs."""

import itertools
import json
import math
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rqtgap.cli
import rqtgap.linalg
import rqtgap.network
import rqtgap.rqt
from rqtgap.functionals import (
    I_values,
    J_fixed_factors,
    build_I_operator,
    cqt_strategy,
    eval_I,
    eval_I_from_correlators,
    eval_J,
)
from rqtgap.linalg import (
    DenseOperator,
    ProductSum,
    _haar_unitary,
    apply_local,
    kron_all,
    partial_trace,
    random_pm1_matrices,
    random_pm1_observable,
    tensor_embed,
)
from rqtgap.network import (
    TILDE_1,
    ConditionalStates,
    EveMeasurement,
    StarNetwork,
    ghz_basis,
    _conditional_unnormalized,
    conditional_state,
    conditional_states,
    eve_outcome_probability,
    ideal_network,
    load_strategy,
    save_strategy,
)
from rqtgap.robustness import (
    NOISE_MODELS,
    apply_noise,
    perturbation_experiment,
    residual_norms,
    verify_sos_identity_A,
    verify_sos_identity_B,
)
from rqtgap.rqt import t_values
from rqtgap.selftest import verify_selftest_noiseless

SEEDS = st.integers(0, 2**32 - 1)


def _random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _random_povm(dim: int, count: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Full-rank, hence non-projective, effects normalized to sum to 1."""
    effects = []
    for _ in range(count):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        effects.append(g @ g.conj().T)
    w, v = np.linalg.eigh(sum(effects))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return [inv_sqrt @ e @ inv_sqrt for e in effects]


def _random_factors(dim: int, ranks: list[int], rng: np.random.Generator) -> list[np.ndarray]:
    """Factors V_l with ranks[l] columns each and sum_l V_l V_l^dag = 1."""
    g = rng.normal(size=(dim, sum(ranks))) + 1j * rng.normal(size=(dim, sum(ranks)))
    w, v = np.linalg.eigh(g @ g.conj().T)
    g = (v / np.sqrt(w)) @ v.conj().T @ g
    return np.split(g, np.cumsum(ranks)[:-1], axis=1)


def _random_network(party_dims, eve_dims, seed: int, pure: bool = False, eve=None) -> StarNetwork:
    """Random sources (mixed, or pure with `pure`), observables and Eve
    measurement; `eve` defaults to full-rank dense POVM elements."""
    rng = np.random.default_rng(seed)
    n = len(party_dims)
    sources = []
    for da, de in zip(party_dims, eve_dims):
        if pure:
            psi = rng.normal(size=da * de) + 1j * rng.normal(size=da * de)
            rho = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
        else:
            rho = _random_density(da * de, rng)
        sources.append(DenseOperator(rho, (da, de)))
    obs = tuple(
        tuple(random_pm1_observable(da, int(rng.integers(2**32))).mat for _ in range(3))
        for da in party_dims
    )
    if eve is None:
        eve = EveMeasurement.from_elements(_random_povm(math.prod(eve_dims), 1 << n, rng))
    return StarNetwork(n, tuple(sources), obs, eve)


def _dense_conditional(net: StarNetwork, l: int) -> np.ndarray:
    """Tr_E[(1_A (x) R_l) rho] from the full joint state of all sources."""
    n = net.n
    joint = kron_all(s.mat for s in net.sources)  # order A_1 E_1 ... A_n E_n
    local = tuple(d for s in net.sources for d in s.local_dims)
    # Regroup the factors as A_1 ... A_n E_1 ... E_n.
    order = [2 * i for i in range(n)] + [2 * i + 1 for i in range(n)]
    t = joint.reshape(local + local).transpose(order + [2 * n + k for k in order])
    dims = tuple(local[k] for k in order)
    joint = t.reshape(joint.shape)
    lifted = kron_all([np.eye(math.prod(net.party_dims)), net.eve.element(l)]) @ joint
    return partial_trace(DenseOperator(lifted, dims), keep=range(n)).mat


def _to_pairs(mats: np.ndarray, dims) -> np.ndarray:
    """Matrices with axes (..., a, a') as pair rows (..., p), each party's
    row and column index side by side: p = (a_1 a'_1, ..., a_n a'_n)."""
    n = len(dims)
    batch = mats.shape[:-2]
    t = mats.reshape(batch + tuple(dims) * 2)
    k = len(batch)
    order = [*range(k)] + [k + j for i in range(n) for j in (i, n + i)]
    return t.transpose(order).reshape(batch + (-1,))


def _network_dims(max_n: int):
    """(party dims, Eve dims), each in {2, 3}, for n = 2..max_n parties."""
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.lists(st.sampled_from((2, 3)), min_size=n, max_size=n),
            st.lists(st.sampled_from((2, 3)), min_size=n, max_size=n),
        )
    )


@settings(max_examples=20, deadline=None)
@given(dims=_network_dims(3), seed=SEEDS, data=st.data())
def test_kernel_matches_dense_joint_state(dims, seed, data):
    party_dims, eve_dims = dims
    net = _random_network(party_dims, eve_dims, seed)
    l = data.draw(st.integers(0, (1 << net.n) - 1), label="l")
    raw = _conditional_unnormalized(net, l)
    dense = _dense_conditional(net, l)
    np.testing.assert_allclose(raw, _to_pairs(dense, party_dims), atol=1e-12)
    p = np.trace(dense).real
    assert eve_outcome_probability(net, l) == pytest.approx(p, abs=1e-12)
    # The pair form read back, on complex states and a complex target.
    states = conditional_states(net, [l])
    assert states.pairs is not None
    np.testing.assert_allclose(states.density(0), dense / p, atol=1e-12)
    t = _random_matrix(math.prod(party_dims), np.random.default_rng(seed))[:, :1]
    want = np.real(t[:, 0].conj() @ dense @ t[:, 0]) / p
    assert states.fidelity(t)[0] == pytest.approx(want, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    dims=_network_dims(3),
    projective=st.booleans(),
    rank=st.integers(1, 3),
    seed=SEEDS,
)
def test_vector_path_matches_dense_kernel_and_bell_operator(dims, projective, rank, seed):
    party_dims, eve_dims = dims
    n = len(party_dims)
    rng = np.random.default_rng(seed + 1)
    if projective:
        # Haar unitary columns: a rank-1 projective measurement on qubit E factors.
        eve_dims = [2] * n
        eve = EveMeasurement(_haar_unitary(_random_matrix(1 << n, rng))[:, :, None])
    else:
        ranks = list(rng.integers(1, rank + 1, size=1 << n))
        ranks[0] = max(ranks[0], math.prod(eve_dims) - sum(ranks[1:]))
        eve = EveMeasurement.from_factors(_random_factors(math.prod(eve_dims), ranks, rng))
    net = _random_network(party_dims, eve_dims, seed, pure=True, eve=eve)
    assert net.source_vectors is not None
    states = conditional_states(net)
    pairs = [(t[0], t[1]) for t in net.observables]
    i_vec = I_values(net, states)
    for j, l in enumerate(states.labels):
        dense = _dense_conditional(net, l)
        p = np.trace(dense).real
        assert states.probs[j] == pytest.approx(p, abs=1e-12)
        assert eve_outcome_probability(net, l) == pytest.approx(p, abs=1e-12)
        np.testing.assert_allclose(states.density(j), dense / p, atol=1e-12)
        np.testing.assert_allclose(
            _conditional_unnormalized(net, l), _to_pairs(dense, party_dims), atol=1e-12
        )
        want = np.trace(build_I_operator(n, l, pairs).mat @ dense).real / p
        assert i_vec[j] == pytest.approx(want, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    trailing=st.lists(st.integers(1, 3), max_size=2),
    seed=SEEDS,
    data=st.data(),
)
def test_apply_local_matches_tensor_embed(dims, trailing, seed, data):
    # Party-first arrays: the joint factor index, then 0-2 trailing axes.
    # A placed (d', d) factor maps its axis to dimension d'; the oracle is
    # `tensor_embed`'s Kronecker chain with those factors.
    rng = np.random.default_rng(seed)
    shape = (math.prod(dims), *trailing)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    where = data.draw(st.sets(st.integers(0, len(dims) - 1)), label="placed")
    placed = {}
    for i in sorted(where):
        rows = data.draw(st.integers(1, 3), label=f"rows of factor {i}")
        placed[i] = rng.normal(size=(rows, dims[i])) + 1j * rng.normal(size=(rows, dims[i]))
    op = kron_all(placed.get(i, np.eye(d)) for i, d in enumerate(dims))
    if all(m.shape == (dims[i],) * 2 for i, m in placed.items()):
        np.testing.assert_array_equal(op, tensor_embed(dims, placed))
    want = (op @ x.reshape(shape[0], -1)).reshape((-1, *trailing))
    got = apply_local(x, dims, placed)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@settings(max_examples=12, deadline=None)
@given(
    model=st.sampled_from(NOISE_MODELS),
    n=st.sampled_from((3, 4)),
    strength=st.floats(0.0, 0.3),
)
def test_eval_I_matches_dense_bell_operator(model, n, strength):
    net = apply_noise(ideal_network(n), model, strength)
    pairs = [(t[0], t[1]) for t in net.observables]
    for l in range(1 << n):
        op = build_I_operator(n, l, pairs).mat
        want = np.trace(op @ conditional_state(net, l).mat).real
        assert eval_I(net, l) == pytest.approx(want, abs=1e-12)
        assert eval_I_from_correlators(net, l) == pytest.approx(want, abs=1e-12)


def _dense_j(net: StarNetwork, rho: np.ndarray, third) -> float:
    """J_N from Tr(tensor_embed(...) rho), one correlator per pair of
    parties holding their third observable, the others at A_{i,1}
    (At_{1,1} for party 1)."""
    n = net.n
    total = 0.0
    for pair in itertools.combinations(range(n), 2):
        placed = {
            p: third[p] if p in pair else net.observable(p + 1, TILDE_1 if p == 0 else 1)
            for p in range(n)
        }
        total += np.trace(tensor_embed(net.party_dims, placed) @ rho).real
    return -2.0 / (n * (n - 1)) * total


def _random_product_sum(dims, labels: int, rng: np.random.Generator, data) -> ProductSum:
    """1-4 terms of random non-Hermitian factors; each coefficient is a
    complex scalar or a complex array over `labels` outcomes."""
    terms = []
    for _ in range(data.draw(st.integers(1, 4), label="terms")):
        where = data.draw(st.sets(st.integers(0, len(dims) - 1)), label="placed")
        shape = () if data.draw(st.booleans(), label="scalar") else (labels,)
        coeff = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        terms.append((coeff, {i: _random_matrix(dims[i], rng) for i in where}))
    return ProductSum(tuple(terms))


@settings(max_examples=40, deadline=None)
@given(
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    labels=st.integers(1, 5),
    rank=st.integers(1, 3),
    seed=SEEDS,
    data=st.data(),
)
def test_expect_matches_dense_trace(dims, labels, rank, seed, data):
    # Size-1 party dims, one or more outcomes and non-Hermitian factors;
    # the pair form also takes non-Hermitian matrices.
    rng = np.random.default_rng(seed)
    d = math.prod(dims)
    # Party-first vectors, axes (a, l, c), as `conditional_states` holds them.
    vecs = rng.normal(size=(d, labels, rank)) + 1j * rng.normal(size=(d, labels, rank))
    mats = np.einsum("alc,blc->lab", vecs, vecs.conj())
    probs = np.real(np.trace(mats, axis1=1, axis2=2))
    op = _random_product_sum(dims, labels, rng, data)

    def dense_expect(rhos):
        out = []
        for j in range(labels):
            op_j = ProductSum(tuple((np.broadcast_to(c, (labels,))[j], p) for c, p in op.terms))
            out.append(np.trace(op_j.dense(dims) @ rhos[j]).real / probs[j])
        return np.array(out)

    tags = tuple(range(labels))
    by_vectors = ConditionalStates(tuple(dims), tags, probs, vectors=vecs)
    np.testing.assert_allclose(by_vectors.expect(op), dense_expect(mats), rtol=1e-12, atol=1e-12)
    general = rng.normal(size=(labels, d, d)) + 1j * rng.normal(size=(labels, d, d))
    for rhos in (mats, general):
        want = dense_expect(rhos)
        by_pairs = ConditionalStates(tuple(dims), tags, probs, pairs=_to_pairs(rhos, dims))
        np.testing.assert_allclose(by_pairs.expect(op), want, rtol=1e-12, atol=1e-12)
        # Slices of two outcomes.
        with mock.patch.object(rqtgap.network, "MIXED_BATCH_ENTRIES", 2 * d * d):
            np.testing.assert_allclose(by_pairs.expect(op), want, rtol=1e-12, atol=1e-12)


def _fill_form(eve: EveMeasurement) -> EveMeasurement:
    """Eve's floor written as a fill of sqrt(mu_l) 1, d_E extra columns per
    outcome, as `mix_povm` once built it."""
    fill = np.sqrt(eve.floor)[None, :, None] * np.eye(eve.dim)[:, None, :]
    return EveMeasurement(np.concatenate([eve.factors, fill], axis=2))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_representation_follows_rank(n):
    """Rank-1 Eve factors give vectors, with or without `mix_povm`'s floor;
    the same floor as a fill of d_E columns per outcome, on the same pure
    sources, gives pair arrays from the density-matrix kernel. All match
    that kernel."""
    ideal = ideal_network(n)
    mixed = apply_noise(ideal, "mix_povm", 0.1)
    filled = StarNetwork(n, mixed.sources, mixed.observables, _fill_form(mixed.eve))
    for net, vectors in ((ideal, True), (mixed, True), (filled, False)):
        assert net.source_vectors is not None
        states = conditional_states(net)
        assert (states.vectors is not None) == vectors
        assert (states.pairs is None) == vectors
        assert (states.floor is not None) == (net is mixed)
        for j, l in enumerate(states.labels):
            raw = _conditional_unnormalized(net, l)
            got = _to_pairs(states.density(j) * states.probs[j], net.party_dims)
            np.testing.assert_allclose(got, raw, atol=1e-14)


def _floored_eve(n: int, rng: np.random.Generator) -> EveMeasurement:
    """Random complex rank-1 factors on n qubit E factors and a random
    floor, scaled together to complete the measurement."""
    dim = 1 << n
    floor = rng.uniform(size=dim) * rng.uniform(0.05, 0.9) / dim
    factors = np.stack(_random_factors(dim, [1] * dim, rng), axis=1)
    return EveMeasurement(np.sqrt(1.0 - floor.sum()) * factors, floor)


@pytest.mark.parametrize("sources", ["pure", "depolarized", "random pure", "random mixed"])
@pytest.mark.parametrize("eve", ["mix_povm", "random"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_floor_form_matches_fill_form(n, eve, sources):
    rng = np.random.default_rng(100 * n + len(sources))
    if sources.startswith("random"):
        pure = sources == "random pure"
        net = _random_network([2] * n, [2] * n, n, pure=pure, eve=ideal_network(n).eve)
    else:
        net = ideal_network(n)
        if sources == "depolarized":
            net = apply_noise(net, "depolarize_sources", 0.2)
    if eve == "mix_povm":
        net = apply_noise(net, "mix_povm", 0.1)
    else:
        net = StarNetwork(n, net.sources, net.observables, _floored_eve(n, rng))
    filled = StarNetwork(n, net.sources, net.observables, _fill_form(net.eve))
    floor_states, fill_states = conditional_states(net), conditional_states(filled)
    assert (floor_states.floor is not None) == sources.endswith("pure")
    np.testing.assert_allclose(floor_states.probs, fill_states.probs, rtol=0, atol=1e-12)
    terms = []
    for k in range(3):
        coeff = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        terms.append((coeff, {i: _random_matrix(2, rng) for i in range(k, n, 2)}))
    op = ProductSum(tuple(terms))
    np.testing.assert_allclose(floor_states.expect(op), fill_states.expect(op), rtol=0, atol=1e-12)
    targets = _haar_unitary(_random_matrix(1 << n, rng))
    np.testing.assert_allclose(
        floor_states.fidelity(targets), fill_states.fidelity(targets), rtol=0, atol=1e-12
    )
    for j, l in enumerate(floor_states.labels):
        want = fill_states.density(j)
        np.testing.assert_allclose(floor_states.density(j), want, rtol=0, atol=1e-12)
        x = floor_states.columns(j)
        np.testing.assert_allclose(x @ x.conj().T, want, rtol=0, atol=1e-12)
        assert eve_outcome_probability(net, l) == pytest.approx(
            eve_outcome_probability(filled, l), rel=0, abs=1e-12
        )
        np.testing.assert_allclose(net.eve.element(l), filled.eve.element(l), rtol=0, atol=1e-12)
    got, want = verify_selftest_noiseless(net), verify_selftest_noiseless(filled)
    for a, b in zip(got["checks"], want["checks"]):
        assert a.keys() == b.keys() and a["passed"] == b["passed"]
        assert a["measured"] == pytest.approx(b["measured"], rel=0, abs=1e-12)
        assert a.get("worst_l") == b.get("worst_l")


def _assert_reports_match(got, want):
    """Equal JSON trees, up to 1e-12 in every float."""
    if isinstance(want, float):
        assert got == pytest.approx(want, rel=0, abs=1e-12)
    elif isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            _assert_reports_match(got[key], want[key])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            _assert_reports_match(a, b)
    else:
        assert got == want


@pytest.mark.parametrize("n", [3, 5])
def test_fill_form_strategy_file_gives_the_floor_forms_report(tmp_path, capsys, n):
    # A `mix_povm` file in the fill form, as older versions wrote it (no
    # eve_floor, 2^n + 1 columns per outcome), still loads, and verify
    # reports on it what it reports on the same network with a floor.
    net = apply_noise(ideal_network(n), "mix_povm", 0.1)
    filled = StarNetwork(n, net.sources, net.observables, _fill_form(net.eve))
    runs = []
    for name, strategy in (("floor", net), ("fill", filled)):
        path = tmp_path / f"{name}.json"
        save_strategy(strategy, path)
        code = rqtgap.cli.main(["verify", "--n", str(n), "--strategy", str(path)])
        out, err = capsys.readouterr()
        runs.append((code, json.loads(out), re.sub(r"measured \S+", "", err)))
    assert "eve_floor" in path.with_name("floor.json").read_text()
    assert load_strategy(path).eve.factors.shape == (1 << n, 1 << n, (1 << n) + 1)
    (code, report, fail), (want_code, want, want_fail) = runs
    assert code == want_code == 1 and fail == want_fail
    _assert_reports_match(report, want)


def test_states_and_I_pass_peak_within_20_mib():
    # tracemalloc sees numpy's buffers. At n = 9 the conditional vectors
    # are 2^9 x 2^9 complex entries (4 MiB); each factor of an I_l term
    # is one matmul on a view of them, so a pass holds a few such arrays.
    net = ideal_network(9)
    tracemalloc.start()
    try:
        values = I_values(net, conditional_states(net))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(values, 16.0, rtol=0, atol=1e-12)
    assert peak <= 20 * 2**20


def test_eval_J_peak_within_4_mib():
    # J_N is taken on rho^0 alone, as the 2^10-entry vector of outcome 0;
    # the dense 2^10 x 2^10 rho^0 alone would be 16 MiB.
    net = cqt_strategy(10)
    tracemalloc.start()
    try:
        value = eval_J(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(1.0, abs=1e-12)
    assert peak <= 4 * 2**20


def test_mixed_states_pass_peak_within_44_mib():
    # At n = 7 the pair rows of all outcomes are 2^7 x 4^7 complex entries
    # (32 MiB). A trace reads them in label slices of MIXED_BATCH_ENTRIES
    # entries, through views; its first factor leaves a quarter of a slice.
    # The battery builds the states and takes the I pass on them.
    net = apply_noise(ideal_network(7), "depolarize_sources", 0.1)
    assert conditional_states(net, [0]).pairs is not None
    tracemalloc.start()
    try:
        verify_selftest_noiseless(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 44 * 2**20


def test_mixed_states_in_slices_match_one_batch(monkeypatch):
    net = apply_noise(ideal_network(3), "depolarize_sources", 0.1)
    states = conditional_states(net)
    u = _haar_unitary(_random_matrix(2, np.random.default_rng(0)))
    op = ProductSum.product({0: u, 2: np.diag([1.0, -1.0])})
    whole = states.expect(op)
    sizes = []

    def recorded(x, dims, placed):
        sizes.append(np.size(x) // states.pairs.shape[1])
        return apply_local(x, dims, placed)

    # Slices of 3, 3 and 2 of the 8 outcomes.
    monkeypatch.setattr(rqtgap.network, "MIXED_BATCH_ENTRIES", 3 * states.pairs.shape[1])
    monkeypatch.setattr(rqtgap.linalg, "apply_local", recorded)
    got = states.expect(op)
    assert sizes == [3, 3, 2]
    np.testing.assert_allclose(got, whole, rtol=0, atol=1e-15)


def _finite_difference_k(net: StarNetwork, rho: np.ndarray, third, i: int) -> np.ndarray:
    """K[a, b] = J(E_ab) - J(0), E_ab the matrix unit at party i's third."""
    d = net.party_dims[i]
    probe = list(third)
    probe[i] = np.zeros((d, d))
    j0 = _dense_j(net, rho, probe)
    k = np.zeros((d, d))
    for a in range(d):
        for b in range(d):
            probe[i] = np.zeros((d, d))
            probe[i][a, b] = 1.0
            k[a, b] = _dense_j(net, rho, probe) - j0
    return k


def _restart_axis(x: np.ndarray, restarts: int) -> np.ndarray:
    """The columns X repeated along a leading restart axis, as a batched
    sweep takes them."""
    return np.broadcast_to(x, (restarts,) + x.shape)


def _check_sweep_coefficients(net, rho, x, ones, rng, restarts: int) -> None:
    # Non-symmetric, non-observable thirds make K and K^T differ, so the
    # test pins which is which. Each update replaces the party's third by
    # a fresh one, so every K must see the new thirds before its party and
    # the old ones after it, each restart its own.
    party_dims = net.party_dims
    third = [rng.normal(size=(restarts, d, d)) for d in party_dims]
    replacements = [rng.normal(size=(restarts, d, d)) for d in party_dims]
    seen = list(third)
    calls = []

    def record(k, current):
        i = len(calls)
        calls.append(i)
        np.testing.assert_array_equal(current, seen[i])
        for r in range(restarts):
            want = _finite_difference_k(net, rho, [t[r] for t in seen], i)
            np.testing.assert_allclose(k[r], want, rtol=0, atol=1e-12)
        seen[i] = replacements[i]
        return replacements[i]

    xs = _restart_axis(x, restarts)
    with mock.patch.object(rqtgap.rqt, "_best_real_observables", record):
        got = rqtgap.rqt._sweep(xs, party_dims, ones, third)
    assert calls == list(range(net.n))
    for r in range(restarts):
        want = _dense_j(net, rho, [t[r] for t in replacements])
        assert got[r] == pytest.approx(want, abs=1e-12)


@settings(max_examples=15, deadline=None)
@given(dims=_network_dims(4), seed=SEEDS, pure=st.booleans())
def test_seesaw_coefficients_match_finite_differences(dims, seed, pure):
    party_dims = dims[0]
    net = _random_network(*dims, seed, pure=pure)
    assert (net.source_vectors is not None) == pure
    x = conditional_states(net, [0]).columns(0)
    rho = conditional_state(net, 0).mat
    np.testing.assert_allclose(x @ x.conj().T, rho, rtol=0, atol=1e-13)
    ones = J_fixed_factors(net.pairs)
    own = [t[2] for t in net.observables]
    assert eval_J(net) == pytest.approx(_dense_j(net, rho, own), abs=1e-12)
    rng = np.random.default_rng(seed)
    for restarts in (1, 3):
        _check_sweep_coefficients(net, rho, x, ones, rng, restarts)


def _real_thirds(party_dims, seed: int, restarts: int) -> list[np.ndarray]:
    """Random real +/-1 thirds, one (restarts, d, d) stack per party."""
    seeds = np.random.default_rng(seed).integers(0, 2**63, size=(restarts, len(party_dims)))
    return [random_pm1_matrices(d, seeds[:, i], real=True) for i, d in enumerate(party_dims)]


@settings(max_examples=15, deadline=None)
@given(dims=_network_dims(4), seed=SEEDS, pure=st.booleans())
def test_each_seesaw_sweep_returns_J_of_its_thirds(dims, seed, pure):
    party_dims = dims[0]
    net = _random_network(*dims, seed, pure=pure)
    x = conditional_states(net, [0]).columns(0)
    ones = J_fixed_factors(net.pairs)
    for restarts in (1, 3):
        xs = _restart_axis(x, restarts)
        third = _real_thirds(party_dims, seed, restarts)

        def each_j():
            return [eval_J(net.with_third([t[r] for t in third])) for r in range(restarts)]

        for _ in range(3):
            got = rqtgap.rqt._sweep(xs, party_dims, ones, third)
            assert got == pytest.approx(each_j(), abs=1e-12)


@settings(max_examples=15, deadline=None)
@given(dims=_network_dims(4), seed=SEEDS, pure=st.booleans(), restarts=st.integers(1, 5))
def test_batched_sweep_matches_each_restart_alone(dims, seed, pure, restarts):
    party_dims = dims[0]
    net = _random_network(*dims, seed, pure=pure)
    x = conditional_states(net, [0]).columns(0)
    ones = J_fixed_factors(net.pairs)
    batch = _real_thirds(party_dims, seed, restarts)
    alone = [[t[r : r + 1] for t in batch] for r in range(restarts)]
    got = rqtgap.rqt._sweep(_restart_axis(x, restarts), party_dims, ones, batch)
    for r, third in enumerate(alone):
        want = rqtgap.rqt._sweep(_restart_axis(x, 1), party_dims, ones, third)
        assert got[r] == pytest.approx(want[0], rel=0, abs=1e-12)
        for b, a in zip(batch, third):
            np.testing.assert_allclose(b[r], a[0], rtol=0, atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(dims=_network_dims(3), seed=SEEDS, with_third=st.booleans(), pure=st.booleans())
def test_strategy_file_round_trip_is_bit_exact(dims, seed, with_third, pure):
    net = _random_network(*dims, seed, pure=pure)
    if not with_third:
        net = StarNetwork(
            net.n, net.sources, tuple(t[:2] + (None,) for t in net.observables), net.eve
        )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "strategy.json"
        save_strategy(net, path)
        back = load_strategy(path)
    assert back.n == net.n
    for a, b in zip(back.sources, net.sources):
        assert a.local_dims == b.local_dims
        np.testing.assert_array_equal(a.mat, b.mat)
    for ta, tb in zip(back.observables, net.observables):
        for ma, mb in zip(ta, tb):
            assert (ma is None) == (mb is None)
            if ma is not None:
                np.testing.assert_array_equal(ma, mb)
    np.testing.assert_array_equal(back.eve.factors, net.eve.factors)
    assert (back.source_vectors is None) == (net.source_vectors is None) == (not pure)


def _unchecked(m, who):
    """Stand-in for `linalg.require_pm1` that lets non-+/-1 factors through."""
    return np.asarray(m, dtype=complex)


def _stacked(op: ProductSum, dims) -> tuple:
    """`op`'s terms as the one-input batch `frobenius_norm` takes,
    identity where a term leaves a factor alone."""
    factors = tuple(
        np.array([p.get(i, np.eye(d)) for _, p in op.terms], dtype=complex).reshape(1, -1, d, d)
        for i, d in enumerate(dims)
    )
    return np.array([[c for c, _ in op.terms]], dtype=complex), factors


def _random_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    count=st.integers(1, 8),
    seed=SEEDS,
    data=st.data(),
)
def test_product_sum_matches_dense(dims, count, seed, data):
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(count):
        where = data.draw(st.sets(st.integers(0, len(dims) - 1)), label="placed")
        coeff = complex(rng.normal(), rng.normal())
        terms.append((coeff, {i: _random_matrix(dims[i], rng) for i in where}))
    p = ProductSum(tuple(terms))
    want = np.linalg.norm(p.dense(dims))
    assert rqtgap.linalg.frobenius_norm(*_stacked(p, dims))[0] == pytest.approx(want, rel=1e-12)


def _dense_sos_generators(n: int, l: int, pairs) -> tuple[dict, np.ndarray]:
    """The SOS generators and I_l as dense matrices from `tensor_embed`,
    term by term as written in `robustness`, with no +/-1 check."""
    dims = tuple(p[0].shape[0] for p in pairs)
    bits = [(l >> (n - i)) & 1 for i in range(1, n + 1)]
    at0 = (pairs[0][0] - pairs[0][1]) / math.sqrt(2.0)
    at1 = (pairs[0][0] + pairs[0][1]) / math.sqrt(2.0)
    eye = np.eye(math.prod(dims), dtype=complex)
    ones = {0: at1, **{i: pairs[i][1] for i in range(1, n)}}
    zero = {i: tensor_embed(dims, {0: at0, i - 1: pairs[i - 1][0]}) for i in range(2, n + 1)}
    i_op = (-1) ** bits[0] * (
        (n - 1) * tensor_embed(dims, ones)
        + sum((-1) ** bits[i - 1] * zero[i] for i in range(2, n + 1))
    )
    gens = {"P_1": eye - (-1) ** bits[0] * tensor_embed(dims, ones)}
    for i in range(2, n + 1):
        gens[f"P_{i}"] = eye - (-1) ** (bits[0] + bits[i - 1]) * zero[i]
    gens["J_l"] = 2.0 * (n - 1) * eye - i_op
    for i, j in itertools.combinations(range(2, n + 1), 2):
        gens[f"Q_{i},{j}"] = (-1) ** bits[i - 1] * zero[i] - (-1) ** bits[j - 1] * zero[j]
    for j in range(2, n + 1):
        placed = {0: at1, j - 1: pairs[j - 1][0]}
        placed.update({i - 1: pairs[i - 1][1] for i in range(2, n + 1) if i != j})
        gens[f"T_{j}"] = tensor_embed(dims, placed) + (-1) ** bits[j - 1] * tensor_embed(
            dims, {0: at0, j - 1: pairs[j - 1][1]}
        )
    return gens, i_op


def _dense_sos_residuals(n: int, l: int, pairs) -> tuple[float, float]:
    """Frobenius norms of both SOS identities' LHS - RHS from dense products."""
    g, i_op = _dense_sos_generators(n, l, pairs)
    beta_q = 2.0 * (n - 1)
    eye = np.eye(i_op.shape[0])
    rhs_a = (n - 1) * g["P_1"] @ g["P_1"] + sum(g[f"P_{i}"] @ g[f"P_{i}"] for i in range(2, n + 1))
    res_a = np.linalg.norm(2.0 * (beta_q * eye - i_op) - rhs_a)
    rhs_b = g["J_l"] @ g["J_l"]
    for name, t in g.items():
        if name.startswith("Q_"):
            rhs_b = rhs_b + t @ t
        elif name.startswith("T_"):
            rhs_b = rhs_b + (n - 1) * (t @ t)
    res_b = np.linalg.norm(2.0 * beta_q * g["J_l"] - rhs_b)
    return float(res_a), float(res_b)


def _check_sos_identities(dims, count, seed, labels):
    """One call on a batch of inputs gives, for each input, the scalar
    call's residual and the dense products' residual."""
    rng = np.random.default_rng(seed)
    n = len(dims)
    valid = [[random_pm1_matrices(d, rng.integers(2**32, size=count)) for _ in range(2)] for d in dims]
    # Non-+/-1 factors break both identities; the kernels must still agree.
    broken = [
        [np.array([_random_matrix(d, rng) for _ in range(count)]) for _ in range(2)] for d in dims
    ]
    # On +/-1 inputs every residual is rounding noise, which grows with the
    # operator's dimension D: over 2,400 examples of the draws below, the
    # largest residual of the three kernels was 446 sqrt(D) eps (D = 144
    # and 256 gave the largest ratios; dims [4, 4, 4, 3] reached 331).
    noise = 2000 * math.sqrt(math.prod(dims)) * np.finfo(float).eps
    for obs, check in ((valid, rqtgap.linalg.require_pm1), (broken, _unchecked)):
        with mock.patch.object(rqtgap.linalg, "require_pm1", check):
            batched = [verify_sos_identity_A(n, labels, obs), verify_sos_identity_B(n, labels, obs)]
            for b, l in enumerate(labels):
                one = [[m[b] for m in pair] for pair in obs]
                scalar = [verify_sos_identity_A(n, l, one), verify_sos_identity_B(n, l, one)]
                for got, want, dense in zip(batched, scalar, _dense_sos_residuals(n, l, one)):
                    if obs is valid:
                        assert max(got[b], want, dense) <= noise
                    else:
                        assert got[b] == pytest.approx(want, rel=1e-12)
                        assert got[b] == pytest.approx(dense, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    dims=st.integers(2, 4).flatmap(lambda n: st.lists(st.integers(2, 4), min_size=n, max_size=n)),
    count=st.integers(1, 7),
    seed=SEEDS,
    data=st.data(),
)
def test_sos_identities_match_dense_products(dims, count, seed, data):
    n = len(dims)
    labels = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=count, max_size=count))
    _check_sos_identities(dims, count, seed, labels)


def test_sos_identities_match_dense_products_replayed_case():
    # A case that failed a fixed 1e-12 bound: identity B on input 4 gives
    # 9.68e-13 from `verify_sos_identity_B` and 1.019e-12 from the dense
    # products, both rounding noise on an operator of dimension 192.
    _check_sos_identities([4, 4, 4, 3], 5, 73964, [0] * 5)


def _check_residual_norms(n, model, strength, shrink, l):
    """`residual_norms` on a noisy network whose A_{1,0} is not +/-1, each
    norm squared against Tr(G^dag G rho^l) from dense generators."""
    net = apply_noise(ideal_network(n), model, strength)
    with mock.patch.object(rqtgap.linalg, "require_pm1", _unchecked):
        # A_{1,0} shrunk and given an anti-Hermitian part is not +/-1: no SOS
        # term vanishes, and not every term is Hermitian.
        skew = 1j * (1.0 - shrink) * np.array([[0.3, 0.5], [0.5, -0.2]])
        obs = ((shrink * net.observables[0][0] + skew, net.observables[0][1], None),)
        obs += net.observables[1:]
        net = StarNetwork(n, net.sources, obs, net.eve)
        got = residual_norms(net, l)["terms"]
    rho = conditional_state(net, l).mat
    gens, _ = _dense_sos_generators(n, l, [(t[0], t[1]) for t in net.observables])
    assert got.keys() == gens.keys()
    for name, g in gens.items():
        want = max(0.0, np.trace(g.conj().T @ g @ rho).real)
        assert got[name]["norm"] ** 2 == pytest.approx(want, rel=1e-12, abs=1e-14)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(2, 4),
    model=st.sampled_from(NOISE_MODELS),
    strength=st.floats(0.0, 0.2),
    shrink=st.floats(0.3, 1.0),
    data=st.data(),
)
def test_residual_norms_match_dense_generators(n, model, strength, shrink, data):
    l = data.draw(st.integers(0, (1 << n) - 1), label="l")
    _check_residual_norms(n, model, strength, shrink, l)


def test_residual_norms_match_dense_generators_replayed_case():
    # A case hypothesis found: Tr(G^dag G rho^l), summed from up to 36
    # cancelling terms, missed the dense oracle here by 1.15e-14.
    _check_residual_norms(4, "rotate_observables", 0.00390625, 0.990234375, 0)


@pytest.mark.parametrize("model", [None, "mix_povm"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_eve_projector_check_matches_dense_elements(model, n):
    net = ideal_network(n) if model is None else apply_noise(ideal_network(n), model, 0.1)
    battery = verify_selftest_noiseless(net)
    got = next(c for c in battery["checks"] if c["name"] == "eve_povm_projects")["measured"]
    targets = ghz_basis(n)
    want = max(
        np.linalg.norm(net.eve.element(l) - np.outer(targets[:, l], targets[:, l].conj()))
        for l in range(1 << n)
    )
    assert got == pytest.approx(want, rel=1e-12, abs=1e-14)
    assert (got <= 1e-10) == (model is None)


def _qubit_eve(n: int, rank_one: bool, max_rank: int, rng: np.random.Generator) -> EveMeasurement:
    """A Haar rank-1 projective measurement, or factors of random ranks
    1..max_rank per outcome, on n qubit E factors."""
    dim = 1 << n
    if rank_one:
        return EveMeasurement(_haar_unitary(_random_matrix(dim, rng))[:, :, None])
    ranks = list(rng.integers(1, max_rank + 1, size=dim))
    ranks[0] = max(ranks[0], dim - sum(ranks[1:]))
    return EveMeasurement.from_factors(_random_factors(dim, ranks, rng))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 3), pure=st.booleans(), rank_one=st.booleans(), seed=SEEDS, data=st.data())
def test_selftest_battery_matches_dense_states(n, pure, rank_one, seed, data):
    # Ranks up to 2^n + 1 reach past the party dimension 2^n, so pure
    # sources take the density-matrix kernel too.
    max_rank = data.draw(st.integers(1, (1 << n) + 1), label="max rank")
    eve = _qubit_eve(n, rank_one, max_rank, np.random.default_rng(seed + 1))
    net = _random_network([2] * n, [2] * n, seed, pure=pure, eve=eve)
    checks = {c["name"]: c for c in verify_selftest_noiseless(net)["checks"]}
    targets = ghz_basis(n)
    pairs = [(t[0], t[1]) for t in net.observables]
    tol = 1e-10
    per_l, probs, fid = [], [], []
    for l in range(1 << n):
        raw = _dense_conditional(net, l)
        p = np.trace(raw).real
        probs.append(p)
        per_l.append(np.trace(build_I_operator(n, l, pairs).mat @ raw).real / p)
        fid.append(np.real(targets[:, l].conj() @ raw @ targets[:, l]) / p)
    bound = checks["quantum_bound_attained"]
    got = np.array([bound["per_l"][str(l)] for l in range(1 << n)])
    np.testing.assert_allclose(got, per_l, rtol=0, atol=1e-12)
    want = max(abs(v - 2.0 * (n - 1)) for v in per_l)
    assert bound["passed"] == (want <= tol)
    want = float(np.max(np.abs(np.array(probs) - 1.0 / (1 << n))))
    assert checks["eve_uniform"]["measured"] == pytest.approx(want, rel=0, abs=1e-12)
    assert checks["eve_uniform"]["passed"] == (want <= tol)
    want = float(np.max(np.abs(1.0 - np.array(fid))))
    assert checks["conditional_states_ideal"]["measured"] == pytest.approx(want, rel=0, abs=1e-12)
    assert checks["conditional_states_ideal"]["passed"] == (want <= tol)


def _party4_network() -> StarNetwork:
    """ideal_network(2) with party 2 on a random pure 4 x 2 source, its
    three observables random +/-1 on d = 4."""
    rng = np.random.default_rng(5)
    base = ideal_network(2)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    sources = (base.sources[0], DenseOperator(np.outer(psi, psi.conj()), (4, 2)))
    big = tuple(random_pm1_observable(4, s).mat for s in (1, 2, 3))
    obs = (base.observables[0][:2] + (rqtgap.linalg.X.copy(),), big)
    return StarNetwork(2, sources, obs, base.eve)


def test_production_paths_never_build_dense_operators(tmp_path, monkeypatch):
    # Every module of the package that binds one of the dense oracles
    # gets a stand-in that raises; `partial_trace` of small marginals stays.
    def refuse(*args, **kwargs):
        raise AssertionError("dense oracle called from a production path")

    oracles = {name: getattr(rqtgap.linalg, name) for name in ("kron_all", "tensor_embed")}
    for name, mod in list(sys.modules.items()):
        if name == "rqtgap" or name.startswith("rqtgap."):
            for attr, oracle in oracles.items():
                if getattr(mod, attr, None) is oracle:
                    monkeypatch.setattr(mod, attr, refuse)
    monkeypatch.setattr(ProductSum, "dense", refuse)
    noisy = tmp_path / "noisy.json"
    save_strategy(apply_noise(ideal_network(4), "depolarize_sources", 0.1), noisy)
    out = tmp_path / "out.json"
    runs = (
        (["verify", "--n", "4"], 0),
        (["verify", "--n", "4", "--strategy", str(noisy)], 1),
        (["seesaw", "--n", "4", "--restarts", "3"], 0),
    )
    for argv, code in runs:
        assert rqtgap.cli.main(["--out", str(out)] + argv) == code
    for model in NOISE_MODELS:
        perturbation_experiment(3, model, 0.1, seed=0, restarts=2)
        residual_norms(apply_noise(ideal_network(3), model, 0.1), 5)
    assert len(t_values(_party4_network())) == 2
