import itertools
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import rqtgap.rqt as rqt
from rqtgap.functionals import eval_J
from rqtgap.linalg import (
    DenseOperator,
    random_pm1_matrices,
    X,
    Y,
    Z,
    partial_trace,
    random_pm1_observable,
)
from rqtgap.network import StarNetwork, conditional_state, ideal_network
from rqtgap.rqt import (
    SeesawStart,
    _best_real_observables,
    construct_optimal_real_strategy,
    j_from_t,
    max_j_over_t,
    pauli_block_decompose,
    seesaw_real,
    t_values,
)


def brute_force_vertex_max(n: int) -> tuple[Fraction, tuple[int, ...]]:
    """Oracle: j on every vertex of the cube in exact arithmetic, with the
    lexicographically smallest vertex attaining the maximum."""
    best, arg = None, None
    for t in itertools.product((-1, 1), repeat=n):
        cross = sum(t[a] * t[b] for a in range(n) for b in range(n) if a != b)
        val = Fraction(-cross, n * (n - 1))
        if best is None or val > best:
            best, arg = val, t
    return best, arg


def test_pauli_block_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(5):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = m + m.conj().T
        d = pauli_block_decompose(DenseOperator(m, (2, 2)))
        sigmas = (np.eye(2), Z, X, Y)
        rebuilt = sum(np.kron(sigma, r) for sigma, r in zip(sigmas, d))
        np.testing.assert_allclose(rebuilt, m, atol=1e-12)


def test_block_decomposition_of_y():
    d = pauli_block_decompose(DenseOperator(Y, (2,)))
    assert d.shape == (4, 1, 1)
    np.testing.assert_allclose(d[3], np.array([[1.0]]), atol=1e-12)
    for r in d[:3]:
        np.testing.assert_allclose(r, np.array([[0.0]]), atol=1e-12)


def test_j_from_t_matches_definition():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        t = rng.uniform(-1, 1, size=n)
        direct = -sum(
            t[i] * t[j] for i in range(n) for j in range(n) if i != j
        ) / (n * (n - 1))
        assert j_from_t(t) == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("n", range(2, 13))
def test_max_j_over_t_exact(n):
    got = max_j_over_t(n)
    assert (got.max_value, got.argmax) == brute_force_vertex_max(n)
    if n % 2 == 0:
        assert got.max_value == Fraction(1, n - 1)
    else:
        assert got.max_value == Fraction(1, n)
    assert j_from_t(got.argmax) == pytest.approx(float(got.max_value), abs=1e-12)


def test_max_never_exceeds_bound_up_to_64():
    for n in range(2, 65):
        assert max_j_over_t(n).max_value <= Fraction(1, n - 1)


def test_interior_points_never_beat_vertex_max():
    rng = np.random.default_rng(11)
    for n in (3, 4, 5):
        cap = float(max_j_over_t(n).max_value)
        for _ in range(200):
            t = rng.uniform(-1, 1, size=n)
            assert j_from_t(t) <= cap + 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_optimal_real_strategy_attains_enumerated_value(n):
    net = construct_optimal_real_strategy(n)
    for s in net.sources:
        assert not s.mat.imag.any()
    for triple in net.observables:
        for m in triple:
            assert not m.imag.any()
    assert not net.eve.factors.imag.any()
    assert eval_J(net) == pytest.approx(float(max_j_over_t(n).max_value), abs=1e-10)


def test_t_values_of_known_strategies():
    net = construct_optimal_real_strategy(4)
    assert t_values(net) == pytest.approx([-1, -1, 1, 1], abs=1e-12)
    y_net = ideal_network(2).with_third([Y.copy(), Y.copy()])
    assert t_values(y_net) == pytest.approx([0.0, 0.0], abs=1e-12)


def test_t_values_of_a_larger_party_use_its_auxiliary_marginal():
    # Party 2 holds a 4-dimensional system: a random pure source on 4 x 2,
    # split as qubit (x) aux for its third observable.
    rng = np.random.default_rng(5)
    base = ideal_network(2)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    sources = (base.sources[0], DenseOperator(np.outer(psi, psi.conj()), (4, 2)))
    big = [random_pm1_observable(4, s).mat for s in (1, 2)]
    # A complex third makes Tr(r_2 aux) differ from Tr(r_2 aux^T).
    third = [X.copy(), random_pm1_observable(4, 3).mat]
    obs = (base.observables[0][:2] + (third[0],), (big[0], big[1], third[1]))
    net = StarNetwork(2, sources, obs, base.eve)
    r2 = pauli_block_decompose(DenseOperator(third[1], (2, 2)))[2]
    marginal = partial_trace(conditional_state(net, 0), keep=[1])
    aux = partial_trace(DenseOperator(marginal.mat, (2, 2)), keep=[1]).mat
    want = [0.5 * np.trace(X @ third[0]).real, np.trace(r2 @ aux).real]
    assert t_values(net) == pytest.approx(want, abs=1e-12)


def test_seesaw_reaches_optimum_at_n11():
    res = seesaw_real(ideal_network(11), restarts=5, seed=0)
    assert res.best_J == pytest.approx(float(max_j_over_t(11).max_value), abs=1e-6)


def test_seesaw_reaches_optimum_and_is_sound():
    for n in (2, 3):
        res = seesaw_real(ideal_network(n), restarts=10, seed=0)
        exact = float(max_j_over_t(n).max_value)
        assert res.best_J == pytest.approx(exact, abs=1e-8)
        assert res.best_J <= exact + 1e-7
        assert len(res.per_restart) == 10
        assert res.rng == "pcg64"


@pytest.mark.parametrize("n", range(2, 11))
def test_ideal_seesaw_start_equals_the_ideal_networks(n):
    want = SeesawStart.of(ideal_network(n))
    got = SeesawStart.ideal(n)
    assert (got.n, got.party_dims) == (want.n, want.party_dims)
    assert got.columns.dtype == want.columns.dtype
    np.testing.assert_array_equal(got.columns, want.columns)
    assert len(got.ones) == len(want.ones) == n
    for a, b in zip(got.ones, want.ones):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("n", range(2, 9))
def test_seesaw_on_the_ideal_start_equals_it_on_the_network(n):
    net, start = ideal_network(n), SeesawStart.ideal(n)
    for seed in range(3):
        a = seesaw_real(net, restarts=6, seed=seed)
        b = seesaw_real(start, restarts=6, seed=seed)
        assert a.per_restart == b.per_restart and a.best_J == b.best_J
        for x, y in zip(a.best_third, b.best_third, strict=True):
            np.testing.assert_array_equal(x, y)


def test_seesaw_draws_each_partys_thirds_from_its_own_seeds(monkeypatch):
    # Parties of dimensions 4, 2, 4: one draw per dimension gives every
    # party the matrices that a draw on its own column of seeds gives.
    dims = (4, 2, 4)
    started = []

    def first_batch(x, dims, ones, third):
        started.append(third)
        raise StopIteration

    monkeypatch.setattr(rqt, "_run_batch", first_batch)
    start = SeesawStart(3, dims, np.full((32, 1), 32**-0.5), [np.eye(d) for d in dims])
    with pytest.raises(StopIteration):
        seesaw_real(start, restarts=5, seed=7)
    seeds = np.random.default_rng(7).integers(0, 2**63, size=(5, 3))
    for i, d in enumerate(dims):
        np.testing.assert_array_equal(started[0][i], random_pm1_matrices(d, seeds[:, i], real=True))


def test_seesaw_deterministic_and_traced(tmp_path):
    trace = tmp_path / "trace.jsonl"
    a = seesaw_real(ideal_network(2), restarts=3, seed=5, trace_path=str(trace))
    b = seesaw_real(ideal_network(2), restarts=3, seed=5)
    assert a.per_restart == b.per_restart
    lines = [json.loads(s) for s in trace.read_text().splitlines()]
    assert lines and all({"restart", "iter", "J"} <= set(rec) for rec in lines)


def test_seesaw_best_third_ignores_rounding_in_later_ties(monkeypatch):
    sweep = rqt._sweep

    def run(bump):
        batches = []

        def bumped(x, dims, ones, third):
            # All six restarts share one batch and stop after the same
            # sweep, so row r is restart r: it ends r * bump higher than
            # it would.
            assert len(x) == 6
            batches.append(third)  # updated in place by the sweep
            return sweep(x, dims, ones, third) + bump * np.arange(6)

        monkeypatch.setattr(rqt, "_sweep", bumped)
        res = seesaw_real(ideal_network(4), restarts=6, seed=2)
        monkeypatch.undo()
        return res, batches[-1]

    (plain, thirds), (bumped, _) = run(0.0), run(1e-15)
    exact = float(max_j_over_t(4).max_value)
    assert plain.per_restart == pytest.approx([exact] * 6, abs=1e-12)
    # The last restart, now strictly the highest, ends at other observables
    # than the first, so a strict comparison would return its thirds.
    assert bumped.best_J == bumped.per_restart[-1] > bumped.per_restart[0]
    assert any(not np.array_equal(t[0], t[-1]) for t in thirds)
    for a, b in zip(plain.best_third, bumped.best_third):
        np.testing.assert_array_equal(a, b)


def test_seesaw_restart_that_never_stops_keeps_its_last_thirds(monkeypatch, tmp_path):
    # One sweep per restart: the first sweep never stops a restart, since
    # J starts at -inf, so every restart ends by reaching SEESAW_MAX_ITER.
    monkeypatch.setattr(rqt, "SEESAW_MAX_ITER", 1)
    sweep, swept = rqt._sweep, []

    def recorded(*args):
        j = sweep(*args)
        swept.extend(j.tolist())
        return j

    monkeypatch.setattr(rqt, "_sweep", recorded)
    trace = tmp_path / "trace.jsonl"
    res = seesaw_real(ideal_network(3), restarts=4, seed=1, trace_path=str(trace))
    assert res.per_restart == tuple(swept) and len(swept) == 4
    assert res.best_J == max(swept)
    assert len(res.best_third) == 3
    for m in res.best_third:
        assert m.shape == (2, 2)
        np.testing.assert_allclose(m @ m, np.eye(2), atol=1e-10)
    lines = [json.loads(s) for s in trace.read_text().splitlines()]
    assert lines == [{"restart": r, "iter": 0, "J": j} for r, j in enumerate(swept)]


def test_seesaw_result_observables_are_real_pm1():
    res = seesaw_real(ideal_network(2), restarts=5, seed=1)
    for m in res.best_third:
        np.testing.assert_allclose(m.imag if np.iscomplexobj(m) else 0 * m, 0, atol=1e-12)
        np.testing.assert_allclose(m @ m, np.eye(m.shape[0]), atol=1e-8)


def _best_alone(k, current):
    """`_best_real_observables` on a one-row stack."""
    return _best_real_observables(k[None], current[None])[0]


@pytest.mark.parametrize(
    "k",
    [
        np.zeros((2, 2)),
        np.diag([0.7, 0.0]),
        np.array([[0.3, -1.2], [0.4, 0.0]]),
        np.diag([1.0, 0.0, -2.0, 0.0]),
    ],
    ids=["zero", "one_tie", "no_tie", "two_ties"],
)
def test_best_real_observable_ignores_rounding_noise_in_K(k):
    d = k.shape[0]
    current = random_pm1_matrices(d, 4, real=True)
    chosen = _best_alone(k, current)
    np.testing.assert_allclose(chosen @ chosen, np.eye(d), atol=1e-12)
    rng = np.random.default_rng(0)
    for _ in range(20):
        noisy = k + 1e-15 * rng.standard_normal((d, d))
        np.testing.assert_allclose(_best_alone(noisy, current), chosen, atol=1e-12)
    if not k.any():
        # A K that vanishes up to rounding keeps the current observable as it is.
        got = _best_alone(1e-17 * rng.standard_normal((d, d)), current)
        np.testing.assert_array_equal(got, current)


def test_stacked_best_observables_match_each_row_alone():
    # Tie rows (a zero K, one zero eigenvalue) between regular ones.
    rng = np.random.default_rng(1)
    k = np.stack([
        rng.standard_normal((2, 2)),
        np.zeros((2, 2)),
        np.diag([0.7, 0.0]),
        np.array([[0.3, -1.2], [0.4, 0.0]]),
        rng.standard_normal((2, 2)),
    ])
    current = random_pm1_matrices(2, [4, 5, 6, 7, 8], real=True)
    got = _best_real_observables(k, current)
    for r in range(len(k)):
        np.testing.assert_allclose(got[r], _best_alone(k[r], current[r]), rtol=0, atol=1e-14)
    np.testing.assert_array_equal(got[1], current[1])


def test_seesaw_batches_split_like_one_batch(monkeypatch, tmp_path):
    # Each restart draws its seeds from one stream in restart order, so
    # batches of 2 restarts reproduce one batch of 5, trace file included.
    net = ideal_network(3)
    one = seesaw_real(net, restarts=5, seed=4, trace_path=str(tmp_path / "one.jsonl"))
    x_size = 1 << net.n
    monkeypatch.setattr(rqt.network, "MIXED_BATCH_ENTRIES", 2 * (2 * net.n + 10) * x_size)
    split = seesaw_real(net, restarts=5, seed=4, trace_path=str(tmp_path / "split.jsonl"))
    assert split.per_restart == pytest.approx(one.per_restart, rel=0, abs=1e-12)
    for a, b in zip(split.best_third, one.best_third):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
    lines = [[json.loads(s) for s in (tmp_path / f).read_text().splitlines()]
             for f in ("one.jsonl", "split.jsonl")]
    assert [(r["restart"], r["iter"]) for r in lines[0]] == [(r["restart"], r["iter"]) for r in lines[1]]
    assert [r["restart"] for r in lines[0]] == sorted(r["restart"] for r in lines[0])


def test_seesaw_batch_peak_within_24_mib():
    # tracemalloc sees numpy's buffers. A batch's blocks stay within
    # network.MIXED_BATCH_ENTRIES complex entries (16 MiB), whatever the
    # number of restarts; one unbounded batch of 64 peaks near 31 MiB.
    net = ideal_network(10)
    tracemalloc.start()
    try:
        res = seesaw_real(net, restarts=64, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.best_J == pytest.approx(float(max_j_over_t(10).max_value), abs=1e-6)
    assert peak <= 24 * 2**20
