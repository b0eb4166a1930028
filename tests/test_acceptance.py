"""Acceptance battery.

One test per criterion; each prints a single PASS line when it succeeds
(run pytest with -s or look at captured output to see them).
"""

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from rqtgap.cli import main as cli_main
from rqtgap.functionals import (
    classical_bound_I,
    classical_bound_closed_form,
    cqt_strategy,
    eval_I,
    eval_I_from_correlators,
    eval_J,
    ideal_I_value,
)
from rqtgap.linalg import random_pm1_observable
from rqtgap.network import eve_outcome_probability, ghz_state, ideal_network
from rqtgap.pauli import OutcomeLabel, PauliWord, ghz_expectation
from rqtgap.robustness import (
    NOISE_MODELS,
    apply_noise,
    beta_rqt_upper,
    epsilon_threshold,
    residual_norms,
    verify_sos_identity_A,
    verify_sos_identity_B,
)
from rqtgap.rqt import max_j_over_t, seesaw_real

SQRT2 = math.sqrt(2.0)


def test_criterion_01_quantum_bound():
    t0 = time.time()
    for n in range(2, 8):
        net = ideal_network(n)
        for l in range(1 << n):
            assert eval_I(net, l) == pytest.approx(2 * (n - 1), abs=1e-10)
    elapsed = time.time() - t0
    assert elapsed < 30
    print(f"PASS criterion 1: quantum bound 2(n-1) attained, n=2..7, {elapsed:.1f}s")


def test_criterion_02_eve_uniformity():
    for n in range(2, 8):
        net = ideal_network(n)
        for l in range(1 << n):
            assert abs(eve_outcome_probability(net, l) - 1.0 / (1 << n)) <= 1e-12
    print("PASS criterion 2: Eve outcome distribution uniform to 1e-12, n=2..7")


def test_criterion_03_cqt_value():
    for n in range(2, 8):
        assert eval_J(cqt_strategy(n)) == pytest.approx(1.0, abs=1e-10)
    print("PASS criterion 3: complex strategy reaches J_N = 1, n=2..7")


def test_criterion_04_rqt_optimum():
    for n in range(2, 11, 2):
        assert max_j_over_t(n).max_value == Fraction(1, n - 1)
    for n in range(2, 65):
        assert max_j_over_t(n).max_value <= Fraction(1, n - 1)
    t0 = time.time()
    for n in (2, 3, 4):
        res = seesaw_real(ideal_network(n), restarts=50, seed=0)
        assert res.best_J == pytest.approx(float(max_j_over_t(n).max_value), abs=1e-6)
    elapsed = time.time() - t0
    assert elapsed < 300
    print(f"PASS criterion 4: real optimum exact and seesaw-confirmed, {elapsed:.1f}s")


def test_criterion_05_gap_ratio(capsys):
    code = cli_main(["--format", "json", "gap", "--n-min", "2", "--n-max", "10"])
    out = capsys.readouterr().out
    assert code == 0
    rows = json.loads(out)
    for row in rows:
        assert row["beta_CQT"] / row["beta_RQT_cert_bound"] == row["n"] - 1
    with capsys.disabled():
        print("PASS criterion 5: gap ratio n-1 exact, n=2..10")


def test_criterion_06_sos_identities():
    rng = np.random.default_rng(606)
    cases = []
    while len(cases) < 30:
        for n in (2, 3, 4):
            for dims in (2, 4):
                cases.append((n, dims))
    worst_a = worst_b = 0.0
    for n, dims in cases[:30]:
        obs = [
            [
                random_pm1_observable(dims, int(rng.integers(0, 2**63))).mat
                for _ in range(2)
            ]
            for _ in range(n)
        ]
        worst_a = max(worst_a, verify_sos_identity_A(n, 0, obs))
        worst_b = max(worst_b, verify_sos_identity_B(n, 0, obs))
    assert worst_a <= 1e-9
    # Identity B measured at machine precision across the battery, so it is
    # promoted to a hard assertion.
    assert worst_b <= 1e-9
    print(
        f"PASS criterion 6: SOS residuals A={worst_a:.2e}, B={worst_b:.2e} "
        "over 30 randomized instances"
    )


def test_criterion_07_residual_norm_bounds():
    checked = 0
    for model in NOISE_MODELS:
        for n in (2, 3):
            for s in np.linspace(0.005, 0.05, 10):
                net = apply_noise(ideal_network(n), model, float(s))
                rec = residual_norms(net, 0)
                assert all(t["ok"] for t in rec["terms"].values())
                checked += 1
    print(f"PASS criterion 7: residual-norm bounds hold on {checked} noisy networks")


def test_criterion_08_backend_equivalence():
    for n in (2, 3, 4):
        net = ideal_network(n)
        for l in range(1 << n):
            lab = OutcomeLabel(n, l)
            phi = ghz_state(n, l).vec
            for x, z in itertools.product(range(1 << n), repeat=2):
                w = PauliWord(n, x, z)
                dense = complex(phi.conj() @ w.to_matrix() @ phi)
                assert ghz_expectation(w, lab) == pytest.approx(dense, abs=1e-10)
        for l in range(1 << n):
            assert eval_I(net, l) == pytest.approx(ideal_I_value(n, l), abs=1e-10)
            assert eval_I_from_correlators(net, l) == pytest.approx(
                ideal_I_value(n, l), abs=1e-10
            )
    rng = np.random.default_rng(808)
    for _ in range(10_000):
        n = int(rng.integers(5, 8))
        lab = OutcomeLabel(n, int(rng.integers(0, 1 << n)))
        w = PauliWord(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
        phi = ghz_state(n, lab.value).vec
        dense = complex(phi.conj() @ w.to_matrix() @ phi)
        assert ghz_expectation(w, lab) == pytest.approx(dense, abs=1e-10)
    t0 = time.time()
    for l in (0, 1, (1 << 24) - 1):
        assert ideal_I_value(24, l) == pytest.approx(46.0, abs=1e-10)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    print(f"PASS criterion 8: backends agree; n=24 closed form in {elapsed * 1e3:.1f}ms")


def test_criterion_09_noise_bound_calculator():
    for n in range(2, 11):
        assert beta_rqt_upper(n, 0.0) == 1.0 / (n - 1)
    for n in range(3, 11):
        eps = epsilon_threshold(n, 1.0)
        assert abs(beta_rqt_upper(n, eps) - 1.0) <= 1e-10
    print("PASS criterion 9: noiseless bound exact; threshold round-trip <= 1e-10")


def test_criterion_10_classical_bound():
    for n in (2, 3):
        oracle = None
        for l in range(1 << n):
            lab = OutcomeLabel(n, l)
            best = -np.inf
            for assign in itertools.product((1, -1), repeat=2 * n):
                a = [assign[2 * i : 2 * i + 2] for i in range(n)]
                t0 = (a[0][0] - a[0][1]) / SQRT2
                t1 = (a[0][0] + a[0][1]) / SQRT2
                prod = math.prod(a[i][1] for i in range(1, n))
                value = (n - 1) * t1 * prod
                for i in range(2, n + 1):
                    value += (-1) ** lab.bit(i) * t0 * a[i - 1][0]
                best = max(best, (-1) ** lab.bit(1) * value)
            got = classical_bound_I(n)
            assert got["enumerated"] == pytest.approx(best, abs=1e-12)
            assert got["enumerated"] == pytest.approx(
                classical_bound_closed_form(n), abs=1e-12
            )
            assert got["enumerated"] <= 2 * (n - 1) + 1e-12
            if oracle is None:
                oracle = got["enumerated"]
            assert got["enumerated"] == pytest.approx(oracle, abs=1e-12)
        claimed = classical_bound_I(n)["literature_claimed"]
        assert claimed == pytest.approx(SQRT2 * (n + 1), abs=1e-12)
        assert abs(claimed - classical_bound_closed_form(n)) > 1.0
    print(
        "PASS criterion 10: enumerated classical bound sqrt2(n-1) confirmed; "
        "discrepancy with the sqrt2(n+1) figure reported"
    )
