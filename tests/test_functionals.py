import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import rqtgap.rqt
from rqtgap.errors import ConfigurationError, InternalConsistencyError
from rqtgap.functionals import (
    build_I_operator,
    classical_bound_I,
    classical_bound_closed_form,
    cqt_strategy,
    eval_I,
    eval_I_from_correlators,
    eval_J,
    ideal_I_value,
    report,
)
from rqtgap.linalg import X, Y, Z
from rqtgap.network import ideal_network, tilde_pair
from rqtgap.pauli import OutcomeLabel

SQRT2 = math.sqrt(2.0)


def brute_force_classical_bound(n: int, l: int) -> float:
    """Oracle: enumerate every deterministic +/-1 assignment."""
    lab = OutcomeLabel(n, l)
    best = -np.inf
    for assign in itertools.product((1, -1), repeat=2 * n):
        a = [assign[2 * i : 2 * i + 2] for i in range(n)]
        t0 = (a[0][0] - a[0][1]) / SQRT2
        t1 = (a[0][0] + a[0][1]) / SQRT2
        prod = 1.0
        for i in range(1, n):
            prod *= a[i][1]
        value = (n - 1) * t1 * prod
        for i in range(2, n + 1):
            value += (-1) ** lab.bit(i) * t0 * a[i - 1][0]
        best = max(best, (-1) ** lab.bit(1) * value)
    return best


def test_tilde_pair_of_ideal_strategy_is_z_x():
    at0, at1 = tilde_pair((X + Z) / SQRT2, (X - Z) / SQRT2)
    np.testing.assert_allclose(at0, Z, atol=1e-12)
    np.testing.assert_allclose(at1, X, atol=1e-12)


def test_bell_operator_spectrum_matches_closed_form():
    for n in (2, 3):
        net = ideal_network(n)
        pairs = [(t[0], t[1]) for t in net.observables]
        for l in range(1 << n):
            op = build_I_operator(n, l, pairs)
            w = np.linalg.eigvalsh(op.mat)
            assert w[-1] == pytest.approx(2 * (n - 1), abs=1e-10)
            assert w[-2] <= 2 * (n - 1) - 2 + 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_eval_paths_agree(n):
    net = ideal_network(n)
    for l in range(1 << n):
        dense = eval_I(net, l)
        corr = eval_I_from_correlators(net, l)
        closed = ideal_I_value(n, l)
        assert dense == pytest.approx(closed, abs=1e-10)
        assert corr == pytest.approx(closed, abs=1e-10)
        assert closed == pytest.approx(2 * (n - 1), abs=1e-12)


@pytest.mark.parametrize("l", [-1, 4])
def test_eval_I_rejects_outcome_out_of_range(l):
    net = ideal_network(2)
    for evaluate in (eval_I, eval_I_from_correlators):
        with pytest.raises(ValueError, match="out of range"):
            evaluate(net, l)


@pytest.mark.parametrize("n", [2, 3])
def test_classical_bound_matches_brute_force(n):
    for l in range(1 << n):
        oracle = brute_force_classical_bound(n, l)
        got = classical_bound_I(n, l)["enumerated"]
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(classical_bound_closed_form(n), abs=1e-12)


def test_classical_bound_properties():
    for n in range(2, 12):
        b = classical_bound_I(n)
        assert b["enumerated"] == pytest.approx(SQRT2 * (n - 1), abs=1e-12)
        assert b["enumerated"] <= 2 * (n - 1) + 1e-12
        # The two figures genuinely disagree; both are carried.
        assert b["literature_claimed"] == pytest.approx(SQRT2 * (n + 1), abs=1e-12)
        assert b["literature_claimed"] != pytest.approx(b["enumerated"])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cqt_strategy_reaches_one(n):
    assert eval_J(cqt_strategy(n)) == pytest.approx(1.0, abs=1e-10)


def test_eval_J_requires_third_observables():
    with pytest.raises(ConfigurationError):
        eval_J(ideal_network(3))


def test_eval_J_rejects_other_outcomes():
    with pytest.raises(ValueError):
        eval_J(cqt_strategy(2), l=1)


def test_report_contents_and_serialization():
    rep = report(cqt_strategy(3))
    assert rep.n == 3
    assert rep.beta_Q == pytest.approx(4.0)
    assert rep.beta_CQT == 1.0
    assert rep.beta_RQT_bound == pytest.approx(0.5)
    assert rep.gap_ratio == pytest.approx(2.0)
    assert rep.value_J == pytest.approx(1.0, abs=1e-10)
    assert all(v == pytest.approx(4.0, abs=1e-10) for v in rep.values_I.values())
    blob = json.dumps(rep.to_json())
    assert json.loads(blob)["gap_ratio"] == pytest.approx(2.0)
    csv_text = rep.to_csv()
    assert csv_text.splitlines()[0].startswith("l,value_I")
    assert len(csv_text.splitlines()) == 1 + 8


def test_report_rejects_optimum_above_certified_bound(monkeypatch):
    # A plain assert would vanish under python -O; the guard must raise.
    monkeypatch.setattr(
        rqtgap.rqt, "max_j_over_t", lambda n: rqtgap.rqt.TMaximum(Fraction(1, 1), (1,) * n)
    )
    with pytest.raises(InternalConsistencyError, match="certified bound"):
        report(ideal_network(3))
    assert report(ideal_network(3), with_rqt_analysis=False).gap_ratio == 2.0
