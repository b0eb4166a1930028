import itertools
import math

import numpy as np
import pytest

from rqtgap.errors import ConfigurationError
from rqtgap.functionals import (
    build_I_operator,
    classical_bound_I,
    classical_bound_closed_form,
    cqt_strategy,
    eval_I,
    eval_I_from_correlators,
    eval_J,
    ideal_I_value,
)
from rqtgap.linalg import X, Z
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


@pytest.mark.parametrize("n", range(2, 13))
def test_ideal_I_value_on_all_labels_equals_the_scalar_calls(n):
    got = ideal_I_value(n, np.arange(1 << n))
    assert got.shape == (1 << n,) and got.dtype == float
    for l in range(1 << n):
        want = ideal_I_value(n, l)
        assert type(want) is float and got[l] == want == 2 * (n - 1)


@pytest.mark.parametrize("labels", [[0, 8], [-1, 3], 8, -1])
def test_ideal_I_value_rejects_a_label_out_of_range(labels):
    with pytest.raises(ValueError, match="out of range"):
        ideal_I_value(3, labels)


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
        got = classical_bound_I(n)["enumerated"]
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
