import math

import numpy as np
import pytest

from rqtgap.errors import ValidationError
from rqtgap.linalg import (
    StateVector,
    X,
    Z,
    random_pm1_observable,
)
from rqtgap.network import EveMeasurement, StarNetwork, ideal_network
from rqtgap.selftest import canonicalize_pair, check_record, verify_selftest_noiseless

SQRT2 = math.sqrt(2.0)


def bell_pair():
    return StateVector(np.array([1, 0, 0, 1], dtype=complex) / SQRT2, (2, 2))


def test_already_canonical_pair():
    res = canonicalize_pair(Z.astype(complex), X.astype(complex), bell_pair())
    assert res.padded_dim == 2
    assert res.residual_a0 <= 1e-12
    assert res.residual_a1 <= 1e-12
    assert res.anticommutator_norm <= 1e-12
    np.testing.assert_allclose(
        res.u @ res.u.conj().T, np.eye(res.padded_dim), atol=1e-12
    )


def test_swapped_pair_is_rotated_back():
    res = canonicalize_pair(X.astype(complex), Z.astype(complex), bell_pair())
    assert res.residual_a0 <= 1e-10
    assert res.residual_a1 <= 1e-10


def test_tilted_pair_obeys_stated_bound():
    th = 0.1
    a1 = (math.cos(th) * X + math.sin(th) * Z).astype(complex)
    res = canonicalize_pair(Z.astype(complex), a1, bell_pair())
    assert res.anticommutator_norm > 0
    assert res.residual_a1 <= res.stated_bound
    # The construction actually lands well below the linear bound here.
    assert res.residual_a1 <= res.quadratic_bound


def test_unbalanced_spectrum_padding():
    # a0 = diag(1, 1, -1) needs one extra -1 direction.
    a0 = np.diag([1.0, 1.0, -1.0]).astype(complex)
    a1 = np.diag([1.0, -1.0, 1.0]).astype(complex)
    psi = StateVector(np.ones(3) / np.sqrt(3.0), (3,))
    res = canonicalize_pair(a0, a1, psi)
    assert res.padded_dim == 4
    assert res.residual_a0 <= 1e-10


def test_randomized_bound_battery():
    rng = np.random.default_rng(31)
    count = 0
    for dims in (2, 4):
        for _ in range(10):
            a0 = random_pm1_observable(dims, int(rng.integers(0, 2**63))).mat
            a1 = random_pm1_observable(dims, int(rng.integers(0, 2**63))).mat
            vec = rng.normal(size=dims * dims) + 1j * rng.normal(size=dims * dims)
            psi = StateVector(vec / np.linalg.norm(vec), (dims, dims))
            res = canonicalize_pair(a0, a1, psi)
            assert res.residual_a1 <= res.stated_bound + 1e-9
            np.testing.assert_allclose(
                res.u @ res.u.conj().T, np.eye(res.padded_dim), atol=1e-12
            )
            count += 1
    assert count == 20


def test_rejects_non_observable_input():
    with pytest.raises(ValidationError):
        canonicalize_pair(2 * np.eye(2), X.astype(complex), bell_pair())


@pytest.mark.parametrize("n", [2, 3])
def test_noiseless_battery_passes(n):
    rep = verify_selftest_noiseless(ideal_network(n))
    assert rep["passed"]
    names = [c["name"] for c in rep["checks"]]
    assert names == [
        "quantum_bound_attained",
        "eve_uniform",
        "pairs_anticommute",
        "conditional_states_ideal",
        "eve_povm_projects",
    ]
    for c in rep["checks"]:
        assert c["measured"] <= c["bound"]


def test_broken_network_fails_first_check():
    net = ideal_network(2)
    obs = list(net.observables)
    obs[1] = (obs[1][0], Z.astype(complex), obs[1][2])
    broken = StarNetwork(net.n, net.sources, tuple(obs), net.eve)
    rep = verify_selftest_noiseless(broken)
    assert not rep["passed"]
    by_name = {c["name"]: c for c in rep["checks"]}
    assert not by_name["quantum_bound_attained"]["passed"]
    assert "per_l" in by_name["quantum_bound_attained"]


def test_failing_checks_name_the_worst_offender():
    n = 3
    net = ideal_network(n)
    # Eve's outcomes 2 and 5 swap their projectors: those two outcomes, and
    # no others, leave the ideal form; ties go to the first.
    v = np.array(net.eve.factors)
    v[:, [2, 5]] = v[:, [5, 2]]
    rep = verify_selftest_noiseless(StarNetwork(n, net.sources, net.observables, EveMeasurement(v)))
    by_name = {c["name"]: c for c in rep["checks"]}
    for name in ("quantum_bound_attained", "conditional_states_ideal", "eve_povm_projects"):
        assert not by_name[name]["passed"]
        assert by_name[name]["worst_l"] == 2
    per_l = by_name["quantum_bound_attained"]["per_l"]
    assert [k for k in per_l if abs(per_l[k] - 2.0 * (n - 1)) > 1e-10] == ["2", "5"]
    assert by_name["pairs_anticommute"]["passed"]

    obs = list(net.observables)
    obs[2] = (obs[2][0], Z.astype(complex), obs[2][2])
    rep = verify_selftest_noiseless(StarNetwork(n, net.sources, tuple(obs), net.eve))
    anti = {c["name"]: c for c in rep["checks"]}["pairs_anticommute"]
    assert not anti["passed"]
    assert anti["worst_party"] == 3


def test_check_record_reduces_to_a_maximum_and_a_first_worst_offender():
    # Deviations within TIE_TOL of the largest tie: the first one is named.
    tied = check_record("c", [0.0, 1.0 - 5e-13, 1.0], 0.5, worst_l=[7, 8, 9])
    assert tied == {"name": "c", "measured": 1.0, "bound": 0.5, "passed": False, "worst_l": 8}
    # One deviation 2e-12 above the rest is beyond the tie and names itself.
    above = check_record("c", [1.0, 1.0 + 2e-12, 1.0], 2.0, worst_party=range(1, 4))
    assert above["passed"] and above["worst_party"] == 2
    # A None entry leaves its key out; the keys keep their order.
    offenders = {"worst_l": [0, 3, 0], "worst_draw": [None, None, 0]}
    keys = ["name", "measured", "bound", "passed", "worst_l"]
    assert list(check_record("c", [0.0, 3e-10, 0.0], 1e-9, **offenders)) == keys
    assert list(check_record("c", [0.0, 0.0, 1.0], 1e-9, **offenders)) == keys + ["worst_draw"]
    # The reduction is np.max, so a NaN deviation fails the check.
    nan = check_record("c", [0.0, math.nan, 0.0], 1.0, worst_l=[0, 1, 2])
    assert math.isnan(nan["measured"]) and nan["passed"] is False
    assert list(check_record("c", np.zeros(3), 1.0)) == ["name", "measured", "bound", "passed"]
