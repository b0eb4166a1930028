import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqtgap.functionals import I_terms, eval_I
from rqtgap.linalg import DenseOperator, random_pm1_observable
from rqtgap.network import StarNetwork, eve_outcome_probability, ideal_network
from rqtgap.robustness import (
    NOISE_MODELS,
    _sos_basis,
    apply_noise,
    beta_rqt_upper,
    delta_n,
    epsilon_threshold,
    perturbation_experiment,
    residual_norms,
    verify_sos_identity_A,
    verify_sos_identity_B,
)

SQRT2 = math.sqrt(2.0)


def random_pairs(n, dims, rng):
    return [
        [random_pm1_observable(dims, int(rng.integers(0, 2**63))).mat for _ in range(2)]
        for _ in range(n)
    ]


def test_sos_identity_A_on_ideal():
    for n in (2, 3):
        net = ideal_network(n)
        pairs = [(t[0], t[1]) for t in net.observables]
        for l in range(1 << n):
            assert verify_sos_identity_A(n, l, pairs) <= 1e-12


def test_sos_identity_A_randomized():
    rng = np.random.default_rng(2024)
    for n in (2, 3, 4):
        for dims in (2, 4):
            for _ in range(3):
                obs = random_pairs(n, dims, rng)
                assert verify_sos_identity_A(n, 0, obs) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(
    dims=st.integers(2, 3).flatmap(
        lambda n: st.lists(st.integers(2, 4), min_size=n, max_size=n)
    ),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_sos_identity_A_on_random_observables(dims, seed, data):
    rng = np.random.default_rng(seed)
    n = len(dims)
    obs = [
        [random_pm1_observable(d, int(rng.integers(0, 2**63))).mat for _ in range(2)]
        for d in dims
    ]
    l = data.draw(st.integers(0, (1 << n) - 1), label="l")
    assert verify_sos_identity_A(n, l, obs) <= 1e-9


def test_sos_identity_B_residual_vanishes():
    # Measured as a residual; it lands at machine precision on every tested
    # input, which is what lets the acceptance battery assert it.
    rng = np.random.default_rng(99)
    for n in (2, 3, 4):
        for dims in (2, 4):
            obs = random_pairs(n, dims, rng)
            assert verify_sos_identity_B(n, 0, obs) <= 1e-9
    net = ideal_network(3)
    pairs = [(t[0], t[1]) for t in net.observables]
    assert verify_sos_identity_B(3, 5, pairs) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 5])
def test_sos_basis_codes_place_the_terms_of_I(n):
    # b_1..b_n, read through their codes, are I_terms' products, and the
    # coefficients of J_l over them are minus I_l's.
    rng = np.random.default_rng(n)
    pairs = random_pairs(n, 2, rng)
    (mats, codes), j_row = _sos_basis(n, 5 % (1 << n), pairs)
    i_op = I_terms(n, 5 % (1 << n), pairs)
    assert codes.shape == (3 * n - 1, n) and not codes[0].any()
    for row, (c, placed), coeff in zip(codes[1:], i_op.terms, j_row[1:]):
        assert coeff == -c
        assert sorted(placed) == [i for i, x in enumerate(row) if x]
        for i, m in placed.items():
            np.testing.assert_array_equal(mats[i][row[i] - 1], m)


def test_sos_rejects_non_observables():
    from rqtgap.errors import ValidationError

    bad = [[np.eye(2) * 2, np.eye(2)] for _ in range(2)]
    with pytest.raises(ValidationError):
        verify_sos_identity_A(2, 0, bad)
    # In a batch, one broken input fails the call, which names the stack.
    stacks = [[np.stack([m, m, m]) for m in pair] for pair in ideal_network(3).pairs]
    stacks[1][0][2] = 2.0 * np.eye(2)
    with pytest.raises(ValidationError, match="A_2,0 is not a"):
        verify_sos_identity_B(3, [0, 5, 7], stacks)


def test_residual_norms_vanish_on_ideal():
    for n in (2, 3):
        rec = residual_norms(ideal_network(n), 0)
        assert rec["epsilon_attained"] == pytest.approx(0.0, abs=1e-9)
        for term in rec["terms"].values():
            assert term["norm"] <= 1e-6
            assert term["ok"]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("model", NOISE_MODELS)
def test_residual_norm_bounds_hold_under_noise(n, model):
    strengths = np.linspace(0.005, 0.05, 10)
    for s in strengths:
        net = apply_noise(ideal_network(n), model, float(s))
        for l in (0, (1 << n) - 1):
            rec = residual_norms(net, l)
            assert rec["epsilon_attained"] >= -1e-10
            violations = [k for k, t in rec["terms"].items() if not t["ok"]]
            assert violations == []


def test_depolarized_value_matches_closed_form():
    # n=3, l=0: the three-source word scales by (1-p)^3 and the two
    # two-source words by (1-p)^2, so I = 2(1-p)^3 + 2(1-p)^2.
    for p in (0.01, 0.05):
        net = apply_noise(ideal_network(3), "depolarize_sources", p)
        expect = 2 * (1 - p) ** 3 + 2 * (1 - p) ** 2
        assert eval_I(net, 0) == pytest.approx(expect, abs=1e-10)
    net = apply_noise(ideal_network(3), "depolarize_sources", 0.05)
    assert eval_I(net, 0) == pytest.approx(3.51975, abs=1e-10)


def test_mix_povm_probability_deviation():
    net = apply_noise(ideal_network(3), "mix_povm", 0.01)
    for l in range(8):
        assert abs(eve_outcome_probability(net, l) - 0.125) <= 0.01 / 8 + 1e-12


def test_mix_povm_composes_through_the_floor():
    # White noise of strength s on an already noisy measurement, whose
    # floor is (1 - s) mu_l + s / 2^n, is white noise of strength
    # 1 - (1 - s)(1 - t) on the ideal one.
    s, t = 0.1, 0.2
    twice = apply_noise(apply_noise(ideal_network(3), "mix_povm", t), "mix_povm", s)
    once = apply_noise(ideal_network(3), "mix_povm", 1.0 - (1.0 - s) * (1.0 - t))
    np.testing.assert_allclose(twice.eve.floor, once.eve.floor, rtol=0, atol=1e-15)
    np.testing.assert_allclose(twice.eve.factors, once.eve.factors, rtol=0, atol=1e-15)


def test_rotate_observables_keeps_qubit_results():
    th = 0.07
    net = ideal_network(3)
    c, s = math.cos(th), math.sin(th)
    rot = np.array([[c, -s], [s, c]])
    noisy = apply_noise(net, "rotate_observables", th)
    for before, after in zip(net.observables[1:], noisy.observables[1:]):
        np.testing.assert_array_equal(after[1], rot @ before[1] @ rot.T)


def test_rotate_observables_on_a_qutrit_party():
    th = 0.3
    ideal = ideal_network(2)
    flip = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    net = StarNetwork(
        2,
        (ideal.sources[0], DenseOperator(np.eye(6) / 6, (3, 2))),
        (ideal.observables[0], (np.diag([1.0, -1.0, 1.0]), flip, None)),
        ideal.eve,
    )
    a1 = apply_noise(net, "rotate_observables", th).observables[1][1]
    c, s = math.cos(th), math.sin(th)
    rot = np.array([[c, -s], [s, c]])
    np.testing.assert_allclose(a1[:2, :2], rot @ flip[:2, :2] @ rot.T, atol=1e-15)
    # The third basis direction is left alone.
    np.testing.assert_array_equal(a1[2], flip[2])
    np.testing.assert_array_equal(a1[:, 2], flip[:, 2])


def test_unknown_model_rejected():
    with pytest.raises(ValueError):
        apply_noise(ideal_network(2), "gamma_rays", 0.1)


def test_delta_n_value():
    assert delta_n(2) == pytest.approx(16 + 4 * (SQRT2 + 2), abs=1e-12)
    assert delta_n(2) == pytest.approx(29.65685424949238, abs=1e-11)


def test_beta_rqt_upper_at_zero_and_monotone():
    for n in range(2, 31):
        assert beta_rqt_upper(n, 0.0) == 1.0 / (n - 1)
    grid = np.linspace(0, 1e-3, 50)
    vals = [beta_rqt_upper(3, float(e)) for e in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_epsilon_threshold_roundtrip():
    for n in range(3, 11):
        eps = epsilon_threshold(n, 1.0)
        assert eps > 0
        assert beta_rqt_upper(n, eps) == pytest.approx(1.0, abs=1e-10)
        assert beta_rqt_upper(n, eps * 1.01) > 1.0


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 1000), excess=st.floats(1e-12, 1e3))
def test_epsilon_threshold_round_trips_over_wide_n(n, excess):
    target = 1.0 / (n - 1) + excess
    eps = epsilon_threshold(n, target)
    assert eps >= 0
    assert beta_rqt_upper(n, eps) == pytest.approx(target, rel=1e-12)


def test_epsilon_threshold_rejects_unreachable_target():
    with pytest.raises(ValueError):
        epsilon_threshold(3, 0.5)
    with pytest.raises(ValueError):
        epsilon_threshold(2, 1.0)


def test_threshold_shrinks_with_n():
    values = [epsilon_threshold(n, 1.0) for n in range(3, 10)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_perturbation_experiment_noiseless_and_noisy():
    clean = perturbation_experiment(2, "depolarize_sources", 0.0, seed=1, restarts=3)
    assert clean["eps_max"] == pytest.approx(0.0, abs=1e-9)
    assert clean["pbar_max_deviation"] <= 1e-12
    assert clean["bound_holds"]
    noisy = perturbation_experiment(3, "depolarize_sources", 0.01, seed=5, restarts=3)
    assert noisy["eps_max"] > 0
    assert noisy["best_J"] <= noisy["beta_rqt_upper"] + 1e-9
    assert noisy["seed"] == 5 and noisy["model"] == "depolarize_sources"
    assert noisy["rng"] == "pcg64"
