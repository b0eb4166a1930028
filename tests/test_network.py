import json
import math

import numpy as np
import pytest

from rqtgap.errors import ValidationError
from rqtgap.linalg import DenseOperator, X, Y, Z, _haar_unitary, operator_to_json
from rqtgap.network import (
    TILDE_0,
    TILDE_1,
    EveMeasurement,
    StarNetwork,
    conditional_expectation,
    conditional_state,
    conditional_states,
    eve_outcome_probability,
    ghz_basis,
    ghz_state,
    ideal_network,
    load_strategy,
    network_from_json,
    network_to_json,
    save_strategy,
)

SQRT2 = math.sqrt(2.0)


def test_ghz_state_components():
    # |phi_0> = (|00> + |11>)/sqrt2; l_1 = 1 flips the relative sign.
    np.testing.assert_allclose(ghz_state(2, 0).vec, np.array([1, 0, 0, 1]) / SQRT2)
    np.testing.assert_allclose(ghz_state(2, 0b10).vec, np.array([0, -1, 1, 0]) / SQRT2)
    v = ghz_state(3, 0b011).vec
    np.testing.assert_allclose(v[0b011], 1 / SQRT2)
    np.testing.assert_allclose(v[0b100], 1 / SQRT2)
    assert np.count_nonzero(v) == 2


@pytest.mark.parametrize("n", range(2, 9))
def test_ghz_basis_columns_are_ghz_states(n):
    basis = ghz_basis(n)
    assert basis.shape == (1 << n, 1 << n) and basis.dtype == complex
    for l in range(1 << n):
        np.testing.assert_array_equal(basis[:, l], ghz_state(n, l).vec)


def test_ideal_network_structure():
    net = ideal_network(3)
    assert net.n == 3
    assert net.party_dims == (2, 2, 2)
    assert net.eve_dim == 8
    np.testing.assert_allclose(net.observables[0][0], (X + Z) / SQRT2)
    np.testing.assert_allclose(net.observables[0][1], (X - Z) / SQRT2)
    np.testing.assert_allclose(net.observables[1][0], Z)
    np.testing.assert_allclose(net.observables[1][1], X)
    assert net.observables[1][2] is None


def test_tilde_observables_of_party_one():
    net = ideal_network(2)
    np.testing.assert_allclose(net.observable(1, TILDE_0), Z, atol=1e-12)
    np.testing.assert_allclose(net.observable(1, TILDE_1), X, atol=1e-12)
    with pytest.raises(ValueError):
        net.observable(2, TILDE_0)


def _dense_povm(net: StarNetwork) -> list[np.ndarray]:
    return [net.eve.element(l) for l in range(len(net.eve))]


def test_povm_completeness_enforced():
    bad_povm = [0.5 * r for r in _dense_povm(ideal_network(2))]
    with pytest.raises(ValidationError):
        EveMeasurement.from_elements(bad_povm)


def test_non_positive_povm_element_rejected():
    povm = _dense_povm(ideal_network(2))
    shift = 0.1 * ghz_state(2, 3).projector().mat
    povm[:2] = povm[0] + shift, povm[1] - shift
    with pytest.raises(ValidationError, match="element 1 is not positive"):
        EveMeasurement.from_elements(povm)


def test_eve_must_be_an_eve_measurement():
    net = ideal_network(2)
    with pytest.raises(TypeError, match="EveMeasurement"):
        StarNetwork(net.n, net.sources, net.observables, tuple(_dense_povm(net)))


def test_dense_projectors_factor_to_rank_one():
    rng = np.random.default_rng(5)
    u = _haar_unitary(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    projectors = [np.outer(u[:, l], u[:, l].conj()) for l in range(8)]
    # eigh sees rounding-level eigenvalues besides the 1; they are dropped.
    assert np.max(np.abs(np.linalg.eigvalsh(projectors[0])[:-1])) < 1e-14
    eve = EveMeasurement.from_elements(projectors)
    assert eve.factors.shape == (8, 8, 1)
    for l in range(8):
        np.testing.assert_allclose(eve.element(l), projectors[l], atol=1e-14)


def test_non_pm1_observable_rejected():
    net = ideal_network(2)
    obs = list(net.observables)
    obs[1] = (2.0 * Z, obs[1][1], obs[1][2])
    with pytest.raises(ValidationError):
        StarNetwork(net.n, net.sources, tuple(obs), net.eve)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_eve_outcomes_uniform(n):
    net = ideal_network(n)
    for l in range(1 << n):
        assert eve_outcome_probability(net, l) == pytest.approx(1.0 / (1 << n), abs=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_conditional_states_are_ghz(n):
    net = ideal_network(n)
    for l in range(1 << n):
        psi = ghz_state(n, l).vec
        fidelity = np.vdot(psi, conditional_state(net, l).mat @ psi).real
        assert fidelity == pytest.approx(1.0, abs=1e-10)


def test_conditional_expectation_stabilizers():
    net = ideal_network(3).with_third([Y.copy()] * 3)
    for settings, want in [
        # X X X with the tilde-1 rotation on party 1 stabilizes |phi_0>.
        ([TILDE_1, 1, 1], 1.0),
        # Z_1 Z_2 likewise, identity elsewhere.
        ([TILDE_0, 0, None], 1.0),
        # Y Y on parties 2,3 with X~ on party 1: -X Y Y stabilizes, so value -1.
        ([TILDE_1, 2, 2], -1.0),
    ]:
        assert conditional_expectation(net, settings, 0) == pytest.approx(want)


@pytest.mark.parametrize("l", [-1, 8])
def test_outcome_label_out_of_range_rejected(l):
    net = ideal_network(3)
    with pytest.raises(ValueError, match="out of range"):
        conditional_states(net, [0, l])
    with pytest.raises(ValueError, match="out of range"):
        conditional_state(net, l)
    with pytest.raises(ValueError, match="out of range"):
        eve_outcome_probability(net, l)


def test_strategy_json_roundtrip(tmp_path):
    net = ideal_network(2).with_third([Y.copy(), Y.copy()])
    back = network_from_json(network_to_json(net))
    assert back.n == net.n
    for a, b in zip(back.sources, net.sources):
        np.testing.assert_array_equal(a.mat, b.mat)
    for ta, tb in zip(back.observables, net.observables):
        for ma, mb in zip(ta, tb):
            if ma is None:
                assert mb is None
            else:
                np.testing.assert_array_equal(ma, mb)
    path = tmp_path / "strategy.json"
    save_strategy(net, path)
    loaded = load_strategy(path)
    assert loaded.n == 2
    for l in range(4):
        assert eve_outcome_probability(loaded, l) == pytest.approx(0.25, abs=1e-12)


def test_dense_strategy_file_still_loads(tmp_path):
    net = ideal_network(2).with_third([Y.copy(), Y.copy()])
    d = network_to_json(net)
    del d["eve_factors"]
    d["eve_povm"] = [operator_to_json(DenseOperator(r, net.eve_dims)) for r in _dense_povm(net)]
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(d))
    loaded = load_strategy(path)
    assert loaded.eve.factors.shape == (4, 4, 1)
    for ra, rb in zip(_dense_povm(loaded), _dense_povm(net)):
        np.testing.assert_allclose(ra, rb, atol=1e-15)
    d["eve_factors"] = network_to_json(net)["eve_factors"]
    with pytest.raises(ValueError, match="exactly one of"):
        network_from_json(d)


def test_with_third_rejects_wrong_count():
    with pytest.raises(ValueError):
        ideal_network(3).with_third([Y.copy()])
