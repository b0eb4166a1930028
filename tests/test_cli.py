import contextlib
import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rqtgap
import rqtgap.cli
import rqtgap.functionals
import rqtgap.linalg
import rqtgap.selftest
from rqtgap.cli import main
from rqtgap.linalg import DenseOperator, Y
from rqtgap.network import (
    EveMeasurement,
    StarNetwork,
    ideal_network,
    network_to_json,
    save_strategy,
)
from rqtgap.robustness import apply_noise


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gap_table_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "gap", "--n-min", "2", "--n-max", "6")
    assert code == 0
    rows = json.loads(out)
    assert [r["n"] for r in rows] == [2, 3, 4, 5, 6]
    assert [r["gap_ratio"] for r in rows] == [1, 2, 3, 4, 5]
    assert rows[1]["beta_Q"] == 4
    assert rows[1]["beta_RQT_exact"] == pytest.approx(1 / 3)


def test_gap_csv_and_json_agree(capsys):
    code, js, _ = run(capsys, "--format", "json", "gap", "--n-min", "2", "--n-max", "4")
    assert code == 0
    code, cs, _ = run(capsys, "--format", "csv", "gap", "--n-min", "2", "--n-max", "4")
    assert code == 0
    json_rows = json.loads(js)
    csv_rows = list(csv.DictReader(io.StringIO(cs)))
    assert len(json_rows) == len(csv_rows)
    for jr, cr in zip(json_rows, csv_rows):
        for key, val in jr.items():
            assert float(cr[key]) == pytest.approx(float(val), abs=1e-15)


def test_gap_single_row_and_usage_error(capsys):
    code, out, _ = run(capsys, "--format", "json", "gap", "--n-min", "2", "--n-max", "2")
    assert code == 0
    assert json.loads(out)[0]["gap_ratio"] == 1
    code, _, err = run(capsys, "gap", "--n-min", "5", "--n-max", "3")
    assert code == 2


def test_verify_passes_and_reports_seed(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--seed", "9")
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"]
    assert rep["seed"] == 9
    assert rep["rng"] == "pcg64"
    names = [c["name"] for c in rep["checks"]]
    assert "sos_identity_A" in names and "backend_equivalence" in names


def test_verify_broken_fails(capsys):
    code, out, err = run(capsys, "verify", "--n", "2", "--inject-broken")
    assert code == 1
    assert not json.loads(out)["passed"]
    assert "FAIL" in err


def test_verify_fail_line_names_the_innermost_checks(capsys):
    code, _, err = run(capsys, "verify", "--n", "3", "--inject-broken")
    assert code == 1
    assert err.count("\n") == 1
    assert err.startswith("FAIL: selftest_noiseless/quantum_bound_attained measured 2.0")
    # Every outcome misses the bound by the same amount, so the worst is the first.
    assert "bound 1e-10 (l 0), selftest_noiseless/pairs_anticommute measured 2.0 bound 1e-12" in err
    # --inject-broken breaks party 2's pair.
    assert err.endswith(" bound 1e-12 (party 2)\n")


@pytest.mark.parametrize("bad_input, offender", [(1, "(l 3)"), (5, "(l 0) (draw 3)")])
def test_verify_fail_line_names_the_worst_sos_input(capsys, monkeypatch, bad_input, offender):
    # verify calls each identity once, on l = 0 and l = 2^n - 1 with the
    # network's observables, then on draws 0..4 at l = 0: input 5 is draw 3.
    real = rqtgap.cli.sos_residuals
    calls = []

    def fake(terms, inputs):
        residuals = real(terms, inputs)
        if terms is rqtgap.cli.sos_terms_B:
            calls.append(list(inputs.labels))
            residuals[bad_input] = 1e-6
        return residuals

    monkeypatch.setattr(rqtgap.cli, "sos_residuals", fake)
    code, out, err = run(capsys, "verify", "--n", "2")
    assert code == 1 and calls == [[0, 3, 0, 0, 0, 0, 0]]
    check = next(c for c in json.loads(out)["checks"] if c["name"] == "sos_identity_B_residual")
    assert check["measured"] == 1e-6
    assert err == f"FAIL: sos_identity_B_residual measured 1e-06 bound 1e-09 {offender}\n"
    assert ("worst_draw" in check) == (bad_input >= 2)


def test_verify_fails_when_the_backends_disagree(capsys, monkeypatch):
    real = rqtgap.cli.ideal_I_value

    def off_at_5(n, l):
        return real(n, l) + 1e-6 * (np.asarray(l) == 5)

    monkeypatch.setattr(rqtgap.cli, "ideal_I_value", off_at_5)
    code, out, err = run(capsys, "verify", "--n", "3")
    assert code == 1
    check = next(c for c in json.loads(out)["checks"] if c["name"] == "backend_equivalence")
    assert not check["passed"] and check["measured"] == pytest.approx(1e-6)
    assert err.startswith("FAIL: backend_equivalence measured ")
    assert err.count("\n") == 1


def test_verify_takes_the_closed_form_reference_in_one_call(capsys, monkeypatch):
    # backend_equivalence's reference is one ideal_I_value call on all 2^n
    # labels, and that call makes one ghz_expectation call per word of I_l.
    calls = {"ideal_I_value": 0, "ghz_expectation": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(rqtgap.cli, "ideal_I_value")
    counted(rqtgap.functionals, "ghz_expectation")
    assert run(capsys, "verify", "--n", "5")[0] == 0
    assert calls["ideal_I_value"] == 1 and calls["ghz_expectation"] <= 5


def test_verify_sos_battery_peak_memory_at_n9():
    # tracemalloc sees numpy's buffers. The bound is four realigned
    # 2^9-dim operators (4^9 complex entries each, 16 MiB): each input's
    # norm is taken on its own, never on a stack of all seven.
    net = ideal_network(9)
    tracemalloc.start()
    try:
        checks = rqtgap.cli._sos_checks(0, net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [c["passed"] for c in checks] == [True, True]
    assert peak <= 4 * 4**9 * 16


def test_verify_evaluates_I_once_on_the_ideal_network(capsys, monkeypatch):
    # The battery's per_l values serve backend_equivalence too, unless the
    # verified network is not the ideal one.
    calls = []
    real = rqtgap.functionals.I_values

    def counted(net, states):
        calls.append(net)
        return real(net, states)

    monkeypatch.setattr(rqtgap.cli, "I_values", counted)
    monkeypatch.setattr(rqtgap.selftest, "I_values", counted)
    assert run(capsys, "verify", "--n", "3")[0] == 0
    assert len(calls) == 1
    calls.clear()
    assert run(capsys, "verify", "--n", "3", "--inject-broken")[0] == 1
    assert len(calls) == 2


def test_verify_checks_survive_python_optimize(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(rqtgap.__file__).parents[1]))
    reports = []
    for flags in ([], ["-O"]):
        out = tmp_path / f"verify{len(flags)}.json"
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "rqtgap.cli", "--out", str(out),
             "verify", "--n", "3", "--inject-broken"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_repeated_main_calls_match_fresh_processes(tmp_path, capsys):
    # One process builds the parser once; each call must still print what
    # a fresh process prints, a usage error included.
    env = dict(os.environ, PYTHONPATH=str(Path(rqtgap.__file__).parents[1]))
    calls = (
        ["gap", "--n-min", "two", "--n-max", "3"],
        ["gap", "--n-min", "2", "--n-max", "4"],
        ["verify", "--n", "3"],
        ["seesaw", "--n", "3"],
    )
    for argv in calls:
        got = run(capsys, *argv)
        proc = subprocess.run(
            [sys.executable, "-m", "rqtgap.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert got == (proc.returncode, proc.stdout, proc.stderr)
    assert rqtgap.cli.build_parser() is rqtgap.cli.build_parser()


def test_stdout_does_not_depend_on_the_blas_thread_count(tmp_path):
    # A threaded BLAS may sum a long dot product in another order; every
    # reduction that reaches stdout must not.
    path = tmp_path / "depolarized.json"
    save_strategy(apply_noise(ideal_network(5), "depolarize_sources", 0.1), path)
    calls = [
        ["verify", "--n", "7"],
        ["verify", "--n", "5", "--strategy", str(path)],
        ["seesaw", "--n", "6"],
    ]
    script = (
        "import contextlib, io, sys, rqtgap.cli\n"
        f"for argv in {calls!r}:\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):\n"
        "        code = rqtgap.cli.main(argv)\n"
        "    print(code, buf.getvalue())\n"
    )
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(Path(rqtgap.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0].startswith("0 {")
    assert outputs[0] == outputs[1]


def test_verify_rejects_large_n(capsys):
    code, _, _ = run(capsys, "verify", "--n", "12")
    assert code == 2
    code, _, _ = run(capsys, "seesaw", "--n", str(rqtgap.cli.SEESAW_MAX_N + 1))
    assert code == 2


def test_verify_n9_passes_in_a_subprocess(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(rqtgap.__file__).parents[1]))
    out = tmp_path / "verify9.json"
    proc = subprocess.run(
        [sys.executable, "-m", "rqtgap.cli", "--out", str(out), "verify", "--n", "9"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["passed"]


def test_verify_strategy_file(tmp_path, capsys):
    path = tmp_path / "strategy.json"
    save_strategy(ideal_network(2).with_third([Y.copy(), Y.copy()]), path)
    code, out, _ = run(capsys, "verify", "--n", "2", "--strategy", str(path))
    assert code == 0
    code, _, _ = run(capsys, "verify", "--n", "3", "--strategy", str(path))
    assert code == 2


def test_verify_strategy_with_impossible_outcome_fails(tmp_path, capsys):
    net = ideal_network(2)
    povm = [net.eve.element(l) for l in range(4)]
    povm[:2] = 0 * povm[0], povm[0] + povm[1]
    path = tmp_path / "strategy.json"
    eve = EveMeasurement.from_elements(povm)
    save_strategy(StarNetwork(2, net.sources, net.observables, eve), path)
    code, out, err = run(capsys, "verify", "--n", "2", "--strategy", str(path))
    assert code == 1
    assert "outcome 0 has probability" in json.loads(out)["error"]
    assert err.startswith("FAIL: ")


def test_fail_line_names_the_first_of_outcomes_tied_up_to_rounding(tmp_path, capsys):
    # mix_povm treats every outcome alike: the 32 deviations of each
    # per-outcome check differ only by rounding (within 8.9e-16), so the
    # first outcome is named, not whichever one rounding puts on top.
    path = tmp_path / "strategy.json"
    save_strategy(apply_noise(ideal_network(5), "mix_povm", 0.1), path)
    code, _, err = run(capsys, "verify", "--n", "5", "--strategy", str(path))
    assert code == 1
    failing = err.removeprefix("FAIL: ").rstrip("\n").split(", ")
    assert [f.split(" ")[0] for f in failing] == [
        "selftest_noiseless/quantum_bound_attained",
        "selftest_noiseless/conditional_states_ideal",
        "selftest_noiseless/eve_povm_projects",
    ]
    assert all(f.endswith(" (l 0)") for f in failing)


_RECORD = ["name", "measured", "bound", "passed"]


@pytest.mark.parametrize("case", ["ideal", "inject_broken", "mix_povm", "worst_draw"])
def test_verify_records_keep_their_key_order(tmp_path, capsys, monkeypatch, case):
    argv = ["verify", "--n", "3"]
    if case == "inject_broken":
        argv.append("--inject-broken")
    elif case == "mix_povm":
        path = tmp_path / "strategy.json"
        save_strategy(apply_noise(ideal_network(3), "mix_povm", 0.1), path)
        argv += ["--strategy", str(path)]
    elif case == "worst_draw":
        real = rqtgap.cli.sos_residuals

        def fake(terms, inputs):
            residuals = real(terms, inputs)
            residuals[5] = 1e-6
            return residuals

        monkeypatch.setattr(rqtgap.cli, "sos_residuals", fake)
    _, out, _ = run(capsys, *argv)
    rep = json.loads(out)
    assert list(rep) == ["n", "seed", "rng", "checks", "passed"]
    battery = rep["checks"][0]
    assert list(battery) == ["name", "passed", "detail"]
    assert list(battery["detail"]) == ["n", "passed", "checks"]
    assert [list(c) for c in battery["detail"]["checks"]] == [
        _RECORD + ["worst_l", "per_l"],
        _RECORD,
        _RECORD + ["worst_party"],
        _RECORD + ["worst_l"],
        _RECORD + ["worst_l"],
    ]
    sos = _RECORD + ["worst_l"] + (["worst_draw"] if case == "worst_draw" else [])
    assert [list(c) for c in rep["checks"][1:]] == [sos, sos, _RECORD]


def _rotated(net: StarNetwork, seed: int) -> StarNetwork:
    """`net` under seeded complex local unitaries U_i on A_i and W_i on
    E_i: sources (U_i (x) W_i) rho_i (U_i (x) W_i)^dag, observables
    U_i A U_i^dag and Eve's factors ((x)_i W_i) V, which leaves every
    statistic unchanged."""
    rng = np.random.default_rng(seed)
    us, ws = (
        [rqtgap.linalg._haar_unitary(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
         for _ in range(net.n)]
        for _ in range(2)
    )
    sources = tuple(
        DenseOperator(np.kron(u, w) @ s.mat @ np.kron(u, w).conj().T, s.local_dims)
        for s, u, w in zip(net.sources, us, ws)
    )
    obs = tuple(
        tuple(None if m is None else u @ m @ u.conj().T for m in triple)
        for triple, u in zip(net.observables, us)
    )
    factors = rqtgap.linalg.apply_local(net.eve.factors, net.eve_dims, dict(enumerate(ws)))
    return StarNetwork(net.n, sources, obs, EveMeasurement(factors, net.eve.floor))


def _conjugated(net: StarNetwork) -> StarNetwork:
    sources = tuple(DenseOperator(s.mat.conj(), s.local_dims) for s in net.sources)
    obs = tuple(tuple(None if m is None else m.conj() for m in t) for t in net.observables)
    return StarNetwork(net.n, sources, obs, EveMeasurement(net.eve.factors.conj(), net.eve.floor))


@pytest.mark.parametrize("model", [None, "mix_povm"])
def test_conjugate_network_gives_the_same_report(model, tmp_path, capsys):
    # Complex conjugation of every array leaves every statistic unchanged,
    # and the engine's complex arithmetic is conjugation-symmetric, so the
    # reports agree byte for byte. The ideal network is real, its own
    # conjugate: it is rotated into complex arrays first.
    net = ideal_network(3)
    if model:
        net = apply_noise(net, model, 0.1)
    net = _rotated(net, 7)
    reports = []
    for k, variant in enumerate((net, _conjugated(net))):
        path, out = tmp_path / f"s{k}.json", tmp_path / f"r{k}.json"
        save_strategy(variant, path)
        code, _, err = run(capsys, "--out", str(out), "verify", "--n", "3", "--strategy", str(path))
        reports.append((code, err, out.read_bytes()))
    assert net.eve.factors.dtype == complex
    assert reports[0] == reports[1]


def test_sos_checks_validate_each_input_once(monkeypatch):
    # One +/-1 check per (party, setting) stack of the seven inputs, shared
    # by both identities.
    n = 3
    net = ideal_network(n)
    real = rqtgap.linalg.require_pm1
    calls = []

    def counted(m, who):
        calls.append(who)
        return real(m, who)

    monkeypatch.setattr(rqtgap.linalg, "require_pm1", counted)
    checks = rqtgap.cli._sos_checks(0, net)
    assert [c["passed"] for c in checks] == [True, True]
    assert sorted(calls) == sorted(f"A_{i},{x}" for i in range(1, n + 1) for x in (0, 1))


def test_noise_curve_csv(capsys):
    code, out, _ = run(
        capsys, "--format", "csv", "noise-curve", "--n", "3",
        "--eps", "0", "--eps", "1e-12", "--eps", "1e-6",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert float(rows[0]["beta_rqt_upper"]) == pytest.approx(0.5)
    bounds = [float(r["beta_rqt_upper"]) for r in rows]
    assert bounds == sorted(bounds)
    eps_star = float(rows[0]["eps_star"])
    # The threshold must bracket correctly against the grid.
    for r in rows:
        if float(r["eps"]) < eps_star:
            assert r["gap_nontrivial"] == "True"


def test_noise_curve_n2_has_no_threshold(capsys):
    code, out, _ = run(capsys, "--format", "csv", "noise-curve", "--n", "2", "--eps", "0")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["eps_star"] == ""


def test_seesaw_command(capsys):
    code, out, _ = run(capsys, "--format", "json", "seesaw", "--n", "2",
                       "--restarts", "4", "--seed", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["sound"]
    assert rep["matches_enumeration"]
    assert len(rep["per_restart"]) == 4


def test_seesaw_runs_above_the_verify_cap(capsys):
    # The seesaw reads only rho^0 and the pairs, so its cap is its own.
    code, out, _ = run(capsys, "seesaw", "--n", "13", "--restarts", "2")
    assert code == 0
    assert json.loads(out)["matches_enumeration"] is True


def test_outputs_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "--format", "json", "--out", str(path),
                         "seesaw", "--n", "2", "--restarts", "3", "--seed", "11")
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    d = tmp_path / "d.csv"
    for path in (c, d):
        code, _, _ = run(capsys, "--format", "csv", "--out", str(path),
                         "gap", "--n-min", "2", "--n-max", "8")
        assert code == 0
    assert c.read_bytes() == d.read_bytes()


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def _povm_form(net: StarNetwork) -> dict:
    """The strategy file of `net` with Eve's measurement as dense elements
    (`eve_povm`) in place of factors."""
    d = network_to_json(net)
    dims = net.eve_dims
    d["eve_povm"] = [
        rqtgap.linalg.operator_to_json(DenseOperator(net.eve.element(l), dims))
        for l in range(len(d.pop("eve_factors")))
    ]
    return d


@pytest.mark.parametrize(
    "argv",
    [
        ["seesaw", "--n", "3", "--restarts", "0"],
        ["verify", "--n", "2", "--strategy", "{tmp}/missing.json"],
        ["verify", "--n", "2", "--strategy", "{tmp}/truncated.json"],
        ["verify", "--n", "2", "--strategy", "{tmp}/no_sources.json"],
        ["verify", "--n", "2", "--strategy", "{tmp}"],
        ["verify", "--n", "2", "--strategy", "{tmp}/both_eve_keys.json"],
        ["verify", "--n", "2", "--strategy", "{tmp}/no_eve_key.json"],
        ["noise-curve", "--n", "2000"],
        ["noise-curve", "--n", "1023"],
        ["noise-curve", "--n", "5", "--eps", "nan"],
        ["noise-curve", "--n", "5", "--eps", "inf"],
        ["noise-curve", "--n", "5", "--eps", "1e308"],
        ["--out", "{tmp}/no/such/dir/x.json", "gap", "--n-min", "2", "--n-max", "3"],
        ["--format", "csv", "verify", "--n", "2"],
        ["--format", "csv", "seesaw", "--n", "2"],
        ["verify", "--n", "2", "--seed", "-1"],
        ["seesaw", "--n", "2", "--seed", "-1"],
        ["seesaw", "--n", "2", "--trace", "{tmp}/no/such/dir/x.jsonl"],
        ["verify", "--n", "2", "--strategy", "{tmp}/nan_factor.json"],
        ["verify", "--n", "2", "--strategy", "{tmp}/inf_factor.json"],
        ["verify", "--n", "2", "--strategy", "{tmp}/inf_im_factor.json"],
        ["verify", "--n", "2", "--strategy", "{tmp}/inf_im_source.json"],
        ["verify", "--n", "2", "--strategy", "{tmp}/huge_factor.json"],
        ["verify", "--n", "2", "--strategy", "{tmp}/null_setting.json"],
        ["verify", "--n", "2", "--strategy", "{tmp}/four_dim_party.json"],
        ["verify", "--n", "2", "--strategy", "{tmp}/qutrit_eve.json"],
        ["verify", "--n", "2", "--strategy", "{tmp}/negative_rows.json"],
        ["verify", "--n", "3", "--strategy", "{tmp}/fractional_n.json"],
        ["verify", "--n", "2", "--strategy", "{tmp}/fractional_local_dims.json"],
        ["verify", "--n", "2", "--strategy", "{tmp}/deeply_nested.json"],
        ["verify", "--n", "2", "--strategy", "{tmp}/upper_triangle_source.json"],
        ["verify", "--n", "2", "--strategy", "{tmp}/anti_hermitian_povm.json"],
        ["verify", "--n", "2", "--strategy", "{tmp}/floor_negative.json"],
        ["verify", "--n", "2", "--strategy", "{tmp}/floor_nan.json"],
        ["verify", "--n", "2", "--strategy", "{tmp}/floor_inf.json"],
        ["verify", "--n", "2", "--strategy", "{tmp}/floor_1e308.json"],
        ["verify", "--n", "2", "--strategy", "{tmp}/floor_wrong_length.json"],
        ["verify", "--n", "2", "--strategy", "{tmp}/floor_string.json"],
        ["verify", "--n", "2", "--strategy", "{tmp}/floor_null.json"],
        ["verify", "--n", "2", "--strategy", "{tmp}/floor_with_povm.json"],
        ["verify", "--n", "2", "--strategy", "{tmp}/string_re.json"],
        ["verify", "--n", "2", "--strategy", "{tmp}/bool_im.json"],
        ["verify", "--n", "2", "--strategy", "{tmp}/huge_int_re.json"],
        ["verify", "--n", "2", "--strategy", "{tmp}/floor_numeric_strings.json"],
    ],
    ids=lambda argv: " ".join(argv).replace("{tmp}/", "").replace("{tmp}", "DIR"),
)
def test_bad_input_is_a_one_line_usage_error(tmp_path, argv):
    (tmp_path / "truncated.json").write_text('{"n": 2')
    (tmp_path / "no_sources.json").write_text('{"n": 2}')
    strategy = network_to_json(ideal_network(2))
    for name, bad in (("nan_factor", math.nan), ("inf_factor", math.inf)):
        factors = [dict(f, re=list(f["re"])) for f in strategy["eve_factors"]]
        factors[1]["re"][0] = bad
        (tmp_path / f"{name}.json").write_text(json.dumps(dict(strategy, eve_factors=factors)))
    # Finite entries that overflow Eve's completeness check, and an inf
    # imaginary part, which 1j * inf would turn into a NaN real part.
    factors = [dict(f, re=list(f["re"]), im=list(f["im"])) for f in strategy["eve_factors"]]
    factors[3]["re"][3] = 1e308
    (tmp_path / "huge_factor.json").write_text(json.dumps(dict(strategy, eve_factors=factors)))
    factors = [dict(f, im=list(f["im"])) for f in strategy["eve_factors"]]
    factors[1]["im"][0] = math.inf
    (tmp_path / "inf_im_factor.json").write_text(json.dumps(dict(strategy, eve_factors=factors)))
    sources = [dict(s, im=list(s["im"])) for s in strategy["sources"]]
    sources[0]["im"][0] = math.inf
    (tmp_path / "inf_im_source.json").write_text(json.dumps(dict(strategy, sources=sources)))
    (tmp_path / "both_eve_keys.json").write_text(json.dumps(dict(strategy, eve_povm=[])))
    # Sizes that numpy would accept: a reshape to -1 rows, an n truncated
    # to 3, local dims truncated to (2, 2).
    factors = [dict(f) for f in strategy["eve_factors"]]
    factors[0]["rows"] = -1
    (tmp_path / "negative_rows.json").write_text(json.dumps(dict(strategy, eve_factors=factors)))
    sources = [dict(s) for s in strategy["sources"]]
    sources[0]["local_dims"] = [2.9, 2.2]
    (tmp_path / "fractional_local_dims.json").write_text(json.dumps(dict(strategy, sources=sources)))
    (tmp_path / "fractional_n.json").write_text(
        json.dumps(dict(network_to_json(ideal_network(3)), n=3.7))
    )
    observables = [list(t) for t in strategy["observables"]]
    observables[0][0] = None
    (tmp_path / "null_setting.json").write_text(json.dumps(dict(strategy, observables=observables)))
    # Strategies that are not all qubits: A_1 as phi+ (x) |0><0| with
    # observables A (x) 1, and qutrit E factors.
    net = ideal_network(2)
    phi0 = np.kron(net.sources[0].mat, np.diag([1.0, 0.0])).reshape([2, 2, 2] * 2)
    source = DenseOperator(phi0.transpose(0, 2, 1, 3, 5, 4).reshape(8, 8), (4, 2))
    obs = [tuple(None if m is None else np.kron(m, np.eye(2)) for m in net.observables[0])]
    big = StarNetwork(2, (source, net.sources[1]), (obs[0], net.observables[1]), net.eve)
    save_strategy(big, tmp_path / "four_dim_party.json")
    mixed = DenseOperator(np.eye(6) / 6, (2, 3))
    eve = EveMeasurement.from_factors([np.eye(9)] + [np.zeros((9, 0))] * 3)
    qutrit = StarNetwork(2, (mixed, mixed), net.observables, eve)
    save_strategy(qutrit, tmp_path / "qutrit_eve.json")
    # Not Hermitian, but each would pass if only one triangle were read:
    # a source with its upper triangle edited, and a dense POVM element
    # with an anti-Hermitian part added.
    sources = [dict(s, re=list(s["re"]), im=list(s["im"])) for s in strategy["sources"]]
    sources[0]["im"][1] = 0.3
    sources[0]["re"][3] = 0.7
    (tmp_path / "upper_triangle_source.json").write_text(json.dumps(dict(strategy, sources=sources)))
    povm = _povm_form(net)
    povm["eve_povm"][0]["re"][1] += 0.2
    povm["eve_povm"][0]["re"][4] -= 0.2
    (tmp_path / "anti_hermitian_povm.json").write_text(json.dumps(povm))
    (tmp_path / "floor_with_povm.json").write_text(
        json.dumps(dict(_povm_form(net), eve_floor=[0.0] * 4))
    )
    # `mix_povm`'s floor: every entry 0.025, each edit below breaks it.
    floored = network_to_json(apply_noise(net, "mix_povm", 0.1))
    floors = {
        "negative": [-0.025] + floored["eve_floor"][1:],
        "nan": [math.nan] + floored["eve_floor"][1:],
        "inf": [math.inf] + floored["eve_floor"][1:],
        "1e308": [1e308] * 4,
        "wrong_length": floored["eve_floor"][1:],
        "string": "0.025",
        "null": None,
    }
    for name, floor in floors.items():
        (tmp_path / f"floor_{name}.json").write_text(json.dumps(dict(floored, eve_floor=floor)))
    # Only JSON numbers are numbers: source 1's `re` as numeric strings,
    # Eve's factor 0's `im` as booleans and `mix_povm`'s floor as numeric
    # strings each convert to floats that would pass every other check.
    # An integer past double range does not convert at all.
    sources = [dict(s) for s in strategy["sources"]]
    sources[0]["re"] = [str(v) for v in sources[0]["re"]]
    (tmp_path / "string_re.json").write_text(json.dumps(dict(strategy, sources=sources)))
    sources = [dict(s, re=list(s["re"])) for s in strategy["sources"]]
    sources[0]["re"][1] = 10**400
    (tmp_path / "huge_int_re.json").write_text(json.dumps(dict(strategy, sources=sources)))
    factors = [dict(f) for f in strategy["eve_factors"]]
    factors[0]["im"] = [False] * len(factors[0]["im"])
    (tmp_path / "bool_im.json").write_text(json.dumps(dict(strategy, eve_factors=factors)))
    (tmp_path / "floor_numeric_strings.json").write_text(
        json.dumps(dict(floored, eve_floor=[str(v) for v in floored["eve_floor"]]))
    )
    del strategy["eve_factors"]
    (tmp_path / "no_eve_key.json").write_text(json.dumps(strategy))
    # Nested past the recursion limit: json.load raises RecursionError.
    (tmp_path / "deeply_nested.json").write_text("[" * 10000 + "]" * 10000)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(rqtgap.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "rqtgap.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def test_declared_factor_sizes_over_the_cap_are_rejected_before_allocating(
    tmp_path, capsys, monkeypatch
):
    # 2^20 rows of 2^10 columns in each of four records, held by lists
    # of four entries: rejected from the declared sizes, so no record is
    # ever read into an array.
    strategy = network_to_json(ideal_network(2))
    for f in strategy["eve_factors"]:
        f["rows"], f["cols"] = 2**20, 2**10
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(strategy))

    def refuse(d):
        raise AssertionError("a record was read past the size check")

    monkeypatch.setattr(rqtgap.linalg, "matrix_from_json", refuse)
    code, out, err = run(capsys, "verify", "--n", "2", "--strategy", str(path))
    assert code == 2 and out == ""
    cap = rqtgap.linalg.ENTRY_CAPACITY
    assert err == (
        f"error: cannot load strategy file {path}: eve_factors declare {4 * 2**30} entries,"
        f" over the cap {cap}\n"
    )


# Values a fuzzed strategy file puts at one JSON path; _DELETE removes it.
_FUZZ_VALUES = (None, True, False, 0, -1, 1.5, 1e308, -1e308, 1e200, math.nan, math.inf,
                -math.inf, "x", "", [], {}, 10**12, 2**63)
_DELETE = "<delete>"


def _json_paths(node, path=()):
    """Every path to a list entry or dict value in a JSON tree."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield path + (key,)
            yield from _json_paths(child, path + (key,))


@functools.cache
def _fuzz_bases() -> list:
    """Valid strategy files to mutate, as (n, JSON text, paths): pure,
    depolarized and `mix_povm` at n = 2 and 3, and pure n = 2 with Eve's
    measurement as dense elements."""
    docs = [(2, _povm_form(ideal_network(2)))]
    for n in (2, 3):
        net = ideal_network(n)
        docs.append((n, network_to_json(net)))
        for model in ("depolarize_sources", "mix_povm"):
            docs.append((n, network_to_json(apply_noise(net, model, 0.1))))
    return [(n, json.dumps(d), list(_json_paths(d))) for n, d in docs]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_fuzzed_strategy_files_keep_the_exit_contract(data):
    # One JSON path of a valid file set to an extreme value, or deleted.
    # Every such file is invalid or fails verification: exit 1 or 2, never
    # an exception (pytest turns warnings into errors), and a usage error
    # is one `error:` line on stderr with nothing on stdout.
    n, text, paths = data.draw(st.sampled_from(_fuzz_bases()))
    path = data.draw(st.sampled_from(paths))
    value = data.draw(st.sampled_from(_FUZZ_VALUES + (_DELETE,)))
    doc = json.loads(text)
    parent = functools.reduce(lambda node, key: node[key], path[:-1], doc)
    old = parent[path[-1]]
    if value == _DELETE:
        del parent[path[-1]]
    else:
        # A number read as a float entry is unchanged by any equal value.
        assume(not (old == value and (isinstance(old, float) or type(old) is type(value))))
        parent[path[-1]] = value
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "strategy.json"
        file.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--n", str(n), "--strategy", str(file)])
    assert code in (1, 2), (path, value, err.getvalue())
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
