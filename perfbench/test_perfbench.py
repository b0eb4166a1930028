"""Tests of the benchmark itself: the tail rule, the tracer's bookkeeping,
the output checks, and per-layer counts that must repeat exactly.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import rqtgap.functionals  # noqa: E402
import rqtgap.network  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

COUNTS = (".calls", ".entries", ".state_bytes", ".sweeps", ".useful_ratio")


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    xs = [float(v) for v in range(50, 0, -1)]
    assert run.tail(xs) == (40.0, pytest.approx(80.0), 10)


@pytest.mark.parametrize("n", [1, 11, 40])
def test_tail_falls_back_to_the_maximum_for_few_samples(n):
    assert run.tail([float(v) for v in range(n)]) == (float(n - 1), 100.0, 0)


def test_absent_function_is_reported_not_zero(monkeypatch, tmp_path):
    monkeypatch.setattr(tracer, "TARGETS", (
        ("network", ("conditional_state", "no_such_function", "NoSuchClass.method")),
        ("no_such_module", ("f",)),
    ))
    with tracer.Tracer(tmp_path) as t:
        rqtgap.functionals.eval_I(rqtgap.network.ideal_network(2), 0)
    assert t.absent == ["network.no_such_function", "network.NoSuchClass.method",
                        "no_such_module.f"]
    metrics = t.metrics()
    assert metrics["network.conditional_state.calls"] == (1, "count")
    assert not any("no_such" in k or "NoSuch" in k for k in metrics)


def test_wrappers_cover_every_binding_and_are_removed(tmp_path):
    original = rqtgap.network.conditional_state
    with tracer.Tracer(tmp_path) as t:
        assert rqtgap.functionals.conditional_state is rqtgap.network.conditional_state
        assert rqtgap.network.conditional_state is not original
        rqtgap.functionals.eval_I(rqtgap.network.ideal_network(2), 0)
    assert rqtgap.network.conditional_state is original
    assert rqtgap.functionals.conditional_state is original
    assert "__post_init__" in vars(rqtgap.network.StarNetwork)
    assert not hasattr(rqtgap.network.StarNetwork.__post_init__, "__wrapped__")
    assert t.metrics()["network.StarNetwork.__post_init__.calls"] == (1, "count")


def test_self_times_add_up_to_the_outer_span(tmp_path):
    with tracer.Tracer(tmp_path) as t:
        t.op = 0
        rqtgap.functionals.eval_I(rqtgap.network.ideal_network(3), 5)
    spans = t.spans
    self_s = [s[tracer.END] - s[tracer.START] - s[tracer.CHILD_S] for s in spans]
    assert min(self_s) >= 0
    top = [i for i, s in enumerate(spans) if s[tracer.PARENT] == -1]
    inclusive = sum(spans[i][tracer.END] - spans[i][tracer.START] for i in top)
    assert sum(self_s) == pytest.approx(inclusive, rel=1e-9, abs=1e-12)
    assert {s[tracer.OP] for s in spans} == {0}


def test_checks_reject_wrong_output(tmp_path):
    out = tmp_path / "v.json"
    broken = workloads.run_cli(["--out", str(out), "verify", "--n", "3", "--inject-broken"], out)
    assert broken.code == 1
    with pytest.raises(workloads.WrongOutput):
        workloads.VerifyIdeal(0, tmp_path).check(broken)
    with pytest.raises(workloads.WrongOutput):
        workloads.SeesawN6(0, tmp_path).check(workloads.CliResult(0, b"{}", "", ""))


def _traced_counts(name, seed, tmp_path, reference):
    wl = workloads.WORKLOADS[name](seed, tmp_path)
    t, traced, _ = worker.traced_pass(wl, reference, tmp_path)
    assert all(r.ok for r in traced), [r.error for r in traced]
    assert not t.absent
    counts = {k: v for k, (v, _) in t.metrics().items() if k.endswith(COUNTS)}
    return wl, traced, counts


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    wl, traced, first = _traced_counts(name, 3, tmp_path, [])
    _, _, second = _traced_counts(name, 3, tmp_path, traced)
    assert first == second
    ops = wl.traced_ops
    if name == "verify_ideal":
        assert first["network.conditional_state.calls"] == 1280 * ops
        assert first["network.ideal_network.calls"] == 2 * ops
    if name == "seesaw_n6":
        assert first["rqt.seesaw_real.sweeps"] == 2 * wl.restarts * ops
        assert first["rqt.seesaw_real.useful_ratio"] == 1.0
    if name == "noisy_mixed":
        assert first["network.load_strategy.calls"] == ops
        assert first["robustness.apply_noise.calls"] == 2 * ops


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "seesaw_n6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
