"""rqtgap benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload verify_ideal --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the final stdout line carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a separate traced pass. The
lines before it print every metric by name and unit, the environment and
the determinism check. ``--workload all`` runs every workload in turn.
Full results, and the spans of a traced pass, go to ``perfbench/out/``.

Each set-up runs in a fresh process (``worker.py``); with ``--trace 0``
the workload is set up three times and ``setup_s`` is the median.
See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("verify_ideal", "seesaw_n6", "noisy_mixed")
SETUPS = 3
TIME_LIMIT_S = 170.0
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
}
# Printed and stored, but left out of the final JSON line: it is 0 whenever
# the program is correct, and failures already travel as `failed`.
PRINT_ONLY = {"fail_ratio"}


class BenchError(Exception):
    pass


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). With 40 samples or fewer
    that percentile is p75 or lower, which is no tail, and the maximum is
    returned instead.
    """
    xs = sorted(samples)
    rank = len(xs) - 10
    if rank <= 0.75 * len(xs):
        return xs[-1], 100.0, 0
    return xs[rank - 1], 100.0 * rank / len(xs), len(xs) - rank


def spawn(workload: str, seed: int, seconds: int, trace: int, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--outdir", str(OUT),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--mode", mode,
    ]
    started = now()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} worker exited with code {proc.returncode}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready_at"] - started
    return report


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = now() + TIME_LIMIT_S
    setups = []
    if not trace:
        setups = [spawn(workload, seed, seconds, trace, "setup", deadline) for _ in range(SETUPS - 1)]
    run = spawn(workload, seed, seconds, trace, "run", deadline)
    setups.append(run)

    ops = run["ops"]
    latencies = [o["seconds"] for o in ops]
    failed = sum(not o["ok"] for o in ops)
    t_value, t_pct, t_beyond = tail(latencies)
    setup_times = [s["setup_s"] for s in setups]
    e2e = {
        "setup_s": statistics.median(setup_times),
        "throughput_ops_per_s": (len(ops) - failed) / run["loop_seconds"],
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": t_value,
        "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
        "fail_ratio": failed / len(ops),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-up(s): "
                   + " ".join(f"{t:.3f}" for t in setup_times),
        "throughput_ops_per_s": f"{len(ops) - failed} ops ok in {run['loop_seconds']:.2f} s, "
                                "closed loop, 1 client",
        "latency_p50_s": f"n={len(ops)}",
        "latency_tail_s": f"p{t_pct:.1f} of n={len(ops)}, {t_beyond} beyond"
                          + ("" if t_beyond else " (the maximum: 40 samples or fewer)"),
        "peak_rss_mb": "peak RSS of the workload process",
        "fail_ratio": f"{failed} of {len(ops)} ops failed",
    }
    digests = [s["warmup"]["digest"] for s in setups] + [ops[0]["digest"]]
    deterministic = digests[0] is not None and len(set(digests)) == 1
    warm_ok = all(s["warmup"]["ok"] for s in setups)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": run["env"], "attempted": len(ops), "failed": failed,
        "deterministic": deterministic, "warmup_ok": warm_ok,
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k], "note": notes[k]}
                       for k, v in e2e.items()},
        "setups": setups,
    }
    correct = warm_ok and deterministic and failed == 0
    if trace:
        traced = run["trace"]["ops"]
        result["attempted"] += len(traced)
        result["failed"] += sum(not o["ok"] for o in traced)
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in run["trace"]["metrics"].items()}
        result["absent"] = run["trace"]["absent"]
        result["spans_file"] = run["trace"]["spans_file"]
        correct = correct and all(o["ok"] for o in traced)
    result["correct"] = correct
    return result


def print_report(r: dict) -> None:
    env = r["env"]
    threads = " ".join(f"{k}={v}" for k, v in env["threads"].items())
    print(f"== {r['workload']}  seed={r['seed']}  seconds={r['seconds']}  trace={r['trace']}")
    print(f"env  {threads} | python {env['python']} | numpy {env['numpy']} | "
          f"blas {env['blas']} | nproc {env['nproc']} | {env['machine']}")
    for name, m in r["end_to_end"].items():
        print(f"{name:<22} {m['value']:<12.6g} {m['unit']:<6} {m['note']}")
    print(f"{'determinism':<22} {'ok' if r['deterministic'] else 'MISMATCH':<12} "
          f"{'':<6} op 0 output compared across {len(r['setups'])} set-up(s) and its timed rerun")
    if "per_layer" in r:
        for name, m in sorted(r["per_layer"].items()):
            print(f"{name:<44} {m['value']:<14.6g} {m['unit']}")
        if r["absent"]:
            print("absent (no longer in the package): " + ", ".join(r["absent"]))
        print(f"spans written to {r['spans_file']}")
    print(f"correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")


def final_metrics(r: dict, prefix: str = "") -> dict:
    section = r["per_layer"] if r["trace"] else r["end_to_end"]
    return {prefix + k: {"value": m["value"], "unit": m["unit"]}
            for k, m in section.items() if k not in PRINT_ONLY}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "rqtgap" / "__init__.py").is_file():
        print(f"error: no rqtgap package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            r = measure(name, args.seed, args.seconds, args.trace)
            path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(r, indent=1) + "\n")
            print_report(r)
            results.append(r)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    many = len(results) > 1
    metrics = {}
    for r in results:
        metrics.update(final_metrics(r, r["workload"] + "." if many else ""))
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
