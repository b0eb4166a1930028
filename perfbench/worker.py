"""One workload in one process: set up, run ops in a closed loop, optionally
trace.

``run.py`` starts this script once per set-up it measures. In ``setup``
mode it imports the package, makes the inputs, runs the warm-up op and
reports; in ``run`` mode it then runs ops back to back for ``--seconds``
(one client, no think time) and, with ``--trace 1``, a separate traced pass.
The last stdout line is a JSON report for ``run.py``.

BLAS and OpenMP are pinned to one thread before numpy is imported, so
numpy, the package and the tracer are imported only inside functions that
run after ``main`` has set the thread variables.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class OpResult:
    i: int
    seconds: float
    ok: bool
    digest: str | None
    error: str | None


def run_op(wl, i: int) -> OpResult:
    """Time op i; its check and serialisation run after the clock stops."""
    t0 = time.perf_counter()
    try:
        raw = wl.op(i)
    except Exception as exc:
        seconds = time.perf_counter() - t0
        traceback.print_exc()
        return OpResult(i, seconds, False, None, f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    digest = hashlib.sha256(wl.output_bytes(raw)).hexdigest()
    try:
        wl.check(raw)
    except Exception as exc:
        print(f"op {i}: wrong output: {exc}", file=sys.stderr)
        return OpResult(i, seconds, False, digest, f"{type(exc).__name__}: {exc}")
    return OpResult(i, seconds, True, digest, None)


def traced_pass(wl, reference: list[OpResult], tmpdir: Path):
    """Run ops 0..traced_ops-1 again under the tracer.

    Returns the tracer, the traced op results and the tracing overhead: the
    traced ops' time over the same ops' untraced time.
    """
    from tracer import Tracer

    ref = {r.i: r for r in reference}
    for i in range(wl.traced_ops):
        if i not in ref:
            ref[i] = run_op(wl, i)
    traced = []
    with Tracer(tmpdir) as tracer:
        for i in range(wl.traced_ops):
            tracer.op = i
            traced.append(run_op(wl, i))
    untraced_s = sum(ref[r.i].seconds for r in traced)
    overhead = sum(r.seconds for r in traced) / untraced_s
    for r in traced:
        if r.ok and r.digest != ref[r.i].digest:
            r.ok, r.error = False, "traced output differs from the untraced output"
    return tracer, traced, overhead


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = " ".join(str(blas.get(k, "")) for k in ("name", "version", "openblas configuration"))
    except (AttributeError, KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": " ".join(blas.split()),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True, type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--outdir", required=True, type=Path)
    args = p.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import rqtgap

    if Path(rqtgap.__file__).resolve().parent != src / "rqtgap":
        print(f"error: imported rqtgap from {rqtgap.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    tmpdir = args.outdir / f"tmp-{args.workload}-{os.getpid()}"
    tmpdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, tmpdir)
        warmup = run_op(wl, 0)
        ready_at = time.clock_gettime(time.CLOCK_MONOTONIC)
        report = {"ready_at": ready_at, "warmup": asdict(warmup)}
        if args.mode == "run":
            ops = []
            start = time.perf_counter()
            while not ops or time.perf_counter() - start < args.seconds:
                ops.append(run_op(wl, len(ops)))
            report["loop_seconds"] = time.perf_counter() - start
            report["ops"] = [asdict(r) for r in ops]
            report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            report["env"] = environment()
            if args.trace:
                tracer, traced, overhead = traced_pass(wl, ops, tmpdir)
                spans = args.outdir / f"{args.workload}-seed{args.seed}-spans.jsonl"
                tracer.write_spans(spans)
                metrics = tracer.metrics()
                metrics["trace.overhead_ratio"] = (overhead, "ratio")
                report["trace"] = {
                    "ops": [asdict(r) for r in traced],
                    "metrics": metrics,
                    "absent": tracer.absent,
                    "spans_file": str(spans),
                }
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
