"""Per-layer spans for the traced run, recorded from outside the package.

``Tracer`` wraps each function in ``TARGETS`` at every ``rqtgap`` module
attribute bound to it: ``from .network import conditional_state`` in
``functionals`` is a second binding of the same function, and calls through
either name are recorded. Methods are wrapped on their class. Nothing under
``src/`` changes, and leaving the ``with`` block restores every binding.

A span holds its name, the op it belongs to, its parent span, its start and
end. A span's self time is its duration minus the durations of the spans
nested directly in it, so time spent in unlisted helpers counts towards the
nearest listed caller. Spans stay in memory until ``write_spans``.

A listed function that no longer exists is reported in ``absent`` and gets
no metric, rather than a zero.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np

TARGETS = (
    ("network", ("ideal_network", "StarNetwork.__post_init__", "conditional_state",
                 "conditional_expectation", "eve_outcome_probability", "load_strategy")),
    ("functionals", ("eval_I", "eval_I_from_correlators", "build_I_operator", "ideal_I_value")),
    ("linalg", ("kron_all", "tensor_embed", "partial_trace")),
    ("pauli", ("ghz_expectation",)),
    ("selftest", ("verify_selftest_noiseless",)),
    ("robustness", ("verify_sos_identity_A", "verify_sos_identity_B", "residual_norms",
                    "apply_noise", "perturbation_experiment")),
    ("rqt", ("seesaw_real", "max_j_over_t")),
    ("cli", ("main",)),
)

# A restart counts as useful when it ends this close to max_j_over_t(n).
USEFUL_TOL = 1e-6

# Span fields, kept as lists so the wrapper can update them in place.
NAME, OP, PARENT, START, END, CHILD_S = range(6)


def array_bytes(obj, seen: set | None = None) -> int:
    """Bytes of the distinct numpy arrays reachable through dataclass
    fields, tuples and lists of ``obj``."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(array_bytes(x, seen) for x in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(array_bytes(getattr(obj, f.name), seen) for f in dataclasses.fields(obj))
    return 0


def count_sweeps(path: Path) -> int:
    """Lines of a seesaw ``--trace`` JSONL file, one per sweep of a restart."""
    with open(path) as fh:
        return sum(1 for line in fh if "iter" in json.loads(line))


class Tracer:
    def __init__(self, tmpdir: Path):
        self.spans: list[list] = []
        self.op = -1
        self.absent: list[str] = []
        self.present: list[str] = []
        self.kron_entries = 0
        self.state_bytes = 0
        self.sweeps = 0
        self.restarts = 0
        self.useful_restarts = 0
        self._seesaw_sig: inspect.Signature | None = None
        self._tmpdir = tmpdir
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._originals: dict[str, object] = {}
        self._t0 = time.perf_counter()

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items())
                   if name == "rqtgap" or name.startswith("rqtgap.")]
        for module, names in TARGETS:
            try:
                mod = importlib.import_module(f"rqtgap.{module}")
            except ImportError:
                mod = None
            for name in names:
                self._install(mod, module, name, modules)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _install(self, mod, module: str, name: str, modules: list) -> None:
        key = f"{module}.{name}"
        owner_name, _, attr = name.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        fn = None
        if owner is not None:
            fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not callable(fn):
            self.absent.append(key)
            return
        self.present.append(key)
        self._originals[key] = fn
        wrapper = self._wrap(key, fn)
        if isinstance(owner, type):
            self._patch(owner, attr, wrapper)
            return
        for m in modules:
            for a, v in list(vars(m).items()):
                if v is fn:
                    self._patch(m, a, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, key: str, fn):
        spans, stack = self.spans, self._stack
        before = None
        if key == "rqt.seesaw_real":
            before = self._seesaw_before
            self._seesaw_sig = inspect.signature(fn)
        after = {
            "linalg.kron_all": self._kron_after,
            "network.ideal_network": self._network_after,
            "rqt.seesaw_real": self._seesaw_after,
        }.get(key)

        def wrapper(*args, **kwargs):
            ctx = before(args, kwargs) if before else None
            if ctx is not None:
                args, kwargs = ctx["args"], ctx["kwargs"]
            parent = stack[-1] if stack else -1
            span = [key, self.op, parent, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD_S] += span[END] - span[START]
            if after:
                after(ctx, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def _kron_after(self, ctx, result) -> None:
        self.kron_entries += int(np.size(result))

    def _network_after(self, ctx, result) -> None:
        self.state_bytes = max(self.state_bytes, array_bytes(result))

    def _seesaw_before(self, args, kwargs) -> dict:
        """Give every seesaw call a --trace file, so its sweeps can be counted."""
        sig = self._seesaw_sig
        bound = sig.bind(*args, **kwargs)
        ctx = {"args": args, "kwargs": kwargs, "path": None, "own": False,
               "bound": bound.arguments}
        if "trace_path" not in sig.parameters:
            return ctx
        ctx["path"] = bound.arguments.get("trace_path")
        if ctx["path"] is None:
            ctx["path"] = self._tmpdir / f"seesaw-{len(self.spans)}.jsonl"
            ctx["own"] = True
            bound.arguments["trace_path"] = str(ctx["path"])
            ctx["args"], ctx["kwargs"] = bound.args, bound.kwargs
        return ctx

    def _seesaw_after(self, ctx, result) -> None:
        if ctx["path"] is not None:
            self.sweeps += count_sweeps(Path(ctx["path"]))
            if ctx["own"]:
                Path(ctx["path"]).unlink()
        max_j = self._originals.get("rqt.max_j_over_t")
        net = next(iter(ctx["bound"].values()), None)
        per_restart = getattr(result, "per_restart", ())
        self.restarts += len(per_restart)
        if max_j is not None and net is not None:
            exact = float(max_j(net.n).max_value)
            self.useful_restarts += sum(abs(v - exact) <= USEFUL_TOL for v in per_restart)

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "op": s[OP], "parent": s[PARENT],
                    "start_s": s[START] - self._t0, "end_s": s[END] - self._t0,
                    "self_s": s[END] - s[START] - s[CHILD_S],
                }) + "\n")

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit); absent functions are left out."""
        calls = dict.fromkeys(self.present, 0)
        self_s = dict.fromkeys(self.present, 0.0)
        for s in self.spans:
            calls[s[NAME]] += 1
            self_s[s[NAME]] += s[END] - s[START] - s[CHILD_S]
        out: dict[str, tuple[float, str]] = {}
        for key in self.present:
            out[f"{key}.calls"] = (calls[key], "count")
            out[f"{key}.self_s"] = (self_s[key], "s")
        for module, _ in TARGETS:
            keys = [k for k in self.present if k.startswith(module + ".")]
            if keys:
                out[f"{module}.self_s"] = (sum(self_s[k] for k in keys), "s")
        if "linalg.kron_all" in calls:
            out["linalg.kron_all.entries"] = (self.kron_entries, "count")
        if "network.ideal_network" in calls:
            out["network.ideal_network.state_bytes"] = (self.state_bytes, "B")
        if "rqt.seesaw_real" in calls:
            if "trace_path" in self._seesaw_sig.parameters:
                out["rqt.seesaw_real.sweeps"] = (self.sweeps, "count")
            if "rqt.max_j_over_t" in calls:
                # A workload that runs no restarts has no useful ones either.
                ratio = self.useful_restarts / self.restarts if self.restarts else 0.0
                out["rqt.seesaw_real.useful_ratio"] = (ratio, "ratio")
        return out
