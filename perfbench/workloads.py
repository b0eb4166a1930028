"""The benchmark's workloads: inputs made from the workload seed, one op
each, and the check that decides whether an op's output is correct.

Every op goes through the package's public entry points (``rqtgap.cli.main``
and the ``rqtgap.robustness`` functions), looked up on the module at call
time so that the tracer's wrappers see the calls. An op returns its raw
outputs; ``check`` raises ``WrongOutput`` when they are not what the
workload expects, and ``output_bytes`` serialises them for the determinism
check.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

import rqtgap.cli
import rqtgap.network
import rqtgap.robustness


class WrongOutput(Exception):
    """An op finished but its output fails the workload's check."""


@dataclass(frozen=True)
class CliResult:
    code: int
    out: bytes
    stdout: str
    stderr: str


def run_cli(argv: list[str], out: Path) -> CliResult:
    """Call ``rqtgap.cli.main`` in-process, capturing its streams and --out file."""
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = rqtgap.cli.main(argv)
    data = out.read_bytes() if out.exists() else b""
    return CliResult(code, data, stdout.getvalue(), stderr.getvalue())


def cli_bytes(r: CliResult) -> bytes:
    head = json.dumps({"code": r.code, "stdout": r.stdout, "stderr": r.stderr})
    return head.encode() + b"\n" + r.out


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise WrongOutput(msg)


def _report(r: CliResult) -> dict:
    _require("Traceback" not in r.stderr, "traceback on stderr: " + r.stderr[-400:])
    try:
        return json.loads(r.out)
    except ValueError as exc:
        raise WrongOutput(f"--out file is not JSON: {exc}") from None


def _named(items: list, name: str) -> dict:
    for item in items:
        if item.get("name") == name:
            return item
    raise WrongOutput(f"no check named {name!r}")


class Draws:
    """Per-op draws from one seeded stream, made in index order on demand,
    so op i gets the same inputs whatever else the run does."""

    def __init__(self, rng: random.Random, draw):
        self._rng = rng
        self._draw = draw
        self._vals: list = []

    def __getitem__(self, i: int):
        while len(self._vals) <= i:
            self._vals.append(self._draw(self._rng))
        return self._vals[i]


def _op_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


class VerifyIdeal:
    """``rqtgap verify --n 7`` on the ideal network, one op seed per op."""

    name = "verify_ideal"
    n = 7
    traced_ops = 1

    def __init__(self, seed: int, tmpdir: Path):
        self.seeds = Draws(random.Random(seed), _op_seed)
        self.out = tmpdir / "verify.json"

    def op(self, i: int) -> CliResult:
        argv = ["--out", str(self.out), "verify", "--n", str(self.n), "--seed", str(self.seeds[i])]
        return run_cli(argv, self.out)

    def check(self, r: CliResult) -> None:
        report = _report(r)
        _require(r.code == 0, f"exit code {r.code}, expected 0")
        _require(report.get("passed") is True, "report not passed")
        battery = _named(report["checks"], "selftest_noiseless")["detail"]
        per_l = _named(battery["checks"], "quantum_bound_attained")["per_l"]
        _require(len(per_l) == 1 << self.n, f"{len(per_l)} per_l values, expected {1 << self.n}")
        beta_q = 2.0 * (self.n - 1)
        worst = max(abs(v - beta_q) for v in per_l.values())
        _require(worst <= 1e-9, f"per_l value off 2(n-1) by {worst:.3e}")

    output_bytes = staticmethod(cli_bytes)


class SeesawN6:
    """``rqtgap seesaw --n 6 --restarts 4``, one op seed per op."""

    name = "seesaw_n6"
    n = 6
    restarts = 4
    traced_ops = 3

    def __init__(self, seed: int, tmpdir: Path):
        self.seeds = Draws(random.Random(seed), _op_seed)
        self.out = tmpdir / "seesaw.json"

    def op(self, i: int) -> CliResult:
        argv = [
            "--out", str(self.out), "seesaw", "--n", str(self.n),
            "--restarts", str(self.restarts), "--seed", str(self.seeds[i]),
        ]
        return run_cli(argv, self.out)

    def check(self, r: CliResult) -> None:
        report = _report(r)
        _require(r.code == 0, f"exit code {r.code}, expected 0")
        _require(report.get("sound") is True, "seesaw result not sound")
        _require(report.get("matches_enumeration") is True, "seesaw misses the exact optimum")

    output_bytes = staticmethod(cli_bytes)


@dataclass(frozen=True)
class NoisyResult:
    experiment: dict
    residuals: dict
    verify: CliResult


class NoisyMixed:
    """Noisy n = 5 networks: the perturbation experiment, the SOS residuals
    at l = 0, and ``verify --strategy`` on a noisy strategy file.

    Op i uses noise model i mod 3 with a strength drawn from the seed. The
    three strategy files, one per model, are written during set-up.
    """

    name = "noisy_mixed"
    n = 5
    restarts = 5
    models = ("depolarize_sources", "mix_povm", "rotate_observables")
    strength_range = (0.05, 0.15)
    traced_ops = 3

    def __init__(self, seed: int, tmpdir: Path):
        rng = random.Random(seed)
        self.strategies = {}
        for model in self.models:
            path = tmpdir / f"strategy-{model}.json"
            net = rqtgap.robustness.apply_noise(
                rqtgap.network.ideal_network(self.n), model, self._strength(rng)
            )
            rqtgap.network.save_strategy(net, path)
            self.strategies[model] = path
        self.draws = Draws(rng, lambda r: (_op_seed(r), self._strength(r)))
        self.out = tmpdir / "verify.json"

    def _strength(self, rng: random.Random) -> float:
        return rng.uniform(*self.strength_range)

    def op(self, i: int) -> NoisyResult:
        model = self.models[i % len(self.models)]
        seed, strength = self.draws[i]
        rob = rqtgap.robustness
        experiment = rob.perturbation_experiment(
            self.n, model, strength, seed, restarts=self.restarts
        )
        net = rob.apply_noise(rqtgap.network.ideal_network(self.n), model, strength)
        residuals = rob.residual_norms(net, 0)
        argv = [
            "--out", str(self.out), "verify", "--n", str(self.n), "--seed", str(seed),
            "--strategy", str(self.strategies[model]),
        ]
        return NoisyResult(experiment, residuals, run_cli(argv, self.out))

    def check(self, r: NoisyResult) -> None:
        _require(r.experiment.get("bound_holds") is True, "noisy J_N exceeds the closed-form bound")
        terms = r.residuals.get("terms") or {}
        _require(bool(terms), "residual_norms returned no terms")
        bad = sorted(name for name, t in terms.items() if t.get("ok") is not True)
        _require(not bad, f"residual terms over their bound: {bad}")
        report = _report(r.verify)
        _require(r.verify.code == 1, f"verify exit code {r.verify.code}, expected 1")
        failing = [c["name"] for c in report.get("checks", []) if not c["passed"]]
        _require(failing == ["selftest_noiseless"], f"failing checks {failing}, expected only selftest_noiseless")

    @staticmethod
    def output_bytes(r: NoisyResult) -> bytes:
        head = json.dumps([r.experiment, r.residuals], sort_keys=True)
        return head.encode() + b"\n" + cli_bytes(r.verify)


WORKLOADS = {w.name: w for w in (VerifyIdeal, SeesawN6, NoisyMixed)}
