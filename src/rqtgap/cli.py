"""Command-line front door.

Subcommands: gap (the scaling table), verify (exactness batteries),
noise-curve (closed-form noisy bounds), seesaw (numerical real optimum).
Machine output is deterministic for fixed flags and seed; CSV floats are
printed with 17 significant digits, JSON uses Python's round-trip float
repr, human tables use 6 digits.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .errors import DegenerateConditioningError, ValidationError
from .functionals import I_values, classical_bound_I, ideal_I_value, validated_pairs
from .linalg import Z
from .network import StarNetwork, conditional_states, ideal_network, load_strategy
from .robustness import (
    beta_rqt_upper,
    epsilon_threshold,
    sos_inputs,
    sos_residuals,
    sos_terms_A,
    sos_terms_B,
)
from .rqt import SeesawStart, max_j_over_t, seesaw_real
from .selftest import check_record, verify_selftest_noiseless

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# Each command's largest n. Measured in fresh processes on 2 shared vCPUs
# with one BLAS thread; load moves the times about 2x.
#
# verify, three runs each: --n 10 0.61-0.72 s, 101 MB; --n 11 2.15-2.31 s,
# 264 MB. Its time grew about 3.3x from n = 10 to 11; n = 12 is unmeasured.
VERIFY_MAX_N = 11

# seesaw: the largest n whose 20 default restarts fit 60 s and 2 GB with a
# 2x load margin. One run each unless noted: --n 16 1.71 s, 59 MB; --n 18
# 6.63 s, 129 MB; --n 19 11.95-12.03 s, 226 MB (two runs); --n 20
# 26.0-27.0 s, 431 MB (three runs; 38.5 s once under load); --n 21
# 54.8 s, 855 MB, which twice over passes 60 s.
SEESAW_MAX_N = 20


def _usage_error(message: str) -> int:
    """Print a one-line usage error to stderr; returns EXIT_USAGE."""
    print("error: " + " ".join(message.split()), file=sys.stderr)
    return EXIT_USAGE


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_to_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow(["%.17g" % v if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _rows_to_human(header: list[str], rows: list[list]) -> str:
    fmt_rows = [
        ["%.6g" % v if isinstance(v, float) else str(v) for v in row] for row in rows
    ]
    widths = [max(len(h), *(len(r[i]) for r in fmt_rows)) if fmt_rows else len(h) for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for r in fmt_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _emit_rows(header: list[str], rows: list[list], args) -> None:
    """The table in the format `args.format` asks for, to `args.out`."""
    if args.format == "json":
        payload = [dict(zip(header, row)) for row in rows]
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    elif args.format == "csv":
        _emit(_rows_to_csv(header, rows), args.out)
    else:
        _emit(_rows_to_human(header, rows), args.out)


def cmd_gap(args) -> int:
    if args.n_min < 2 or args.n_min > args.n_max:
        return _usage_error("need 2 <= n-min <= n-max")
    header = [
        "n", "beta_Q", "beta_C_enumerated", "beta_CQT",
        "beta_RQT_exact", "beta_RQT_cert_bound", "gap_ratio",
    ]
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        rows.append(
            [
                n,
                2.0 * (n - 1),
                classical_bound_I(n)["enumerated"],
                1.0,
                float(max_j_over_t(n).max_value),
                1.0 / (n - 1),
                float(n - 1),
            ]
        )
    _emit_rows(header, rows, args)
    return EXIT_OK


def _sos_checks(seed: int, net: StarNetwork) -> list[dict]:
    """Both identities on the network's observables at l = 0 and
    l = 2^n - 1, then on five random +/-1 draws at l = 0: the seven inputs
    are validated once and their shared tables built once (`sos_inputs`),
    then one call per identity takes them all. Each
    check names the input with the largest residual (`check_record`)."""
    n = net.n
    labels = [0, (1 << n) - 1] + [0] * 5
    seeds = np.random.default_rng(seed).integers(0, 2**63, size=(5, n, 2))
    draws = linalg.random_pm1_matrices(2, seeds)
    obs = [
        [np.concatenate([[a, a], draws[:, i, x]]) for x, a in enumerate(pair)]
        for i, pair in enumerate(net.pairs)
    ]
    inputs = sos_inputs(n, labels, validated_pairs(n, obs))
    identities = (("sos_identity_A", sos_terms_A), ("sos_identity_B_residual", sos_terms_B))
    return [
        check_record(
            name, sos_residuals(terms, inputs), 1e-9,
            worst_l=labels, worst_draw=[None, None, 0, 1, 2, 3, 4],
        )
        for name, terms in identities
    ]


def _verify_batteries(seed: int, net: StarNetwork, ideal: StarNetwork) -> dict:
    n = net.n
    report: dict = {"n": n, "seed": seed, "rng": linalg.RNG_NAME, "checks": []}

    battery = verify_selftest_noiseless(net)
    report["checks"].append(
        {"name": "selftest_noiseless", "passed": battery["passed"], "detail": battery}
    )

    report["checks"] += _sos_checks(seed, net)

    # Backend agreement: the factor-by-factor evaluation (I_values) and the
    # closed-form GHZ kernel must tell the same story on the ideal strategy.
    # On the ideal network the battery's per_l values are I_values on these
    # very states, so they are reused.
    if net is ideal:
        bound_check = next(c for c in battery["checks"] if c["name"] == "quantum_bound_attained")
        direct = np.array(list(bound_check["per_l"].values()))
    else:
        direct = I_values(ideal, conditional_states(ideal))
    ref = ideal_I_value(n, np.arange(1 << n))
    report["checks"].append(check_record("backend_equivalence", np.abs(direct - ref), 1e-9))

    report["passed"] = all(c["passed"] for c in report["checks"])
    return report


def _failures(checks: list, prefix: str = "") -> list[str]:
    """The innermost failing checks, each as 'path measured M bound B',
    followed by the worst offender, '(l L)', '(party P)' or '(draw K)',
    when the check names one."""
    out = []
    for c in checks:
        if c["passed"]:
            continue
        name = prefix + c["name"]
        inner = c.get("detail", {}).get("checks")
        if inner:
            out += _failures(inner, name + "/")
            continue
        line = f"{name} measured {c['measured']!r} bound {c['bound']!r}"
        for key, label in (("worst_l", "l"), ("worst_party", "party"), ("worst_draw", "draw")):
            if key in c:
                line += f" ({label} {c[key]})"
        out.append(line)
    return out


def cmd_verify(args) -> int:
    if not 2 <= args.n <= VERIFY_MAX_N:
        return _usage_error(f"need 2 <= n <= {VERIFY_MAX_N}")
    if args.strategy:
        try:
            net = load_strategy(args.strategy)
            net.pairs  # ConfigurationError if A_{i,0} or A_{i,1} is unset
        except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
            why = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
            return _usage_error(f"cannot load strategy file {args.strategy}: {why}")
        if net.n != args.n:
            return _usage_error("strategy file is for a different n")
        # The battery compares with qubit GHZ targets.
        if set(net.party_dims + net.eve_dims) != {2}:
            why = f"party dims {net.party_dims}, Eve dims {net.eve_dims}"
            return _usage_error(f"strategy file is not all qubits: {why}")
    ideal = ideal_network(args.n)
    if not args.strategy:
        net = ideal
    if args.inject_broken:
        obs = list(net.observables)
        obs[1] = (obs[1][0], Z, obs[1][2])
        net = StarNetwork(net.n, net.sources, tuple(obs), net.eve)
    try:
        report = _verify_batteries(args.seed, net, ideal)
    except (ValidationError, DegenerateConditioningError) as exc:
        report = {"n": args.n, "seed": args.seed, "passed": False, "error": str(exc)}
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    if not report["passed"]:
        failing = _failures(report.get("checks", []))
        print("FAIL: " + (", ".join(failing) or report.get("error", "?")), file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def cmd_noise_curve(args) -> int:
    if args.n < 2:
        return _usage_error("need n >= 2")
    eps_grid = args.eps if args.eps else [0.0, 1e-6, 1e-4, 1e-2]
    if not all(math.isfinite(e) for e in eps_grid):
        return _usage_error("eps values must be finite")
    if any(e < 0 for e in eps_grid):
        return _usage_error("eps values must be nonnegative")
    try:
        eps_star: Optional[float] = epsilon_threshold(args.n, 1.0)
    except ValueError:
        eps_star = None  # n = 2: the noiseless bound already sits at 1
    except OverflowError:
        return _usage_error(f"n = {args.n} overflows double precision")
    header = ["n", "eps", "beta_rqt_upper", "beta_cqt", "gap_nontrivial", "eps_star"]
    rows = []
    for eps in sorted(eps_grid):
        bound = beta_rqt_upper(args.n, eps)
        if not math.isfinite(bound):
            return _usage_error(f"beta_rqt_upper({args.n}, {eps!r}) overflows double precision")
        rows.append(
            [
                args.n,
                float(eps),
                bound,
                1.0,
                bound < 1.0,
                "" if eps_star is None else eps_star,
            ]
        )
    _emit_rows(header, rows, args)
    return EXIT_OK


def cmd_seesaw(args) -> int:
    if not 2 <= args.n <= SEESAW_MAX_N:
        return _usage_error(f"need 2 <= n <= {SEESAW_MAX_N}")
    if args.restarts < 1:
        return _usage_error("need --restarts >= 1")
    result = seesaw_real(
        SeesawStart.ideal(args.n), restarts=args.restarts, seed=args.seed,
        trace_path=args.trace,
    )
    exact = max_j_over_t(args.n)
    report = {
        "n": args.n,
        "seed": args.seed,
        "rng": result.rng,
        "restarts": args.restarts,
        "best_J": result.best_J,
        "per_restart": list(result.per_restart),
        "exact_maximum": float(exact.max_value),
        "exact_argmax": list(exact.argmax),
        "matches_enumeration": abs(result.best_J - float(exact.max_value)) <= 1e-6,
        "sound": result.best_J <= float(exact.max_value) + 1e-7,
    }
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return EXIT_OK if report["sound"] else EXIT_FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    p = argparse.ArgumentParser(prog="rqtgap")
    p.add_argument("--format", choices=["json", "csv", "human"], default="human")
    p.add_argument("--out", default=None, help="write output to a file")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gap", help="gap table over a range of n")
    g.add_argument("--n-min", type=int, required=True)
    g.add_argument("--n-max", type=int, required=True)
    g.set_defaults(func=cmd_gap)

    v = sub.add_parser("verify", help="run the exactness batteries")
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--strategy", default=None, help="JSON strategy file to verify")
    v.add_argument("--inject-broken", action="store_true",
                   help="debug: corrupt one observable to exercise the failure path")
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("noise-curve", help="closed-form noisy bounds over an eps grid")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--eps", type=float, action="append", default=None)
    c.set_defaults(func=cmd_noise_curve)

    s = sub.add_parser("seesaw", help="numerical real optimum of J_N")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--restarts", type=int, default=20)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--trace", default=None, help="JSON-lines iteration trace file")
    s.set_defaults(func=cmd_seesaw)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.format == "csv" and args.command in ("verify", "seesaw"):
        return _usage_error(f"{args.command} writes JSON only; drop --format csv")
    if getattr(args, "seed", 0) < 0:
        return _usage_error("need --seed >= 0")
    for flag, path in (("--out", args.out), ("--trace", getattr(args, "trace", None))):
        if path:
            # Append mode creates a missing file but keeps an existing one
            # intact until the output is ready.
            try:
                open(path, "a").close()
            except OSError as exc:
                return _usage_error(f"cannot write {flag} {path}: {exc.strerror}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
