"""Constructive canonicalization of binary-observable pairs and the
noiseless self-test battery.

canonicalize_pair builds the explicit unitary that brings a pair of +/-1
observables into the form (Z (x) 1, ~X (x) 1) up to a residual controlled
by how well the pair anticommutes on the state. verify_selftest_noiseless
runs a network through every exactness check at once.
check_record is the one builder of a check record and holds the one tie
rule for its worst offender; every check `verify` reports goes through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .functionals import I_values
from .linalg import StateVector, X, Z
from .network import StarNetwork, conditional_states, ghz_basis


@dataclass(frozen=True)
class CanonicalizationResult:
    """Unitary u on the padded factor and the distances from canonical form.

    residual_a0 measures how far u a0 u^dag is from Z (x) 1 on the padded
    state (zero up to rounding, by construction); residual_a1 the distance of
    u a1 u^dag |psi> from (X (x) 1)|psi>. The anticommutator norm on the
    state is recorded along with both the stated linear bound and the
    sharper quadratic one the construction actually achieves.
    """

    u: np.ndarray
    padded_dim: int
    residual_a0: float
    residual_a1: float
    anticommutator_norm: float
    stated_bound: float
    quadratic_bound: float


def canonicalize_pair(a0: np.ndarray, a1: np.ndarray, psi: StateVector) -> CanonicalizationResult:
    """Rotate (a0, a1) toward (Z (x) 1, X (x) 1) on the first factor of psi.

    The +1 and -1 eigenspaces of a0 are balanced by a direct-sum extension
    when needed (the state picks up zero amplitudes there), the eigenbasis
    rotation sends a0 to Z (x) 1 exactly, and an SVD of the off-diagonal
    block of a1 makes that block nonnegative diagonal. What remains of a1
    outside the X (x) 1 form lives in the diagonal blocks, whose action on
    the state is exactly half the anticommutator's.
    """
    a0 = linalg.require_pm1(a0, "a0")
    a1 = linalg.require_pm1(a1, "a1")
    d = a0.shape[0]
    if a1.shape[0] != d:
        raise ValueError("observables act on different dimensions")
    if psi.local_dims[0] != d:
        raise ValueError("state's first factor does not match the observables")
    rest = psi.dim // d

    w, v = np.linalg.eigh(a0)
    plus = [v[:, k] for k in range(d) if w[k] > 0]
    minus = [v[:, k] for k in range(d) if w[k] < 0]
    m = max(len(plus), len(minus))
    padded = 2 * m

    # Basis rows: the +1 eigenvectors (zero-extended) topped up with extra
    # padding directions, then the same for the -1 side. In this basis the
    # padded a0 is diag(+1 x m, -1 x m) = Z (x) 1 exactly.
    basis = np.zeros((padded, padded), dtype=complex)
    row = 0
    for vec in plus:
        basis[row, :d] = vec.conj()
        row += 1
    extra = d
    for _ in range(m - len(plus)):
        basis[row, extra] = 1.0
        extra += 1
        row += 1
    for vec in minus:
        basis[row, :d] = vec.conj()
        row += 1
    for _ in range(m - len(minus)):
        basis[row, extra] = 1.0
        extra += 1
        row += 1

    # Padding directions act as +1 where they top up the +1 side, else -1.
    a0_pad = np.diag([1.0] * (d + m - len(plus)) + [-1.0] * (m - len(minus))).astype(complex)
    a0_pad[:d, :d] = a0
    a1_pad = np.eye(padded, dtype=complex)
    a1_pad[:d, :d] = a1
    a1_rot = basis @ a1_pad @ basis.conj().T
    c = a1_rot[:m, m:]
    uu, _, vvh = np.linalg.svd(c)
    w2 = np.zeros((padded, padded), dtype=complex)
    w2[:m, :m] = uu.conj().T
    w2[m:, m:] = vvh
    u_total = w2 @ basis

    psi_pad = np.zeros(padded * rest, dtype=complex)
    psi_pad[: d * rest] = psi.vec
    psi_rot = np.kron(u_total, np.eye(rest)) @ psi_pad

    z_target = np.kron(np.kron(Z.astype(complex), np.eye(m)), np.eye(rest))
    x_target = np.kron(np.kron(X.astype(complex), np.eye(m)), np.eye(rest))
    a0_fin = np.kron(u_total @ a0_pad @ u_total.conj().T, np.eye(rest))
    a1_fin = np.kron(u_total @ a1_pad @ u_total.conj().T, np.eye(rest))

    residual_a0 = float(np.linalg.norm((a0_fin - z_target) @ psi_rot))
    residual_a1 = float(np.linalg.norm((a1_fin - x_target) @ psi_rot))

    anti = a0 @ a1 + a1 @ a0
    eps = float(np.linalg.norm(np.kron(anti, np.eye(rest)) @ psi.vec))
    return CanonicalizationResult(
        u=u_total,
        padded_dim=padded,
        residual_a0=residual_a0,
        residual_a1=residual_a1,
        anticommutator_norm=eps,
        stated_bound=2.0 * eps,
        quadratic_bound=2.0 * math.sqrt(2.0) * eps * eps,
    )


def check_record(name: str, deviations, bound: float, **offenders) -> dict:
    """The record of one check: its largest deviation as `measured`, with
    `passed` when that is at most `bound`. Each offender keyword is a
    sequence aligned with `deviations`; the record names its entry at the
    first deviation within `linalg.TIE_TOL` of the largest, so rounding
    does not decide which is named, and leaves out a `None` entry. Every
    check `verify` reports is built here.
    """
    measured = float(np.max(deviations))
    record = {"name": name, "measured": measured, "bound": bound, "passed": measured <= bound}
    if offenders:
        worst = linalg.first_near_max(deviations, linalg.TIE_TOL)
        for key, entries in offenders.items():
            if entries[worst] is not None:
                record[key] = entries[worst]
    return record


def verify_selftest_noiseless(net: StarNetwork) -> dict:
    """Exactness battery on a candidate network, from its conditional
    states for all 2^n outcomes.

    It checks that every <I_l> sits at the quantum bound, Eve's outcomes are
    uniform, each party's pair anticommutes as operators, the conditional
    states match the target entangled vectors with unit fidelity, and
    Eve's POVM elements are exactly the projectors onto them. The last
    check measures max_l ||R_l - t_l t_l^dag||_F from Eve's factors; a
    Frobenius norm is never smaller than the largest entry, so its 1e-10
    bound is no looser than one on entries. Each record comes from
    `check_record`: the per-outcome checks name their worst outcome
    (`worst_l`), the pair check its worst party (`worst_party`, 1-based).
    """
    n = net.n
    states = conditional_states(net)
    tol = 1e-10
    labels = states.labels
    per_l = I_values(net, states)
    anti = [np.linalg.norm(a0 @ a1 + a1 @ a0, 2) for a0, a1 in net.pairs]
    targets = ghz_basis(n)
    fid = np.abs(1.0 - states.fidelity(targets[:, list(labels)]))
    checks = [
        check_record("quantum_bound_attained", np.abs(per_l - 2.0 * (n - 1)), tol, worst_l=labels),
        check_record("eve_uniform", np.abs(states.probs - 1.0 / (1 << n)), tol),
        check_record("pairs_anticommute", anti, 1e-12, worst_party=range(1, n + 1)),
        check_record("conditional_states_ideal", fid, tol, worst_l=labels),
    ]
    checks[0]["per_l"] = {str(l): float(v) for l, v in zip(labels, per_l)}

    # R_l - t_l t_l^dag = W_l S W_l^dag with W_l = [V_l, t_l] and
    # S = diag(1, ..., 1, -1). With W_l = Q_l R_l (one stacked QR over l)
    # its Frobenius norm is ||R_l S R_l^dag||_F, and no d x d matrix is built.
    w = np.concatenate([np.moveaxis(net.eve.factors, 1, 0), targets.T[:, :, None]], axis=2)
    r = np.linalg.qr(w, mode="r")
    s = np.append(np.ones(w.shape[2] - 1), -1.0)
    povm = np.linalg.norm((r * s) @ np.conj(np.swapaxes(r, 1, 2)), axis=(1, 2))
    checks.append(check_record("eve_povm_projects", povm, tol, worst_l=range(len(povm))))
    return {"n": n, "passed": all(c["passed"] for c in checks), "checks": checks}
