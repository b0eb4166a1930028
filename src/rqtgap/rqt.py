"""The real-quantum-theory side of the gap.

Reality checks, the Pauli-block decomposition of third observables, the
reduction of J_N to a vector t of real expectation values, its exact
optimum over the cube, an explicit optimal real strategy, and a seesaw
optimizer used as an independent numerical confirmation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .errors import InternalConsistencyError
from .linalg import I2, DenseOperator, X, Y, Z, kron_all, partial_trace
from .network import StarNetwork, conditional_state, ideal_network
from .functionals import J_terms, _single_outcome

# Single-qubit basis order for the block decomposition:
# sigma_0 = 1, sigma_1 = Z, sigma_2 = X, sigma_3 = Y.
_SIGMA = (I2, Z, X, Y)


def assert_entrywise_real(net: StarNetwork, tol: float = 1e-12) -> dict:
    """Per-object reality report for the whole strategy.

    Failures list the worst offending entry so broken strategies are easy
    to localize.
    """

    def entry(m: np.ndarray) -> dict:
        m = np.asarray(m)
        worst = float(np.max(np.abs(m.imag))) if m.size else 0.0
        rec = {"real": worst <= tol, "max_imag": worst}
        if not rec["real"]:
            idx = np.unravel_index(np.argmax(np.abs(m.imag)), m.shape)
            rec["offending_entry"] = [int(i) for i in idx]
        return rec

    report = {
        "sources": [entry(s.mat) for s in net.sources],
        "observables": [
            [None if m is None else entry(m) for m in triple]
            for triple in net.observables
        ],
        "eve_povm": [entry(net.eve.element(l)) for l in range(len(net.eve))],
    }
    flat = report["sources"] + report["eve_povm"]
    flat += [e for triple in report["observables"] for e in triple if e is not None]
    report["all_real"] = all(e["real"] for e in flat)
    return report


@dataclass(frozen=True)
class PauliBlockDecomp:
    """Blocks r_j of A = sum_j sigma_j (x) r_j on a qubit (x) aux space."""

    r0: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    r3: np.ndarray

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        return (self.r0, self.r1, self.r2, self.r3)


def pauli_block_decompose(a: DenseOperator) -> PauliBlockDecomp:
    """r_j = (1/2) Tr_qubit[(sigma_j (x) 1) a]; leading factor must be a qubit."""
    if a.local_dims[0] != 2:
        raise ValueError("leading factor must have dimension 2")
    aux_dims = a.local_dims[1:] if len(a.local_dims) > 1 else (1,)
    aux = math.prod(aux_dims)
    blocks = []
    for sigma in _SIGMA:
        m = kron_all([sigma, np.eye(aux)]) @ a.mat
        r = partial_trace(DenseOperator(m, (2, aux)), keep=[1]).mat / 2.0
        blocks.append(r)
    return PauliBlockDecomp(*blocks)


def reality_constraints_check(
    d: PauliBlockDecomp, rho: Optional[np.ndarray] = None, tol: float = 1e-12
) -> dict:
    """r_0..r_2 must be entrywise real and r_3 entrywise imaginary for a real
    observable; for any real state rho, Tr(r_3 rho) must vanish."""
    rec = {
        "r0_real": float(np.max(np.abs(d.r0.imag))),
        "r1_real": float(np.max(np.abs(d.r1.imag))),
        "r2_real": float(np.max(np.abs(d.r2.imag))),
        "r3_imaginary": float(np.max(np.abs(d.r3 + d.r3.conj()))),
    }
    rec["passed"] = all(v <= tol for v in rec.values())
    if rho is not None:
        rho = np.asarray(rho, dtype=complex)
        if np.max(np.abs(rho.imag)) > tol:
            raise ValueError("supplied state is not real")
        tr = complex(np.trace(d.r3 @ rho))
        rec["trace_r3_rho"] = abs(tr)
        rec["passed"] = rec["passed"] and abs(tr) <= tol
    return rec


def j_from_t(t: Sequence[float]) -> float:
    """-(1/(n(n-1))) sum_{j1 != j2} t_{j1} t_{j2}."""
    t = np.asarray(t, dtype=float)
    n = t.size
    if n < 2:
        raise ValueError("need at least 2 entries")
    s = float(t.sum())
    return (float((t * t).sum()) - s * s) / (n * (n - 1))


@dataclass(frozen=True)
class TMaximum:
    max_value: Fraction
    argmax: tuple[int, ...]


def max_j_over_t(n: int) -> TMaximum:
    """Exact maximum of j_from_t over the cube [-1, 1]^n.

    On any slice of fixed sum the objective is linear in each coordinate,
    so a vertex attains the maximum; only the count of +1 entries matters.
    The result never exceeds 1/(n-1): equality for even n, 1/n for odd n.
    """
    if n < 2:
        raise ValueError("need at least 2 parties")
    best: Optional[Fraction] = None
    best_k = 0
    for k in range(n + 1):
        value = Fraction(n - (n - 2 * k) ** 2, n * (n - 1))
        if best is None or value > best:
            best = value
            best_k = k  # ties keep the smaller k: lexicographically smallest
    if best is None:
        raise InternalConsistencyError("no vertex count was evaluated")
    if best > Fraction(1, n - 1):
        raise InternalConsistencyError("cube maximum exceeds 1/(n-1)")
    pattern = (-1,) * (n - best_k) + (1,) * best_k
    return TMaximum(best, pattern)


def t_values(net: StarNetwork) -> list[float]:
    """t_i = Tr(r_{i,2} rho_i) for each party's third observable.

    For qubit parties the auxiliary factor is trivial and r_{i,2} is the
    scalar X coefficient. Larger parties are split as qubit (x) aux and the
    junk state is the auxiliary marginal of the conditional state at l = 0.
    """
    rho0 = conditional_state(net, 0)
    out = []
    for i in range(net.n):
        a2 = net.observables[i][2]
        if a2 is None:
            raise ValueError(f"party {i + 1} has no third observable")
        d = a2.shape[0]
        if d == 2:
            out.append(float(np.real(np.trace(X @ a2)) / 2.0))
            continue
        if d % 2:
            raise ValueError("party dimension must be even for the qubit split")
        dec = pauli_block_decompose(DenseOperator(a2, (2, d // 2)))
        reduced = partial_trace(rho0, keep=[i])
        aux_state = partial_trace(DenseOperator(reduced.mat, (2, d // 2)), keep=[1])
        out.append(float(np.real(np.trace(dec.r2 @ aux_state.mat))))
    return out


def construct_optimal_real_strategy(n: int) -> StarNetwork:
    """Ideal network completed with A_{i,2} = eps_i X realizing the cube optimum."""
    opt = max_j_over_t(n)
    return ideal_network(n).with_third([e * X for e in opt.argmax])


# --- seesaw ---------------------------------------------------------------


def _best_real_observable(k: np.ndarray, current: np.ndarray) -> np.ndarray:
    """argmax of Tr(K A) over real symmetric A with A^2 = 1.

    An eigenvalue of K's symmetric part within 1e-12 max(||K||, 1) of zero
    is a tie that rounding noise would break at random; on that eigenspace
    the result keeps `current`, compressed to it and rounded to +/-1.
    """
    sym = (k + k.T) / 2.0
    w, q = np.linalg.eigh(sym)
    tie = np.abs(w) <= 1e-12 * max(np.linalg.norm(k), 1.0)
    if tie.all():
        return current
    a = (q[:, ~tie] * np.sign(w[~tie])) @ q[:, ~tie].T
    if tie.any():
        q0 = q[:, tie]
        w0, u = np.linalg.eigh(q0.T @ current @ q0)
        a = a + (q0 @ (u * np.where(w0 >= 0, 1.0, -1.0))) @ (q0 @ u).T
    return a


@dataclass(frozen=True)
class SeesawResult:
    best_J: float
    best_third: tuple[np.ndarray, ...]
    per_restart: tuple[float, ...]
    seed: int
    rng: str = linalg.RNG_NAME


def seesaw_real(
    net_base: StarNetwork,
    restarts: int,
    seed: int,
    max_iter: int = 500,
    tol: float = 1e-10,
    trace_path: Optional[str] = None,
) -> SeesawResult:
    """Alternating maximization of J_N over entrywise-real +/-1 third
    observables, states and first two observables held fixed.

    J_N is affine in each party's A_{i,2}, so the per-party step takes the
    linear coefficient matrix K from the terms of `J_terms` that hold it,
    contracted on rho^0 with that party's axes left open
    (`ConditionalStates.expect_open`), and solves it exactly by
    eigendecomposition (an O diag(+/-1) O^T update with O real orthogonal).
    Restarts are independent; ties resolve to the earliest restart.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    n = net_base.n
    dims = net_base.party_dims
    rho0 = _single_outcome(net_base, 0)
    pairs = net_base.pairs
    rng = np.random.default_rng(seed)
    trace_fh = open(trace_path, "w") if trace_path else None
    per_restart = []
    best = -np.inf
    best_third: Optional[list[np.ndarray]] = None
    try:
        for r in range(restarts):
            third = [
                linalg.random_real_pm1_observable(
                    dims[i], int(rng.integers(0, 2**63))
                ).mat.real
                for i in range(n)
            ]
            current = float(rho0.expect(J_terms(n, pairs, third))[0])
            for it in range(max_iter):
                for i in range(n):
                    # The coefficient of A[a, a'] is E[a', a].
                    e = rho0.expect_open(J_terms(n, pairs, third, open_party=i), i)[0]
                    third[i] = _best_real_observable(e.real.T, third[i])
                new = float(rho0.expect(J_terms(n, pairs, third))[0])
                if trace_fh:
                    trace_fh.write(json.dumps({"restart": r, "iter": it, "J": new}) + "\n")
                if new - current < tol:
                    current = max(current, new)
                    break
                current = new
            per_restart.append(current)
            if current > best:
                best = current
                best_third = [m.copy() for m in third]
    finally:
        if trace_fh:
            trace_fh.close()
    if best_third is None:
        raise InternalConsistencyError("no restart produced a finite J")
    return SeesawResult(
        best_J=float(best),
        best_third=tuple(best_third),
        per_restart=tuple(per_restart),
        seed=seed,
    )
