"""The real-quantum-theory side of the gap.

The Pauli-block decomposition of third observables (one (4, aux, aux)
stack), the reduction of J_N to a vector t of real expectation values on
rho^0, its exact optimum over the cube, an explicit optimal real
strategy, and a seesaw optimizer used as an independent numerical
confirmation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import linalg, network
from .errors import InternalConsistencyError
from .linalg import I2, DenseOperator, ProductSum, X, Y, Z, apply_factor
from .network import StarNetwork, conditional_states, ideal_network
from .functionals import J_fixed_factors, J_weight

# Single-qubit basis order for the block decomposition:
# sigma_0 = 1, sigma_1 = Z, sigma_2 = X, sigma_3 = Y.
_SIGMA = (I2, Z, X, Y)


def pauli_block_decompose(a: DenseOperator) -> np.ndarray:
    """The blocks r_j of a = sum_j sigma_j (x) r_j on a qubit (x) aux
    space, r_j = (1/2) Tr_qubit[(sigma_j (x) 1) a], as one (4, aux, aux)
    stack in the order 1, Z, X, Y; the leading factor must be a qubit."""
    if a.local_dims[0] != 2:
        raise ValueError("leading factor must have dimension 2")
    aux = math.prod(a.local_dims[1:])
    return np.einsum("sab,biaj->sij", np.stack(_SIGMA), a.mat.reshape(2, aux, 2, aux)) / 2.0


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
    values = [Fraction(n - (n - 2 * k) ** 2, n * (n - 1)) for k in range(n + 1)]
    best = max(values)
    best_k = values.index(best)  # ties keep the smaller k: lexicographically smallest
    if best > Fraction(1, n - 1):
        raise InternalConsistencyError("cube maximum exceeds 1/(n-1)")
    pattern = (-1,) * (n - best_k) + (1,) * best_k
    return TMaximum(best, pattern)


def t_values(net: StarNetwork) -> list[float]:
    """t_i = Tr(r_{i,2} rho_i) for each party's third observable.

    Each party is split as qubit (x) aux, a qubit party with a trivial
    aux factor, and t_i is the expectation of 1 (x) r_{i,2} on that party
    in the conditional state at l = 0, built once; as for `eval_J`, P(0)
    must exceed the conditioning threshold.
    """
    states = conditional_states(net, [0])
    out = []
    for i in range(net.n):
        a2 = net.observables[i][2]
        if a2 is None:
            raise ValueError(f"party {i + 1} has no third observable")
        d = a2.shape[0]
        if d % 2:
            raise ValueError("party dimension must be even for the qubit split")
        r2 = pauli_block_decompose(DenseOperator(a2, (2, d // 2)))[2]
        out.append(float(states.expect(ProductSum.product({i: np.kron(I2, r2)}))[0]))
    return out


def construct_optimal_real_strategy(n: int) -> StarNetwork:
    """Ideal network completed with A_{i,2} = eps_i X realizing the cube optimum."""
    opt = max_j_over_t(n)
    return ideal_network(n).with_third([e * X for e in opt.argmax])


# --- seesaw ---------------------------------------------------------------


def _best_real_observables(k: np.ndarray, current: np.ndarray) -> np.ndarray:
    """argmax of Tr(K A) over real symmetric A with A^2 = 1, for each row
    of the stacks k and current, (R, d, d), from one stacked `eigh`.

    An eigenvalue of K's symmetric part within 1e-12 max(||K||, 1) of zero
    is a tie that rounding noise would break at random; on that eigenspace
    the row keeps its `current`, compressed to it and rounded to +/-1. A
    row whose eigenvalues all tie keeps `current` as it is.
    """
    w, q = np.linalg.eigh((k + k.swapaxes(1, 2)) / 2.0)
    a = (q * np.sign(w)[:, None, :]) @ q.swapaxes(1, 2)
    tie = np.abs(w) <= 1e-12 * np.maximum(np.linalg.norm(k, axis=(1, 2)), 1.0)[:, None]
    for r in np.flatnonzero(tie.any(axis=1)):
        t = tie[r]
        if t.all():
            a[r] = current[r]
            continue
        a[r] = (q[r][:, ~t] * np.sign(w[r][~t])) @ q[r][:, ~t].T
        q0 = q[r][:, t]
        w0, u = np.linalg.eigh(q0.T @ current[r] @ q0)
        a[r] += (q0 @ (u * np.where(w0 >= 0, 1.0, -1.0))) @ (q0 @ u).T
    return a


# J_N = w e_2, with e_2 the sum over pairs of parties of the product with
# the third observable T_m on the pair and the fixed factor O_m elsewhere.
# On rho^0 = X X^dag, every operator below is applied to the columns X,
# one party's axis at a time, the column axis last. A batch of R restarts
# shares X and the fixed factors and has its own thirds, so every block
# has a leading restart axis, (R, a, c), and every third is a stack
# (R, d, d) per party.

SEESAW_MAX_ITER = 500  # sweeps per restart, at most
SEESAW_TOL = 1e-10  # a restart stops when a sweep gains less than this


def _place(blocks: list, one: np.ndarray, third: np.ndarray, shape, top: int) -> list:
    """Blocks indexed by the count k of thirds placed, after one more party:
    k takes `one` on blocks[k] plus, for each restart r, `third[r]` on
    blocks[k - 1][r], k <= top. `one` is one `apply_factor` with the
    restart axis folded into the left one; the thirds one broadcast matmul."""
    left, d, _ = shape
    r = len(third)
    folded = (r * left, d, -1)
    out = [apply_factor(one, blocks[0], folded)]
    for k in range(1, min(len(blocks), top) + 1):
        b = blocks[k - 1]
        moved = (third[:, None] @ b.reshape(r, left, d, -1)).reshape(b.shape)
        out.append(moved if k == len(blocks) else apply_factor(one, blocks[k], folded) + moved)
    return out


def _open_trace(bra: np.ndarray, ket: np.ndarray, shape) -> np.ndarray:
    """M[r, a, b] = <bra_r| (|a><b| (x) 1) |ket_r> for each restart r of
    two (R, a, c) arrays, the party of `shape` left open."""
    left, d, _ = shape
    r = len(bra)
    b = bra.reshape(r, left, d, -1)
    return (b.conj() @ ket.reshape(r, left, d, -1).swapaxes(2, 3)).sum(axis=1)


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a_r|b_r> for each restart r of two (R, a, c) arrays."""
    r = len(a)
    return (a.reshape(r, 1, -1).conj() @ b.reshape(r, -1, 1)).real.reshape(r)


def _sweep(x: np.ndarray, dims, ones, third: list) -> np.ndarray:
    """One Gauss-Seidel pass over the parties on rho^0 = X X^dag for a
    batch of restarts: `x` is X repeated along the restart axis, (R, a, c),
    and third[i] is party i's (R, d, d) stack. Updates `third` in place and
    returns each restart's J_N with its new thirds, shape (R,).

    A backward pass stores, for each party i, the suffix blocks S_0 X and
    S_1 X of the parties after i (old thirds). A forward pass carries the
    bra blocks P_k^dag X, k = 0, 1, 2, of the parties before i (new
    thirds). The linear coefficient of A_{i,2} is
    w (<P_0^dag X| S_1 X> + <P_1^dag X| S_0 X>), party i's axis left open;
    the R coefficients of a party are solved by one stacked `eigh`.
    """
    n = len(dims)
    # (left, d, -1) for each party: its axis of a column array, isolated.
    shapes = [(math.prod(dims[:i]), d, -1) for i, d in enumerate(dims)]
    # suffix[i][k] = S_k X, k <= 1, with S_k the sum over the ways to place
    # k thirds among the parties from i on; suffix[n] = [X].
    suffix = [[x]]
    for i in reversed(range(n)):
        suffix.insert(0, _place(suffix[0], ones[i], third[i], shapes[i], 1))
    bra = [x]
    for i in range(n):
        ket = suffix[i + 1]
        # The last party has no S_1 block, the first no P_1 block.
        k = _open_trace(bra[0], ket[1], shapes[i]) if len(ket) > 1 else 0
        if len(bra) > 1:
            k = k + _open_trace(bra[1], ket[0], shapes[i])
        # Tr(K A) over real symmetric A reads only Re K; on real columns
        # `k.real` is k itself, not a copy.
        third[i] = _best_real_observables(J_weight(n) * k.real, third[i])
        bra = _place(bra, ones[i].conj().T, third[i].conj().swapaxes(1, 2), shapes[i], 2)
    return J_weight(n) * _inner(bra[2], x)


def _run_batch(x: np.ndarray, dims, ones, third: list) -> tuple[list, list, list]:
    """Sweeps a batch of restarts from the thirds third[i], (R, d, d) per
    party. A restart stops when a sweep gains less than SEESAW_TOL, keeping
    the larger of its last two J, or after SEESAW_MAX_ITER sweeps, and
    leaves the batch. Every restart starts at J = -inf, so its first sweep
    never stops it. Returns each restart's final J, its thirds and the J
    of each of its sweeps."""
    size = len(third[0])
    current = np.full(size, -np.inf)
    history: list = [[] for _ in range(size)]
    ends: list = [None] * size
    live = np.arange(size)
    for _ in range(SEESAW_MAX_ITER):
        new = _sweep(np.broadcast_to(x, (live.size,) + x.shape), dims, ones, third)
        for r, j in zip(live, new.tolist()):
            history[r].append(j)
        stop = new - current[live] < SEESAW_TOL
        current[live] = np.where(stop, np.maximum(current[live], new), new)
        if stop.any():
            for j in np.flatnonzero(stop):
                ends[live[j]] = tuple(t[j] for t in third)
            live, third = live[~stop], [t[~stop] for t in third]
            if not live.size:
                break
    for j, r in enumerate(live):
        ends[r] = tuple(t[j] for t in third)
    return current.tolist(), ends, history


@dataclass(frozen=True)
class SeesawStart:
    """What the seesaw reads of a network: rho^0 as columns X with
    rho^0 = X X^dag (`ConditionalStates.columns`), axes (a, c), and each
    party's fixed factor in J_N (`J_fixed_factors`)."""

    n: int
    party_dims: tuple[int, ...]
    columns: np.ndarray
    ones: list[np.ndarray]

    @classmethod
    def of(cls, net: StarNetwork) -> "SeesawStart":
        """The seesaw's inputs read from `net`."""
        x = conditional_states(net, [0]).columns(0)
        return cls(net.n, net.party_dims, x, J_fixed_factors(net.pairs))

    @classmethod
    def ideal(cls, n: int) -> "SeesawStart":
        """`of(ideal_network(n))` without the network: Eve's GHZ column for
        l = 0 goes through the phi+ source vectors (from the engine's
        `_source_vectors`) by one `apply_local`, then is normalised, as
        `conditional_states` does it, so the columns are the same to the
        bit, and no 2^n x 2^n basis is built."""
        if n < 2:
            raise ValueError("need at least 2 external parties")
        dims = (2,) * n
        v = linalg.apply_local(network._ghz_columns(n, np.zeros(1, dtype=int)), dims,
                               dict.fromkeys(range(n), network._phi_plus_vector()))
        prob = np.sum(np.abs(v) ** 2, axis=(0, 2))
        x = v[:, 0] / math.sqrt(prob[0])
        return cls(n, dims, x, J_fixed_factors(network._ideal_pairs(n)))


@dataclass(frozen=True)
class SeesawResult:
    """`best_J` is max(per_restart). `best_third` holds the thirds of the
    first restart within SEESAW_TOL of it, so restarts that tie
    up to rounding do not change which one is returned."""

    best_J: float
    best_third: tuple[np.ndarray, ...]
    per_restart: tuple[float, ...]
    seed: int
    rng: str = linalg.RNG_NAME


def seesaw_real(
    start: StarNetwork | SeesawStart,
    restarts: int,
    seed: int,
    trace_path: Optional[str] = None,
) -> SeesawResult:
    """Alternating maximization of J_N over entrywise-real +/-1 third
    observables, states and first two observables held fixed.

    `start` is a network or only what the seesaw reads of one, a
    `SeesawStart`: `SeesawStart.ideal(n)` is the ideal network's, without
    Eve's basis. J_N is affine in each party's A_{i,2}. Each sweep
    (`_sweep`) takes every party's linear coefficient matrix K on rho^0's
    columns from prefix blocks (parties before it, new thirds) and suffix
    blocks (parties after it, old thirds), indexed by how many thirds they
    hold. Each K is solved exactly by eigendecomposition (an
    O diag(+/-1) O^T update with O real orthogonal).

    Restarts are independent and run in batches along a leading restart
    axis: blocks are (R, a, c) and each party's thirds one (R, d, d)
    stack, so a block step is one matmul for the whole batch, a sweep
    makes O(n) calls and never forms a 2^n x 2^n matrix. A batch is sized
    so that the blocks a sweep holds stay within
    `network.MIXED_BATCH_ENTRIES` entries, and a restart leaves its batch
    when it stops. Each restart draws its n seeds from one stream in
    restart order, whatever the batch size; a batch draws the thirds of
    all parties of one dimension in one `random_pm1_matrices` call.
    `trace_path` gets one JSON line per sweep, restart by restart. See
    `SeesawResult` for which restart's thirds are returned.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    start = start if isinstance(start, SeesawStart) else SeesawStart.of(start)
    n, dims, x, ones = start.n, start.party_dims, start.columns, start.ones
    # Per restart, a sweep holds 2n suffix blocks, three bra blocks and a
    # few temporaries, each the size of X.
    batch = max(1, network.MIXED_BATCH_ENTRIES // ((2 * n + 10) * x.size))
    by_dim = [(d, [i for i, e in enumerate(dims) if e == d]) for d in dict.fromkeys(dims)]
    rng = np.random.default_rng(seed)
    trace_fh = open(trace_path, "w") if trace_path else None
    per_restart: list = []
    thirds: list = []
    try:
        for done in range(0, restarts, batch):
            seeds = rng.integers(0, 2**63, size=(min(batch, restarts - done), n))
            third: list = [None] * n
            for d, parties in by_dim:
                drawn = linalg.random_pm1_matrices(d, seeds[:, parties], real=True)
                for k, i in enumerate(parties):
                    third[i] = drawn[:, k]
            values, ends, history = _run_batch(x, dims, ones, third)
            per_restart += values
            thirds += ends
            if trace_fh:
                for r, js in enumerate(history, done):
                    for it, j in enumerate(js):
                        trace_fh.write(json.dumps({"restart": r, "iter": it, "J": j}) + "\n")
    finally:
        if trace_fh:
            trace_fh.close()
    best = max((v for v in per_restart if v > -np.inf), default=None)
    if best is None:
        raise InternalConsistencyError("no restart produced a finite J")
    first = linalg.first_near_max(per_restart, SEESAW_TOL)
    return SeesawResult(
        best_J=float(best),
        best_third=thirds[first],
        per_restart=tuple(per_restart),
        seed=seed,
    )
