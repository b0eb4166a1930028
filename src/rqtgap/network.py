"""The star-network scenario: sources, observables, Eve's measurement.

Global state order is A_1 E_1 A_2 E_2 ... ; Eve's POVM acts on the joined
E factors in the order E_1 ... E_N. A conditional state never materializes
the joint density matrix: Eve's POVM element is pushed through one source
at a time, n small matmuls per outcome. The POVM itself is held densely,
2^n elements of 2^n x 2^n entries, which bounds n in memory and time.
Correlators contract local observables factor by factor (`expect_local`)
instead of building kron operators.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .errors import ConfigurationError, DegenerateConditioningError, ValidationError
from .linalg import DenseOperator, StateVector, X, Z

CONDITIONING_THRESHOLD = 1e-14

# Party-1 settings: 0, 1, 2 select A_{1,x}; the tilde settings select the
# rotated pair (A_{1,0} -+ A_{1,1})/sqrt(2). None means identity.
TILDE_0 = "~0"
TILDE_1 = "~1"


def ghz_state(n: int, l: int) -> StateVector:
    """GHZ-like vector (|l> + (-1)^{l_1} |lbar>)/sqrt(2) on n qubits."""
    if n < 1:
        raise ValueError("need at least one qubit")
    dim = 1 << n
    l = int(l)
    if not 0 <= l < dim:
        raise ValueError(f"label {l} out of range")
    v = np.zeros(dim, dtype=complex)
    l1 = (l >> (n - 1)) & 1
    v[l] += 1.0
    v[l ^ (dim - 1)] += (-1.0) ** l1
    return StateVector(v / np.sqrt(2.0), (2,) * n)


@dataclass(frozen=True)
class StarNetwork:
    """N sources, per-party observable triples, Eve's 2^n-outcome POVM.

    observables[i] is (A_{i,0}, A_{i,1}, A_{i,2}); the third entry may be
    None until a caller completes the strategy.
    """

    n: int
    sources: tuple[DenseOperator, ...]
    observables: tuple[tuple[Optional[np.ndarray], ...], ...]
    eve_povm: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least 2 external parties")
        if len(self.sources) != self.n or len(self.observables) != self.n:
            raise ValueError("need one source and one observable triple per party")
        if len(self.eve_povm) != 1 << self.n:
            raise ValueError("Eve's POVM must have 2^n elements")
        obs = []
        for i, triple in enumerate(self.observables):
            triple = tuple(None if m is None else np.asarray(m, dtype=complex) for m in triple)
            if len(triple) != 3:
                raise ValueError("each party carries exactly three observable slots")
            da = self.sources[i].local_dims[0]
            for x, m in enumerate(triple):
                if m is None:
                    continue
                if m.shape != (da, da):
                    raise ValidationError(f"party {i + 1} setting {x}: wrong dimension")
                linalg.require_pm1(m, f"party {i + 1} setting {x}")
            obs.append(triple)
        object.__setattr__(self, "observables", tuple(obs))
        for i, rho in enumerate(self.sources):
            if len(rho.local_dims) != 2:
                raise ValidationError(f"source {i + 1} must be bipartite")
            ev = np.linalg.eigvalsh(rho.mat)
            if ev.min() < -1e-10 or abs(np.trace(rho.mat) - 1.0) > 1e-10:
                raise ValidationError(f"source {i + 1} is not a density operator")
        de = self.eve_dim
        povm = tuple(np.asarray(r, dtype=complex) for r in self.eve_povm)
        total = sum(povm)
        if np.max(np.abs(total - np.eye(de))) > 1e-10:
            raise ValidationError("Eve POVM does not sum to the identity")
        for l, r in enumerate(povm):
            if np.linalg.eigvalsh((r + r.conj().T) / 2).min() < -1e-12:
                raise ValidationError(f"Eve POVM element {l} is not positive")
        object.__setattr__(self, "eve_povm", povm)

    @property
    def party_dims(self) -> tuple[int, ...]:
        return tuple(s.local_dims[0] for s in self.sources)

    @property
    def eve_dims(self) -> tuple[int, ...]:
        return tuple(s.local_dims[1] for s in self.sources)

    @property
    def eve_dim(self) -> int:
        return math.prod(self.eve_dims)

    def observable(self, party: int, setting) -> np.ndarray:
        """Party index 1..n; setting 0/1/2, a tilde tag (party 1) or None."""
        da = self.party_dims[party - 1]
        if setting is None:
            return np.eye(da, dtype=complex)
        triple = self.observables[party - 1]
        if setting in (TILDE_0, TILDE_1):
            if party != 1:
                raise ConfigurationError("tilde settings exist only for party 1")
            a0, a1 = triple[0], triple[1]
            if a0 is None or a1 is None:
                raise ConfigurationError("party 1 settings 0 and 1 are required")
            sign = -1.0 if setting == TILDE_0 else 1.0
            return (a0 + sign * a1) / np.sqrt(2.0)
        m = triple[int(setting)]
        if m is None:
            raise ConfigurationError(f"party {party} setting {setting} is unset")
        return m

    def with_third(self, third: Sequence[np.ndarray]) -> "StarNetwork":
        """Copy of the network with A_{i,2} replaced for every party."""
        if len(third) != self.n:
            raise ValueError("need one third observable per party")
        obs = tuple(
            (t[0], t[1], np.asarray(m, dtype=complex))
            for t, m in zip(self.observables, third)
        )
        return StarNetwork(self.n, self.sources, obs, self.eve_povm)


def ideal_network(n: int) -> StarNetwork:
    """The maximally violating strategy: phi+ sources, the rotated pair for
    party 1, Z/X for the others, GHZ-like projectors for Eve. A_{i,2} is
    left unset."""
    if n < 2:
        raise ValueError("need at least 2 external parties")
    phi_plus = ghz_state(2, 0).projector()
    s2 = np.sqrt(2.0)
    obs: list[tuple] = [((X + Z) / s2, (X - Z) / s2, None)]
    obs += [(Z.copy(), X.copy(), None)] * (n - 1)
    povm = tuple(ghz_state(n, l).projector().mat for l in range(1 << n))
    return StarNetwork(n, (phi_plus,) * n, tuple(obs), povm)


def _conditional_unnormalized(net: StarNetwork, l: int) -> np.ndarray:
    """P(l) * rho^l as a matrix on the joined A factors.

    rho~[a, a'] = sum_{e, e''} R_l[e, e''] prod_i S_i[a_i, e''_i, a'_i, e_i].

    R_l's axes are regrouped into pairs (e_1 e''_1, e_2 e''_2, ...). Each
    source in turn maps the leading pair to its (a_i a'_i) pair through the
    transfer matrix Lambda_i[(a, a'), (e, e'')] = S_i[a, e'', a', e], and
    the result is rotated to the back, so n small matmuls do the whole sum.
    """
    n = net.n
    de = net.eve_dims
    pairs = [k for i in range(n) for k in (i, n + i)]
    t = net.eve_povm[l].reshape(de + de).transpose(pairs)
    for i in range(n):
        da, dei = net.sources[i].local_dims
        lam = net.sources[i].mat.reshape(da, dei, da, dei).transpose(0, 2, 3, 1)
        # t^T @ lam^T lands the new pair at the back without a copy of t.
        t = t.reshape(dei * dei, -1).T @ lam.reshape(da * da, dei * dei).T
    # t's axes are now the pairs (a_1 a'_1, ..., a_n a'_n); split them
    # into rows a and columns a'.
    pa = net.party_dims
    t = t.reshape(tuple(d for p in pa for d in (p, p)))
    t = t.transpose([2 * i for i in range(n)] + [2 * i + 1 for i in range(n)])
    d = math.prod(pa)
    return t.reshape(d, d)


def eve_outcome_probability(net: StarNetwork, l: int) -> float:
    """P(l) = Tr[R_l (x)_i Tr_A rho_{A_i E_i}]."""
    marg = {i: linalg.partial_trace(s, keep=[1]).mat for i, s in enumerate(net.sources)}
    return float(np.real(linalg.expect_local(net.eve_povm[l], net.eve_dims, marg)))


def conditional_state(net: StarNetwork, l: int) -> DenseOperator:
    """State of the external parties given Eve's outcome l."""
    raw = _conditional_unnormalized(net, l)
    p = float(np.real(np.trace(raw)))
    if p <= CONDITIONING_THRESHOLD:
        raise DegenerateConditioningError(f"outcome {l} has probability {p:.3e}")
    return DenseOperator(raw / p, net.party_dims)


def placed_observables(net: StarNetwork, settings: Sequence) -> dict[int, np.ndarray]:
    """Factor index -> observable for each party whose setting is not None."""
    if len(settings) != net.n:
        raise ValueError("need one setting per party")
    return {i: net.observable(i + 1, s) for i, s in enumerate(settings) if s is not None}


def expectation(net: StarNetwork, settings: Sequence, l: int) -> float:
    """<A_{1,x_1} ... A_{N,x_N} R_l> = Tr[((x) A_{i,x_i}) (x) R_l rho].

    Includes the P(l) weight, matching the correlator definition
    sum_a (-1)^{sum a_i} p(a, l | x).
    """
    placed = placed_observables(net, settings)
    raw = _conditional_unnormalized(net, l)
    return float(np.real(linalg.expect_local(raw, net.party_dims, placed)))


def conditional_expectation(net: StarNetwork, settings: Sequence, l: int) -> float:
    """Correlator on the post-measurement state rho^l."""
    placed = placed_observables(net, settings)
    rho = conditional_state(net, l)
    return float(np.real(linalg.expect_local(rho.mat, net.party_dims, placed)))


@dataclass(frozen=True)
class CorrelationTable:
    """p(a, l | x) for all settings x in {0,1,2}^n, outcomes a in {0,1}^n, l.

    probs has axes (x_1, ..., x_n, a_1, ..., a_n, l).
    """

    n: int
    probs: np.ndarray

    def p(self, x: Sequence[int], a: Sequence[int], l: int) -> float:
        return float(self.probs[tuple(x) + tuple(a) + (l,)])

    def validate(self, tol_entry: float = 1e-12, tol_sum: float = 1e-10) -> None:
        if self.probs.min() < -tol_entry or self.probs.max() > 1 + tol_entry:
            raise ValidationError("probability entry out of [0, 1]")
        sums = self.probs.sum(axis=tuple(range(self.n, 2 * self.n + 1)))
        if np.max(np.abs(sums - 1.0)) > tol_sum:
            raise ValidationError("probabilities do not sum to 1 per setting")
        # No-signaling to Eve: the marginal over a must not depend on x.
        marg = self.probs.sum(axis=tuple(range(self.n, 2 * self.n)))
        flat = marg.reshape(-1, marg.shape[-1])
        if np.max(np.abs(flat - flat[0])) > tol_sum:
            raise ValidationError("Eve's marginal depends on the settings")

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(
            [f"x_{i}" for i in range(1, self.n + 1)]
            + [f"a_{i}" for i in range(1, self.n + 1)]
            + ["l", "p"]
        )
        for x in itertools.product(range(3), repeat=self.n):
            for a in itertools.product(range(2), repeat=self.n):
                for l in range(1 << self.n):
                    w.writerow(list(x) + list(a) + [l, "%.17g" % self.p(x, a, l)])
        return buf.getvalue()


def correlation_table(net: StarNetwork) -> CorrelationTable:
    n = net.n
    shape = (3,) * n + (2,) * n + (1 << n,)
    probs = np.zeros(shape)
    raws = np.stack([_conditional_unnormalized(net, l) for l in range(1 << n)])
    for x in itertools.product(range(3), repeat=n):
        effects = []
        for i, xi in enumerate(x):
            a_op = net.observable(i + 1, xi)
            eye = np.eye(a_op.shape[0], dtype=complex)
            effects.append(((eye + a_op) / 2, (eye - a_op) / 2))
        for a in itertools.product(range(2), repeat=n):
            placed = {i: effects[i][ai] for i, ai in enumerate(a)}
            probs[x + a] = np.real(linalg.expect_local(raws, net.party_dims, placed))
    return CorrelationTable(n, probs)


# --- strategy files -------------------------------------------------------


def network_to_json(net: StarNetwork) -> dict:
    def mat_json(m: np.ndarray, dims) -> dict:
        return linalg.operator_to_json(DenseOperator(m, dims))

    return {
        "n": net.n,
        "sources": [linalg.operator_to_json(s) for s in net.sources],
        "observables": [
            [None if m is None else mat_json(m, (net.party_dims[i],)) for m in triple]
            for i, triple in enumerate(net.observables)
        ],
        "eve_povm": [mat_json(r, net.eve_dims) for r in net.eve_povm],
    }


def network_from_json(d: dict) -> StarNetwork:
    sources = tuple(linalg.operator_from_json(s) for s in d["sources"])
    obs = tuple(
        tuple(None if m is None else linalg.operator_from_json(m).mat for m in triple)
        for triple in d["observables"]
    )
    povm = tuple(linalg.operator_from_json(r).mat for r in d["eve_povm"])
    return StarNetwork(int(d["n"]), sources, obs, povm)


def save_strategy(net: StarNetwork, path) -> None:
    with open(path, "w") as fh:
        json.dump(network_to_json(net), fh)


def load_strategy(path) -> StarNetwork:
    with open(path) as fh:
        return network_from_json(json.load(fh))
