"""The conditional Bell pair: the per-outcome functional I_l with its
bounds, and the rescaled Mermin part J_N evaluated at Eve's all-zero
outcome."""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .errors import ConfigurationError, InternalConsistencyError, ValidationError
from .linalg import DenseOperator, ProductSum, expect_local
from .network import (
    TILDE_0,
    TILDE_1,
    ConditionalStates,
    StarNetwork,
    conditional_state,
    conditional_states,
    placed_observables,
)
from .pauli import OutcomeLabel, PauliWord, ghz_expectation

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class TildePair:
    """The rotated party-1 pair (A_{1,0} - A_{1,1})/sqrt2, (A_{1,0} + A_{1,1})/sqrt2."""

    a_tilde_0: np.ndarray
    a_tilde_1: np.ndarray


def tilde_pair(a0: np.ndarray, a1: np.ndarray) -> TildePair:
    a0 = np.asarray(a0, dtype=complex)
    a1 = np.asarray(a1, dtype=complex)
    return TildePair((a0 - a1) / SQRT2, (a0 + a1) / SQRT2)


def validated_pairs(
    n: int, observables: Sequence[Sequence[np.ndarray]]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(A_{i,0}, A_{i,1}) for each of the n parties, each checked to be +/-1."""
    if n < 2 or len(observables) != n:
        raise ValueError("need observable pairs for n >= 2 parties")
    return [
        tuple(linalg.require_pm1(obs[x], f"A_{i + 1},{x}") for x in (0, 1))
        for i, obs in enumerate(observables)
    ]


def pair_dims(observables: Sequence[Sequence[np.ndarray]]) -> tuple[int, ...]:
    """Each party's local dimension, read from its first observable."""
    return tuple(np.shape(obs[0])[0] for obs in observables)


def I_terms(n: int, l: int, observables: Sequence[Sequence[np.ndarray]]) -> ProductSum:
    """Bell operator for outcome l as a product-sum:

    (-1)^{l_1} [ (n-1) At_{1,1} (x)_{i>=2} A_{i,1}
                 + sum_{i>=2} (-1)^{l_i} At_{1,0} (x) A_{i,0} ]

    with the identity on uninvolved factors.
    """
    pairs = validated_pairs(n, observables)
    lab = OutcomeLabel(n, l)
    tp = tilde_pair(*pairs[0])
    sign = (-1) ** lab.bit(1)
    placed = {0: tp.a_tilde_1}
    placed.update({i: pairs[i][1] for i in range(1, n)})
    op = ProductSum.product(placed, sign * (n - 1))
    for i in range(1, n):
        op = op + ProductSum.product(
            {0: tp.a_tilde_0, i: pairs[i][0]}, sign * (-1) ** lab.bit(i + 1)
        )
    return op


def build_I_operator(
    n: int, l: int, observables: Sequence[Sequence[np.ndarray]]
) -> DenseOperator:
    """`I_terms` as a dense matrix: the oracle for the factor-wise paths."""
    dims = pair_dims(observables)
    return DenseOperator(I_terms(n, l, observables).dense(dims), dims)


def _label_signs(n: int, labels: Sequence[int]) -> np.ndarray:
    """(-1)^{l_i} with axes (label, i - 1)."""
    bits = (np.asarray(labels)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return 1.0 - 2.0 * bits


def I_values(net: StarNetwork, states: ConditionalStates) -> np.ndarray:
    """<I_l> on each conditional state of `states`; 2(n-1) for the ideal
    network.

    Each term of I_l is a product of local observables, so it is evaluated
    factor by factor on all states at once; `build_I_operator` is the dense
    oracle.
    """
    n = net.n
    sign = _label_signs(n, states.labels)
    tp = tilde_pair(net.observable(1, 0), net.observable(1, 1))
    placed = {0: tp.a_tilde_1}
    placed.update({i: net.observable(i + 1, 1) for i in range(1, n)})
    value = (n - 1) * states.expect(placed)
    for i in range(1, n):
        term = states.expect({0: tp.a_tilde_0, i: net.observable(i + 1, 0)})
        value = value + sign[:, i] * term
    return sign[:, 0] * value


def I_values_from_correlators(net: StarNetwork, states: ConditionalStates) -> np.ndarray:
    """Same functional assembled from conditional correlators (cross-check path)."""
    n = net.n
    sign = _label_signs(n, states.labels)
    value = (n - 1) * _correlator(net, states, [TILDE_1] + [1] * (n - 1))
    for i in range(2, n + 1):
        settings: list = [TILDE_0] + [None] * (n - 1)
        settings[i - 1] = 0
        value = value + sign[:, i - 1] * _correlator(net, states, settings)
    return sign[:, 0] * value


def _single_outcome(net: StarNetwork, l: int) -> ConditionalStates:
    """rho^l from `conditional_state`, as a one-outcome batch."""
    rho = conditional_state(net, l)
    return ConditionalStates(net.party_dims, (l,), np.ones(1), mats=rho.mat[None])


def eval_I(net: StarNetwork, l: int) -> float:
    """`I_values` for the single outcome l."""
    return float(I_values(net, _single_outcome(net, l))[0])


def eval_I_from_correlators(net: StarNetwork, l: int) -> float:
    """`I_values_from_correlators` for the single outcome l."""
    return float(I_values_from_correlators(net, _single_outcome(net, l))[0])


def _correlator(net: StarNetwork, states: ConditionalStates, settings: Sequence) -> np.ndarray:
    """The correlator of the party settings on each conditional state."""
    return states.expect(placed_observables(net, settings))


def ideal_I_value(n: int, l: int) -> float:
    """<I_l> for the ideal strategy, via the closed-form GHZ Pauli kernel.

    The ideal tilde pair is exactly (Z, X), so the Bell operator is a sum of
    n Pauli words; this evaluates in O(n^2) bit operations at any n.
    """
    lab = OutcomeLabel(n, l)
    full = (1 << n) - 1
    value = (n - 1) * ghz_expectation(PauliWord(n, full, 0), lab)
    for i in range(2, n + 1):
        z_mask = (1 << (n - 1)) | (1 << (n - i))
        value += (-1) ** lab.bit(i) * ghz_expectation(PauliWord(n, 0, z_mask), lab)
    return float(((-1) ** lab.bit(1) * value).real)


def classical_bound_I(n: int, l: int = 0) -> dict[str, float]:
    """Max of the I_l expression over deterministic +/-1 assignments.

    The external parties factor out: for fixed party-1 signs (a0, a1) the
    product prod A_{i,1} and each A_{i,0} can be chosen to make both
    brackets positive, so the maximum over the 2^(2n) assignments equals
    max over 4 party-1 cases of (n-1)(|a0+a1| + |a0-a1|)/sqrt2. The value
    sqrt2 (n-1) is independent of l. The sqrt2 (n+1) figure sometimes
    quoted for this functional is returned alongside, never merged (it
    exceeds the quantum bound 2(n-1) for large n; consumers report both).
    """
    if n < 2:
        raise ValueError("need at least 2 parties")
    OutcomeLabel(n, l)  # range check only; the bound is l-independent
    best = 0.0
    for a0, a1 in itertools.product((1, -1), repeat=2):
        best = max(best, (n - 1) * (abs(a0 + a1) + abs(a0 - a1)) / SQRT2)
    return {"enumerated": best, "literature_claimed": SQRT2 * (n + 1)}


def classical_bound_closed_form(n: int) -> float:
    """sqrt2 (n-1): the vertex-structure value the enumeration reproduces."""
    return SQRT2 * (n - 1)


def j_correlator_settings(n: int) -> list[tuple[float, list]]:
    """The N(N-1)/2 correlators of J_N as (sign weight, per-party settings)."""
    terms: list[tuple[float, list]] = []
    for j1, j2 in itertools.combinations(range(2, n + 1), 2):
        settings: list = [TILDE_1] + [1] * (n - 1)
        settings[j1 - 1] = 2
        settings[j2 - 1] = 2
        terms.append((1.0, settings))
    for j1 in range(2, n + 1):
        settings = [2] + [1] * (n - 1)
        settings[j1 - 1] = 2
        terms.append((1.0, settings))
    return terms


def eval_J(net: StarNetwork, l: int = 0) -> float:
    """The rescaled Mermin part, evaluated only at Eve's all-zero outcome."""
    if l != 0:
        raise ValueError("J_N is defined at the all-zero outcome only")
    n = net.n
    for i in range(n):
        if net.observables[i][2] is None:
            raise ConfigurationError(f"party {i + 1} has no third observable")
    third = [t[2] for t in net.observables]
    return j_value(conditional_state(net, 0).mat, net, third)


def j_value(
    rho: np.ndarray,
    net: StarNetwork,
    third: Sequence[np.ndarray],
    open_party: Optional[int] = None,
) -> float | np.ndarray:
    """J_N on the conditional state `rho` with A_{i,2} = third[i], one
    `expect_local` call per term of `j_correlator_settings`.

    With `open_party` = i, party i's row and column axes become batch axes
    and only the terms holding party i at setting 2 are summed, giving the
    real matrix K with J = Tr(K^T A_{i,2}) + (J at A_{i,2} = 0): K[a, b] is
    the response to the matrix unit E_ab. third[i] is then not read.
    """
    n = net.n
    dims = net.party_dims
    keep = list(range(n))
    if open_party is not None:
        t = np.moveaxis(rho.reshape(dims + dims), (open_party, n + open_party), (0, 1))
        keep.remove(open_party)
        dims = tuple(dims[p] for p in keep)
        rest = math.prod(dims)
        rho = t.reshape(t.shape[:2] + (rest, rest))
    total = 0.0
    for weight, settings in j_correlator_settings(n):
        if open_party is not None and settings[open_party] != 2:
            continue
        placed = {
            k: third[p] if settings[p] == 2 else net.observable(p + 1, settings[p])
            for k, p in enumerate(keep)
        }
        total = total + weight * np.real(expect_local(rho, dims, placed))
    scale = -2.0 / (n * (n - 1))
    # The batch axes hold K^T: entry (a', a) is the coefficient of A[a, a'].
    return float(scale * total) if open_party is None else scale * total.T


def cqt_strategy(n: int) -> StarNetwork:
    """Ideal network completed with A_{i,2} = Y, attaining J_N = 1."""
    from .network import ideal_network

    net = ideal_network(n)
    return net.with_third([linalg.Y.copy() for _ in range(n)])


@dataclass(frozen=True)
class FunctionalReport:
    n: int
    values_I: dict[int, float]
    value_J: Optional[float]
    beta_C_enumerated: float
    beta_C_claimed: float
    beta_Q: float
    beta_CQT: float
    beta_RQT_bound: float
    gap_ratio: float

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "values_I": {str(l): v for l, v in sorted(self.values_I.items())},
            "value_J": self.value_J,
            "beta_C_enumerated": self.beta_C_enumerated,
            "beta_C_claimed": self.beta_C_claimed,
            "beta_Q": self.beta_Q,
            "beta_CQT": self.beta_CQT,
            "beta_RQT_bound": self.beta_RQT_bound,
            "gap_ratio": self.gap_ratio,
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(
            ["l", "value_I", "value_J", "beta_C_enumerated", "beta_C_claimed",
             "beta_Q", "beta_CQT", "beta_RQT_bound", "gap_ratio"]
        )
        scalars = [
            "" if self.value_J is None else "%.17g" % self.value_J,
            "%.17g" % self.beta_C_enumerated,
            "%.17g" % self.beta_C_claimed,
            "%.17g" % self.beta_Q,
            "%.17g" % self.beta_CQT,
            "%.17g" % self.beta_RQT_bound,
            "%.17g" % self.gap_ratio,
        ]
        for l in sorted(self.values_I):
            w.writerow([l, "%.17g" % self.values_I[l]] + scalars)
        return buf.getvalue()


def report(net: StarNetwork, with_rqt_analysis: bool = True) -> FunctionalReport:
    n = net.n
    states = conditional_states(net)
    values_I = {l: float(v) for l, v in zip(states.labels, I_values(net, states))}
    has_third = all(t[2] is not None for t in net.observables)
    value_J = eval_J(net) if has_third else None
    if value_J is not None and abs(value_J) > 1 + 1e-10:
        raise ValidationError(f"J_N = {value_J} escapes its algebraic range")
    bounds = classical_bound_I(n)
    beta_rqt = 1.0 / (n - 1)
    if with_rqt_analysis:
        from .rqt import max_j_over_t

        # The exact enumerated optimum never exceeds the 1/(n-1) bound;
        # the reported ratio divides by that certified bound by convention.
        exact = float(max_j_over_t(n).max_value)
        if exact > beta_rqt + 1e-15:
            raise InternalConsistencyError(
                f"real optimum {exact!r} exceeds the certified bound {beta_rqt!r}"
            )
    return FunctionalReport(
        n=n,
        values_I=values_I,
        value_J=value_J,
        beta_C_enumerated=bounds["enumerated"],
        beta_C_claimed=bounds["literature_claimed"],
        beta_Q=2.0 * (n - 1),
        beta_CQT=1.0,
        beta_RQT_bound=beta_rqt,
        gap_ratio=1.0 / beta_rqt,
    )
