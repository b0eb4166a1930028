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
from .errors import InternalConsistencyError, ValidationError
from .linalg import DenseOperator, ProductSum
from .network import (
    TILDE_0,
    TILDE_1,
    ConditionalStates,
    StarNetwork,
    conditional_state,
    conditional_states,
    settings_product,
    tilde_pair,
)
from .pauli import OutcomeLabel, PauliWord, ghz_expectation

SQRT2 = math.sqrt(2.0)


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
    return tuple(np.shape(obs[0])[-1] for obs in observables)


def label_signs(n: int, labels) -> np.ndarray:
    """(-1)^{l_i} with axes (label..., i - 1); `labels` an int or a sequence."""
    labels = np.asarray(labels)
    if np.any((labels < 0) | (labels >= 1 << n)):
        raise ValueError(f"label out of range for n={n}")
    bits = (labels[..., None] >> np.arange(n - 1, -1, -1)) & 1
    return 1.0 - 2.0 * bits


def I_terms(n: int, labels, pairs: Sequence[tuple[np.ndarray, np.ndarray]]) -> ProductSum:
    """Bell operator for outcome l as a product-sum of n terms:

    (-1)^{l_1} [ (n-1) At_{1,1} (x)_{i>=2} A_{i,1}
                 + sum_{i>=2} (-1)^{l_i} At_{1,0} (x) A_{i,0} ]

    with the identity on uninvolved factors. `labels` is one outcome l
    (scalar coefficients) or a sequence of them (coefficients are arrays
    over the labels). `pairs` as returned by `validated_pairs`.
    """
    sign = label_signs(n, labels)
    at0, at1 = tilde_pair(*pairs[0])
    placed = {0: at1}
    placed.update({i: pairs[i][1] for i in range(1, n)})
    terms = [((n - 1) * sign[..., 0], placed)]
    for i in range(1, n):
        terms.append((sign[..., 0] * sign[..., i], {0: at0, i: pairs[i][0]}))
    return ProductSum(tuple(terms))


def build_I_operator(
    n: int, l: int, observables: Sequence[Sequence[np.ndarray]]
) -> DenseOperator:
    """`I_terms` as a dense matrix: the oracle for the factor-wise paths."""
    dims = pair_dims(observables)
    return DenseOperator(I_terms(n, l, validated_pairs(n, observables)).dense(dims), dims)


def I_values(net: StarNetwork, states: ConditionalStates) -> np.ndarray:
    """<I_l> on each conditional state of `states`; 2(n-1) for the ideal
    network. `build_I_operator` is the dense oracle."""
    return states.expect(I_terms(net.n, states.labels, net.pairs))


def _single_outcome(net: StarNetwork, l: int) -> ConditionalStates:
    """rho^l from `conditional_state`, as a one-outcome pair array."""
    return ConditionalStates.from_density(net.party_dims, l, conditional_state(net, l).mat)


def eval_I(net: StarNetwork, l: int) -> float:
    """`I_values` for the single outcome l."""
    return float(I_values(net, _single_outcome(net, l))[0])


def eval_I_from_correlators(net: StarNetwork, l: int) -> float:
    """I_l as the sign-weighted sum of n party-setting correlators, each a
    `settings_product` on one rho^l, as in `conditional_expectation`
    (cross-check of `eval_I`)."""
    n = net.n
    sign = label_signs(n, l)
    states = conditional_states(net, [l])
    settings = [[TILDE_1] + [1] * (n - 1)]
    settings += [[TILDE_0] + [None] * (i - 1) + [0] + [None] * (n - 1 - i) for i in range(1, n)]
    weights = [n - 1, *sign[1:]]
    value = sum(w * states.expect(settings_product(net, s))[0] for w, s in zip(weights, settings))
    return float(sign[0] * value)


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


def J_fixed_factors(pairs: Sequence) -> list[np.ndarray]:
    """O_1 = At_{1,1} and O_m = A_{m,1}: each party's factor in the terms
    of J_N where it does not hold its third observable."""
    return [tilde_pair(*pairs[0])[1]] + [p[1] for p in pairs[1:]]


def J_weight(n: int) -> float:
    """The coefficient -2/(N(N-1)) of every term of J_N."""
    return -2.0 / (n * (n - 1))


def J_terms(n: int, pairs: Sequence, third: Sequence) -> ProductSum:
    """J_N with A_{i,2} = third[i] as a product-sum of N(N-1)/2 terms:

    -2/(N(N-1)) [ sum_{2<=j<k} At_{1,1} A_{j,2} A_{k,2}
                  + sum_{j>=2} A_{1,2} A_{j,2} ],

    every other party at A_{i,1}: the degree-2 elementary symmetric sum
    over parties of "third here, `J_fixed_factors` elsewhere".
    """
    ones = dict(enumerate(J_fixed_factors(pairs)))
    terms = []
    for held in [*itertools.combinations(range(1, n), 2), *((0, j) for j in range(1, n))]:
        terms.append((J_weight(n), {**ones, **{i: third[i] for i in held}}))
    return ProductSum(tuple(terms))


def eval_J(net: StarNetwork, l: int = 0) -> float:
    """The rescaled Mermin part, evaluated only at Eve's all-zero outcome."""
    if l != 0:
        raise ValueError("J_N is defined at the all-zero outcome only")
    third = [net.observable(i, 2) for i in range(1, net.n + 1)]
    return float(_single_outcome(net, 0).expect(J_terms(net.n, net.pairs, third))[0])


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
