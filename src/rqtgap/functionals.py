"""The conditional Bell pair: the per-outcome functional I_l with its
bounds, and the rescaled Mermin part J_N evaluated at Eve's all-zero
outcome."""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from . import linalg
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


def eval_I(net: StarNetwork, l: int) -> float:
    """`I_values` for the single outcome l, on the dense rho^l."""
    # rho^l stays dense, through `conditional_state`, because these tests
    # count this call or check that this module binds that function:
    # perfbench/test_perfbench.py::test_absent_function_is_reported_not_zero,
    # perfbench/test_perfbench.py::test_wrappers_cover_every_binding_and_are_removed
    # and tests/test_benchmark_targets.py::test_functionals_binds_networks_conditional_state.
    rho = conditional_state(net, l).mat
    return float(I_values(net, ConditionalStates.from_density(net.party_dims, l, rho))[0])


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


def ideal_I_value(n: int, labels):
    """<I_l> for the ideal strategy, via the closed-form GHZ Pauli kernel.

    The ideal tilde pair is exactly (Z, X), so the Bell operator is a sum of
    n Pauli words; this evaluates in O(n^2) bit operations at any n.
    `labels` is one outcome l, for a float, or an integer array of them,
    for a float array: one `ghz_expectation` call per word either way.
    """
    sign = label_signs(n, labels)
    lab = OutcomeLabel(n, labels) if np.ndim(labels) == 0 else np.asarray(labels)
    full = (1 << n) - 1
    value = (n - 1) * ghz_expectation(PauliWord(n, full, 0), lab)
    for i in range(2, n + 1):
        z_mask = (1 << (n - 1)) | (1 << (n - i))
        value = value + sign[..., i - 1] * ghz_expectation(PauliWord(n, 0, z_mask), lab)
    value = (sign[..., 0] * value).real
    return float(value) if np.ndim(labels) == 0 else value


def classical_bound_I(n: int) -> dict[str, float]:
    """Max of the I_l expression over deterministic +/-1 assignments.

    The external parties factor out: for fixed party-1 signs (a0, a1) the
    product prod A_{i,1} and each A_{i,0} can be chosen to make both
    brackets positive, so the maximum over the 2^(2n) assignments equals
    max over 4 party-1 cases of (n-1)(|a0+a1| + |a0-a1|)/sqrt2. The value
    sqrt2 (n-1) is the same for every outcome l. The sqrt2 (n+1) figure
    sometimes quoted for this functional is returned alongside, never
    merged (it exceeds the quantum bound 2(n-1) for large n).
    """
    if n < 2:
        raise ValueError("need at least 2 parties")
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


def eval_J(net: StarNetwork) -> float:
    """The rescaled Mermin part at Eve's all-zero outcome, where J_N is defined."""
    third = [net.observable(i, 2) for i in range(1, net.n + 1)]
    return float(conditional_states(net, [0]).expect(J_terms(net.n, net.pairs, third))[0])


def cqt_strategy(n: int) -> StarNetwork:
    """Ideal network completed with A_{i,2} = Y, attaining J_N = 1."""
    from .network import ideal_network

    net = ideal_network(n)
    return net.with_third([linalg.Y.copy() for _ in range(n)])
