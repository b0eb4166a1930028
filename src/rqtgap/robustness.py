"""Sum-of-squares certificates and the closed-form noisy bounds.

Both SOS identities are operator identities for arbitrary +/-1
observables (the algebra was verified by hand), the second with the
double sum over distinct source pairs read as unordered pairs. Each is
checked as the Frobenius norm of LHS - RHS on stacked terms, and
`rqtgap verify` fails when either norm exceeds 1e-9.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from . import linalg
from .errors import InternalConsistencyError
from .functionals import I_terms, I_values, pair_dims, validated_pairs
from .linalg import DenseOperator, ProductSum, TermStack
from .network import EveMeasurement, StarNetwork, conditional_states, ideal_network, tilde_pair
from .pauli import OutcomeLabel
from .rqt import SeesawResult, seesaw_real


def sos_terms_A(n: int, l: int, pairs: Sequence[tuple[np.ndarray, np.ndarray]]) -> dict:
    """Squared-term generators of the first decomposition, as product-sums:

    2 (beta_Q 1 - I_l) = (n-1) P_1^2 + sum_{i>=2} P_i^2,

    with P_1 = 1 - (first term of I_l)/(n-1) and P_i = 1 - (term i of I_l).
    `pairs` as returned by `validated_pairs`.
    """
    one = ProductSum.product({})
    (c, placed), *rest = I_terms(n, l, pairs).terms
    terms = {"P_1": one - ProductSum.product(placed, c / (n - 1))}
    for i, term in enumerate(rest, start=2):
        terms[f"P_{i}"] = one - ProductSum((term,))
    return terms


def sos_terms_B(n: int, l: int, pairs: Sequence[tuple[np.ndarray, np.ndarray]]) -> dict:
    """Squared-term generators of the second decomposition, as product-sums:

    2 beta_Q J_l = J_l^2 + sum_{i<j} Q_{i,j}^2 + (n-1) sum_j T_j^2,

    with J_l = beta_Q 1 - I_l and Q_{i,j} = (-1)^{l_1} (term i - term j of
    I_l). `pairs` as returned by `validated_pairs`.
    """
    lab = OutcomeLabel(n, l)
    at0, at1 = tilde_pair(*pairs[0])
    i_op = I_terms(n, l, pairs)
    beta_q = 2.0 * (n - 1)
    terms = {"J_l": beta_q * ProductSum.product({}) - i_op}
    parts = [ProductSum((term,)) for term in i_op.terms[1:]]
    for (i, p), (j, q) in itertools.combinations(enumerate(parts, start=2), 2):
        terms[f"Q_{i},{j}"] = (-1) ** lab.bit(1) * (p - q)
    for j in range(2, n + 1):
        placed = {0: at1, j - 1: pairs[j - 1][0]}
        placed.update({i - 1: pairs[i - 1][1] for i in range(2, n + 1) if i != j})
        terms[f"T_{j}"] = ProductSum.product(placed) + ProductSum.product(
            {0: at0, j - 1: pairs[j - 1][1]}, (-1) ** lab.bit(j)
        )
    return terms


def _sos_residual(lhs: ProductSum, terms: dict, weights: dict, dims) -> float:
    """||lhs - sum_g weights.get(g, 1) terms[g]^2||_F on stacked terms.

    Generators with the same number of terms are stacked together and
    squared by `TermStack.squares`; the LHS and every weighted square are
    joined into one `TermStack`, whose norm is one gemm.
    """
    families: dict[int, list[str]] = {}
    for name, term in terms.items():
        families.setdefault(len(term.terms), []).append(name)
    parts = [lhs.stacked(dims)]
    for names in families.values():
        stack = ProductSum(tuple(t for name in names for t in terms[name].terms)).stacked(dims)
        parts.append(stack.squares([-weights.get(name, 1.0) for name in names]))
    return TermStack.concat(parts).frobenius_norm()


def verify_sos_identity_A(
    n: int, l: int, observables: Sequence[Sequence[np.ndarray]]
) -> float:
    """Frobenius norm of 2(beta_Q 1 - I_l) - [(n-1) P_1^2 + sum P_i^2]."""
    pairs = validated_pairs(n, observables)
    beta_q = 2.0 * (n - 1)
    lhs = 2.0 * (beta_q * ProductSum.product({}) - I_terms(n, l, pairs))
    return _sos_residual(lhs, sos_terms_A(n, l, pairs), {"P_1": n - 1}, pair_dims(pairs))


def verify_sos_identity_B(
    n: int, l: int, observables: Sequence[Sequence[np.ndarray]]
) -> float:
    """Frobenius norm of 2 beta_Q J_l - [J_l^2 + sum Q^2 + (n-1) sum T^2]."""
    pairs = validated_pairs(n, observables)
    terms = sos_terms_B(n, l, pairs)
    beta_q = 2.0 * (n - 1)
    lhs = 2.0 * beta_q * terms["J_l"]
    weights = {f"T_{j}": n - 1 for j in range(2, n + 1)}
    return _sos_residual(lhs, terms, weights, pair_dims(pairs))


def residual_norms(net: StarNetwork, l: int) -> dict:
    """SOS term norms on the conditional state, against their proven bounds.

    ||P |psi_l>|| is computed as sqrt(Tr(P^dag P rho^l)), which equals the
    norm on any purification of rho^l.
    """
    n = net.n
    pairs = net.pairs
    states = conditional_states(net, [l])
    eps = 2.0 * (n - 1) - float(I_values(net, states)[0])
    if eps < -1e-8:
        raise InternalConsistencyError(f"value above the quantum bound by {-eps:.3e}")
    eps_pos = max(eps, 0.0)
    bounds = {}
    for name, term in {**sos_terms_A(n, l, pairs), **sos_terms_B(n, l, pairs)}.items():
        if name == "P_1":
            bound = math.sqrt(2.0 * eps_pos / (n - 1))
        elif name.startswith("P_"):
            bound = math.sqrt(2.0 * eps_pos)
        elif name.startswith("T_"):
            bound = 2.0 * math.sqrt(eps_pos)
        elif name.startswith("Q_") or name == "J_l":
            bound = 2.0 * math.sqrt((n - 1) * eps_pos)
        else:
            continue
        norm = math.sqrt(max(0.0, float(states.expect(term.adjoint() @ term)[0])))
        bounds[name] = {"norm": norm, "bound": bound, "ok": norm <= bound + 1e-7}
    return {"epsilon_attained": eps, "terms": bounds}


# --- closed-form noisy bounds --------------------------------------------


def delta_n(n: int) -> float:
    """16(n-1) + 2n(n-1) [sqrt2 + 1 + sqrt(1/(n-1))]."""
    if n < 2:
        raise ValueError("need n >= 2")
    return 16.0 * (n - 1) + 2.0 * n * (n - 1) * (
        math.sqrt(2.0) + 1.0 + math.sqrt(1.0 / (n - 1))
    )


def f_n(n: int) -> float:
    """Prefactor of sqrt(2 eps) in the noisy RQT bound."""
    if n < 2:
        raise ValueError("need n >= 2")
    c = math.sqrt(2.0) + 1.0 + math.sqrt(1.0 / (n - 1))
    d = delta_n(n) + math.sqrt(2.0 * (n - 1))
    return (8.0 + (n - 3) * c) + 2.0 * d + (n * n / 2.0) * d * d


def beta_rqt_upper(n: int, eps: float) -> float:
    """1/(n-1) + f(n) sqrt(2 eps) + 2^n eps."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return 1.0 / (n - 1) + f_n(n) * math.sqrt(2.0 * eps) + (2.0**n) * eps


def epsilon_threshold(n: int, target: float) -> float:
    """The eps >= 0 at which the noisy RQT bound reaches `target`.

    Quadratic in sqrt(eps); the positive root is returned and round-trips
    through beta_rqt_upper.
    """
    base = 1.0 / (n - 1)
    if target <= base:
        raise ValueError(f"target must exceed 1/(n-1) = {base}")
    c = target - base
    a = 2.0**n
    b = f_n(n) * math.sqrt(2.0)
    disc = b * b + 4.0 * a * c
    if not math.isfinite(disc):
        raise OverflowError(f"epsilon_threshold overflows double precision at n = {n}")
    # Rationalized positive root: avoids the cancellation in -b + sqrt(...).
    u = 2.0 * c / (b + math.sqrt(disc))
    return u * u


# --- noise models ---------------------------------------------------------

NOISE_MODELS = ("depolarize_sources", "rotate_observables", "mix_povm")


def apply_noise(net: StarNetwork, model: str, strength: float) -> StarNetwork:
    if model == "depolarize_sources":
        sources = tuple(
            DenseOperator(
                (1.0 - strength) * s.mat + strength * np.eye(s.dim) / s.dim,
                s.local_dims,
            )
            for s in net.sources
        )
        return StarNetwork(net.n, sources, net.observables, net.eve)
    if model == "rotate_observables":
        c, s = math.cos(strength), math.sin(strength)
        obs = [net.observables[0]]
        for triple in net.observables[1:]:
            # A rotation of the first two basis directions, identity elsewhere.
            rot = np.eye(triple[1].shape[0])
            rot[:2, :2] = [[c, -s], [s, c]]
            a1 = rot @ triple[1] @ rot.T
            obs.append((triple[0], a1, triple[2]))
        return StarNetwork(net.n, net.sources, tuple(obs), net.eve)
    if model == "mix_povm":
        # (1 - s) V_l V_l^dag + (s / 2^n) 1, factored as [sqrt(1 - s) V_l, sqrt(s / 2^n) 1].
        v = net.eve.factors
        d, count, _ = v.shape
        fill = np.broadcast_to(np.sqrt(strength / count) * np.eye(d)[:, None, :], (d, count, d))
        factors = np.concatenate([np.sqrt(1.0 - strength) * v, fill], axis=2)
        return StarNetwork(net.n, net.sources, net.observables, EveMeasurement(factors))
    raise ValueError(f"unknown noise model {model!r}; pick one of {NOISE_MODELS}")


def perturbation_experiment(
    n: int, noise_model: str, strength: float, seed: int, restarts: int = 10
) -> dict:
    """Full noisy pipeline: build the perturbed network, record the attained
    deviation from the quantum bound, Eve uniformity, the best real J_N the
    seesaw finds, and the closed-form bound at the attained deviation."""
    net = apply_noise(ideal_network(n), noise_model, strength)
    states = conditional_states(net)
    eps_per_l = [float(v) for v in 2.0 * (n - 1) - I_values(net, states)]
    eps_max = max(max(eps_per_l), 0.0)
    pbar_dev = float(np.max(np.abs(states.probs - 1.0 / (1 << n))))
    see: SeesawResult = seesaw_real(net, restarts=restarts, seed=seed)
    within_budget = eps_max >= 0 and pbar_dev <= eps_max + 1e-12
    bound = beta_rqt_upper(n, eps_max)
    record = {
        "n": n,
        "model": noise_model,
        "strength": strength,
        "seed": seed,
        "rng": linalg.RNG_NAME,
        "eps_per_l": eps_per_l,
        "eps_max": eps_max,
        "pbar_max_deviation": pbar_dev,
        "best_J": see.best_J,
        "beta_rqt_upper": bound,
        "bound_holds": see.best_J <= bound + 1e-9,
    }
    if within_budget and not record["bound_holds"]:
        raise InternalConsistencyError("noisy J_N exceeds the closed-form bound")
    return record
