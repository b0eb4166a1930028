"""Sum-of-squares certificates and the closed-form noisy bounds.

Both SOS identities are operator identities for arbitrary +/-1
observables (the algebra was verified by hand), the second with the
double sum over distinct source pairs read as unordered pairs. Every
generator is a coefficient row over one collected basis of products:
b_0 = 1, b_1..b_n the terms of I_l without their signs, and the two
products of each T_j. LHS - RHS is then one coefficient array over the
pair products b_s b_t, expanded bilinearly, so A^2 = 1 is never used.
Its Frobenius norm is taken on stacked terms, and `rqtgap verify` fails
when either norm exceeds 1e-9.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .errors import InternalConsistencyError
from .functionals import I_terms, I_values, label_signs, pair_dims, validated_pairs
from .linalg import DenseOperator
from .network import EveMeasurement, StarNetwork, conditional_states, ideal_network, tilde_pair
from .rqt import SeesawResult, seesaw_real


def _sos_basis(n: int, labels, pairs) -> tuple:
    """The products every SOS generator combines: b_0 = 1, b_1..b_n the
    terms of I_l without their signs, in `I_terms`' order, then X_j for
    j = 2..n and Y_j for j = 2..n, the two products of T_j.

    Every product places, on party i, the identity or one of two matrices:
    (At_{1,0}, At_{1,1}) on party 1 and (A_{i,0}, A_{i,1}) on the others.
    The basis is returned as those matrices, `mats`, and an integer array
    `codes` with one row per product and one column per party: 0 for the
    identity, x + 1 for the matrix of setting x. Then J_l = beta_Q 1 - I_l
    as a coefficient row over the products (labels' shape plus one axis).
    """
    i_op = I_terms(n, labels, pairs)
    mats = [tilde_pair(*pairs[0]), *pairs[1:]]
    codes = np.zeros((3 * n - 1, n), dtype=int)
    codes[1] = 2  # At_{1,1} (x)_{i>=2} A_{i,1}
    for j in range(1, n):
        codes[1 + j, [0, j]] = 1  # At_{1,0} A_{j+1,0}
        codes[n + j] = codes[1]
        codes[n + j, j] = 1  # X_{j+1}: A_{j+1,0} in the first term
        codes[2 * n - 1 + j, [0, j]] = 1, 2  # Y_{j+1} = At_{1,0} A_{j+1,1}
    j_row = np.zeros(np.shape(labels) + (len(codes),))
    j_row[..., 0] = 2.0 * (n - 1)
    for k, (c, _) in enumerate(i_op.terms, start=1):
        j_row[..., k] = -c
    return (mats, codes), j_row


def sos_terms_A(n: int, labels, j_row: np.ndarray) -> tuple:
    """The first decomposition,

    2 (beta_Q 1 - I_l) = (n-1) P_1^2 + sum_{i>=2} P_i^2,

    with P_1 = 1 - (first term of I_l)/(n-1) and P_i = 1 - (term i of I_l).
    `labels` is one outcome l or a sequence, and `j_row` J_l's row over
    the basis of `_sos_basis`. Returns (rows, weights, lhs): each
    generator G_g and the LHS as coefficient rows over that basis, and
    G_g's weight if not 1.
    """
    rows = {}
    for k in range(1, n + 1):
        rows[f"P_{k}"] = row = np.zeros_like(j_row)
        row[..., 0] = 1.0
        row[..., k] = j_row[..., k] / (n - 1) if k == 1 else j_row[..., k]
    return rows, {"P_1": n - 1}, 2.0 * j_row


def sos_terms_B(n: int, labels, j_row: np.ndarray) -> tuple:
    """The second decomposition,

    2 beta_Q J_l = J_l^2 + sum_{i<j} Q_{i,j}^2 + (n-1) sum_j T_j^2,

    with J_l = beta_Q 1 - I_l, Q_{i,j} = (-1)^{l_1} (term i - term j of
    I_l) and T_j = X_j + (-1)^{l_j} Y_j. As `sos_terms_A`.
    """
    sign = label_signs(n, labels)
    rows = {"J_l": j_row}
    for i, j in itertools.combinations(range(2, n + 1), 2):
        rows[f"Q_{i},{j}"] = row = np.zeros_like(j_row)
        row[..., i] = -sign[..., 0] * j_row[..., i]
        row[..., j] = sign[..., 0] * j_row[..., j]
    for j in range(2, n + 1):
        rows[f"T_{j}"] = row = np.zeros_like(j_row)
        row[..., n + j - 1] = 1.0
        row[..., 2 * n + j - 2] = sign[..., j - 1]
    return rows, {f"T_{j}": n - 1 for j in range(2, n + 1)}, 4.0 * (n - 1) * j_row


@dataclass(frozen=True)
class SOSInputs:
    """What both SOS identities read for the same inputs, built once by
    `sos_inputs`: the basis codes and J_l's row of `_sos_basis`, and per
    party the (B, 3, 3, d, d) table of the products of its identity and
    two matrices, for the B inputs."""

    n: int
    labels: object
    codes: np.ndarray
    j_row: np.ndarray
    tables: tuple[np.ndarray, ...]


def sos_inputs(n: int, labels, pairs: Sequence[tuple[np.ndarray, np.ndarray]]) -> SOSInputs:
    """`SOSInputs` for outcome(s) `labels` on pairs that `validated_pairs`
    already checked, each matrix one (d, d) or stacked along the labels'
    axis."""
    (mats, codes), j_row = _sos_basis(n, labels, pairs)
    tables = []
    for i, d in enumerate(pair_dims(pairs)):
        shape = np.shape(labels) + (d, d)
        m = np.stack([np.broadcast_to(a, shape) for a in (np.eye(d), *mats[i])], axis=-3)
        m = m.reshape(-1, 3, d, d)
        tables.append(m[:, :, None] @ m[:, None])
    return SOSInputs(n, labels, codes, j_row, tuple(tables))


def sos_residuals(terms, inputs: SOSInputs):
    """||lhs - sum_g w_g G_g^2||_F of the identity `terms` (`sos_terms_A`
    or `sos_terms_B`) for each input of `inputs`, as the norm of the
    bilinear expansion sum_{s,t} C[s, t] b_s b_t with

    C = e_0 lhs^T - sum_g w_g v_g v_g^T,   v_g = rows[g];

    b_t b_0 = b_t is folded into row 0, and pairs whose coefficient is 0 on
    every input are dropped. On each party the products b_s b_t take one
    of the 3 x 3 products of its identity and two matrices: each pair's
    factor is gathered from the party's table by the two codes. The norms
    of all inputs are one `linalg.frobenius_norm`."""
    rows, weights, lhs = terms(inputs.n, inputs.labels, inputs.j_row)
    v = np.stack(list(rows.values()), axis=-2)
    w = np.array([weights.get(g, 1.0) for g in rows])
    coeff = -(v.swapaxes(-1, -2) @ (w[:, None] * v))
    coeff[..., 0, :] += lhs
    coeff[..., 0, 1:] += coeff[..., 1:, 0]
    coeff[..., 1:, 0] = 0.0
    coeff = coeff.reshape((-1,) + coeff.shape[-2:])
    s, t = np.nonzero(np.any(coeff != 0, axis=0))
    codes = inputs.codes
    factors = tuple(table[:, codes[s, i], codes[t, i]] for i, table in enumerate(inputs.tables))
    norms = linalg.frobenius_norm(coeff[:, s, t], factors)
    return float(norms[0]) if np.ndim(inputs.labels) == 0 else norms


def verify_sos_identity_A(n: int, labels, observables: Sequence[Sequence[np.ndarray]]):
    """Frobenius norm of 2(beta_Q 1 - I_l) - [(n-1) P_1^2 + sum P_i^2].

    For one outcome l, with one matrix per observables[i][x], a float; for
    a sequence of B labels, with each observables[i][x] a (B, d_i, d_i)
    stack, one norm per input in an array.
    """
    return sos_residuals(sos_terms_A, sos_inputs(n, labels, validated_pairs(n, observables)))


def verify_sos_identity_B(n: int, labels, observables: Sequence[Sequence[np.ndarray]]):
    """Frobenius norm of 2 beta_Q J_l - [J_l^2 + sum Q^2 + (n-1) sum T^2];
    arguments and result as for `verify_sos_identity_A`."""
    return sos_residuals(sos_terms_B, sos_inputs(n, labels, validated_pairs(n, observables)))


def residual_norms(net: StarNetwork, l: int) -> dict:
    """SOS term norms on the conditional state, against their proven bounds.

    ||G |psi_l>|| is computed as ||G X||_F with rho^l = X X^dag
    (`ConditionalStates.columns`), which equals the norm on any
    purification of rho^l. Each product of `_sos_basis` is applied to
    the columns once, by `apply_local`, and G X is G's coefficient row
    times the stacked images.
    """
    n = net.n
    pairs = net.pairs
    states = conditional_states(net, [l])
    eps = 2.0 * (n - 1) - float(I_values(net, states)[0])
    if eps < -1e-8:
        raise InternalConsistencyError(f"value above the quantum bound by {-eps:.3e}")
    eps_pos = max(eps, 0.0)
    (mats, codes), j_row = _sos_basis(n, l, pairs)
    rows = {**sos_terms_A(n, l, j_row)[0], **sos_terms_B(n, l, j_row)[0]}
    columns = states.columns(0)
    placed = [{i: mats[i][x - 1] for i, x in enumerate(row) if x} for row in codes]
    images = np.stack([linalg.apply_local(columns, net.party_dims, p) for p in placed])
    norms = np.linalg.norm(np.array(list(rows.values())) @ images.reshape(len(codes), -1), axis=1)
    bounds = {}
    for name, norm in zip(rows, norms.tolist()):
        if name == "P_1":
            bound = math.sqrt(2.0 * eps_pos / (n - 1))
        elif name.startswith("P_"):
            bound = math.sqrt(2.0 * eps_pos)
        elif name.startswith("T_"):
            bound = 2.0 * math.sqrt(eps_pos)
        else:  # J_l and the Q_{i,j}
            bound = 2.0 * math.sqrt((n - 1) * eps_pos)
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
        # (1 - s) R_l + (s / 2^n) 1 over the 2^n outcomes: the factors
        # sqrt(1 - s) V_l and the floor (1 - s) mu_l + s / 2^n, so that the
        # white noise adds no columns and pure sources keep the vector path.
        eve = net.eve
        floor = np.full(len(eve), strength / len(eve))
        if eve.floor is not None:
            floor += (1.0 - strength) * eve.floor
        eve = EveMeasurement(np.sqrt(1.0 - strength) * eve.factors, floor)
        return StarNetwork(net.n, net.sources, net.observables, eve)
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
