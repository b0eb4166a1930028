"""The star-network scenario: sources, observables, Eve's measurement.

Global state order is A_1 E_1 A_2 E_2 ... ; Eve's POVM acts on the joined
E factors in the order E_1 ... E_N. Eve's measurement is held as factors
R_l = V_l V_l^dag (`EveMeasurement`, the only form `StarNetwork` takes):
the ideal network's, like any rank-1 projective measurement, is one
2^n x 2^n unitary, and dense elements are factored once, by
`EveMeasurement.from_elements`. Conditional states never materialize the
joint density matrix, and follow `linalg`'s one layout rule. When every
source is pure and Eve's factors have fewer columns than the party
dimension, one `apply_local` of the source matrices on conj(V) gives the
vectors of all outcomes at once (axes a, l, c). Otherwise the
density-matrix kernel gives each outcome's matrix as a row of pairs
(a_1 a'_1, ..., a_n a'_n). An operator, held as a `ProductSum`, meets
either form in `ConditionalStates.expect`, through `apply_local`: each
term applied to the vectors, or traced on the pairs. The seesaw and
`robustness.residual_norms` take rho^l as columns instead
(`ConditionalStates.columns`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .errors import ConfigurationError, DegenerateConditioningError, ValidationError
from .linalg import DenseOperator, ProductSum, StateVector, X, Z

CONDITIONING_THRESHOLD = 1e-14

# A source or POVM element is factored over the eigenvalues above this
# fraction of its largest one; the rest are rounding noise.
RANK_CUTOFF = 1e-14

# Entries per label slice of pair rows that `ConditionalStates.expect`
# traces at once: a trace's first factor leaves a quarter of its slice
# (qubits). `verify --n 9 --strategy` on a depolarized network peaks at
# 2,117 MB in slices, 2,746 MB in one. It also bounds the blocks that one
# batch of seesaw restarts holds (`rqt.seesaw_real`).
MIXED_BATCH_ENTRIES = 2**20

# Party-1 settings: 0, 1, 2 select A_{1,x}; the tilde settings select the
# rotated pair `tilde_pair`. None means identity.
TILDE_0 = "~0"
TILDE_1 = "~1"


def tilde_pair(a0: np.ndarray, a1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Party 1's rotated pair (A_{1,0} - A_{1,1})/sqrt2, (A_{1,0} + A_{1,1})/sqrt2."""
    return (a0 - a1) / math.sqrt(2.0), (a0 + a1) / math.sqrt(2.0)


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


def ghz_basis(n: int) -> np.ndarray:
    """The unitary whose column l is ghz_state(n, l), built by index
    arithmetic rather than 2^n `StateVector`s."""
    if n < 1:
        raise ValueError("need at least one qubit")
    dim = 1 << n
    l = np.arange(dim)
    v = np.zeros((dim, dim), dtype=complex)
    v[l, l] += 1.0
    v[l ^ (dim - 1), l] += (-1.0) ** ((l >> (n - 1)) & 1)
    v /= np.sqrt(2.0)
    return v


@dataclass(frozen=True)
class EveMeasurement:
    """Eve's POVM {R_l}, held as factors R_l = V_l V_l^dag.

    `factors` has axes (e, l, c): V_l = factors[:, l, :], padded with zero
    columns up to the largest rank. For a rank-1 projective measurement,
    factors[:, :, 0] is one unitary whose columns are the measurement
    vectors. Completeness, sum_l V_l V_l^dag = 1, is checked once, through
    the stacked factors (a real product when they are entrywise real);
    positivity holds by construction.
    """

    factors: np.ndarray

    def __post_init__(self):
        v = np.array(self.factors, dtype=complex)
        v.setflags(write=False)
        object.__setattr__(self, "factors", v)
        if v.ndim != 3:
            raise ValueError("factors need axes (e, l, c)")
        if not np.all(np.isfinite(v)):
            raise ValidationError("Eve's factors are not all finite")
        flat = v.reshape(v.shape[0], -1)
        # Huge finite factors overflow here; the deviation is then inf or
        # NaN, and the test below, written so that NaN fails too, rejects it.
        with np.errstate(all="ignore"):
            if flat.imag.any():
                gram = flat @ flat.conj().T
            else:
                # Entrywise-real factors, as the ideal network's: a contiguous
                # real copy lets the product run as one real syrk.
                re = np.ascontiguousarray(flat.real)
                gram = re @ re.T
            dev = np.max(np.abs(gram - np.eye(v.shape[0])))
        if not dev <= 1e-10:
            raise ValidationError("Eve POVM does not sum to the identity")

    @classmethod
    def from_factors(cls, factors: Sequence[np.ndarray]) -> "EveMeasurement":
        """Stack per-outcome factors V_l, each d_E x k_l with any k_l >= 0."""
        factors = [np.asarray(f, dtype=complex) for f in factors]
        if not factors or any(f.ndim != 2 or f.shape[0] != factors[0].shape[0] for f in factors):
            raise ValueError("Eve's factors need one common number of rows")
        v = np.zeros((factors[0].shape[0], len(factors), max(1, *(f.shape[1] for f in factors))),
                     dtype=complex)
        for l, f in enumerate(factors):
            v[:, l, : f.shape[1]] = f
        return cls(v)

    @classmethod
    def from_elements(cls, elements: Sequence[np.ndarray]) -> "EveMeasurement":
        """Factor dense POVM elements by `eigh`, one per element."""
        factors = []
        for l, r in enumerate(elements):
            r = np.asarray(r, dtype=complex)
            w, q = np.linalg.eigh((r + r.conj().T) / 2)
            if w[0] < -1e-12:
                raise ValidationError(f"Eve POVM element {l} is not positive")
            keep = w > RANK_CUTOFF * w[-1]
            factors.append(q[:, keep] * np.sqrt(w[keep]))
        return cls.from_factors(factors)

    def __len__(self) -> int:
        return self.factors.shape[1]

    @property
    def dim(self) -> int:
        return self.factors.shape[0]

    def element(self, l: int) -> np.ndarray:
        """The dense element R_l."""
        v = self.factors[:, l, :]
        return v @ v.conj().T


@dataclass(frozen=True)
class StarNetwork:
    """N sources, per-party observable triples, Eve's 2^n-outcome POVM.

    observables[i] is (A_{i,0}, A_{i,1}, A_{i,2}); the third entry may be
    None until a caller completes the strategy. Dense POVM elements enter
    through `EveMeasurement.from_elements`. `source_vectors` holds each
    source as a d_A x d_E matrix S_i with rho_i = |S_i>><<S_i| when every
    source is pure, else None.
    """

    n: int
    sources: tuple[DenseOperator, ...]
    observables: tuple[tuple[Optional[np.ndarray], ...], ...]
    eve: EveMeasurement
    source_vectors: Optional[tuple[np.ndarray, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least 2 external parties")
        if len(self.sources) != self.n or len(self.observables) != self.n:
            raise ValueError("need one source and one observable triple per party")
        if not isinstance(self.eve, EveMeasurement):
            raise TypeError("eve must be an EveMeasurement")
        if len(self.eve) != 1 << self.n:
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
        vectors = []
        for i, rho in enumerate(self.sources):
            if len(rho.local_dims) != 2:
                raise ValidationError(f"source {i + 1} must be bipartite")
            w, q = np.linalg.eigh(rho.mat)
            if w[0] < -1e-10 or abs(np.trace(rho.mat) - 1.0) > 1e-10:
                raise ValidationError(f"source {i + 1} is not a density operator")
            if np.count_nonzero(w > RANK_CUTOFF * w[-1]) == 1:
                vectors.append((q[:, -1] * np.sqrt(w[-1])).reshape(rho.local_dims))
        pure = len(vectors) == self.n
        object.__setattr__(self, "source_vectors", tuple(vectors) if pure else None)
        if self.eve.dim != self.eve_dim:
            raise ValidationError("Eve's POVM does not act on the joined E factors")

    @property
    def party_dims(self) -> tuple[int, ...]:
        return tuple(s.local_dims[0] for s in self.sources)

    @property
    def eve_dims(self) -> tuple[int, ...]:
        return tuple(s.local_dims[1] for s in self.sources)

    @property
    def eve_dim(self) -> int:
        return math.prod(self.eve_dims)

    @property
    def pairs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(A_{i,0}, A_{i,1}) for each party; ConfigurationError if one is unset."""
        return [(self.observable(i, 0), self.observable(i, 1)) for i in range(1, self.n + 1)]

    def observable(self, party: int, setting) -> np.ndarray:
        """Party index 1..n; setting 0/1/2, a tilde tag (party 1) or None."""
        da = self.party_dims[party - 1]
        if setting is None:
            return np.eye(da, dtype=complex)
        triple = self.observables[party - 1]
        if setting in (TILDE_0, TILDE_1):
            if party != 1:
                raise ConfigurationError("tilde settings exist only for party 1")
            if triple[0] is None or triple[1] is None:
                raise ConfigurationError("party 1 settings 0 and 1 are required")
            return tilde_pair(triple[0], triple[1])[setting == TILDE_1]
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
        return StarNetwork(self.n, self.sources, obs, self.eve)


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
    eve = EveMeasurement(ghz_basis(n)[:, :, None])
    return StarNetwork(n, (phi_plus,) * n, tuple(obs), eve)


def _conditional_unnormalized(net: StarNetwork, l: int) -> np.ndarray:
    """P(l) * rho^l as a pair row (a_1 a'_1, ..., a_n a'_n), for any sources.

    rho~[a, a'] = sum_{e, e''} R_l[e, e''] prod_i S_i[a_i, e''_i, a'_i, e_i].

    R_l's axes are regrouped into pairs (e_1 e''_1, e_2 e''_2, ...). Each
    source in turn maps the leading pair to its (a_i a'_i) pair through the
    transfer matrix Lambda_i[(a, a'), (e, e'')] = S_i[a, e'', a', e], and
    the result is rotated to the back, so n small matmuls do the whole sum.
    """
    n = net.n
    de = net.eve_dims
    pairs = [k for i in range(n) for k in (i, n + i)]
    t = net.eve.element(l).reshape(de + de).transpose(pairs)
    for i in range(n):
        da, dei = net.sources[i].local_dims
        lam = net.sources[i].mat.reshape(da, dei, da, dei).transpose(0, 2, 3, 1)
        # t^T @ lam^T lands the new pair at the back without a copy of t.
        t = t.reshape(dei * dei, -1).T @ lam.reshape(da * da, dei * dei).T
    return t.reshape(-1)


def _pure_vectors(net: StarNetwork, labels: Sequence[int]) -> np.ndarray:
    """Unnormalized conditional vectors psi[a, l, c] for pure sources, with
    P(l) rho^l = sum_c |psi[:, l, c]><psi[:, l, c]|: psi = ((x)_i S_i)
    conj(V), one `apply_local` of the d_A x d_E source matrices."""
    v = net.eve.factors[:, list(labels), :]
    np.conj(v, out=v)
    return linalg.apply_local(v, net.eve_dims, dict(enumerate(net.source_vectors)))


def _pair_axes(party_dims: Sequence[int]) -> tuple[int, ...]:
    """(d_1, d_1, ..., d_n, d_n): a pair row's axes (a_1, a'_1, ..., a_n, a'_n)."""
    return tuple(k for d in party_dims for k in (d, d))


@dataclass(frozen=True)
class ConditionalStates:
    """P(l) rho^l for each outcome in `labels`, with P(l) in `probs`.

    Exactly one of two forms, each party-first (`linalg`), is set.
    `vectors` (axes a, l, c): P(l) rho^l is the sum over c of
    |vectors[:, l, c]><vectors[:, l, c]|, zero columns padding the ranks.
    `pairs` (axes l, p): row j is P(l) rho^l with each party's row and
    column index side by side, p = (a_1 a'_1, ..., a_n a'_n). `expect` is
    where an operator, a `ProductSum` with coefficients scalar or arrays
    over `labels`, meets either form, through `apply_local`.
    """

    party_dims: tuple[int, ...]
    labels: tuple[int, ...]
    probs: np.ndarray
    vectors: Optional[np.ndarray] = None
    pairs: Optional[np.ndarray] = None

    @classmethod
    def from_density(cls, party_dims: Sequence[int], l: int, rho) -> "ConditionalStates":
        """The normalized matrix `rho` as the pair row of one outcome l."""
        n = len(party_dims)
        t = np.reshape(rho, tuple(party_dims) * 2)
        t = t.transpose([k for i in range(n) for k in (i, n + i)])
        return cls(tuple(party_dims), (l,), np.ones(1), pairs=t.reshape(1, -1))

    def expect(self, op: ProductSum) -> np.ndarray:
        """Re Tr[op rho^l] for each label: each term's complex trace,
        summed, then the real part once. A term is applied to the vectors
        and met with the bras; on pairs its rows T_i^T (the identity's
        where it places nothing) take the trace of each label slice,
        flattened so that its leading factor is the label axis."""
        total = np.zeros(len(self.labels), dtype=complex)
        if self.vectors is not None:
            bra = self.vectors.conj()
            for c, placed in op.terms:
                ket = linalg.apply_local(self.vectors, self.party_dims, placed)
                total += c * np.einsum("alc,alc->l", bra, ket)
                del ket  # freed before the next term's arrays are allocated
            return total.real / self.probs
        squares = tuple(d * d for d in self.party_dims)
        step = max(1, MIXED_BATCH_ENTRIES // self.pairs.shape[1])
        slices = [self.pairs[j : j + step] for j in range(0, len(self.labels), step)]
        for c, placed in op.terms:
            rows = {
                i + 1: placed.get(i, np.eye(d)).T.reshape(1, d * d)
                for i, d in enumerate(self.party_dims)
            }
            total += c * np.concatenate([
                linalg.apply_local(x.reshape(-1), (len(x),) + squares, rows) for x in slices
            ])
        return total.real / self.probs

    def fidelity(self, targets: np.ndarray) -> np.ndarray:
        """<t_l| rho^l |t_l>, one target vector per label (columns of `targets`)."""
        if self.vectors is None:
            # One einsum on views: axes 2i and 2i + 1 are a_i and a'_i.
            n = len(self.party_dims)
            view = self.pairs.reshape((-1,) + _pair_axes(self.party_dims))
            t = targets.reshape(self.party_dims + (len(self.labels),))
            rows, cols = [*range(0, 2 * n, 2), 2 * n], [*range(1, 2 * n, 2), 2 * n]
            raw = np.real(np.einsum(view, [2 * n, *range(2 * n)], t.conj(), rows, t, cols, [2 * n]))
        else:
            amp = np.einsum("al,alc->lc", targets.conj(), self.vectors)
            raw = np.sum(np.abs(amp) ** 2, axis=1)
        return raw / self.probs

    def density(self, j: int) -> np.ndarray:
        """rho^l for l = labels[j] as a dense matrix."""
        if self.vectors is None:
            n = len(self.party_dims)
            d = math.prod(self.party_dims)
            raw = self.pairs[j].reshape(_pair_axes(self.party_dims))
            raw = raw.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)]).reshape(d, d)
        else:
            raw = self.vectors[:, j] @ self.vectors[:, j].conj().T
        return raw / self.probs[j]

    def columns(self, j: int) -> np.ndarray:
        """Columns X with axes (a, c) and rho^l = X X^dag, for l = labels[j].

        The vector form is sliced; the pair form is factored by one
        `eigh`, keeping every positive eigenvalue: a cut relative to the
        largest would drop weight that ||G X|| for a large G still sees.
        """
        if self.vectors is not None:
            return self.vectors[:, j] / math.sqrt(self.probs[j])
        w, q = np.linalg.eigh(self.density(j))
        keep = w > 0
        return q[:, keep] * np.sqrt(w[keep])


def _checked_label(net: StarNetwork, l: int) -> int:
    l = int(l)
    if not 0 <= l < 1 << net.n:
        raise ValueError(f"outcome {l} out of range for n = {net.n}")
    return l


def _unnormalized_states(net: StarNetwork, labels: Optional[Sequence[int]]) -> ConditionalStates:
    if labels is None:
        labels = tuple(range(1 << net.n))
    else:
        labels = tuple(_checked_label(net, l) for l in labels)
    d = math.prod(net.party_dims)
    # Fewer than d vectors per outcome are smaller than its d x d matrix.
    if net.source_vectors is not None and net.eve.factors.shape[2] < d:
        vecs = _pure_vectors(net, labels)
        probs = np.sum(np.abs(vecs) ** 2, axis=(0, 2))
        return ConditionalStates(net.party_dims, labels, probs, vectors=vecs)
    pairs = np.empty((len(labels), d * d), dtype=complex)
    for j, l in enumerate(labels):
        pairs[j] = _conditional_unnormalized(net, l)
    # P(l) = Tr: the entries with a_i = a'_i in every pair (an einsum view),
    # summed in a matrix diagonal's order, as np.trace sums it.
    n = net.n
    view = pairs.reshape((-1,) + _pair_axes(net.party_dims))
    diagonal = np.einsum(view, [0, *(k for k in range(1, n + 1) for _ in "rc")], [*range(n + 1)])
    probs = np.real(diagonal.reshape(len(labels), -1).sum(axis=1))
    return ConditionalStates(net.party_dims, labels, probs, pairs=pairs)


def conditional_states(
    net: StarNetwork, labels: Optional[Sequence[int]] = None
) -> ConditionalStates:
    """The external parties' states given each of Eve's outcomes `labels`
    (all 2^n by default), each computed once."""
    states = _unnormalized_states(net, labels)
    for l, p in zip(states.labels, states.probs):
        if p <= CONDITIONING_THRESHOLD:
            raise DegenerateConditioningError(f"outcome {l} has probability {p:.3e}")
    return states


def conditional_state(net: StarNetwork, l: int) -> DenseOperator:
    """State of the external parties given Eve's outcome l."""
    return DenseOperator(conditional_states(net, [l]).density(0), net.party_dims)


def eve_outcome_probability(net: StarNetwork, l: int) -> float:
    """P(l) = sum_c <v_c| (x)_i Tr_A rho_{A_i E_i} |v_c> over R_l's factor columns."""
    marg = {i: linalg.partial_trace(s, keep=[1]).mat for i, s in enumerate(net.sources)}
    v = net.eve.factors[:, _checked_label(net, l), :]
    return float(np.real(np.vdot(v, linalg.apply_local(v, net.eve_dims, marg))))


def settings_product(net: StarNetwork, settings: Sequence) -> ProductSum:
    """The product of one setting per party; None leaves the identity."""
    if len(settings) != net.n:
        raise ValueError("need one setting per party")
    return ProductSum.product(
        {i: net.observable(i + 1, s) for i, s in enumerate(settings) if s is not None}
    )


def conditional_expectation(net: StarNetwork, settings: Sequence, l: int) -> float:
    """Correlator of the party settings (`settings_product`) on the
    post-measurement state rho^l."""
    return float(conditional_states(net, [l]).expect(settings_product(net, settings))[0])


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
        "eve_factors": [
            linalg.matrix_to_json(net.eve.factors[:, l, :]) for l in range(len(net.eve))
        ],
    }


def network_from_json(d: dict) -> StarNetwork:
    """Inverse of `network_to_json`; also reads the dense `eve_povm` form
    (one DenseOperator record per element) in place of `eve_factors`."""
    if ("eve_factors" in d) == ("eve_povm" in d):
        raise ValueError("a strategy holds exactly one of eve_factors and eve_povm")
    sources = tuple(linalg.operator_from_json(s) for s in d["sources"])
    obs = tuple(
        tuple(None if m is None else linalg.operator_from_json(m).mat for m in triple)
        for triple in d["observables"]
    )
    if "eve_factors" in d:
        eve = EveMeasurement.from_factors([linalg.matrix_from_json(f) for f in d["eve_factors"]])
    else:
        eve = EveMeasurement.from_elements(
            [linalg.operator_from_json(r).mat for r in d["eve_povm"]]
        )
    return StarNetwork(linalg.json_size(d["n"], "n"), sources, obs, eve)


def save_strategy(net: StarNetwork, path) -> None:
    with open(path, "w") as fh:
        json.dump(network_to_json(net), fh)


def load_strategy(path) -> StarNetwork:
    with open(path) as fh:
        return network_from_json(json.load(fh))
