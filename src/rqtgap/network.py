"""The star-network scenario: sources, observables, Eve's measurement.

Global state order is A_1 E_1 A_2 E_2 ... ; Eve's POVM acts on the joined
E factors in the order E_1 ... E_N. Eve's measurement is held as factors
and an optional identity floor, R_l = V_l V_l^dag + mu_l 1
(`EveMeasurement`, the only form `StarNetwork` takes): the ideal
network's, like any rank-1 projective measurement, is one 2^n x 2^n
unitary, white noise on it (`robustness.apply_noise`'s `mix_povm`) is the
scaled unitary and a floor, and dense elements are factored once, by
`EveMeasurement.from_elements`. Conditional states never materialize the
joint density matrix, and follow `linalg`'s one layout rule. When every
source is pure and Eve's factors have fewer columns than the party
dimension, one `apply_local` of the source matrices on conj(V) gives the
vectors of all outcomes at once (axes a, l, c); a floor adds mu_l times
the product of the sources' A-marginals, which every reader of the
vectors takes in closed form. Otherwise the density-matrix kernel gives
each outcome's matrix, floor included, as a row of pairs
(a_1 a'_1, ..., a_n a'_n). An operator, held as a `ProductSum`, meets
either form in `ConditionalStates.expect`, through `apply_local`: each
term applied to the vectors, or traced on the pairs. The seesaw and
`robustness.residual_norms` take rho^l as columns instead
(`ConditionalStates.columns`).

Every array a `StarNetwork` holds is read-only and its own. `ghz_state`
and `ghz_basis` are one column builder's.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .errors import CapacityError, ConfigurationError, DegenerateConditioningError, ValidationError
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


def _ghz_columns(n: int, labels: np.ndarray) -> np.ndarray:
    """One column (|l> + (-1)^{l_1} |lbar>)/sqrt(2) on n qubits for each
    l of the integer array `labels`, O(2^n) entries per label, in the
    layout of Eve's factors: axes (e, l, c), c of size 1, in an array
    that owns its memory."""
    if n < 1:
        raise ValueError("need at least one qubit")
    dim = 1 << n
    if np.any((labels < 0) | (labels >= dim)):
        raise ValueError(f"label out of range for n = {n}")
    cols = np.arange(len(labels))
    v = np.zeros((dim, len(labels), 1))
    v[labels, cols, 0] += 1.0
    v[labels ^ (dim - 1), cols, 0] += (-1.0) ** ((labels >> (n - 1)) & 1)
    v /= np.sqrt(2.0)
    return v


def ghz_state(n: int, l: int) -> StateVector:
    """GHZ-like vector (|l> + (-1)^{l_1} |lbar>)/sqrt(2) on n qubits."""
    return StateVector(_ghz_columns(n, np.array([int(l)]))[:, 0, 0], (2,) * n)


def ghz_basis(n: int) -> np.ndarray:
    """The unitary whose column l is ghz_state(n, l)."""
    return _ghz_columns(n, np.arange(1 << n))[:, :, 0]


@dataclass(frozen=True)
class EveMeasurement:
    """Eve's POVM {R_l}, held as factors and an optional identity floor,
    R_l = V_l V_l^dag + mu_l 1.

    `factors` has axes (e, l, c): V_l = factors[:, l, :], padded with zero
    columns up to the largest rank. For a rank-1 projective measurement,
    factors[:, :, 0] is one unitary whose columns are the measurement
    vectors. `floor` holds mu_l >= 0 per outcome, or is None, which is
    the same measurement as a zero floor. Completeness,
    sum_l V_l V_l^dag + (sum_l mu_l) 1 = 1, is checked once, through the
    stacked factors; positivity holds by construction. The factors are
    held as `linalg.frozen` holds them; a read-only array that owns its
    memory and is already in its `linalg.held_dtype`, such as the stack
    `from_factors` builds, is held as it is, without a copy.
    """

    factors: np.ndarray
    floor: Optional[np.ndarray] = None

    def __post_init__(self):
        v = self.factors
        if not (isinstance(v, np.ndarray) and v.flags.owndata and not v.flags.writeable
                and v.dtype == linalg.held_dtype(v)):
            v = linalg.frozen(v)
        object.__setattr__(self, "factors", v)
        if v.ndim != 3:
            raise ValueError("factors need axes (e, l, c)")
        if not np.all(np.isfinite(v)):
            raise ValidationError("Eve's factors are not all finite")
        if self.floor is not None:
            mu = np.array(self.floor, dtype=float)
            mu.setflags(write=False)
            object.__setattr__(self, "floor", mu)
            if mu.shape != (v.shape[1],):
                raise ValueError(f"Eve's floor needs {v.shape[1]} entries, one per outcome")
            if not (np.all(np.isfinite(mu)) and np.all(mu >= 0)):
                raise ValidationError("Eve's floor entries must be finite and nonnegative")
        flat = v.reshape(v.shape[0], -1)
        # Huge finite factors or floors overflow here; the deviation is then
        # inf or NaN, and the test below, written so that NaN fails too,
        # rejects it.
        with np.errstate(all="ignore"):
            gram = flat @ flat.conj().T
            # The floor and the identity go onto the diagonal in place, a
            # view, so no other d_E x d_E array is built.
            diagonal = gram.reshape(-1)[:: v.shape[0] + 1]
            if self.floor is not None:
                diagonal += np.sum(self.floor)
            diagonal -= 1.0
            # |gram| in place as well; a complex gram keeps it in its real part.
            np.abs(gram, out=gram)
            dev = np.max(gram.real)
        if not dev <= 1e-10:
            raise ValidationError("Eve POVM does not sum to the identity")

    @classmethod
    def from_factors(cls, factors: Sequence[np.ndarray], floor=None) -> "EveMeasurement":
        """Stack per-outcome factors V_l, each d_E x k_l with any k_l >= 0,
        with the floor `floor`, if given."""
        factors = [np.asarray(f) for f in factors]
        if not factors or any(f.ndim != 2 or f.shape[0] != factors[0].shape[0] for f in factors):
            raise ValueError("Eve's factors need one common number of rows")
        return cls(_padded_stack(factors[0].shape[0], [f.shape[1] for f in factors], factors), floor)

    @classmethod
    def from_elements(cls, elements: Sequence[np.ndarray]) -> "EveMeasurement":
        """Factor dense POVM elements by `eigh`, one per element, each
        checked Hermitian first (`eigh` would read only one triangle)."""
        factors = []
        for l, r in enumerate(elements):
            r = np.asarray(r)
            if not linalg.is_hermitian(r):
                raise ValidationError(f"Eve POVM element {l} is not Hermitian")
            # Halved before the sum, so that no finite entry overflows.
            w, q = np.linalg.eigh(r / 2 + r.conj().T / 2)
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
        r = v @ v.conj().T
        if self.floor is not None:
            r += self.floor[l] * np.eye(self.dim)
        return r


def _padded_stack(rows: int, cols: Sequence[int], factors) -> np.ndarray:
    """The (e, l, c) stack of the iterable `factors`, V_l of shape
    (rows, cols[l]), padded with zero columns and frozen. It is filled in
    place as the factors arrive, real until one with a nonzero imaginary
    part does (`linalg.held_dtype`)."""
    v = np.zeros((rows, len(cols), max(1, *cols)))
    for l, f in enumerate(factors):
        if linalg.held_dtype(f) is complex:
            if v.dtype != complex:
                v = v.astype(complex)
        else:
            f = f.real
        v[:, l, : cols[l]] = f
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class StarNetwork:
    """N sources, per-party observable triples, Eve's 2^n-outcome POVM.

    observables[i] is (A_{i,0}, A_{i,1}, A_{i,2}); the third entry may be
    None until a caller completes the strategy. Dense POVM elements enter
    through `EveMeasurement.from_elements`. `source_vectors` holds each
    source as a d_A x d_E matrix S_i with rho_i = |S_i>><<S_i| when every
    source is pure, else None. Each observable and source vector is a
    read-only array of its own, as the sources and Eve's factors are.
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
        obs = tuple(
            tuple(None if m is None else linalg.frozen(m) for m in triple)
            for triple in self.observables
        )
        # One `require_pm1` call per shape of observable; only the shapes
        # that fail are checked again one by one, in order, so that the
        # error names the first offender.
        failed = set()
        for shape, mats in _by_shape(m for triple in obs for m in triple if m is not None):
            try:
                linalg.require_pm1(np.stack(mats), "an observable")
            except ValueError:  # ValidationError is one
                failed.add(shape)
        for i, triple in enumerate(obs):
            if len(triple) != 3:
                raise ValueError("each party carries exactly three observable slots")
            da = self.sources[i].local_dims[0]
            for x, m in enumerate(triple):
                if m is None:
                    continue
                if m.shape != (da, da):
                    raise ValidationError(f"party {i + 1} setting {x}: wrong dimension")
                if m.shape in failed:
                    linalg.require_pm1(m, f"party {i + 1} setting {x}")
        object.__setattr__(self, "observables", obs)
        object.__setattr__(self, "source_vectors", _source_vectors(self.sources))
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
            return np.eye(da)
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
        obs = tuple((t[0], t[1], m) for t, m in zip(self.observables, third))
        return StarNetwork(self.n, self.sources, obs, self.eve)


def _by_shape(mats) -> list[tuple[tuple, list]]:
    """The arrays of the iterable `mats` grouped by shape, in order of first
    appearance, as (shape, arrays) pairs."""
    groups: dict = {}
    for m in mats:
        groups.setdefault(m.shape, []).append(m)
    return list(groups.items())


def _spectra(stack: np.ndarray) -> list[tuple[bool, Optional[np.ndarray]]]:
    """For each Hermitian matrix of `stack`, one `eigh` for all: whether it
    is a density operator, and its top eigenvector scaled by the root of
    its eigenvalue when it has rank 1 (the rest are rounding noise), else
    None."""
    w, q = np.linalg.eigh(stack)
    density = (w[:, 0] >= -1e-10) & (np.abs(np.trace(stack, axis1=1, axis2=2) - 1.0) <= 1e-10)
    rank1 = np.count_nonzero(w > RANK_CUTOFF * w[:, -1:], axis=1) == 1
    top = q[:, :, -1] * np.sqrt(w[:, -1:])
    return [(ok, t if pure else None) for ok, pure, t in zip(density.tolist(), rank1.tolist(), top)]


def _source_vectors(sources: Sequence[DenseOperator]) -> Optional[tuple[np.ndarray, ...]]:
    """Each source as the d_A x d_E matrix S_i with rho_i = |S_i>><<S_i|
    when every source is pure, else None; ValidationError naming the first
    source, in order, that is not bipartite, not Hermitian or not a
    density operator.

    The bipartite sources of one shape are checked as one stack, by one
    `linalg.is_hermitian` and one `_spectra`; a stack that is not
    Hermitian (`eigh` reads only the lower triangle) goes source by
    source."""
    spectra: dict = {}
    for shape, mats in _by_shape(s.mat for s in sources if len(s.local_dims) == 2):
        stack = np.stack(mats)
        if linalg.is_hermitian(stack):
            spectra[shape] = iter(_spectra(stack))
    vectors = []
    for i, rho in enumerate(sources):
        if len(rho.local_dims) != 2:
            raise ValidationError(f"source {i + 1} must be bipartite")
        if rho.mat.shape in spectra:
            density, top = next(spectra[rho.mat.shape])
        elif linalg.is_hermitian(rho.mat):
            (density, top), = _spectra(rho.mat[None])
        else:
            raise ValidationError(f"source {i + 1} is not Hermitian")
        if not density:
            raise ValidationError(f"source {i + 1} is not a density operator")
        if top is not None:
            vectors.append(linalg.frozen(top.reshape(rho.local_dims)))
    return tuple(vectors) if len(vectors) == len(sources) else None


def _phi_plus() -> DenseOperator:
    """The ideal network's source, |phi+><phi+| on A_i E_i."""
    return ghz_state(2, 0).projector()


@functools.cache
def _phi_plus_vector() -> np.ndarray:
    """The source vector of `_phi_plus` that a network computes
    (`_source_vectors`), computed once; it is read-only."""
    return _source_vectors((_phi_plus(),))[0]


def _ideal_pairs(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The ideal network's (A_{i,0}, A_{i,1}): the rotated pair
    (X +/- Z)/sqrt2 for party 1, (Z, X) for the others."""
    s2 = np.sqrt(2.0)
    return [((X + Z) / s2, (X - Z) / s2)] + [(Z, X)] * (n - 1)


def ideal_network(n: int) -> StarNetwork:
    """The maximally violating strategy: phi+ sources, the rotated pair for
    party 1, Z/X for the others, GHZ-like projectors for Eve. A_{i,2} is
    left unset. Eve's factors are built read-only in place, so
    `EveMeasurement` holds them without a copy."""
    if n < 2:
        raise ValueError("need at least 2 external parties")
    factors = _ghz_columns(n, np.arange(1 << n))
    factors.setflags(write=False)
    obs = tuple((a0, a1, None) for a0, a1 in _ideal_pairs(n))
    return StarNetwork(n, (_phi_plus(),) * n, obs, EveMeasurement(factors))


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
    |vectors[:, l, c]><vectors[:, l, c]|, zero columns padding the ranks,
    plus, when Eve's measurement has a floor, floor[j] (x)_i marginals[i]
    for l = labels[j], with marginals[i] = Tr_E rho_i. `pairs` (axes l,
    p): row j is P(l) rho^l with each party's row and column index side
    by side, p = (a_1 a'_1, ..., a_n a'_n). `expect` is where an
    operator, a `ProductSum` with coefficients scalar or arrays over
    `labels`, meets either form, through `apply_local`.
    """

    party_dims: tuple[int, ...]
    labels: tuple[int, ...]
    probs: np.ndarray
    vectors: Optional[np.ndarray] = None
    pairs: Optional[np.ndarray] = None
    floor: Optional[np.ndarray] = None
    marginals: Optional[tuple[np.ndarray, ...]] = None

    @classmethod
    def from_density(cls, party_dims: Sequence[int], l: int, rho) -> "ConditionalStates":
        """The normalized matrix `rho` as the pair row of one outcome l."""
        n = len(party_dims)
        t = np.reshape(rho, tuple(party_dims) * 2)
        t = t.transpose([k for i in range(n) for k in (i, n + i)])
        return cls(tuple(party_dims), (l,), np.ones(1), pairs=t.reshape(1, -1))

    def _floor_trace(self, placed) -> complex:
        """prod_i Tr[T_i marginals[i]], T_i = placed.get(i, 1): O(n d^2)."""
        return math.prod(
            np.sum(placed[i] * m.T) if i in placed else np.trace(m)
            for i, m in enumerate(self.marginals)
        )

    def expect(self, op: ProductSum) -> np.ndarray:
        """Re Tr[op rho^l] for each label: each term's trace, summed,
        then the real part once. A term is applied to the vectors
        and met with the bras, and meets the floor as the product of its
        factors' traces on the marginals; on pairs its rows T_i^T (the
        identity's where it places nothing) take the trace of each label
        slice, flattened so that its leading factor is the label axis."""
        total = np.zeros(len(self.labels), dtype=complex)
        if self.vectors is not None:
            bra = self.vectors.conj()
            for c, placed in op.terms:
                ket = linalg.apply_local(self.vectors, self.party_dims, placed)
                total += c * np.einsum("alc,alc->l", bra, ket)
                del ket  # freed before the next term's arrays are allocated
                if self.floor is not None:
                    total += c * self.floor * self._floor_trace(placed)
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

    def _marginal_product(self, x: np.ndarray) -> np.ndarray:
        """((x)_i marginals[i]) applied to the party-first `x`."""
        return linalg.apply_local(x, self.party_dims, dict(enumerate(self.marginals)))

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
            if self.floor is not None:
                on_floor = np.einsum("al,al->l", targets.conj(), self._marginal_product(targets))
                raw = raw + self.floor * on_floor.real
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
            if self.floor is not None:
                raw += self.floor[j] * self._marginal_product(np.eye(len(raw)))
        return raw / self.probs[j]

    def columns(self, j: int) -> np.ndarray:
        """Columns X with axes (a, c) and rho^l = X X^dag, for l = labels[j].

        The vector form without a floor is sliced; otherwise the density
        is factored by one `eigh`, keeping every positive eigenvalue: a
        cut relative to the largest would drop weight that ||G X|| for a
        large G still sees.
        """
        if self.vectors is not None and self.floor is None:
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
        if net.eve.floor is None:
            return ConditionalStates(net.party_dims, labels, probs, vectors=vecs)
        floor = net.eve.floor[list(labels)]
        marginals = tuple(linalg.partial_trace(s, keep=[0]).mat for s in net.sources)
        probs += floor * math.prod(np.trace(m).real for m in marginals)
        return ConditionalStates(
            net.party_dims, labels, probs, vectors=vecs, floor=floor, marginals=marginals
        )
    dtype = np.result_type(net.eve.factors, *(s.mat for s in net.sources))
    pairs = np.empty((len(labels), d * d), dtype=dtype)
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
    """P(l) = sum_c <v_c| (x)_i Tr_A rho_{A_i E_i} |v_c> over R_l's factor
    columns, plus mu_l prod_i Tr[Tr_A rho_{A_i E_i}] for a floor."""
    marg = {i: linalg.partial_trace(s, keep=[1]).mat for i, s in enumerate(net.sources)}
    l = _checked_label(net, l)
    v = net.eve.factors[:, l, :]
    p = float(np.real(np.vdot(v, linalg.apply_local(v, net.eve_dims, marg))))
    if net.eve.floor is not None:
        p += float(net.eve.floor[l]) * math.prod(np.trace(m).real for m in marg.values())
    return p


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

    d = {
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
    if net.eve.floor is not None:
        d["eve_floor"] = [float(v) for v in net.eve.floor]
    return d


def _eve_from_factors_json(d: dict) -> EveMeasurement:
    """Eve's measurement from `eve_factors` and the optional `eve_floor`.

    The factors' declared sizes are checked against `linalg.ENTRY_CAPACITY`
    before any array is built: the (e, l, c) stack they pad to, outcomes x
    largest rows x largest cols, which is at least the sum of rows x cols.
    """
    records = d["eve_factors"]
    rows = [linalg.json_size(f["rows"], "rows") for f in records]
    cols = [linalg.json_size(f["cols"], "cols") for f in records]
    if records:
        entries = len(records) * max(rows) * max(1, *cols)
        if entries > linalg.ENTRY_CAPACITY:
            raise CapacityError(
                f"eve_factors declare {entries} entries, over the cap {linalg.ENTRY_CAPACITY}"
            )
    floor = linalg.json_numbers(d["eve_floor"], "eve_floor") if "eve_floor" in d else None
    if not records or len(set(rows)) > 1:
        raise ValueError("Eve's factors need one common number of rows")
    # Each record is read into the stack as it comes, so only one is held.
    stack = _padded_stack(rows[0], cols, (linalg.matrix_from_json(f) for f in records))
    return EveMeasurement(stack, floor)


def network_from_json(d: dict) -> StarNetwork:
    """Inverse of `network_to_json`; also reads the dense `eve_povm` form
    (one DenseOperator record per element) in place of `eve_factors`;
    `eve_floor` goes with `eve_factors` only."""
    if ("eve_factors" in d) == ("eve_povm" in d):
        raise ValueError("a strategy holds exactly one of eve_factors and eve_povm")
    sources = tuple(linalg.operator_from_json(s) for s in d["sources"])
    obs = tuple(
        tuple(None if m is None else linalg.operator_from_json(m).mat for m in triple)
        for triple in d["observables"]
    )
    if "eve_factors" in d:
        eve = _eve_from_factors_json(d)
    elif "eve_floor" in d:
        raise ValueError("eve_floor goes with eve_factors, not eve_povm")
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
