"""Linear algebra over explicit tensor-product spaces, real or complex.

An array is held real (float64) when its imaginary part is exactly zero,
and complex (complex128) otherwise. That is decided once, where the array
enters (`frozen`, the JSON readers, `random_pm1_matrices(real=True)`);
every kernel then follows numpy's type promotion, so a real strategy,
such as the ideal network, runs in real arithmetic and a complex one in
complex arithmetic, through the same code.

The operators the package checks are short sums of tensor products of
local matrices. `ProductSum` holds the Bell operators I_l and J_N, and
products of party settings, in that form, as a tuple of terms.
`frobenius_norm` takes the norm of B such operators of K terms each,
held as a (B, K) coefficient array and one (B, K, d_i, d_i) stack per
factor, by splitting every term at the cut between the leading and
trailing factors that best balances the two sides: the operator's
entries, realigned as (left row, left column) x (right row, right
column), form one matrix product of inner size K, so no 2^n x 2^n
product is ever taken.

States have one layout rule, party-first: axis 0 is the joint index of
the factors, leftmost most significant, then any outcome and column
axes. Conditional vectors have axes (a, l, c), Eve's factors (e, l, c),
a state's columns (a, c). A density matrix keeps each party's row and
column index side by side, one factor (a_i a'_i) of dimension d_i^2, so
Tr[((x)_i T_i) rho] is the product of the 1 x d_i^2 rows T_i^T on those
factors. A factor acts on such an array by one matmul on a (left, d, -1)
view (`apply_factor`), and `apply_local` chains them: it is the one
kernel of operator terms on vectors and of traces on density matrices,
and `apply_factor` the step of the seesaw's blocks and of the source
matrices that build the pure-source vectors.

`kron_all`, `tensor_embed` and `ProductSum.dense` build the full
operators, complex whatever their inputs. They are the ground-truth
oracle the tests check the structured paths against. `is_hermitian` is
the one Hermiticity test, `require_pm1` the one check that a matrix, or
each matrix of a stack, is a +/-1 observable, and `first_near_max` the
one tie rule for naming the largest of several values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CapacityError, ValidationError

# Entry budget for any single dense object (matrix entries, not bytes).
ENTRY_CAPACITY = 2**26

RNG_NAME = "pcg64"  # np.random.default_rng bit generator, recorded in outputs


def held_dtype(a: np.ndarray) -> type:
    """The dtype the package holds `a` in: complex (complex128) when its
    imaginary part is not exactly zero (a NaN counts as nonzero), else
    float (float64)."""
    return complex if np.iscomplexobj(a) and a.imag.any() else float


def frozen(a: np.ndarray) -> np.ndarray:
    """A read-only copy of `a` in its `held_dtype`."""
    a = np.asarray(a)
    dtype = held_dtype(a)
    a = np.array(a if dtype is complex else a.real, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DenseOperator:
    """Square matrix on an ordered tensor product of local factors.

    Row-major computational basis, leftmost factor most significant.
    """

    mat: np.ndarray
    local_dims: tuple[int, ...]

    def __post_init__(self):
        mat = frozen(self.mat)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "local_dims", tuple(int(d) for d in self.local_dims))
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator must be square, got shape {mat.shape}")
        if math.prod(self.local_dims) != mat.shape[0]:
            raise ValueError(
                f"local_dims {self.local_dims} do not multiply to dim {mat.shape[0]}"
            )
        if mat.size > ENTRY_CAPACITY:
            raise CapacityError(
                f"{mat.size} entries exceed the cap {ENTRY_CAPACITY}"
            )

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class StateVector:
    """Unit vector on an ordered tensor product of local factors."""

    vec: np.ndarray
    local_dims: tuple[int, ...]

    def __post_init__(self):
        vec = frozen(self.vec)
        object.__setattr__(self, "vec", vec)
        object.__setattr__(self, "local_dims", tuple(int(d) for d in self.local_dims))
        if vec.ndim != 1:
            raise ValueError("state must be a vector")
        if math.prod(self.local_dims) != vec.shape[0]:
            raise ValueError(
                f"local_dims {self.local_dims} do not multiply to dim {vec.shape[0]}"
            )
        if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
            raise ValueError("state vector is not normalized")

    @property
    def dim(self) -> int:
        return self.vec.shape[0]

    def projector(self) -> DenseOperator:
        return DenseOperator(np.outer(self.vec, self.vec.conj()), self.local_dims)


# Single-qubit constants.
I2 = frozen(np.eye(2))
X = frozen([[0, 1], [1, 0]])
Y = frozen([[0, -1j], [1j, 0]])
Z = frozen([[1, 0], [0, -1]])
PAULIS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def kron_all(mats: Iterable[np.ndarray]) -> np.ndarray:
    """Plain ndarray Kronecker chain (internal helper, no bookkeeping).

    Leading batch axes broadcast: factors of shape (..., r, c) give a
    batch of chains. Each step is one broadcast product, the same
    multiplications as `np.kron` without its general-rank bookkeeping.
    """
    out = np.eye(1, dtype=complex)
    for m in mats:
        t = out[..., :, None, :, None] * np.asarray(m)[..., None, :, None, :]
        out = t.reshape(t.shape[:-4] + (t.shape[-4] * t.shape[-3], t.shape[-2] * t.shape[-1]))
    return out


def tensor_embed(local_dims: Iterable[int], placed: dict[int, np.ndarray]) -> np.ndarray:
    """Tensor product with `placed[i]` on factor i and identity elsewhere."""
    dims = tuple(local_dims)
    mats = []
    for i, d in enumerate(dims):
        m = placed.get(i)
        if m is None:
            m = np.eye(d, dtype=complex)
        else:
            m = np.asarray(m, dtype=complex)
            if m.shape != (d, d):
                raise ValueError(f"factor {i}: expected shape {(d, d)}, got {m.shape}")
        mats.append(m)
    return kron_all(mats)


def partial_trace(rho: DenseOperator, keep: Iterable[int]) -> DenseOperator:
    """Trace out every factor not listed in `keep` (kept in original order)."""
    dims = rho.local_dims
    keep = sorted(set(int(k) for k in keep))
    for k in keep:
        if not 0 <= k < len(dims):
            raise ValueError(f"factor index {k} out of range for {len(dims)} factors")
    t = rho.mat.reshape(dims + dims)
    nfac = len(dims)
    # Contract the dropped row/column index pairs one at a time.
    dropped = [i for i in range(nfac) if i not in keep]
    for count, i in enumerate(dropped):
        # After `count` contractions the tensor has (nfac - count) index pairs;
        # the original factor i now sits at position i - (#dropped before i).
        pos = i - count
        half = nfac - count
        t = np.trace(t, axis1=pos, axis2=pos + half)
    kept_dims = tuple(dims[i] for i in keep)
    d = math.prod(kept_dims) if kept_dims else 1
    return DenseOperator(t.reshape(d, d), kept_dims if kept_dims else (1,))


def apply_factor(m: np.ndarray, x: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """`m` on the factor that `shape`, (left, d, -1), isolates in the
    party-first `x`; a (d', d) `m` maps it to dimension d'. A trailing
    size of 1 (the last factor of one vector) is one gemm over the left
    index, where the (left, d, 1) view would take one matmul per index."""
    left, d, _ = shape
    if x.size == left * d:
        y = x.reshape(left, d) @ m.T
    else:
        y = m @ x.reshape(shape)
    return y.reshape((-1,) + x.shape[1:])


def apply_local(
    x: np.ndarray, local_dims: Sequence[int], placed: Mapping[int, np.ndarray]
) -> np.ndarray:
    """((x)_i placed.get(i, 1)) applied to the party-first array `x`, one
    `apply_factor` per placed factor: O(size * d) each, and the product
    operator is never formed."""
    t = np.asarray(x)
    left = 1
    for i, d in enumerate(local_dims):
        m = placed.get(i)
        if m is not None:
            t = apply_factor(m, t, (left, d, -1))
            d = m.shape[0]
        left *= d
    return t


@dataclass(frozen=True, eq=False)
class ProductSum:
    """sum_t c_t (x)_i placed_t.get(i, 1): an operator held as its terms
    (c_t, placed_t), each placing local matrices on some factors, with the
    identity on the rest. `(c, {})` is c times the identity. For
    `ConditionalStates`, c_t may be an array over outcome labels.
    Nothing here forms the product operator except `dense`, the test
    oracle.
    """

    terms: tuple[tuple[complex, Mapping[int, np.ndarray]], ...] = ()

    @classmethod
    def product(cls, placed: Mapping[int, np.ndarray]) -> "ProductSum":
        """The single term (x)_i placed.get(i, 1)."""
        return cls(((1.0, dict(placed)),))

    def dense(self, local_dims: Sequence[int]) -> np.ndarray:
        """The full matrix, through `tensor_embed`."""
        d = math.prod(local_dims)
        out = np.zeros((d, d), dtype=complex)
        for c, p in self.terms:
            out += c * tensor_embed(local_dims, p)
        return out


def frobenius_norm(coeffs: np.ndarray, factors: Sequence[np.ndarray]) -> np.ndarray:
    """||sum_k c_k (x)_i F_{i,k}||_F for each of B operators without the
    dense operator: `coeffs` is (B, K), the K terms' coefficients, and
    factors[i] is (B, K, d_i, d_i), the identity where a term leaves
    factor i alone. Returns a (B,) array.

    Factors split at the cut k that best balances the dimensions
    d_L = prod_{i<k} d_i and d_R = prod_{i>=k} d_i. Row t of the side A
    (of B) is the row-wise Khatri-Rao product of term t's flattened left
    (right) factors, so A^T diag(c) B holds every entry of the dense
    operator once, in another order, and has the same Frobenius norm: one
    gemm of inner size K, the number of terms. The sides of all inputs
    are built together, one broadcast product per factor; the gemm and
    its norm are taken one input at a time, so only one realigned operator
    is ever held. Its sum of squares is one `einsum` over the real (and
    imaginary) parts, which, unlike a threaded BLAS dot, sums in the same
    order at any thread count.
    """
    dims = tuple(f.shape[-1] for f in factors)
    d = math.prod(dims)
    if d * d > ENTRY_CAPACITY:
        raise CapacityError(f"{d * d} entries exceed the cap {ENTRY_CAPACITY}")
    inputs, count = coeffs.shape
    k = min(range(len(dims) + 1), key=lambda k: max(math.prod(dims[:k]), math.prod(dims[k:])))
    sides = []
    for part in (factors[:k], factors[k:]):
        side = np.ones((inputs, count, 1))
        for f in part:
            # The new factor's entries go outermost, so the inner loop of
            # the broadcast product runs over the longer side.
            width = f.shape[-1] ** 2
            side = (f.reshape(inputs, count, width, 1) * side[:, :, None, :]).reshape(
                inputs, count, width * side.shape[-1]
            )
        sides.append(side)
    return np.array([_norm((a.T * c) @ b) for a, b, c in zip(*sides, coeffs)])


def _norm(m: np.ndarray) -> float:
    """||m||_F of a C-contiguous real or complex array, summed by `einsum`."""
    v = m.view(float).ravel()
    return math.sqrt(np.einsum("i,i->", v, v))


def is_hermitian(m: np.ndarray) -> bool:
    """Whether the square matrix `m`, or each of a stack of them along
    leading axes, equals its conjugate transpose to 1e-10 in every entry.
    A NaN or inf entry fails. This is the package's only Hermiticity test."""
    with np.errstate(all="ignore"):  # a NaN deviation fails the test below
        return bool(np.max(np.abs(m - m.conj().swapaxes(-1, -2))) <= 1e-10)


def require_pm1(m: np.ndarray, who: str) -> np.ndarray:
    """`m` as a float64 or complex128 array, as its dtype is real or
    complex; ValidationError naming `who` unless it is a +/-1 observable,
    or a stack of them along leading axes: Hermitian (`is_hermitian`)
    with square 1 to 1e-10 in every entry. A NaN or inf entry fails; a
    non-square `m` raises ValueError. This is the package's only +/-1
    check."""
    m = np.asarray(m)
    m = np.asarray(m, dtype=np.result_type(m, float))
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"{who} must be a square matrix, got shape {m.shape}")
    with np.errstate(all="ignore"):  # a NaN deviation fails the test below
        square = np.max(np.abs(m @ m - np.eye(m.shape[-1])))
    if not (is_hermitian(m) and square <= 1e-10):
        raise ValidationError(f"{who} is not a +/-1 observable")
    return m


# Values within this of the largest one tie when a check names its worst
# offender, so that rounding does not decide which one is named.
TIE_TOL = 1e-12


def first_near_max(values, tol: float) -> int:
    """Index of the first value within `tol` of the largest one."""
    v = np.asarray(values, dtype=float)
    return int(np.argmax(v >= np.max(v) - tol))


def _haar_unitary(g: np.ndarray) -> np.ndarray:
    """Q of g = QR with each column's phase (sign) fixed by R's diagonal:
    Haar unitaries (orthogonal matrices) from a stack of complex (real)
    standard Gaussian matrices."""
    q, r = np.linalg.qr(g)
    d = r.diagonal(0, -2, -1)
    return q * (d / np.abs(d))[..., None, :]


def random_pm1_matrices(dim: int, seeds, real: bool = False) -> np.ndarray:
    """Seeded Hermitian unitaries with (near-)balanced +/-1 spectrum, Haar
    distributed: one (dim, dim) matrix for one seed, a stack along the
    leading axes of an array of seeds. Each seed's own `default_rng` draws
    its normals in one call; they are stacked, and combined into complex
    numbers, once, and the QR, the phase fix and the product with the
    signs act on the whole stack. Entrywise real when `real`.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    seeds = np.asarray(seeds)
    # One draw per seed: a complex seed's real parts come first in its
    # stream, then its imaginary parts.
    size = (dim, dim) if real else (2, dim, dim)
    z = np.array([np.random.default_rng(s).normal(size=size) for s in seeds.flat])
    z = z.reshape(seeds.shape + size)
    g = z if real else z[..., 0, :, :] + 1j * z[..., 1, :, :]
    q = _haar_unitary(g)
    signs = np.array([1.0] * (dim // 2) + [-1.0] * (dim - dim // 2))
    return (q * signs) @ q.conj().swapaxes(-1, -2)


def random_pm1_observable(dim: int, seed: int) -> DenseOperator:
    """`random_pm1_matrices` for one seed, as a `DenseOperator`."""
    return DenseOperator(random_pm1_matrices(dim, seed), (dim,))


# --- JSON interchange -----------------------------------------------------
#
# {"dim": n, "local_dims": [...], "re": [row-major], "im": [row-major]}
# Round-trips bit-exactly at double precision (Python floats serialize via
# repr, which is faithful). Sizes must be JSON integers (`json_size`), and
# entries finite JSON numbers (`json_numbers`, `_array_from_json`).


def json_size(value, name: str) -> int:
    """`value` as a size; ValueError unless it is an integer >= 0 (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    return value


def json_numbers(values, name: str) -> np.ndarray:
    """The list `values` as a float array; ValidationError unless each
    entry is an int or a float within double range, not a bool, a string,
    null or a list, which numpy would convert."""
    if not isinstance(values, list):
        raise ValidationError(f"{name} must be a list of numbers, got {type(values).__name__}")
    wrong = set(map(type, values)) - {int, float}
    if wrong:
        raise ValidationError(f"{name} must hold only numbers, got {min(t.__name__ for t in wrong)}")
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        raise ValidationError(f"{name} holds an integer beyond double range") from None


def operator_to_json(m: DenseOperator) -> dict:
    return {
        "dim": m.dim,
        "local_dims": list(m.local_dims),
        "re": [float(v) for v in m.mat.real.ravel()],
        "im": [float(v) for v in m.mat.imag.ravel()],
    }


def _array_from_json(d: dict, shape: tuple[int, int]) -> np.ndarray:
    """The row-major `re` and `im` lists of `d` (`json_numbers`) as one
    array, real when every `im` entry is zero (`held_dtype`), else
    complex; ValidationError unless every part is finite, checked before
    they are combined, so that no inf or NaN reaches the arithmetic."""
    re = json_numbers(d["re"], "re").reshape(shape)
    im = json_numbers(d["im"], "im").reshape(shape)
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValidationError("re and im entries must all be finite")
    return re + 1j * im if im.any() else re


def operator_from_json(d: dict) -> DenseOperator:
    dim = json_size(d["dim"], "dim")
    local_dims = tuple(json_size(v, "local_dims") for v in d["local_dims"])
    return DenseOperator(_array_from_json(d, (dim, dim)), local_dims)


# A rectangular matrix: {"rows": r, "cols": c, "re": [...], "im": [...]},
# row-major; c may be 0.


def matrix_to_json(m: np.ndarray) -> dict:
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "re": [float(v) for v in m.real.ravel()],
        "im": [float(v) for v in m.imag.ravel()],
    }


def matrix_from_json(d: dict) -> np.ndarray:
    return _array_from_json(d, (json_size(d["rows"], "rows"), json_size(d["cols"], "cols")))
