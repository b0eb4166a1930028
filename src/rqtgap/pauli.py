"""Bitmask Pauli words and closed-form expectations on GHZ-like states.

A word is stored as two n-bit masks (X part, Z part) plus a power of i, so
that word = i^phase_exp * prod_sites X^x Z^z. The letter Y at a site is
X Z with one extra factor of i folded into the global phase. Bit 0 of a
mask is site 1 in the leftmost-most-significant basis convention, i.e.
mask bit (n - i) corresponds to site i.

Expectations against the GHZ-like vectors
|phi_l> = (|l> + (-1)^{l_1} |lbar>)/sqrt(2) are evaluated by a frozen rule
table; the dense module remains the arbiter in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import PAULIS, kron_all

_LETTERS = "IXZY"  # indexed by x_bit + 2*z_bit


@dataclass(frozen=True)
class OutcomeLabel:
    """Eve outcome l = l_1 ... l_n, l_1 the most significant bit."""

    n: int
    value: int

    def __post_init__(self):
        if not 0 <= self.value < (1 << self.n):
            raise ValueError(f"label {self.value} out of range for n={self.n}")

    def bit(self, i: int) -> int:
        """l_i for i = 1..n."""
        return (self.value >> (self.n - i)) & 1


@dataclass(frozen=True)
class PauliWord:
    n: int
    x_mask: int
    z_mask: int
    phase_exp: int = 0  # word includes a factor i**phase_exp

    def __post_init__(self):
        full = (1 << self.n) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise ValueError("mask wider than n sites")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    @property
    def phase(self) -> complex:
        """Phase relative to the letterwise tensor product (+1, -1, +i or -i)."""
        ny = bin(self.x_mask & self.z_mask).count("1")
        return 1j ** ((self.phase_exp - ny) % 4)

    @property
    def letters(self) -> str:
        out = []
        for i in range(self.n - 1, -1, -1):
            xb = (self.x_mask >> i) & 1
            zb = (self.z_mask >> i) & 1
            out.append(_LETTERS[xb + 2 * zb])
        return "".join(out)

    def to_matrix(self) -> np.ndarray:
        return self.phase * kron_all(PAULIS[c] for c in self.letters)


def _parity(x, n: int):
    """Parity of the low n bits of `x`, an int or an integer array, by
    shifts and XOR: each fold halves the width that still holds bits."""
    shift = 1
    while shift < n:
        shift <<= 1
    while shift > 1:
        shift >>= 1
        x = x ^ (x >> shift)
    return x & 1


def ghz_expectation(w: PauliWord, labels):
    """<phi_l| w |phi_l> in closed form.

    `labels` is one `OutcomeLabel`, for a complex, or an integer array of
    label values l, for a complex array of the same shape; a value out of
    range raises ValueError. Only three patterns contribute: words with no
    X/Y letter (the two diagonal terms), words with X or Y on every site
    (the two cross terms), and everything else vanishes. The value is real
    whenever the word is Hermitian; the complex type only matters for
    i-phased words.
    """
    n = w.n
    if isinstance(labels, OutcomeLabel):
        if labels.n != n:
            raise ValueError(f"word has {n} sites, label has {labels.n}")
        values = labels.value
    else:
        values = np.asarray(labels)
        if np.any((values < 0) | (values >= 1 << n)):
            raise ValueError(f"label out of range for n={n}")
    # Diagonal words give <l|Z-part|l> + <lbar|Z-part|lbar>; full-X words
    # flip every bit, the cross terms. Either way the two add up unless the
    # number of Z (for full-X words, Y) letters is odd.
    if w.x_mask not in (0, (1 << n) - 1) or _parity(w.z_mask, n):
        return 0j * values  # zero, in the labels' shape
    parity = _parity(w.z_mask & values, n)
    if w.x_mask:
        parity = parity ^ (values >> (n - 1))  # the cross terms carry (-1)^{l_1}
    return 1j**w.phase_exp * (1 - 2 * parity)

