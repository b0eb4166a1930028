import itertools

import numpy as np
import pytest

from rqtgap.linalg import kron_all, PAULIS
from rqtgap.network import ghz_state
from rqtgap.pauli import (
    OutcomeLabel,
    PauliWord,
    ghz_expectation,
    ideal_spectrum,
)


def dense_ghz_expectation(w: PauliWord, l: OutcomeLabel) -> complex:
    """Oracle: build everything dense and take the sandwich."""
    phi = ghz_state(l.n, l.value).vec
    return complex(phi.conj() @ w.to_matrix() @ phi)


def test_outcome_label_bits_msb_first():
    l = OutcomeLabel(3, 0b101)
    assert l.bits == (1, 0, 1)
    assert l.bit(1) == 1 and l.bit(2) == 0 and l.bit(3) == 1
    assert l.flipped().value == 0b010


def test_outcome_label_range_checked():
    with pytest.raises(ValueError):
        OutcomeLabel(2, 4)


def test_from_letters_roundtrip():
    for letters, phase in [("XZY", 1), ("III", 1), ("YYX", -1), ("ZZ", 1j), ("XY", -1j)]:
        w = PauliWord.from_letters(letters, phase)
        assert (w.letters, w.phase) == (letters, phase)


def test_word_matrix_matches_letters():
    for letters in ["X", "ZZ", "XYZ", "YY", "IZXY"]:
        w = PauliWord.from_letters(letters)
        np.testing.assert_allclose(
            w.to_matrix(), kron_all(PAULIS[c] for c in letters), atol=1e-15
        )


def test_ghz_expectation_exhaustive_small_n():
    for n in (2, 3, 4):
        for l_val in range(1 << n):
            l = OutcomeLabel(n, l_val)
            for x, z in itertools.product(range(1 << n), repeat=2):
                w = PauliWord(n, x, z)
                assert ghz_expectation(w, l) == pytest.approx(
                    dense_ghz_expectation(w, l), abs=1e-10
                )


def test_ghz_expectation_random_words_large_n():
    rng = np.random.default_rng(42)
    for n in (5, 6, 7):
        for _ in range(200):
            l = OutcomeLabel(n, int(rng.integers(0, 1 << n)))
            w = PauliWord(
                n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n))
            )
            assert ghz_expectation(w, l) == pytest.approx(
                dense_ghz_expectation(w, l), abs=1e-10
            )


def test_ghz_expectation_known_values():
    # Stabilizer words of the all-zero GHZ state: X...X and Z_i Z_j.
    for n in (2, 3, 5):
        l = OutcomeLabel(n, 0)
        full = (1 << n) - 1
        assert ghz_expectation(PauliWord(n, full, 0), l) == pytest.approx(1.0)
        zz = (1 << (n - 1)) | (1 << (n - 2))
        assert ghz_expectation(PauliWord(n, 0, zz), l) == pytest.approx(1.0)
        # A single Z is traceless on the balanced superposition.
        assert ghz_expectation(PauliWord(n, 0, 1), l) == pytest.approx(0.0)


def test_ideal_spectrum_values():
    for n in (2, 3, 4):
        for l_val in (0, 1, (1 << n) - 1):
            spec = dict(ideal_spectrum(n, OutcomeLabel(n, l_val)))
            vals = sorted(spec.values())
            assert vals[-1] == pytest.approx(2 * (n - 1))
            # Top eigenvalue is attained exactly at s = l, gap 2.
            assert spec[l_val] == pytest.approx(2 * (n - 1))
            assert vals[-2] <= 2 * (n - 1) - 2 + 1e-12


def test_phase_exponent_wraps():
    w = PauliWord(2, 0, 0, phase_exp=5)
    assert w.phase_exp == 1
    assert w.phase == pytest.approx(1j)
