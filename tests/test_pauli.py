import itertools

import numpy as np
import pytest

from rqtgap.linalg import kron_all, PAULIS
from rqtgap.network import ghz_state
from rqtgap.pauli import (
    OutcomeLabel,
    PauliWord,
    ghz_expectation,
)


def dense_ghz_expectation(w: PauliWord, l: OutcomeLabel) -> complex:
    """Oracle: build everything dense and take the sandwich."""
    phi = ghz_state(l.n, l.value).vec
    return complex(phi.conj() @ w.to_matrix() @ phi)


def test_outcome_label_bits_msb_first():
    l = OutcomeLabel(3, 0b101)
    assert l.bit(1) == 1 and l.bit(2) == 0 and l.bit(3) == 1


def test_outcome_label_range_checked():
    with pytest.raises(ValueError):
        OutcomeLabel(2, 4)


def _word(letters: str) -> PauliWord:
    """The letterwise product as masks: each Y is X Z times i."""
    x = int("".join("1" if c in "XY" else "0" for c in letters), 2)
    z = int("".join("1" if c in "ZY" else "0" for c in letters), 2)
    return PauliWord(len(letters), x, z, letters.count("Y"))


def test_word_matrix_matches_letters():
    for letters in ["X", "ZZ", "XYZ", "YY", "IZXY"]:
        w = _word(letters)
        assert (w.letters, w.phase) == (letters, 1)
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


def test_ghz_expectation_on_label_arrays_equals_the_scalar_calls():
    for n in (1, 2, 3, 4):
        labels = np.arange(1 << n)
        for x, z, phase in itertools.product(range(1 << n), range(1 << n), range(4)):
            w = PauliWord(n, x, z, phase)
            got = ghz_expectation(w, labels)
            assert got.shape == labels.shape
            for l in labels:
                want = ghz_expectation(w, OutcomeLabel(n, int(l)))
                assert type(want) is complex and got[l] == want
        # Any shape of label array gives that shape back.
        np.testing.assert_array_equal(ghz_expectation(w, labels.reshape(-1, 1)), got[:, None])


@pytest.mark.parametrize("bad", [-1, 16])
def test_ghz_expectation_rejects_a_label_out_of_range_in_an_array(bad):
    with pytest.raises(ValueError, match="out of range"):
        ghz_expectation(PauliWord(4, 0, 0b1100), np.array([0, bad, 3]))


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


def test_phase_exponent_wraps():
    w = PauliWord(2, 0, 0, phase_exp=5)
    assert w.phase_exp == 1
    assert w.phase == pytest.approx(1j)
