"""Word (W-mer) enumeration and query neighbourhoods.

A *word* is a length-``W`` window of residues (``W = 3`` for BLASTP). Words
are identified by their base-``ALPHABET_SIZE`` integer index, so a word list
is just an integer array and neighbourhood lookup is array indexing.

The *neighbourhood* of a query position ``p`` is the set of words ``w``
whose PSSM score against ``query[p : p+W]`` reaches the threshold ``T``
(BLASTP default 11). Hit detection then reports a hit ``(p, s)`` whenever
the subject word at position ``s`` lies in the neighbourhood of ``p``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.alphabet import ALPHABET_SIZE
from repro.errors import SequenceError
from repro.matrices.blosum import ScoringMatrix
from repro.matrices.pssm import build_pssm

#: BLASTP defaults: word length 3, neighbourhood threshold 11.
DEFAULT_WORD_LENGTH = 3
DEFAULT_THRESHOLD = 11


def num_words(word_length: int = DEFAULT_WORD_LENGTH) -> int:
    """Number of distinct words of the given length (``ALPHABET_SIZE ** W``)."""
    return ALPHABET_SIZE**word_length


def word_indices(codes: np.ndarray, word_length: int = DEFAULT_WORD_LENGTH) -> np.ndarray:
    """Word index of every length-``W`` window of a code sequence.

    Parameters
    ----------
    codes:
        ``uint8`` residue codes.
    word_length:
        Window size ``W``.

    Returns
    -------
    numpy.ndarray
        ``int64`` array of length ``len(codes) - W + 1`` (empty when the
        sequence is shorter than ``W``).
    """
    codes = np.asarray(codes, dtype=np.uint8)
    n = codes.size - word_length + 1
    if n <= 0:
        return np.zeros(0, dtype=np.int64)
    out = np.zeros(n, dtype=np.int64)
    for k in range(word_length):
        out *= ALPHABET_SIZE
        out += codes[k : k + n]
    return out


@dataclass(frozen=True)
class Neighborhood:
    """Inverted word -> query-position mapping in CSR form.

    For word index ``w``, the matching query positions are
    ``positions[offsets[w] : offsets[w + 1]]`` — sorted ascending, which the
    GPU hit-detection kernel relies on for deterministic binning order.

    Attributes
    ----------
    word_length:
        ``W``.
    threshold:
        Neighbourhood score threshold ``T``.
    offsets:
        ``int64`` array of length ``num_words + 1``.
    positions:
        ``int32`` array of query positions, grouped by word.
    query_length:
        Length of the query the neighbourhood was built from.
    """

    word_length: int
    threshold: int
    offsets: np.ndarray
    positions: np.ndarray
    query_length: int

    def positions_for_word(self, word_index: int) -> np.ndarray:
        """Query positions whose neighbourhood contains ``word_index``."""
        return self.positions[self.offsets[word_index] : self.offsets[word_index + 1]]

    @property
    def total_entries(self) -> int:
        """Total number of (word, position) pairs in the neighbourhood."""
        return int(self.positions.size)

    @property
    def max_positions_per_word(self) -> int:
        """Largest position list over all words (bin sizing uses this)."""
        if self.positions.size == 0:
            return 0
        return int(np.diff(self.offsets).max())


def build_neighborhood(
    query_codes: np.ndarray,
    matrix: ScoringMatrix,
    word_length: int = DEFAULT_WORD_LENGTH,
    threshold: int = DEFAULT_THRESHOLD,
    masked: np.ndarray | None = None,
) -> Neighborhood:
    """Build the neighbourhood of every query position.

    Branch and bound over word prefixes: every query position grows its
    candidate words one letter at a time, and a prefix is kept only while
    its score plus the best the remaining letters could add (the sum of
    the PSSM's per-column maxima over them) still reaches ``T``. The bound
    never underestimates and the last letter is tested with the exact
    ``score >= T``, so the survivors are exactly the ``(word, position)``
    pairs a full score table would keep — without building that table.

    Parameters
    ----------
    masked:
        Optional boolean low-complexity mask over query residues (SEG,
        soft masking): positions whose word overlaps a masked residue are
        excluded from the neighbourhood — no seeding there — while
        extension scoring (the PSSM) keeps the original residues.

    Raises
    ------
    SequenceError
        When the query is shorter than the word length.
    """
    query_codes = np.asarray(query_codes, dtype=np.uint8)
    qlen = query_codes.size
    n_pos = qlen - word_length + 1
    if n_pos <= 0:
        raise SequenceError(f"query of length {qlen} is shorter than W={word_length}")
    # Row p of the transposed PSSM: the score of every letter at position p.
    pssm_t = np.ascontiguousarray(build_pssm(query_codes, matrix).T, dtype=np.int32)
    pos = np.arange(n_pos, dtype=np.int64)
    if masked is not None:
        masked = np.asarray(masked, dtype=bool)
        if masked.size != qlen:
            raise SequenceError("mask length must equal query length")
        bad = np.zeros(n_pos, dtype=bool)
        for k in range(word_length):
            bad |= masked[k : k + n_pos]
        pos = pos[~bad]
    # rest[k, p]: the most letters k+1 .. W-1 of a word at position p can add.
    col_max = pssm_t.max(axis=1)
    rest = np.zeros((word_length, n_pos), dtype=np.int32)
    for k in range(word_length - 2, -1, -1):
        rest[k] = rest[k + 1] + col_max[k + 1 : k + 1 + n_pos]
    word = np.zeros(pos.size, dtype=np.int64)
    score = np.zeros(pos.size, dtype=np.int32)
    for k in range(word_length):
        # Every surviving prefix extended by every letter; keep the pairs
        # that can still reach T.
        extended = score[:, None] + pssm_t[pos + k]
        keep = np.flatnonzero(extended >= (threshold - rest[k, pos])[:, None])
        prefix, letter = np.divmod(keep, ALPHABET_SIZE)
        score = extended.ravel()[keep]
        word = word[prefix] * ALPHABET_SIZE + letter
        pos = pos[prefix]
    # Survivors come out grouped by position; regroup by word, positions
    # ascending inside each word (keys are unique, so the order is total).
    key = np.sort(word * n_pos + pos)
    n_words = num_words(word_length)
    counts = np.bincount(key // n_pos, minlength=n_words)
    offsets = np.zeros(n_words + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return Neighborhood(
        word_length=word_length,
        threshold=threshold,
        offsets=offsets,
        positions=(key % n_pos).astype(np.int32),
        query_length=qlen,
    )
