"""Property: the pruned neighbourhood build equals the dense score table.

:func:`build_neighborhood` enumerates word prefixes and drops one as soon
as the best the remaining letters could add cannot lift it to ``T``. The
claim is exactness: its CSR arrays are element-for-element, dtype for
dtype, those of scoring every word against every position and keeping
``score >= T`` (:func:`tests.conftest.dense_neighborhood`). Drawn over
word lengths 1-4, BLOSUM62 and a match/mismatch matrix, arbitrary residue
codes, random soft masks, and thresholds that keep every word, some, or
none.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alphabet import ALPHABET_SIZE
from repro.matrices import BLOSUM62, match_mismatch_matrix
from repro.seeding import build_neighborhood
from tests.conftest import dense_neighborhood

MATRICES = [BLOSUM62, match_mismatch_matrix(5, -4), match_mismatch_matrix(2, -3)]

#: Bound on the dense table's cells (words x positions) per example, so a
#: threshold that keeps every W=4 word stays a few tens of MB.
MAX_CELLS = 2_000_000


@st.composite
def neighbourhood_cases(draw):
    word_length = draw(st.integers(min_value=1, max_value=4))
    matrix = draw(st.sampled_from(MATRICES))
    max_len = min(60, word_length - 1 + MAX_CELLS // ALPHABET_SIZE**word_length)
    length = draw(st.integers(min_value=word_length, max_value=max_len))
    codes = np.array(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=ALPHABET_SIZE - 1),
                min_size=length,
                max_size=length,
            )
        ),
        dtype=np.uint8,
    )
    lo = word_length * int(matrix.scores.min())
    hi = word_length * int(matrix.scores.max())
    # Below the lowest word score (every word kept), in range, or above
    # the best word score (empty neighbourhood).
    threshold = draw(
        st.one_of(
            st.integers(min_value=lo - 5, max_value=lo),
            st.integers(min_value=lo, max_value=hi),
            st.integers(min_value=hi + 1, max_value=hi + 5),
        )
    )
    mask_kind = draw(st.sampled_from(["none", "random", "all"]))
    if mask_kind == "none":
        masked = None
    elif mask_kind == "all":
        masked = np.ones(length, dtype=bool)
    else:
        masked = np.array(
            draw(st.lists(st.booleans(), min_size=length, max_size=length)),
            dtype=bool,
        )
    return codes, matrix, word_length, threshold, masked


class TestPrunedEqualsDense:
    @settings(max_examples=120, deadline=None)
    @given(neighbourhood_cases())
    def test_csr_arrays_identical(self, case):
        codes, matrix, word_length, threshold, masked = case
        offsets, positions = dense_neighborhood(codes, matrix, word_length, threshold, masked)
        nbr = build_neighborhood(codes, matrix, word_length, threshold, masked)
        assert nbr.offsets.dtype == offsets.dtype
        assert nbr.positions.dtype == positions.dtype
        assert np.array_equal(nbr.offsets, offsets)
        assert np.array_equal(nbr.positions, positions)
        assert nbr.query_length == codes.size
