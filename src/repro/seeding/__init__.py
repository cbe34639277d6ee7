"""Seeding structures: W-mer words, neighbourhoods, and lookup structures.

Hit detection needs, for every length-``W`` word of a subject sequence, the
list of query positions whose neighbourhood contains that word. Two
interchangeable structures provide that mapping:

* :class:`~repro.seeding.lookup.WordLookupTable` — the flat, word-indexed
  table classic BLAST uses on the CPU;
* :class:`~repro.seeding.dfa.QueryDFA` — the deterministic finite automaton
  of Cameron et al. (Fig. 2a), whose small state table is what cuBLASTP
  pins in shared memory while the position lists ride the read-only cache.

Both are built from the same neighbourhood (:func:`build_neighborhood`) and
yield byte-identical hits; tests enforce this equivalence.
"""

from repro.seeding.dfa import QueryDFA
from repro.seeding.multi_query import MultiQueryIndex, TaggedHits
from repro.seeding.seg import masked_fraction, seg_mask, window_entropy
from repro.seeding.lookup import WordLookupTable
from repro.seeding.words import (
    DEFAULT_THRESHOLD,
    DEFAULT_WORD_LENGTH,
    Neighborhood,
    build_neighborhood,
    num_words,
    word_indices,
)

__all__ = [
    "DEFAULT_THRESHOLD",
    "DEFAULT_WORD_LENGTH",
    "MultiQueryIndex",
    "Neighborhood",
    "QueryDFA",
    "TaggedHits",
    "WordLookupTable",
    "build_neighborhood",
    "masked_fraction",
    "num_words",
    "seg_mask",
    "window_entropy",
    "word_indices",
]
