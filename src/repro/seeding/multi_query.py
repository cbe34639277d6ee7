"""Merged multi-query seeding index: one word table for a whole batch.

Per-query search walks the database once per query; the batched sweep
(:mod:`repro.core.sweep`) inverts that by walking the database *once* and
asking, for every subject word, "which positions of which queries match?"
:class:`MultiQueryIndex` is the structure that answers it: the CSR
neighbourhoods of every compiled query in the batch, merged into one
word → ``[(query_id, query_pos)]`` table. Chorus-style multi-query hashed
seeding, restated over this repo's CSR neighbourhoods.

Semantics are pinned by construction: for each query, the hits produced
by :meth:`MultiQueryIndex.sweep_block` (after dropping the query tag) are
exactly the hits :func:`~repro.core.hit_detection.detect_hits` finds for
that query alone — same multiset, grouped per subject window in the same
(query-insertion, ascending query-position) order. The property suite
(``tests/property``) and the unit tests enforce the equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.hits import HitArray
from repro.errors import ConfigError
from repro.io.database import SequenceDatabase
from repro.seeding.words import Neighborhood, num_words, word_indices

if TYPE_CHECKING:
    from repro.engine.compiled import CompiledQuery


@dataclass
class TaggedHits:
    """Query-tagged hits of one database block, structure-of-arrays.

    All arrays are aligned and grouped by ``query_id`` in batch order —
    query ``q``'s hits are the ``per_query[q]`` rows after those of queries
    ``0 .. q-1`` — each query's hits in the order the sweep found them.
    ``seq_id`` / ``subject_pos`` are local to the swept block (the caller
    rebases through :meth:`~repro.io.database.SequenceDatabase.to_global`);
    ``query_id`` indexes the batch the owning :class:`MultiQueryIndex` was
    built from.
    """

    query_id: np.ndarray
    seq_id: np.ndarray
    query_pos: np.ndarray
    subject_pos: np.ndarray
    #: ``int64`` array: hits per batch query (length ``num_queries``).
    per_query: np.ndarray

    def __len__(self) -> int:
        return int(self.seq_id.size)


class MultiQueryIndex:
    """One word → ``[(query_id, query_pos)]`` table for a query batch.

    Built by merging the per-query CSR neighbourhoods: entries of one word
    are grouped by query (batch order) with query positions ascending
    inside each group, so untagging a sweep recovers each query's own
    neighbourhood order. Every query must share one word length — mixed
    seeding geometries cannot share a sweep (:class:`ConfigError`).
    """

    def __init__(
        self,
        word_length: int,
        offsets: np.ndarray,
        positions: np.ndarray,
        query_ids: np.ndarray,
        query_lengths: Sequence[int],
    ) -> None:
        self.word_length = word_length
        self.offsets = offsets
        self.positions = positions
        self.query_ids = query_ids
        self.query_lengths = list(query_lengths)

    @property
    def num_queries(self) -> int:
        return len(self.query_lengths)

    @property
    def total_entries(self) -> int:
        """Total (word, query, position) entries across the batch."""
        return int(self.positions.size)

    @classmethod
    def build(cls, neighborhoods: Sequence[Neighborhood]) -> "MultiQueryIndex":
        """Merge per-query neighbourhoods into one batch table."""
        if not neighborhoods:
            raise ConfigError("a multi-query index needs at least one query")
        word_length = neighborhoods[0].word_length
        for nbr in neighborhoods:
            if nbr.word_length != word_length:
                raise ConfigError(
                    "all queries of a batch must share one word length "
                    f"(got W={word_length} and W={nbr.word_length})"
                )
        n_words = num_words(word_length)
        word_ids = np.arange(n_words, dtype=np.int64)
        # Per entry: its word, owning query, and query position — then one
        # stable sort by word merges the per-query CSR tables while keeping
        # (query order, ascending position) inside each word's slice.
        words = np.concatenate(
            [np.repeat(word_ids, np.diff(nbr.offsets)) for nbr in neighborhoods]
        )
        qids = np.concatenate(
            [
                np.full(nbr.total_entries, q, dtype=np.int32)
                for q, nbr in enumerate(neighborhoods)
            ]
        )
        positions = np.concatenate([nbr.positions for nbr in neighborhoods])
        order = np.argsort(words, kind="stable")
        counts = np.bincount(words, minlength=n_words)
        offsets = np.zeros(n_words + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(
            word_length=word_length,
            offsets=offsets,
            positions=positions[order],
            query_ids=qids[order],
            query_lengths=[nbr.query_length for nbr in neighborhoods],
        )

    @classmethod
    def from_compiled(cls, compiled: "Sequence[CompiledQuery]") -> "MultiQueryIndex":
        """Build from the batch's compiled queries (the usual entry point)."""
        return cls.build([c.lookup.neighborhood for c in compiled])

    def entries_for_word(self, word_index: int) -> tuple[np.ndarray, np.ndarray]:
        """``(query_ids, query_positions)`` whose neighbourhood has the word."""
        lo, hi = self.offsets[word_index], self.offsets[word_index + 1]
        return self.query_ids[lo:hi], self.positions[lo:hi]

    # -- the sweep ---------------------------------------------------------

    def sweep_block(self, db: SequenceDatabase) -> TaggedHits:
        """All hits of every batch query against one database block.

        The same vectorised pass as
        :func:`~repro.core.hit_detection.detect_hits` — word indices for
        all subject windows, one CSR gather, ragged expansion — except the
        gather also carries the query tag, so one walk of the block serves
        the entire batch.
        """
        w = self.word_length
        offsets = db.offsets
        codes = db.codes

        widx_all = word_indices(codes, w)
        if widx_all.size == 0:
            return self._empty()
        window_global = np.arange(widx_all.size, dtype=np.int64)
        # Sequence owning each window start; a window is valid when it
        # ends within the same sequence.
        owner = np.searchsorted(offsets, window_global, side="right") - 1
        valid = window_global + w <= offsets[owner + 1]
        widx = widx_all[valid]
        owner = owner[valid]
        local_pos = window_global[valid] - offsets[owner]

        starts = self.offsets[widx]
        counts = (self.offsets[widx + 1] - starts).astype(np.int64)
        total = int(counts.sum())
        if total == 0:
            return self._empty()

        # Ragged expansion of the CSR slices (the WordLookupTable.scan
        # trick), gathering query ids alongside query positions.
        seq_id = np.repeat(owner, counts)
        subject_pos = np.repeat(local_pos, counts)
        cum = np.cumsum(counts)
        within = np.arange(total, dtype=np.int64) - np.repeat(cum - counts, counts)
        entry = np.repeat(starts, counts) + within
        query_id = self.query_ids[entry]
        per_query = np.bincount(query_id, minlength=self.num_queries).astype(np.int64)
        if self.num_queries > 1:
            # Group by query once (stable, so each query keeps its sweep
            # order); the narrowest id dtype gets numpy's radix sort.
            order = np.argsort(
                query_id.astype(np.min_scalar_type(self.num_queries - 1)), kind="stable"
            )
            query_id, seq_id, subject_pos, entry = (
                query_id[order], seq_id[order], subject_pos[order], entry[order]
            )
        return TaggedHits(
            query_id=query_id,
            seq_id=seq_id,
            query_pos=self.positions[entry].astype(np.int64),
            subject_pos=subject_pos,
            per_query=per_query,
        )

    def _empty(self) -> TaggedHits:
        return TaggedHits(
            query_id=np.zeros(0, dtype=np.int32),
            seq_id=np.zeros(0, dtype=np.int64),
            query_pos=np.zeros(0, dtype=np.int64),
            subject_pos=np.zeros(0, dtype=np.int64),
            per_query=np.zeros(self.num_queries, dtype=np.int64),
        )

    def untag(self, tagged: TaggedHits, query_index: int) -> HitArray:
        """One query's hits of a sweep, as a plain :class:`HitArray`.

        The returned hits are exactly what per-query hit detection finds
        for that query against the same block (same multiset; the
        conformance argument the batched pipeline rests on), in the order
        the sweep found them. The arrays are views into ``tagged``.
        """
        lo = int(tagged.per_query[:query_index].sum())
        hits = slice(lo, lo + int(tagged.per_query[query_index]))
        return HitArray(
            seq_id=tagged.seq_id[hits],
            query_pos=tagged.query_pos[hits],
            subject_pos=tagged.subject_pos[hits],
            query_length=self.query_lengths[query_index],
        )
