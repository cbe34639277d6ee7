"""Shared fixtures: small deterministic workloads and pre-built pipelines.

Expensive artifacts (databases, neighbourhoods, device sessions) are
session-scoped — tests treat them as immutable. Anything a test mutates it
must build itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.alphabet import encode
from repro.core import BlastpPipeline, SearchParams
from repro.io import generate_database, generate_query
from repro.io.workloads import WorkloadSpec


@pytest.fixture(scope="session")
def tiny_spec() -> WorkloadSpec:
    """A 24-sequence homolog-rich workload for fast functional tests."""
    return WorkloadSpec(
        name="tiny",
        num_sequences=24,
        mean_length=150,
        homolog_fraction=0.3,
        seed=1234,
        emulated_residues=110_000_000,
    )


@pytest.fixture(scope="session")
def tiny_db(tiny_spec):
    return generate_database(tiny_spec)


@pytest.fixture(scope="session")
def tiny_query(tiny_spec) -> str:
    return generate_query(160, tiny_spec)


@pytest.fixture(scope="session")
def tiny_query_codes(tiny_query) -> np.ndarray:
    return encode(tiny_query)


@pytest.fixture(scope="session")
def tiny_params(tiny_spec) -> SearchParams:
    return SearchParams(**tiny_spec.search_params_kwargs)


@pytest.fixture(scope="session")
def tiny_pipeline(tiny_query, tiny_params) -> BlastpPipeline:
    return BlastpPipeline(tiny_query, tiny_params)


@pytest.fixture(scope="session")
def tiny_cutoffs(tiny_pipeline, tiny_db):
    return tiny_pipeline.cutoffs(tiny_db)


@pytest.fixture(scope="session")
def small_spec() -> WorkloadSpec:
    """A 60-sequence workload for the GPU-kernel integration tests."""
    return WorkloadSpec(
        name="small",
        num_sequences=60,
        mean_length=180,
        homolog_fraction=0.1,
        seed=77,
        emulated_residues=110_000_000,
    )


@pytest.fixture(scope="session")
def small_db(small_spec):
    return generate_database(small_spec)


@pytest.fixture(scope="session")
def small_query(small_spec) -> str:
    return generate_query(220, small_spec)


@pytest.fixture(scope="session")
def small_params(small_spec) -> SearchParams:
    return SearchParams(**small_spec.search_params_kwargs)


@pytest.fixture(scope="session")
def small_pipeline(small_query, small_params) -> BlastpPipeline:
    return BlastpPipeline(small_query, small_params)


@pytest.fixture(scope="session")
def small_cutoffs(small_pipeline, small_db):
    return small_pipeline.cutoffs(small_db)


@pytest.fixture()
def lock_witness():
    """Run one test under the runtime lock witness, asserting it clean.

    Enables the process-global registry *before* the test body runs, so
    every lock constructed through :func:`repro.analysis.witness.new_lock`
    inside the test becomes a witnessed lock. At teardown the observed
    acquisition-order graph must be acyclic and the violation log empty —
    a lock inversion or a blocking call under a lock anywhere in the test
    fails it, even when the run happened not to deadlock.
    """
    from repro.analysis.witness import get_witness_registry

    registry = get_witness_registry()
    was_enabled = registry.enabled
    registry.enable()
    registry.reset()
    try:
        yield registry
        registry.assert_clean()
        assert registry.cycles() == [], registry.snapshot()["cycles"]
    finally:
        registry.reset()
        registry.enabled = was_enabled


def extension_keys(extensions):
    """Canonical comparable form of an extension list."""
    return sorted(
        (e.seq_id, e.query_start, e.query_end, e.subject_start, e.subject_end, e.score)
        for e in extensions
    )


def alignment_keys(alignments):
    """Canonical comparable form of reported alignments."""
    return [
        (a.seq_id, a.score, a.query_start, a.query_end, a.subject_start, a.subject_end)
        for a in alignments
    ]


def all_words(word_length: int) -> np.ndarray:
    """Every word of length ``W`` as residue codes, ``(A**W, W)`` ``uint8``.

    Row ``i`` is the code sequence of the word with index ``i``.
    """
    from repro.alphabet import ALPHABET_SIZE

    idx = np.arange(ALPHABET_SIZE**word_length, dtype=np.int64)
    cols = [
        (idx // ALPHABET_SIZE ** (word_length - 1 - k)) % ALPHABET_SIZE
        for k in range(word_length)
    ]
    return np.stack(cols, axis=1).astype(np.uint8)


def dense_neighborhood(query_codes, matrix, word_length, threshold, masked=None):
    """Reference neighbourhood from the full ``A**W x positions`` score table.

    Scores every word against every query position, thresholds, and reads
    the CSR arrays off ``np.nonzero`` (row-major: grouped by word,
    positions ascending). Returns ``(offsets, positions)`` — the arrays
    :func:`repro.seeding.build_neighborhood` must reproduce exactly.
    """
    from repro.matrices.pssm import build_pssm

    query_codes = np.asarray(query_codes, dtype=np.uint8)
    n_pos = query_codes.size - word_length + 1
    pssm = build_pssm(query_codes, matrix)
    words = all_words(word_length)
    # scores[w, p] = sum_k pssm[words[w, k], p + k]
    scores = np.zeros((words.shape[0], n_pos), dtype=np.int32)
    for k in range(word_length):
        scores += pssm[words[:, k], k : k + n_pos].astype(np.int32)
    if masked is not None:
        bad = np.zeros(n_pos, dtype=bool)
        for k in range(word_length):
            bad |= np.asarray(masked, dtype=bool)[k : k + n_pos]
        scores[:, bad] = np.iinfo(np.int32).min
    word_ids, pos = np.nonzero(scores >= threshold)
    offsets = np.zeros(words.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(word_ids, minlength=words.shape[0]), out=offsets[1:])
    return offsets, pos.astype(np.int32)
