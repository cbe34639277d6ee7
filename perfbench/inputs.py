"""Seeded input generators for the two workloads.

``--seed`` is the only input: the ``batch`` database and every query
derive from it, so the same seed gives the same
inputs. Query lengths and inter-arrival gaps are *stratified*: every run
gets the same quantiles of the target distribution.

``serve_open`` searches one fixed database and replays one fixed
arrival order, both drawn from :data:`SERVE_FIXED_SEED`:
a seed changes what is searched, not what it is searched against or when
it arrives. A service's database changes far less often than its
queries; with a seeded 100-sequence database, how many homologs the
queries met moved the mean service time between 60 and 87 ms across five
seeds. A fixed arrival order also lets a parent and a change be measured
on the same bursts, and removes one source of spread from a p90 that has
only ten samples beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from repro.io.workloads import WorkloadSpec, generate_database, generate_query

#: ``batch``: database size and the paper's query-length mix (Table 1),
#: cycled through one batch.
BATCH_SEQUENCES = 1500
BATCH_MEAN_LENGTH = 370
BATCH_LENGTHS = (127, 517, 1054)
BATCH_QUERIES = 6

#: ``serve_open``: a small database, so one request costs
#: tens of milliseconds and a run holds enough requests for its p90.
SERVE_SEQUENCES = 100
SERVE_MEAN_LENGTH = 370
#: Protein-typical query lengths: log-normal around this median.
QUERY_MEDIAN_LENGTH = 220
QUERY_LENGTH_SIGMA = 0.45
QUERY_LENGTH_RANGE = (40, 1200)

#: ``serve_open`` offered rate (requests per second).
OPEN_RATE = 4.0
#: Fixed draw behind the serve database and the ``serve_open`` arrival order.
SERVE_FIXED_SEED = 20140519
#: Untimed serve queries that force lazy set-up before the window.
WARMUP_QUERIES = 4


def _subseed(seed: int, stream: int) -> int:
    """An independent 31-bit seed for one named draw of a workload."""
    return int(np.random.default_rng([seed, stream]).integers(1, 2**31 - 1))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def database_spec(workload: str, seed: int) -> WorkloadSpec:
    """The synthetic database of ``workload`` under ``seed``."""
    if workload == "batch":
        return WorkloadSpec(
            name="bench_batch",
            num_sequences=BATCH_SEQUENCES,
            mean_length=BATCH_MEAN_LENGTH,
            seed=_subseed(seed, 1),
        )
    return WorkloadSpec(
        name="bench_serve",
        num_sequences=SERVE_SEQUENCES,
        mean_length=SERVE_MEAN_LENGTH,
        seed=SERVE_FIXED_SEED,
    )


def save_database(workload: str, seed: int, path) -> None:
    """Generate the workload's database and save it as an ``.rpdb`` file."""
    generate_database(database_spec(workload, seed)).save(path)


def batch_queries(seed: int) -> list[tuple[str, str]]:
    """The ``batch`` query batch: lengths cycle 127/517/1054."""
    spec = database_spec("batch", seed)
    lengths = [BATCH_LENGTHS[i % len(BATCH_LENGTHS)] for i in range(BATCH_QUERIES)]
    return [(f"b{i}_{n}", generate_query(n, spec, query_seed=i)) for i, n in enumerate(lengths)]


def protein_lengths(count: int, rng: np.random.Generator) -> list[int]:
    """``count`` stratified log-normal query lengths in shuffled order."""
    normal = NormalDist(mu=float(np.log(QUERY_MEDIAN_LENGTH)), sigma=QUERY_LENGTH_SIGMA)
    lo, hi = QUERY_LENGTH_RANGE
    lengths = [
        int(min(hi, max(lo, round(float(np.exp(normal.inv_cdf((k + 0.5) / count)))))))
        for k in range(count)
    ]
    return [lengths[i] for i in rng.permutation(count)]


def distinct_queries(seed: int, lengths: list[int], tag: str, stream: int) -> list[tuple[str, str]]:
    """Distinct queries of the given lengths sharing the serve database's domains."""
    spec = database_spec("serve", seed)
    first = _subseed(seed, stream)
    out: list[tuple[str, str]] = []
    seen: set[str] = set()
    for i, n in enumerate(lengths):
        sequence = generate_query(n, spec, query_seed=first + i)
        if sequence in seen:
            raise RuntimeError(f"generated a repeated query (seed {seed}, #{i})")
        seen.add(sequence)
        out.append((f"{tag}{i}_{n}", sequence))
    return out


@dataclass(frozen=True)
class OpenSchedule:
    """An open-loop arrival schedule: offsets (s) from the window start."""

    offsets: list[float]
    queries: list[tuple[str, str]]


def open_schedule(seed: int, seconds: float) -> OpenSchedule:
    """Poisson-like arrivals at :data:`OPEN_RATE` over ``seconds``, one distinct query each.

    The gaps are the exponential distribution's stratified quantiles in
    the fixed :data:`SERVE_FIXED_SEED` order, scaled to span the window;
    the query lengths follow their own fixed order. The residues of
    every query come from ``seed``.
    """
    count = max(1, int(round(OPEN_RATE * seconds)))
    rng = np.random.default_rng(SERVE_FIXED_SEED)
    gaps = np.array([-np.log(1.0 - (k + 0.5) / count) for k in range(count)])[rng.permutation(count)]
    offsets = np.concatenate(([0.0], np.cumsum(gaps[:-1])))
    offsets *= seconds / (offsets[-1] + gaps[-1])
    queries = distinct_queries(seed, protein_lengths(count, rng), "o", stream=6)
    return OpenSchedule(offsets=[float(t) for t in offsets], queries=queries)


def warmup_queries(seed: int) -> list[tuple[str, str]]:
    """Serve-database queries outside every timed set (they force lazy set-up)."""
    return distinct_queries(seed, protein_lengths(WARMUP_QUERIES, _rng(seed, 7)), "w", stream=7)
