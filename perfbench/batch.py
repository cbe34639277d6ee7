"""``batch``: one mixed-length query batch through the db-sweep process backend.

The process backend with two workers, the configuration the
block-parallel sweep exists for. Nearly all work is in ``seeding`` and
``core``; it is the only workload that runs ``engine.procpool`` (fork,
block dispatch, extension marshalling, the parent-serial tail of phases
3+4), and it never touches ``serve``.
An operation is one query; its latency runs from the batch's start to
the moment the executor yields the query's outcome.
"""

from __future__ import annotations

import hashlib
import os
import statistics
from contextlib import nullcontext
from time import perf_counter

from perfbench import inputs
from perfbench.common import (
    SETUP_SAMPLES,
    Outcome,
    PeakPss,
    end_to_end,
    layer_metrics,
    probe_setup,
    reference_payloads,
)
from perfbench.spans import Totals, build, read_worker_spans

EXECUTOR = {"mode": "db-sweep", "backend": "process", "jobs": 2}
#: Latency limit behind ``slo_attain``: a query's result within this of its batch's start.
SLO_MS = 8000.0


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _digest(outcome, latency: float) -> tuple:
    """What the check needs of one outcome: its id, error, payload digest and latency."""
    from repro.verify.canonical import payload_to_bytes, result_to_payload

    if outcome.error is not None:
        return outcome.query_id, outcome.error, None, latency
    return outcome.query_id, None, _sha256(payload_to_bytes(result_to_payload(outcome.result))), latency


def run(ctx) -> Outcome:
    from repro.engine import BatchExecutor, make_engine

    db = ctx.dir / "batch.rpdb"
    inputs.save_database("batch", ctx.seed, db)
    queries = inputs.batch_queries(ctx.seed)
    setup = [] if ctx.tracer else [probe_setup("batch", db, EXECUTOR) for _ in range(SETUP_SAMPLES)]

    tracer = ctx.tracer
    if tracer:
        tracer.enabled = True
    executor = BatchExecutor(make_engine("reference"), **EXECUTOR)
    walls: dict[bool, list[float]] = {False: [], True: []}
    # Per batch, ``(query_id, error, payload digest, latency)`` per outcome:
    # only digests outlive a batch, so what the window holds does not grow
    # with the number of batches that fit in it.
    done: list[list[tuple]] = []
    traced_ops = 0
    try:
        list(executor.stream(queries[:1], db))  # untimed warm-up: store open, imports
        if tracer:
            tracer.enabled = False
        window_start = perf_counter()
        with PeakPss(os.getpid()) as pss:
            while True:
                # A traced run alternates untraced and traced batches; the
                # walls of the two kinds give the tracing overhead.
                traced = bool(tracer) and len(walls[False]) > len(walls[True])
                if traced:
                    tracer.enabled = True
                batch = []
                t0 = perf_counter()
                with tracer.span("bench.batch") if traced else nullcontext():
                    for outcome in executor.stream(queries, db):
                        batch.append((outcome, perf_counter() - t0))
                wall = perf_counter() - t0
                if tracer:
                    tracer.enabled = False
                walls[traced].append(wall)
                traced_ops += len(queries) if traced else 0
                done.append([_digest(outcome, latency) for outcome, latency in batch])
                every = walls[False] + walls[True]
                if (walls[True] or not tracer) and (
                        perf_counter() - window_start + statistics.median(every) > ctx.seconds):
                    break
    finally:
        executor.close()

    # Checked after the window, so the check's memory is not the program's.
    expected = {query_id: _sha256(payload) for query_id, payload in reference_payloads(queries, db).items()}
    latencies: list[float] = []
    attempted = failed = mismatches = within = 0
    for batch in done:
        attempted += len(queries)
        failed += len(queries) - len(batch)
        for query_id, error, digest, latency in batch:
            if error is not None:
                failed += 1
                continue
            ok = digest == expected[query_id]
            mismatches += not ok
            failed += not ok
            if ok:
                latencies.append(latency)
                within += latency * 1e3 <= SLO_MS
    record = {
        "config": {"engine": "reference", **EXECUTOR},
        "load": {"loop": "closed", "clients": 1, "batch_queries": len(queries),
                 "query_lengths": [len(s) for _, s in queries],
                 "db_sequences": inputs.BATCH_SEQUENCES},
        "batches": {"untraced": len(walls[False]), "traced": len(walls[True])},
        "slo_ms": SLO_MS,
        "latency_samples": len(latencies),
        "setup_samples_s": setup,
    }
    if not tracer:
        qps = len(queries) / statistics.median(walls[False])
        metrics = end_to_end(setup, pss.mb, qps, latencies, within, attempted)
        return Outcome(attempted, failed, mismatches, metrics, record)

    parent = tracer.take()
    workers = read_worker_spans(ctx.dir)
    main_pid = os.getpid()
    # Each traced pool start (the warm-up and every traced batch) forks
    # ``jobs`` workers, and each writes one span file under its own PID.
    # A worker that died before its finaliser ran, or a reused PID that
    # overwrote a file, would silently drop that worker's spans.
    expected_files = EXECUTOR["jobs"] * (len(walls[True]) + 1)
    worker_pids = {pid for pid, _ in workers}
    invalid = None
    if len(workers) != expected_files or len(worker_pids) != expected_files:
        invalid = (f"expected span files from {expected_files} distinct pool workers, "
                   f"found {len(workers)} files from {len(worker_pids)} PIDs")
    setup_spans = build([(pid, [s for s in raw if s[3] < window_start])
                         for pid, raw in [(main_pid, parent)] + workers])
    spans = build([(pid, [s for s in raw if s[3] >= window_start])
                   for pid, raw in [(main_pid, parent)] + workers])
    # Attributed time is time inside a layer span. The benchmark's own span
    # around each batch and the executor's code outside every wrapped layer
    # function (``engine.stream`` self time: pool construction, result
    # accumulation, cutoffs, the sweep's finish between phases 3 and 4)
    # are the remainder.
    ops = [s for s in spans if s.name == "bench.batch"]
    wall = sum(s.dur for s in ops)
    remainder = sum(s.self_time for s in spans if s.pid == main_pid and s.name in ("bench.batch", "engine.stream"))
    extra = {
        "coverage": 1.0 - remainder / wall,
        "remainder_ms": 1e3 * remainder / traced_ops,
        "overhead_frac": statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0,
    }
    metrics = layer_metrics(Totals().add(spans), traced_ops, Totals().add(setup_spans), extra)
    record["trace"] = {"worker_span_files": len(workers), "worker_span_files_expected": expected_files,
                       "parent_pid": main_pid}
    return Outcome(attempted, failed, mismatches, metrics, record, invalid)
