"""``serve_open``: the search service, cold, under an open loop.

``SearchService`` runs in-process with the ``repro serve`` defaults and
``engine=reference``. One generator thread submits distinct queries on
a fixed schedule, and a request's latency runs from its *scheduled*
arrival to the resolution of its future, so a stall is charged to every
request it delays. Every request misses the cache: admission, the
coalescer window, dispatcher queueing, small-batch execution,
per-request compile, payload encoding and cache writes. An open loop
over at most two non-pipelined HTTP connections is impossible, hence
in-process.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from time import perf_counter

from perfbench import inputs
from perfbench.common import (
    SETUP_SAMPLES,
    Outcome,
    end_to_end,
    layer_metrics,
    peak_rss_mb,
    percentile,
    probe_setup,
    reference_payloads,
)
from perfbench.spans import Totals, build

#: Latency limit behind ``slo_attain`` (ms).
OPEN_SLO_MS = 400.0
#: The arrival generator counts as fallen behind past these lateness figures.
LATE_P99_LIMIT_MS = 50.0
LATE_MAX_LIMIT_MS = 250.0



def _service_config(service) -> dict:
    executor = service.executor
    return {
        "engine": getattr(service.engine, "name", type(service.engine).__name__),
        "backend": executor.backend,
        "jobs": executor.jobs,
        "mode": executor.mode,
        "window_ms": service.window_ms,
        "max_batch": service.coalescer.max_batch,
        "max_pending": service.max_pending,
        "cache_capacity": service.cache.capacity,
    }


class _OpenLoop:
    """One pass of scheduled arrivals against a started service."""

    def __init__(self, service, offsets: list[float], queries: list[tuple[str, str]]) -> None:
        n = len(queries)
        self.service, self.offsets, self.queries = service, offsets, queries
        self.late = [0.0] * n
        self.done: list[float | None] = [None] * n
        self.results: list[object] = [None] * n
        self._left = n
        self._lock = threading.Lock()
        self._finished = threading.Event()

    def _finish(self, i: int, value: object) -> None:
        self.done[i] = perf_counter()
        self.results[i] = value
        with self._lock:
            self._left -= 1
            if self._left == 0:
                self._finished.set()

    def _resolve(self, i: int, future) -> None:
        error = future.exception()
        self._finish(i, error if error is not None else future.result())

    def _generate(self) -> None:
        for i, offset in enumerate(self.offsets):
            target = self.start + offset
            delay = target - perf_counter()
            if delay > 0:
                time.sleep(delay)
            self.late[i] = perf_counter() - target
            try:
                future = self.service.submit(*self.queries[i])
            except Exception as exc:  # shed or closed: a failed request
                self._finish(i, exc)
                continue
            future.add_done_callback(lambda f, i=i: self._resolve(i, f))

    def run(self, timeout: float) -> "_OpenLoop":
        self.start = perf_counter() + 0.05
        generator = threading.Thread(target=self._generate, name="perfbench-arrivals")
        generator.start()
        generator.join()
        if not self._finished.wait(timeout):
            raise RuntimeError("open-loop requests still unresolved at the deadline")
        return self

    def latency(self, i: int) -> float:
        return self.done[i] - (self.start + self.offsets[i])

    def check(self, expected: dict[str, bytes]) -> tuple[list[int], int, int]:
        """``(indices answered correctly, failed, mismatches)``."""
        ok, failed, mismatches = [], 0, 0
        for i, (query_id, _) in enumerate(self.queries):
            result = self.results[i]
            payload = getattr(result, "payload", None)
            if payload is None:
                failed += 1
            elif payload != expected[query_id]:
                failed += 1
                mismatches += 1
            else:
                ok.append(i)
        return ok, failed, mismatches

    def lateness_ms(self) -> dict[str, float]:
        late = [1e3 * t for t in self.late]
        return {"p99": percentile(late, 99), "max": max(late)}


def _generator_problem(loops: list[_OpenLoop]) -> str | None:
    for loop in loops:
        late = loop.lateness_ms()
        if late["p99"] > LATE_P99_LIMIT_MS or late["max"] > LATE_MAX_LIMIT_MS:
            return (f"the arrival generator fell behind (lateness p99 {late['p99']:.1f} ms, "
                    f"max {late['max']:.1f} ms; limits {LATE_P99_LIMIT_MS} / {LATE_MAX_LIMIT_MS} ms)")
    return None


def run(ctx) -> Outcome:
    from repro.serve import SearchService

    db = ctx.dir / "serve.rpdb"
    inputs.save_database("serve", ctx.seed, db)
    tracer = ctx.tracer
    # A traced run makes two half-length passes over one schedule: untraced,
    # then traced, with the cache cleared between them.
    schedule = inputs.open_schedule(ctx.seed, ctx.seconds / 2 if tracer else ctx.seconds)
    setup = [] if tracer else [probe_setup("serve_open", db) for _ in range(SETUP_SAMPLES)]

    if tracer:
        tracer.enabled = True
    service = SearchService(db, engine="reference").start()
    try:
        for query in inputs.warmup_queries(ctx.seed):  # untimed: store open, lazy imports
            service.search(*query)
        record = {
            "config": _service_config(service),
            "load": {"loop": "open", "rate_per_s": inputs.OPEN_RATE, "requests": len(schedule.queries),
                     "generator_threads": 1, "db_sequences": inputs.SERVE_SEQUENCES},
            "slo_ms": OPEN_SLO_MS,
            "setup_samples_s": setup,
        }
        timeout = ctx.seconds + 120
        if not tracer:
            loop = _OpenLoop(service, schedule.offsets, schedule.queries).run(timeout)
            peak_mb = peak_rss_mb(os.getpid())
            loops = [loop]
        else:
            tracer.enabled = False
            setup_spans = tracer.take()
            untraced = _OpenLoop(service, schedule.offsets, schedule.queries).run(timeout)
            service.cache.clear()
            before = service.stats_dict()
            tracer.enabled = True
            loop = _OpenLoop(service, schedule.offsets, schedule.queries).run(timeout)
            tracer.enabled = False
            after = service.stats_dict()
            loops = [untraced, loop]
    finally:
        service.close()

    # Checked after the window, so the check's memory is not the program's.
    expected = reference_payloads(schedule.queries, db)
    record["generator_lateness_ms"] = [lp.lateness_ms() for lp in loops]
    checks = [lp.check(expected) for lp in loops]
    attempted = sum(len(lp.queries) for lp in loops)
    failed = sum(f for _, f, _ in checks)
    mismatches = sum(m for _, _, m in checks)
    invalid = _generator_problem(loops)
    ok = checks[-1][0]
    latencies = [loop.latency(i) for i in ok]
    record["latency_samples"] = len(latencies)
    if not tracer:
        within = sum(1e3 * t <= OPEN_SLO_MS for t in latencies)
        qps = len(ok) / (max(d for d in loop.done if d is not None) - loop.start)
        metrics = end_to_end(setup, peak_mb, qps, latencies, within, attempted)
        return Outcome(attempted, failed, mismatches, metrics, record, invalid)

    spans = build([(os.getpid(), tracer.take())])
    extra = _open_attribution(spans, loop, ok)
    extra["overhead_frac"] = (statistics.mean(latencies)
                              / statistics.mean(untraced.latency(i) for i in checks[0][0]) - 1.0)
    extra["shed"] = after["shed"] - before["shed"]
    extra["failed"] = after["failed"] - before["failed"]
    record["trace"] = {"held_in_coalescer_ms": extra["held_ms"],
                       "coverage_without_coalescer_hold": extra["coverage_without_hold"]}
    metrics = layer_metrics(Totals().add(spans), len(loop.queries),
                            Totals().add(build([(os.getpid(), setup_spans)])), extra)
    return Outcome(attempted, failed, mismatches, metrics, record, invalid)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for t0, t1 in sorted(intervals):
        t0, t1 = max(t0, reach), min(t1, hi)
        if t1 > t0:
            total += t1 - t0
            reach = t1
    return total


def _open_attribution(spans, loop: _OpenLoop, ok: list[int]) -> dict[str, float]:
    """Split each request's latency, scheduled arrival to resolution, into named spans.

    Attributed is every instant covered by one of: the request's own
    ``serve.submit``; its time held in the coalescer, from the
    ``Coalescer.add`` that took it to the ``add``/``flush`` that closed
    its batch (the window, and the wait for a dispatcher still busy with
    an earlier batch); and any layer span running meanwhile (the earlier
    batch's, then its own batch's compute, encode and cache put).
    ``engine.stream``'s self time — executor code outside every wrapped
    layer function — and the dispatcher's own code between spans are not
    attributed; neither are generator lateness and the future hand-off.
    """
    submit = {s.attrs["id"]: s for s in spans if s.name == "serve.submit"}
    arrived = {s.attrs["arrived"]: s for s in spans if s.name == "serve.coalesce" and "arrived" in s.attrs}
    closed = {query_id: s for s in spans if s.name == "serve.coalesce" for query_id in s.attrs["closed"]}
    first_segment = {}
    for s in spans:
        if s.name == "engine.stream" and "ids" in s.attrs:
            for query_id in s.attrs["ids"]:
                first_segment[query_id] = s
    # Spans of other requests' submits ran on the generator thread, not on this request's path.
    off_path = ("engine.stream", "serve.submit", "serve.coalesce", "serve.cache_get")
    layer = [(s.t0, s.t1) for s in spans if s.name not in off_path]
    total_latency = attributed = unheld = queue_wait = held = 0.0
    for i in ok:
        query_id = loop.queries[i][0]
        arrival, done = loop.start + loop.offsets[i], loop.done[i]
        sub = submit[query_id]
        hold = (arrived[query_id].t1, closed[query_id].t0)
        attributed += _covered([(sub.t0, sub.t1), hold, *layer], arrival, done)
        unheld += _covered([(sub.t0, sub.t1), *layer], arrival, done)
        held += max(0.0, hold[1] - hold[0])
        queue_wait += first_segment[query_id].t0 - sub.t1
        total_latency += loop.latency(i)
    n = max(len(ok), 1)
    return {
        "coverage": attributed / total_latency if total_latency else 0.0,
        "remainder_ms": 1e3 * (total_latency - attributed) / n,
        "queue_wait_ms": 1e3 * queue_wait / n,
        "held_ms": 1e3 * held / n,
        "coverage_without_hold": unheld / total_latency if total_latency else 0.0,
    }
