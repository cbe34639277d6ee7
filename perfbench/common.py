"""Shared pieces of the workloads: program start-up, memory, checks, metrics."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

from perfbench.spans import Totals

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 7
#: Sampling interval of :class:`PeakPss` (seconds).
PSS_INTERVAL_S = 0.2


@dataclass
class Outcome:
    """What one workload run reports."""

    attempted: int
    failed: int
    mismatches: int
    metrics: dict[str, tuple[float, str]]
    record: dict[str, Any] = field(default_factory=dict)
    #: Why the run cannot stand as a measurement (``None`` when valid).
    invalid: str | None = None


def child_env() -> dict[str, str]:
    """Environment for program processes: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def probe_setup(workload: str, db: Path, config: dict | None = None) -> float:
    """Seconds from spawning ``probe.py`` until it reports ready."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "probe.py"), workload, str(db), json.dumps(config or {})],
        stdout=subprocess.PIPE,
        env=child_env(),
        text=True,
    )
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {proc.returncode})")
    return ready


def reference_payloads(queries: list[tuple[str, str]], db: Path) -> dict[str, bytes]:
    """Canonical payload bytes of each query on the per-query thread path."""
    from repro.engine import BatchExecutor, make_engine
    from repro.io.store import DatabaseStore
    from repro.verify.canonical import payload_to_bytes, result_to_payload

    # A store of its own: the program under test must open the database
    # itself, as it would without the check.
    executor = BatchExecutor(
        make_engine("reference"), mode="per-query", backend="thread", jobs=1,
        collect_reports=False, store=DatabaseStore(),
    )
    out: dict[str, bytes] = {}
    for outcome in executor.stream(queries, db):
        if outcome.error is not None:
            raise RuntimeError(f"reference search of {outcome.query_id} failed: {outcome.error!r}")
        out[outcome.query_id] = payload_to_bytes(result_to_payload(outcome.result))
    return out


def _proc_kib(path: str, key: str) -> int:
    """A ``key: N kB`` line of a ``/proc`` file (0 once the process is gone)."""
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(pid: int) -> float:
    """The kernel's resident-memory high-water mark of one process (MB)."""
    return _proc_kib(f"/proc/{pid}/status", "VmHWM") / 1024.0


def _process_tree(root: int) -> list[int]:
    """``root`` and every live descendant, from ``/proc/*/stat``."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rpartition(")")[2].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    tree, todo = [], [root]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        todo.extend(children.get(pid, ()))
    return tree


class PeakPss:
    """Peak of the summed proportional set size of a process tree.

    For a program whose worker processes come and go (the batch pool).
    Pss splits each page among the processes that share it, so pages a
    forked worker shares with its parent (interpreter, numpy, the mapped
    database) count once, not once per process. Sampled every
    :data:`PSS_INTERVAL_S`; a single process's peak is exact from
    :func:`peak_rss_mb`.
    """

    def __init__(self, root: int) -> None:
        self.root = root
        self.peak_kib = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="perfbench-pss", daemon=True)

    def _sample(self) -> None:
        total = sum(_proc_kib(f"/proc/{pid}/smaps_rollup", "Pss") for pid in _process_tree(self.root))
        self.peak_kib = max(self.peak_kib, total)

    def _loop(self) -> None:
        while not self._stop.wait(PSS_INTERVAL_S):
            self._sample()

    def __enter__(self) -> "PeakPss":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    @property
    def mb(self) -> float:
        return self.peak_kib / 1024.0


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def supported_percentile(q: float, n: int) -> float:
    """``q``, or the highest percentile with ten of ``n`` samples beyond it.

    A percentile with fewer samples beyond it than that reads one or two
    extreme samples, and moved by a third between runs of one workload.
    """
    return max(50.0, min(q, 100.0 * (1.0 - 10.0 / n))) if n else q


def end_to_end(
    setup_samples: list[float],
    peak_mb: float,
    qps: float,
    latencies_s: list[float],
    within_slo: int,
    attempted: int,
) -> dict[str, tuple[float, str]]:
    """The six end-to-end metrics, from one run's raw measurements.

    A p90 a run's sample cannot support is read at
    :func:`supported_percentile` instead (``batch``'s few queries).
    """
    lat_ms = [1e3 * t for t in latencies_s]
    n = len(lat_ms)
    return {
        "setup_s": (float(np.median(setup_samples)), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "qps": (qps, "1/s"),
        "latency_p50_ms": (percentile(lat_ms, 50), "ms"),
        "latency_p90_ms": (percentile(lat_ms, supported_percentile(90, n)), "ms"),
        "slo_attain": (within_slo / attempted if attempted else 0.0, "frac"),
    }


def layer_metrics(
    window: Totals, ops: int, setup: Totals, extra: dict[str, float]
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric: ``window`` spans per operation, ``setup`` spans per start.

    Times are self times. A layer the workload does not reach reads 0.
    ``extra`` supplies what spans alone cannot give (queue wait, shed
    and failed counts, coverage, overhead).
    """
    ops = max(ops, 1)
    st, cnt, at = window.self_time, window.count, window.attrs

    def ms(name: str) -> tuple[float, str]:
        return 1e3 * st.get(name, 0.0) / ops, "ms/op"

    def per(value: float) -> tuple[float, str]:
        return value / ops, "1/op"

    def frac(num: float, den: float) -> tuple[float, str]:
        return (num / den if den else 0.0), "frac"

    hits = at.get("seeding.sweep_block.hits", 0.0)
    seeds = at.get("core.select.seeds", 0.0)
    kept = at.get("core.select.kept", 0.0)
    lookups = cnt.get("serve.cache_get", 0)
    calls = at.get("engine.stream.calls", 0.0)
    return {
        "seeding.compile_ms": ms("seeding.compile"),
        "seeding.compile_calls": per(cnt.get("seeding.compile", 0)),
        "seeding.index_build_ms": ms("seeding.index_build"),
        "seeding.sweep_block_ms": ms("seeding.sweep_block"),
        "seeding.hits": per(hits),
        "seeding.untag_ms": ms("seeding.untag"),
        "core.seed_mask_ms": ms("core.seed_mask"),
        "core.seeds": per(seeds),
        "core.seed_survival": frac(seeds, hits),
        "core.ungapped_extend_ms": ms("core.ungapped_extend"),
        "core.extensions_kept": per(kept),
        "core.extension_keep_frac": frac(kept, seeds),
        "core.coverage_ms": ms("core.coverage"),
        "core.select_self_ms": ms("core.select"),
        "core.gapped_ms": ms("core.gapped"),
        "core.gapped_extensions": per(at.get("core.gapped.n", 0.0)),
        "core.traceback_ms": ms("core.traceback"),
        "core.alignments_reported": per(at.get("core.traceback.n", 0.0)),
        "engine.stream_ms": ms("engine.stream"),
        "engine.batches": per(calls),
        "engine.batch_size": (at.get("engine.stream.ids", 0.0) / calls if calls else 0.0, "count"),
        "engine.errors": (at.get("engine.stream.errors", 0.0), "count"),
        "engine.pool_start_ms": ms("engine.pool_start"),
        "engine.worker_setup_ms": ms("engine.worker_setup"),
        "engine.block_wait_ms": ms("engine.block_wait"),
        "engine.block_run_ms": ms("engine.block_run"),
        "engine.marshal_ms": ms("engine.marshal"),
        "engine.unmarshal_ms": ms("engine.unmarshal"),
        "engine.pool_shutdown_ms": ms("engine.pool_shutdown"),
        "engine.blocks": per(at.get("engine.block_wait.blocks", 0.0)),
        "serve.submit_ms": ms("serve.submit"),
        "serve.cache_get_ms": ms("serve.cache_get"),
        "serve.cache_lookups": per(lookups),
        "serve.queue_wait_ms": (extra.get("queue_wait_ms", 0.0), "ms/op"),
        "serve.encode_ms": ms("serve.encode"),
        "serve.cache_put_ms": ms("serve.cache_put"),
        "serve.shed": (extra.get("shed", 0.0), "count"),
        "serve.failed": (extra.get("failed", 0.0), "count"),
        "io.open_ms": (1e3 * setup.self_time.get("io.open", 0.0), "ms"),
        "io.blocks_ms": (1e3 * setup.self_time.get("io.blocks", 0.0), "ms"),
        "trace.coverage": (extra.get("coverage", 0.0), "frac"),
        "trace.remainder_ms": (extra.get("remainder_ms", 0.0), "ms/op"),
        "trace.overhead_frac": (extra.get("overhead_frac", 0.0), "frac"),
        "trace.ops": (float(ops), "count"),
    }
