"""Spans around the program's layer boundaries, recorded from outside ``src/``.

:class:`Tracer` wraps public functions of each layer — ``seeding``,
``core``, ``engine``, ``io``, ``serve`` and ``verify.canonical`` — by
replacing the attribute the caller looks up (a class attribute, or the
name a module imported) with a timing wrapper. A span is ``(id, parent,
name, t0, t1, thread, attrs)``; the parent is the span open on the same
thread when it started, so a span's self time is its duration minus its
children's. Spans stay in memory and are written out once, at exit.

Worker processes forked by the process pool inherit the wrappers. The
first span a worker records starts a fresh span list there, and a
``multiprocessing`` finaliser writes it to ``spans-<pid>.json`` when the
worker exits. ``time.perf_counter`` reads the system-wide monotonic
clock on Linux, so worker and parent timestamps share one time base.

Wrappers stay installed for the whole traced run; ``enabled`` switches
recording on and off, so a traced run can time untraced passes of the
same code for the overhead figure.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing.util
import os
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

_NO_RESULT = object()


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, out_dir: str | Path) -> None:
        self.enabled = False
        self.out_dir = Path(out_dir)
        self.spans: list[tuple] = []
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _adopt_worker(self) -> None:
        """First span in a forked worker: drop the parent's copy, flush at exit."""
        self._pid = os.getpid()
        self.spans = []
        self._local = threading.local()
        multiprocessing.util.Finalize(self, self.write_worker, exitpriority=10)

    def begin(self) -> tuple[int, int]:
        if os.getpid() != self._pid:
            self._adopt_worker()
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, parent

    def end(self, sid: int, parent: int, name: str, t0: float, t1: float, attrs: Any = None) -> None:
        self._stack().pop()
        self.spans.append((sid, parent, name, t0, t1, threading.get_ident(), attrs))

    def span(self, name: str) -> "_SpanContext":
        """A span around a block of the benchmark's own code."""
        return _SpanContext(self, name)

    def take(self) -> list[tuple]:
        """Hand over the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans

    def write_worker(self) -> None:
        if self.spans:
            with open(self.out_dir / f"spans-{os.getpid()}.json", "w") as fh:
                json.dump({"pid": os.getpid(), "spans": self.spans}, fh)

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str, fn: Callable, attrs: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid, parent = tracer.begin()
            out = _NO_RESULT
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = perf_counter()
                extra = attrs(args, out) if attrs is not None and out is not _NO_RESULT else None
                tracer.end(sid, parent, name, t0, t1, extra)

        return wrapper

    def _timed_gen(self, name: str, fn: Callable, on_call: Callable, on_item: Callable) -> Callable:
        """Wrap a generator function: one span per resumption of the generator.

        Time the consumer spends between items is not the generator's.
        The first segment carries ``on_call``'s attributes plus a ``call``
        number shared by every segment of the call.
        """
        tracer = self
        calls = itertools.count(1)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            args, first = on_call(args)
            first["call"] = call = next(calls)
            return tracer._segments(name, fn(*args, **kwargs), first, call, on_item)

        return wrapper

    def _segments(self, name: str, gen: Iterator, first: dict, call: int, on_item: Callable) -> Iterator:
        attrs = first
        try:
            while True:
                sid, parent = self.begin()
                t0 = perf_counter()
                item = _NO_RESULT
                try:
                    item = next(gen, _NO_RESULT)
                finally:
                    t1 = perf_counter()
                    if item is not _NO_RESULT:
                        attrs = {**attrs, **on_item(item)}
                    self.end(sid, parent, name, t0, t1, attrs)
                if item is _NO_RESULT:
                    return
                attrs = {"call": call}
                yield item
        finally:
            gen.close()

    def _patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new: Any = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        import repro.core.pipeline as pipeline
        import repro.core.two_hit as two_hit
        import repro.serve.service as service
        import repro.verify.canonical as canonical
        from repro.core.pipeline import BlastpPipeline
        from repro.engine.executor import BatchExecutor
        from repro.engine.procpool import ProcessPool, SweepBlockSpec
        from repro.io.database import SequenceDatabase
        from repro.seeding.multi_query import MultiQueryIndex
        from repro.serve.cache import ResultCache
        from repro.serve.coalescer import Coalescer
        from repro.serve.service import SearchService

        def timed(owner: Any, attr: str, name: str, attrs: Callable | None = None) -> None:
            self._patch(owner, attr, lambda fn: self._timed(name, fn, attrs))

        # seeding
        timed(BlastpPipeline, "compile", "seeding.compile")
        timed(MultiQueryIndex, "from_compiled", "seeding.index_build")
        timed(MultiQueryIndex, "sweep_block", "seeding.sweep_block", lambda a, out: {"hits": len(out)})
        timed(MultiQueryIndex, "untag", "seeding.untag")
        # core
        timed(pipeline, "select_seeds_and_extend", "core.select",
              lambda a, out: {"seeds": int(out[1]), "kept": len(out[0])})
        timed(two_hit, "seed_mask", "core.seed_mask")
        timed(two_hit, "batch_ungapped_extend", "core.ungapped_extend")
        timed(two_hit, "covered_seed_mask", "core.coverage")
        timed(BlastpPipeline, "phase_gapped", "core.gapped", lambda a, out: {"n": len(out[0])})
        timed(BlastpPipeline, "phase_traceback", "core.traceback", lambda a, out: {"n": len(out)})
        # engine (and the verify.canonical marshalling it calls)
        self._patch(BatchExecutor, "stream", lambda fn: self._timed_gen(
            "engine.stream", fn, _stream_call, lambda item: {"errors": int(item.error is not None)}))
        self._patch(ProcessPool, "run", lambda fn: self._timed_gen(
            "engine.block_wait", fn, lambda args: (args, {}), lambda item: {"blocks": 1}))
        timed(ProcessPool, "ensure_started", "engine.pool_start")
        timed(ProcessPool, "shutdown", "engine.pool_shutdown")
        timed(SweepBlockSpec, "setup", "engine.worker_setup")
        timed(SweepBlockSpec, "run", "engine.block_run")
        timed(canonical, "extensions_to_payload", "engine.marshal")
        timed(canonical, "extensions_from_payload", "engine.unmarshal")
        # io
        timed(SequenceDatabase, "load", "io.open")
        timed(SequenceDatabase, "blocks", "io.blocks")
        # serve (payload encoding is verify.canonical, bound into the service)
        timed(SearchService, "submit", "serve.submit", lambda a, out: {"id": a[1]})
        timed(ResultCache, "get", "serve.cache_get")
        timed(ResultCache, "put", "serve.cache_put")
        timed(Coalescer, "add", "serve.coalesce", _coalesced)
        timed(Coalescer, "flush", "serve.coalesce", _coalesced)
        timed(service, "result_to_payload", "serve.encode")
        timed(service, "payload_to_bytes", "serve.encode")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


def _stream_call(args: tuple) -> tuple[tuple, dict]:
    """``BatchExecutor.stream(queries, db)``: record the batch's query ids."""
    queries = list(args[1])
    return (args[0], queries, *args[2:]), {"ids": [query_id for query_id, _ in queries]}


def _coalesced(args: tuple, out: Any) -> dict:
    """``Coalescer.add(request)`` / ``.flush()``: the arrival and the batch closed, if any."""
    attrs = {"closed": [r.query_id for r in out] if out else []}
    if len(args) > 1:
        attrs["arrived"] = args[1].query_id
    return attrs


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self) -> "_SpanContext":
        self.ids = self.tracer.begin()
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.tracer.end(*self.ids, self.name, self.t0, perf_counter())


# -- analysis --------------------------------------------------------------


@dataclass
class Span:
    pid: int
    sid: int
    parent: int
    name: str
    t0: float
    t1: float
    tid: int
    attrs: dict
    self_time: float = 0.0
    children: list["Span"] = field(default_factory=list)

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def build(records: list[tuple[int, list]]) -> list[Span]:
    """Spans from ``(pid, raw spans)`` pairs, with children and self time set."""
    spans = [
        Span(pid, sid, parent, name, t0, t1, tid, attrs or {})
        for pid, raw in records
        for sid, parent, name, t0, t1, tid, attrs in raw
    ]
    by_id = {(s.pid, s.sid): s for s in spans}
    for s in spans:
        parent = by_id.get((s.pid, s.parent))
        if parent is not None:
            parent.children.append(s)
    for s in spans:
        s.self_time = s.dur - sum(c.dur for c in s.children)
    return spans


def read_worker_spans(out_dir: str | Path) -> list[tuple[int, list]]:
    """Every ``spans-<pid>.json`` the forked workers wrote."""
    records = []
    for path in sorted(Path(out_dir).glob("spans-*.json")):
        with open(path) as fh:
            data = json.load(fh)
        records.append((data["pid"], data["spans"]))
    return records


@dataclass
class Totals:
    """Self time (s), span count and summed attributes per span name."""

    self_time: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    count: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    attrs: dict[str, float] = field(default_factory=lambda: defaultdict(float))

    def add(self, spans: list[Span]) -> "Totals":
        for s in spans:
            self.self_time[s.name] += s.self_time
            self.count[s.name] += 1
            for key, value in s.attrs.items():
                if isinstance(value, (int, float)) and key != "call":
                    self.attrs[f"{s.name}.{key}"] += value
                elif key == "ids":
                    self.attrs[f"{s.name}.ids"] += len(value)
                    self.attrs[f"{s.name}.calls"] += 1
        return self
