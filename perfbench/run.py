"""Benchmark of the production half of the repository (``reference`` engine).

    python3 perfbench/run.py --workload batch --seed 1 --seconds 20 --trace 0

Workloads: ``batch`` and ``serve_open`` (see README.md in this directory),
or ``all`` to run both in turn. ``--trace 0`` measures
the end-to-end metrics with no tracing; ``--trace 1`` is a separate run
that records spans around every layer and reports per-layer metrics.
Each run prints its metrics by name and unit, a run record, and as its
last line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
It exits non-zero when any output differs from the per-query reference,
when the run is invalid, or when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("batch", "serve_open")


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    dir: Path
    tracer: object | None


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    """Content hash of the program's sources (identifies a checkout without git)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_record(ctx: Context) -> dict:
    import numpy

    return {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": ctx.tracer is not None,
        "git_sha": _git_sha(),
        "src_digest": _src_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_1m_at_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench import batch, serve
    from perfbench.spans import Tracer

    run_dir = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    tracer = None
    if trace:
        tracer = Tracer(run_dir)
        tracer.install()
    ctx = Context(workload, seed, seconds, run_dir, tracer)
    record = run_record(ctx)
    runner = {"batch": batch.run, "serve_open": serve.run}[workload]
    try:
        outcome = runner(ctx)
    finally:
        if tracer is not None:
            tracer.uninstall()
        for db in run_dir.glob("*.rpdb"):
            db.unlink()
    record.update(outcome.record)
    record["attempted"], record["failed"] = outcome.attempted, outcome.failed
    record["mismatches"] = outcome.mismatches
    record["invalid"] = outcome.invalid
    (run_dir / "record.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"{workload} seed={seed} trace={int(trace)}: attempted={outcome.attempted} "
          f"failed={outcome.failed} mismatches={outcome.mismatches}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    print("record: " + json.dumps(record, sort_keys=True))
    if outcome.invalid is not None:
        print(f"invalid run: {outcome.invalid}", file=sys.stderr)
        return 3
    correct = outcome.mismatches == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; exits non-zero if any run did."""
    results, worst = {}, 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("record: ")))
        worst = max(worst, proc.returncode)
        results[workload] = json.loads(lines[-1]) if proc.returncode == 0 else {"exit": proc.returncode}
    print(json.dumps(results))
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    # The checkout root replaces this script's directory on the path, so
    # the benchmark's modules import as ``perfbench.*`` and shadow nothing.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    raise SystemExit(main())
