"""The paramtc benchmark: seeded closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload paths --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --record perfbench/record.json

One process, one thread; each call into the library starts only after the
previous one has returned.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs every workload, traced
and untraced, each in its own process, and can write a run record.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_MIN = 9  # imports timed per run, spread over the run between rounds
FASTEST_SHARE = 0.1
MAX_PIECE = 8  # pieces 0 ... n+2 for n <= 6
IMPORT_TIMER = "import time; t = time.perf_counter(); import paramtc; print(time.perf_counter() - t)"

END_TO_END = {
    "items_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    from spans import TRACED

    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "calls/item"
        units[f"{name}.self_share"] = "share"
    units["bounds.lh_height_per_tc"] = "ratio"
    units["planner.fiber_at_per_path"] = "ratio"
    units["verify.oracle_words"] = "words/item"
    for k in range(MAX_PIECE + 1):
        units[f"planner.piece.{k}.items"] = "count"
        units[f"planner.piece.{k}.failed"] = "count"
    units["trace.items"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    return units


@dataclass
class Round:
    """A fixed number of whole blocks: items checked, timed seconds, call latencies."""

    items: int = 0
    wall_s: float = 0.0
    latencies: list[float] = field(default_factory=list)


@dataclass
class Measurement:
    """What one pass over a stream of blocks saw."""

    blocks: list = field(default_factory=list)
    rounds: list[Round] = field(default_factory=list)
    wall_s: float = 0.0
    items: int = 0
    failed: int = 0
    oracle_words: int = 0
    piece_items: Counter = field(default_factory=Counter)
    piece_failed: Counter = field(default_factory=Counter)
    errors: list[str] = field(default_factory=list)


def measure(
    workload, blocks, seconds: float | None, tracer=None, between_rounds=None, keep_blocks=False
) -> Measurement:
    """Run rounds of whole blocks until ``seconds`` of timed calls (or the blocks) run out.

    Only the calls are timed; each block's outputs are checked after the
    block, outside the timed region and with tracing off.  ``keep_blocks``
    keeps the inputs for a replay.
    """
    from spans import traced

    m = Measurement()
    blocks = iter(blocks)
    while seconds is None or m.wall_s < seconds:
        r = Round()
        for block in itertools.islice(blocks, workload.round_blocks):
            outputs = []
            with traced(tracer) if tracer else nullcontext():
                block_start = perf_counter()
                for c in block:
                    span = tracer.begin(0) if tracer else None
                    t0 = perf_counter()
                    try:
                        out = workload.call(c)
                    except Exception as exc:  # a raising call is a failed item
                        out = exc
                    r.latencies.append(perf_counter() - t0)
                    if tracer:
                        tracer.finish(span)
                    outputs.append(out)
                r.wall_s += perf_counter() - block_start
            if keep_blocks:
                m.blocks.append(block)
            for c, out in zip(block, outputs):
                m.oracle_words += c.oracle_words
                for outcome in workload.check(c, out):
                    r.items += 1
                    failed = outcome.error is not None
                    m.failed += failed
                    if failed and len(m.errors) < 5:
                        m.errors.append(outcome.error)
                    if outcome.piece is not None:
                        m.piece_items[outcome.piece] += 1
                        m.piece_failed[outcome.piece] += failed
        if not r.latencies:
            break
        m.rounds.append(r)
        m.items += r.items
        m.wall_s += r.wall_s
        if between_rounds:
            between_rounds(m)
    return m


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten calls beyond it, and that percentile."""
    ordered = sorted(latencies)
    if len(ordered) < 11:
        raise RuntimeError(f"only {len(ordered)} calls; the tail needs at least 11")
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def fastest_rounds(rounds: list[Round]) -> list[Round]:
    """The fastest tenth of the rounds by throughput, at least two.

    Contention from other work on the machine only ever slows a round down,
    so the fastest rounds are the ones that measure the program itself.
    """
    ranked = sorted(rounds, key=lambda r: r.items / r.wall_s, reverse=True)
    return ranked[: max(2, math.ceil(len(ranked) * FASTEST_SHARE))]


def throughput(rounds: list[Round]) -> float:
    return sum(r.items for r in rounds) / sum(r.wall_s for r in rounds)


def import_seconds() -> float:
    """Wall time of ``import paramtc`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


def report_failures(m: Measurement) -> None:
    ratio = m.failed / m.items if m.items else 1.0
    print(f"fail_ratio {ratio:.6g} ({m.failed}/{m.items} items)")
    for k in sorted(m.piece_items):
        print(f"  piece {k}: {m.piece_items[k]} items, {m.piece_failed[k]} failed")
    for error in m.errors:
        print(f"  failed: {error}")


def run_untraced(workload, seed: int, seconds: float) -> tuple[Measurement, dict[str, float]]:
    setup = []

    def import_now_and_then(m: Measurement) -> None:
        if len(setup) < m.wall_s * SETUP_MIN / seconds:
            setup.append(import_seconds())

    m = measure(workload, workload.blocks(seed), seconds, between_rounds=import_now_and_then)
    while len(setup) < SETUP_MIN:
        setup.append(import_seconds())
    best = fastest_rounds(m.rounds)
    latencies = [t for r in best for t in r.latencies]
    tail_s, percentile = tail(latencies)
    values = {
        "items_per_s": throughput(best),
        "p50_ms": statistics.median(latencies) * 1e3,
        "tail_ms": tail_s * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "items": m.items,
        "calls": sum(len(r.latencies) for r in m.rounds),
        "timed_s": m.wall_s,
        "rounds": len(m.rounds),
        "fastest_rounds": len(best),
        "items_per_s_all_rounds": m.items / m.wall_s,
        "tail_percentile": percentile,
        "tail_calls": len(latencies),
        "setup_imports": len(setup),
    }
    print(f"workload {workload.name}: {m.items} items in {details['calls']} calls, "
          f"{m.wall_s:.3f} s timed in {len(m.rounds)} rounds of {workload.round_blocks} blocks; "
          f"{details['items_per_s_all_rounds']:.6g} items/s over all of them")
    for name, value in values.items():
        print(f"{name} {value:.6g} {END_TO_END[name]}")
    print(f"  items_per_s, p50_ms and tail_ms come from the fastest {len(best)} rounds; tail_ms is "
          f"p{percentile:.3f} of their {len(latencies)} calls; setup_s is the median of {len(setup)} imports")
    report_failures(m)
    print("details " + json.dumps(details))
    return m, values


def run_traced(workload, seed: int, seconds: float) -> tuple[Measurement, dict[str, float]]:
    """Untraced for half the time, then the same blocks again with every layer traced."""
    from spans import TRACED, Tracer

    plain = measure(workload, workload.blocks(seed), seconds / 2, keep_blocks=True)
    tracer = Tracer()
    m = measure(workload, iter(plain.blocks), None, tracer)
    calls, self_s = tracer.self_times()
    values = {}
    for i, name in enumerate(TRACED, start=1):
        values[f"{name}.calls"] = calls[i] / m.items
        values[f"{name}.self_share"] = self_s[i] / m.wall_s
    index = {name: i for i, name in enumerate(tracer.names)}
    tc_reports = calls[index["bounds.tc_sphere_bundle"]]
    paths = calls[index["planner.plan"]]
    values["bounds.lh_height_per_tc"] = calls[index["ring.lh_height"]] / tc_reports if tc_reports else 0.0
    values["planner.fiber_at_per_path"] = calls[index["planner.PlannedPath.fiber_at"]] / paths if paths else 0.0
    values["verify.oracle_words"] = m.oracle_words / m.items
    for k in range(MAX_PIECE + 1):
        values[f"planner.piece.{k}.items"] = m.piece_items[k]
        values[f"planner.piece.{k}.failed"] = m.piece_failed[k]
    values["trace.items"] = m.items
    values["trace.overhead_ratio"] = throughput(fastest_rounds(plain.rounds)) / throughput(fastest_rounds(m.rounds))
    values = {name: float(v) for name, v in values.items()}

    out = HERE / "out" / f"trace-{workload.name}-seed{seed}.npz"
    tracer.write(out)
    units = per_layer_units()
    print(f"workload {workload.name} traced: {m.items} items, {len(tracer.start)} spans -> {out.relative_to(ROOT)}")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print("  verify.oracle_words is computed from the factor lengths, not counted by the oracle")
    report_failures(m)
    m.failed += plain.failed
    m.items += plain.items
    return m, values


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    m, values = (run_traced if trace else run_untraced)(workload, seed, seconds)
    units = per_layer_units() if trace else END_TO_END
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.items,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def run_all(seed: int, seconds: float, record: Path | None) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    import numpy
    from workloads import WORKLOADS

    runs = {}
    for name, workload in WORKLOADS.items():
        runs[name] = {"why": workload.why}
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            print(done.stdout, end="")
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return done.returncode
            last = json.loads(done.stdout.splitlines()[-1])
            key = "traced" if trace else "untraced"
            runs[name][key] = {k: last[k] for k in ("correct", "attempted", "failed")}
            runs[name][key]["metrics"] = {k: v["value"] for k, v in last["metrics"].items()}
            for line in done.stdout.splitlines():
                if line.startswith("details "):
                    runs[name][key].update(json.loads(line.removeprefix("details ")))
    if record is not None:
        record.write_text(json.dumps({
            "commit": git_commit(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "seed": seed,
            "seconds": seconds,
            "workloads": runs,
        }, indent=2) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="with --workload all: write the run record here")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "paramtc" / "__init__.py").is_file():
        print(f"error: no paramtc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.record)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
