#!/usr/bin/env python3
"""Benchmark for agroups: one command, three workloads, checked answers.

    python3 perfbench/run.py --workload growth --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The package is imported from ``src``
next to this directory, and scratch files go to ``.perfbench_work`` there.

Each workload is a fixed, seeded list of operations (a pass) run as a
closed loop with one client: the next operation starts when the previous
one returns.  Passes repeat until ``--seconds`` have gone by; the last
pass always finishes.  Every answer is checked (see `Checker`).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs
untraced passes for half the time, then traced passes for the other half,
and reports the per-layer metrics of `tracing.METRICS` plus
``trace.overhead_ratio``; the spans of the first traced pass are written
to ``.perfbench_work``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat the
metrics for people, with the run's environment.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

import tracing  # noqa: E402  (sibling modules of this script)
import workloads  # noqa: E402


# A typical time of the canary on the 2-vCPU Xeon virtual machine the
# benchmark was tuned on (its readings ranged from 0.66 to 1.5 ms there).
# Times are scaled to a host on which the canary takes this long.
CANARY_REFERENCE_S = 0.0011


def canary() -> float:
    """Seconds that one fixed piece of pure-Python work takes right now.

    A breadth-first search over permutations of 8 points: tuples, dicts and
    lists, the kind of work the package does, but none of its code, so no
    change to the package changes it.  The cyclic collector is paused, so
    that the size of the package's heap does not show in the reading.
    """
    paused = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        a, b = (1, 2, 3, 4, 5, 6, 7, 0), (1, 0, 2, 3, 4, 5, 6, 7)
        seen = {tuple(range(8)): 0}
        frontier = list(seen)
        while len(seen) < 500:
            nxt = []
            for p in frontier:
                for g in (a, b):
                    q = tuple(p[i] for i in g)
                    if q not in seen:
                        seen[q] = seen[p] + 1
                        nxt.append(q)
            frontier = nxt
        return time.perf_counter() - t0
    finally:
        if paused:
            gc.enable()


def host_scale(before: float, after: float) -> float:
    """Factor that turns a time taken between two canary readings into reference time."""
    return 2 * CANARY_REFERENCE_S / (before + after)


def fresh_import() -> None:
    """Import the package as a new process would, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "agroups" or n.startswith("agroups.")]:
        del sys.modules[name]
    importlib.import_module("agroups.cli")


def setup(workload: str, seed: int, small: bool = False):
    """Import, load and generate the inputs; returns (seconds, operations)."""
    t0 = time.perf_counter()
    fresh_import()
    ops = workloads.WORKLOADS[workload](seed, WORK, small)
    return time.perf_counter() - t0, ops


def digest(answer) -> str:
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference(workload: str, seed: int) -> Optional[Dict[str, str]]:
    data = json.loads(REFERENCE.read_text())
    return data["digests"].get(workload, {}).get(str(seed))


class Checker:
    """Checks every answer; counts operations attempted and failed.

    An answer must match the reference digest when the seed has one, pass
    its invariant check the first time its operation runs, and repeat that
    first answer on every later pass.  An exception is a failure too.
    """

    def __init__(self, reference: Optional[Dict[str, str]]):
        self.reference = reference
        self.first: Dict[str, str] = {}
        self.attempted = 0
        self.problems: List[str] = []

    def check(self, op, result, error: Optional[str]) -> None:
        self.attempted += 1
        problem = error
        if problem is None:
            problem = self._problem(op, result)
        if problem is not None:
            self.problems.append(f"{op.label}: {problem}")

    def _problem(self, op, result) -> Optional[str]:
        try:
            got = digest(op.answer(result))
            if self.reference is not None and self.reference.get(op.label) != got:
                return f"digest {got} differs from reference {self.reference.get(op.label)}"
            if op.label in self.first:
                return None if self.first[op.label] == got else "answer differs from the first pass"
            self.first[op.label] = got
            return op.check(result)
        except Exception as exc:  # a malformed answer is a failed operation
            return f"check raised {type(exc).__name__}: {exc}"

    @property
    def failed(self) -> int:
        return len(self.problems)


class Timing:
    """Latencies of one run in reference time, by operation, over its passes."""

    def __init__(self):
        self.pass_walls: List[float] = []
        self.by_kind: Counter = Counter()
        self.by_label: Dict[str, List[float]] = {}
        self.canaries: List[float] = []

    def typical(self) -> List[float]:
        """Each operation's median latency over the passes."""
        return [statistics.median(v) for v in self.by_label.values()]


def run_passes(next_ops: Callable[[], list], seconds: float, checker: Checker, tracer=None) -> Timing:
    """Closed loop over whole passes until `seconds` have gone by.

    `next_ops` gives each pass its operations; it is not timed as part of
    the pass.  The canary runs before the first operation and after each
    one, and each latency is scaled by the readings on either side of it.
    """
    timing = Timing()
    clock = time.perf_counter
    start = clock()
    while True:
        ops = next_ops()
        if tracer is not None:
            tracer.begin_pass()
        wall = 0.0
        before = canary()
        timing.canaries.append(before)
        for op in ops:
            error = result = None
            t0 = clock()
            try:
                result = op.call() if tracer is None else tracer.run_op(op.call)
            except Exception as exc:  # keep going: a failed operation is counted, not fatal
                error = f"raised {type(exc).__name__}: {exc}"
            dt = clock() - t0
            after = canary()
            timing.canaries.append(after)
            dt *= host_scale(before, after)
            before = after
            wall += dt
            timing.by_kind[op.kind] += dt
            timing.by_label.setdefault(op.label, []).append(dt)
            checker.check(op, result, error)
        timing.pass_walls.append(wall)
        if tracer is not None:
            tracer.end_pass()
        if clock() - start >= seconds:
            return timing


def environment(seed: int) -> str:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return f"seed={seed} python={platform.python_version()} nproc={nproc} cpu={cpu!r}"


def end_to_end(timing: Timing, setup_times: List[float]) -> Dict[str, dict]:
    """End-to-end metrics from each operation's median latency, in reference time.

    The shared machine's speed swings by up to 1.8x within seconds and
    stays slow or fast for minutes, so raw times, whether medians or
    best-of-k, move by more than their bound between runs.  Scaling by the
    canary read next to each operation takes that out; the median over the
    run's passes takes out what is left.
    """
    typical = timing.typical()
    wall = sum(typical)
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "wall_s": {"value": wall, "unit": "s"},
        "ops_per_s": {"value": len(typical) / wall, "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(typical) * 1e3, "unit": "ms"},
        "op_p99_ms": {"value": statistics.quantiles(typical, n=100, method="inclusive")[98] * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "agroups" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'agroups'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    reference = load_reference(args.workload, args.seed)
    checker = Checker(reference)
    print(f"# perfbench {args.workload} trace={args.trace} {environment(args.seed)}")
    print("# checks: " + ("reference digests and invariants" if reference is not None
                          else f"invariants only (no reference digests for seed {args.seed})"))

    if args.trace == 0:
        setup_times: List[float] = []

        def fresh_ops():
            # set up again before every pass, so set-up samples span the run
            before = canary()
            seconds, ops = setup(args.workload, args.seed)
            setup_times.append(seconds * host_scale(before, canary()))
            return ops

        timing = run_passes(fresh_ops, args.seconds, checker)
        metrics = end_to_end(timing, setup_times)
        absent: List[str] = []
        notes = [f"passes {len(timing.pass_walls)}, operations per pass {len(timing.by_label)}, "
                 f"latency samples {sum(map(len, timing.by_label.values()))}, set-ups {len(setup_times)}"]
    else:
        _, ops = setup(args.workload, args.seed)
        untraced = run_passes(lambda: ops, args.seconds / 2, checker)
        with tracing.Tracer() as tracer:
            traced = run_passes(lambda: ops, args.seconds / 2, checker, tracer)
        metrics, absent = tracer.metrics()
        metrics["trace.overhead_ratio"] = {"value": sum(traced.typical()) / sum(untraced.typical()), "unit": "ratio"}
        WORK.mkdir(parents=True, exist_ok=True)
        span_file = WORK / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        n_spans = tracer.dump(span_file, {"workload": args.workload, "seed": args.seed})
        timing = traced
        notes = [f"untraced passes {len(untraced.pass_walls)}, traced passes {len(traced.pass_walls)}",
                 f"{n_spans} spans of the first traced pass in {span_file.relative_to(ROOT)}",
                 "counts repeat on every traced pass: " + ("yes" if tracer.counts_repeat() else "NO")]

    quartiles = statistics.quantiles(timing.canaries, n=4)
    notes.append(f"host speed: canary {len(timing.canaries)} readings, quartiles "
                 + " ".join(f"{q * 1e3:.3f}" for q in quartiles)
                 + f" ms; times are scaled to {CANARY_REFERENCE_S * 1e3:.3f} ms")
    notes.append("pass walls (reference s): " + " ".join(f"{w:.3f}" for w in timing.pass_walls))
    total = sum(timing.by_kind.values())
    notes.append("time by kind: " + ", ".join(
        f"{k} {v / total:.0%}" for k, v in sorted(timing.by_kind.items(), key=lambda kv: -kv[1])))
    for name, m in metrics.items():
        value = m["value"]
        print(f"{name:32s} {value:14d}" if isinstance(value, int) else f"{name:32s} {value:14.6g}", m["unit"])
    print(f"{'ops_attempted':32s} {checker.attempted:14d} count")
    print(f"{'ops_failed':32s} {checker.failed:14d} count")
    for metric in absent:
        print(f"{metric:32s} {'absent':>14s}")
    for note in notes:
        print(f"# {note}")
    for problem in checker.problems[:20]:
        print(f"# FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
