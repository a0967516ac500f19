"""Measurement plumbing shared by the workloads: op logs, phases,
percentiles, set-up timing, memory and the result line."""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

#: Percentiles the tail metric may report; the highest one with at
#: least :data:`TAIL_MIN_BEYOND` samples beyond it is used.
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9, 99.99)
TAIL_MIN_BEYOND = 10

#: An end-to-end run is this many rounds of set-up, measure, tear-down;
#: set-up time is the median over rounds, rates pool their measured time.
ROUNDS = 5

#: The tail is taken in consecutive blocks of at most this many ops and
#: the median over blocks is reported.
TAIL_BLOCK = 1000

#: Failure messages kept verbatim in the notes (the rest are counted).
MAX_PROBLEMS = 5


@dataclass
class OpLog:
    """Per-op outcomes of one phase.

    Latencies are kept for ops that succeeded; a failed or refused op
    counts against ``failed`` instead and makes the run incorrect.
    ``known`` tallies known defects found by a workload's defect probe,
    outside the measured ops; they are named in the notes.
    """

    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    known: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)
    unexpected: int = 0

    def ok(self, seconds: float) -> None:
        """One op succeeded and its output checked out."""
        self.attempted += 1
        self.latencies.append(seconds)

    def fail(self, why: str) -> None:
        """One op failed, was refused, or produced a wrong output."""
        self.attempted += 1
        self.failed += 1
        self.unexpected += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(why)

    def known_defect(self, why: str) -> None:
        """A known defect showed again; not an op, not a wrong output."""
        self.known[why] += 1

    def problem(self, why: str) -> None:
        """A check that is not tied to a single op failed."""
        self.unexpected += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(why)

    @property
    def correct(self) -> bool:
        """No output check failed and no op failed unexpectedly."""
        return self.unexpected == 0


def run_phase(step, seconds: float, min_steps: int = 1) -> tuple[float, int]:
    """Call ``step()`` in a closed loop (each call starts when the
    previous one has finished) for about ``seconds``: stop at the step
    boundary nearest the budget, after at least ``min_steps`` calls.
    Returns (wall seconds, steps)."""
    start = perf_counter()
    steps = 0
    while True:
        step()
        steps += 1
        elapsed = perf_counter() - start
        if steps >= min_steps and elapsed + elapsed / steps / 2 >= seconds:
            return elapsed, steps


def percentile(samples: list, p: float) -> float:
    """Nearest-rank percentile of ``samples`` (``p`` in 0..100)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten of ``n`` samples
    beyond it."""
    chosen = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n - max(1, math.ceil(p / 100 * n)) >= TAIL_MIN_BEYOND:
            chosen = p
    return chosen


def tail(samples: list) -> tuple[float, float, int]:
    """(percentile, value, blocks) of the tail latency.

    ``samples`` (in completion order) are cut into consecutive blocks of
    :data:`TAIL_BLOCK` ops; a shorter remainder joins the last block.
    In each block the highest ladder percentile with at least ten
    samples beyond it is taken, and the median over blocks reported.
    One long run thereby reports a per-thousand-op tail that does not
    flip with the handful of collector pauses that land in its top
    0.1%.
    """
    blocks = [samples[i:i + TAIL_BLOCK]
              for i in range(0, max(1, len(samples)), TAIL_BLOCK)]
    if len(blocks) > 1 and len(blocks[-1]) < TAIL_BLOCK:
        blocks[-2].extend(blocks.pop())
    chosen = tail_percentile(min(len(block) for block in blocks))
    values = [percentile(block, chosen) for block in blocks]
    return chosen, statistics.median(values), len(blocks)


def median(values: list) -> float:
    """Median, or 0.0 for no values."""
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for
    child (Linux reports kilobytes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def fresh_import_seconds(src: str, modules: tuple) -> float:
    """Import ``modules`` in a fresh interpreter; the import time alone
    (interpreter start-up excluded), as a user's first command pays it."""
    code = (
        "import time\n"
        "start = time.perf_counter()\n"
        + "".join(f"import {name}\n" for name in modules)
        + "print(time.perf_counter() - start)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def timed_setup(workload, src: str) -> float:
    """Set the workload up once: fresh-interpreter import time of its
    modules plus ``workload.setup()``, which ends with one warm-up op
    so lazy set-up is paid here rather than in the measured phase."""
    imported = fresh_import_seconds(src, workload.imports)
    start = perf_counter()
    workload.setup()
    return imported + perf_counter() - start


def metric(value: float, unit: str) -> dict:
    """One metric entry of the result line."""
    return {"value": value, "unit": unit}


def print_table(title: str, metrics: dict) -> None:
    """Human-readable metric table (before the result line)."""
    print(f"== {title} ==")
    for name, entry in metrics.items():
        value = entry["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<34} {shown:>14} {entry['unit']}")


def print_result(correct: bool, attempted: int, failed: int,
                 metrics: dict) -> None:
    """The machine-readable last line of standard output."""
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
