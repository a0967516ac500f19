"""E14 — campaign throughput scaling and the shrinker's work bill.

Two claims quantified (both reproduction-only; the paper predates
multi-core chaos testing):

* **Parallel scaling** — grid cells are isolated deterministic worlds,
  so campaign throughput should scale with the process pool.  Measured
  as cells/second over a fixed 24-cell grid at 1, 2, and 4 workers,
  asserting the 4-worker run reaches >= 2.5x the 1-worker run when the
  host actually has >= 4 cores (on smaller hosts the numbers are still
  printed — the pool overhead is then the honest result).  Regardless
  of core count, the canonical reports must be byte-identical across
  worker counts.
* **Shrinker cost** — delta-debugging a 5-action storm plan down to its
  single fatal crash: trials (candidate evaluations), executions
  (clusters actually built — repeated trials are answered from memory,
  and the two recordings are not trials), reductions, and host time,
  plus the resulting horizon cut.  Acceptance: the minimal plan
  keeps <= 2 fault windows and the golden trace replays.
"""

from __future__ import annotations

import os
import time

from benchmarks.common import print_table
from repro.campaign import build_grid, get_plan, run_campaign, shrink_cell
from repro.campaign.scenarios import get_scenario

PLAN_NAMES = ["calm", "crash", "partition", "jitter"]
SEEDS = list(range(6))
WORKER_COUNTS = [1, 2, 4]
SCALING_FLOOR = 2.5  # 4 workers vs 1, only asserted on >=4-core hosts


def run_experiment() -> dict:
    """Measure campaign throughput per worker count plus one shrink."""
    plans = [(name, get_plan(name)) for name in PLAN_NAMES]
    cells = build_grid(["echo"], SEEDS, plans)

    throughput: dict[int, float] = {}
    canonical: dict[int, str] = {}
    for workers in WORKER_COUNTS:
        best = None
        for _ in range(3):
            started = time.perf_counter()
            report = run_campaign(cells, workers=workers, shrink=False)
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
            canonical[workers] = report.canonical_json()
        throughput[workers] = len(cells) / best

    storm = build_grid(["echo"], [0], [("storm", get_plan("storm"))])[0]
    started = time.perf_counter()
    shrink = shrink_cell(storm)
    shrink_host = time.perf_counter() - started

    return {
        "cells": len(cells),
        "throughput": throughput,
        "canonical": canonical,
        "shrink": shrink,
        "shrink_host_ms": shrink_host * 1e3,
    }


def test_e14_campaign(benchmark):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    throughput = result["throughput"]
    base = throughput[1]
    print_table(
        f"E14 campaign throughput ({result['cells']}-cell grid, "
        f"host cores: {os.cpu_count()})",
        ["workers", "cells/s", "speedup"],
        [[w, f"{throughput[w]:.1f}", f"{throughput[w] / base:.2f}x"]
         for w in WORKER_COUNTS],
    )

    shrink = result["shrink"]
    horizon_full = get_scenario("echo").run_until
    print_table(
        "E14 shrinker on echo/s0/storm",
        ["metric", "value"],
        [
            ["plan actions", f"{len(shrink.original_plan)} -> "
                             f"{len(shrink.minimal_plan)}"],
            ["fault windows", shrink.minimal_plan.window_count()],
            ["horizon", f"{horizon_full} -> {shrink.horizon} us"],
            ["trials (candidate evaluations)", shrink.trials],
            ["executions (clusters built)", shrink.executions],
            ["successful reductions", shrink.reductions],
            ["host time", f"{result['shrink_host_ms']:.0f} ms"],
        ],
    )

    # Reports must not depend on how many workers produced them.
    assert result["canonical"][1] == result["canonical"][2]
    assert result["canonical"][1] == result["canonical"][4]
    # The shrinker's acceptance bar: a <=2-window minimal reproducer.
    assert shrink.minimal_plan.window_count() <= 2
    assert shrink.horizon < horizon_full
    # Scaling is only a claim where the host can physically deliver it.
    if (os.cpu_count() or 1) >= 4:
        assert throughput[4] >= SCALING_FLOOR * throughput[1], (
            f"4-worker campaign reached only "
            f"{throughput[4] / throughput[1]:.2f}x over 1 worker"
        )
