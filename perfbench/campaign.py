"""The ``campaign`` workload: bulk chaos search over a fixed grid.

One step runs ``run_campaign(workers=2, shrink=True)`` over
echo x 8 seeds x {calm, jitter, partition, storm} x {ring, mesh} plus
kv x 4 seeds x {calm, leader_crash, leader_partition} (76 cells); one op
is one cell.  Cell latency is measured at the coordinator, from the
cell's dispatch to its result.  Every repeat runs the same grid, so the
canonical report must be byte-identical across repeats once the shrink
artefacts' file locations are normalised.
"""

from __future__ import annotations

import functools
import hashlib
import json
import shutil
from dataclasses import replace
from pathlib import Path
from time import perf_counter

from perfbench.harness import OpLog

ECHO_PLANS = ("calm", "jitter", "partition", "storm")
KV_PLANS = ("calm", "leader_crash", "leader_partition")
TOPOLOGIES = ("ring", "mesh")
ECHO_SEEDS = 8
KV_SEEDS = 4

#: Verdicts the grid must produce; other plans are not asserted.
EXPECTED = {"storm": "fail", "leader_partition": "fail", "calm": "pass"}

#: Shrink fields that name where this run wrote its golden traces.
PATH_FIELDS = ("trace_path", "repro_command")


def build_cells(seed: int, echo_seeds: int = ECHO_SEEDS,
                kv_seeds: int = KV_SEEDS) -> list:
    """The campaign grid derived from the workload seed."""
    from repro.campaign import build_grid, get_plan

    base = seed * 1000
    echo = build_grid(["echo"], [base + i for i in range(echo_seeds)],
                      [(name, get_plan(name)) for name in ECHO_PLANS],
                      topologies=TOPOLOGIES)
    kv = build_grid(["kv"], [base + i for i in range(kv_seeds)],
                    [(name, get_plan(name)) for name in KV_PLANS])
    return echo + [replace(cell, index=cell.index + len(echo))
                   for cell in kv]


def report_digest(report) -> str:
    """SHA-256 of the canonical report with shrink paths normalised."""
    body = report.canonical_dict()
    body["shrinks"] = [
        {key: ("<normalised>" if key in PATH_FIELDS and value else value)
         for key, value in shrink.items()}
        for shrink in body["shrinks"]
    ]
    blob = json.dumps(body, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class CellClock:
    """Per-cell latency and coordinator dispatch wait, from outside.

    With ``workers > 1`` the fleet's coordinator is replaced by a
    subclass that stamps each cell's dispatch and resolution and times
    the polls made while cells were pending and no worker was idle.
    Inline (``workers == 1``) each ``execute_cell`` call is timed.
    """

    def __init__(self) -> None:
        self.latencies: dict = {}
        self.dispatch_wait = 0.0
        self._sent: dict = {}

    def install(self, patches) -> None:
        """Hook the runner's two execution paths."""
        import repro.campaign.fleet as fleet

        clock = self

        class TimedFleet(fleet.Fleet):
            def _dispatch(self, worker):
                super()._dispatch(worker)
                if worker.cell is not None:
                    clock._sent.setdefault(worker.cell.index, perf_counter())

            def _resolve(self, index, result):
                if index not in self.results and index in clock._sent:
                    clock.latencies[index] = perf_counter() - clock._sent[index]
                super()._resolve(index, result)

            def _poll(self):
                saturated = bool(self._pending) and all(
                    worker.cell is not None
                    for worker in self._workers.values())
                start = perf_counter()
                super()._poll()
                if saturated:
                    clock.dispatch_wait += perf_counter() - start

        def run_fleet(cells, options, metrics=None, on_result=None):
            return TimedFleet(cells, options, metrics=metrics,
                              on_result=on_result).run()

        def timed_execute(fn):
            @functools.wraps(fn)
            def execute(cell):
                start = perf_counter()
                try:
                    return fn(cell)
                finally:
                    self.latencies[cell.index] = perf_counter() - start
            return execute

        patches.function(fleet, "run_fleet", lambda fn: run_fleet)
        patches.function(fleet, "execute_cell", timed_execute)

    def reset(self) -> None:
        """Forget the previous campaign's stamps."""
        self.latencies = {}
        self.dispatch_wait = 0.0
        self._sent = {}


class CampaignWorkload:
    """Closed loop of whole campaigns over one fixed grid."""

    name = "campaign"
    imports = ("repro.campaign",)
    #: Steps per deterministic unit (each step repeats the whole grid).
    unit = 1

    def __init__(self, seed: int, workdir: Path, workers: int = 2):
        self.seed = seed
        self.workdir = workdir
        self.workers = workers
        self.cells: list = []
        self.digest = None
        self.clock = CellClock()
        self.fleet_counters: dict = {}
        self.campaigns = 0
        #: Kernel events of cells run in fleet workers (the parent's own
        #: event counter sees only inline cells and shrink trials).
        self.child_events = 0
        self._patches = None

    def setup(self) -> None:
        """Build the grid and warm one cell of each scenario inline."""
        from repro.campaign.runner import run_cell

        from perfbench.spans import Patches

        self.workdir.mkdir(parents=True, exist_ok=True)
        self.cells = build_cells(self.seed)
        for scenario in ("echo", "kv"):
            run_cell(next(cell for cell in self.cells
                          if cell.scenario == scenario))
        self._patches = Patches()
        self.clock.install(self._patches)

    def teardown(self) -> None:
        """Undo the coordinator hooks and drop the output directory."""
        if self._patches is not None:
            self._patches.restore()
            self._patches = None
        shutil.rmtree(self.workdir, ignore_errors=True)

    def step(self, log: OpLog, cells=None) -> None:
        """Run the grid once; one op per cell."""
        from repro.campaign import run_campaign

        cells = self.cells if cells is None else cells
        out_dir = self.workdir / f"campaign-{self.campaigns}"
        self.campaigns += 1
        self.clock.reset()
        try:
            report = run_campaign(cells, workers=self.workers, shrink=True,
                                  out_dir=str(out_dir))
        except Exception as exc:  # a crashed campaign fails all its cells
            for _ in cells:
                log.fail(f"campaign raised {type(exc).__name__}: {exc}")
            return
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        self.fleet_counters = dict(report.fleet)
        if self.workers > 1:
            self.child_events += sum(cell["events"] for cell in report.cells)
        if cells is self.cells:
            digest = report_digest(report)
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                for _ in cells:
                    log.fail("canonical report differs between repeats")
                return
        for cell in report.cells:
            expected = EXPECTED.get(cell["plan_name"])
            if cell["verdict"] == "error":
                log.fail(f"cell {cell['index']} errored: {cell.get('error')}")
            elif expected is not None and cell["verdict"] != expected:
                log.fail(f"cell {cell['index']} ({cell['scenario']}/"
                         f"{cell['plan_name']}) verdict {cell['verdict']}, "
                         f"expected {expected}")
            else:
                log.ok(self.clock.latencies[cell["index"]])

    def profile_step(self, log: OpLog) -> None:
        """The profiled pass runs a one-seed slice of the grid inline."""
        self.step(log, cells=build_cells(self.seed, echo_seeds=1,
                                         kv_seeds=1))

    def probe(self, log: OpLog) -> dict:
        """One campaign on the two-worker fleet: coordinator wait and
        the fleet's schedule counters."""
        workers, self.workers = self.workers, 2
        try:
            self.step(log)
        finally:
            self.workers = workers
        cells = max(1, len(self.cells))
        return {
            "campaign.dispatch_wait_ms":
                (self.clock.dispatch_wait / cells * 1e3, "ms"),
            "campaign.steals":
                (self.fleet_counters.get("fleet.steals", 0), "count"),
            "campaign.retries":
                (self.fleet_counters.get("fleet.retries", 0), "count"),
        }
