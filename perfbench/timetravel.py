"""The ``timetravel`` workload: the post-mortem debugging loop.

One op is one pipeline on ``kv/leader_partition`` with 100 ms
checkpoints: record (with the scenario's contracts checked online) ->
save -> load -> replay-verify -> offline ``check_trace`` -> 40 seeks and
``why_halted`` -> fork in a separate process with a crash perturbation
-> diff the branches.  Pipelines cycle over eight seeds derived from
the workload seed.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from time import perf_counter

from perfbench.harness import OpLog, median

SEEDS_PER_CYCLE = 8
SEEKS = 40


class TimeTravelWorkload:
    """Closed loop of record -> load -> verify -> fork pipelines."""

    name = "timetravel"
    imports = ("repro.replay", "repro.contracts", "repro.campaign.scenarios")
    unit = SEEDS_PER_CYCLE

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.seeds = [seed * 1000 + i for i in range(SEEDS_PER_CYCLE)]
        self.pipelines = 0
        self.scenario = None
        self.plan = None

    def setup(self) -> None:
        """Resolve the scenario and run one warm-up pipeline."""
        from repro.campaign.scenarios import get_plan, get_scenario

        self.workdir.mkdir(parents=True, exist_ok=True)
        self.scenario = get_scenario("kv")
        self.plan = get_plan("leader_partition")
        self.pipeline(self.seeds[0])

    def teardown(self) -> None:
        """Drop the trace files."""
        shutil.rmtree(self.workdir, ignore_errors=True)

    def record(self, seed: int):
        """Record one run with the scenario's contracts online."""
        from repro.replay import record_run
        from repro.sim.units import MS

        scenario = self.scenario
        return record_run(scenario.build, list(scenario.names), seed=seed,
                          plan=self.plan, checkpoint_every=100 * MS,
                          run_until=scenario.run_until,
                          contracts=scenario.contracts)

    def perturbation(self, trace):
        """(checkpoint index, spec): crash a replica mid-run."""
        from repro.faults import FaultPlan
        from repro.replay import Perturbation
        from repro.sim.units import MS

        checkpoint = len(trace.checkpoints) // 2
        at = trace.checkpoints[checkpoint].time + 1 * MS
        return checkpoint, Perturbation.from_plan(
            FaultPlan().crash(at=at, node="kv2"))

    def pipeline(self, seed: int) -> list:
        """Run one pipeline; returns the failed checks (empty if none)."""
        from repro.contracts.offline import check_trace
        from repro.replay import (Trace, TimeTravel, diff_branches,
                                  fork_trace, replay_trace)

        scenario = self.scenario
        path = self.workdir / f"kv-{seed}.trace.bin"
        trace = self.record(seed)
        trace.save(path)
        loaded = Trace.load(path)
        failures = []
        replayed = replay_trace(loaded, scenario.build)
        if replayed.events != loaded.n_events:
            failures.append("replay verified a different event count")
        offline = check_trace(loaded, scenario.contracts)
        if offline.canonical() != trace.contract_report.canonical():
            failures.append("online and offline contract reports differ")
        if offline.verdicts.get("single_leader") != "fail":
            failures.append("leader_partition did not split the brain")
        travel = TimeTravel(loaded)
        for k in range(SEEKS):
            travel.at(loaded.final_time * k // SEEKS)
        travel.why_halted()
        checkpoint, spec = self.perturbation(loaded)
        child = fork_trace(loaded, scenario.build, checkpoint, spec,
                           mode="process")
        diff = diff_branches(loaded, child, scenario.contracts)
        if diff.identical:
            failures.append("the crash fork did not diverge")
        path.unlink()
        return failures

    def step(self, log: OpLog) -> None:
        """One pipeline is one op."""
        seed = self.seeds[self.pipelines % SEEDS_PER_CYCLE]
        self.pipelines += 1
        start = perf_counter()
        try:
            failures = self.pipeline(seed)
        except Exception as exc:  # divergence, fork failure, ...
            failures = [f"{type(exc).__name__}: {exc}"]
        elapsed = perf_counter() - start
        if failures:
            log.fail(f"seed {seed}: " + "; ".join(failures))
        else:
            log.ok(elapsed)

    def probe(self, log: OpLog) -> dict:
        """Process-mode minus inline fork time on the same specs."""
        from repro.replay import fork_trace

        overheads = []
        for seed in self.seeds:
            trace = self.record(seed)
            checkpoint, spec = self.perturbation(trace)
            timings, children = {}, []
            try:
                for mode in ("process", "inline"):
                    start = perf_counter()
                    children.append(fork_trace(trace, self.scenario.build,
                                               checkpoint, spec, mode=mode))
                    timings[mode] = perf_counter() - start
            except Exception as exc:  # divergence, fork failure, ...
                log.problem(f"seed {seed}: fork probe raised "
                            f"{type(exc).__name__}: {exc}")
                continue
            if children[0].fingerprint() != children[1].fingerprint():
                log.problem(f"seed {seed}: process and inline forks differ")
            overheads.append(timings["process"] - timings["inline"])
        return {"replay.fork_process_overhead_ms":
                (median(overheads) * 1e3, "ms")}
