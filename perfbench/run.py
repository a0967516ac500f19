"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced.
``--trace 1`` reports the per-layer metrics instead: an untraced phase,
a traced phase with spans around every layer boundary, one cProfile
pass and the workload's probes.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import os
import pstats
import shutil
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("campaign", "timetravel", "session")

#: Share of ``--seconds`` given to each phase of a traced run.
UNTRACED_SHARE = 0.5
TRACED_SHARE = 0.5
PROFILE_SHARE = 0.15

#: ``repro`` packages whose cProfile self time is reported by name.
PACKAGES = ("agent", "campaign", "cclu", "contracts", "cvm", "debugger",
            "faults", "kernel", "live", "mayflower", "net", "obs",
            "replay", "ring", "rpc", "servers", "service", "sim")

#: Span-derived self times reported per op: metric -> span name.
SELF_METRICS = {
    "sim.run_self_ms": "sim.run",
    "mayflower.self_ms": "mayflower.sched",
    "mayflower.halt_ms": "mayflower.halt",
    "cvm.self_ms": "cvm.commit",
    "cclu.compile_ms": "cclu.compile",
    "net.self_ms": "net.transmit",
    "faults.self_ms": "faults.shaper",
    "rpc.self_ms": "rpc.start_call",
    "debugger.cmd_self_ms": "debugger.cmd",
    "obs.emit_self_ms": "obs.emit",
    "obs.recorder_ms": "obs.recorder",
    "contracts.monitor_report_ms": "contracts.monitor_report",
    "contracts.check_trace_ms": "contracts.check_trace",
    "replay.finish_ms": "replay.finish",
    "replay.save_ms": "replay.save",
    "replay.read_ms": "replay.read",
    "replay.verify_compare_ms": "replay.verify",
    "replay.why_halted_ms": "replay.why_halted",
    "replay.diff_ms": "replay.diff",
    "service.handle_ms": "service.handle",
    "service.wire_ms": "service.request",
    "service.render_ms": "service.render",
    "trace.unattributed_ms": "op",
}

#: Counts reported per op over the first deterministic unit of ops.
COUNT_METRICS = {
    "kernel.events_per_op": "kernel.events",
    "cvm.instructions": "cvm.instructions",
    "net.packets": "net.packets",
    "net.nacked": "net.nacked",
    "net.dropped": "net.dropped",
    "rpc.calls": "rpc.calls",
    "rpc.failed": "rpc.failed",
    "rpc.retransmits": "rpc.retransmits",
    "obs.emits": "obs.emits",
    "contracts.feeds": "contracts.feeds",
    "replay.trace_bytes": "replay.trace_bytes",
    "replay.events": "replay.events",
    "replay.checkpoints": "replay.checkpoints",
}

COUNT_UNITS = {"replay.trace_bytes": "bytes"}


def parse_args(argv):
    """The command line the benchmark contract fixes."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def make_workload(name: str, seed: int, workdir: Path):
    """Instantiate one workload."""
    if name == "campaign":
        from perfbench.campaign import CampaignWorkload
        return CampaignWorkload(seed, workdir)
    if name == "timetravel":
        from perfbench.timetravel import TimeTravelWorkload
        return TimeTravelWorkload(seed, workdir)
    from perfbench.session import SessionWorkload
    return SessionWorkload(seed, workdir)


# ----------------------------------------------------------------------
# End-to-end run
# ----------------------------------------------------------------------


def end_to_end(workload, seconds: float, log) -> dict:
    """Rounds of set-up, untraced closed-loop measurement and tear-down.

    Each round starts the workload afresh (a new daemon thread, new
    fleet workers), so one run samples several thread placements and
    heap layouts.  Rates and latencies pool the measured time of all
    rounds; set-up time is the median over rounds.
    """
    from perfbench import harness
    from perfbench.spans import EventCounter, StageTimer

    setups, rates = [], []
    measured = events = 0.0
    counter = EventCounter().install()
    stages = StageTimer().install()
    try:
        for _ in range(harness.ROUNDS):
            try:
                setups.append(harness.timed_setup(workload, str(SRC)))
                ops = log.attempted
                before = counter.events + getattr(workload, "child_events", 0)
                wall, _ = harness.run_phase(lambda: workload.step(log),
                                            seconds / harness.ROUNDS)
                if not rates and hasattr(workload, "defect_probe"):
                    workload.defect_probe(log)
            finally:
                workload.teardown()
            events += (counter.events + getattr(workload, "child_events", 0)
                       - before)
            measured += wall
            rates.append((log.attempted - ops) / wall)
    finally:
        stages.restore()
        counter.restore()
    percent, tail_value, blocks = harness.tail(log.latencies or [0.0])
    m = harness.metric
    metrics = {
        "setup_s": m(harness.median(setups), "s"),
        "ops_per_s": m(log.attempted / measured, "1/s"),
        "op_p50_ms": m(harness.percentile(log.latencies or [0.0], 50) * 1e3,
                       "ms"),
        "op_tail_ms": m(tail_value * 1e3, "ms"),
        "success_rate": m(1.0 - log.failed / max(1, log.attempted), "ratio"),
        "sim_events_per_s": m(events / measured, "1/s"),
        "peak_rss_mb": m(harness.peak_rss_mb(), "MB"),
    }
    print(f"  {harness.ROUNDS} rounds, {log.attempted} ops in {measured:.2f} s;"
          f" per-round ops/s {[round(r, 2) for r in rates]}; set-up "
          f"{[round(s, 4) for s in setups]} s")
    whole = harness.tail_percentile(len(log.latencies))
    whole_ms = harness.percentile(log.latencies or [0.0], whole) * 1e3
    print(f"  op_tail_ms: median over {blocks} block(s) of the p{percent:g} "
          f"of {len(log.latencies)} successful ops (blocks of up to "
          f"{harness.TAIL_BLOCK}, at least {harness.TAIL_MIN_BEYOND} "
          f"beyond); whole-run p{whole:g} {whole_ms:.4f} ms")
    print(f"  error_rate {log.failed / max(1, log.attempted):.6f} "
          f"({log.failed} of {log.attempted} ops failed or refused)")
    shown = ", ".join(f"{name} {harness.median(values) * 1e3:.3f} ms"
                      for name, values in stages.samples.items() if values)
    if shown:
        print(f"  stage medians (set-up included; per call): {shown}")
    return metrics


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------


def profile_shares(stats: pstats.Stats, skip=()) -> dict:
    """cProfile self time grouped by ``repro.<package>``, as shares."""
    prefix = str(SRC / "repro") + os.sep
    totals = {name: 0.0 for name in PACKAGES}
    totals["other_repro"] = 0.0
    totals["outside"] = 0.0
    for (filename, _line, func), row in stats.stats.items():
        if any(word in func for word in skip):
            continue
        own = row[2]
        if filename.startswith(prefix):
            parts = filename[len(prefix):].split(os.sep)
            package = parts[0] if len(parts) > 1 else ""
            key = package if package in PACKAGES else "other_repro"
        else:
            key = "outside"
        totals[key] += own
    whole = sum(totals.values()) or 1.0
    return {f"prof.{name}.self_share": (value / whole, "ratio")
            for name, value in totals.items()}


def profiled_pass(workload, seconds: float, log) -> dict:
    """One cProfile pass over the workload (daemon thread included)."""
    from repro.service.daemon import PilgrimService

    from perfbench.harness import run_phase
    from perfbench.spans import Patches

    main = cProfile.Profile()
    daemon = cProfile.Profile()
    patches = Patches()
    # The daemon serves on its own thread; profile its handler there.
    patches.method(PilgrimService, "handle", lambda fn: functools.wraps(fn)(
        lambda *a, **k: daemon.runcall(fn, *a, **k)))
    step = getattr(workload, "profile_step", workload.step)
    try:
        main.enable()
        run_phase(lambda: step(log), seconds)
    finally:
        main.disable()
        patches.restore()
    stats = pstats.Stats(main)
    skip = ()
    if daemon.getstats():
        stats.add(daemon)
        # The client thread's blocking socket reads overlap the daemon's
        # work, which the daemon profile already covers.
        skip = ("recv_into", "readline")
    return profile_shares(stats, skip)


def span_metrics(tracer, ops: int) -> dict:
    """Per-layer times from the traced phase's spans."""
    out = {name: (tracer.self_s.get(span_name, 0.0) / ops * 1e3, "ms")
           for name, span_name in SELF_METRICS.items()}
    seeks = max(1, tracer.calls.get("replay.seek", 0))
    out["replay.seek_us"] = (
        tracer.self_s.get("replay.seek", 0.0) / seeks * 1e6, "us")
    for name, span_name in (("campaign.cell_ms", "campaign.cell"),
                            ("service.materialize_ms",
                             "service.materialize")):
        calls = max(1, tracer.calls.get(span_name, 0))
        out[name] = (tracer.total_s.get(span_name, 0.0) / calls * 1e3, "ms")
    out["trace.op_ms"] = (tracer.total_s.get("op", 0.0) / ops * 1e3, "ms")
    return out


def count_metrics(unit: dict) -> dict:
    """Per-layer counts over the first deterministic unit of ops."""
    from perfbench.harness import percentile

    ops = max(1, unit["ops"])
    counts, samples = unit["counts"], unit["samples"]
    out = {name: (counts.get(key, 0) / ops, COUNT_UNITS.get(name, "count"))
           for name, key in COUNT_METRICS.items()}
    commands = max(1, counts.get("debugger.commands", 0))
    out["agent.packets_per_cmd"] = (
        counts.get("agent.packets", 0) / commands, "count")
    for name, key in (("agent.virtual_rtt_us", "agent.virtual_rtt_us"),
                      ("rpc.latency_us_p50", "rpc.latency_us")):
        values = samples.get(key)
        out[name] = (percentile(values, 50) if values else 0, "us")
    trials = counts.get("campaign.shrink_trials", 0)
    out["campaign.shrink_trials"] = (
        trials / max(1, counts.get("campaign.shrinks", 0)), "count")
    out["campaign.shrink_useful_ratio"] = (
        counts.get("campaign.shrink_reductions", 0) / max(1, trials),
        "ratio")
    return out


#: Probe metrics, zero on the workloads that have no such probe.
PROBE_METRICS = {
    "replay.fork_process_overhead_ms": "ms",
    "campaign.dispatch_wait_ms": "ms",
    "campaign.steals": "count",
    "campaign.retries": "count",
    "service.known_failures": "count",
}


def traced(workload, seconds: float, log) -> dict:
    """The per-layer run: untraced, traced, profiled, then probes.

    Only the traced phase counts into ``log`` (the result line's
    attempted/failed); a failed check in any other phase still makes
    the run incorrect.
    """
    from perfbench import harness
    from perfbench.harness import OpLog, median, run_phase
    from perfbench.spans import StageTimer, Tracer, install, root_span

    workload.setup()
    if hasattr(workload, "workers"):
        workload.workers = 1
        print("  campaign traced inline (workers=1): fleet workers are "
              "forked children and are never traced")

    side = OpLog()
    stages = StageTimer().install()
    try:
        wall_a, _ = run_phase(lambda: workload.step(side),
                              seconds * UNTRACED_SHARE, workload.unit)
    finally:
        stages.restore()
    untraced_ops = side.attempted

    tracer = Tracer()
    patches = install(tracer)
    unit, steps = {}, [0]

    def traced_step():
        root_span(tracer, "op", lambda: workload.step(log))
        steps[0] += 1
        if steps[0] == workload.unit:
            unit.update(tracer.snapshot_counts(), ops=log.attempted)

    try:
        wall_b, _ = run_phase(traced_step, seconds * TRACED_SHARE,
                              workload.unit)
    finally:
        patches.restore()

    profile = profiled_pass(workload, seconds * PROFILE_SHARE, side)
    probes = workload.probe(side) if hasattr(workload, "probe") else {}
    if hasattr(workload, "defect_probe"):
        probes["service.known_failures"] = (workload.defect_probe(log),
                                            "count")

    ops = max(1, log.attempted)
    out = {name: (0, unit_name) for name, unit_name in PROBE_METRICS.items()}
    out.update({name: (0.0, "ms") for name, _m, _a in StageTimer.STAGES})
    out.update({name: (median(values) * 1e3, "ms")
                for name, values in stages.samples.items()})
    out.update(span_metrics(tracer, ops))
    out.update(count_metrics(unit))
    out.update(probes)
    out.update(profile)
    out["trace.overhead_ratio"] = (
        (untraced_ops / wall_a) / max(1e-12, log.attempted / wall_b), "ratio")

    print(f"  untraced phase: {untraced_ops} ops in {wall_a:.2f} s;"
          f" traced phase: {log.attempted} ops in {wall_b:.2f} s")
    accounted = sum(tracer.self_s.values()) / ops * 1e3
    print(f"  self time per op by span (sum {accounted:.4f} ms = traced op "
          f"time {out['trace.op_ms'][0]:.4f} ms):")
    for span_name, value in sorted(tracer.self_s.items(),
                                   key=lambda item: -item[1]):
        print(f"    {span_name:<26} {value / ops * 1e3:12.4f} ms "
              f"({tracer.calls[span_name]} calls)")
    for why in side.problems:
        log.problem(f"outside the traced phase: {why}")
    if side.unexpected and not side.problems:
        log.problem("outside the traced phase: an op failed")
    return {name: harness.metric(value, unit_name)
            for name, (value, unit_name) in sorted(out.items())}


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    """Run one workload; returns the exit code."""
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources at {SRC}; run from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    os.environ.pop("REPRO_PROFILE", None)  # the program's own profiler
    os.chdir(ROOT)

    from perfbench import fidelity, harness
    from perfbench.harness import OpLog

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    log = OpLog()
    moved = fidelity.check()
    for message in moved:
        log.problem(f"paper anchor moved: {message}")
    print(f"  paper fidelity gate: {'FAILED' if moved else 'passed'} "
          f"({len(fidelity.ANCHORS)} virtual-time anchors)")

    workdir = Path(".bench_tmp") / f"{args.workload}-{os.getpid()}"
    workload = make_workload(args.workload, args.seed, workdir)
    started = perf_counter()
    try:
        if args.trace:
            try:
                metrics = traced(workload, args.seconds, log)
            finally:
                workload.teardown()
        else:
            metrics = end_to_end(workload, args.seconds, log)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    for why, count in sorted(log.known.items()):
        print(f"  known defect x{count}: {why}")
    for why in log.problems:
        print(f"  PROBLEM: {why}")
    harness.print_table(f"{args.workload} ({'per-layer' if args.trace else 'end-to-end'}, "
                        f"{perf_counter() - started:.1f} s)", metrics)
    harness.print_result(log.correct, max(1, log.attempted), log.failed,
                         metrics)
    return 0 if log.correct else 1


if __name__ == "__main__":
    sys.exit(main())
