"""Deterministic re-execution of a recorded trace.

Every execution of a scenario — a recording, a replay, a fork, a
campaign cell, a shrink trial — follows one :class:`Recipe`: build the
cluster, attach observers, ``build(cluster)``, schedule the fault plan,
drive.  The recipe is the trace header plus the drive boundary, so
:meth:`Recipe.of` rebuilds it from any re-executable recording and the
replayed stream matches the recording byte for byte.

:func:`record_run` drives a scenario under a :class:`TraceWriter`;
:class:`ReplayWorld` re-runs the trace's recipe and
:meth:`ReplayWorld.verify` asserts the replayed event stream is
byte-identical to the recording (:func:`compare_lines`, the one
event-divergence check) and that every recorded checkpoint digest, RNG
position included, is reproduced — which catches drift the event
stream alone would miss.  :func:`reproduce` replays a campaign golden
and re-judges it under its scenario's contracts.

The *scenario* (programs, services, workload) is not serializable, so
every caller passes the same ``build(cluster)`` callable; the recipe
pins everything else.  Interactive recordings (``drive.mode ==
"manual"``, e.g. from a live :class:`~repro.debugger.pilgrim.Pilgrim`
session) support time travel but never re-execution — the debugger's
request timing is not part of the trace — and :meth:`Recipe.of`
refuses them with :class:`ReplayUnsupported`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.debugger.errors import DebuggerError, register_error
from repro.replay.trace import Trace, TraceWriter

if TYPE_CHECKING:
    from repro.cluster import Cluster
    from repro.faults.plan import FaultPlan
    from repro.params import Params


@register_error
class ReplayDivergence(DebuggerError, AssertionError):
    """The replayed stream differs from the recording.

    Carries the first mismatching event index, the expected (recorded)
    and actual (replayed) normalized lines — ``None`` on a length
    mismatch — and ``kind`` (``"event"``, ``"checkpoint"``, or
    ``"final_time"``).  Part of the :mod:`repro.debugger.errors`
    hierarchy (code ``divergence``) so the session daemon relays it
    losslessly; still an :class:`AssertionError` for its long-standing
    test-facing contract.
    """

    code = "divergence"

    def __init__(self, kind: str, index: int,
                 expected: Optional[str], actual: Optional[str]):
        self.kind = kind
        self.index = index
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"replay diverged ({kind}) at index {index}:\n"
            f"  expected: {expected!r}\n"
            f"  actual:   {actual!r}"
        )


class ReplayUnsupported(RuntimeError):
    """The trace cannot be re-executed (manually driven recording)."""


@dataclass
class ReplayReport:
    """Outcome of a verified replay."""

    events: int
    checkpoints_verified: int
    final_time: int
    fingerprint: str
    identical: bool = True


@dataclass(frozen=True)
class Recipe:
    """How one execution of a scenario is built and driven.

    The fields are the trace header's cluster recipe (seed, node names,
    params, clock skews, topology, fault plan, checkpoint cadence) plus
    ``until``, the drive boundary (``None`` drains the queue).  Callers
    build the cluster with :meth:`cluster`, attach their writer,
    recorder or monitor, then call :meth:`run`; that fixed order is what
    makes a replay, a fork prefix, a campaign fingerprint and a shrunk
    reproducer match the recording byte for byte.
    """

    names: tuple
    seed: int = 0
    params: Optional["Params"] = None
    clock_skews: Optional[tuple] = None
    topology: str = "ring"
    plan: Optional["FaultPlan"] = None
    checkpoint_every: Optional[int] = None
    until: Optional[int] = None

    @classmethod
    def of(cls, trace: Trace, until: Optional[int] = None) -> "Recipe":
        """The recipe a re-executable trace was recorded under.

        ``until`` overrides how far the run goes, never whether the
        trace can be re-executed: a manually driven recording starts
        mid-run with debugger-induced timing that no fresh execution
        reproduces, so it raises :class:`ReplayUnsupported` either way.
        """
        drive = trace.footer.get("drive") or {"mode": "manual"}
        if drive.get("mode") not in ("until", "drain"):
            raise ReplayUnsupported(
                "trace was recorded from a manually driven session and "
                "cannot be re-executed; record with record_run to make it "
                "replayable and forkable"
            )
        header = trace.header
        return cls(
            names=tuple(header["names"]),
            seed=header["seed"],
            params=trace.params(),
            clock_skews=tuple(header["clock_skews"]),
            topology=trace.topology,
            plan=trace.fault_plan(),
            checkpoint_every=header.get("checkpoint_every"),
            until=until if until is not None else drive.get("until"),
        )

    @property
    def drive(self) -> dict:
        """The footer record of how this recipe drives its run."""
        if self.until is None:
            return {"mode": "drain"}
        return {"mode": "until", "until": self.until}

    def cluster(self) -> "Cluster":
        """A fresh :class:`~repro.cluster.Cluster` built to this recipe."""
        from repro.cluster import Cluster

        return Cluster(names=list(self.names), seed=self.seed,
                       params=self.params, clock_skews=self.clock_skews,
                       topology=self.topology)

    def writer(self, cluster: "Cluster", meta: Optional[dict] = None) -> TraceWriter:
        """A :class:`TraceWriter` on ``cluster`` whose header is this recipe."""
        return TraceWriter(cluster, plan=self.plan,
                           checkpoint_every=self.checkpoint_every, meta=meta)

    def run(self, cluster: "Cluster", build: Callable):
        """Build the scenario, schedule the plan, drive; returns what
        ``build(cluster)`` returned (a campaign scenario's probes).

        An empty plan starts no nemesis, so it records exactly what no
        plan does.
        """
        from repro.faults.plan import Nemesis

        built = build(cluster)
        if self.plan is not None and self.plan.actions:
            Nemesis(cluster, self.plan)
        cluster.run(until=self.until)
        return built


def compare_lines(expected: list, actual: list,
                  upto: Optional[int] = None) -> None:
    """Raise ``ReplayDivergence("event", ...)`` at the first index where
    ``actual`` departs from ``expected`` (a missing line reads ``None``).

    ``upto`` limits the comparison to the first ``upto`` lines of each
    side — the shared prefix of a partial replay or a fork.
    """
    if upto is not None:
        expected, actual = expected[:upto], actual[:upto]
    if expected == actual:
        return
    for index, (want, got) in enumerate(zip(expected, actual)):
        if want != got:
            raise ReplayDivergence("event", index, want, got)
    index = min(len(expected), len(actual))
    raise ReplayDivergence(
        "event", index,
        expected[index] if index < len(expected) else None,
        actual[index] if index < len(actual) else None,
    )


def record_run(
    build: Callable,
    names: list[str],
    seed: int = 0,
    params=None,
    plan=None,
    checkpoint_every: Optional[int] = None,
    run_until: Optional[int] = None,
    clock_skews: Optional[list[int]] = None,
    meta: Optional[dict] = None,
    topology: str = "ring",
    contracts=None,
) -> Trace:
    """Record one scenario run and return the sealed trace.

    ``build(cluster)`` installs programs/services/workload; the rest of
    the arguments form the :class:`Recipe` that lands in the trace
    header, so :class:`ReplayWorld` can repeat it exactly.

    ``contracts`` (a :class:`~repro.contracts.dsl.ContractSet` or
    contract iterable) additionally attaches an online
    :class:`~repro.contracts.online.ContractMonitor` beside the writer;
    its finished report lands on the returned trace as
    ``trace.contract_report`` — byte-identical, by construction, to
    ``check_trace(trace, contracts)`` over the same recording.
    """
    from repro.kernel.profile import ProfileHook

    recipe = Recipe(names=tuple(names), seed=seed, params=params,
                    clock_skews=clock_skews, topology=topology, plan=plan,
                    checkpoint_every=checkpoint_every, until=run_until)
    cluster = recipe.cluster()
    writer = recipe.writer(cluster, meta=meta)
    monitor = None
    if contracts is not None:
        from repro.contracts.online import ContractMonitor

        monitor = ContractMonitor(cluster.world.bus, contracts)
    # REPRO_PROFILE=1 wraps the run in cProfile; the stats land next
    # to the trace file when it is saved (see EXPERIMENTS.md).
    hook = ProfileHook()
    with hook:
        recipe.run(cluster, build)
    trace = writer.finish(drive=recipe.drive)
    trace.profile = hook
    if monitor is not None:
        trace.contract_report = monitor.report()
    return trace


class ReplayWorld:
    """Re-execute a recorded trace against the same scenario builder.

    ``run_until`` cuts the replay short (see :func:`replay_prefix`);
    :attr:`cluster` stays readable after :meth:`run`, for probe checks.
    """

    def __init__(self, trace: Trace, build: Callable,
                 run_until: Optional[int] = None):
        self.trace = trace
        self.recipe = Recipe.of(trace, until=run_until)
        self.cluster = self.recipe.cluster()
        self.writer = self.recipe.writer(self.cluster)
        self._build = build
        #: What ``build(cluster)`` returned, once :meth:`run` has run.
        self.built = None
        self._replayed: Optional[Trace] = None

    def run(self) -> Trace:
        """Drive the replay exactly as the recording was driven."""
        if self._replayed is None:
            self.built = self.recipe.run(self.cluster, self._build)
            self._replayed = self.writer.finish(drive=self.recipe.drive)
        return self._replayed

    def verify(self) -> ReplayReport:
        """Run (if needed) and assert byte-identity with the recording."""
        recorded = self.trace
        replayed = self.run()
        compare_lines(recorded.lines(), replayed.lines())
        if recorded.final_time != replayed.final_time:
            raise ReplayDivergence(
                "final_time", recorded.n_events,
                str(recorded.final_time), str(replayed.final_time),
            )
        verified = 0
        for rec_cp, rep_cp in zip(recorded.checkpoints, replayed.checkpoints):
            if rec_cp.index != rep_cp.index or rec_cp.time != rep_cp.time:
                raise ReplayDivergence(
                    "checkpoint", rec_cp.index,
                    f"checkpoint at index {rec_cp.index} t={rec_cp.time}",
                    f"checkpoint at index {rep_cp.index} t={rep_cp.time}",
                )
            if rec_cp.view.to_dict() != rep_cp.view.to_dict():
                raise ReplayDivergence(
                    "checkpoint", rec_cp.index,
                    repr(rec_cp.view.to_dict()), repr(rep_cp.view.to_dict()),
                )
            if rec_cp.state != rep_cp.state:
                raise ReplayDivergence(
                    "checkpoint", rec_cp.index,
                    "recorded state digest", "replayed state digest differs",
                )
            verified += 1
        if len(recorded.checkpoints) != len(replayed.checkpoints):
            raise ReplayDivergence(
                "checkpoint", verified,
                f"{len(recorded.checkpoints)} checkpoints",
                f"{len(replayed.checkpoints)} checkpoints",
            )
        return ReplayReport(
            events=replayed.n_events,
            checkpoints_verified=verified,
            final_time=replayed.final_time,
            fingerprint=replayed.fingerprint(),
        )


def replay_trace(trace: Trace, build: Callable,
                 run_until: Optional[int] = None) -> ReplayReport:
    """Convenience: rebuild, re-run, and verify in one call."""
    return ReplayWorld(trace, build, run_until=run_until).verify()


def reproduce(trace: Trace, scenario) -> tuple[ReplayReport, list]:
    """Replay a campaign golden and re-judge it: ``(report, violations)``.

    ``scenario`` is the :class:`~repro.campaign.scenarios.Scenario` the
    trace was recorded under.  Probe contracts check the replayed
    cluster; event contracts fold offline over the replayed stream —
    the verdict the online monitor gave during the recording.
    """
    world = ReplayWorld(trace, scenario.build)
    report = world.verify()
    return report, scenario.check(world.cluster, world.built,
                                  trace=world.run())


def extract_verdict(trace: Trace) -> dict:
    """Fold the failure-relevant facts out of a recorded trace.

    The campaign runner attaches one of these to every failing cell so
    the report can say *what kind* of failure the trace holds without
    re-executing it: counts of failed RPC calls / failed processes /
    stale rejections / injected faults, the distinct failed call ids,
    and the earliest failure's time and index (where a shrinker or a
    human should start reading).
    """
    counts = {"rpc_failed": 0, "proc_failed": 0,
              "rpc_stale_rejected": 0, "faults_injected": 0}
    failed_calls: list[int] = []
    first_failure: Optional[dict] = None
    for event in trace.events:
        key = {
            "RpcCallFailed": "rpc_failed",
            "ProcessFailed": "proc_failed",
            "RpcStaleRejected": "rpc_stale_rejected",
            "FaultInjected": "faults_injected",
        }.get(event.type)
        if key is None:
            continue
        counts[key] += 1
        if event.type == "RpcCallFailed":
            call_id = event.fields.get("call_id")
            if call_id is not None and call_id not in failed_calls:
                failed_calls.append(call_id)
        if (event.type in ("RpcCallFailed", "ProcessFailed")
                and first_failure is None):
            first_failure = {"index": event.index, "time": event.time,
                             "type": event.type}
    return {
        "final_time": trace.final_time,
        "events": len(trace.events),
        "fingerprint": trace.footer.get("fingerprint"),
        "counts": counts,
        "failed_calls": failed_calls,
        "first_failure": first_failure,
    }


def replay_prefix(trace: Trace, build: Callable,
                  checkpoint_index: int) -> ReplayReport:
    """Checkpoint-seeded partial re-execution.

    Re-executes the recording only up to checkpoint ``checkpoint_index``
    and verifies the event prefix byte-for-byte — the cheap way to ask
    "does the run still follow the recording this far?" without paying
    for the full horizon.  The shrinker's horizon bisection and the
    campaign ``repro`` command use this to localize the first event a
    minimized plan actually needs.
    """
    checkpoint = trace.checkpoints[checkpoint_index]
    replayed = ReplayWorld(trace, build, run_until=checkpoint.time + 1).run()
    compare_lines(trace.lines(), replayed.lines(), upto=checkpoint.index)
    return ReplayReport(
        events=checkpoint.index,
        checkpoints_verified=checkpoint_index + 1,
        final_time=checkpoint.time,
        fingerprint=replayed.fingerprint(),
    )
