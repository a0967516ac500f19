"""Span tracing around the public entry points of each ``repro`` layer.

The benchmark never edits the program: it wraps the layer boundaries
listed in :func:`install` from the outside, for the length of a traced
phase, and restores the originals afterwards.  Each wrapper records a
span (start, end, parent) in memory; a span's *self* time is its
duration minus the time its child spans cover, so the self times of all
spans plus the root span's own self time (the unattributed remainder)
add up to the traced wall time.

Counts ride on the same boundaries: kernel events and world metric
deltas at every ``World.run`` exit, materialized bus events at
``Bus.emit``, agent packets at ``Transport.transmit``, and so on.

Spans are kept per thread.  The session daemon serves on its own
thread, so :meth:`PilgrimService.handle` spans attach to the client's
in-flight ``ServiceClient.request`` span as their parent; the wire time
is then the request's self time.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import weakref
from collections import Counter, defaultdict
from time import perf_counter

#: World metric series whose per-run deltas become layer counts.
WORLD_COUNTERS = {
    "ring.packets_sent": "net.packets",
    "ring.packets_nacked": "net.nacked",
    "ring.packets_dropped": "net.dropped",
    "rpc.calls_started": "rpc.calls",
    "rpc.calls_failed": "rpc.failed",
    "rpc.retransmits": "rpc.retransmits",
}

#: Debugger commands that cost exactly one agent round trip (paper E9).
SINGLE_REQUEST_COMMANDS = frozenset({"processes", "backtrace", "read_var",
                                     "process_state", "write_var"})


def _series_total(series) -> int:
    """Plain integer value of a Counter / LabeledCounter / Gauge."""
    total = getattr(series, "total", None)
    if total is not None:
        return total
    return getattr(series, "value", 0)


class Tracer:
    """In-memory span and count store for one traced phase."""

    def __init__(self) -> None:
        self.self_s: dict = defaultdict(float)
        self.total_s: dict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.samples: dict = defaultdict(list)
        self._local = threading.local()
        #: The client thread's open request frame, adopted as parent by
        #: the daemon thread's ``handle`` span (one request in flight).
        self.remote_parent = None
        self._world_marks = weakref.WeakKeyDictionary()

    def stack(self) -> list:
        """This thread's open span frames (``[name, child_seconds]``)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def close(self, name: str, duration: float, frame: list,
              parent) -> None:
        """Account a finished span to its name and to its parent."""
        self.self_s[name] += duration - frame[1]
        self.total_s[name] += duration
        self.calls[name] += 1
        if parent is not None:
            parent[1] += duration

    def snapshot_counts(self) -> dict:
        """Copy of the counts and exact samples taken so far."""
        return {"counts": Counter(self.counts),
                "samples": {k: list(v) for k, v in self.samples.items()}}

    # -- world counters ---------------------------------------------------

    def harvest_world(self, world) -> None:
        """Fold one world's metric deltas since its last harvest."""
        series = world.metrics.series()
        marks = self._world_marks.setdefault(world, {})
        for source, name in WORLD_COUNTERS.items():
            value = _series_total(series[source]) if source in series else 0
            self.counts[name] += value - marks.get(source, 0)
            marks[source] = value


def span(tracer: Tracer, name: str, fn, on_exit=None):
    """Wrap ``fn`` so each call is a span named ``name``.

    A call on a thread with no open span (the daemon's ``handle``)
    takes the client's in-flight request as its parent.
    ``on_exit(args, kwargs, result)`` runs after the span closes, for
    counts that need the call's arguments or result.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = tracer.stack()
        parent = stack[-1] if stack else tracer.remote_parent
        frame = [name, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            stack.pop()
            tracer.close(name, duration, frame, parent)
        if on_exit is not None:
            on_exit(args, kwargs, result)
        return result

    return wrapper


def root_span(tracer: Tracer, name: str, fn):
    """Run ``fn()`` as a root span; returns its result."""
    return span(tracer, name, fn)()


def _request_span(tracer: Tracer, name: str, fn):
    """The client request span: publishes its frame as the parent of
    the daemon thread's ``handle`` span (one request in flight)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = tracer.stack()
        parent = stack[-1] if stack else None
        frame = [name, 0.0]
        stack.append(frame)
        tracer.remote_parent = frame
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            tracer.remote_parent = None
            stack.pop()
            tracer.close(name, duration, frame, parent)

    return wrapper


def _counter(tracer: Tracer, name: str, fn):
    """Count calls without timing them (their time stays in the parent)."""
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


class Patches:
    """Replace attributes, remembering the originals for :meth:`restore`.

    Module-level functions are also replaced in every loaded ``repro``
    module that imported them by name, so callers that bound the
    function at import time see the wrapper too.
    """

    def __init__(self) -> None:
        self._undo: list = []

    def method(self, cls, attr: str, make) -> None:
        """Wrap ``cls.attr`` (looked up on the class itself)."""
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._undo.append((cls, attr, original))

    def function(self, module, attr: str, make) -> None:
        """Wrap ``module.attr`` and every by-name import of it."""
        original = getattr(module, attr)
        wrapped = make(original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)
                    self._undo.append((loaded, key, original))

    def restore(self) -> None:
        """Put every original back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _import_all() -> None:
    """Import every ``repro`` module before wrapping anything, so no
    module binds a wrapper by name during the traced phase and keeps it
    after :meth:`Patches.restore`."""
    import importlib
    import pkgutil

    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def install(tracer: Tracer) -> Patches:
    """Wrap every layer boundary; returns the handle that undoes it."""
    _import_all()
    import repro.campaign.runner as runner
    import repro.campaign.shrink as shrink
    import repro.contracts.offline as offline
    import repro.obs.recorder as recorder
    import repro.replay.branch as branch
    import repro.replay.format as fmt
    import repro.service.dispatch as dispatch
    from repro.cluster import Cluster
    from repro.contracts.dsl import CheckerBank
    from repro.contracts.online import ContractMonitor
    from repro.cvm.interp import VmExecutor
    from repro.debugger.pilgrim import Pilgrim
    from repro.faults.shaper import LinkShaper
    from repro.mayflower.scheduler import Supervisor
    from repro.net.base import Transport
    from repro.obs.bus import Bus
    from repro.replay.replay import ReplayWorld
    from repro.replay.timetravel import TimeTravel
    from repro.replay.trace import Trace, TraceWriter
    from repro.rpc.runtime import RpcRuntime
    from repro.service import daemon
    from repro.service.client import ServiceClient
    from repro.sim.world import World

    patches = Patches()
    counts = tracer.counts
    samples = tracer.samples

    def timed(name, on_exit=None):
        return lambda fn: span(tracer, name, fn, on_exit)

    # kernel / sim: World.run, with the event count and metric deltas.
    def world_run(fn):
        @functools.wraps(fn)
        def run(world, *args, **kwargs):
            before = world.events_processed
            try:
                return fn(world, *args, **kwargs)
            finally:
                counts["kernel.events"] += world.events_processed - before
                tracer.harvest_world(world)
        return span(tracer, "sim.run", run)
    patches.method(World, "run", world_run)

    # mayflower
    for attr in ("make_ready", "block", "unblock"):
        patches.method(Supervisor, attr, timed("mayflower.sched"))
    for attr in ("halt_all", "resume_all"):
        patches.method(Supervisor, attr, timed("mayflower.halt"))

    # cvm: one commit per executed instruction.
    def commit(fn):
        def count(args, kwargs, result):
            counts["cvm.instructions"] += 1
        return span(tracer, "cvm.commit", fn, count)
    patches.method(VmExecutor, "commit", commit)

    # cclu: every world compiles its programs.
    patches.method(Cluster, "load_program", timed("cclu.compile"))

    # net: the shared send path; agent traffic counted by packet kind.
    def transmit_exit(args, kwargs, result):
        packet = args[2] if len(args) > 2 else kwargs.get("packet")
        if str(getattr(packet, "kind", "")).startswith("agent"):
            counts["agent.packets"] += 1
    patches.method(Transport, "transmit",
                   timed("net.transmit", transmit_exit))

    # faults: the shaper's decision points.
    for attr in ("drops", "forces_nack", "delivery_offsets"):
        patches.method(LinkShaper, attr, timed("faults.shaper"))

    # rpc
    patches.method(RpcRuntime, "start_call", timed("rpc.start_call"))

    # debugger: every public Pilgrim command; outermost calls count as
    # commands, single-request ones also give the virtual round trip.
    depth = threading.local()

    def command(attr):
        def make(fn):
            @functools.wraps(fn)
            def call(self, *args, **kwargs):
                level = getattr(depth, "level", 0)
                depth.level = level + 1
                began = self.world.now
                try:
                    return fn(self, *args, **kwargs)
                finally:
                    depth.level = level
                    if level == 0:
                        counts["debugger.commands"] += 1
                        if attr in SINGLE_REQUEST_COMMANDS:
                            samples["agent.virtual_rtt_us"].append(
                                self.world.now - began)
            return span(tracer, "debugger.cmd", call)
        return make
    for attr, value in list(vars(Pilgrim).items()):
        if (not attr.startswith("_") and callable(value)
                and not isinstance(value, (staticmethod, classmethod,
                                           property))):
            patches.method(Pilgrim, attr, command(attr))

    # obs: materialized events and RPC virtual latencies.
    def emit_exit(args, kwargs, result):
        if result is not None:
            counts["obs.emits"] += 1
            if type(result).__name__ == "RpcCallCompleted":
                samples["rpc.latency_us"].append(result.latency)
    patches.method(Bus, "emit", timed("obs.emit", emit_exit))
    patches.method(recorder.EventStreamRecorder, "lines", timed("obs.recorder"))
    patches.function(recorder, "stream_fingerprint",
                     timed("obs.recorder"))

    # contracts
    patches.method(CheckerBank, "feed",
                   lambda fn: _counter(tracer, "contracts.feeds", fn))
    patches.method(ContractMonitor, "report",
                   timed("contracts.monitor_report"))
    patches.function(offline, "check_trace",
                     timed("contracts.check_trace"))

    # replay
    def finish_exit(args, kwargs, result):
        counts["replay.events"] += result.n_events
        counts["replay.checkpoints"] += result.n_checkpoints
    patches.method(TraceWriter, "finish",
                   timed("replay.finish", finish_exit))

    def save_exit(args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs.get("path")
        counts["replay.trace_bytes"] += os.path.getsize(path)
    patches.method(Trace, "save", timed("replay.save", save_exit))
    patches.function(fmt, "read_binary", timed("replay.read"))
    patches.method(ReplayWorld, "verify", timed("replay.verify"))
    patches.method(TimeTravel, "at", timed("replay.seek"))
    patches.method(TimeTravel, "why_halted", timed("replay.why_halted"))
    patches.function(branch, "fork_trace", timed("replay.fork"))
    patches.function(branch, "diff_branches", timed("replay.diff"))

    # campaign (inline cells; fleet workers are never traced)
    patches.function(runner, "run_cell", timed("campaign.cell"))

    def shrink_exit(args, kwargs, result):
        counts["campaign.shrink_trials"] += result.trials
        counts["campaign.shrink_reductions"] += result.reductions
        counts["campaign.shrinks"] += 1
    patches.function(shrink, "shrink_cell",
                     timed("campaign.shrink", shrink_exit))

    # service
    patches.method(ServiceClient, "request",
                   lambda fn: _request_span(tracer, "service.request", fn))
    patches.method(daemon.PilgrimService, "handle",
                   timed("service.handle"))
    patches.function(dispatch, "render_text", timed("service.render"))
    patches.function(daemon, "build_backend",
                     timed("service.materialize"))
    return patches


class StageTimer:
    """Wall time per call of a few coarse pipeline stages, untraced.

    Five wrappers around calls that each take tens of milliseconds, so
    the timer costs nothing measurable; it gives the stage medians.
    """

    STAGES = (
        ("record_ms", "repro.replay.replay", "record_run"),
        ("load_ms", "repro.replay.trace", "Trace.load"),
        ("verify_ms", "repro.replay.replay", "replay_trace"),
        ("fork_ms", "repro.replay.branch", "fork_trace"),
        ("shrink_ms", "repro.campaign.shrink", "shrink_cell"),
    )

    def __init__(self) -> None:
        self.samples: dict = defaultdict(list)
        self.patches = Patches()

    def install(self) -> "StageTimer":
        """Start timing the stages."""
        import importlib

        for metric, module_name, attr in self.STAGES:
            module = importlib.import_module(module_name)
            self._wrap(module, attr, metric)
        return self

    def _wrap(self, module, attr: str, metric: str) -> None:
        samples = self.samples[metric]

        def make(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    samples.append(perf_counter() - start)
            return timed

        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            if isinstance(original, classmethod):
                inner = original.__func__
                self.patches.method(
                    cls, method, lambda _: classmethod(make(inner)))
            else:
                self.patches.method(cls, method, make)
        else:
            self.patches.function(module, attr, make)

    def restore(self) -> None:
        """Stop timing."""
        self.patches.restore()


class EventCounter:
    """Counts simulated kernel events at every ``World.run`` exit.

    One wrapper call per ``World.run`` (a handful per cell or command),
    cheap enough for the untraced runs that report events per second.
    """

    def __init__(self) -> None:
        self.events = 0
        self.patches = Patches()

    def install(self) -> "EventCounter":
        """Start counting."""
        from repro.sim.world import World

        def make(fn):
            @functools.wraps(fn)
            def run(world, *args, **kwargs):
                before = world.events_processed
                try:
                    return fn(world, *args, **kwargs)
                finally:
                    self.events += world.events_processed - before
            return run

        self.patches.method(World, "run", make)
        return self

    def restore(self) -> None:
        """Stop counting."""
        self.patches.restore()
