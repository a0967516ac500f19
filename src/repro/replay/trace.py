"""Versioned traces of a recorded run.

A trace carries four kinds of records — on disk either in the primary
binary container (:mod:`repro.replay.format`) or as the JSONL export
view, one JSON object per line (:meth:`Trace.load` sniffs the content;
:meth:`Trace.save` picks by extension, ``.jsonl`` staying JSONL):

* a **header** — trace version, the cluster recipe (seed, node names,
  topology, clock skews, full ``Params``), the serialized ``FaultPlan``,
  the
  checkpoint cadence, and caller metadata.  Everything a replayer needs
  to rebuild an identical cluster;
* one **event** per materialized obs event, carrying both the
  structured payload (packet ids rebased to first-seen order, processes
  reduced to pid/name) and the normalized text line — byte-identical to
  what :class:`~repro.obs.recorder.EventStreamRecorder` produces for the
  same run: both take their events, indices and packet ids from the
  bus's :class:`~repro.obs.recorder.StreamTap` and render through the
  event type's :class:`~repro.obs.recorder.EventCodec`;
* **checkpoints** at their event indices (see
  :mod:`repro.replay.checkpoint`; the JSONL view interleaves them);
* a **footer** — final virtual time, event count, stream fingerprint,
  and how the run was driven (``until=T`` / drained / manual), which is
  what tells a replayer how far to run.

Checkpoints are captured *inside the writer's tap hook* when an event
crosses the cadence boundary — never via self-rescheduled world events,
which would keep the queue from draining and perturb the conservative
execution windows.  Capture is restricted to network/RPC events
(``SAFE_CHECKPOINT_EVENTS``): those are emitted from steady states where
the live tables and the event fold agree exactly (a reboot, by contrast,
emits its process events while the node is half-rebuilt).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Optional

from repro.obs import events as ev
from repro.obs.recorder import (
    RECORDED_TYPES,
    StreamTap,
    codec_for,
    stream_fingerprint,
)
from repro.replay.checkpoint import (
    Checkpoint,
    StateView,
    capture_state,
    capture_view,
    metric_counts,
    seal_state,
)

if TYPE_CHECKING:
    from repro.cluster import Cluster
    from repro.faults.plan import FaultPlan

TRACE_VERSION = 2

#: Event types a checkpoint may be captured on (see module docstring).
SAFE_CHECKPOINT_EVENTS = frozenset({
    "PacketSent",
    "PacketDelivered",
    "PacketDropped",
    "PacketNacked",
    "RpcCallStarted",
    "RpcCallCompleted",
    "RpcCallFailed",
    "RpcCallRetried",
})


@dataclass(slots=True)
class TraceEvent:
    """One recorded obs event: structured payload plus normalized line."""

    index: int
    type: str
    time: int
    node: Optional[int]
    seq: int
    fields: dict
    line: str

    def to_dict(self) -> dict:
        """Serialize as one JSONL trace line payload."""
        return {
            "kind": "event",
            "i": self.index,
            "type": self.type,
            "t": self.time,
            "node": self.node,
            "seq": self.seq,
            "fields": self.fields,
            "line": self.line,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceEvent":
        """Rebuild from a JSONL trace line payload."""
        return cls(
            index=data["i"],
            type=data["type"],
            time=data["t"],
            node=data["node"],
            seq=data["seq"],
            fields=data["fields"],
            line=data["line"],
        )

    def __reduce__(self):
        # Positional rebuild: a fork ships its child trace back through
        # a pipe, and this pickles smaller and faster than slot state.
        return (TraceEvent, (self.index, self.type, self.time, self.node,
                             self.seq, self.fields, self.line))

    def __repr__(self) -> str:
        return f"<TraceEvent #{self.index} {self.type} t={self.time}>"


class Trace:
    """A fully recorded run: header, events, checkpoints, footer."""

    def __init__(
        self,
        header: dict,
        events: list[TraceEvent],
        checkpoints: list[Checkpoint],
        footer: dict,
    ):
        self.header = header
        self.events = events
        self.checkpoints = checkpoints
        self.footer = footer
        #: A :class:`repro.kernel.profile.ProfileHook` when the run was
        #: recorded under ``REPRO_PROFILE=1``; :meth:`save` drops its
        #: stats next to the trace file.
        self.profile = None

    # -- derived accessors ---------------------------------------------

    @property
    def seed(self) -> int:
        """The recorded run's world seed."""
        return self.header["seed"]

    @property
    def topology(self) -> str:
        """The recorded run's transport fabric (pre-``repro.net`` traces
        carry no topology key and were all recorded on the ring)."""
        return self.header.get("topology", "ring")

    @property
    def final_time(self) -> int:
        """Virtual time when the recording was sealed."""
        return self.footer["final_time"]

    def fault_plan(self) -> Optional["FaultPlan"]:
        """The recorded fault plan, rebuilt (``None`` when faultless)."""
        from repro.faults.plan import FaultPlan
        data = self.header.get("fault_plan")
        return FaultPlan.from_dict(data) if data is not None else None

    def params(self):
        """The recorded simulation :class:`~repro.params.Params`."""
        from repro.params import Params
        return Params(**self.header["params"])

    def base_view(self) -> StateView:
        """The state at recording start (checkpoint #0, always present:
        agents spawned before the writer attached are invisible to the
        event stream, so folds must start here, not from empty)."""
        return self.checkpoints[0].view

    def lines(self) -> list[str]:
        """The normalized stream, comparable to
        :meth:`~repro.obs.recorder.EventStreamRecorder.lines`."""
        return [event.line for event in self.events]

    def fingerprint(self) -> str:
        """Digest of the normalized stream (recomputed, not the footer's)."""
        return stream_fingerprint(event.line for event in self.events)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def n_events(self) -> int:
        """Event count (wire-friendly mirror of ``len(trace.events)``)."""
        return len(self.events)

    @property
    def n_checkpoints(self) -> int:
        """Checkpoint count (wire-friendly mirror)."""
        return len(self.checkpoints)

    # -- persistence ----------------------------------------------------

    def save(self, path, format: Optional[str] = None) -> None:
        """Write the trace to ``path``.

        ``format`` is ``"binary"`` (the primary container, optionally
        zlib-framed), ``"jsonl"`` (the export view), or ``None`` to
        infer from the extension: ``.jsonl`` paths stay JSONL, anything
        else gets the binary container.  Both encodings store the same
        canonical normalized lines, so fingerprints and byte-identity
        checks agree across a round-trip.
        """
        if format is None:
            format = "jsonl" if str(path).endswith(".jsonl") else "binary"
        if format == "binary":
            from repro.replay.format import write_binary
            write_binary(self, path)
        elif format == "jsonl":
            self._save_jsonl(path)
        else:
            raise ValueError(f"unknown trace format {format!r}")
        if self.profile is not None:
            self.profile.dump_next_to(path)

    def _save_jsonl(self, path) -> None:
        """Write the trace as versioned JSONL to ``path``.

        Every line is dumped with sorted keys — the same canonical form
        the binary container uses for its JSON blobs — so converting a
        trace binary → jsonl → binary is byte-faithful in both
        directions.  The document is assembled in memory and published
        with :func:`repro.ioutil.atomic_write_text`: a crash mid-save
        leaves any previous trace at ``path`` intact, never a torn one.
        """
        from repro.ioutil import atomic_write_text

        lines = [json.dumps({"kind": "header", **self.header},
                            sort_keys=True)]
        cp_iter = iter(self.checkpoints)
        next_cp = next(cp_iter, None)
        # Checkpoint lines are interleaved at their indices, so a
        # streaming reader sees them in causal order.
        for event in self.events:
            while next_cp is not None and next_cp.index <= event.index:
                lines.append(json.dumps({"kind": "checkpoint",
                                         **next_cp.to_dict()},
                                        sort_keys=True))
                next_cp = next(cp_iter, None)
            lines.append(json.dumps(event.to_dict(), sort_keys=True))
        while next_cp is not None:
            lines.append(json.dumps({"kind": "checkpoint",
                                     **next_cp.to_dict()},
                                    sort_keys=True))
            next_cp = next(cp_iter, None)
        lines.append(json.dumps({"kind": "footer", **self.footer},
                                sort_keys=True))
        atomic_write_text(path, "\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "Trace":
        """Load and validate a trace previously written by :meth:`save`.

        The format is sniffed from the content (binary magic vs JSONL),
        so callers never care how a trace happens to be stored.
        """
        from repro.replay.format import read_binary, sniff_format
        if sniff_format(path) == "binary":
            return read_binary(path)
        return cls._load_jsonl(path)

    @classmethod
    def _load_jsonl(cls, path) -> "Trace":
        """Parse the JSONL encoding."""
        header: Optional[dict] = None
        footer: Optional[dict] = None
        events: list[TraceEvent] = []
        checkpoints: list[Checkpoint] = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                data = json.loads(line)
                kind = data.pop("kind", None)
                if kind == "header":
                    header = data
                elif kind == "event":
                    events.append(TraceEvent.from_dict(data))
                elif kind == "checkpoint":
                    checkpoints.append(Checkpoint.from_dict(data))
                elif kind == "footer":
                    footer = data
                else:
                    raise ValueError(f"unknown trace line kind {kind!r}")
        if header is None or footer is None:
            raise ValueError(f"truncated trace file {path}: missing header/footer")
        if header.get("version") != TRACE_VERSION:
            from repro.replay.format import TraceVersionError
            raise TraceVersionError(
                f"trace version {header.get('version')} unsupported "
                f"(this build reads version {TRACE_VERSION})",
                0, header.get("version"),
            )
        return cls(header, events, checkpoints, footer)

    def __repr__(self) -> str:
        return (
            f"<Trace seed={self.header.get('seed')} events={len(self.events)} "
            f"checkpoints={len(self.checkpoints)}>"
        )


class TraceWriter:
    """Record a cluster's obs stream (plus checkpoints) into a trace.

    Attach *before* driving the run; recording is itself observable
    (subscribing materializes otherwise-dormant event types), so a
    replayer attaches its own writer to reproduce the same stream.
    """

    def __init__(
        self,
        cluster: "Cluster",
        plan: Optional["FaultPlan"] = None,
        checkpoint_every: Optional[int] = None,
        meta: Optional[dict] = None,
    ):
        self.cluster = cluster
        self.bus = cluster.world.bus
        self.header = {
            "version": TRACE_VERSION,
            "seed": cluster.seed,
            "names": list(cluster.names),
            "topology": cluster.topology,
            "clock_skews": list(cluster.clock_skews),
            "params": asdict(cluster.params),
            "fault_plan": plan.to_dict() if plan is not None else None,
            "checkpoint_every": checkpoint_every,
            "meta": meta or {},
        }
        self.events: list[TraceEvent] = []
        #: Raw obs events captured during the run, in tap index order.
        #: Rendering a TraceEvent is deferred to :meth:`finish` — the
        #: recording hot path is one list append, which is most of why
        #: record overhead stays low (experiment E13).  Deferral is
        #: sound because everything the codec reads (packet src/dst/
        #: port/kind/size, process pid/name, and the tap's first-seen
        #: packet ids, assigned on delivery) is immutable for the
        #: lifetime of the run.
        self._raw: list[ev.Event] = []
        self.checkpoints: list[Checkpoint] = []
        self._finished = False
        #: Metric values at attach; view counts are deltas against this,
        #: so fold-derived counts (which only see post-attach events)
        #: line up with live captures.
        self._base_counts = metric_counts(cluster.world.metrics)
        self._checkpoint_every = checkpoint_every
        self._next_checkpoint_at = (
            cluster.world.now + checkpoint_every
            if checkpoint_every is not None else None
        )
        self._checkpoint_pending = False
        self._tap = StreamTap.of(self.bus)
        self._tap.attach(self, dict.fromkeys(RECORDED_TYPES, self._on_event))
        # Checkpoint #0: the state at attach.  Pre-attach history (the
        # agents' ProcessCreated, boot-time setup) rode the dormant path
        # and is not in the stream; every fold starts from this base.
        self._capture_checkpoint(cluster.world.now)

    # ------------------------------------------------------------------

    def _capture_checkpoint(self, time: int) -> None:
        self.checkpoints.append(Checkpoint(
            index=len(self._raw),
            time=time,
            state=capture_state(self.cluster),
            view=capture_view(self.cluster, self._base_counts, time),
        ))

    def _on_event(self, index: int, event: ev.Event) -> None:
        self._raw.append(event)
        if self._next_checkpoint_at is None:
            return
        if event.time >= self._next_checkpoint_at:
            self._checkpoint_pending = True
        if self._checkpoint_pending and type(event).__name__ in SAFE_CHECKPOINT_EVENTS:
            self._checkpoint_pending = False
            while self._next_checkpoint_at <= event.time:
                self._next_checkpoint_at += self._checkpoint_every
            self._capture_checkpoint(event.time)

    # ------------------------------------------------------------------

    def detach(self) -> None:
        """Stop observing the bus (idempotent)."""
        self._tap.detach(self)

    def finish(self, drive: Optional[dict] = None) -> Trace:
        """Stop recording and seal the trace.

        ``drive`` records how the run was driven so a replayer can drive
        identically: ``{"mode": "until", "until": T}``, ``{"mode":
        "drain"}``, or ``{"mode": "manual"}`` (interactive sessions,
        which support time travel but not re-execution).
        """
        if self._finished:
            raise RuntimeError("TraceWriter.finish() called twice")
        self._finished = True
        self.detach()
        self._materialize()
        for checkpoint in self.checkpoints:
            seal_state(checkpoint.state)
        footer = {
            "final_time": self.cluster.world.now,
            "events": len(self.events),
            "fingerprint": stream_fingerprint(e.line for e in self.events),
            "drive": drive or {"mode": "manual"},
        }
        return Trace(self.header, self.events, self.checkpoints, footer)

    def _materialize(self) -> None:
        """Build the TraceEvents from the raw capture, in stream order
        (the tap assigned every packet id on delivery, so the deferred
        pass renders exactly what an inline pass would have)."""
        packet_ids = self._tap.packet_ids
        append = self.events.append
        for index, event in enumerate(self._raw):
            codec = codec_for(type(event))
            line, values = codec.encode(event, packet_ids)
            append(TraceEvent(index, codec.type_name, event.time,
                              event.node, event.seq,
                              dict(zip(codec.fields, values)), line))
        self._raw.clear()

    def __repr__(self) -> str:
        return (
            f"<TraceWriter events={len(self._raw) or len(self.events)} "
            f"checkpoints={len(self.checkpoints)}>"
        )
