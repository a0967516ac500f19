"""Normalized obs event recording for determinism assertions.

A seeded world driven by the same code must produce the same event
stream.  The raw events are not directly comparable across runs inside
one process: ``BasicBlock.packet_id`` comes from a process-global
counter, and the ``packet``/``process``/``error`` payload fields hold
live objects whose ``repr`` embeds those ids (or memory addresses).

One :class:`StreamTap` per bus is the only subscriber to the recorded
event types (the :mod:`repro.obs.events` ``__all__`` catalogue).  It
numbers events in delivery order and rebases packet ids to first-seen
order as each event arrives, then hands ``(index, event)`` to per-type
hooks registered by its consumers: :class:`EventStreamRecorder`, the
trace writer in :mod:`repro.replay.trace` and the contract monitor in
:mod:`repro.contracts.online`.  One :class:`EventCodec` per event type
(:func:`codec_for`) reduces payload objects to their stable coordinates
(a packet becomes ``src->dst:port/kind/size``, a process its pid/name)
and renders the stable text line and the structured fields in one pass
against the tap's packet-id map.  Consumers of one tap therefore agree
on every index and every line by construction.

Two identically seeded runs then compare with ``==`` on
:meth:`EventStreamRecorder.lines`, or by :meth:`fingerprint`.

Note that *recording is itself observable*: subscribing materializes
event types that would otherwise ride the dormant path, which advances
the bus ``seq``.  Compare recorded runs against recorded runs.
"""

from __future__ import annotations

import hashlib
import operator
from typing import Iterable, Sequence, Tuple, Type

from repro.obs import events as ev
from repro.obs.bus import Bus

#: Header fields shared by every event (not part of the payload).
HEADER_FIELDS = ("time", "node", "seq")


def _all_event_types() -> list[Type[ev.Event]]:
    return [
        getattr(ev, name)
        for name in ev.__all__
        if name != "Event"
    ]


class EventCodec:
    """The normalization of one event type, built once per type.

    ``fields`` is the payload field-name tuple in declaration order
    (header excluded).  :meth:`encode` renders an event's normalized
    line and its structured payload values in one pass.  Live payload
    objects are reduced — a packet becomes ``pkt#N[src->dst:port/
    kind/size]`` (``N`` its first-seen id in the stream's packet-id
    map), a process its pid/name, an error its ``Type:message`` — and
    everything else renders as ``repr`` in the line and is kept as-is
    in the values.
    """

    __slots__ = ("type_name", "fields", "_getter", "_special", "_template")

    def __init__(self, event_type: Type[ev.Event]):
        self.type_name = event_type.__name__
        self.fields = tuple(
            name
            for owner in event_type.__mro__
            for name in getattr(owner, "__slots__", ())
            if name not in HEADER_FIELDS
        )
        #: The payload values of one event, as a tuple.
        if len(self.fields) == 1:
            get = operator.attrgetter(self.fields[0])
            self._getter = lambda event: (get(event),)
        elif self.fields:
            self._getter = operator.attrgetter(*self.fields)
        else:
            self._getter = lambda event: ()
        #: (position, name) of every field holding a live object.
        self._special = tuple(
            (i, name) for i, name in enumerate(self.fields)
            if name in ("packet", "process", "error")
        )
        special = {i for i, _ in self._special}
        #: Special fields arrive pre-rendered; the rest render as repr.
        self._template = (
            "{:06d} t={} node={} " + self.type_name + " " + " ".join(
                f"{name}={{{'' if i in special else '!r'}}}"
                for i, name in enumerate(self.fields))
        )

    def encode(self, event: ev.Event,
               packet_ids: dict) -> Tuple[str, Sequence]:
        """``(line, values)``: the payload values in :attr:`fields`
        order, live objects reduced (every packet id must already be in
        ``packet_ids``: the tap rebases on delivery)."""
        values = shown = self._getter(event)
        if self._special:
            values = list(values)
            shown = list(values)
            for i, kind in self._special:
                if values[i] is not None:
                    shown[i], values[i] = _reduce(kind, values[i],
                                                  packet_ids)
        line = self._template.format(event.seq, event.time, event.node,
                                     *shown)
        return line, values


def _reduce(kind: str, value, packet_ids: dict):
    """``(text, structured)`` stable forms of one live payload object."""
    if kind == "packet":
        pkt = packet_ids[value.packet_id]
        return (
            f"pkt#{pkt}[{value.src}->{value.dst}:{value.port}"
            f"/{value.kind}/{value.size_bytes}B]",
            {"pkt": pkt, "src": value.src, "dst": value.dst,
             "port": value.port, "kind": value.kind,
             "size": value.size_bytes},
        )
    if kind == "process":
        return (f"proc[{value.pid}:{value.name}]",
                {"pid": value.pid, "name": value.name})
    text = f"{type(value).__name__}:{value}"
    return text, text


#: Event type -> its codec, built on first use.
_CODECS: dict[type, EventCodec] = {}


def codec_for(event_type: Type[ev.Event]) -> EventCodec:
    """The (cached) codec of one event type."""
    codec = _CODECS.get(event_type)
    if codec is None:
        codec = _CODECS[event_type] = EventCodec(event_type)
    return codec


#: The recorded-type catalogue a :class:`StreamTap` subscribes to.
RECORDED_TYPES: tuple = tuple(_all_event_types())

#: Recorded types carrying a live packet the tap rebases on delivery.
_PACKET_TYPES = frozenset(
    event_type for event_type in RECORDED_TYPES
    if "packet" in codec_for(event_type).fields
)


class StreamTap:
    """The one subscriber to a bus's recorded-type catalogue.

    It numbers events in delivery order (:attr:`count` so far) and
    rebases packet ids to first-seen order (:attr:`packet_ids`) as each
    event arrives, then runs the per-type ``fn(index, event)`` hooks
    its consumers registered with :meth:`attach`, in attach order.
    Hooks must not emit recorded events.

    :meth:`of` hands out the bus's shared tap, or a fresh one once that
    tap has numbered events, so a late joiner's stream and rebasing
    start at its own attach.  The tap subscribes on its first attach
    and unsubscribes on its last detach, restoring the dormant path.
    It holds each consumer's hook map until detach (or bus teardown),
    so no consumer keeps a map of its own bound methods.
    """

    __slots__ = ("bus", "count", "packet_ids", "_consumers", "_hooks")

    def __init__(self, bus: Bus):
        self.bus = bus
        self.count = 0
        self.packet_ids: dict[int, int] = {}
        #: consumer -> its {event type: hook} map, in attach order.
        self._consumers: dict = {}
        #: event type -> its hooks, in attach order.
        self._hooks: dict = dict.fromkeys(RECORDED_TYPES, ())

    @classmethod
    def of(cls, bus: Bus) -> "StreamTap":
        """The tap a consumer attaching to ``bus`` now should use."""
        tap = bus.tap
        if tap is None or tap.count:
            tap = bus.tap = cls(bus)
        return tap

    def attach(self, consumer, hooks: dict) -> None:
        """Run ``hooks`` (event type -> ``fn(index, event)``)."""
        if not self._consumers:
            for event_type in RECORDED_TYPES:
                self.bus.subscribe(event_type, self._deliverer(event_type))
        self._consumers[consumer] = hooks
        self._index_hooks()

    def detach(self, consumer) -> None:
        """Drop ``consumer``'s hooks; the last detach unsubscribes."""
        self._consumers.pop(consumer, None)
        if self._consumers:
            self._index_hooks()
        else:
            self.close()

    def close(self) -> None:
        """Drop every consumer and unsubscribe from the bus."""
        for event_type in RECORDED_TYPES:
            self.bus.unsubscribe(event_type, self._deliverer(event_type))
        self._consumers.clear()
        self._index_hooks()
        if self.bus.tap is self:
            self.bus.tap = None

    def _index_hooks(self) -> None:
        self._hooks = {
            event_type: tuple(hooks[event_type]
                              for hooks in self._consumers.values()
                              if event_type in hooks)
            for event_type in RECORDED_TYPES
        }

    def _deliverer(self, event_type):
        return (self._on_packet_event if event_type in _PACKET_TYPES
                else self._on_event)

    def _on_event(self, event: ev.Event) -> None:
        index = self.count
        self.count = index + 1
        for hook in self._hooks[type(event)]:
            hook(index, event)

    def _on_packet_event(self, event: ev.Event) -> None:
        packet = event.packet
        if packet is not None and packet.packet_id not in self.packet_ids:
            self.packet_ids[packet.packet_id] = len(self.packet_ids) + 1
        index = self.count
        self.count = index + 1
        for hook in self._hooks[type(event)]:
            hook(index, event)

    def __repr__(self) -> str:
        return (f"<StreamTap events={self.count} "
                f"consumers={len(self._consumers)}>")


def stream_fingerprint(lines: Iterable[str]) -> str:
    """SHA-256 over a normalized stream (byte-identity check)."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _line_hook(codec: EventCodec, packet_ids: dict, append):
    encode = codec.encode

    def hook(index: int, event: ev.Event) -> None:
        append(encode(event, packet_ids)[0])
    return hook


class EventStreamRecorder:
    """Keep the normalized log of a bus's recorded stream."""

    def __init__(self, bus: Bus):
        self.bus = bus
        self._lines: list[str] = []
        # Lines are rendered at delivery: a recorder keeps strings, not
        # the events (and the payload objects) behind them.
        self._tap = StreamTap.of(bus)
        packet_ids = self._tap.packet_ids
        append = self._lines.append
        self._tap.attach(self, {
            event_type: _line_hook(codec_for(event_type), packet_ids, append)
            for event_type in RECORDED_TYPES
        })

    def detach(self) -> None:
        """Stop recording (the log stays readable)."""
        self._tap.detach(self)

    # ------------------------------------------------------------------

    def lines(self) -> list[str]:
        """The normalized stream, one line per materialized event."""
        return list(self._lines)

    def fingerprint(self) -> str:
        """SHA-256 over the normalized stream (byte-identity check)."""
        return stream_fingerprint(self._lines)

    def __len__(self) -> int:
        return len(self._lines)

    def __repr__(self) -> str:
        return f"<EventStreamRecorder events={len(self._lines)}>"
