"""Normalized obs event recording for determinism assertions.

A seeded world driven by the same code must produce the same event
stream.  The raw events are not directly comparable across runs inside
one process: ``BasicBlock.packet_id`` comes from a process-global
counter, and the ``packet``/``process``/``error`` payload fields hold
live objects whose ``repr`` embeds those ids (or memory addresses).
One :class:`EventCodec` per event type (:func:`codec_for`) owns
normalization: it reduces payload objects to their stable coordinates
(a packet becomes ``src->dst:port/kind/size``, a process becomes its
pid/name) and renders the stable text line and the structured fields in
one pass, rebasing packet ids through a per-stream
:class:`PayloadNormalizer` to first-seen order.
:class:`EventStreamRecorder`, the trace writer in
:mod:`repro.replay.trace` and the contract monitor's evidence lines all
render through the same codecs, so their lines are byte-identical.

Two identically seeded runs then compare with ``==`` on
:meth:`EventStreamRecorder.lines`, or by :meth:`fingerprint`.

Note that *recording is itself observable*: subscribing materializes
event types that would otherwise ride the dormant path, which advances
the bus ``seq``.  Compare recorded runs against recorded runs.
"""

from __future__ import annotations

import hashlib
import operator
from typing import Iterable, Optional, Tuple, Type

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


class PayloadNormalizer:
    """Rebases process-global packet ids to first-seen order.

    One normalizer per recorded stream: the rebasing is first-seen order
    *within that stream*, so two streams of the same seeded run
    normalize identically even though the process-global ``packet_id``
    counter kept climbing between them.
    """

    __slots__ = ("_packet_ids",)

    def __init__(self) -> None:
        #: packet_id -> rebased id, assigned in first-seen order.
        self._packet_ids: dict[int, int] = {}

    def rebase(self, packet_id: int) -> int:
        rebased = self._packet_ids.get(packet_id)
        if rebased is None:
            rebased = len(self._packet_ids) + 1
            self._packet_ids[packet_id] = rebased
        return rebased


class EventCodec:
    """The normalization of one event type, built once per type.

    ``fields`` is the payload field-name tuple in declaration order
    (header excluded).  :meth:`encode` renders an event's normalized
    line and its JSON-ready structured fields in one pass;
    :meth:`line` renders the line alone.  Both reduce live payload
    objects the same way — a packet becomes ``pkt#N[src->dst:port/
    kind/size]`` (``N`` rebased through the stream's
    :class:`PayloadNormalizer`), a process its pid/name, an error its
    ``Type:message`` — and everything else renders as ``repr`` in the
    line and is stored as-is in the fields.
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
               normalizer: PayloadNormalizer) -> Tuple[str, dict]:
        """``(line, fields)`` for one event, rebasing packet ids once."""
        values = list(self._getter(event))
        shown = self._reduce_special(values, normalizer)
        line = self._template.format(event.seq, event.time, event.node,
                                     *shown)
        return line, dict(zip(self.fields, values))

    def line(self, event: ev.Event, normalizer: PayloadNormalizer) -> str:
        """The normalized one-line rendering of one event."""
        shown = self._getter(event)
        if self._special:
            shown = self._reduce_special(list(shown), normalizer)
        return self._template.format(event.seq, event.time, event.node,
                                     *shown)

    def _reduce_special(self, values: list,
                        normalizer: PayloadNormalizer) -> list:
        """Reduce the live payload objects in ``values`` to their
        structured forms (in place) and return the values to show in
        the line (``values`` itself when the type has none)."""
        if not self._special:
            return values
        shown = list(values)
        for i, kind in self._special:
            if values[i] is not None:
                shown[i], values[i] = _reduce(kind, values[i], normalizer)
        return shown


def _reduce(kind: str, value, normalizer: PayloadNormalizer):
    """``(text, structured)`` stable forms of one live payload object."""
    if kind == "packet":
        pkt = normalizer.rebase(value.packet_id)
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


def stream_fingerprint(lines: Iterable[str]) -> str:
    """SHA-256 over a normalized stream (byte-identity check)."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


class EventStreamRecorder:
    """Subscribe to (all) obs event types and keep a normalized log."""

    def __init__(
        self,
        bus: Bus,
        event_types: Optional[Iterable[Type[ev.Event]]] = None,
    ):
        self.bus = bus
        self._types = list(event_types) if event_types is not None else _all_event_types()
        self._lines: list[str] = []
        self._normalizer = PayloadNormalizer()
        for event_type in self._types:
            bus.subscribe(event_type, self._on_event)

    def detach(self) -> None:
        for event_type in self._types:
            self.bus.unsubscribe(event_type, self._on_event)

    # ------------------------------------------------------------------

    def _on_event(self, event: ev.Event) -> None:
        self._lines.append(
            codec_for(type(event)).line(event, self._normalizer))

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
