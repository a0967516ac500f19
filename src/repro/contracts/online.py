"""The online backend: contracts as a stream-tap consumer.

:class:`ContractMonitor` attaches to its bus's
:class:`~repro.obs.recorder.StreamTap` — the one subscriber to the
recorded event types, which numbers events in delivery order and
rebases packet ids as they arrive — and registers one fold hook per
event type some contract consumes.  A co-attached trace writer takes
its events from the same tap, so the monitor's event indices, ``seq``
values and evidence lines (rendered lazily against the tap's packet-id
map) are the writer's :class:`~repro.replay.trace.TraceEvent` stream by
construction.  Both backends then drive the same
:class:`~repro.contracts.dsl.CheckerBank` over the same facts.

The dormant path stays free: attaching a monitor materializes events
(like any recorder — compare monitored runs against monitored runs),
but a world with no monitor pays nothing, and the ``ContractViolated``
events a monitor emits ride the dormant path themselves unless someone
subscribes to them.
"""

from __future__ import annotations

from typing import Optional

from repro.contracts.dsl import CheckerBank, ContractSet, EventFact
from repro.contracts.report import ContractReport, ContractViolation
from repro.obs import events as ev
from repro.obs.bus import Bus
from repro.obs.recorder import RECORDED_TYPES, StreamTap, codec_for


class ContractMonitor:
    """Check a contract set live against a world's obs bus.

    ``contracts`` is a :class:`~repro.contracts.dsl.ContractSet` or an
    iterable of contracts; only the event-backed ones run here (probe
    contracts need a finished cluster — see
    :meth:`~repro.contracts.dsl.ContractSet.check_probes`).  Violations
    are re-emitted on the bus as typed
    :class:`~repro.obs.events.ContractViolated` events the moment a
    checker records them, evidence window included.
    """

    def __init__(self, bus: Bus, contracts, emit: bool = True):
        self.bus = bus
        if isinstance(contracts, ContractSet):
            self.name = contracts.name
            event_contracts = contracts.event_contracts()
        else:
            self.name = "contracts"
            event_contracts = tuple(contracts)
        self._bank = CheckerBank(
            event_contracts, sink=self._emit_violation if emit else None
        )
        self._report: Optional[ContractReport] = None
        #: Events observed, frozen at detach (``None`` while attached).
        self._events: Optional[int] = None
        self._tap = StreamTap.of(bus)
        # Types no contract consumes get no hook: the tap numbers them.
        hooks = {}
        for event_type in RECORDED_TYPES:
            codec = codec_for(event_type)
            states = self._bank.states_for(codec.type_name)
            if states:
                hooks[event_type] = _fold_hook(codec, states,
                                               self._tap.packet_ids)
        self._tap.attach(self, hooks)

    def detach(self) -> None:
        """Stop observing (the report stays computable)."""
        if self._events is None:
            self._events = self._tap.count
            self._tap.detach(self)

    # ------------------------------------------------------------------

    def _emit_violation(self, violation: ContractViolation) -> None:
        self.bus.emit(
            ev.ContractViolated,
            time=violation.time or 0,
            node=violation.node,
            contract=violation.contract,
            message=violation.message,
            index=violation.index or 0,
            evidence=violation.evidence,
        )

    # ------------------------------------------------------------------

    @property
    def events(self) -> int:
        """Events observed so far."""
        return self._tap.count if self._events is None else self._events

    def report(self) -> ContractReport:
        """Finalize (liveness phase included) and cache the report."""
        if self._report is None:
            # The tap numbers events for the monitor (the bank's own
            # count only ticks through feed(), the offline entry point).
            self._report = self._bank.report(
                name=self.name, events=self.events
            )
        return self._report

    def __repr__(self) -> str:
        return (f"<ContractMonitor {self.name!r} events={self.events} "
                f"contracts={len(self._bank.contracts)}>")


def _fold_hook(codec, states: list, packet_ids: dict):
    """One type's tap hook: build the fact, run the type's fused folds
    (the bank's :meth:`~repro.contracts.dsl.CheckerBank.states_for`
    list, the same one ``feed()`` looks up — the E19 hot path)."""
    if len(states) == 1:
        on_event = states[0].on_event

        def hook(index: int, event: ev.Event) -> None:
            on_event(EventFact(index, event, packet_ids, codec))
    else:
        def hook(index: int, event: ev.Event) -> None:
            fact = EventFact(index, event, packet_ids, codec)
            for state in states:
                state.on_event(fact)
    return hook
