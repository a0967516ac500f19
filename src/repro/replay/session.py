"""A post-mortem :class:`DebuggerSession` over a recorded trace.

:class:`TraceSession` makes a sealed trace debuggable through the same
typed session API as a live world: the time-travel operations (``at``,
``forward_step`` / ``reverse_step``, ``why_halted``,
``causal_predecessors``), ``check`` and the branch operations answer
from the trace, ``processes`` reads the process table out of the folded
:class:`~repro.replay.checkpoint.StateView` at the cursor, and the
live-only operations (breakpoints, variable access) raise
:class:`~repro.debugger.errors.UnsupportedOperationError` with the
stable ``unsupported`` code — a remote client gets a typed refusal,
never a stringified traceback.

This is what the session daemon instantiates for ``kind="trace"`` and
``kind="branch"`` sessions and for corpus reproducers opened by name
(:meth:`repro.campaign.corpus.Corpus.open_session`), and what
:class:`~repro.debugger.pilgrim.Pilgrim` delegates its post-mortem
queries to once a trace is loaded.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.debugger.api import ProcessInfo, SessionStatus
from repro.debugger.errors import DebuggerError, UnsupportedOperationError
from repro.replay.branch import BranchDiff, BranchInfo, BranchTree
from repro.replay.timetravel import Moment, TimeTravel
from repro.replay.trace import Trace


class TraceSession:
    """Read-only debugger session over one sealed trace.

    ``builder`` (a callable, ``"scenario:NAME"``, or
    ``"module:function"``; default: the trace header's
    ``meta["builder"]``) names the scenario recipe; with it attached
    the session can also *fork* the recording into perturbed what-if
    branches (see :mod:`repro.replay.branch`) — still without ever
    touching the trace itself.
    """

    def __init__(self, trace: Union[Trace, str, bytes], name: str = "",
                 builder=None):
        if isinstance(trace, (str, bytes)) or hasattr(trace, "__fspath__"):
            trace = Trace.load(trace)
        self.trace = trace
        self.name = name or f"trace(seed={trace.header.get('seed')})"
        if builder is None:
            builder = (trace.header.get("meta") or {}).get("builder")
        self.builder = builder
        self._travel = TimeTravel(trace)
        self._branch_tree: Optional[BranchTree] = None
        self.session_id: Optional[int] = None
        self.connected_nodes: list[int] = list(range(len(self._names)))

    @property
    def _names(self) -> list[str]:
        return list(self.trace.header.get("names", []))

    def _resolve(self, node: Union[int, str, None]) -> Optional[int]:
        """Node name -> recorded address, via the trace header."""
        if node is None or isinstance(node, int):
            return node
        try:
            return self._names.index(node)
        except ValueError:
            raise DebuggerError(f"no node named {node!r} in the trace") from None

    # ------------------------------------------------------------------
    # Session lifecycle (trivial: the trace is always "connected")
    # ------------------------------------------------------------------

    def connect(self, *targets, force: bool = False) -> dict:
        """No-op for traces; returns per-node info like the live connect."""
        self.session_id = 1
        return {
            address: {"name": name, "modules": [], "failures": []}
            for address, name in enumerate(self._names)
        }

    def disconnect(self) -> None:
        """No-op: nothing runs, nothing to release."""
        self.session_id = None

    # ------------------------------------------------------------------
    # Inspection at the cursor
    # ------------------------------------------------------------------

    def _moment(self) -> Moment:
        return self._travel.current()

    def processes(self, node: Union[int, str, None] = None) -> list[ProcessInfo]:
        """The process table recorded in the view at the cursor."""
        address = self._resolve(node)
        view = self._moment().view
        rows: list[ProcessInfo] = []
        for node_key in sorted(view.processes):
            if address is not None and str(address) != str(node_key):
                continue
            halted = {str(p) for p in view.halted.get(node_key, [])}
            for pid, info in sorted(view.processes[node_key].items(),
                                    key=lambda kv: int(kv[0])):
                rows.append(ProcessInfo(
                    pid=int(pid),
                    name=info.get("name", "?"),
                    state="halted" if str(pid) in halted else "running",
                    priority=info.get("priority", 0),
                ))
        return rows

    def status(self) -> SessionStatus:
        """Cursor position and trace dimensions."""
        moment = self._moment()
        return SessionStatus(
            mode="replay",
            session=self.session_id,
            connected=self.connected_nodes,
            time=moment.time,
            trace_loaded=True,
            extra={
                "cursor": moment.index,
                "events": self.trace.n_events,
                "checkpoints": self.trace.n_checkpoints,
                "seed": self.trace.header.get("seed"),
            },
        )

    # ------------------------------------------------------------------
    # Time travel — the whole point
    # ------------------------------------------------------------------

    def at(self, t: int) -> Moment:
        """Jump the cursor to virtual time ``t``."""
        return self._travel.at(t)

    def forward_step(self) -> Moment:
        """Step the cursor one event forwards."""
        return self._travel.step()

    def reverse_step(self) -> Moment:
        """Step the cursor one event backwards."""
        return self._travel.reverse_step()

    def why_halted(self, node: Union[int, str, None] = None) -> dict:
        """Explain the halt state at the cursor."""
        return self._travel.why_halted(self._resolve(node))

    def causal_predecessors(self, index: int):
        """Causal history of trace event ``index``."""
        return self._travel.causal_predecessors(index)

    # ------------------------------------------------------------------
    # Contracts (repro.contracts, offline backend)
    # ------------------------------------------------------------------

    def default_contracts(self):
        """The contract set this trace is judged under by default.

        A campaign golden trace names its scenario in the header meta,
        so its own contract set applies; anything else gets the
        universal safety catalogue.
        """
        from repro.contracts.dsl import contracts_for_trace

        return contracts_for_trace(self.trace)

    def check(self, contracts=None):
        """Fold a contract set over the whole recording.

        ``contracts`` is ``None`` (this trace's default set), a
        :class:`~repro.contracts.dsl.ContractSet`, or contract names
        from the shipped catalogue.  Returns the frozen
        :class:`~repro.contracts.report.ContractReport` — byte-identical
        to what an online monitor co-attached to the original run would
        have reported.
        """
        from repro.contracts.dsl import resolve_contracts
        from repro.contracts.offline import check_trace

        resolved = (self.default_contracts() if contracts is None
                    else resolve_contracts(contracts))
        return check_trace(self.trace, resolved)

    def contracts(self) -> list:
        """The shipped contract catalogue (listing rows)."""
        from repro.contracts.dsl import catalog

        return catalog()

    # ------------------------------------------------------------------
    # Branching time travel (repro.replay.branch)
    # ------------------------------------------------------------------

    def _tree(self) -> BranchTree:
        if self._branch_tree is None:
            self._branch_tree = BranchTree(self.trace, self.builder,
                                           contracts=self.default_contracts())
        return self._branch_tree

    def fork(self, perturbation, checkpoint: int = 0,
             parent: Optional[str] = None, builder=None,
             mode: str = "process",
             run_until: Optional[int] = None) -> BranchInfo:
        """Fork the recording at a checkpoint into a perturbed branch.

        Out-of-place: the child execution runs in a separate process and
        this session's trace is never modified.  ``perturbation`` is a
        :class:`~repro.replay.branch.Perturbation` or its dict form;
        ``parent`` forks from an existing branch instead of the root.
        Returns the branch's :class:`~repro.replay.branch.BranchInfo`.
        """
        if builder is not None:
            self.builder = builder
            self._tree().build = builder
        return self._tree().fork(
            perturbation, checkpoint=checkpoint, parent=parent,
            mode=mode, run_until=run_until,
        ).info()

    def branches(self) -> list[BranchInfo]:
        """List every branch of this session's tree (root first)."""
        return self._tree().branches()

    def diff_branches(self, a: str, b: str) -> BranchDiff:
        """Event-graph diff between two branches (id/prefix/"root")."""
        return self._tree().diff(a, b)

    def branch_session(self, ref: str) -> "TraceSession":
        """Open a branch's child trace as its own :class:`TraceSession`."""
        branch = self._tree().get(ref)
        return TraceSession(branch.trace,
                            name=f"{self.name}/branch:{branch.id[:12]}",
                            builder=self.builder)

    # ------------------------------------------------------------------
    # Live-only operations: typed refusals
    # ------------------------------------------------------------------

    def _unsupported(self, op: str):
        raise UnsupportedOperationError(
            f"{op} is not available on a trace session (post-mortem, "
            f"read-only); fork the recipe into a live world to intervene"
        )

    def set_breakpoint(self, *args, **kwargs):
        """Unsupported on a sealed trace (typed ``unsupported`` error)."""
        self._unsupported("set_breakpoint")

    def clear_breakpoint(self, *args, **kwargs):
        """Unsupported on a sealed trace."""
        self._unsupported("clear_breakpoint")

    def wait_for_breakpoint(self, timeout=None):
        """Unsupported on a sealed trace."""
        self._unsupported("wait_for_breakpoint")

    def wait_for_event(self, event=None, timeout=None):
        """Unsupported on a sealed trace."""
        self._unsupported("wait_for_event")

    def halt(self, node=None):
        """Unsupported on a sealed trace."""
        self._unsupported("halt")

    def resume(self, node=None):
        """Unsupported on a sealed trace."""
        self._unsupported("resume")

    def step(self, node=None, pid=None):
        """Unsupported on a sealed trace (use ``forward_step``)."""
        self._unsupported("step")

    def backtrace(self, node=None, pid=None):
        """Unsupported on a sealed trace (stacks are not recorded)."""
        self._unsupported("backtrace")

    def read_var(self, node=None, pid=None, name="", frame=0):
        """Unsupported on a sealed trace."""
        self._unsupported("read_var")

    def run_for(self, duration):
        """Unsupported on a sealed trace (time is already spent)."""
        self._unsupported("run_for")

    def __repr__(self) -> str:
        return f"<TraceSession {self.name} events={self.trace.n_events}>"
