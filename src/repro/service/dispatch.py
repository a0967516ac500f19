"""Method dispatch: one table, derived from the REPL command registry.

The REPL's :data:`~repro.debugger.repl.COMMANDS` registry already names
the session operation each command fronts (``Command.op``); the wire
protocol's per-session method table is *derived* from it here, extended
with the session-API operations that have no interactive spelling
(:data:`EXTRA_OPS`).  A REPL command name is accepted as an alias for
its op, so ``bt`` and ``backtrace`` are the same wire method — the
interactive surface and the service surface cannot drift apart because
they are two renderings of one registry.

:func:`render_text` is the daemon's plain-text rendering of a result.
It reuses the REPL's shared formatters (:func:`format_process`,
:func:`format_frames`, ...) so ``call`` output from a shell, the REPL
over a socket, and the in-process REPL all print the same bytes.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from repro.debugger.api import TraceSummary
from repro.debugger.errors import ServiceError, UnsupportedOperationError
from repro.debugger.repl import (
    COMMANDS,
    format_all_processes,
    format_branch,
    format_branch_diff,
    format_branches,
    format_contract_catalog,
    format_contract_report,
    format_frames,
    format_moment,
    format_process,
    format_status,
)
from repro.replay.timetravel import Moment
from repro.replay.trace import Trace
from repro.service.protocol import wire_encode

#: Session operations with no REPL command of their own: scripting and
#: automation surface (summaries shown by the ``methods`` listing).
EXTRA_OPS: dict[str, str] = {
    "reattach": "re-adopt a node that became reachable again",
    "wait_for_breakpoint": "block until some breakpoint is hit",
    "wait_for_failure": "block until a process failure is reported",
    "halt_all": "halt every connected node at once",
    "process_state": "registers/state of one process",
    "read_var": "read a frame variable (raw value)",
    "read_global": "read a module global",
    "write_global": "write a module global",
    "invoke": "call a procedure inside the debuggee",
    "wake_process": "force a waiting process runnable",
    "rpc_server_record": "server-side record of one RPC call",
    "diagnose_maybe_failure": "classify a maybe-failed RPC call",
    "stop_recording": "seal the trace and load it for time travel",
    "total_interruption": "debugger-caused interruption total (us)",
}


def wire_methods() -> list[dict]:
    """The daemon's method table, derived from the REPL registry.

    One row per operation: ``{"op", "commands", "summary"}`` where
    ``commands`` lists the interactive aliases (possibly empty).  Rows
    keep REPL declaration order, then the extras.
    """
    rows: list[dict] = []
    seen: dict[str, dict] = {}
    for command in COMMANDS.values():
        if command.op is None:
            continue
        row = seen.get(command.op)
        if row is None:
            row = {"op": command.op, "commands": [], "summary": command.summary}
            seen[command.op] = row
            rows.append(row)
        row["commands"].append(command.name)
    for op, summary in EXTRA_OPS.items():
        if op not in seen:
            rows.append({"op": op, "commands": [], "summary": summary})
    return rows


def resolve_op(method: str) -> str:
    """Map a wire method name (op or REPL alias) to the session op."""
    command = COMMANDS.get(method)
    if command is not None and command.op is not None:
        return command.op
    for entry in COMMANDS.values():
        if entry.op == method:
            return method
    if method in EXTRA_OPS:
        return method
    known = ", ".join(row["op"] for row in wire_methods())
    raise ServiceError(f"unknown method {method!r} (known: {known})")


def apply_op(backend: Any, op: str, args: list, kwargs: dict) -> Any:
    """Invoke one session operation on a backend.

    A backend that lacks the operation (a :class:`TraceSession` asked to
    ``halt``, a live target asked to time-travel) yields the stable
    ``unsupported`` error, and a sealed :class:`Trace` result is
    shrunk to its :class:`~repro.debugger.api.TraceSummary` — the trace
    itself stays on the daemon, loaded for time travel.
    """
    method = getattr(backend, op, None)
    if method is None or not callable(method):
        raise UnsupportedOperationError(
            f"{op} is not offered by this {type(backend).__name__} session"
        )
    result = method(*args, **kwargs)
    if isinstance(result, Trace):
        return TraceSummary(n_events=result.n_events,
                            n_checkpoints=result.n_checkpoints)
    return result


def render_text(op: str, result: Any) -> str:
    """Plain-text rendering of a result (REPL-identical where typed)."""
    if op in ("processes",):
        return "\n".join(format_process(info) for info in result)
    if op == "all_processes":
        return "\n".join(format_all_processes(result))
    if op in ("backtrace", "distributed_backtrace"):
        return "\n".join(
            format_frames(result, show_node=(op == "distributed_backtrace"))
        )
    if op == "status":
        return "\n".join(format_status(result))
    if op == "fork":
        return format_branch(result)
    if op == "branches":
        return "\n".join(format_branches(result))
    if op == "diff_branches":
        return "\n".join(format_branch_diff(result))
    if op == "check":
        return "\n".join(format_contract_report(result))
    if op == "contracts":
        return "\n".join(format_contract_catalog(result))
    if isinstance(result, Moment):
        return "\n".join(format_moment(result))
    if isinstance(result, TraceSummary):
        return (f"recorded {result.n_events} events, "
                f"{result.n_checkpoints} checkpoints; trace loaded")
    if result is None:
        return "ok"
    return json.dumps(wire_encode(result), default=str, sort_keys=True)


def decode_params(params: Optional[dict]) -> tuple[list, dict]:
    """Split a request's ``params`` into ``(args, kwargs)``.

    Accepts the canonical ``{"args": [...], "kwargs": {...}}`` envelope
    or, for hand-written clients, a flat object treated as kwargs.
    """
    if not params:
        return [], {}
    if "args" in params or "kwargs" in params:
        args = params.get("args") or []
        kwargs = params.get("kwargs") or {}
    else:
        args, kwargs = [], dict(params)
    if not isinstance(args, list) or not isinstance(kwargs, dict):
        raise ServiceError("params must be {args: [...], kwargs: {...}}")
    return args, kwargs
