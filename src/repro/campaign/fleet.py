"""The fault-tolerant work-stealing campaign fleet.

PR 4's runner fanned statically-sharded cell lists across a
``ProcessPoolExecutor``: one hung cell stalled its whole shard, one
crashed worker (OOM kill, segfault, unpickleable result) lost every
result the pool had not yet returned, and a Ctrl-C lost the campaign.
This module replaces that with production fuzzing-fleet semantics:

* **Work stealing** — there is no static sharding.  A coordinator holds
  one pending deque; each worker asks for a cell when idle (a ``ready``
  message) and receives the next one, so a slow cell never delays the
  cells that would have shared its shard.  Dispatch order is demand
  -driven, but results are keyed by cell index, so the canonical report
  stays byte-identical at any worker count.
* **Containment** — every cell attempt runs under a wall-clock deadline.
  A worker that blows the deadline is SIGKILLed; a worker that dies
  (crash, OOM, unserializable result) is detected through its closed
  pipe and its in-flight cell is attributed.  Either way the fleet
  respawns a fresh worker and the campaign keeps moving.
* **Retry with backoff** — environmental failures (death, timeout) are
  retried up to a bounded budget with exponential backoff; exhausted
  budgets convert into a deterministic ``error`` verdict instead of an
  aborted campaign.  A cell whose own code raises is *not* retried —
  cells are deterministic, so the exception is the result — it becomes
  an ``error`` verdict carrying the captured traceback.
* **Quarantine** — a cell that kills ``quarantine_after`` workers is
  quarantined (an ``error`` verdict with ``kind="quarantined"``) so one
  poison cell cannot wedge the fleet in a kill/respawn loop.

The coordinator/worker protocol is pure message passing over per-worker
pipes — no shared locks, so a SIGKILLed worker can never deadlock its
siblings: worker sends ``("ready", pid)``, coordinator replies
``("run", cell)`` or ``("exit",)``, worker sends ``("done", index,
result)`` and another ``ready``.  Worker death closes the pipe, which
the coordinator observes as EOF.

Fleet-health counters (:data:`repro.obs.metrics.FLEET_COUNTERS`) record
retries, timeouts, worker deaths, steals, and quarantines; they describe
the *schedule*, so they ride next to ``workers``/``wall_seconds`` in the
report and never enter the canonical document.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait_connections
from typing import Callable, Optional, Sequence

from repro.obs.metrics import Metrics, fleet_metrics

#: Default wall-clock budget per cell attempt, in seconds.  Campaign
#: cells are milliseconds of host time; a minute means only a genuinely
#: wedged cell (live-lock, accidental blocking syscall) trips it.
DEFAULT_CELL_TIMEOUT = 60.0

#: Default retry budget for environmental failures (worker death or
#: timeout): the attempt itself plus this many re-executions.
DEFAULT_RETRIES = 2

#: Default base backoff between retries of one cell, in seconds;
#: doubles per retry, capped at :data:`MAX_BACKOFF`.
DEFAULT_BACKOFF = 0.05

#: Ceiling on the per-retry backoff delay, in seconds.
MAX_BACKOFF = 2.0

#: Worker deaths attributed to one cell before it is quarantined.
DEFAULT_QUARANTINE_AFTER = 2


@dataclass(frozen=True)
class FleetOptions:
    """Tuning knobs for one fleet run.

    ``chaos_kill_cells`` is the fault-injection hook the fleet's own
    tests use: the coordinator SIGKILLs the worker to which one of these
    cells is first dispatched, exercising the death/retry path with the
    same determinism guarantees as a real OOM kill.
    """

    workers: int = 2
    cell_timeout: float = DEFAULT_CELL_TIMEOUT
    retries: int = DEFAULT_RETRIES
    backoff: float = DEFAULT_BACKOFF
    quarantine_after: int = DEFAULT_QUARANTINE_AFTER
    poll_interval: float = 0.02
    chaos_kill_cells: frozenset = field(default_factory=frozenset)


def error_result(cell, kind: str, detail: str) -> dict:
    """A deterministic ``error``-verdict result for a cell that never
    produced one itself.

    The dict mirrors :func:`repro.campaign.runner.run_cell`'s shape so
    reports aggregate it uniformly; ``error`` carries the failure class
    (``exception`` / ``timeout`` / ``worker-death`` / ``quarantined`` /
    ``unserializable``) and a detail string.  Nothing schedule-dependent
    (attempt counts, pids, elapsed wall time) is included — the verdict
    for a given failure is byte-identical across worker counts, retry
    schedules, and resume boundaries.
    """
    return {
        "index": cell.index,
        "scenario": cell.scenario,
        "seed": cell.seed,
        "plan_name": cell.plan_name,
        "topology": cell.topology,
        "plan": cell.plan.to_dict(),
        "verdict": "error",
        "error": {"kind": kind, "detail": detail},
        "violations": [],
        "final_time": 0,
        "events": 0,
        "fingerprint": None,
        "metrics": {},
    }


def execute_cell(cell) -> dict:
    """Run one cell, converting any raised exception into its result.

    This is the containment fix for the PR 4 runner, where an exception
    inside ``run_cell`` propagated out of the worker and aborted the
    rest of its shard: here the traceback is captured as an ``error``
    verdict and sibling cells are untouched.  A result that is not
    JSON-serializable (a scenario smuggling live objects into its
    violations) is likewise converted rather than letting the transport
    layer choke on it.
    """
    from repro.campaign.runner import run_cell

    try:
        result = run_cell(cell)
    except Exception:
        return error_result(cell, "exception", traceback.format_exc())
    try:
        json.dumps(result)
    except (TypeError, ValueError):
        return error_result(
            cell, "unserializable",
            f"run_cell returned a non-JSON-serializable result: "
            f"{type(result).__name__}",
        )
    return result


def _fleet_worker(conn, coordinator_ends) -> None:
    """Worker-process main loop: ask, run, answer, repeat.

    Every send is a synchronous pipe write (no feeder thread), so a
    message that ``send`` returned for is readable by the coordinator
    even if this process is SIGKILLed immediately afterwards.

    ``coordinator_ends`` are the coordinator-side pipe ends a forked
    worker inherits (its own and every older worker's).  They are
    closed first: while any process holds one, ``recv`` never sees EOF,
    and a worker would outlive a killed coordinator.
    """
    for end in coordinator_ends:
        end.close()
    try:
        conn.send(("ready", os.getpid()))
        while True:
            message = conn.recv()
            if message[0] == "exit":
                return
            cell = message[1]
            conn.send(("done", cell.index, execute_cell(cell)))
            conn.send(("ready", os.getpid()))
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        return
    finally:
        conn.close()


class _Worker:
    """Coordinator-side handle: process, pipe, slot, and assignment."""

    __slots__ = ("process", "conn", "slot", "cell", "deadline")

    def __init__(self, process, conn, slot: int):
        self.process = process
        self.conn = conn
        self.slot = slot
        self.cell = None
        self.deadline: Optional[float] = None


class Fleet:
    """The coordinator: dispatches cells, contains failures, resolves
    every cell to exactly one result.

    ``on_result(cell, result)`` fires once per cell, in completion
    order, as soon as the cell is resolved — the campaign runner uses it
    to checkpoint the journal, so progress survives a coordinator kill.
    """

    def __init__(
        self,
        cells: Sequence,
        options: FleetOptions,
        metrics: Optional[Metrics] = None,
        on_result: Optional[Callable] = None,
    ):
        self.cells = sorted(cells, key=lambda cell: cell.index)
        self.options = options
        self.metrics = metrics if metrics is not None else fleet_metrics()
        self.on_result = on_result
        self.results: dict[int, dict] = {}
        self._by_index = {cell.index: cell for cell in self.cells}
        self._pending = deque(self.cells)
        self._backlog: list[tuple[float, object]] = []  # (ready_at, cell)
        self._attempts: dict[int, int] = {}
        self._deaths: dict[int, int] = {}
        self._workers: dict[int, _Worker] = {}
        self._next_worker_id = 0
        self._chaos_pending = set(options.chaos_kill_cells)
        # Workers inherit the parent's loaded modules (and any
        # test-registered scenarios) via fork; spawn is the portability
        # fallback where fork does not exist.
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )

    # -- lifecycle ------------------------------------------------------

    def run(self) -> dict[int, dict]:
        """Drive the fleet until every cell has a result."""
        if not self.cells:
            return self.results
        try:
            for _ in range(min(self.options.workers, len(self.cells))):
                self._spawn_worker()
            while len(self.results) < len(self.cells):
                self._promote_backlog()
                self._dispatch_idle()
                self._poll()
                self._reap_timeouts()
                self._maintain_size()
        finally:
            self._shutdown()
        return self.results

    def _spawn_worker(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        coordinator_ends = [parent_conn] + [
            worker.conn for worker in self._workers.values()
        ]
        process = self._ctx.Process(
            target=_fleet_worker, args=(child_conn, coordinator_ends),
            daemon=True,
        )
        process.start()
        child_conn.close()  # the worker holds the only child end now
        worker = _Worker(process, parent_conn, self._next_worker_id)
        self._workers[self._next_worker_id] = worker
        self._next_worker_id += 1

    def _maintain_size(self) -> None:
        """Respawn up to the configured width while work remains."""
        unresolved = len(self.cells) - len(self.results)
        want = min(self.options.workers, unresolved)
        while len(self._workers) < want:
            self._spawn_worker()

    def _shutdown(self) -> None:
        for worker in list(self._workers.values()):
            try:
                worker.conn.send(("exit",))
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 2.0
        for worker in self._workers.values():
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
            worker.conn.close()
        self._workers.clear()

    # -- dispatch -------------------------------------------------------

    def _promote_backlog(self) -> None:
        """Move backed-off retries whose delay elapsed back to pending."""
        if not self._backlog:
            return
        now = time.monotonic()
        ready = [cell for at, cell in self._backlog if at <= now]
        if ready:
            self._backlog = [(at, cell) for at, cell in self._backlog
                             if at > now]
            for cell in sorted(ready, key=lambda cell: cell.index):
                self._pending.append(cell)

    def _dispatch_idle(self) -> None:
        """Offer pending work to idle workers.

        Needed for retries: a worker that said ``ready`` while the only
        remaining cells sat in the backoff backlog went idle, so when a
        backed-off cell is promoted nobody would ask for it again.
        Sending ``run`` ahead of the worker's next ``recv`` is safe —
        the pipe buffers it — and :meth:`_dispatch` guards against
        double-assignment via ``worker.cell``.
        """
        if not self._pending:
            return
        for worker in list(self._workers.values()):
            if not self._pending:
                return
            if worker.cell is None:
                self._dispatch(worker)

    def _dispatch(self, worker: _Worker) -> None:
        """Hand the next pending cell to a worker that asked for one."""
        if worker.cell is not None or not self._pending:
            return
        cell = self._pending.popleft()
        if cell.index in self.results:  # late duplicate, already resolved
            return
        try:
            worker.conn.send(("run", cell))
        except (BrokenPipeError, OSError):
            # The worker died between `ready` and now; put the cell back
            # and let the reaper attribute the death.
            self._pending.appendleft(cell)
            return
        worker.cell = cell
        worker.deadline = time.monotonic() + self.options.cell_timeout
        self._attempts[cell.index] = self._attempts.get(cell.index, 0) + 1
        self.metrics.counter("fleet.cells_executed").inc()
        # A "steal": this worker ran a cell that static round-robin
        # sharding (cell i -> shard i % workers) would have assigned to
        # a different worker.  Quantifies how much rebalancing the
        # demand-driven queue actually did.
        if cell.index % self.options.workers != worker.slot % self.options.workers:
            self.metrics.counter("fleet.steals").inc()
        if cell.index in self._chaos_pending:
            self._chaos_pending.discard(cell.index)
            self._kill_worker_process(worker)

    def _kill_worker_process(self, worker: _Worker) -> None:
        if worker.process.pid is not None:
            try:
                os.kill(worker.process.pid, signal.SIGKILL)
            except (ProcessLookupError, OSError):
                pass

    # -- event handling -------------------------------------------------

    def _poll(self) -> None:
        """Wait briefly for worker messages and process all of them."""
        conns = {worker.conn: worker for worker in self._workers.values()}
        if not conns:
            return
        for conn in _wait_connections(
            list(conns), timeout=self.options.poll_interval
        ):
            worker = conns[conn]
            self._drain(worker)

    def _drain(self, worker: _Worker) -> None:
        """Read every queued message from one worker; EOF means death."""
        while True:
            try:
                if not worker.conn.poll():
                    return
                message = worker.conn.recv()
            except (EOFError, OSError):
                self._handle_death(worker)
                return
            kind = message[0]
            if kind == "ready":
                self._dispatch(worker)
            elif kind == "done":
                _, index, result = message
                if worker.cell is not None and worker.cell.index == index:
                    worker.cell = None
                    worker.deadline = None
                self._resolve(index, result)

    def _resolve(self, index: int, result: dict) -> None:
        """Record a cell's final result exactly once."""
        if index in self.results:
            return
        self.results[index] = result
        if self.on_result is not None:
            self.on_result(self._by_index[index], result)

    def _reap_timeouts(self) -> None:
        """SIGKILL workers whose cell blew its wall-clock budget."""
        now = time.monotonic()
        for worker in list(self._workers.values()):
            if worker.cell is None or worker.deadline is None:
                continue
            if now < worker.deadline:
                continue
            # The deadline races with completion: salvage any result
            # already sitting in the pipe before reaching for SIGKILL.
            self._drain(worker)
            if (worker.slot not in self._workers or worker.cell is None
                    or worker.deadline is None
                    or time.monotonic() < worker.deadline):
                continue  # finished (or moved on to a fresh cell)
            self.metrics.counter("fleet.timeouts").inc()
            cell = worker.cell
            worker.cell = None
            self._kill_worker_process(worker)
            worker.process.join()
            self._discard_worker(worker)
            self._environmental_failure(
                cell, "timeout",
                f"cell exceeded its wall-clock budget and was killed "
                f"(timeout {self.options.cell_timeout:g}s)",
                count_death=False,
            )

    def _handle_death(self, worker: _Worker) -> None:
        """A worker's pipe hit EOF: attribute and contain the death."""
        worker.process.join()
        exitcode = worker.process.exitcode
        cell = worker.cell
        worker.cell = None
        self._discard_worker(worker)
        if cell is None or cell.index in self.results:
            return  # died idle (or after finishing); nothing to attribute
        self.metrics.counter("fleet.worker_deaths").inc()
        self._deaths[cell.index] = self._deaths.get(cell.index, 0) + 1
        self._environmental_failure(
            cell, "worker-death",
            f"worker died while executing the cell (exit code {exitcode})",
            count_death=True,
        )

    def _discard_worker(self, worker: _Worker) -> None:
        self._workers.pop(worker.slot, None)
        try:
            worker.conn.close()
        except OSError:
            pass

    def _environmental_failure(self, cell, kind: str, detail: str,
                               count_death: bool) -> None:
        """Retry, quarantine, or give up on a cell the environment lost."""
        index = cell.index
        if count_death and self._deaths.get(index, 0) >= self.options.quarantine_after:
            self.metrics.counter("fleet.quarantined").inc()
            self._resolve(index, error_result(
                cell, "quarantined",
                f"cell killed {self.options.quarantine_after} workers "
                f"and was quarantined",
            ))
            return
        attempts = self._attempts.get(index, 0)
        if attempts > self.options.retries:
            self._resolve(index, error_result(cell, kind, detail))
            return
        self.metrics.counter("fleet.retries").inc()
        delay = min(MAX_BACKOFF,
                    self.options.backoff * (2 ** max(0, attempts - 1)))
        self._backlog.append((time.monotonic() + delay, cell))


def run_fleet(
    cells: Sequence,
    options: FleetOptions,
    metrics: Optional[Metrics] = None,
    on_result: Optional[Callable] = None,
) -> dict[int, dict]:
    """Convenience wrapper: build a :class:`Fleet`, run it, return the
    index-keyed result dict."""
    return Fleet(cells, options, metrics=metrics, on_result=on_result).run()
