"""Fleet containment, journal resume, and crash-recovery tests.

The scenarios registered here are deliberately hostile: ``boom`` raises
inside the cell, ``die`` SIGKILLs its own worker, ``die_once`` kills the
first worker that runs it and passes on retry, ``hang`` sleeps past any
reasonable deadline.  Worker processes inherit them via fork, so the
fleet tests exercise the real multiprocess containment paths.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.campaign import (
    CampaignJournal,
    build_grid,
    cell_key,
    execute_cell,
    get_plan,
    run_campaign,
)
from repro.campaign.scenarios import SCENARIOS, Scenario
from repro.contracts.dsl import ContractSet, ProbeContract

# ----------------------------------------------------------------------
# Hostile test scenarios
# ----------------------------------------------------------------------

#: Environment variable naming the marker file ``die_once`` uses to kill
#: only the first worker that runs it (inherited by workers via fork).
_DIE_ONCE_MARKER = "REPRO_TEST_DIE_ONCE_MARKER"


def _boom_build(cluster):
    raise RuntimeError("kaboom: scenario build blew up")


def _die_build(cluster):
    os.kill(os.getpid(), signal.SIGKILL)


def _die_once_build(cluster):
    marker = os.environ[_DIE_ONCE_MARKER]
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("died")
        os.kill(os.getpid(), signal.SIGKILL)
    return {}


def _hang_build(cluster):
    time.sleep(300)


def _unpicklable_check(facts):
    return object()  # a "violation message" that is not JSON-serializable


def _empty_build(cluster):
    return {}


_NO_CONTRACTS = ContractSet(name="none", contracts=())

_UNJSON_SET = ContractSet(
    name="unjson",
    contracts=(ProbeContract(name="unjson",
                             description="returns an unserializable message",
                             check=_unpicklable_check),),
)

_HOSTILE = {
    "boom": Scenario(name="boom", description="raises during build",
                     names=("a", "b"), run_until=1000,
                     build=_boom_build, contracts=_NO_CONTRACTS),
    "die": Scenario(name="die", description="SIGKILLs its worker",
                    names=("a", "b"), run_until=1000,
                    build=_die_build, contracts=_NO_CONTRACTS),
    "die_once": Scenario(name="die_once", description="kills one worker",
                         names=("a", "b"), run_until=1000,
                         build=_die_once_build, contracts=_NO_CONTRACTS),
    "hang": Scenario(name="hang", description="sleeps forever",
                     names=("a", "b"), run_until=1000,
                     build=_hang_build, contracts=_NO_CONTRACTS),
    "unjson": Scenario(name="unjson", description="unserializable verdict",
                       names=("a", "b"), run_until=1000,
                       build=_empty_build, contracts=_UNJSON_SET),
}


@pytest.fixture(autouse=True)
def hostile_scenarios():
    """Register the hostile scenarios for each test, then restore."""
    SCENARIOS.update(_HOSTILE)
    try:
        yield
    finally:
        for name in _HOSTILE:
            SCENARIOS.pop(name, None)


def _grid(*scenarios, seeds=(0,), plans=("calm",)):
    return build_grid(list(scenarios), list(seeds),
                      [(name, get_plan(name)) for name in plans])


# Fast containment knobs: retries resolve in milliseconds, not seconds.
_FAST = dict(backoff=0.005, shrink=False)


# ----------------------------------------------------------------------
# Exception containment (the PR 4 shard-abort regression)
# ----------------------------------------------------------------------

def test_execute_cell_captures_exception_as_error_verdict():
    cell = _grid("boom")[0]
    result = execute_cell(cell)
    assert result["verdict"] == "error"
    assert result["error"]["kind"] == "exception"
    assert "kaboom" in result["error"]["detail"]
    assert "RuntimeError" in result["error"]["detail"]  # full traceback


def test_raising_cell_does_not_abort_siblings_inline():
    # Regression: under the PR 4 runner an exception in run_cell
    # propagated out of the shard loop and killed every sibling cell.
    report = run_campaign(_grid("boom", "echo"), workers=1, **_FAST)
    assert [c["verdict"] for c in report.cells] == ["error", "pass"]
    assert report.cells[1]["events"] > 0  # the sibling really ran


def test_raising_cell_does_not_abort_siblings_in_fleet():
    inline = run_campaign(_grid("boom", "echo"), workers=1, **_FAST)
    fleet = run_campaign(_grid("boom", "echo"), workers=2, **_FAST)
    assert [c["verdict"] for c in fleet.cells] == ["error", "pass"]
    assert fleet.canonical_json() == inline.canonical_json()


def test_unserializable_result_is_contained():
    report = run_campaign(_grid("unjson", "echo"), workers=2, **_FAST)
    assert report.cells[0]["verdict"] == "error"
    assert report.cells[0]["error"]["kind"] == "unserializable"
    assert report.cells[1]["verdict"] == "pass"


# ----------------------------------------------------------------------
# Worker death: retry, recovery, quarantine
# ----------------------------------------------------------------------

def test_chaos_kill_recovers_and_report_is_byte_identical():
    cells = _grid("echo", seeds=(0, 1), plans=("calm", "crash"))
    clean = run_campaign(cells, workers=2, **_FAST)
    chaotic = run_campaign(cells, workers=2, chaos_kill_cells=[1], **_FAST)
    assert chaotic.canonical_json() == clean.canonical_json()
    assert chaotic.fleet["fleet.worker_deaths"] == 1
    assert chaotic.fleet["fleet.retries"] == 1


def test_die_once_cell_passes_on_retry(tmp_path, monkeypatch):
    monkeypatch.setenv(_DIE_ONCE_MARKER, str(tmp_path / "died"))
    report = run_campaign(_grid("die_once", "echo"), workers=2, **_FAST)
    assert [c["verdict"] for c in report.cells] == ["pass", "pass"]
    assert report.fleet["fleet.worker_deaths"] == 1
    assert report.fleet["fleet.retries"] == 1


def test_poison_cell_is_quarantined():
    report = run_campaign(_grid("die", "echo"), workers=2,
                          quarantine_after=2, **_FAST)
    assert report.cells[0]["verdict"] == "error"
    assert report.cells[0]["error"]["kind"] == "quarantined"
    assert report.cells[1]["verdict"] == "pass"
    assert report.fleet["fleet.worker_deaths"] == 2
    assert report.fleet["fleet.quarantined"] == 1


def test_hanging_cell_times_out_with_retry():
    report = run_campaign(_grid("hang", "echo"), workers=2,
                          cell_timeout=0.3, retries=1, **_FAST)
    assert report.cells[0]["verdict"] == "error"
    assert report.cells[0]["error"]["kind"] == "timeout"
    assert report.cells[1]["verdict"] == "pass"
    assert report.fleet["fleet.timeouts"] == 2  # first attempt + retry


def test_error_verdicts_are_schedule_independent():
    # The same poison grid, run inline / fleet / wider fleet with a
    # different retry budget: one canonical document.
    cells = _grid("boom", "echo", seeds=(0, 1))
    inline = run_campaign(cells, workers=1, **_FAST)
    narrow = run_campaign(cells, workers=2, retries=0, **_FAST)
    wide = run_campaign(cells, workers=4, retries=3, **_FAST)
    assert inline.canonical_json() == narrow.canonical_json()
    assert inline.canonical_json() == wide.canonical_json()


# ----------------------------------------------------------------------
# Journal: checkpoint, resume, invalidation
# ----------------------------------------------------------------------

def _journal_grid():
    return _grid("echo", seeds=(0, 1), plans=("calm", "crash"))


def test_resume_reuses_journaled_cells(tmp_path):
    journal = tmp_path / "campaign.journal"
    cells = _journal_grid()
    first = run_campaign(cells, workers=1, journal_path=journal, **_FAST)
    assert first.fleet["fleet.cells_executed"] == len(cells)
    again = run_campaign(cells, workers=1, journal_path=journal,
                         resume=True, **_FAST)
    assert again.fleet["fleet.cells_resumed"] == len(cells)
    assert again.fleet["fleet.cells_executed"] == 0
    assert again.canonical_json() == first.canonical_json()


def test_resume_across_worker_counts_is_byte_identical(tmp_path):
    journal = tmp_path / "campaign.journal"
    cells = _journal_grid()
    first = run_campaign(cells, workers=2, journal_path=journal, **_FAST)
    resumed = run_campaign(cells, workers=4, journal_path=journal,
                           resume=True, **_FAST)
    assert resumed.canonical_json() == first.canonical_json()


def test_fresh_run_truncates_stale_journal(tmp_path):
    journal = tmp_path / "campaign.journal"
    cells = _journal_grid()
    run_campaign(cells, workers=1, journal_path=journal, **_FAST)
    # A *fresh* (non-resume) run must not leave the old entries around
    # for a later --resume to trust.
    rerun = run_campaign(cells, workers=1, journal_path=journal, **_FAST)
    assert rerun.fleet["fleet.cells_executed"] == len(cells)
    loaded = CampaignJournal.load(journal)
    assert len(loaded) == len(cells)  # rewritten by the second run


def test_partially_written_journal_is_skipped_on_resume(tmp_path):
    journal = tmp_path / "campaign.journal"
    cells = _journal_grid()
    first = run_campaign(cells, workers=1, journal_path=journal, **_FAST)
    # Simulate a torn write from a pre-atomic-rename world: truncate the
    # document mid-JSON.  Resume must recover to a full re-run, not
    # crash or trust garbage.
    text = journal.read_text()
    journal.write_text(text[:len(text) // 2])
    loaded = CampaignJournal.load(journal)
    assert loaded.recovered and len(loaded) == 0
    resumed = run_campaign(cells, workers=1, journal_path=journal,
                           resume=True, **_FAST)
    assert resumed.fleet["fleet.cells_executed"] == len(cells)
    assert resumed.fleet["fleet.cells_resumed"] == 0
    assert resumed.canonical_json() == first.canonical_json()


def test_journal_version_mismatch_is_skipped(tmp_path):
    journal = tmp_path / "campaign.journal"
    journal.write_text(json.dumps(
        {"version": 999, "cells": {}, "shrinks": {}}))
    loaded = CampaignJournal.load(journal)
    assert loaded.recovered and len(loaded) == 0


def test_invalidated_key_reexecutes_exactly_that_cell(tmp_path):
    journal = tmp_path / "campaign.journal"
    cells = _journal_grid()
    first = run_campaign(cells, workers=1, journal_path=journal, **_FAST)
    # Drop one cell's entry — the on-disk equivalent of its content
    # address changing (scenario edit, plan change, tree change).
    data = json.loads(journal.read_text())
    victim = cell_key(cells[2])
    assert victim in data["cells"]
    del data["cells"][victim]
    journal.write_text(json.dumps(data))
    resumed = run_campaign(cells, workers=1, journal_path=journal,
                           resume=True, **_FAST)
    assert resumed.fleet["fleet.cells_resumed"] == len(cells) - 1
    assert resumed.fleet["fleet.cells_executed"] == 1
    assert resumed.canonical_json() == first.canonical_json()


def test_resume_survives_grid_reordering(tmp_path):
    # Content addressing means results follow the cell, not its index.
    journal = tmp_path / "campaign.journal"
    cells = _journal_grid()
    run_campaign(cells, workers=1, journal_path=journal, **_FAST)
    reordered = build_grid(["echo"], [1, 0],
                           [(n, get_plan(n)) for n in ("crash", "calm")])
    resumed = run_campaign(reordered, workers=1, journal_path=journal,
                           resume=True, **_FAST)
    assert resumed.fleet["fleet.cells_resumed"] == len(cells)
    assert resumed.fleet["fleet.cells_executed"] == 0
    assert [c["index"] for c in resumed.cells] == [0, 1, 2, 3]


def test_resume_reuses_journaled_shrinks(tmp_path, monkeypatch):
    journal = tmp_path / "campaign.journal"
    cells = _grid("echo", plans=("crash",))
    first = run_campaign(cells, workers=1, shrink=True,
                         journal_path=journal, out_dir=tmp_path / "traces")
    assert len(first.shrinks) == 1
    # The resumed run must serve the shrink from the journal, not re-run
    # the (expensive) minimizer.
    import repro.campaign.runner as runner_module

    def _fail(*args, **kwargs):
        raise AssertionError("shrink_cell re-invoked on resume")

    monkeypatch.setattr(runner_module, "shrink_cell", _fail)
    resumed = run_campaign(cells, workers=1, shrink=True,
                           journal_path=journal, resume=True,
                           out_dir=tmp_path / "traces")
    assert resumed.canonical_json() == first.canonical_json()


# ----------------------------------------------------------------------
# Coordinator crash: SIGKILL mid-campaign, then --resume
# ----------------------------------------------------------------------

_CRASH_SCRIPT = """
import sys
from repro.campaign import build_grid, get_plan, run_campaign

plans = [(n, get_plan(n)) for n in ("calm", "crash")]
cells = build_grid(["echo"], list(range(20)), plans)
run_campaign(cells, workers=2, shrink=False, journal_path=sys.argv[1])
"""


def test_sigkill_coordinator_then_resume_is_byte_identical(tmp_path):
    """The ISSUE acceptance scenario: kill the coordinator mid-campaign,
    resume, and get the byte-identical report without re-executing the
    journaled cells."""
    journal = tmp_path / "campaign.journal"
    src_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src_root)
    proc = subprocess.Popen(
        [sys.executable, "-c", _CRASH_SCRIPT, str(journal)],
        env=env, cwd=tmp_path,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        # Wait until at least 3 cells are journaled, then SIGKILL the
        # coordinator mid-flight.  Every snapshot is atomically
        # replaced, so whatever we observe is a complete document.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            loaded = CampaignJournal.load(journal)
            if not loaded.recovered and len(loaded) >= 3:
                break
            if proc.poll() is not None:
                break  # tiny grid raced to completion; still resumable
            time.sleep(0.002)
        if proc.poll() is None:
            proc.kill()
    finally:
        proc.wait()

    plans = [(n, get_plan(n)) for n in ("calm", "crash")]
    cells = build_grid(["echo"], list(range(20)), plans)
    journaled = CampaignJournal.load(journal)
    assert not journaled.recovered and len(journaled) >= 3

    resumed = run_campaign(cells, workers=2, shrink=False,
                           journal_path=journal, resume=True)
    clean = run_campaign(cells, workers=1, shrink=False)
    assert resumed.canonical_json() == clean.canonical_json()
    # The resumed run really reused the crashed run's progress: every
    # cell was either restored from the journal or executed, never both.
    restored = resumed.fleet["fleet.cells_resumed"]
    executed = resumed.fleet["fleet.cells_executed"]
    assert restored == len(journaled)
    assert restored >= 3
    assert restored + executed == len(cells)


_LONG_SCRIPT = """
from repro.campaign import build_grid, get_plan, run_campaign

plans = [(n, get_plan(n)) for n in ("calm", "crash")]
run_campaign(build_grid(["echo"], list(range(2000)), plans), workers=2,
             shrink=False)
"""


def _children_of(pid: int) -> list:
    """Pids whose parent is ``pid`` (procfs scan)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Fields after the command name, which may itself hold ") ".
        ppid = stat.rsplit(")", 1)[1].split()[1]
        if int(ppid) == pid:
            children.append(int(entry))
    return children


def _exited(pid: int) -> bool:
    """True once ``pid`` is gone or a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


@pytest.mark.skipif(not os.path.isdir("/proc"),
                    reason="finds the worker pids through procfs")
def test_workers_exit_when_the_coordinator_is_sigkilled():
    """A forked worker closes the coordinator-side pipe ends it
    inherited, so a SIGKILLed coordinator's pipes hit EOF and its
    workers exit instead of blocking in recv forever."""
    src_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src_root)
    proc = subprocess.Popen(
        [sys.executable, "-c", _LONG_SCRIPT], env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    workers: list = []
    try:
        deadline = time.monotonic() + 60.0
        while len(workers) < 2 and time.monotonic() < deadline:
            assert proc.poll() is None, "the campaign ended before the kill"
            workers = _children_of(proc.pid)
            time.sleep(0.01)
        assert len(workers) >= 2
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if all(_exited(pid) for pid in workers):
                break
            time.sleep(0.01)
        assert [pid for pid in workers if not _exited(pid)] == []
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid in workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
