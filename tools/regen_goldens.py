#!/usr/bin/env python
"""Regenerate every committed golden trace, in both encodings.

Run from the repo root when a change *intentionally* alters the event
stream or the trace encoding (and say so in the commit message)::

    PYTHONPATH=src python tools/regen_goldens.py

Records the golden scenario once and writes the JSONL and binary twins
side by side under ``tests/golden/``, verifying that both files load
back to the same fingerprint before reporting it, then rewrites the
contract-report goldens.  The fingerprint it prints is what
``tests/test_golden_trace.py::GOLDEN_FINGERPRINT`` must be updated to.

``--check`` regenerates into a temporary directory instead and exits 1
if any file differs by a single byte from the committed one (CI runs it
in the ``golden-replay`` job)::

    PYTHONPATH=src python tools/regen_goldens.py --check
"""

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def _write_report_goldens(trace_path: Path, echo_out: Path,
                          kv_out: Path) -> None:
    """Regenerate the committed contract-report goldens.

    Two pinned reports: the universal catalogue folded over the golden
    echo trace, and the KV scenario's own set over its split-brain run
    (see ``tests/test_contracts.py``).
    """
    import json

    from repro.campaign.scenarios import get_plan, get_scenario
    from repro.contracts import UNIVERSAL_SET, check_trace
    from repro.replay import Trace
    from repro.replay.replay import record_run

    echo = check_trace(Trace.load(trace_path), UNIVERSAL_SET)
    scenario = get_scenario("kv")
    trace = record_run(scenario.build, list(scenario.names), seed=0,
                       run_until=scenario.run_until,
                       plan=get_plan("leader_partition"))
    kv = check_trace(trace, scenario.contracts)
    for path, report in ((echo_out, echo), (kv_out, kv)):
        path.write_text(json.dumps(json.loads(report.canonical()),
                                   sort_keys=True, indent=2) + "\n")
        print(f"wrote {path} ({len(report.verdicts)} verdicts, "
              f"{len(report.violations)} violations)")


def regenerate(out_dir: Path) -> list[Path]:
    """Write every golden under ``out_dir`` (committed file names);
    returns the paths written."""
    from repro.replay import Trace
    from tests.golden_scenario import GOLDEN_BINARY_PATH, GOLDEN_PATH, record
    from tests.test_contracts import ECHO_REPORT_GOLDEN, KV_REPORT_GOLDEN

    out_dir.mkdir(parents=True, exist_ok=True)
    jsonl, binary, echo_report, kv_report = (
        out_dir / path.name for path in
        (GOLDEN_PATH, GOLDEN_BINARY_PATH, ECHO_REPORT_GOLDEN,
         KV_REPORT_GOLDEN))
    trace = record()
    trace.save(jsonl, format="jsonl")
    trace.save(binary, format="binary")
    fingerprint = trace.fingerprint()
    for path in (jsonl, binary):
        reread = Trace.load(path)
        if reread.fingerprint() != fingerprint:
            raise SystemExit(f"error: {path} re-reads with fingerprint "
                             f"{reread.fingerprint()}, expected {fingerprint}")
        print(f"wrote {path} ({len(reread.events)} events, "
              f"{path.stat().st_size} bytes)")
    _write_report_goldens(jsonl, echo_report, kv_report)
    print(f"fingerprint {fingerprint}")
    return [jsonl, binary, echo_report, kv_report]


def _same_bytes(fresh: Path, committed: Path) -> bool:
    return committed.is_file() and fresh.read_bytes() == committed.read_bytes()


def main(argv=None) -> int:
    """Regenerate the goldens in place, or ``--check`` them."""
    from tests.golden_scenario import GOLDEN_PATH

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="regenerate into a temporary directory and "
                             "fail on any byte difference")
    args = parser.parse_args(argv)
    golden_dir = GOLDEN_PATH.parent
    if not args.check:
        regenerate(golden_dir)
        print("update tests/test_golden_trace.py::GOLDEN_FINGERPRINT "
              "if it changed")
        return 0
    with tempfile.TemporaryDirectory() as scratch:
        written = regenerate(Path(scratch))
        stale = [path.name for path in written
                 if not _same_bytes(path, golden_dir / path.name)]
    if stale:
        print(f"error: regenerated goldens differ from the committed "
              f"files: {', '.join(stale)}", file=sys.stderr)
        return 1
    print(f"ok: {len(written)} goldens are byte-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
