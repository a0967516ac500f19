#!/usr/bin/env python
"""(Re)build the committed reproducer corpus under ``tests/corpus/``.

The committed corpus is the regression half of the campaign loop: a
small set of shrunken reproducers, found and minimized by a real
campaign over the shipped scenarios, that CI replays on every push
(``python -m repro.campaign corpus replay tests/corpus``).  Run this
from the repo root when a change *intentionally* alters the simulation
event stream or the trace encoding (and say so in the commit
message)::

    PYTHONPATH=src python tools/build_corpus.py

The campaign below is deterministic — fixed grid, fixed seeds, inline
execution — so rebuilding on an unchanged tree rewrites identical
bytes.  ``--check`` builds into a temporary directory instead and exits
1 if the file set or any file's bytes differ from the committed corpus
(CI runs it in the ``corpus-replay`` job)::

    PYTHONPATH=src python tools/build_corpus.py --check
"""

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: The grid distilled into the committed corpus: the two fault families
#: that fail the echo scenario with *distinct* minimal plans (the storm
#: preset shrinks to the same lone crash as the crash preset, so adding
#: it would only churn content-addressed duplicates), two seeds, both
#: shipped topologies.
SCENARIOS = ["echo"]
SEEDS = [0, 7]
PLAN_NAMES = ["crash", "crash_reboot"]
TOPOLOGIES = ["ring", "mesh"]

CORPUS_DIR = Path(__file__).resolve().parent.parent / "tests" / "corpus"


def build(corpus_dir: Path) -> int:
    """Run the fixed campaign and bank its reproducers from scratch."""
    from repro.campaign import Corpus, build_grid, get_plan, run_campaign

    if corpus_dir.exists():
        shutil.rmtree(corpus_dir)
    plans = [(name, get_plan(name)) for name in PLAN_NAMES]
    cells = build_grid(SCENARIOS, SEEDS, plans, topologies=TOPOLOGIES)
    report = run_campaign(cells, workers=1, shrink=True,
                          corpus_dir=corpus_dir)
    corpus = Corpus.open(corpus_dir)
    print(f"campaign: {len(report.cells)} cells, "
          f"{len(report.failed)} failed, {len(corpus)} banked")
    failures = 0
    for entry, ok, detail in corpus.replay_all():
        status = "ok" if ok else "FAILED"
        print(f"  {entry.label():<28} {status}: {detail}")
        failures += 0 if ok else 1
    if failures:
        print(f"error: {failures} fresh reproducers failed replay",
              file=sys.stderr)
        return 1
    print(f"corpus written to {corpus_dir}")
    return 0


def differences(fresh: Path, committed: Path) -> list[str]:
    """File names missing, extra, or differing between two corpora."""
    names = {path.name for path in fresh.iterdir()}
    if committed.is_dir():
        names |= {path.name for path in committed.iterdir()}
    return sorted(
        name for name in names
        if not ((fresh / name).is_file() and (committed / name).is_file()
                and (fresh / name).read_bytes()
                == (committed / name).read_bytes())
    )


def main(argv=None) -> int:
    """Rebuild the corpus in place, or ``--check`` it."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="build into a temporary directory and fail "
                             "on any byte difference")
    args = parser.parse_args(argv)
    if not args.check:
        return build(CORPUS_DIR)
    with tempfile.TemporaryDirectory() as scratch:
        fresh = Path(scratch) / "corpus"
        status = build(fresh)
        if status:
            return status
        stale = differences(fresh, CORPUS_DIR)
        count = len(list(fresh.iterdir()))
    if stale:
        print(f"error: rebuilt corpus differs from {CORPUS_DIR}: "
              f"{', '.join(stale)}", file=sys.stderr)
        return 1
    print(f"ok: {count} corpus files are byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
