"""Golden-output regression corpus, replayed with and without the kernel.

The JSON files under ``tests/golden/`` pin the sanitized summary and
the exact per-flow FCT samples of a handful of small configurations
(see ``tests/golden/regenerate.py`` for the case list and the
regeneration workflow).  Every case must reproduce its stored output
exactly with the compiled owner kernel AND on the numpy fall-through a
host without a C compiler runs (the ``owner_kernel`` fixture).  Twelve
of the cases were frozen from the scalar reference path the commit
before it was deleted; the stored files are the oracle now.
"""

import json
from pathlib import Path

import pytest

from tests.golden.regenerate import CASES, run_case

GOLDEN_DIR = Path(__file__).parent / "golden"
# The session-* pair is the golden *checkpoint* (exercised by
# tests/test_session.py), not a replay case of this corpus.
GOLDEN_FILES = sorted(
    p for p in GOLDEN_DIR.glob("*.json") if not p.stem.startswith("session-")
)


def test_corpus_complete():
    """Every declared case has a stored golden file, and vice versa."""
    stored = {p.stem for p in GOLDEN_FILES}
    assert stored == set(CASES), (
        "corpus out of sync with the case list -- run "
        "`PYTHONPATH=src python tests/golden/regenerate.py`"
    )


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=lambda p: p.stem)
def test_golden_replay(path, owner_kernel):
    golden = json.loads(path.read_text())
    replay = run_case(golden["case"])
    assert replay["summary"] == golden["summary"], (
        f"{golden['case']} summary drifted ({owner_kernel} kernel)"
    )
    assert replay["fcts_ms"] == golden["fcts_ms"], (
        f"{golden['case']} FCT samples drifted ({owner_kernel} kernel)"
    )
    assert golden["summary"]["completed_flows"] > 0, (
        "golden case completes no flows -- it regression-tests nothing"
    )
