"""Regenerate the frozen CLI transcripts.

Each case is one ``repro`` command line at toy scale; its stdout and
every file it was asked to write are stored next to this script.  The
replay test (``tests/test_front_door.py``) runs each command again and
demands the same bytes, so the transcripts pin what the front door --
flags -> ``RunSpec`` -> session -> printed summary -- produces, for
every flag group, across refactors of that path.

Run from the repo root after an *intentional* change of output:

    PYTHONPATH=src python tests/golden/cli/regenerate.py

and commit the diff together with the change that caused it.
"""

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

CLI_DIR = Path(__file__).parent

TOY = ["--ues", "3", "--duration", "0.5"]
COMPARE = ["run", "--compare", "pf", "outran", "srjf", *TOY]

#: Output flag -> suffix of the stored copy of the file it writes.
STORED = {"--json": ".json", "--ric-report": ".ric-report.json",
          "--telemetry": ".telemetry.json"}

#: case name -> (argv, output flags whose file is stored with the stdout)
CASES = {
    "run-lte-default": (["run", *TOY], ("--json",)),
    "run-nr-mu3-mec": (["run", "--rat", "nr", "--mu", "3", "--mec", *TOY],
                       ("--json",)),
    "run-websearch": (["run", "--distribution", "websearch", *TOY],
                      ("--json",)),
    "run-am-lossy": (["run", "--rlc-mode", "am", "--bler", "0.1", *TOY],
                     ("--json",)),
    "run-dctcp-k30-incast": (["run", "--cc", "dctcp", "--ecn-k", "30",
                              "--workload", "incast", *TOY], ("--json",)),
    "run-rpc": (["run", "--workload", "rpc", *TOY], ("--json",)),
    # Long enough for a second segment, so the rebuffer line prints.
    "run-video": (["run", "--workload", "video", "--ues", "3",
                   "--duration", "1.5"], ("--json",)),
    "run-compare": (COMPARE, ("--json",)),
    "run-compare-jobs2": ([*COMPARE, "--jobs", "2"], ("--json",)),
    # Must equal run-lte-default byte for byte: a no-op xApp is invisible.
    "run-ric-noop": (["run", "--ric", "--ric-xapp", "noop", *TOY],
                     ("--json",)),
    "run-ric-hillclimb": (["run", "--ric", "--ric-period", "50", *TOY],
                          ("--json", "--ric-report")),
    # The snapshot is a function of the run: nothing in it is host time.
    "run-telemetry": (["run", "--rlc-mode", "am", "--bler", "0.1", *TOY],
                      ("--json", "--telemetry")),
    "explain-pf-outran": (["explain", "--scheduler", "pf", "outran", *TOY],
                          ("--json",)),
    "help-root": (["--help"], ()),
    "help-run": (["run", "--help"], ()),
    "help-sweep": (["sweep", "--help"], ()),
    "help-explain": (["explain", "--help"], ()),
    "help-serve": (["serve", "--help"], ()),
}


def run_case(name):
    """Run one case; returns ``{stored file name: text}``."""
    from repro.cli import main

    argv, outputs = CASES[name]
    stdout = io.StringIO()
    # argparse wraps help to the terminal width: pin it.
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, COLUMNS="80"):
        paths = {flag: Path(tmp) / f"out{STORED[flag]}" for flag in outputs}
        argv = list(argv)
        for flag, path in paths.items():
            argv += [flag, str(path)]
        with contextlib.redirect_stdout(stdout):
            try:
                code = main(argv)
            except SystemExit as exc:  # --help exits through argparse
                code = exc.code
        assert code == 0, f"{name}: exit {code}"
        files = {f"{name}.stdout.txt": stdout.getvalue()}
        for flag, path in paths.items():
            files[name + STORED[flag]] = path.read_text()
    return files


def main():
    for name in CASES:
        for filename, text in run_case(name).items():
            (CLI_DIR / filename).write_text(text)
            print(f"wrote tests/golden/cli/{filename} ({len(text)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
