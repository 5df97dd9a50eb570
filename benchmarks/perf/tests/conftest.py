"""Make the benchmark's modules and the uninstalled package importable."""

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parents[1]
for path in (PERF, PERF.parents[1] / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
