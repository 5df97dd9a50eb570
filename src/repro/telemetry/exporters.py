"""Snapshot serialization: JSON documents and Prometheus text exposition.

Both exporters consume the dict produced by
:meth:`repro.telemetry.registry.TelemetryRegistry.snapshot`; they never
touch live metric objects, so exporting is safe at any point of a run.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Optional, Union

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_]")
#: Prefix for every exposition-format metric family.
PROM_PREFIX = "repro"


def snapshot_to_json(
    snapshot: dict, path: Optional[Union[str, Path]] = None, indent: int = 2
) -> str:
    """Render a snapshot as a JSON document; optionally write it to disk."""
    text = json.dumps(snapshot, indent=indent, sort_keys=True)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text


def _prom_name(name: str) -> str:
    return f"{PROM_PREFIX}_{_NAME_SANITIZER.sub('_', name)}"


def _prom_value(value: float) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def snapshot_to_prometheus(
    snapshot: dict, path: Optional[Union[str, Path]] = None
) -> str:
    """Render a snapshot in the Prometheus text exposition format.

    Every counter and gauge becomes one ``# TYPE`` line and one sample.
    """
    lines: list[str] = []
    for name, value in snapshot.get("counters", {}).items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_prom_value(value)}")
    for name, value in snapshot.get("gauges", {}).items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_value(value)}")
    text = "\n".join(lines) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text
