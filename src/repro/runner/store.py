"""On-disk, content-hash-keyed store of completed simulation runs.

The store is a directory of pickled :class:`~repro.sim.metrics.SimResult`
payloads, keyed by :meth:`RunSpec.key() <repro.runner.spec.RunSpec.key>`
content hashes and sharded by the first two hex digits
(``<root>/ab/abcdef....pkl``) so no single directory grows unbounded.

Guarantees:

* **Atomic writes** -- payloads are written to a ``.tmp.<pid>`` sibling
  and ``os.replace``d into place, so a reader never sees a torn file and
  a worker killed mid-write leaves only a temp file, which the next
  sweep over the store removes (:meth:`ResultStore.sweep_temp`).
* **Corruption = miss** -- an unreadable or schema-mismatched entry is
  deleted and reported as a miss; the run is simply re-executed.
* **Cross-process sharing** -- several workers (or several sweeps) may
  read and write the same store concurrently; last write wins, and since
  keys are content hashes of fully-seeded specs, concurrent writers are
  writing identical results.

The payload pickles the *full* ``SimResult`` (collector included), not
its ``summary()``: figure regeneration needs exact per-flow records so a
store-served run renders byte-identically to a freshly simulated one.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.sim.metrics import SimResult

#: Bump when the pickled payload layout changes incompatibly.
STORE_SCHEMA = 4

_PAYLOAD_SUFFIX = ".pkl"


class ResultStore:
    """Directory-backed map from spec content hash to ``SimResult``."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.writes = 0

    # -- paths ---------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        if len(key) < 3 or not all(c in "0123456789abcdef" for c in key):
            raise ValueError(f"store keys are lowercase hex digests: {key!r}")
        return self.root / key[:2] / f"{key}{_PAYLOAD_SUFFIX}"

    # -- mapping interface ----------------------------------------------------

    def get(self, key: str) -> Optional[SimResult]:
        """Fetch a stored result; corrupt or alien entries count as misses."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Torn/corrupt/incompatible entry: drop it and re-simulate.
            self._discard(path)
            self.misses += 1
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != STORE_SCHEMA
            or not isinstance(payload.get("result"), SimResult)
        ):
            self._discard(path)
            self.misses += 1
            return None
        self.hits += 1
        return payload["result"]

    def put(self, key: str, result: SimResult) -> None:
        """Persist one result atomically (tmp file + rename)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f"{path.name}.tmp.{os.getpid()}"
        payload = {"schema": STORE_SCHEMA, "key": key, "result": result}
        try:
            with open(tmp, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                self._discard(tmp)
        self.writes += 1

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def keys(self) -> Iterator[str]:
        if not self.root.exists():
            return
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.glob(f"*{_PAYLOAD_SUFFIX}")):
                yield entry.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    # -- maintenance -----------------------------------------------------------

    def sweep_temp(self) -> int:
        """Delete the temp files of dead writers; return count.

        The suffix after ``.tmp.`` is the writer's pid.  A file whose
        writer is alive (a concurrent sweep sharing the store, about to
        ``os.replace`` it) or whose suffix is no pid is left alone.
        """
        removed = 0
        if not self.root.exists():
            return 0
        for tmp in self.root.glob("*/*.tmp.*"):
            if _is_dead_pid(tmp.name.rpartition(".")[2]):
                self._discard(tmp)
                removed += 1
        return removed

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses, "writes": self.writes}

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass


def _is_dead_pid(text: str) -> bool:
    """Whether ``text`` is the pid of a process that no longer exists."""
    try:
        pid = int(text)
        if pid <= 0:  # os.kill would address a process group
            return False
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (ValueError, OverflowError, OSError):  # no pid / alive, not ours
        pass
    return False


def as_store(store: Union[None, str, Path, ResultStore]) -> Optional[ResultStore]:
    """Coerce a path-or-store argument; ``None`` disables persistence."""
    if store is None or isinstance(store, ResultStore):
        return store
    return ResultStore(store)
