"""Lazy build/load of the compiled owner kernels (ctypes + system cc).

The C source (``_owner_kernel.c``) is compiled once into a cache
directory keyed by a hash of the source, so rebuilds happen only when
the source changes and parallel test workers race benignly (atomic
rename).  Every failure mode -- no compiler, sandboxed filesystem,
broken toolchain, torn cached library -- makes :func:`load` return
``None`` and :mod:`repro.mac.kernels` fall through to the readable
numpy references; correctness never depends on this module.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
from pathlib import Path
from typing import Optional

__all__ = ["load", "MAX_RBS"]

_SOURCE = Path(__file__).with_name("_owner_kernel.c")

#: Largest RB grid the C kernels handle (their per-RB scratch is
#: stack-allocated); the dispatcher falls through to numpy beyond it.
MAX_RBS = 512

#: tri-state cache: unset / failed (None) / loaded library
_LIB: object = ()


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME")
    base = Path(root) if root else Path.home() / ".cache"
    return base / "repro-kernels"


def _compile(source: str) -> Optional[Path]:
    digest = hashlib.sha256(source.encode()).hexdigest()[:16]
    cache = _cache_dir()
    so_path = cache / f"owner_kernel_{digest}.so"
    if so_path.exists():
        return so_path
    # A cache miss is the only path that needs the compiler tooling.
    import subprocess
    import tempfile

    try:
        cache.mkdir(parents=True, exist_ok=True)
        with tempfile.NamedTemporaryFile(
            suffix=".so", dir=cache, delete=False
        ) as tmp:
            tmp_path = Path(tmp.name)
        cc = os.environ.get("CC", "cc")
        # NOTE: no -ffast-math / -funsafe-math-optimizations -- the
        # byte-identity contract requires strict IEEE-754 semantics.
        cmd = [cc, "-O2", "-fPIC", "-shared", str(_SOURCE), "-o", str(tmp_path), "-lm"]
        subprocess.run(cmd, check=True, capture_output=True, timeout=120)
        tmp_path.replace(so_path)
        return so_path
    except Exception:
        try:
            tmp_path.unlink(missing_ok=True)
        except Exception:
            pass
        return None


def _load_uncached() -> Optional[ctypes.CDLL]:
    try:
        source = _SOURCE.read_text()
    except OSError:
        return None
    so_path = _compile(source)
    if so_path is None:
        return None
    try:
        lib = ctypes.CDLL(str(so_path))
    except OSError:
        return None
    # Raw pointers on purpose: ndpointer's per-call validation costs
    # more than the kernels themselves at TTI-loop sizes.  The dispatch
    # in repro.mac.kernels checks dtype/contiguity before calling.
    ptr = ctypes.c_void_p
    i64 = ctypes.c_int64
    lib.repro_plain_owner.argtypes = [ptr, ptr, i64, i64, ptr]
    lib.repro_plain_owner.restype = None
    lib.repro_epsilon_owner.argtypes = [
        ptr, ptr, ptr, ctypes.c_double, i64, i64, ptr
    ]
    lib.repro_epsilon_owner.restype = None
    return lib


def load() -> Optional[ctypes.CDLL]:
    """The compiled kernel library, or None when unavailable."""
    global _LIB
    if _LIB == ():
        _LIB = _load_uncached()
    return _LIB  # type: ignore[return-value]
