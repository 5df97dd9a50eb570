"""The compiled owner kernel on the default path: engaged, and optional.

``tests/test_kernels_properties.py`` and the golden replay hold the
kernel's *answers* to the references; a kernel that silently never runs
(an F-ordered metric, a dtype mismatch) gives the same answers, so
engagement is pinned here by counting calls into the loaded library.
The loader's failure modes all sit under a plain ``repro run`` now:
each must leave ``load()`` answering ``None`` without a warning and the
run reproducing the stored golden output through the references.
"""

import json
import warnings

import pytest

from repro.mac import _ckernel
from repro.sim.config import SimConfig
from repro.sim.session import SimulationSession
from tests.golden.regenerate import GOLDEN_DIR, run_case


def _kernel_calls_per_allocation(scheduler, entry_point, monkeypatch):
    lib = _ckernel.load()
    if lib is None:
        pytest.skip("no C compiler: the owner kernel cannot be built here")
    calls = {"kernel": 0, "allocate": 0}
    kernel = getattr(lib, entry_point)

    def counting_kernel(*args):
        calls["kernel"] += 1
        return kernel(*args)

    monkeypatch.setattr(lib, entry_point, counting_kernel)
    session = SimulationSession.from_config(
        SimConfig.lte_default(num_ues=4, load=0.5, seed=7), scheduler,
        duration_s=0.3,
    )
    allocate = session.sim.scheduler.allocate

    def counting_allocate(*args):
        calls["allocate"] += 1
        return allocate(*args)

    # The xNodeB allocates exactly once per backlogged TTI.
    session.sim.scheduler.allocate = counting_allocate
    session.start().finish()
    assert calls["allocate"] > 0
    assert calls["kernel"] >= calls["allocate"]


def test_default_session_runs_the_compiled_kernel(monkeypatch):
    _kernel_calls_per_allocation("outran", "repro_epsilon_owner", monkeypatch)


def test_qos_session_runs_the_compiled_kernel(monkeypatch):
    """Fed the xNodeB's table, PSS builds a C-ordered metric like PF does."""
    _kernel_calls_per_allocation("pss", "repro_plain_owner", monkeypatch)


def _missing_compiler(monkeypatch, tmp_path):
    monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))


def _unwritable_cache(monkeypatch, tmp_path):
    # A regular file where the cache root should be: mkdir fails for
    # every user, root included.
    blocker = tmp_path / "cache"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))


def _truncated_library(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    # Built but never dlopen'ed here: truncating a mapped file is SIGBUS.
    cached = _ckernel._compile(_ckernel._SOURCE.read_text())
    if cached is None:
        pytest.skip("no C compiler: nothing cached to truncate")
    cached.write_bytes(cached.read_bytes()[:100])


@pytest.mark.parametrize(
    "break_loader", [_missing_compiler, _unwritable_cache, _truncated_library]
)
def test_loader_failure_falls_through_silently(break_loader, monkeypatch, tmp_path):
    break_loader(monkeypatch, tmp_path)
    monkeypatch.setattr(_ckernel, "_LIB", ())  # forget the process-wide load
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _ckernel.load() is None
        replay = run_case("lte-outran-um-clean")
    golden = json.loads((GOLDEN_DIR / "lte-outran-um-clean.json").read_text())
    assert replay["summary"] == golden["summary"]
    assert replay["fcts_ms"] == golden["fcts_ms"]
