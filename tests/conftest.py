"""Fixtures shared by the tier-1 suite."""

import pytest

from repro.mac import _ckernel


@pytest.fixture(params=["compiled", "fallthrough"])
def owner_kernel(request, monkeypatch):
    """Run the test with the compiled owner kernel, then without it.

    ``fallthrough`` is what a host without a C compiler executes:
    ``_ckernel.load`` answers ``None`` and every allocation takes the
    numpy references.
    """
    if request.param == "fallthrough":
        monkeypatch.setattr(_ckernel, "load", lambda: None)
    elif _ckernel.load() is None:
        pytest.skip("no C compiler: the owner kernel cannot be built here")
    return request.param
