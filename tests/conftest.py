"""Shared fixtures: run a test under each kernel tier of the batch engine."""

import os

import pytest

from repro.engine import cext

#: The two implementations of the 2-way and victim-cache loops.
KERNEL_TIERS = ("c", "python")

_compiled = {}


def compiled_kernels():
    """The C tier's library, loaded regardless of ``REPRO_CEXT``.

    Skips the calling test when no C compiler is available, unless
    ``REPRO_CEXT=1`` demands the tier (then the build error fails it).
    """
    if "lib" not in _compiled:
        try:
            _compiled["lib"] = cext._load()
        except cext.CExtError as exc:
            _compiled["lib"] = None
            _compiled["reason"] = str(exc)
    if _compiled["lib"] is None:
        if os.environ.get(cext.ENV_VAR, "").strip() == "1":
            pytest.fail(f"C kernel tier required: {_compiled['reason']}")
        pytest.skip(f"C kernel tier unavailable: {_compiled['reason']}")
    return _compiled["lib"]


@pytest.fixture(params=KERNEL_TIERS)
def forced_tier(request, monkeypatch):
    """Parametrize a test over both kernel tiers, forced in-process by
    pointing the engine's loader at one of them."""
    lib = compiled_kernels() if request.param == "c" else None
    monkeypatch.setattr(cext, "kernels", lambda: lib)
    return request.param
