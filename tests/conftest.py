"""Shared fixtures: run a test under each kernel tier of the engine."""

import os

import pytest

from repro.cpu.processor import OutOfOrderProcessor
from repro.engine import cext

#: The two implementations of the 2-way, victim-cache and pipeline loops.
KERNEL_TIERS = ("c", "python")

_compiled = {}


def _load_compiled():
    """The C tier's library regardless of ``REPRO_CEXT``, or ``None``;
    fails the calling test when ``REPRO_CEXT=1`` demands the tier."""
    if "lib" not in _compiled:
        try:
            _compiled["lib"] = cext._load()
        except cext.CExtError as exc:
            _compiled["lib"] = None
            _compiled["reason"] = str(exc)
    if (_compiled["lib"] is None
            and os.environ.get(cext.ENV_VAR, "").strip() == "1"):
        pytest.fail(f"C kernel tier required: {_compiled['reason']}")
    return _compiled["lib"]


def compiled_kernels():
    """The C tier's library, loaded regardless of ``REPRO_CEXT``.

    Skips the calling test when no C compiler is available, unless
    ``REPRO_CEXT=1`` demands the tier (then the build error fails it).
    """
    lib = _load_compiled()
    if lib is None:
        pytest.skip(f"C kernel tier unavailable: {_compiled['reason']}")
    return lib


@pytest.fixture(params=KERNEL_TIERS)
def forced_tier(request, monkeypatch):
    """Parametrize a test over both kernel tiers, forced in-process by
    pointing the engine's loader at one of them."""
    lib = compiled_kernels() if request.param == "c" else None
    monkeypatch.setattr(cext, "kernels", lambda: lib)
    return request.param


@pytest.fixture
def pipeline_tiers(monkeypatch):
    """The pipeline tiers a CPU differential test compares, for
    :func:`repro.cpu.fuzzer.run_differential`: ``("python", "c")`` with
    the C tier forced on in-process, or ``("python",)`` when it cannot be
    built (the Python side still runs)."""
    lib = _load_compiled()
    if lib is None:
        return ("python",)
    monkeypatch.setattr(cext, "kernels", lambda: lib)
    return ("python", "c")


@pytest.fixture
def pipeline_tiers_seen(monkeypatch):
    """``OutOfOrderProcessor.tier`` after each run during the test."""
    seen = []
    run = OutOfOrderProcessor.run

    def recording_run(self, *args, **kwargs):
        try:
            return run(self, *args, **kwargs)
        finally:
            seen.append(self.tier)

    monkeypatch.setattr(OutOfOrderProcessor, "run", recording_run)
    return seen


def assert_pipeline_tier(seen, engine, tier):
    """Every pipeline run (``pipeline_tiers_seen``) ran on the loop it
    should under ``forced_tier``: the compiled one serves the vectorized
    engine on the C tier, and only it."""
    assert seen
    if engine == "vectorized" and tier == "c":
        assert set(seen) == {"c"}
    elif engine == "vectorized":
        assert all(ran.startswith("python: ") for ran in seen)
    else:
        assert set(seen) == {"python: reference index engine"}
