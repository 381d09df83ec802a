"""Loader of the compiled kernel tier (``_kernels.c``).

The trace-order loops of the paper's 2-way caches and of the victim cache
also exist as C (:file:`_kernels.c`), which runs them ~20-65x faster than
the Python kernels of :mod:`repro.engine.skew_decompose`.  No build step or
extension package is involved: the first kernel call that wants the tier
compiles the source with the system C compiler (``cc -O2 -shared -fPIC``)
into a per-user cache directory and loads it with :mod:`ctypes`.

* The shared object is named by the sha256 of the source and the flags, so
  an edited source never loads a stale build, and lives under
  ``$XDG_CACHE_HOME/repro-cext`` (default ``~/.cache``), falling back to
  a per-user directory under the system temporary directory when that is
  not usable; a directory is used only if it is private to this user.
* It is compiled to a temporary file and moved into place with
  :func:`os.replace`, so concurrent sweep workers can race to build it
  safely: each sees either no file or a complete one.
* Importing this module is free: :mod:`ctypes`, :mod:`subprocess` and the
  build are deferred to the first :func:`kernels` call.

``REPRO_CEXT`` selects the tier: ``0`` forces the Python kernels, ``1``
requires the C tier (any failure to build or load raises
:class:`CExtError` with a one-line reason), unset uses the tier when it
builds and falls back to the Python kernels otherwise.  The choice never
changes a result, only the speed; :func:`kernel_tier` reports it.
"""

from __future__ import annotations

import os
import threading
from typing import Optional

__all__ = ["CExtError", "kernels", "kernel_tier"]

#: Environment variable selecting the tier ("0", "1" or unset).
ENV_VAR = "REPRO_CEXT"

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "_kernels.c")
_FLAGS = ("-O2", "-shared", "-fPIC")

#: Loaded library, or the one-line reason the tier is off; resolved once
#: per process, under the lock (thread-mode sweep workers share it).
_lib = None
_reason: Optional[str] = None
_lock = threading.Lock()


class CExtError(RuntimeError):
    """``REPRO_CEXT=1`` (or a bad ``REPRO_CEXT`` value) and no C tier."""


def _mode() -> str:
    value = os.environ.get(ENV_VAR, "").strip()
    if value not in ("", "0", "1"):
        raise CExtError(f"{ENV_VAR} must be 0, 1 or unset, got {value!r}")
    return value


def _cache_dirs():
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    import tempfile

    return (os.path.join(base, "repro-cext"),
            os.path.join(tempfile.gettempdir(), f"repro-cext-{os.getuid()}"))


def _build(target_name: str) -> str:
    """Compile the source into the first usable cache directory.

    A directory is used only if this user owns it and nobody else can
    write to it: the library found there is loaded into the process.
    """
    import subprocess
    import tempfile

    errors = []
    for directory in _cache_dirs():
        try:
            os.makedirs(directory, mode=0o700, exist_ok=True)
            info = os.stat(directory)
            if info.st_uid != os.getuid() or info.st_mode & 0o022:
                raise OSError("not a private directory")
            target = os.path.join(directory, target_name)
            if os.path.exists(target):
                return target
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
            os.close(fd)
        except OSError as exc:
            errors.append(f"{directory}: {exc.strerror or exc}")
            continue
        try:
            try:
                proc = subprocess.run(
                    ["cc", *_FLAGS, "-o", tmp, _SOURCE],
                    capture_output=True, text=True, timeout=120)
            except FileNotFoundError:
                raise CExtError("no C compiler ('cc' not found)") from None
            except subprocess.TimeoutExpired:
                raise CExtError("'cc' timed out") from None
            if proc.returncode != 0:
                first = (proc.stderr.strip().splitlines() or ["no output"])[0]
                raise CExtError(f"'cc' failed: {first}")
            os.replace(tmp, target)
            return target
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    raise CExtError("no usable cache directory (" + "; ".join(errors) + ")")


def _load():
    """Build (if needed) and load the library; raises CExtError."""
    import ctypes
    import hashlib

    try:
        with open(_SOURCE, "rb") as handle:
            source = handle.read()
    except OSError as exc:
        raise CExtError(f"cannot read {os.path.basename(_SOURCE)}: "
                        f"{exc.strerror or exc}") from None
    digest = hashlib.sha256(source + " ".join(_FLAGS).encode()).hexdigest()
    path = _build(f"_kernels-{digest[:16]}.so")
    try:
        lib = ctypes.CDLL(path)
    except OSError as exc:
        raise CExtError(f"cannot load {path}: {exc}") from None
    i64, ptr, c_int = ctypes.c_int64, ctypes.c_void_p, ctypes.c_int
    lib.two_way_run.argtypes = [i64, ptr, ptr, ptr, ptr, c_int, c_int,
                                ptr, ptr, ptr, ptr, ptr, ptr, ptr,
                                ctypes.c_uint64, ptr, ptr]
    lib.two_way_run.restype = None
    lib.victim_run.argtypes = [i64, ptr, ptr, ptr, c_int, ptr, ptr, ptr,
                               i64, ptr, ptr, ptr, ptr,
                               ctypes.c_uint64, ptr, ptr]
    lib.victim_run.restype = None
    return lib


def kernels():
    """The loaded C library, or ``None`` when the Python kernels run.

    Resolved once per process (the first call may compile the source).
    Raises :class:`CExtError` when ``REPRO_CEXT=1`` and the tier cannot be
    built or loaded, or when ``REPRO_CEXT`` has a value other than 0/1.
    """
    global _lib, _reason
    mode = _mode()
    if mode == "0":
        return None
    if _lib is None and _reason is None:
        with _lock:
            if _lib is None and _reason is None:
                try:
                    _lib = _load()
                except CExtError as exc:
                    _reason = str(exc)
    if _lib is None and mode == "1":
        raise CExtError(f"{ENV_VAR}=1 but the C kernel tier is "
                        f"unavailable: {_reason}")
    return _lib


def kernel_tier() -> str:
    """``"c"`` when the compiled kernels run, else ``"python: <reason>"``."""
    if _mode() == "0":
        return f"python: {ENV_VAR}=0"
    return "c" if kernels() is not None else f"python: {_reason}"
