"""Setuptools configuration.

The repository has no ``pyproject.toml``: this file is the whole install
configuration, and setuptools discovers the ``repro`` package under
``src/``.  Install with ``pip install -e .``.

The C source of the compiled kernel tier (``repro/engine/_kernels.c``) ships
as package data; it is compiled on first use with the system ``cc`` and
loaded with ``ctypes`` (see ``repro.engine.cext``), so installing needs no
compiler and no build step.
"""

from setuptools import setup

setup(
    # The batch engine (repro.engine) and trace materialization
    # (repro.trace.batching) are NumPy-based; everything else is pure Python.
    install_requires=["numpy"],
    package_data={"repro.engine": ["_kernels.c"]},
)
