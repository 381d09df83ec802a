"""SplitMix64: the one home of the package's deterministic mixing function.

Every seeded random source in the reproduction — the workload and trace
generators, the scatter-allocating page table, the random replacement policy
on both engines and the SHARDS spatial-sampling hash — draws from the same
64-bit function, ``splitmix64(x)``.  It is counter based: the stateful
generator's n-th draw (1-based) is ``splitmix64(seed + (n - 1) * GAMMA)``, a
pure function of ``n``, so a whole stream can be computed in bulk with NumPy
and stay bit-exact with the scalar generator.

NumPy is imported inside the array functions only, so the scalar reference
path (trace generators, cache models, cpu simulator) stays importable
without it.
"""

from __future__ import annotations

__all__ = [
    "GAMMA",
    "splitmix64",
    "splitmix64_vec",
    "splitmix64_stream",
    "SplitMix64",
]

#: The golden-ratio increment of the SplitMix64 counter.
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """SplitMix64 of one integer: advance by ``GAMMA``, then finalize."""
    x = (x + GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def splitmix64_vec(x):
    """Elementwise :func:`splitmix64` of a ``uint64`` array (a new array)."""
    import numpy as np

    x = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = x + np.uint64(GAMMA)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX1)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX2)
    return x ^ (x >> np.uint64(31))


def splitmix64_stream(seed: int, count: int):
    """The first ``count`` draws of ``SplitMix64(seed)`` as a ``uint64`` array.

    Draw ``n`` (1-based) is ``splitmix64(seed + (n - 1) * GAMMA)``; the
    counter wraps modulo 2**64 exactly as the scalar generator's state does.
    """
    import numpy as np

    if count < 0:
        raise ValueError("count must be non-negative")
    counters = np.arange(count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        counters *= np.uint64(GAMMA)
        counters += np.uint64(seed & _MASK64)
    return splitmix64_vec(counters)


class SplitMix64:
    """Stateful SplitMix64 generator (no `random` module, fully seeded)."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next(self) -> int:
        state = self._state
        self._state = (state + GAMMA) & _MASK64
        return splitmix64(state)

    def below(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        # next() inlined: this is the per-access hot call of the scalar
        # trace and instruction generators.
        state = self._state
        self._state = (state + GAMMA) & _MASK64
        return splitmix64(state) % bound
