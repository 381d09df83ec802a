"""Tests for the shared SplitMix64 home (repro.core.splitmix)."""

import numpy as np
import pytest

from repro.cache.replacement import splitmix64 as replacement_splitmix64
from repro.core.splitmix import (
    GAMMA,
    SplitMix64,
    splitmix64,
    splitmix64_stream,
    splitmix64_vec,
)
from repro.engine.replacement_vec import splitmix64_array
from repro.engine.shards import hash_blocks
from repro.trace.generators import _SplitMix64

MASK64 = (1 << 64) - 1


def test_first_draw_of_seed_zero_is_the_published_value():
    assert SplitMix64(0).next() == 0xE220A8397B1DCDAF


@pytest.mark.parametrize("seed", [0, 1, 12345, 1 << 63, MASK64 - GAMMA,
                                  MASK64 - 3, MASK64])
def test_bulk_stream_equals_the_stateful_generator(seed):
    """The first 10k draws, including seeds whose counter wraps 2**64."""
    rng = _SplitMix64(seed)
    expected = [rng.next() for _ in range(10_000)]
    stream = splitmix64_stream(seed, 10_000)
    assert stream.dtype == np.uint64
    assert stream.tolist() == expected
    assert expected[:5] == [splitmix64((seed + n * GAMMA) & MASK64)
                            for n in range(5)]


def test_stream_edges():
    assert splitmix64_stream(5, 0).size == 0
    with pytest.raises(ValueError):
        splitmix64_stream(5, -1)
    assert splitmix64_stream(-1, 3).tolist() == \
        splitmix64_stream(MASK64, 3).tolist()


def test_vector_finalizer_matches_scalar():
    values = [0, 1, GAMMA, MASK64, MASK64 - GAMMA + 1, 1 << 63, 0xDEADBEEF]
    assert splitmix64_vec(np.array(values, dtype=np.uint64)).tolist() == \
        [splitmix64(v) for v in values]


def test_every_consumer_shares_one_function():
    assert replacement_splitmix64 is splitmix64
    assert _SplitMix64 is SplitMix64
    assert splitmix64_array(7, 3, 5).tolist() == \
        [splitmix64(7 + n) for n in range(3, 8)]
    blocks = np.array([0, 1, 2, 1 << 40], dtype=np.uint64)
    assert hash_blocks(blocks, seed=9).tolist() == \
        [splitmix64(int(b) ^ splitmix64(9)) for b in blocks]


def test_below_rejects_empty_range():
    with pytest.raises(ValueError):
        SplitMix64(1).below(0)
