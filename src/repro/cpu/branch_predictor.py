"""Branch prediction: a bimodal table of 2-bit saturating counters.

The paper's processor uses "a branch history table with 2K entries and 2-bit
saturating counters".  That is a classic bimodal predictor: the branch PC
selects a counter, the counter's most-significant bit gives the prediction,
and the counter moves towards the observed outcome by one step per branch.
"""

from __future__ import annotations

from typing import List

__all__ = ["BimodalBranchPredictor"]


class BimodalBranchPredictor:
    """2-bit saturating-counter branch history table."""

    def __init__(self, entries: int = 2048, initial_counter: int = 1) -> None:
        if entries < 1 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        if not 0 <= initial_counter <= 3:
            raise ValueError("initial_counter must be a 2-bit value")
        self._entries = entries
        self._mask = entries - 1
        self._initial_counter = initial_counter
        self._counters: List[int] = [initial_counter] * entries
        self.predictions = 0
        self.mispredictions = 0

    @property
    def entries(self) -> int:
        """Number of counters in the table."""
        return self._entries

    @property
    def initial_counter(self) -> int:
        """The 2-bit value every counter starts from (and returns to on reset)."""
        return self._initial_counter

    def _index(self, pc: int) -> int:
        # Instructions are word-aligned; drop the low two bits before hashing.
        return (pc >> 2) & self._mask

    def predict(self, pc: int) -> bool:
        """Predict the outcome of the branch at ``pc`` (True = taken)."""
        return self._counters[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> bool:
        """Record the real outcome; returns True when the prediction was correct."""
        index = self._index(pc)
        predicted_taken = self._counters[index] >= 2
        correct = predicted_taken == taken
        self.predictions += 1
        if not correct:
            self.mispredictions += 1
        counter = self._counters[index]
        if taken:
            self._counters[index] = min(3, counter + 1)
        else:
            self._counters[index] = max(0, counter - 1)
        return correct

    @property
    def misprediction_ratio(self) -> float:
        """Fraction of branches mispredicted so far."""
        return self.mispredictions / self.predictions if self.predictions else 0.0

    def reset(self) -> None:
        """Return every counter to ``initial_counter`` and clear statistics."""
        self._counters = [self._initial_counter] * self._entries
        self.predictions = 0
        self.mispredictions = 0
