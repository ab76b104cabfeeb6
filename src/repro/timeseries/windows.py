"""Moving averages and streaming statistics.

The extraction pipeline smooths the SAX anomaly score with a moving average
(paper: window of 2250 samples) and the adaptive trigger maintains running
estimates of the baseline mean and deviation.  These helpers implement those
primitives in a streaming-friendly way (O(1) per sample, bounded memory).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["moving_average", "RunningStats"]


def moving_average(values: np.ndarray, width: int) -> np.ndarray:
    """Trailing moving average with a warm-up ramp.

    The i-th output is the mean of the last ``min(i + 1, width)`` samples, so
    the output has the same length as the input and no look-ahead — matching
    what a streaming operator can actually compute.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"moving_average expects a 1-D sequence, got shape {arr.shape}")
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if arr.size == 0:
        return arr.copy()
    cumulative = np.cumsum(arr)
    result = np.empty_like(arr)
    head = min(width, arr.size)
    result[:head] = cumulative[:head] / (np.arange(head) + 1)
    if arr.size > width:
        result[width:] = (cumulative[width:] - cumulative[:-width]) / width
    return result


@dataclass
class RunningStats:
    """Welford online mean / variance, optionally with exponential forgetting.

    With ``forgetting=None`` this is the exact running mean and (population)
    standard deviation of everything observed.  With a forgetting factor in
    (0, 1] the estimate adapts to drift, which mirrors the "incrementally
    computes an estimate of the mean anomaly score" behaviour of the paper's
    adaptive trigger.  ``AdaptiveTrigger.apply`` inlines :meth:`update` and
    :attr:`std` in its scalar loop: a change here must be made there too.
    """

    forgetting: float | None = None
    count: int = 0
    mean: float = 0.0
    _m2: float = 0.0

    def update(self, value: float) -> None:
        value = float(value)
        if self.forgetting is None:
            self.count += 1
            delta = value - self.mean
            self.mean += delta / self.count
            self._m2 += delta * (value - self.mean)
        else:
            alpha = self.forgetting
            if self.count == 0:
                self.mean = value
                self._m2 = 0.0
            else:
                delta = value - self.mean
                self.mean += alpha * delta
                self._m2 = (1.0 - alpha) * (self._m2 + alpha * delta * delta)
            self.count += 1

    @property
    def variance(self) -> float:
        if self.count == 0:
            return 0.0
        if self.forgetting is None:
            return self._m2 / self.count
        return self._m2

    @property
    def std(self) -> float:
        return math.sqrt(max(self.variance, 0.0))

    def reset(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
