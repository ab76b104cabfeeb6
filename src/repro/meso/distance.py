"""Distance metrics available to MESO.

MESO clusters patterns with a pluggable metric; Euclidean distance is the
default used in the paper's experiments.  :data:`METRICS` maps each metric's
name to its function.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..timeseries.distance import euclidean, manhattan, normalized_euclidean

__all__ = ["METRICS"]

MetricFn = Callable[[np.ndarray, np.ndarray], float]

METRICS: dict[str, MetricFn] = {
    "euclidean": euclidean,
    "manhattan": manhattan,
    "normalized_euclidean": normalized_euclidean,
}
