"""Distance measures used throughout the reproduction.

Euclidean distance is the workhorse (MESO spheres, bitmap anomaly scores,
motif and discord search); the module also provides the Manhattan and
normalised-Euclidean variants listed in :data:`repro.meso.METRICS`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["euclidean", "manhattan", "normalized_euclidean"]


def _as_vectors(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    va = np.asarray(a, dtype=float).ravel()
    vb = np.asarray(b, dtype=float).ravel()
    if va.shape != vb.shape:
        raise ValueError(f"vectors must have equal length, got {va.size} and {vb.size}")
    return va, vb


def euclidean(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean (L2) distance between two vectors."""
    va, vb = _as_vectors(a, b)
    return float(np.sqrt(np.sum((va - vb) ** 2)))


def manhattan(a: np.ndarray, b: np.ndarray) -> float:
    """Manhattan (L1) distance between two vectors."""
    va, vb = _as_vectors(a, b)
    return float(np.sum(np.abs(va - vb)))


def normalized_euclidean(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance divided by the square root of the dimensionality.

    Makes distances comparable between the 1050-feature raw patterns and the
    105-feature PAA patterns used in the paper's experiments.
    """
    va, vb = _as_vectors(a, b)
    if va.size == 0:
        return 0.0
    return float(np.sqrt(np.sum((va - vb) ** 2) / va.size))
