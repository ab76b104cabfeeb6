"""Z-normalisation of time series.

The paper (Section 2) Z-normalises a sequence ``Q`` before PAA/SAX
conversion::

    q_i = (q_i - mu) / sigma

where ``mu`` is the vector mean of the original signal and ``sigma`` the
corresponding standard deviation.  Z-normalisation equalises acoustic
patterns that differ only in signal strength.
"""

from __future__ import annotations

import numpy as np

__all__ = ["znormalize"]

#: Sequences whose standard deviation falls below this value are treated as
#: constant; normalising them would amplify numerical noise into spurious
#: structure, so they are mapped to all-zeros instead.
DEFAULT_EPSILON = 1e-12


def znormalize(values: np.ndarray, epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """Return the Z-normalised copy of ``values``.

    Parameters
    ----------
    values:
        One-dimensional array-like of samples.
    epsilon:
        Standard deviations smaller than this are treated as zero, and the
        result is an all-zero vector of the same length (a constant signal
        carries no shape information).

    Returns
    -------
    numpy.ndarray
        Array of the same length with zero mean and unit variance (unless the
        input was constant).
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"znormalize expects a 1-D sequence, got shape {arr.shape}")
    if arr.size == 0:
        return arr.copy()
    mu = arr.mean()
    sigma = arr.std()
    # Treat the signal as constant when its spread is negligible either in
    # absolute terms or relative to its magnitude; dividing by such a sigma
    # only amplifies floating-point cancellation noise into fake structure.
    if sigma < epsilon or sigma < 1e-9 * np.max(np.abs(arr)):
        return np.zeros_like(arr)
    return (arr - mu) / sigma
