"""Symbolic Aggregate approXimation (SAX).

SAX (Lin et al.) converts a Z-normalised, PAA-reduced sequence into a string
of symbols drawn from a fixed alphabet, choosing breakpoints so that — under
the assumption that time-series subsequences are Gaussian — every symbol
appears with equal probability.  The paper uses an alphabet of size 8 for
anomaly detection and shows an alphabet of 5 in its Figure 4 example.

Symbols are represented as integers ``0 .. alphabet-1`` (the paper also uses
integers), with 0 denoting the lowest-value band.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import norm

from .normalize import znormalize
from .paa import paa

__all__ = [
    "gaussian_breakpoints",
    "symbolize",
    "sax_transform",
]

_BREAKPOINT_CACHE: dict[int, np.ndarray] = {}


def gaussian_breakpoints(alphabet: int) -> np.ndarray:
    """Return the ``alphabet - 1`` breakpoints that equiprobably partition N(0,1).

    For alphabet size ``a`` the breakpoints are the quantiles
    ``Phi^-1(1/a), Phi^-1(2/a), ..., Phi^-1((a-1)/a)`` of the standard normal
    distribution, so that each of the ``a`` bands has probability ``1/a``.
    """
    if alphabet < 2:
        raise ValueError(f"alphabet size must be >= 2, got {alphabet}")
    cached = _BREAKPOINT_CACHE.get(alphabet)
    if cached is None:
        quantiles = np.arange(1, alphabet) / alphabet
        cached = norm.ppf(quantiles)
        _BREAKPOINT_CACHE[alphabet] = cached
    return cached.copy()


def symbolize(values: np.ndarray, alphabet: int) -> np.ndarray:
    """Map already-normalised values to integer SAX symbols.

    Each value is assigned the index of the Gaussian band it falls into:
    ``0`` for values below the first breakpoint up to ``alphabet - 1`` for
    values above the last.
    """
    arr = np.asarray(values, dtype=float)
    breakpoints = gaussian_breakpoints(alphabet)
    return np.searchsorted(breakpoints, arr, side="left").astype(np.int64)


def sax_transform(
    values: np.ndarray,
    segments: int | None = None,
    alphabet: int = 8,
    normalize: bool = True,
) -> np.ndarray:
    """Full SAX transform: Z-normalise, PAA-reduce, then symbolise.

    Parameters
    ----------
    values:
        Raw 1-D sequence.
    segments:
        Number of PAA segments; ``None`` keeps the original length (no PAA
        reduction), which is how the anomaly-detection path uses SAX.
    alphabet:
        Alphabet size (paper: 8).
    normalize:
        Set to False when the caller has already Z-normalised the sequence.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return np.zeros(0, dtype=np.int64)
    if normalize:
        arr = znormalize(arr)
    if segments is not None and segments != arr.size:
        arr = paa(arr, segments)
    return symbolize(arr, alphabet)
