"""SAX bitmaps (time-series bitmaps of Kumar et al.).

A SAX bitmap counts the occurrences of symbolic subsequences (n-grams) of a
fixed level ``n`` within a SAX word, arranged in an ``alphabet**n`` frequency
table and normalised by the total number of subsequences.  Comparing the
bitmaps of two adjacent windows with Euclidean distance yields an anomaly
score; the paper uses this score to detect the onset of bird vocalisations
and other acoustic events (Section 2 and 3).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sax_bitmap",
    "bitmap_distance",
    "windowed_code_counts",
]


def sax_bitmap(symbols: np.ndarray, alphabet: int, level: int = 2) -> np.ndarray:
    """Build the normalised n-gram frequency matrix of a SAX word.

    Parameters
    ----------
    symbols:
        Integer SAX symbols in ``[0, alphabet)``.
    alphabet:
        Alphabet size the symbols were drawn from.
    level:
        Subsequence length ``n`` (1, 2 or 3 in Kumar et al.; the anomaly
        scorer defaults to 2).

    Returns
    -------
    numpy.ndarray
        A flattened array of length ``alphabet ** level`` whose entries sum
        to 1 (or an all-zero array when the word is shorter than ``level``).
    """
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    if alphabet < 2:
        raise ValueError(f"alphabet size must be >= 2, got {alphabet}")
    word = np.asarray(symbols, dtype=np.int64)
    if word.size and (word.min() < 0 or word.max() >= alphabet):
        raise ValueError("symbols out of range for the declared alphabet")
    counts = np.zeros(alphabet**level, dtype=float)
    total = word.size - level + 1
    if total <= 0:
        return counts
    # Encode each n-gram as a base-`alphabet` integer index.
    index = np.zeros(total, dtype=np.int64)
    for offset in range(level):
        index = index * alphabet + word[offset : offset + total]
    np.add.at(counts, index, 1.0)
    return counts / total


def windowed_code_counts(
    codes: np.ndarray,
    ends: np.ndarray,
    lead_starts: np.ndarray,
    lag_starts: np.ndarray,
    n_codes: int,
    hop: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-window gram counts for the lead/lag windows of many eval points.

    For each evaluation point ``i`` the lead window covers
    ``codes[lead_starts[i]:ends[i]]`` and the lag window
    ``codes[lag_starts[i]:lead_starts[i]]`` — the two adjacent windows of
    the anomaly scorer, counted for every evaluation point at once.  Returns ``(lead_counts, lag_counts)``
    as C-contiguous float arrays of shape ``(len(ends), n_codes)``,
    bit-identical to accumulating each window one gram at a time.

    The kernel is the vectorised form of sliding a pair of gram-count
    windows along the stream: because the boundary arrays are sorted, each gram position belongs to a *contiguous
    run* of evaluation windows, so one ``+1``/``-1`` difference table over
    ``(code, eval)`` — cumulative-summed along the eval axis — reproduces
    every window's counts.  The table rows each net to zero (every ``+1``
    is matched by a ``-1`` in the same row), which lets a single flat
    cumulative sum serve as the per-row prefix sum with no per-row loop.
    All counting is integer arithmetic, so the result is exactly what
    per-gram accumulation produces.

    Parameters
    ----------
    codes:
        1-D integer code sequence, each value in ``[0, n_codes)``.
    ends, lead_starts, lag_starts:
        Sorted (non-decreasing) window boundaries with
        ``lag_starts <= lead_starts <= ends`` elementwise.  Boundaries may
        extend past either end of ``codes``; out-of-range portions of a
        window simply count nothing.
    n_codes:
        Size of the code space (``alphabet ** level``).
    hop:
        When the three boundary arrays are arithmetic grids with this
        common positive step (the scorers evaluate every ``hop`` samples),
        passing it skips both grid detection and the per-position binary
        search — the run of windows containing a gram follows from integer
        division.  Pass ``None`` for arbitrary sorted boundaries.
    """
    code_arr = np.asarray(codes, dtype=np.int64)
    ends_arr = np.asarray(ends, dtype=np.int64)
    lead_arr = np.asarray(lead_starts, dtype=np.int64)
    lag_arr = np.asarray(lag_starts, dtype=np.int64)
    k = ends_arr.size
    n = code_arr.size
    if k == 0 or n == 0:
        return np.zeros((k, n_codes)), np.zeros((k, n_codes))

    if hop is None and k >= 2:
        step = int(ends_arr[1] - ends_arr[0])
        if (
            step > 0
            and np.all(np.diff(ends_arr) == step)
            and np.all(np.diff(lead_arr) == step)
            and np.all(np.diff(lag_arr) == step)
        ):
            hop = step

    if hop is not None and k >= 1:
        # Grid fast path: window i of each family starts/ends at
        # ``base + i * hop``, so the first/last window containing gram
        # position p is an integer division away.  One division serves all
        # three boundary families; the other two differ only by a constant
        # shift, folded into a ``hop``-entry lookup table on the remainder.
        lead_width = int(ends_arr[0] - lead_arr[0])
        lag_width = int(lead_arr[0] - lag_arr[0])
        q = np.arange(n, dtype=np.int64) - int(lead_arr[0])
        r = q // hop
        rem = q - r * hop
        # Last window with lead_starts[i] <= p  (shared by both families).
        mid_hi = r
        # First window with ends[i] > p:  r + 1 + (rem - lead_width) // hop.
        lead_lo = r + 1 + ((np.arange(hop) - lead_width) // hop)[rem]
        # Last window with lag_starts[i] <= p:  r + (rem + lag_width) // hop.
        lag_hi = r + ((np.arange(hop) + lag_width) // hop)[rem]
    else:
        p = np.arange(n, dtype=np.int64)
        mid_hi = np.searchsorted(lead_arr, p, side="right") - 1
        lead_lo = np.searchsorted(ends_arr, p, side="right")
        lag_hi = np.searchsorted(lag_arr, p, side="right") - 1

    # Gram p lies in lead windows [lead_lo, mid_hi] and lag windows
    # [mid_hi + 1, lag_hi]; clamp to the window range and drop empty runs.
    width = k + 1
    lo1 = np.maximum(lead_lo, 0)
    hi1 = np.minimum(mid_hi, k - 1)
    lo2 = np.maximum(mid_hi + 1, 0)
    hi2 = np.minimum(lag_hi, k - 1)
    in1 = lo1 <= hi1
    in2 = lo2 <= hi2
    size = n_codes * width
    base = code_arr * width
    plus = np.concatenate([base[in1] + lo1[in1], size + base[in2] + lo2[in2]])
    minus = np.concatenate([base[in1] + hi1[in1] + 1, size + base[in2] + hi2[in2] + 1])
    table = np.bincount(plus, minlength=2 * size)
    table -= np.bincount(minus, minlength=2 * size)
    cum = np.cumsum(table).reshape(2, n_codes, width)
    lead_counts = np.ascontiguousarray(cum[0, :, :k].T, dtype=float)
    lag_counts = np.ascontiguousarray(cum[1, :, :k].T, dtype=float)
    return lead_counts, lag_counts


def bitmap_distance(bitmap_a: np.ndarray, bitmap_b: np.ndarray) -> float:
    """Euclidean distance between two normalised bitmaps (the anomaly score)."""
    a = np.asarray(bitmap_a, dtype=float).ravel()
    b = np.asarray(bitmap_b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError(f"bitmaps must have equal shape, got {a.shape} and {b.shape}")
    return float(np.sqrt(np.sum((a - b) ** 2)))
