"""Piecewise Aggregate Approximation (PAA).

PAA (Keogh et al.; Yi & Faloutsos) reduces the dimensionality of a time
series by segmenting it into ``w`` equal-sized subsequences and replacing
each subsequence with its mean.  The paper uses PAA both to smooth
intra-signal variation in spectrogram columns (Figure 3) and to reduce
pattern dimensionality by a factor of 10 before classification (Section 3,
``paa`` operator).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["paa", "paa_records", "paa_by_factor", "paa_matrix"]


@lru_cache(maxsize=32)
def _fractional_weights(n: int, segments: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sparse (segment, sample, weight) triples for fractional PAA.

    Memoised per ``(n, segments)`` — a feature extractor asks for the same
    shape on every block — and returned read-only, so no caller can
    corrupt the shared copy.

    Sample ``j`` spans ``[j, j + 1)`` on the input axis; output segment
    ``seg`` spans ``[seg * n/segments, (seg + 1) * n/segments)``.  The triples
    are ordered segment-major with ascending sample index inside each
    segment — the order the historical double loop accumulated in.
    """
    seg_len = n / segments
    segs = np.arange(segments)
    starts = segs * seg_len
    ends = (segs + 1) * seg_len
    firsts = np.floor(starts).astype(np.int64)
    lasts = np.minimum(np.ceil(ends).astype(np.int64), n)
    counts = np.maximum(lasts - firsts, 0)
    seg_idx = np.repeat(segs, counts)
    offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    samples = np.repeat(firsts, counts) + offsets
    weights = np.minimum(ends[seg_idx], samples + 1) - np.maximum(starts[seg_idx], samples)
    keep = weights > 0
    triples = (seg_idx[keep], samples[keep], weights[keep])
    for array in triples:
        array.flags.writeable = False
    return triples


@lru_cache(maxsize=32)
def _fold_steps(n: int, segments: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Step ``k`` of the fractional fold: the segments that have a ``k``-th
    triple, and that triple's index into :func:`_fractional_weights`."""
    seg_idx = _fractional_weights(n, segments)[0]
    rank = np.arange(seg_idx.size) - np.searchsorted(seg_idx, seg_idx)
    steps = []
    for k in range(int(rank.max()) + 1):
        triples = np.flatnonzero(rank == k)
        steps.append((seg_idx[triples], triples))
    for pair in steps:
        for array in pair:
            array.flags.writeable = False
    return tuple(steps)


def _fractional_paa(arr: np.ndarray, segments: int) -> np.ndarray:
    """Fractional-frame PAA of every row of a contiguous 2-D block.

    Each segment's weighted samples are added one triple per step, starting
    from 0.0, in the double loop's order, so every segment mean is
    bit-identical to it; a step adds the ``k``-th triple of every segment
    (and every row) at once.
    """
    n = arr.shape[1]
    _, samples, weights = _fractional_weights(n, segments)
    products = arr[:, samples] * weights
    output = np.zeros((arr.shape[0], segments), dtype=float)
    for segs, triples in _fold_steps(n, segments):
        output[:, segs] += products[:, triples]
    return output / (n / segments)


def paa(values: np.ndarray, segments: int) -> np.ndarray:
    """Reduce ``values`` to ``segments`` mean values.

    When ``len(values)`` is not a multiple of ``segments`` the fractional
    frame assignment of Keogh et al. is used: each original sample
    contributes to the segment(s) it overlaps, weighted by the overlap.  This
    keeps every segment the same (fractional) length, so the PAA of a
    constant signal is constant and the overall mean is preserved.

    Parameters
    ----------
    values:
        1-D array-like of samples, length ``n``.
    segments:
        Number of output segments ``w``; must satisfy ``1 <= w <= n``.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"paa expects a 1-D sequence, got shape {arr.shape}")
    n = arr.size
    if segments < 1:
        raise ValueError(f"segments must be >= 1, got {segments}")
    if n == 0:
        raise ValueError("cannot compute PAA of an empty sequence")
    if segments > n:
        raise ValueError(f"segments ({segments}) cannot exceed sequence length ({n})")
    if segments == n:
        return arr.copy()
    if n % segments == 0:
        return arr.reshape(segments, n // segments).mean(axis=1)
    # Fractional frame assignment: sample j spans [j, j+1) on a length-n axis
    # rescaled so each output segment spans exactly n/segments input units.
    return _fractional_paa(arr[None, :], segments)[0]


def paa_records(records: np.ndarray, segments: int) -> np.ndarray:
    """Apply PAA to every row of a 2-D block in one vectorised call.

    ``records`` is ``(n_records, n)``; the result is ``(n_records,
    segments)`` with row ``i`` bit-identical to ``paa(records[i],
    segments)``.  Used by the batched feature-extraction and spectrogram
    kernels so a whole block of records is reduced without a per-row Python
    loop.
    """
    # Contiguity matters for bit-identity, not just speed: numpy only applies
    # pairwise summation to unit-stride reductions, so reducing a strided
    # view (e.g. a transposed spectrogram or a band cut-out) would round
    # differently than the 1-D path, which always copies via `reshape`.
    arr = np.ascontiguousarray(records, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"paa_records expects a 2-D block, got shape {arr.shape}")
    n = arr.shape[1]
    if segments < 1:
        raise ValueError(f"segments must be >= 1, got {segments}")
    if n == 0:
        raise ValueError("cannot compute PAA of empty records")
    if segments > n:
        raise ValueError(f"segments ({segments}) cannot exceed record length ({n})")
    if segments == n:
        return arr.copy()
    if n % segments == 0:
        return arr.reshape(arr.shape[0], segments, n // segments).mean(axis=2)
    return _fractional_paa(arr, segments)


def paa_by_factor(values: np.ndarray, factor: int) -> np.ndarray:
    """Reduce ``values`` by an integer ``factor`` (the paper reduces by 10).

    The number of output segments is ``ceil(len(values) / factor)`` so that no
    input sample is dropped.  For inputs shorter than ``factor`` the output is
    the single overall mean.
    """
    arr = np.asarray(values, dtype=float)
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if arr.size == 0:
        raise ValueError("cannot reduce an empty sequence")
    segments = max(1, int(np.ceil(arr.size / factor)))
    return paa(arr, segments)


def paa_matrix(matrix: np.ndarray, segments: int, axis: int = 0) -> np.ndarray:
    """Apply PAA independently along one axis of a 2-D array.

    The paper constructs the PAA spectrogram of Figure 3 by applying PAA to
    the frequency data of each spectrogram column; that corresponds to
    ``axis=0`` on a (frequency x time) matrix.
    """
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"paa_matrix expects a 2-D array, got shape {arr.shape}")
    if axis not in (0, 1):
        raise ValueError(f"axis must be 0 or 1, got {axis}")
    if axis == 1:
        return paa_matrix(arr.T, segments, axis=0).T
    # One vectorised call over all columns instead of a per-column list;
    # each column is bit-identical to `paa(arr[:, col], segments)`.
    return paa_records(arr.T, segments).T
