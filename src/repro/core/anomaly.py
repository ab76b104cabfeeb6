"""SAX-bitmap anomaly scoring (the ``saxanomaly`` operator).

The scorer converts the incoming amplitude stream into SAX symbols, counts
symbol n-grams in two adjacent windows — a *lag* window summarising the
recent past and a *lead* window summarising the present — and reports the
Euclidean distance between the two normalised n-gram frequency matrices as
the anomaly score.  A moving average over the score (paper: 2250 samples)
turns isolated spikes into a window of anomalous behaviour that the trigger
and cutter operators can act on.

:func:`sax_anomaly_scores` is the whole-clip form: it Z-normalises against
the entire signal, which is what ``normalization="global"`` on
:class:`~repro.pipeline.ExtractStage` runs and what the experiment tables
are pinned to.  The chunk-invariant form every streaming path runs is
:class:`repro.pipeline.streaming.ChunkedAnomalyScorer`.
"""

from __future__ import annotations

import numpy as np

from ..config import AnomalyConfig
from ..timeseries.bitmap import windowed_code_counts
from ..timeseries.normalize import znormalize
from ..timeseries.sax import symbolize
from ..timeseries.windows import moving_average

__all__ = ["sax_anomaly_scores"]


def sax_anomaly_scores(
    signal: np.ndarray,
    config: AnomalyConfig | None = None,
    hop: int = 1,
    smooth: bool = True,
) -> np.ndarray:
    """Anomaly score for every sample of ``signal``.

    Parameters
    ----------
    signal:
        Raw amplitude samples.
    config:
        Anomaly parameters (window, alphabet, n-gram level, smoothing).
    hop:
        Evaluate the score every ``hop`` samples and hold it constant in
        between.  ``hop=1`` scores every sample; larger hops trade boundary
        resolution (a few milliseconds of audio) for substantial speed-ups
        on long clips.
    smooth:
        Apply the configured moving-average smoothing to the score.

    Returns
    -------
    numpy.ndarray
        Array with the same length as ``signal``.  Samples seen before both
        windows are full score 0.
    """
    config = config or AnomalyConfig()
    if hop < 1:
        raise ValueError(f"hop must be >= 1, got {hop}")
    arr = np.asarray(signal, dtype=float).ravel()
    n = arr.size
    window = config.window
    lag_window = config.lag_window
    if n < window + lag_window + config.level:
        return np.zeros(n)

    symbols = symbolize(znormalize(arr), config.alphabet)
    level = config.level
    gram_count = n - level + 1
    # Encode each n-gram as a base-`alphabet` integer code.
    codes = np.zeros(gram_count, dtype=np.int64)
    for offset in range(level):
        codes = codes * config.alphabet + symbols[offset : offset + gram_count]

    # Score is defined at sample i (0-based) when the lead window covers
    # grams [i - window + 1, i] and the lag window the `lag_window` grams
    # before that; the earliest such i is window + lag_window - 1 (in gram
    # indices).
    first = window + lag_window - 1
    eval_points = np.arange(first, gram_count, hop)
    if eval_points.size == 0:
        return np.zeros(n)

    # Gram-code counts of both windows at every eval boundary in one
    # vectorised difference-array pass — the same kernel the chunked
    # streaming scorer uses, integer-exact.
    n_codes = config.alphabet**level
    lead_starts = eval_points - window + 1
    lag_starts = eval_points - window - lag_window + 1
    ends = eval_points + 1
    lead_counts, lag_counts = windowed_code_counts(
        codes, ends, lead_starts, lag_starts, n_codes, hop=hop
    )

    lead_freq = lead_counts / window
    lag_freq = lag_counts / lag_window
    eval_scores = np.sqrt(np.sum((lead_freq - lag_freq) ** 2, axis=1))

    scores = np.zeros(n)
    # Hold each evaluated score until the next evaluation point.
    expanded = np.repeat(eval_scores, hop)[: n - first]
    scores[first : first + expanded.size] = expanded
    if expanded.size < n - first:
        scores[first + expanded.size :] = eval_scores[-1]
    if smooth:
        scores = moving_average(scores, config.smooth_window)
    return scores
