"""The adaptive trigger operator.

The ``trigger`` operator transforms the smoothed anomaly score into a
discrete 0/1 signal.  It is adaptive: it incrementally estimates the mean
``mu0`` (and deviation) of the anomaly score *while the trigger is 0*, and
emits 1 whenever the score rises more than ``k`` standard deviations above
``mu0`` (the paper uses k = 5).  Because the baseline statistics are only
updated from low-trigger samples, loud events do not inflate the baseline.

A ``hangover`` extension keeps the trigger high for a configurable number of
samples after the score drops back below threshold, bridging the brief gaps
between syllables of a single vocalisation so one song is extracted as one
ensemble instead of many fragments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..config import TriggerConfig
from ..timeseries.windows import RunningStats

__all__ = ["AdaptiveTrigger"]

#: Scores converted to Python floats per pass of the scalar kernel, so the
#: transient list stays small however long the chunk is.
BLOCK = 4096


@dataclass
class AdaptiveTrigger:
    """Streaming adaptive trigger over an anomaly-score stream."""

    config: TriggerConfig = field(default_factory=TriggerConfig)
    #: Initial samples ignored entirely (overrides ``config.settle`` when set;
    #: the extractor derives it from the anomaly configuration).
    settle: int | None = None

    def __post_init__(self) -> None:
        self._baseline = RunningStats(forgetting=self.config.forgetting)
        self._state = 0
        self._hang_remaining = 0
        self._seen = 0
        self._settle = self.config.settle if self.settle is None else self.settle
        if self._settle < 0:
            raise ValueError(f"settle must be >= 0, got {self._settle}")

    @property
    def state(self) -> int:
        """Current trigger value (0 or 1)."""
        return self._state

    @property
    def baseline_mean(self) -> float:
        """Current estimate of the low-trigger mean anomaly score (mu0)."""
        return self._baseline.mean

    @property
    def baseline_std(self) -> float:
        """Current estimate of the low-trigger anomaly-score deviation."""
        return self._baseline.std

    def threshold(self) -> float:
        """The score level above which the trigger fires."""
        return self._baseline.mean + self.config.threshold_sigmas * self._baseline.std

    def update(self, score: float) -> int:
        """Push one anomaly score and return the trigger value (0 or 1)."""
        return int(self.apply((score,))[0])

    def apply(self, scores: np.ndarray) -> np.ndarray:
        """Run the trigger over a score array, returning 0/1 values.

        The recurrence is sequential (the baseline adapts only while the
        trigger is low), so it runs as one scalar loop over Python floats
        with the whole state in locals, ``BLOCK`` samples at a time.  The
        threshold and the baseline gate are recomputed only after a baseline
        update; ``math.sqrt`` rounds exactly like ``np.sqrt``, so the output
        and the final state do not depend on how the stream is chunked.
        """
        arr = np.asarray(scores, dtype=float).ravel()
        n = arr.size
        out = np.zeros(n, dtype=np.int8)
        # The score is still ramping up from the empty SAX windows and moving
        # average during the settle period: those samples are 0 and carry no
        # information about the baseline.
        skip = min(n, max(0, self._settle - self._seen))
        self._seen += n
        if skip == n:
            return out

        config = self.config
        k = config.threshold_sigmas
        gate = config.baseline_gate_sigmas
        hangover = config.hangover
        warmup = config.warmup
        baseline = self._baseline
        alpha = baseline.forgetting
        count, mean, m2 = baseline.count, baseline.mean, baseline._m2
        state, hang = self._state, self._hang_remaining
        sqrt, nan = math.sqrt, math.nan

        # Derived from the baseline, refreshed after each update: ``thr`` is
        # NaN (never exceeded) until the baseline is warmed with a positive
        # deviation; the gate applies once warmed unless the deviation is 0
        # (a NaN deviation fails it).
        std = baseline.std
        warmed = count >= warmup
        thr = mean + k * std if warmed and std > 0 else nan
        gated = gate is not None
        gate_on = gated and warmed and not std <= 0
        gate_thr = mean + gate * std if gate_on else nan

        run_start = skip
        for lo in range(skip, n, BLOCK):
            for i, x in enumerate(arr[lo : lo + BLOCK].tolist(), lo):
                if x > thr:
                    if not state:
                        state = 1
                        run_start = i
                    hang = hangover
                    continue
                if state:
                    if hang > 0:
                        hang -= 1
                        continue
                    state = 0
                    out[run_start:i] = 1
                if gate_on and not x <= gate_thr:
                    continue
                # Baseline adapts only while the trigger is low: the
                # arithmetic of RunningStats.update and .std, inlined.
                if alpha is None:
                    count += 1
                    delta = x - mean
                    mean += delta / count
                    m2 += delta * (x - mean)
                    var = m2 / count
                else:
                    if count == 0:
                        mean = x
                        m2 = 0.0
                    else:
                        delta = x - mean
                        mean += alpha * delta
                        m2 = (1.0 - alpha) * (m2 + alpha * delta * delta)
                    count += 1
                    var = m2
                std = sqrt(0.0 if var < 0.0 else var)
                if count >= warmup:
                    thr = mean + k * std if std > 0 else nan
                    gate_on = gated and not std <= 0
                    if gate_on:
                        gate_thr = mean + gate * std
        if state:
            out[run_start:] = 1

        baseline.count, baseline.mean, baseline._m2 = count, mean, m2
        self._state, self._hang_remaining = state, hang
        return out

    def reset(self) -> None:
        """Forget the baseline and return to the low state."""
        self.__post_init__()
