"""The cutter operator: turning trigger windows into ensembles.

``cutter`` reads the original acoustic signal alongside the trigger signal.
On a 0 -> 1 trigger transition it opens an ensemble; while the trigger stays
1 it forwards the original samples; on a 1 -> 0 transition it closes the
ensemble.  The emitted stream therefore contains only the samples recorded
during anomalous behaviour — the ensembles — which is where the paper's
~80 % data reduction comes from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Ensemble", "cut_ensembles"]


@dataclass(frozen=True)
class Ensemble:
    """One extracted ensemble: a contiguous run of anomalous samples."""

    samples: np.ndarray
    start: int
    end: int
    sample_rate: int
    #: Optional species label (attached by experiment harnesses, not by the cutter).
    label: str | None = None

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"ensemble must have positive length, got [{self.start}, {self.end})")

    @property
    def length(self) -> int:
        """Length in samples."""
        return self.end - self.start

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return self.length / float(self.sample_rate)

    def with_label(self, label: str) -> "Ensemble":
        """Return a copy carrying a species label."""
        return Ensemble(
            samples=self.samples,
            start=self.start,
            end=self.end,
            sample_rate=self.sample_rate,
            label=label,
        )


def cut_ensembles(
    signal: np.ndarray,
    trigger: np.ndarray,
    sample_rate: int,
    min_duration: int = 1,
) -> list[Ensemble]:
    """Cut ``signal`` into ensembles wherever ``trigger`` is high.

    Parameters
    ----------
    signal, trigger:
        Equal-length arrays; ``trigger`` holds 0/1 values.
    sample_rate:
        Sample rate recorded on the resulting ensembles.
    min_duration:
        Trigger-high runs shorter than this many samples are discarded
        (suppresses one-sample glitches).
    """
    sig = np.asarray(signal, dtype=float).ravel()
    trig = np.asarray(trigger).ravel()
    if sig.size != trig.size:
        raise ValueError(
            f"signal ({sig.size} samples) and trigger ({trig.size} samples) must align"
        )
    if min_duration < 1:
        raise ValueError(f"min_duration must be >= 1, got {min_duration}")
    if sig.size == 0:
        return []
    high = trig.astype(bool).astype(np.int8)
    edges = np.diff(np.concatenate(([0], high, [0])))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1)
    ensembles = []
    for start, end in zip(starts, ends):
        if end - start < min_duration:
            continue
        ensembles.append(
            Ensemble(samples=sig[start:end].copy(), start=int(start), end=int(end), sample_rate=sample_rate)
        )
    return ensembles
