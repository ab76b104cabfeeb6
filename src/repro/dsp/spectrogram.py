"""Spectrograms (Figures 2 and 3 of the paper).

A spectrogram plots frequency (vertical) against time (horizontal) with
shading for intensity.  :func:`spectrogram` computes the short-time Fourier
transform magnitude matrix; :func:`paa_spectrogram` applies PAA to every
column, which is how the paper produces its Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..timeseries.paa import paa, paa_records
from .dft import bin_frequencies, complex_magnitude, dft_records
from .window_functions import get_window

__all__ = ["Spectrogram", "spectrogram", "paa_spectrogram"]


@dataclass(frozen=True)
class Spectrogram:
    """A computed spectrogram.

    Attributes
    ----------
    magnitudes:
        2-D array of shape (frequency bins, frames).
    frequencies:
        Centre frequency of each row, in Hz.
    times:
        Centre time of each column, in seconds.
    sample_rate:
        Sample rate of the source signal, in Hz.
    """

    magnitudes: np.ndarray
    frequencies: np.ndarray
    times: np.ndarray
    sample_rate: float

    @property
    def shape(self) -> tuple[int, int]:
        return self.magnitudes.shape

    def band(self, low_hz: float, high_hz: float) -> "Spectrogram":
        """Restrict the spectrogram to rows whose frequency lies in a band."""
        mask = (self.frequencies >= low_hz) & (self.frequencies <= high_hz)
        return Spectrogram(
            magnitudes=self.magnitudes[mask, :],
            frequencies=self.frequencies[mask],
            times=self.times.copy(),
            sample_rate=self.sample_rate,
        )


def spectrogram(
    samples: np.ndarray,
    sample_rate: float,
    frame_size: int = 512,
    hop: int | None = None,
    window: str = "welch",
) -> Spectrogram:
    """Short-time Fourier transform magnitude spectrogram.

    Parameters
    ----------
    samples:
        1-D audio samples.
    sample_rate:
        Samples per second.
    frame_size:
        Samples per analysis frame.
    hop:
        Samples between frame starts; defaults to ``frame_size // 2`` (50 %
        overlap, matching the ``reslice`` behaviour of the pipeline).
    window:
        Name of the tapering window (see :mod:`repro.dsp.window_functions`).
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"spectrogram expects a 1-D signal, got shape {arr.shape}")
    if frame_size < 2:
        raise ValueError(f"frame_size must be >= 2, got {frame_size}")
    if sample_rate <= 0:
        raise ValueError(f"sample_rate must be positive, got {sample_rate}")
    hop = frame_size // 2 if hop is None else hop
    if hop < 1:
        raise ValueError(f"hop must be >= 1, got {hop}")
    taper = get_window(window, frame_size)
    if arr.size < frame_size:
        bins = frame_size // 2 + 1
        magnitudes = np.zeros((bins, 0))
        times_arr = np.zeros(0)
    else:
        # One strided view over all frames, one FFT call for the whole block:
        # each row of the batched transform is bit-identical to the
        # per-frame transform, so the vectorisation is purely a speed-up.
        frames = np.lib.stride_tricks.sliding_window_view(arr, frame_size)[::hop]
        magnitudes = complex_magnitude(dft_records(frames * taper)).T
        starts = np.arange(frames.shape[0]) * hop
        times_arr = (starts + frame_size / 2.0) / sample_rate
    return Spectrogram(
        magnitudes=magnitudes,
        frequencies=bin_frequencies(frame_size, sample_rate),
        times=times_arr,
        sample_rate=float(sample_rate),
    )


def paa_spectrogram(spec: Spectrogram, segments: int) -> Spectrogram:
    """Reduce every spectrogram column to ``segments`` PAA values (Figure 3).

    The frequency axis of the result carries the mean frequency of each PAA
    band so the reduced spectrogram can still be plotted against Hz.
    """
    if spec.magnitudes.shape[1] == 0:
        return Spectrogram(
            magnitudes=np.zeros((segments, 0)),
            frequencies=paa(spec.frequencies, segments) if spec.frequencies.size >= segments else spec.frequencies,
            times=spec.times.copy(),
            sample_rate=spec.sample_rate,
        )
    # One vectorised call reduces every column at once; each output column is
    # bit-identical to `paa(spec.magnitudes[:, col], segments)`.
    return Spectrogram(
        magnitudes=paa_records(spec.magnitudes.T, segments).T,
        frequencies=paa(spec.frequencies, segments),
        times=spec.times.copy(),
        sample_rate=spec.sample_rate,
    )
