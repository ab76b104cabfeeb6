"""Discrete Fourier transform helpers.

Mirrors the ``float2cplx`` / ``dft`` / ``cabs`` pipeline segment of the
paper: real records are transformed and reduced to their complex magnitude
(power spectrum).  :func:`frequency_band_indices` selects the bins of the
[1.2 kHz, 9.6 kHz] band that carries most bird-song energy (the ``cutout``
step, applied by :class:`~repro.classify.features.PatternExtractor`).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dft",
    "dft_records",
    "complex_magnitude",
    "power_spectrum",
    "power_spectra",
    "bin_frequencies",
    "frequency_band_indices",
]


def dft(values: np.ndarray) -> np.ndarray:
    """Discrete Fourier transform of a (real or complex) record.

    Only the non-negative-frequency half of the spectrum is returned
    (``length // 2 + 1`` bins), since the input records are real-valued audio
    and the negative half is redundant.  Real input goes through the
    real-input transform (``np.fft.rfft``), which computes only the bins that
    are kept — half the work of the full complex transform the negative bins
    of which were discarded anyway.  Complex input keeps the historical
    full-transform-then-slice behaviour.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"dft expects a 1-D record, got shape {arr.shape}")
    if arr.size == 0:
        return np.zeros(0, dtype=np.complex128)
    if np.iscomplexobj(arr):
        spectrum = np.fft.fft(arr.astype(np.complex128))
        return spectrum[: arr.size // 2 + 1]
    return np.fft.rfft(arr.astype(float))


def dft_records(records: np.ndarray) -> np.ndarray:
    """DFT of a whole block of equal-length real records in one call.

    ``records`` is a 2-D ``(n_records, record_length)`` array; the result is
    ``(n_records, record_length // 2 + 1)``.  Row ``i`` is bit-identical to
    ``dft(records[i])`` — pocketfft applies the same 1-D real transform along
    the last axis — so batch and per-record paths are interchangeable.
    """
    arr = np.asarray(records, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"dft_records expects a 2-D block, got shape {arr.shape}")
    if arr.shape[1] == 0:
        return np.zeros((arr.shape[0], 0), dtype=np.complex128)
    return np.fft.rfft(arr, axis=-1)


def complex_magnitude(values: np.ndarray) -> np.ndarray:
    """Complex absolute value of each element (the ``cabs`` operator)."""
    return np.abs(np.asarray(values, dtype=np.complex128)).astype(float)


def power_spectrum(values: np.ndarray, window: np.ndarray | None = None) -> np.ndarray:
    """Magnitude spectrum of one record, optionally windowed first."""
    arr = np.asarray(values, dtype=float)
    if window is not None:
        window = np.asarray(window, dtype=float)
        if window.shape != arr.shape:
            raise ValueError(
                f"window length {window.size} does not match record length {arr.size}"
            )
        arr = arr * window
    return complex_magnitude(dft(arr))


def power_spectra(records: np.ndarray, window: np.ndarray | None = None) -> np.ndarray:
    """Magnitude spectra of a block of records, optionally windowed first.

    The batched counterpart of :func:`power_spectrum`: one FFT call for the
    whole ``(n_records, record_length)`` block, each row bit-identical to the
    per-record path.
    """
    arr = np.asarray(records, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"power_spectra expects a 2-D block, got shape {arr.shape}")
    if window is not None:
        window = np.asarray(window, dtype=float)
        if window.shape != (arr.shape[1],):
            raise ValueError(
                f"window length {window.size} does not match record length {arr.shape[1]}"
            )
        arr = arr * window
    return complex_magnitude(dft_records(arr))


def bin_frequencies(record_length: int, sample_rate: float) -> np.ndarray:
    """Centre frequency (Hz) of each non-negative DFT bin for a record."""
    if record_length < 1:
        raise ValueError(f"record_length must be >= 1, got {record_length}")
    if sample_rate <= 0:
        raise ValueError(f"sample_rate must be positive, got {sample_rate}")
    bins = record_length // 2 + 1
    return np.arange(bins) * (sample_rate / record_length)


def frequency_band_indices(
    record_length: int, sample_rate: float, low_hz: float, high_hz: float
) -> np.ndarray:
    """Indices of the DFT bins whose centre frequency lies in [low_hz, high_hz]."""
    if low_hz > high_hz:
        raise ValueError(f"low_hz ({low_hz}) must not exceed high_hz ({high_hz})")
    freqs = bin_frequencies(record_length, sample_rate)
    return np.nonzero((freqs >= low_hz) & (freqs <= high_hz))[0]
