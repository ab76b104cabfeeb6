"""Signal-processing substrate: windows, DFT, spectrograms, oscillograms, WAV I/O."""

from .dft import (
    bin_frequencies,
    complex_magnitude,
    dft,
    dft_records,
    frequency_band_indices,
    power_spectra,
    power_spectrum,
)
from .oscillogram import Oscillogram, envelope, oscillogram
from .spectrogram import Spectrogram, paa_spectrogram, spectrogram
from .wav import WavClip, pcm16_to_samples, read_wav, samples_to_pcm16, write_wav
from .window_functions import (
    apply_window,
    get_window,
    hamming_window,
    hann_window,
    rectangular_window,
    welch_window,
)

__all__ = [
    "Oscillogram",
    "Spectrogram",
    "WavClip",
    "apply_window",
    "bin_frequencies",
    "complex_magnitude",
    "dft",
    "dft_records",
    "envelope",
    "frequency_band_indices",
    "get_window",
    "hamming_window",
    "hann_window",
    "oscillogram",
    "paa_spectrogram",
    "pcm16_to_samples",
    "power_spectra",
    "power_spectrum",
    "read_wav",
    "rectangular_window",
    "samples_to_pcm16",
    "spectrogram",
    "welch_window",
    "write_wav",
]
