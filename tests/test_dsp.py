"""Unit tests for the signal-processing substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dsp import (
    apply_window,
    bin_frequencies,
    complex_magnitude,
    dft,
    envelope,
    frequency_band_indices,
    get_window,
    hamming_window,
    hann_window,
    oscillogram,
    paa_spectrogram,
    pcm16_to_samples,
    power_spectrum,
    read_wav,
    rectangular_window,
    samples_to_pcm16,
    spectrogram,
    welch_window,
    write_wav,
)


class TestWindowFunctions:
    def test_welch_window_shape_and_endpoints(self):
        window = welch_window(65)
        assert window.size == 65
        assert window[0] == pytest.approx(0.0)
        assert window[-1] == pytest.approx(0.0)
        assert window[32] == pytest.approx(1.0)

    def test_hann_window_midpoint(self):
        window = hann_window(101)
        assert window[50] == pytest.approx(1.0)
        assert window[0] == pytest.approx(0.0)

    def test_hamming_window_never_zero(self):
        assert hamming_window(64).min() > 0.05

    def test_rectangular_window_is_ones(self):
        np.testing.assert_allclose(rectangular_window(10), 1.0)

    def test_get_window_unknown_name(self):
        with pytest.raises(ValueError):
            get_window("kaiser", 32)

    def test_apply_window_length_mismatch_safe(self, rng):
        values = rng.normal(size=33)
        tapered = apply_window(values, "welch")
        assert tapered.size == values.size
        assert abs(tapered[0]) < 1e-12

    def test_single_point_window(self):
        assert welch_window(1)[0] == 1.0
        assert hann_window(1)[0] == 1.0


class TestDft:
    def test_pure_tone_peaks_at_expected_bin(self):
        sample_rate = 8000
        n = 1024
        t = np.arange(n) / sample_rate
        tone = np.sin(2 * np.pi * 1000.0 * t)
        spectrum = complex_magnitude(dft(tone))
        freqs = bin_frequencies(n, sample_rate)
        peak_freq = freqs[np.argmax(spectrum)]
        assert abs(peak_freq - 1000.0) < freqs[1]

    def test_dft_output_length(self):
        assert dft(np.zeros(256)).size == 129
        assert dft(np.zeros(255)).size == 128

    def test_power_spectrum_with_window(self, rng):
        samples = rng.normal(size=128)
        spectrum = power_spectrum(samples, welch_window(128))
        assert spectrum.size == 65
        assert np.all(spectrum >= 0)

    def test_power_spectrum_window_mismatch(self, rng):
        with pytest.raises(ValueError):
            power_spectrum(rng.normal(size=64), welch_window(65))

    def test_frequency_band_indices(self):
        indices = frequency_band_indices(512, 16000, 1200.0, 6400.0)
        freqs = bin_frequencies(512, 16000)
        assert np.all(freqs[indices] >= 1200.0)
        assert np.all(freqs[indices] <= 6400.0)
        assert indices.size > 0

    def test_cutout_band_invalid_range(self):
        with pytest.raises(ValueError):
            frequency_band_indices(512, 16000, 5000.0, 1000.0)


class TestSpectrogram:
    def test_shape_and_axes(self, rng):
        samples = rng.normal(size=16000)
        spec = spectrogram(samples, 16000, frame_size=512)
        bins, frames = spec.shape
        assert bins == 257
        assert frames == (16000 - 512) // 256 + 1
        assert spec.frequencies[0] == 0.0
        assert spec.frequencies[-1] == pytest.approx(8000.0)
        assert spec.times[0] > 0

    def test_tone_concentrates_energy_in_correct_row(self):
        sample_rate = 16000
        t = np.arange(sample_rate) / sample_rate
        tone = np.sin(2 * np.pi * 2500.0 * t)
        spec = spectrogram(tone, sample_rate, frame_size=512)
        row = np.argmax(spec.magnitudes.mean(axis=1))
        assert abs(spec.frequencies[row] - 2500.0) < 40.0

    def test_band_restriction(self, rng):
        spec = spectrogram(rng.normal(size=8000), 16000, frame_size=256)
        banded = spec.band(1000.0, 4000.0)
        assert banded.frequencies.min() >= 1000.0
        assert banded.frequencies.max() <= 4000.0
        assert banded.magnitudes.shape[1] == spec.magnitudes.shape[1]

    def test_paa_spectrogram_reduces_rows(self, rng):
        spec = spectrogram(rng.normal(size=8000), 16000, frame_size=256)
        reduced = paa_spectrogram(spec, segments=16)
        assert reduced.magnitudes.shape == (16, spec.magnitudes.shape[1])
        assert reduced.frequencies.size == 16

    def test_too_short_signal_gives_empty_spectrogram(self):
        spec = spectrogram(np.zeros(100), 16000, frame_size=256)
        assert spec.magnitudes.shape[1] == 0


class TestOscillogram:
    def test_amplitude_normalised_to_unit_peak(self, rng):
        samples = 0.2 * rng.normal(size=1000) + 0.7
        osc = oscillogram(samples, 16000)
        assert np.max(np.abs(osc.amplitudes)) == pytest.approx(1.0)
        assert abs(osc.amplitudes.mean()) < 0.2
        assert osc.times[-1] == pytest.approx((1000 - 1) / 16000)

    def test_silent_signal(self):
        osc = oscillogram(np.zeros(100), 8000)
        assert np.all(osc.amplitudes == 0)

    def test_envelope_detects_burst(self):
        samples = np.zeros(4096)
        samples[2048:2304] = 1.0
        env = envelope(samples, window=256)
        assert env.argmax() in (8, 9)


class TestWav:
    def test_roundtrip_mono(self, tmp_path, rng):
        samples = np.clip(rng.normal(scale=0.3, size=8000), -1, 1)
        path = tmp_path / "clip.wav"
        write_wav(path, samples, 16000)
        clip = read_wav(path)
        assert clip.sample_rate == 16000
        assert clip.samples.shape == samples.shape
        np.testing.assert_allclose(clip.samples, samples, atol=1.0 / 32000)

    def test_roundtrip_stereo(self, tmp_path, rng):
        samples = np.clip(rng.normal(scale=0.3, size=(2, 4000)), -1, 1)
        path = tmp_path / "stereo.wav"
        write_wav(path, samples, 22050)
        clip = read_wav(path)
        assert clip.channels == 2
        assert clip.samples.shape == samples.shape
        np.testing.assert_allclose(clip.samples, samples, atol=1.0 / 32000)

    def test_duration_property(self, tmp_path):
        path = tmp_path / "d.wav"
        write_wav(path, np.zeros(32000), 16000)
        assert read_wav(path).duration == pytest.approx(2.0)

    def test_rejects_garbage_file(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"this is not a wav file at all")
        with pytest.raises(ValueError):
            read_wav(path)

    def test_clipping_is_applied(self, tmp_path):
        path = tmp_path / "loud.wav"
        write_wav(path, np.array([2.0, -2.0, 0.5]), 8000)
        clip = read_wav(path)
        assert clip.samples[0] == pytest.approx(1.0, abs=1e-4)
        assert clip.samples[1] == pytest.approx(-1.0, abs=1e-4)


class TestWavRoundTrips:
    """WAV I/O invariants: dtype preservation, odd lengths, exactness."""

    def test_pcm16_round_trip_is_exact_and_preserves_dtype(self):
        pcm = np.array([-32767, -1, 0, 1, 32767, 12345], dtype="<i2")
        back = samples_to_pcm16(pcm16_to_samples(pcm))
        assert back.dtype == np.dtype("<i2")
        np.testing.assert_array_equal(back, pcm)

    def test_read_returns_float_samples(self, tmp_path, rng):
        path = tmp_path / "f.wav"
        write_wav(path, rng.uniform(-1, 1, size=64), 8000)
        clip = read_wav(path)
        assert clip.samples.dtype == np.float64
        assert np.abs(clip.samples).max() <= 1.0

    def test_odd_length_mono_round_trip(self, tmp_path, rng):
        samples = rng.uniform(-0.9, 0.9, size=1001)
        path = tmp_path / "odd.wav"
        write_wav(path, samples, 16000)
        clip = read_wav(path)
        assert clip.samples.size == 1001
        np.testing.assert_allclose(clip.samples, samples, atol=1.0 / 32000)

    def test_odd_frame_count_stereo_round_trip(self, tmp_path, rng):
        samples = rng.uniform(-0.9, 0.9, size=(2, 333))
        path = tmp_path / "odd_stereo.wav"
        write_wav(path, samples, 22050)
        clip = read_wav(path)
        assert clip.channels == 2
        assert clip.samples.shape == (2, 333)
        np.testing.assert_allclose(clip.samples, samples, atol=1.0 / 32000)

    def test_single_sample_clip(self, tmp_path):
        path = tmp_path / "one.wav"
        write_wav(path, np.array([0.25]), 8000)
        clip = read_wav(path)
        assert clip.samples.size == 1
        assert clip.samples[0] == pytest.approx(0.25, abs=1e-4)
