"""Unit tests for the synthetic acoustic substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dsp import complex_magnitude, dft
from repro.synth import (
    SPECIES,
    SPECIES_CODES,
    ClipBuilder,
    CorpusSpec,
    Vocalization,
    amplitude_envelope,
    build_corpus,
    buzz,
    coo,
    drum,
    get_species,
    hum,
    mix,
    pink_noise,
    tone,
    trill,
    whistle,
    white_noise,
    wind_noise,
)

SAMPLE_RATE = 16000


def dominant_frequency(samples: np.ndarray, sample_rate: float = SAMPLE_RATE) -> float:
    """Frequency of the strongest DFT bin of a waveform."""
    spectrum = complex_magnitude(dft(samples))
    freqs = np.arange(spectrum.size) * sample_rate / samples.size
    return float(freqs[np.argmax(spectrum)])


class TestSyllables:
    def test_envelope_shape(self):
        env = amplitude_envelope(100, attack=0.2, release=0.3)
        assert env[0] < 0.05
        assert env[-1] < 0.05
        assert env[50] == pytest.approx(1.0)
        assert env.max() <= 1.0

    def test_envelope_invalid_fractions(self):
        with pytest.raises(ValueError):
            amplitude_envelope(100, attack=0.7, release=0.5)

    def test_tone_dominant_frequency(self):
        wave = tone(0.5, SAMPLE_RATE, 3000.0)
        assert abs(dominant_frequency(wave) - 3000.0) < 20.0

    def test_tone_sweep_covers_band(self):
        wave = tone(0.5, SAMPLE_RATE, 2000.0, 4000.0, harmonics=1)
        spectrum = complex_magnitude(dft(wave))
        freqs = np.arange(spectrum.size) * SAMPLE_RATE / wave.size
        band_energy = spectrum[(freqs > 1900) & (freqs < 4100)].sum()
        assert band_energy > 0.8 * spectrum.sum()

    def test_whistle_in_range(self):
        wave = whistle(0.3, SAMPLE_RATE, 1900.0, vibrato_hz=25.0, vibrato_depth=0.05)
        assert np.max(np.abs(wave)) <= 1.0
        assert abs(dominant_frequency(wave) - 1900.0) < 150.0

    def test_trill_bandwidth_exceeds_pure_tone(self):
        pure = tone(0.5, SAMPLE_RATE, 3200.0)
        modulated = trill(0.5, SAMPLE_RATE, 3200.0, rate_hz=40.0, depth_hz=700.0)

        def bandwidth(wave):
            spectrum = complex_magnitude(dft(wave))
            freqs = np.arange(spectrum.size) * SAMPLE_RATE / wave.size
            power = spectrum**2
            mean = np.sum(freqs * power) / np.sum(power)
            return np.sqrt(np.sum(power * (freqs - mean) ** 2) / np.sum(power))

        assert bandwidth(modulated) > 2 * bandwidth(pure)

    def test_buzz_is_centred_on_carrier(self, rng):
        wave = buzz(0.3, SAMPLE_RATE, 3000.0, 900.0, rng)
        assert abs(dominant_frequency(wave) - 3000.0) < 500.0

    def test_drum_is_pulsed(self, rng):
        wave = drum(0.5, SAMPLE_RATE, strike_rate_hz=16.0, rng=rng)
        # Count amplitude bursts: the envelope should rise and fall repeatedly.
        energy = np.abs(wave) > 0.3
        transitions = np.count_nonzero(np.diff(energy.astype(int)) == 1)
        assert transitions >= 5

    def test_coo_is_low_pitched(self):
        wave = coo(0.5, SAMPLE_RATE, frequency=880.0)
        assert dominant_frequency(wave) < 1300.0

    def test_durations(self):
        wave = tone(0.25, SAMPLE_RATE, 2000.0)
        assert wave.size == int(0.25 * SAMPLE_RATE)

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            tone(0.0, SAMPLE_RATE, 2000.0)


class TestSpecies:
    def test_all_ten_species_defined(self):
        assert len(SPECIES) == 10
        assert len(set(SPECIES_CODES)) == 10

    def test_lookup_by_code(self):
        assert get_species("noca").code == "NOCA"
        with pytest.raises(KeyError):
            get_species("XXXX")

    @pytest.mark.parametrize("code", SPECIES_CODES)
    def test_every_species_renders_nonempty_song(self, code, rng):
        song = get_species(code).render(SAMPLE_RATE, rng)
        assert song.size > 0
        assert np.max(np.abs(song)) <= 1.0 + 1e-9
        assert np.max(np.abs(song)) > 0.1

    def test_renditions_vary_within_species(self, rng):
        model = get_species("NOCA")
        a = model.render(SAMPLE_RATE, rng)
        b = model.render(SAMPLE_RATE, rng)
        assert a.size != b.size or not np.allclose(a, b)

    def test_species_differ_spectrally(self, rng):
        """The dove's coo must sit far below the goldfinch's warble."""
        modo = get_species("MODO").render(SAMPLE_RATE, rng)
        amgo = get_species("AMGO").render(SAMPLE_RATE, rng)
        assert dominant_frequency(modo) < 2000.0
        assert dominant_frequency(amgo) > 2500.0

    def test_rendering_is_deterministic_for_same_seed(self):
        model = get_species("TUTI")
        a = model.render(SAMPLE_RATE, np.random.default_rng(5))
        b = model.render(SAMPLE_RATE, np.random.default_rng(5))
        np.testing.assert_allclose(a, b)


class TestNoise:
    def test_white_noise_statistics(self, rng):
        noise = white_noise(20000, rng, amplitude=1.0)
        assert abs(noise.mean()) < 0.02
        assert 0.2 < noise.std() < 0.5

    def test_pink_noise_low_frequency_dominance(self, rng):
        noise = pink_noise(16384, rng)
        spectrum = complex_magnitude(dft(noise))
        low = spectrum[1:100].mean()
        high = spectrum[4000:8000].mean()
        assert low > 3 * high

    def test_wind_noise_band_limited(self, rng):
        noise = wind_noise(32768, SAMPLE_RATE, rng)
        spectrum = complex_magnitude(dft(noise))
        freqs = np.arange(spectrum.size) * SAMPLE_RATE / noise.size
        in_band = spectrum[(freqs > 20) & (freqs < 600)].sum()
        above = spectrum[freqs > 2000].sum()
        assert in_band > 5 * above

    def test_hum_has_harmonic_structure(self):
        noise = hum(16384, SAMPLE_RATE, fundamental_hz=60.0, harmonics=3)
        spectrum = complex_magnitude(dft(noise))
        freqs = np.arange(spectrum.size) * SAMPLE_RATE / noise.size
        fundamental_bin = np.argmin(np.abs(freqs - 60.0))
        assert spectrum[fundamental_bin] > 0.1 * spectrum.max()

    def test_mix_pads_shorter_signals(self):
        mixed = mix(np.ones(5), np.ones(10))
        assert mixed.size == 10
        assert mixed[0] == 2.0
        assert mixed[-1] == 1.0

    def test_zero_length(self, rng):
        assert white_noise(0, rng).size == 0
        assert pink_noise(0, rng).size == 0


class TestClips:
    def test_clip_contains_ground_truth(self, rng):
        builder = ClipBuilder(sample_rate=SAMPLE_RATE, duration=8.0)
        clip = builder.build("RWBL", rng, songs_per_species=2)
        assert clip.sample_rate == SAMPLE_RATE
        assert clip.samples.size == int(8.0 * SAMPLE_RATE)
        assert 1 <= len(clip.vocalizations) <= 2
        for voc in clip.vocalizations:
            assert voc.species == "RWBL"
            assert 0 <= voc.start < voc.end <= clip.samples.size

    def test_vocalizations_do_not_overlap(self, rng):
        builder = ClipBuilder(sample_rate=SAMPLE_RATE, duration=20.0)
        clip = builder.build(["NOCA", "TUTI"], rng, songs_per_species=2)
        ordered = sorted(clip.vocalizations, key=lambda v: v.start)
        for first, second in zip(ordered, ordered[1:]):
            assert first.end <= second.start

    def test_song_region_is_louder_than_noise(self, rng):
        builder = ClipBuilder(sample_rate=SAMPLE_RATE, duration=10.0, noise_level=0.05)
        clip = builder.build("BLJA", rng, songs_per_species=1)
        assert clip.vocalizations, "expected at least one placed song"
        voc = clip.vocalizations[0]
        song_rms = np.sqrt(np.mean(clip.samples[voc.start : voc.end] ** 2))
        noise_rms = np.sqrt(np.mean(clip.samples[: max(voc.start, 1000)] ** 2)) if voc.start > 1000 else None
        if noise_rms is not None:
            assert song_rms > 2 * noise_rms

    def test_empty_species_list_gives_noise_only_clip(self, rng):
        clip = ClipBuilder(sample_rate=SAMPLE_RATE, duration=3.0).build([], rng)
        assert clip.vocalizations == []
        assert clip.voiced_fraction() == 0.0

    def test_samples_bounded(self, rng):
        clip = ClipBuilder(sample_rate=SAMPLE_RATE, duration=5.0).build(
            ["NOCA", "BCCH", "BLJA"], rng, songs_per_species=2
        )
        assert np.max(np.abs(clip.samples)) <= 1.0 + 1e-9

    def test_vocalization_overlap_helper(self):
        voc = Vocalization(species="NOCA", start=100, end=200)
        assert voc.overlaps(150, 250)
        assert voc.overlaps(50, 101)
        assert not voc.overlaps(200, 300)
        assert voc.length == 100


class TestCorpus:
    def test_corpus_counts(self):
        spec = CorpusSpec(
            species=("NOCA", "MODO"), clips_per_species=3, songs_per_clip=1,
            clip_duration=4.0, sample_rate=8000, seed=1,
        )
        corpus = build_corpus(spec)
        assert len(corpus) == 6
        assert corpus.species_counts() == {"NOCA": 3, "MODO": 3}
        assert corpus.total_duration == pytest.approx(24.0)

    def test_corpus_deterministic(self):
        spec = CorpusSpec(species=("TUTI",), clips_per_species=2, clip_duration=3.0, sample_rate=8000, seed=7)
        a = build_corpus(spec)
        b = build_corpus(spec)
        np.testing.assert_allclose(a.clips[1].samples, b.clips[1].samples)

    def test_clips_for_species(self):
        spec = CorpusSpec(species=("NOCA", "MODO"), clips_per_species=2, clip_duration=3.0, sample_rate=8000)
        corpus = build_corpus(spec)
        assert len(corpus.clips_for("NOCA")) == 2

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            CorpusSpec(clips_per_species=0)
        with pytest.raises(ValueError):
            CorpusSpec(species=())

    def test_spec_and_overrides_are_exclusive(self):
        with pytest.raises(TypeError):
            build_corpus(CorpusSpec(), clips_per_species=1)
