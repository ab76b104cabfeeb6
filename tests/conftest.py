"""Shared fixtures for the test suite.

Expensive artefacts (clips, extracted ensembles, experiment data) are built
once per session at a deliberately small scale so the whole suite stays
fast while still exercising the real pipeline end to end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import AcousticPipeline, ClipBuilder, FAST_EXTRACTION
from repro.experiments.datasets import TEST_SCALE, build_experiment_data


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic random generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def session_rng() -> np.random.Generator:
    return np.random.default_rng(2007)


@pytest.fixture(scope="session")
def small_clip(session_rng):
    """A short clip containing two cardinal songs over the standard noise floor."""
    builder = ClipBuilder(sample_rate=16000, duration=10.0)
    return builder.build("NOCA", session_rng, songs_per_species=2, station_id="test-station")


@pytest.fixture(scope="session")
def quiet_clip(session_rng):
    """A clip containing only the noise floor (no vocalisations)."""
    builder = ClipBuilder(sample_rate=16000, duration=6.0)
    clip = builder.build([], session_rng)
    return clip


@pytest.fixture(scope="session")
def global_extraction():
    """The whole-clip (``normalization="global"``) extraction pipeline."""
    return AcousticPipeline().extract(FAST_EXTRACTION, normalization="global").build()


@pytest.fixture(scope="session")
def extraction_result(small_clip, global_extraction):
    """Ensembles extracted from the small clip with the fast configuration."""
    return global_extraction.run(small_clip)


@pytest.fixture(scope="session")
def labelled_ensembles(small_clip, extraction_result):
    return extraction_result.labelled(small_clip)


@pytest.fixture(scope="session")
def experiment_data():
    """Tiny end-to-end experiment data set shared by classification tests."""
    return build_experiment_data(TEST_SCALE)
