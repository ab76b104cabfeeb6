"""Shared fixtures for the benchmark harness.

Everything expensive (the BENCH-scale corpus, extraction, the four data
sets) is built once per session and reused by every table / figure
benchmark, so a full ``pytest benchmarks/ --benchmark-only`` run stays in
the minutes range while still exercising the real experiment code.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# The perf gates time the seed implementations in tests/_seed_anchors.py,
# the same copy the parity suites in tests/ compare against.
sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))

from repro.experiments.datasets import BENCH_SCALE, build_experiment_data
from repro.synth.dataset import CorpusSpec, build_corpus


def pytest_configure(config):
    config.addinivalue_line("markers", "benchmark: benchmark harness tests")


@pytest.fixture(scope="session")
def bench_data():
    """The BENCH-scale experiment data shared by the table benchmarks."""
    return build_experiment_data(BENCH_SCALE)


@pytest.fixture(scope="session")
def bench_corpus():
    """A small clip corpus for extraction / reduction / ablation benchmarks."""
    return build_corpus(
        CorpusSpec(clips_per_species=1, songs_per_clip=2, clip_duration=12.0,
                   sample_rate=16000, seed=2007)
    )
