"""Non-finite audio is rejected where it enters extraction, on every path.

One NaN or infinite sample used to poison the running normaliser and the
trigger baseline for the rest of the stream: inside the settle window it
silently wiped every detection of the clip.  ``ExtractStage.process`` now
raises a :class:`ValueError` naming the absolute stream index of the first
non-finite sample, and since it is the only extraction engine the batch,
chunked-stream, river and corpus paths all report the same error.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import AcousticPipeline, ClipBuilder, FAST_EXTRACTION
from repro.jobs import Ledger, LedgerConfig
from repro.pipeline import CorpusExecutionError, run_clips_via_river


def poisoned_clip(index: int, value: float):
    clip = ClipBuilder(sample_rate=16000, duration=3.0).build(
        ["NOCA"], np.random.default_rng(0), station_id="poisoned"
    )
    clip.samples[index] = value
    return clip


@pytest.fixture(scope="module")
def extraction():
    return AcousticPipeline().extract(FAST_EXTRACTION)


@pytest.mark.parametrize("normalization", ["running", "global"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_batch_run_names_the_first_non_finite_sample(normalization, value):
    clip = poisoned_clip(1000, value)
    clip.samples[5000] = np.nan
    pipe = AcousticPipeline().extract(FAST_EXTRACTION, normalization=normalization).build()
    with pytest.raises(ValueError, match="non-finite audio sample .* at stream index 1000;"):
        pipe.run(clip)


def test_chunked_stream_reports_the_absolute_index(extraction):
    clip = poisoned_clip(7000, np.inf)
    chunks = np.array_split(clip.samples, 9)  # 7000 lies in the second chunk
    events = extraction.build().extract_stream(iter(chunks), sample_rate=16000)
    with pytest.raises(ValueError, match="at stream index 7000;"):
        list(events)


def test_simulated_river_reports_the_absolute_index(extraction):
    with pytest.raises(ValueError, match="at stream index 9000;"):
        run_clips_via_river(extraction, [poisoned_clip(9000, np.nan)], record_size=4096)


def test_run_corpus_fails_the_item_with_that_reason(extraction, tmp_path):
    clean = ClipBuilder(sample_rate=16000, duration=3.0).build(["NOCA"], np.random.default_rng(1))
    corpus = [clean, poisoned_clip(1000, np.nan)]
    with pytest.raises(CorpusExecutionError, match="at stream index 1000;") as caught:
        extraction.build().run_corpus(corpus)
    assert caught.value.index == 1

    results = extraction.build().run_corpus(
        corpus,
        ledger=tmp_path / "ledger.json",
        ledger_config=LedgerConfig(max_attempts=1, backoff_base=0.0),
    )
    assert results[0] is not None and results[1] is None
    row = Ledger.open(tmp_path / "ledger.json").row(1)
    assert "non-finite audio sample (nan) at stream index 1000;" in row.error
