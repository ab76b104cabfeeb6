"""Unit tests for the Dynamic River operator library."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dsp import read_wav, write_wav
from repro.river import (
    Pipeline,
    QueueChannel,
    RecordType,
    ScopeType,
    Subtype,
    close_scope,
    data_record,
    end_of_stream,
    open_scope,
    validate_stream,
)
from repro.river.operators import (
    ClipSource,
    ReadOut,
    ScopeTypeFilter,
    SubtypeFilter,
    Tee,
    Throttle,
    WavFileSource,
)
from repro.synth import ClipBuilder


@pytest.fixture()
def audio_scope_records(rng):
    """A clip scope containing three fixed-size audio records."""
    records = [open_scope(0, ScopeType.CLIP.value, context={"sample_rate": 16000})]
    for i in range(3):
        records.append(
            data_record(rng.normal(size=256), subtype=Subtype.AUDIO.value, scope=1,
                        scope_type=ScopeType.CLIP.value, sequence=i)
        )
    records.append(close_scope(0, ScopeType.CLIP.value))
    records.append(end_of_stream())
    return records


class TestClipSource:
    def test_emits_well_scoped_stream(self, rng):
        clip = ClipBuilder(sample_rate=8000, duration=2.0).build("TUTI", rng)
        records = list(ClipSource([clip], record_size=1024).generate())
        assert validate_stream(records) == []
        assert records[0].is_open
        assert records[0].context["sample_rate"] == 8000
        audio = [r for r in records if r.is_data]
        assert sum(r.payload_length() for r in audio) == clip.samples.size
        assert records[-1].is_end

    def test_multiple_clips_are_separate_scopes(self, rng):
        builder = ClipBuilder(sample_rate=8000, duration=1.0)
        clips = [builder.build("NOCA", rng), builder.build("MODO", rng)]
        records = list(ClipSource(clips, record_size=2048).generate())
        opens = [r for r in records if r.is_open]
        closes = [r for r in records if r.is_close]
        assert len(opens) == 2 and len(closes) == 2
        assert opens[1].context["clip_index"] == 1

    def test_wav_file_source_roundtrip(self, rng, tmp_path):
        clip = ClipBuilder(sample_rate=8000, duration=1.0).build("BCCH", rng)
        path = tmp_path / "clip.wav"
        write_wav(path, clip.samples, clip.sample_rate)
        records = list(WavFileSource([path], record_size=1024).generate())
        assert validate_stream(records) == []
        total = sum(r.payload_length() for r in records if r.is_data)
        assert total == read_wav(path).samples.size

    def test_wav_file_source_streams_one_file_at_a_time(self, rng, tmp_path):
        """Files are read lazily: the first clip is out before a later read fails."""
        clip = ClipBuilder(sample_rate=8000, duration=1.0).build("BCCH", rng)
        good = tmp_path / "good.wav"
        write_wav(good, clip.samples, clip.sample_rate)
        stream = WavFileSource([good, tmp_path / "missing.wav"], record_size=1024).generate()
        yielded = []
        with pytest.raises(OSError):
            for record in stream:
                yielded.append(record)
        assert validate_stream(yielded + [end_of_stream()]) == []
        assert yielded[0].is_open and yielded[-1].is_close
        assert sum(r.payload_length() for r in yielded if r.is_data) == clip.samples.size

    def test_wav_file_source_numbers_records_across_files(self, rng, tmp_path):
        builder = ClipBuilder(sample_rate=8000, duration=1.0)
        clips = [builder.build("NOCA", rng), builder.build("MODO", rng)]
        paths = []
        for index, clip in enumerate(clips):
            paths.append(tmp_path / f"clip-{index}.wav")
            write_wav(paths[-1], clip.samples, clip.sample_rate)
        records = list(WavFileSource(paths, record_size=2048).generate())
        assert validate_stream(records) == []
        assert [r.sequence for r in records] == list(range(len(records)))
        assert [r.context["clip_index"] for r in records if r.is_open] == [0, 1]

    def test_wav_file_source_validates_record_size_at_construction(self, tmp_path):
        with pytest.raises(ValueError, match="record_size"):
            WavFileSource([tmp_path / "never-read.wav"], record_size=0)


class TestStreamOps:
    def test_tee_duplicates_records(self, audio_scope_records):
        channel = QueueChannel()
        tee = Tee(channel)
        for record in audio_scope_records:
            tee.process(record)
        assert len(channel) == len(audio_scope_records)

    def test_subtype_filter_keeps_structure(self, rng):
        filt = SubtypeFilter({Subtype.TRIGGER.value})
        kept = []
        kept.extend(filt.process(open_scope(0)))
        kept.extend(filt.process(data_record(np.zeros(4), subtype=Subtype.AUDIO.value, scope=1)))
        kept.extend(filt.process(data_record(np.zeros(4), subtype=Subtype.TRIGGER.value, scope=1)))
        kept.extend(filt.process(close_scope(0)))
        assert [r.record_type for r in kept] == [
            RecordType.OPEN_SCOPE, RecordType.DATA, RecordType.CLOSE_SCOPE,
        ]
        assert kept[1].subtype == Subtype.TRIGGER.value

    def test_scope_type_filter_selects_ensembles_only(self):
        filt = ScopeTypeFilter(ScopeType.ENSEMBLE.value)
        stream = [
            open_scope(0, ScopeType.CLIP.value),
            data_record(np.zeros(2), scope=1, scope_type=ScopeType.CLIP.value),
            open_scope(1, ScopeType.ENSEMBLE.value),
            data_record(np.ones(2), scope=2, scope_type=ScopeType.ENSEMBLE.value),
            close_scope(1, ScopeType.ENSEMBLE.value),
            close_scope(0, ScopeType.CLIP.value),
            end_of_stream(),
        ]
        kept = []
        for record in stream:
            kept.extend(filt.process(record))
        assert len(kept) == 4  # ensemble open, its data, its close, end-of-stream
        assert kept[0].scope_type == ScopeType.ENSEMBLE.value

    def test_throttle_limits_data_records(self, rng):
        throttle = Throttle(limit=2)
        outputs = []
        for i in range(5):
            outputs.extend(throttle.process(data_record(np.zeros(1), sequence=i)))
        outputs.extend(throttle.process(end_of_stream()))
        data = [r for r in outputs if r.is_data]
        assert len(data) == 2
        assert outputs[-1].is_end


class TestReadOut:
    def test_readout_archives_to_disk(self, rng, tmp_path):
        path = tmp_path / "archive.bin"
        readout = ReadOut(path)
        records = [open_scope(0), data_record(rng.normal(size=32), scope=1), close_scope(0)]
        for record in records:
            readout.process(record)
        assert readout.bytes_written == path.stat().st_size > 0
        assert len(readout.collected) == 3


class TestPipelineLookup:
    def test_pipeline_operator_lookup(self):
        pipeline = Pipeline([Throttle(limit=10), ReadOut()], name="p")
        assert pipeline.operator("readout").name == "readout"
        with pytest.raises(KeyError):
            pipeline.operator("nonexistent")
