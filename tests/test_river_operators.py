"""Unit tests for the Dynamic River operator library."""

from __future__ import annotations

import numpy as np
import pytest

from repro.river import (
    Pipeline,
    RecordType,
    Subtype,
    close_scope,
    data_record,
    open_scope,
    validate_stream,
)
from repro.river.operator_base import PassThrough
from repro.river.operators import ClipSource, SubtypeFilter
from repro.synth import ClipBuilder


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


class TestStreamOps:
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


class TestPipelineLookup:
    def test_pipeline_operator_lookup(self):
        pipeline = Pipeline([SubtypeFilter({Subtype.AUDIO.value}), PassThrough("sink")], name="p")
        assert pipeline.operator("sink").name == "sink"
        with pytest.raises(KeyError):
            pipeline.operator("nonexistent")
