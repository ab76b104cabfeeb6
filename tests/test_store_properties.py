"""Property-based tests for the persistent feature store.

Write → read must be bit-for-bit on every backend — including zero-pattern
short ensembles, multi-slice fragment-streamed audio, tiny flush budgets
that cut shards mid-recording and writers re-opened to append.  An
interrupted writer must surface as *incomplete* data, never as a
truncated-but-valid ensemble.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.cutter import Ensemble
from repro.store import StoreReader, StoreWriter, available_backends
from repro.store.schema import ENSEMBLES

DEFAULT_SETTINGS = dict(max_examples=25, deadline=None)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def sample_arrays(min_size=1, max_size=64):
    return arrays(
        dtype=np.float64,
        shape=st.integers(min_value=min_size, max_value=max_size),
        elements=finite,
    )


labels = st.one_of(st.none(), st.text(alphabet="ABCDEFgh-0123", min_size=1, max_size=8))


@st.composite
def ensemble_specs(draw):
    patterns = draw(st.lists(sample_arrays(min_size=2, max_size=12), min_size=0, max_size=3))
    return {
        "gap": draw(st.integers(min_value=0, max_value=500)),
        "parts": draw(st.lists(sample_arrays(), min_size=0, max_size=3)),
        "patterns": patterns,
        # Pattern-less ensembles are either *short* (a feature stage ran and
        # yielded nothing: n_patterns=0) or feature-free (n_patterns=-1).
        "n_patterns": len(patterns) or draw(st.sampled_from([0, -1])),
        "label": draw(labels),
        "ens_label": draw(labels),
    }


recording_sets = st.lists(
    st.lists(ensemble_specs(), min_size=0, max_size=4), min_size=1, max_size=3
)


# Module-scoped: the fixture is a plain string, so there is no per-example
# state to reset and hypothesis's function-scoped-fixture health check does
# not apply.
@pytest.fixture(params=("npz", "parquet"), scope="module")
def backend(request) -> str:
    if request.param not in available_backends():
        pytest.skip(f"{request.param} backend unavailable (install the [store] extra)")
    return request.param


def write_recording(writer: StoreWriter, name: str, specs: list[dict]) -> None:
    writer.begin_recording(name, station=f"st-{name}", sample_rate=16000)
    cursor = 0
    for ordinal, spec in enumerate(specs):
        start = cursor + spec["gap"]
        writer.open_ensemble(name, ordinal, start, sample_rate=16000)
        offset = start
        for part in spec["parts"]:
            writer.append_audio(name, ordinal, offset, part)
            offset += part.size
        for index, pattern in enumerate(spec["patterns"]):
            writer.append_pattern(name, ordinal, index, pattern)
        end = offset if offset > start else start + 1
        writer.close_ensemble(
            name,
            ordinal,
            end,
            n_patterns=spec["n_patterns"],
            label=spec["label"],
            ens_label=spec["ens_label"],
        )
        cursor = end
    writer.end_recording(name, total_samples=cursor)


def check_recording(reader: StoreReader, name: str, specs: list[dict]) -> None:
    stored = list(reader.iter_ensembles(recording=name))
    assert len(stored) == len(specs)
    cursor = 0
    for spec, row in zip(specs, stored):
        start = cursor + spec["gap"]
        expected = (
            np.concatenate(spec["parts"]) if spec["parts"] else np.zeros(0)
        )
        assert row.ensemble.samples.dtype == np.float64
        np.testing.assert_array_equal(row.ensemble.samples, expected)
        assert row.ensemble.start == start
        assert len(row.patterns) == len(spec["patterns"])
        for got, want in zip(row.patterns, spec["patterns"]):
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, want)
        assert row.n_patterns == spec["n_patterns"]
        assert row.label == spec["label"]
        assert row.ensemble.label == spec["ens_label"]
        assert row.station == f"st-{name}"
        cursor = row.ensemble.end


class TestRoundTripProperties:
    @given(data=recording_sets, flush_values=st.integers(min_value=1, max_value=4096))
    @settings(**DEFAULT_SETTINGS)
    def test_low_level_round_trip(self, backend, data, flush_values):
        """Bit-for-bit, whatever the shard-cut cadence (flush_values=1 cuts
        a shard after every single appended row)."""
        with tempfile.TemporaryDirectory() as tmp:
            store = Path(tmp) / "store"
            with StoreWriter(store, backend=backend, flush_values=flush_values) as writer:
                for index, specs in enumerate(data):
                    write_recording(writer, f"rec-{index:05d}", specs)
            reader = StoreReader(store)
            assert reader.verify() == []
            assert reader.recordings() == [f"rec-{i:05d}" for i in range(len(data))]
            for index, specs in enumerate(data):
                check_recording(reader, f"rec-{index:05d}", specs)
                info = reader.recording_info(f"rec-{index:05d}")
                assert info.complete
                assert info.ensembles == len(specs)

    @given(
        first=recording_sets,
        second=recording_sets,
        flush_values=st.integers(min_value=1, max_value=4096),
    )
    @settings(**DEFAULT_SETTINGS)
    def test_reopened_writer_appends(self, backend, first, second, flush_values):
        """Closing and re-opening a store continues shard numbering and the
        recording table; nothing written earlier is disturbed."""
        with tempfile.TemporaryDirectory() as tmp:
            store = Path(tmp) / "store"
            with StoreWriter(store, backend=backend, flush_values=flush_values) as writer:
                for index, specs in enumerate(first):
                    write_recording(writer, f"a-{index:05d}", specs)
            with StoreWriter(store, backend=backend, flush_values=flush_values) as writer:
                for index, specs in enumerate(second):
                    write_recording(writer, f"b-{index:05d}", specs)
            reader = StoreReader(store)
            assert reader.verify() == []
            names = [f"a-{i:05d}" for i in range(len(first))]
            names += [f"b-{i:05d}" for i in range(len(second))]
            assert reader.recordings() == names
            for index, specs in enumerate(first):
                check_recording(reader, f"a-{index:05d}", specs)
            for index, specs in enumerate(second):
                check_recording(reader, f"b-{index:05d}", specs)


class TestInterruptedWrites:
    @given(
        data=recording_sets,
        orphan_parts=st.lists(sample_arrays(), min_size=1, max_size=3),
        orphan_patterns=st.lists(sample_arrays(min_size=2, max_size=12), min_size=0, max_size=2),
        flush_values=st.integers(min_value=1, max_value=4096),
    )
    @settings(**DEFAULT_SETTINGS)
    def test_mid_ensemble_interrupt_is_incomplete_not_truncated(
        self, backend, data, orphan_parts, orphan_patterns, flush_values
    ):
        """A writer that dies between open_ensemble and close_ensemble leaves
        flushed audio/pattern rows behind; the reader must *exclude* them
        from iteration and surface them via incomplete(), and verify() must
        still pass — interruption is not corruption."""
        with tempfile.TemporaryDirectory() as tmp:
            store = Path(tmp) / "store"
            writer = StoreWriter(store, backend=backend, flush_values=flush_values)
            for index, specs in enumerate(data):
                write_recording(writer, f"rec-{index:05d}", specs)
            writer.begin_recording("doomed", station="st-doomed", sample_rate=16000)
            ordinal = 0
            writer.open_ensemble("doomed", ordinal, 0, sample_rate=16000)
            offset = 0
            for part in orphan_parts:
                writer.append_audio("doomed", ordinal, offset, part)
                offset += part.size
            for index, pattern in enumerate(orphan_patterns):
                writer.append_pattern("doomed", ordinal, index, pattern)
            writer.flush()
            # ... and the writer dies here: no close_ensemble, no
            # end_recording, no close.
            del writer

            reader = StoreReader(store)
            assert reader.verify() == []
            assert list(reader.iter_ensembles(recording="doomed")) == []
            incomplete = reader.incomplete()
            assert ("doomed", ordinal) in incomplete["ensembles"]
            assert "doomed" in incomplete["recordings"]
            assert not reader.recording_info("doomed").complete
            # Everything written *before* the interruption is untouched.
            for index, specs in enumerate(data):
                check_recording(reader, f"rec-{index:05d}", specs)


class _WatchedRow(dict):
    """An ensembles-table row that records every read of it."""

    touched: set[int] = set()

    def __getitem__(self, key):
        _WatchedRow.touched.add(id(self))
        return super().__getitem__(key)


class TestRecordingIndex:
    def test_one_result_reads_only_its_own_rows(self, tmp_path, monkeypatch):
        """A recording filter walks that recording's rows, not the store's:
        on a 200-recording store, the ensemble rows one ``result(name)``
        reads are exactly that recording's rows."""
        import repro.store.reader as reader_module

        rng = np.random.default_rng(0)
        with StoreWriter(tmp_path / "store") as writer:
            for index in range(200):
                ensembles = [
                    Ensemble(samples=rng.normal(size=8), start=10 * k, end=10 * k + 8, sample_rate=16000)
                    for k in range(1 + index % 3)
                ]
                writer.write_ensembles(f"rec-{index:05d}", ensembles, total_samples=40)
        plain = reader_module.columns_to_rows

        def watched(kind, columns):
            rows = plain(kind, columns)
            return [_WatchedRow(row) for row in rows] if kind == ENSEMBLES else rows

        monkeypatch.setattr(reader_module, "columns_to_rows", watched)
        reader = StoreReader(tmp_path / "store")
        reader.incomplete()  # loads the shards and builds the index
        own = {id(row) for row in reader._rows[ENSEMBLES] if dict.__getitem__(row, "recording") == "rec-00107"}
        _WatchedRow.touched = set()
        result = reader.result("rec-00107")
        assert len(result.ensembles) == len(own) == 3
        assert _WatchedRow.touched == own
        # Every other recording still reads back in ordinal order.
        for index in (0, 1, 199):
            starts = [e.start for e in reader.result(f"rec-{index:05d}").ensembles]
            assert starts == [10 * k for k in range(1 + index % 3)]
