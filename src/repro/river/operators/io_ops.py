"""Source and sink operators: data feeds, wav2rec and readout.

These correspond to the acquisition and storage ends of the paper's
Figure 5: a data feed reads clips from storage, ``wav2rec`` encapsulates
acoustic data in pipeline records and ``readout`` archives records.  The
analysis operators between them (``saxanomaly`` … ``rec2vect``) are not
hand-written here: :func:`repro.pipeline.river_adapter.compile_to_river`
wraps the pipeline's own stages as operators.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from ...dsp.wav import read_wav
from ...synth.clips import AcousticClip
from ..operator_base import SinkOperator, SourceOperator
from ..records import (
    Record,
    ScopeType,
    Subtype,
    close_scope,
    data_record,
    end_of_stream,
    open_scope,
)
from ..serialization import pack_record_views

__all__ = ["ClipSource", "WavFileSource", "ReadOut"]


class ClipSource(SourceOperator):
    """Emit acoustic clips as clip-scoped streams of audio records.

    Each clip becomes ``OpenScope(scope_clip)`` (carrying the sample rate and
    station id as context), a sequence of fixed-size audio data records, and
    ``CloseScope(scope_clip)``; the final clip is followed by END_OF_STREAM.
    """

    def __init__(
        self,
        clips: Sequence[AcousticClip],
        record_size: int = 4096,
        name: str = "clipsource",
    ) -> None:
        super().__init__(name)
        if record_size < 1:
            raise ValueError(f"record_size must be >= 1, got {record_size}")
        self.clips = list(clips)
        self.record_size = record_size

    def _iter_clips(self) -> Iterable[AcousticClip]:
        return self.clips

    def generate(self) -> Iterator[Record]:
        sequence = 0
        for clip_index, clip in enumerate(self._iter_clips()):
            context = {
                "sample_rate": int(clip.sample_rate),
                "station_id": clip.station_id,
                "clip_index": clip_index,
            }
            yield open_scope(scope=0, scope_type=ScopeType.CLIP.value, sequence=sequence, context=context)
            sequence += 1
            samples = np.asarray(clip.samples, dtype=float)
            for start in range(0, samples.size, self.record_size):
                chunk = samples[start : start + self.record_size]
                yield data_record(
                    chunk,
                    subtype=Subtype.AUDIO.value,
                    scope=1,
                    scope_type=ScopeType.CLIP.value,
                    sequence=sequence,
                    context={"offset": start},
                )
                sequence += 1
            yield close_scope(scope=0, scope_type=ScopeType.CLIP.value, sequence=sequence)
            sequence += 1
        yield end_of_stream(sequence)


class WavFileSource(ClipSource):
    """Like :class:`ClipSource` but reading clips from WAV files on disk.

    Files are read one at a time as the stream is consumed, so memory is
    bounded by the largest file rather than the corpus; an unreadable file
    raises only after the records of the files before it were yielded.
    """

    def __init__(self, paths: Sequence[str | Path], record_size: int = 4096, name: str = "wav2rec") -> None:
        super().__init__((), record_size=record_size, name=name)
        self.paths = [Path(p) for p in paths]

    def _iter_clips(self) -> Iterable[AcousticClip]:
        for path in self.paths:
            wav = read_wav(path)
            samples = wav.samples if wav.samples.ndim == 1 else wav.samples[0]
            yield AcousticClip(samples=samples, sample_rate=wav.sample_rate, station_id=path.stem)


class ReadOut(SinkOperator):
    """Archive every record (optionally to disk in the wire format).

    The paper keeps a copy of the raw data for later study before analysis;
    ``ReadOut`` is that archival sink.  With a path it appends packed records
    to a file; it always also keeps the records in memory for inspection.
    """

    def __init__(self, path: str | Path | None = None, name: str = "readout") -> None:
        super().__init__(name)
        self.path = Path(path) if path is not None else None
        self.bytes_written = 0
        if self.path is not None:
            self.path.write_bytes(b"")

    def process(self, record: Record) -> list[Record]:
        self.collected.append(record)
        if self.path is not None:
            # Scatter-gather write: the payload view goes straight from the
            # record's array into the file, never through a joined copy.
            views = pack_record_views(record)
            with open(self.path, "ab") as handle:
                handle.writelines(views)
            self.bytes_written += sum(len(view) for view in views)
        return []
