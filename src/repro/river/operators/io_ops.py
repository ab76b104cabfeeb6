"""The river's data feed: ``wav2rec`` for in-memory clips.

:class:`ClipSource` is the acquisition end of the paper's Figure 5: it
encapsulates acoustic clips in pipeline records.  The analysis operators
after it (``saxanomaly`` … ``rec2vect``) are not hand-written here:
:func:`repro.pipeline.river_adapter.compile_to_river` wraps the pipeline's
own stages as operators, and the ``readout`` end is a declared ``"store"``
stage, which the river runs as a
:class:`~repro.store.river_sink.StoreSinkOperator`.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ...synth.clips import AcousticClip
from ..operator_base import SourceOperator
from ..records import (
    Record,
    ScopeType,
    Subtype,
    close_scope,
    data_record,
    end_of_stream,
    open_scope,
)

__all__ = ["ClipSource"]


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

    def generate(self) -> Iterator[Record]:
        sequence = 0
        for clip_index, clip in enumerate(self.clips):
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
