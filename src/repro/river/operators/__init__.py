"""The Dynamic River's hand-written operators: the clip feed and a filter.

Every analysis operator of the paper's chain comes from
:func:`repro.pipeline.river_adapter.compile_to_river` instead.
"""

from .io_ops import ClipSource
from .stream_ops import SubtypeFilter

__all__ = ["ClipSource", "SubtypeFilter"]
