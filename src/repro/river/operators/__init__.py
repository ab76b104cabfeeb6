"""The Dynamic River operator library."""

from .io_ops import ClipSource, ReadOut, WavFileSource
from .stream_ops import ScopeTypeFilter, SubtypeFilter, Tee, Throttle

__all__ = [
    "ClipSource",
    "ReadOut",
    "ScopeTypeFilter",
    "SubtypeFilter",
    "Tee",
    "Throttle",
    "WavFileSource",
]
