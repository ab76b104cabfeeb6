"""Dynamic River: a distributed stream-processing engine with scoped records.

This package is the generic fabric — records, scopes, channels, segments,
the simulated and OS-process deployments, and plumbing operators.  The
paper's acoustic chain is not hand-wired here: ``AcousticPipeline.to_river()``
(:func:`repro.pipeline.river_adapter.compile_to_river`) compiles the
pipeline's own stages into operators for it.
"""

from .channels import ByteChannel, Channel, QueueChannel
from .errors import (
    ChannelClosed,
    ChannelError,
    ChannelFull,
    ChannelReceiveError,
    ChannelSendError,
    PlacementError,
    RiverError,
    ScopeError,
    SerializationError,
)
from .fault import FaultInjector, SegmentCrash, count_bad_closes, scope_repair_summary
from .operator_base import (
    FunctionOperator,
    Operator,
    PassThrough,
    SinkOperator,
    SourceOperator,
)
from .pipeline import Pipeline, PipelineSegment, SegmentState, split_into_segments
from .placement import Deployment, Host, QoSMonitor, QoSReport, StationScheduler
from .records import (
    Record,
    RecordType,
    ScopeType,
    Subtype,
    bad_close_scope,
    close_scope,
    data_record,
    end_of_stream,
    fragment_record,
    open_scope,
)
from .scopes import ScopeFrame, ScopeStack, validate_stream
from .serialization import (
    RecordFrameDecoder,
    frame_record,
    frame_record_views,
    pack_record,
    pack_record_views,
    pack_stream,
    unframe_record,
    unpack_record,
    unpack_stream,
)
from .transport import (
    ProcessDeployment,
    ProcessHost,
    SocketChannel,
    transport_available,
)

__all__ = [
    "ByteChannel",
    "Channel",
    "ChannelClosed",
    "ChannelError",
    "ChannelFull",
    "ChannelReceiveError",
    "ChannelSendError",
    "Deployment",
    "FaultInjector",
    "FunctionOperator",
    "Host",
    "Operator",
    "PassThrough",
    "Pipeline",
    "PipelineSegment",
    "PlacementError",
    "ProcessDeployment",
    "ProcessHost",
    "QoSMonitor",
    "QoSReport",
    "QueueChannel",
    "Record",
    "RecordFrameDecoder",
    "RecordType",
    "RiverError",
    "ScopeError",
    "ScopeFrame",
    "ScopeStack",
    "ScopeType",
    "SegmentCrash",
    "SegmentState",
    "SerializationError",
    "SinkOperator",
    "SocketChannel",
    "SourceOperator",
    "StationScheduler",
    "Subtype",
    "bad_close_scope",
    "close_scope",
    "count_bad_closes",
    "data_record",
    "end_of_stream",
    "fragment_record",
    "frame_record",
    "frame_record_views",
    "open_scope",
    "pack_record",
    "pack_record_views",
    "pack_stream",
    "scope_repair_summary",
    "split_into_segments",
    "transport_available",
    "unframe_record",
    "unpack_record",
    "unpack_stream",
    "validate_stream",
]
