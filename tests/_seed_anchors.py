"""Seed implementations kept verbatim as parity anchors — the one copy.

The kernels (``seed_paa``, ``seed_window_counts``,
``seed_nearest_sphere_indices``), the per-sample adaptive
trigger (``SeedAdaptiveTrigger``) and the wire codec (``seed_pack_record``
… ``SeedRecordFrameDecoder``) are what the vectorised kernels, the scalar
trigger kernel and the zero-copy wire path replaced.  The parity suites in
``tests/`` compare against them bit for bit and the perf gates in
``benchmarks/`` time them as the baseline (``benchmarks/conftest.py`` puts
this directory on ``sys.path``).  They carry their own wire constants and
running statistics so a change to ``repro.river.serialization`` or
``repro.timeseries.windows`` cannot move the anchor with it.
Never edit them to follow a change in ``src``.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from repro.config import TriggerConfig
from repro.river import Record, RecordType

# -- seed kernels ---------------------------------------------------------------


def seed_paa(values: np.ndarray, segments: int) -> np.ndarray:
    """The seed fractional double loop (pre-vectorisation ``paa``)."""
    arr = np.asarray(values, dtype=float)
    n = arr.size
    if segments == n:
        return arr.copy()
    if n % segments == 0:
        return arr.reshape(segments, n // segments).mean(axis=1)
    output = np.zeros(segments, dtype=float)
    seg_len = n / segments
    for seg in range(segments):
        start = seg * seg_len
        end = (seg + 1) * seg_len
        first = int(np.floor(start))
        last = int(np.ceil(end))
        total = 0.0
        for j in range(first, min(last, n)):
            overlap = min(end, j + 1) - max(start, j)
            if overlap > 0:
                total += arr[j] * overlap
        output[seg] = total / seg_len
    return output


def seed_window_counts(codes, ends, lead_starts, lag_starts, n_codes):
    """The seed per-code ``searchsorted`` scan from ``_evaluate``."""
    buffer = np.asarray(codes, dtype=np.int64)
    lead_counts = np.zeros((len(ends), n_codes))
    lag_counts = np.zeros((len(ends), n_codes))
    for code in range(n_codes):
        positions = np.flatnonzero(buffer == code)
        if positions.size == 0:
            continue
        at_end = np.searchsorted(positions, ends)
        at_lead = np.searchsorted(positions, lead_starts)
        at_lag = np.searchsorted(positions, lag_starts)
        lead_counts[:, code] = at_end - at_lead
        lag_counts[:, code] = at_lead - at_lag
    return lead_counts, lag_counts


def seed_nearest_sphere_indices(centers: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """The difference-tensor MESO batch query (pre-GEMM-screen
    ``MesoClassifier._nearest_sphere_indices``), over a ``(spheres, d)``
    centre matrix, with its block size and element budget."""
    rows = max(1, min(256, 16_777_216 // max(1, centers.size)))
    indices = np.empty(matrix.shape[0], dtype=np.intp)
    for start in range(0, matrix.shape[0], rows):
        block = matrix[start : start + rows]
        diff = centers[None, :, :] - block[:, None, :]
        dists = np.einsum("bij,bij->bi", diff, diff)
        indices[start : start + rows] = np.argmin(dists, axis=1)
    return indices


# -- seed adaptive trigger ------------------------------------------------------


@dataclass
class SeedRunningStats:
    """The seed ``RunningStats`` (Welford, optional forgetting, ``np.sqrt``)."""

    forgetting: float | None = None
    count: int = 0
    mean: float = 0.0
    _m2: float = 0.0

    def update(self, value: float) -> None:
        value = float(value)
        if self.forgetting is None:
            self.count += 1
            delta = value - self.mean
            self.mean += delta / self.count
            self._m2 += delta * (value - self.mean)
        else:
            alpha = self.forgetting
            if self.count == 0:
                self.mean = value
                self._m2 = 0.0
            else:
                delta = value - self.mean
                self.mean += alpha * delta
                self._m2 = (1.0 - alpha) * (self._m2 + alpha * delta * delta)
            self.count += 1

    @property
    def variance(self) -> float:
        if self.count == 0:
            return 0.0
        if self.forgetting is None:
            return self._m2 / self.count
        return self._m2

    @property
    def std(self) -> float:
        return float(np.sqrt(max(self.variance, 0.0)))


@dataclass
class SeedAdaptiveTrigger:
    """The seed ``AdaptiveTrigger``: one ``update`` call per score sample."""

    config: TriggerConfig = field(default_factory=TriggerConfig)
    settle: int | None = None

    def __post_init__(self) -> None:
        self._baseline = SeedRunningStats(forgetting=self.config.forgetting)
        self._state = 0
        self._hang_remaining = 0
        self._seen = 0
        self._settle = self.config.settle if self.settle is None else self.settle
        if self._settle < 0:
            raise ValueError(f"settle must be >= 0, got {self._settle}")

    @property
    def baseline_std(self) -> float:
        return self._baseline.std

    def threshold(self) -> float:
        return self._baseline.mean + self.config.threshold_sigmas * self._baseline.std

    def update(self, score: float) -> int:
        """Push one anomaly score and return the trigger value (0 or 1)."""
        score = float(score)
        self._seen += 1
        if self._seen <= self._settle:
            # The score is still ramping up from the empty SAX windows and
            # moving average; it carries no information about the baseline.
            return 0
        warmed = self._baseline.count >= self.config.warmup
        fires = False
        if warmed and self._baseline.std > 0:
            fires = score > self.threshold()

        if fires:
            self._state = 1
            self._hang_remaining = self.config.hangover
        else:
            if self._state == 1 and self._hang_remaining > 0:
                self._hang_remaining -= 1
            else:
                self._state = 0
        if self._state == 0 and self._passes_baseline_gate(score, warmed):
            # Baseline adapts only while the trigger is low.
            self._baseline.update(score)
        return self._state

    def _passes_baseline_gate(self, score: float, warmed: bool) -> bool:
        """True when ``score`` may be folded into the baseline estimate."""
        gate = self.config.baseline_gate_sigmas
        if gate is None or not warmed or self._baseline.std <= 0:
            return True
        return score <= self._baseline.mean + gate * self._baseline.std

    def apply(self, scores: np.ndarray) -> np.ndarray:
        """Run the trigger over a whole score array, returning 0/1 values."""
        arr = np.asarray(scores, dtype=float).ravel()
        return np.fromiter((self.update(s) for s in arr), dtype=np.int8, count=arr.size)


# -- seed wire codec ------------------------------------------------------------

_SEED_PREFIX = struct.Struct("<4sBI")
_SEED_FRAME_PREFIX = struct.Struct("<I")
_SEED_MAGIC = b"DRIV"
_SEED_VERSION = 1


def seed_pack_record(record: Record) -> bytes:
    """The pre-views ``pack_record``: ``tobytes`` plus two concatenations."""
    header: dict = {
        "record_type": record.record_type.value,
        "subtype": record.subtype,
        "scope": record.scope,
        "scope_type": record.scope_type,
        "sequence": record.sequence,
        "context": record.context,
    }
    if record.payload is not None:
        payload = np.ascontiguousarray(record.payload)
        header["dtype"] = payload.dtype.str
        header["shape"] = list(payload.shape)
        body = payload.tobytes()
    else:
        body = b""
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return _SEED_PREFIX.pack(_SEED_MAGIC, _SEED_VERSION, len(header_bytes)) + header_bytes + body


def seed_frame_record(record: Record) -> bytes:
    blob = seed_pack_record(record)
    return _SEED_FRAME_PREFIX.pack(len(blob)) + blob


def seed_unpack_record(blob: bytes) -> tuple[Record, int]:
    """The pre-views ``unpack_record``: slice-copy then ``frombuffer().copy()``."""
    magic, version, header_len = _SEED_PREFIX.unpack_from(blob, 0)
    header_start = _SEED_PREFIX.size
    header_end = header_start + header_len
    header = json.loads(blob[header_start:header_end].decode("utf-8"))
    payload = None
    consumed = header_end
    if "dtype" in header:
        dtype = np.dtype(header["dtype"])
        shape = tuple(header["shape"])
        count = int(np.prod(shape)) if shape else 1
        body_len = count * dtype.itemsize
        payload = (
            np.frombuffer(blob[header_end : header_end + body_len], dtype=dtype)
            .reshape(shape)
            .copy()
        )
        consumed = header_end + body_len
    record = Record(
        record_type=RecordType(header["record_type"]),
        subtype=header.get("subtype", "generic"),
        scope=int(header.get("scope", 0)),
        scope_type=header.get("scope_type", "scope_generic"),
        sequence=int(header.get("sequence", 0)),
        payload=payload,
        context=header.get("context", {}),
    )
    return record, consumed


class SeedRecordFrameDecoder:
    """The pre-views decoder: ``extend`` / ``bytes()`` slice / per-frame del."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[Record]:
        self._buffer.extend(data)
        records: list[Record] = []
        while len(self._buffer) >= _SEED_FRAME_PREFIX.size:
            (length,) = _SEED_FRAME_PREFIX.unpack_from(self._buffer, 0)
            end = _SEED_FRAME_PREFIX.size + length
            if len(self._buffer) < end:
                break
            record, _ = seed_unpack_record(bytes(self._buffer[_SEED_FRAME_PREFIX.size : end]))
            del self._buffer[:end]
            records.append(record)
        return records
