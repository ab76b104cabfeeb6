"""Minimal WAV (RIFF PCM) reading and writing.

The sensor stations in the paper transmit WAV clips which the ``wav2rec``
operator encapsulates in pipeline records.  This module implements 16-bit
PCM mono/stereo read and write using only the standard library and numpy, so
synthetic clips can be persisted and re-read exactly like field recordings.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "WavClip",
    "WavInfo",
    "write_wav",
    "read_wav",
    "wav_info",
    "samples_to_pcm16",
    "pcm16_to_samples",
]


@dataclass(frozen=True)
class WavClip:
    """Decoded WAV audio: float samples in [-1, 1] plus the sample rate."""

    samples: np.ndarray
    sample_rate: int

    @property
    def duration(self) -> float:
        """Clip length in seconds."""
        return self.samples.shape[-1] / float(self.sample_rate)

    @property
    def channels(self) -> int:
        return 1 if self.samples.ndim == 1 else self.samples.shape[0]


def samples_to_pcm16(samples: np.ndarray) -> np.ndarray:
    """Convert float samples in [-1, 1] to little-endian int16 PCM."""
    arr = np.asarray(samples, dtype=float)
    clipped = np.clip(arr, -1.0, 1.0)
    return np.round(clipped * 32767.0).astype("<i2")


def pcm16_to_samples(pcm: np.ndarray) -> np.ndarray:
    """Convert int16 PCM values back to float samples in [-1, 1]."""
    return np.asarray(pcm, dtype="<i2").astype(float) / 32767.0


def write_wav(path: str | Path, samples: np.ndarray, sample_rate: int) -> None:
    """Write float samples as a 16-bit PCM WAV file.

    ``samples`` is either 1-D (mono) or shaped ``(channels, frames)``.
    """
    arr = np.asarray(samples, dtype=float)
    if sample_rate <= 0:
        raise ValueError(f"sample_rate must be positive, got {sample_rate}")
    if arr.ndim == 1:
        channels = 1
        interleaved = samples_to_pcm16(arr)
    elif arr.ndim == 2:
        channels = arr.shape[0]
        interleaved = samples_to_pcm16(arr.T.reshape(-1))
    else:
        raise ValueError(f"samples must be 1-D or 2-D, got shape {arr.shape}")

    data = interleaved.tobytes()
    bits_per_sample = 16
    byte_rate = sample_rate * channels * bits_per_sample // 8
    block_align = channels * bits_per_sample // 8

    header = b"RIFF"
    header += struct.pack("<I", 36 + len(data))
    header += b"WAVE"
    header += b"fmt "
    header += struct.pack("<IHHIIHH", 16, 1, channels, sample_rate, byte_rate, block_align, bits_per_sample)
    header += b"data"
    header += struct.pack("<I", len(data))

    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(data)


@dataclass(frozen=True)
class WavInfo:
    """Header facts of a WAV file, located without decoding its audio."""

    sample_rate: int
    channels: int
    #: Byte offset of the first PCM sample within the file.
    data_offset: int
    #: Length of the PCM data in bytes.
    data_bytes: int

    @property
    def frames(self) -> int:
        """Number of sample frames in the data chunk."""
        return self.data_bytes // (2 * self.channels)


def wav_info(path: str | Path) -> WavInfo:
    """Parse a 16-bit PCM WAV header and locate its data chunk.

    This never loads the audio, so streaming chunk sources can open
    arbitrarily large recordings with bounded memory and then read the data
    region incrementally; :func:`read_wav` reads the region whole.
    """
    with open(path, "rb") as handle:
        head = handle.read(12)
        if len(head) < 12 or head[:4] != b"RIFF" or head[8:12] != b"WAVE":
            raise ValueError(f"{path}: not a RIFF/WAVE file")
        fmt: tuple | None = None
        offset = 12
        while True:
            handle.seek(offset)
            chunk_head = handle.read(8)
            if len(chunk_head) < 8:
                break
            chunk_id = chunk_head[:4]
            (chunk_size,) = struct.unpack("<I", chunk_head[4:8])
            if chunk_id == b"fmt ":
                fmt = struct.unpack("<HHIIHH", handle.read(16)[:16])
            elif chunk_id == b"data":
                if fmt is None:
                    raise ValueError(f"{path}: data chunk precedes fmt chunk")
                audio_format, channels, sample_rate, _rate, _align, bits = fmt
                if audio_format != 1 or bits != 16:
                    raise ValueError(
                        f"{path}: only 16-bit PCM is supported "
                        f"(format={audio_format}, bits={bits})"
                    )
                return WavInfo(
                    sample_rate=int(sample_rate),
                    channels=int(channels),
                    data_offset=offset + 8,
                    data_bytes=int(chunk_size),
                )
            offset += 8 + chunk_size + (chunk_size % 2)
    raise ValueError(f"{path}: missing fmt or data chunk")


def read_wav(path: str | Path) -> WavClip:
    """Read a 16-bit PCM WAV file written by :func:`write_wav` (or compatible).

    A data chunk shorter than its header says raises :class:`ValueError`
    naming the missing bytes: a truncated upload is an error, never a
    shorter recording.
    """
    info = wav_info(path)
    with open(path, "rb") as handle:
        handle.seek(info.data_offset)
        data = handle.read(info.data_bytes)
    if len(data) < info.data_bytes:
        raise ValueError(
            f"{path}: WAV data chunk truncated ({info.data_bytes - len(data)} bytes missing)"
        )
    # A trailing partial frame means a malformed data chunk; drop it.
    frame_bytes = 2 * info.channels
    pcm = np.frombuffer(data[: len(data) - len(data) % frame_bytes], dtype="<i2")
    samples = pcm16_to_samples(pcm)
    if info.channels > 1:
        samples = samples.reshape(-1, info.channels).T
    return WavClip(samples=samples, sample_rate=info.sample_rate)
