"""Tests for the real streaming chunk sources (WAV directories, sockets).

The contracts under test:

* **round-trip** — a directory of WAV recordings fed through ``run_corpus``
  produces exactly the results of running the same recordings by path, for
  any chunk size (chunk-size invariance extends to on-disk sources);
* **bounded laziness** — ``WavChunkStream`` reads headers only until
  iterated and never materialises a whole recording per chunk;
* **socket framing** — a loopback PCM stream is reassembled exactly; a
  mid-stream disconnect or stall surfaces :class:`ChunkSourceError`
  promptly instead of hanging or silently truncating.
"""

from __future__ import annotations

import socket
import threading

import numpy as np
import pytest

from repro.config import FAST_EXTRACTION
from repro.dsp import write_wav
from repro.dsp.wav import samples_to_pcm16, wav_info
from repro.pipeline import (
    AcousticPipeline,
    ChunkSourceError,
    SocketChunkSource,
    WavChunkStream,
    WavDirectorySource,
)
from repro.synth import ClipBuilder


@pytest.fixture(scope="module")
def station_clips():
    rng = np.random.default_rng(11)
    builder = ClipBuilder(sample_rate=16000, duration=4.0)
    return [
        builder.build(["NOCA"], rng, songs_per_species=1, station_id=f"st-{i}")
        for i in range(3)
    ]


@pytest.fixture(scope="module")
def wav_directory(station_clips, tmp_path_factory):
    directory = tmp_path_factory.mktemp("recordings")
    for index, clip in enumerate(station_clips):
        write_wav(directory / f"clip-{index:02d}.wav", clip.samples, clip.sample_rate)
    return directory


def assert_results_identical(first, second):
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert len(a.ensembles) == len(b.ensembles)
        for u, v in zip(a.ensembles, b.ensembles):
            assert u.start == v.start and u.end == v.end
            np.testing.assert_array_equal(u.samples, v.samples)


class TestWavDirectorySource:
    def test_round_trip_matches_path_corpus(self, wav_directory):
        pipe = AcousticPipeline().extract(FAST_EXTRACTION)
        from_directory = pipe.run_corpus(WavDirectorySource(wav_directory))
        from_paths = pipe.run_corpus(sorted(wav_directory.glob("*.wav")))
        assert_results_identical(from_directory, from_paths)

    @pytest.mark.parametrize("chunk_size", [257, 1000, 4096, 1 << 20])
    def test_results_are_chunk_size_invariant(self, wav_directory, chunk_size):
        pipe = AcousticPipeline().extract(FAST_EXTRACTION)
        reference = pipe.run_corpus(WavDirectorySource(wav_directory, chunk_size=4096))
        chunked = pipe.run_corpus(
            WavDirectorySource(wav_directory, chunk_size=chunk_size)
        )
        assert_results_identical(reference, chunked)

    def test_process_backend_accepts_wav_streams(self, wav_directory):
        pipe = AcousticPipeline().extract(FAST_EXTRACTION, keep_traces=False)
        serial = pipe.run_corpus(WavDirectorySource(wav_directory))
        parallel = pipe.run_corpus(
            WavDirectorySource(wav_directory), backend="process", workers=2
        )
        assert_results_identical(serial, parallel)

    def test_stream_concatenates_in_name_order(self, wav_directory, station_clips):
        source = WavDirectorySource(wav_directory, chunk_size=1234)
        samples = np.concatenate(list(source.stream()))
        total = sum(clip.samples.size for clip in station_clips)
        assert samples.size == total
        assert source.sample_rate == 16000

    def test_chunk_stream_is_lazy_and_carries_rate(self, wav_directory):
        path = sorted(wav_directory.glob("*.wav"))[0]
        stream = WavChunkStream(path, chunk_size=500)
        assert stream.sample_rate == 16000
        info = wav_info(path)
        chunks = list(stream)
        assert all(chunk.size == 500 for chunk in chunks[:-1])
        assert sum(chunk.size for chunk in chunks) == info.frames
        # Re-iterable: a second pass yields the same data.
        np.testing.assert_array_equal(
            np.concatenate(chunks), np.concatenate(list(stream))
        )

    def test_missing_directory_and_bad_sizes_rejected(self, wav_directory):
        with pytest.raises(FileNotFoundError):
            WavDirectorySource(wav_directory / "nope")
        with pytest.raises(ValueError, match="chunk_size"):
            WavDirectorySource(wav_directory, chunk_size=0)
        with pytest.raises(ChunkSourceError, match="no files match"):
            WavDirectorySource(wav_directory, pattern="*.flac").sample_rate

    def test_mixed_sample_rates_rejected_for_streaming(self, tmp_path):
        write_wav(tmp_path / "a.wav", np.zeros(100), 16000)
        write_wav(tmp_path / "b.wav", np.zeros(100), 22050)
        source = WavDirectorySource(tmp_path)
        with pytest.raises(ChunkSourceError, match="disagree"):
            list(source.stream())


class TestTruncatedWav:
    """A WAV whose data chunk is shorter than its header says is an error
    naming the missing bytes, by path and by chunk stream alike — never a
    shorter recording."""

    @staticmethod
    def truncated(tmp_path, cut: int):
        path = tmp_path / "cut.wav"
        write_wav(path, np.zeros(32000), 16000)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - cut])
        return path

    def test_cut_short_file_raises_by_path_and_by_stream(self, tmp_path):
        path = self.truncated(tmp_path, 20000)
        pipe = AcousticPipeline().extract(FAST_EXTRACTION).build()
        with pytest.raises(ValueError, match="20000 bytes missing"):
            pipe.run(path)
        with pytest.raises(ChunkSourceError, match="20000 bytes missing"):
            pipe.run(WavChunkStream(path))

    def test_data_chunk_one_byte_short_names_the_byte(self, tmp_path):
        path = self.truncated(tmp_path, 1)
        with pytest.raises(ValueError, match="truncated \\(1 bytes missing\\)"):
            AcousticPipeline().extract(FAST_EXTRACTION).build().run(str(path))


class _LoopbackServer:
    """Accept one connection and play a scripted byte sequence."""

    def __init__(self):
        self.server = socket.socket()
        self.server.bind(("127.0.0.1", 0))
        self.server.listen(1)
        self.port = self.server.getsockname()[1]
        self.thread: threading.Thread | None = None

    def serve(self, payload: bytes, close_early_at: int | None = None):
        def run():
            connection, _ = self.server.accept()
            try:
                if close_early_at is None:
                    connection.sendall(payload)
                else:
                    connection.sendall(payload[:close_early_at])
            finally:
                connection.close()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()

    def close(self):
        if self.thread is not None:
            self.thread.join(timeout=5)
        self.server.close()


@pytest.fixture()
def loopback():
    server = _LoopbackServer()
    yield server
    server.close()


class TestSocketChunkSource:
    def test_loopback_round_trip(self, loopback, station_clips):
        clip = station_clips[0]
        frames = (clip.samples.size // 2048) * 2048
        payload = samples_to_pcm16(clip.samples[:frames]).tobytes()
        loopback.serve(payload)
        source = SocketChunkSource(
            port=loopback.port, sample_rate=16000, chunk_size=2048, timeout=5.0
        )
        chunks = list(source)
        received = np.concatenate(chunks)
        assert all(chunk.size == 2048 for chunk in chunks)
        np.testing.assert_allclose(
            received, clip.samples[:frames].clip(-1, 1), atol=1.0 / 32767
        )

    def test_socket_feed_matches_batch_run(self, loopback, station_clips):
        """The acceptance path: a socket-fed extract_stream equals run()."""
        clip = station_clips[0]
        frames = (clip.samples.size // 1024) * 1024
        quantised = samples_to_pcm16(clip.samples[:frames])
        payload = quantised.tobytes()
        loopback.serve(payload)
        pipe = AcousticPipeline().extract(FAST_EXTRACTION).build()
        source = SocketChunkSource(
            port=loopback.port, sample_rate=16000, chunk_size=1024, timeout=5.0
        )
        streamed = pipe.run(source)
        reference = pipe.run(
            quantised.astype(float) / 32767.0, sample_rate=16000
        )
        assert len(streamed.ensembles) == len(reference.ensembles)
        for a, b in zip(streamed.ensembles, reference.ensembles):
            assert a.start == b.start and a.end == b.end
            np.testing.assert_array_equal(a.samples, b.samples)

    def test_mid_stream_disconnect_raises_cleanly(self, loopback):
        payload = samples_to_pcm16(np.zeros(8192)).tobytes()
        loopback.serve(payload, close_early_at=5000)  # not a chunk multiple
        source = SocketChunkSource(
            port=loopback.port, sample_rate=16000, chunk_size=2048, timeout=2.0
        )
        with pytest.raises(ChunkSourceError, match="mid-chunk"):
            list(source)

    def test_stalled_stream_times_out_instead_of_hanging(self, loopback):
        def run():
            connection, _ = loopback.server.accept()
            # Send half a chunk, then go silent without closing.
            connection.sendall(samples_to_pcm16(np.zeros(1024)).tobytes())
            threading.Event().wait(3.0)
            connection.close()

        loopback.thread = threading.Thread(target=run, daemon=True)
        loopback.thread.start()
        source = SocketChunkSource(
            port=loopback.port, sample_rate=16000, chunk_size=2048, timeout=0.5
        )
        with pytest.raises(ChunkSourceError, match="stalled"):
            list(source)

    def test_connection_refused_raises_cleanly(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
        probe.close()
        source = SocketChunkSource(
            port=free_port, sample_rate=16000, chunk_size=64, timeout=0.5
        )
        with pytest.raises(ChunkSourceError, match="connect"):
            list(source)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="chunk_size"):
            SocketChunkSource(chunk_size=0)
        with pytest.raises(ValueError, match="timeout"):
            SocketChunkSource(timeout=0.0)
        with pytest.raises(ValueError, match="sample_rate"):
            SocketChunkSource(sample_rate=0)
