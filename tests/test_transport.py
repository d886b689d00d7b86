"""Wire-protocol tests: framing round-trips, malformed streams, deadlines.

The protocol is the trust boundary between the dispatcher and its subprocess
workers, so the tests lean adversarial: every way a stream can lie about
itself (truncated, oversized, foreign, unknown types, wrong version) must map
to a *specific* exception, and everything that round-trips must round-trip
bit-exactly -- scores included, because the cross-shard merge ranks on them.
"""

from __future__ import annotations

import io
import json
import os
import struct
import threading
import time

import pytest

from repro.cluster.transport import (
    BINARY_HEADER,
    BINARY_KEY,
    FRAME_HEADER,
    FRAME_MAGIC,
    MAX_FRAME_BYTES,
    MESSAGE_TYPES,
    PROTOCOL_VERSION,
    FrameReader,
    FrameTooLargeError,
    FrameWriter,
    ProtocolError,
    TransportTimeoutError,
    TruncatedFrameError,
    UnknownMessageError,
    VersionMismatchError,
    check_protocol,
    encode_frame,
    error_message,
    hello_message,
    read_frame,
    route_lists_from_binary,
    route_lists_to_binary,
    route_rows_from_binary,
    write_frame,
)
from repro.core.router import SchemaRoute, merge_route_lists


def _frame_of(message: dict) -> bytes:
    return encode_frame(message)


def _read_back(data: bytes):
    return read_frame(io.BytesIO(data))


# -- round trips ---------------------------------------------------------------
class TestFraming:
    SAMPLE_MESSAGES = [
        {"type": "hello", "protocol": PROTOCOL_VERSION, "shard_id": 3,
         "databases": ["a", "b"], "pid": 42},
        {"type": "hello_ack", "protocol": PROTOCOL_VERSION},
        {"type": "route_batch_request", "id": 2, "questions": ["q1", "q2"],
         "max_candidates": None, "careful": True},
        {"type": "route_response", "id": 2,
         "routes_binary": {"questions": 2, "routes": 0, "tokens": 0,
                           "strings": []}},
        # a traced reply: the worker's spans as positional rows -- [parent
        # row, name, started ns, ended ns, status, error, attributes]
        {"type": "route_response", "id": 4,
         "routes_binary": {"questions": 1, "routes": 0, "tokens": 0,
                           "strings": []},
         "spans": [[None, "worker", 0, 81980, "ok", None, {"shard": 0}],
                   [0, "encode", 14026, 18061, "ok", None, {"questions": 1}],
                   [0, "decode", 56991, 69226, "error", "ValueError: boom",
                    {"backend": "vectorized", "steps": 9}],
                   [0, "parse", 75841, 79182, "ok", None, {}]]},
        {"type": "stats_request", "id": 3},
        {"type": "stats_response", "id": 3, "stats": {"counters": {"requests": 7}}},
        {"type": "ping", "id": 5},
        {"type": "pong", "id": 5, "pid": 42},
        {"type": "shutdown", "id": 6},
        {"type": "shutdown_ack", "id": 6},
        {"type": "error", "id": 7, "error": "ValueError", "message": "boom"},
    ]

    @pytest.mark.parametrize("message", SAMPLE_MESSAGES,
                             ids=[m["type"] + ("-spans" if "spans" in m else "")
                                  for m in SAMPLE_MESSAGES])
    def test_every_message_type_round_trips(self, message):
        assert _read_back(_frame_of(message)) == message

    def test_frames_concatenate_cleanly(self):
        stream = io.BytesIO(_frame_of({"type": "ping", "id": 1})
                            + _frame_of({"type": "pong", "id": 1}))
        assert read_frame(stream)["type"] == "ping"
        assert read_frame(stream)["type"] == "pong"
        assert read_frame(stream) is None  # clean EOF at a frame boundary

    def test_write_frame_flushes_the_stream(self):
        class Recorder(io.BytesIO):
            flushed = False

            def flush(self):
                self.flushed = True
                return super().flush()

        stream = Recorder()
        write_frame(stream, {"type": "ping", "id": 9})
        assert stream.flushed
        assert _read_back(stream.getvalue()) == {"type": "ping", "id": 9}

    def test_empty_stream_is_clean_eof(self):
        assert _read_back(b"") is None


# -- malformed streams ---------------------------------------------------------
class TestMalformedStreams:
    def test_truncated_header_raises(self):
        frame = _frame_of({"type": "ping", "id": 1})
        for cut in range(1, FRAME_HEADER.size):
            with pytest.raises(TruncatedFrameError):
                _read_back(frame[:cut])

    def test_truncated_payload_raises(self):
        frame = _frame_of({"type": "ping", "id": 1})
        for cut in range(FRAME_HEADER.size, len(frame)):
            with pytest.raises(TruncatedFrameError):
                _read_back(frame[:cut])

    def test_oversized_frame_refused_on_read(self):
        header = FRAME_HEADER.pack(FRAME_MAGIC, 0, MAX_FRAME_BYTES + 1)
        with pytest.raises(FrameTooLargeError):
            _read_back(header + b"x" * 16)

    def test_oversized_payload_refused_on_encode(self):
        with pytest.raises(FrameTooLargeError):
            encode_frame({"type": "ping", "blob": "x" * 64}, max_frame_bytes=32)

    def test_small_read_cap_rejects_big_but_valid_frames(self):
        frame = _frame_of({"type": "ping", "payload": "y" * 128})
        with pytest.raises(FrameTooLargeError):
            read_frame(io.BytesIO(frame), max_frame_bytes=64)

    def test_foreign_magic_raises(self):
        frame = bytearray(_frame_of({"type": "ping", "id": 1}))
        frame[0:2] = b"GE"  # an HTTP GET is not our protocol
        with pytest.raises(ProtocolError):
            _read_back(bytes(frame))

    def test_unknown_payload_kind_raises(self):
        payload = json.dumps({"type": "ping"}).encode()
        frame = FRAME_HEADER.pack(FRAME_MAGIC, 9, len(payload)) + payload
        with pytest.raises(ProtocolError):
            _read_back(frame)

    def test_non_json_payload_raises(self):
        payload = b"\xff\xfe not json"
        frame = FRAME_HEADER.pack(FRAME_MAGIC, 0, len(payload)) + payload
        with pytest.raises(ProtocolError):
            _read_back(frame)

    def test_non_object_payload_raises(self):
        payload = json.dumps(["route_batch_request"]).encode()
        frame = FRAME_HEADER.pack(FRAME_MAGIC, 0, len(payload)) + payload
        with pytest.raises(ProtocolError):
            _read_back(frame)

    def test_unknown_message_type_raises_on_read(self):
        payload = json.dumps({"type": "route_batch_request_v99"}).encode()
        frame = FRAME_HEADER.pack(FRAME_MAGIC, 0, len(payload)) + payload
        with pytest.raises(UnknownMessageError):
            _read_back(frame)

    def test_unknown_message_type_refused_on_encode(self):
        with pytest.raises(UnknownMessageError):
            encode_frame({"type": "teleport"})

    @pytest.mark.parametrize("retired", ["invalidate_cache", "ok"])
    def test_the_retired_cache_frames_are_unknown(self, retired):
        """No worker holds a route cache, so no frame invalidates one."""
        with pytest.raises(UnknownMessageError):
            encode_frame({"type": retired, "id": 4})

    def test_every_prefix_of_every_sample_fails_loudly_or_cleanly(self):
        """Property: any prefix of a valid frame either reads as clean EOF
        (empty), raises a protocol error, or is the complete frame."""
        for message in TestFraming.SAMPLE_MESSAGES:
            frame = _frame_of(message)
            for cut in range(len(frame) + 1):
                prefix = frame[:cut]
                if cut == 0:
                    assert _read_back(prefix) is None
                elif cut < len(frame):
                    with pytest.raises(ProtocolError):
                        _read_back(prefix)
                else:
                    assert _read_back(prefix) == message


# -- version handshake ---------------------------------------------------------
class TestHandshake:
    def test_hello_announces_identity_and_version(self):
        hello = hello_message(2, ("db_a", "db_b"), 1234)
        assert hello == {"type": "hello", "protocol": PROTOCOL_VERSION,
                         "shard_id": 2, "databases": ["db_a", "db_b"], "pid": 1234}
        check_protocol(hello)  # does not raise

    @pytest.mark.parametrize("spoken", [0, PROTOCOL_VERSION - 1,
                                        PROTOCOL_VERSION + 1, 99, None,
                                        str(PROTOCOL_VERSION),
                                        float(PROTOCOL_VERSION), True])
    def test_version_mismatch_raises(self, spoken):
        """Equality, not a range: yesterday's peer is refused like tomorrow's."""
        with pytest.raises(VersionMismatchError):
            check_protocol({"type": "hello", "protocol": spoken})

    def test_error_message_shape(self):
        frame = error_message(17, ValueError("no such shard"))
        assert frame == {"type": "error", "id": 17, "error": "ValueError",
                         "message": "no such shard"}
        assert _read_back(_frame_of(frame)) == frame


# -- route payloads ------------------------------------------------------------
AWKWARD_SCORES = [0.1 + 0.2, -1.5e-300, -123.456789012345678, 5e-324,
                  -0.0, 1 / 3, -17.000000000000004]


def _over_the_wire(route_lists):
    """Encode -> frame -> read back -> decode, as a reply travels."""
    descriptor, segment = route_lists_to_binary(route_lists)
    back = _read_back(encode_frame({"type": "route_response", "id": 1,
                                    "routes_binary": descriptor},
                                   binary=segment))
    return route_lists_from_binary(back["routes_binary"], back[BINARY_KEY])


class TestRoutePayloads:
    def test_scores_round_trip_bit_exactly(self):
        routes = [SchemaRoute("db", ("t",), score) for score in AWKWARD_SCORES]
        restored = _over_the_wire([routes])[0]
        for original, back in zip(routes, restored):
            assert back == original
            assert back.score.hex() == original.score.hex()

    def test_merge_is_invariant_under_serialization(self):
        """The acceptance property: merging shard answers that crossed the
        wire must rank identically to merging the in-process originals."""
        shard_a = [SchemaRoute("db1", ("t1", "t2"), -1.3000000000000007),
                   SchemaRoute("db2", ("t3",), -2.0999999999999996)]
        shard_b = [SchemaRoute("db3", ("t4",), -1.2999999999999998),
                   SchemaRoute("db1", ("t1",), -4.7)]
        local = merge_route_lists([shard_a, shard_b], max_candidates=3)
        wired = merge_route_lists([_over_the_wire([routes])[0]
                                   for routes in (shard_a, shard_b)],
                                  max_candidates=3)
        assert wired == local

    def test_rows_round_trip_bit_exactly(self):
        """The one decoder's rows, read off a real frame, equal the
        in-process routes as ``(score, database, tables)`` to the last bit."""
        route_lists = _sample_route_lists()
        descriptor, segment = route_lists_to_binary(route_lists)
        back = _read_back(encode_frame({"type": "route_response", "id": 1,
                                        "routes_binary": descriptor},
                                       binary=segment))
        rows = route_rows_from_binary(back["routes_binary"], back[BINARY_KEY])
        local = [[(route.score, route.database, route.tables) for route in routes]
                 for routes in route_lists]
        assert rows == local
        assert [[(score.hex(), type(tables)) for score, _, tables in row_list]
                for row_list in rows] \
            == [[(score.hex(), tuple) for score, _, _ in row_list] for row_list in local]


def _sample_route_lists():
    scores = AWKWARD_SCORES
    return [
        [SchemaRoute("concert_hall", ("stadium", "singer"), scores[0]),
         SchemaRoute("world_atlas", ("city",), scores[1])],
        [],  # a question with no routes still takes a slot
        [SchemaRoute("concert_hall", (), scores[index])
         for index in range(2, len(scores))],
    ]


def _lie_in_segment(segment: bytes, offset: int, delta: int) -> bytes:
    """``segment`` with the int32 at ``offset`` moved by ``delta``: a count
    that lies while the segment keeps the size its descriptor implies."""
    lying = bytearray(segment)
    (value,) = struct.unpack_from("<i", lying, offset)
    struct.pack_into("<i", lying, offset, value + delta)
    return bytes(lying)


#: Every way a route reply can lie, as ``(descriptor, segment) -> (descriptor,
#: segment)`` over a well-formed sample.  The seq_lens array starts after
#: three question counts and seven float64 scores.
MALFORMED_ROUTE_PAYLOADS = {
    "no descriptor": lambda descriptor, segment: (None, b""),
    "missing fields": lambda descriptor, segment: ({"questions": 1, "routes": 1}, b""),
    "count not a number": lambda descriptor, segment: (
        {"questions": "not-a-count", "routes": 0, "tokens": 0, "strings": []}, b""),
    "truncated": lambda descriptor, segment: (descriptor, segment[:-1]),
    "padded": lambda descriptor, segment: (descriptor, segment + b"\x00"),
    "lying route total": lambda descriptor, segment: (
        dict(descriptor, routes=descriptor["routes"] + 1), segment),
    "lying question count": lambda descriptor, segment: (
        descriptor, _lie_in_segment(segment, 0, 1)),
    "lying sequence length": lambda descriptor, segment: (
        descriptor, _lie_in_segment(segment, 4 * 3 + 8 * 7, 1)),
    "token out of range": lambda descriptor, segment: (
        dict(descriptor, strings=descriptor["strings"][:-1]), segment),
    "string table not a list": lambda descriptor, segment: (
        dict(descriptor, strings="concert_hall"), segment),
}


@pytest.mark.parametrize("decoder", [route_rows_from_binary, route_lists_from_binary],
                         ids=["rows", "routes"])
@pytest.mark.parametrize("case", sorted(MALFORMED_ROUTE_PAYLOADS))
def test_malformed_route_payload_raises_through_either_decoder(decoder, case):
    """The adapter adds no check and skips none: each malformed payload is a
    :class:`ProtocolError` from the row decoder and from the adapter."""
    descriptor, segment = route_lists_to_binary(_sample_route_lists())
    assert route_rows_from_binary(descriptor, segment)  # the sample is well formed
    with pytest.raises(ProtocolError):
        decoder(*MALFORMED_ROUTE_PAYLOADS[case](descriptor, segment))


class TestBinaryRoutePayloads:
    def _route_lists(self):
        return _sample_route_lists()

    def test_binary_segment_round_trips_bit_exactly(self):
        route_lists = self._route_lists()
        descriptor, segment = route_lists_to_binary(route_lists)
        # the descriptor is plain JSON; the segment is raw bytes
        descriptor = json.loads(json.dumps(descriptor))
        restored = route_lists_from_binary(descriptor, segment)
        assert restored == route_lists
        for routes, back in zip(route_lists, restored):
            for original, decoded in zip(routes, back):
                assert decoded.score.hex() == original.score.hex()

    def test_string_table_is_interned(self):
        descriptor, _ = route_lists_to_binary(self._route_lists())
        strings = descriptor["strings"]
        assert len(strings) == len(set(strings))  # each name stored once
        assert set(strings) == {"concert_hall", "stadium", "singer",
                                "world_atlas", "city"}

    def test_binary_frame_round_trips(self):
        descriptor, segment = route_lists_to_binary(self._route_lists())
        message = {"type": "route_response", "id": 9,
                   "routes_binary": descriptor}
        frame = encode_frame(message, binary=segment)
        back = _read_back(frame)
        assert back.pop(BINARY_KEY) == segment
        assert back == message
        assert route_lists_from_binary(back["routes_binary"], segment) \
            == self._route_lists()

    def test_binary_key_is_reserved_on_encode(self):
        with pytest.raises(ProtocolError):
            encode_frame({"type": "route_response", "id": 1, BINARY_KEY: b"x"})

    def test_every_prefix_of_a_binary_frame_fails_loudly_or_cleanly(self):
        """The kind-1 truncation sweep: cutting a binary frame anywhere --
        header, JSON sub-header, or mid-segment -- must read as clean EOF
        (empty) or raise, never hand back a short segment as complete."""
        descriptor, segment = route_lists_to_binary(self._route_lists())
        frame = encode_frame({"type": "route_response", "id": 5,
                              "routes_binary": descriptor}, binary=segment)
        for cut in range(len(frame)):
            prefix = frame[:cut]
            if cut == 0:
                assert _read_back(prefix) is None
            else:
                with pytest.raises(ProtocolError):
                    _read_back(prefix)
        restored = _read_back(frame)
        assert restored[BINARY_KEY] == segment

    def test_lying_json_length_raises(self):
        """A kind-1 frame whose JSON sub-header length overruns the payload
        is truncation, not an index error."""
        payload = json.dumps({"type": "ping", "id": 1}).encode()
        body = BINARY_HEADER.pack(len(payload) + 50) + payload
        frame = FRAME_HEADER.pack(FRAME_MAGIC, 1, len(body)) + body
        with pytest.raises(TruncatedFrameError):
            _read_back(frame)

    def test_a_20480_route_segment_round_trips_bit_exactly(self):
        """One codec for every size: a segment far beyond any real scatter
        wave takes the same path as a three-route reply."""
        scores = AWKWARD_SCORES
        route_lists = [
            [SchemaRoute(f"db_{index}_{slot}", (f"t{slot}",),
                         scores[(index * 31 + slot) % len(scores)])
             for slot in range(4096)]
            for index in range(5)
        ]
        descriptor, segment = route_lists_to_binary(route_lists)
        assert descriptor["routes"] == 20480
        restored = route_lists_from_binary(
            json.loads(json.dumps(descriptor)), segment)
        assert restored == route_lists
        for routes, back in zip(route_lists, restored):
            for original, decoded in zip(routes, back):
                assert decoded.score.hex() == original.score.hex()


class TestHotPathEncoding:
    def test_hot_path_frames_skip_key_sorting(self):
        """No frame is key-sorted: the encoder keeps insertion order, so the
        same dict always encodes to the same bytes, and the reader accepts
        any order."""
        message = {"type": "route_batch_request", "id": 1, "questions": ["q"],
                   "careful": False}
        reordered = {key: message[key] for key in reversed(list(message))}
        assert encode_frame(message) == encode_frame(dict(message))
        assert encode_frame(message) != encode_frame(reordered)
        assert _read_back(encode_frame(message)) \
            == _read_back(encode_frame(reordered))


# -- the deadline-capable reader ----------------------------------------------
class TestFrameReader:
    def _pipe(self):
        read_fd, write_fd = os.pipe()
        return os.fdopen(read_fd, "rb", buffering=0), os.fdopen(write_fd, "wb",
                                                                buffering=0)

    def test_reads_whole_frames(self):
        reader_file, writer_file = self._pipe()
        reader = FrameReader(reader_file)
        try:
            writer_file.write(_frame_of({"type": "ping", "id": 1})
                              + _frame_of({"type": "pong", "id": 1}))
            assert reader.read(timeout_seconds=5.0)["type"] == "ping"
            assert reader.read(timeout_seconds=5.0)["type"] == "pong"
            writer_file.close()
            assert reader.read(timeout_seconds=5.0) is None
        finally:
            reader.close()
            reader_file.close()

    def test_timeout_fires_when_no_frame_arrives(self):
        reader_file, writer_file = self._pipe()
        reader = FrameReader(reader_file)
        try:
            started = time.monotonic()
            with pytest.raises(TransportTimeoutError):
                reader.read(timeout_seconds=0.05)
            assert time.monotonic() - started < 2.0
        finally:
            reader.close()
            reader_file.close()
            writer_file.close()

    def test_a_passed_deadline_still_takes_a_frame_that_arrived(self):
        reader_file, writer_file = self._pipe()
        reader = FrameReader(reader_file)
        try:
            writer_file.write(_frame_of({"type": "pong", "id": 3}))
            assert reader.read(timeout_seconds=0.0) == {"type": "pong", "id": 3}
            with pytest.raises(TransportTimeoutError):
                reader.read(timeout_seconds=0.0)
        finally:
            reader.close()
            reader_file.close()
            writer_file.close()

    def test_partial_frame_survives_a_timeout_then_completes(self):
        """A timeout must not lose buffered bytes: once the rest arrives the
        frame reads whole (callers usually kill the peer, but the reader
        itself stays consistent)."""
        reader_file, writer_file = self._pipe()
        reader = FrameReader(reader_file)
        frame = _frame_of({"type": "ping", "id": 7})
        try:
            writer_file.write(frame[:5])
            with pytest.raises(TransportTimeoutError):
                reader.read(timeout_seconds=0.05)
            writer_file.write(frame[5:])
            assert reader.read(timeout_seconds=5.0) == {"type": "ping", "id": 7}
        finally:
            reader.close()
            reader_file.close()
            writer_file.close()

    def test_eof_mid_frame_is_truncation(self):
        reader_file, writer_file = self._pipe()
        reader = FrameReader(reader_file)
        frame = _frame_of({"type": "ping", "id": 3})
        try:
            writer_file.write(frame[: len(frame) - 2])
            writer_file.close()
            with pytest.raises(TruncatedFrameError):
                reader.read(timeout_seconds=5.0)
        finally:
            reader.close()
            reader_file.close()

    def test_slow_writer_still_completes_within_deadline(self):
        """A frame that arrives one byte per ``os.read`` still reads whole
        within one deadline.  The reader reads its clock once for the
        deadline and once before each wait for bytes; the writer sends the
        next byte only after such a read, so no two bytes share a read."""
        frame = _frame_of({"type": "stats_request", "id": 11})
        clock_reads = threading.Semaphore(0)
        now = [0.0]

        def stepped_clock() -> float:
            now[0] += 0.001
            clock_reads.release()
            return now[0]

        reader_file, writer_file = self._pipe()
        reader = FrameReader(reader_file, clock=stepped_clock)

        def dribble():
            assert clock_reads.acquire(timeout=10.0)  # the deadline's read
            for byte in frame:
                assert clock_reads.acquire(timeout=10.0)  # the reader waits
                writer_file.write(bytes([byte]))

        thread = threading.Thread(target=dribble, daemon=True)
        try:
            thread.start()
            assert reader.read(timeout_seconds=10.0) == {"type": "stats_request",
                                                         "id": 11}
            # one clock read per byte, plus the deadline's: one byte per read
            assert now[0] == pytest.approx(0.001 * (len(frame) + 1))
            assert reader.bytes_read == len(frame)
        finally:
            thread.join()
            reader.close()
            reader_file.close()
            writer_file.close()

    def test_oversized_frame_detected_before_payload_arrives(self):
        reader_file, writer_file = self._pipe()
        reader = FrameReader(reader_file, max_frame_bytes=64)
        try:
            writer_file.write(FRAME_HEADER.pack(FRAME_MAGIC, 0, 1 << 20))
            with pytest.raises(FrameTooLargeError):
                reader.read(timeout_seconds=5.0)
        finally:
            reader.close()
            reader_file.close()
            writer_file.close()


class TestFrameWriter:
    def _pipe(self):
        read_fd, write_fd = os.pipe()
        return os.fdopen(read_fd, "rb", buffering=0), os.fdopen(write_fd, "wb",
                                                                buffering=0)

    def test_written_frames_read_back(self):
        reader_file, writer_file = self._pipe()
        writer = FrameWriter(writer_file)
        try:
            writer.write({"type": "ping", "id": 1}, timeout_seconds=5.0)
            writer.write({"type": "shutdown", "id": 2})
            assert read_frame(reader_file) == {"type": "ping", "id": 1}
            assert read_frame(reader_file) == {"type": "shutdown", "id": 2}
        finally:
            writer.close()
            writer_file.close()
            reader_file.close()

    def test_deadline_fires_when_the_peer_stops_draining(self):
        """A frame larger than the pipe buffer against a reader that never
        reads must hit the deadline instead of blocking forever (the wedged-
        worker case that would otherwise deadlock the proxy's request lock)."""
        reader_file, writer_file = self._pipe()
        writer = FrameWriter(writer_file)
        big = {"type": "route_batch_request", "id": 1,
               "questions": ["x" * 1024] * 1024}  # ~1 MiB >> pipe buffer
        try:
            started = time.monotonic()
            with pytest.raises(TransportTimeoutError):
                writer.write(big, timeout_seconds=0.05)
            assert time.monotonic() - started < 2.0
            # only what the pipe accepted is counted: less than the frame,
            # and exactly what the peer can read back
            assert 0 < writer.bytes_written < len(encode_frame(big))
            os.set_blocking(reader_file.fileno(), False)
            drained = 0
            while chunk := reader_file.read(1 << 16):
                drained += len(chunk)
            assert drained == writer.bytes_written
        finally:
            writer.close()
            writer_file.close()
            reader_file.close()


def test_message_type_registry_is_closed():
    """Every sample message used above is registered, and the registry has no
    types the tests never exercise (keeps protocol and tests in lockstep)."""
    exercised = {m["type"] for m in TestFraming.SAMPLE_MESSAGES}
    assert exercised == set(MESSAGE_TYPES)
