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
import math
import os
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import transport
from repro.cluster.transport import (
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
    route_response,
    route_rows,
    write_frame,
)
from repro.core.router import SchemaRoute, merge_route_lists, schema_routes


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
         "routes": [[[-0.5, "concert_hall", "singer", "stadium"],
                     [-2.25, "world_atlas"]], []]},
        # a traced reply: the worker's spans as positional rows -- [parent
        # row, name, started ns, ended ns, status, error, attributes]
        {"type": "route_response", "id": 4, "routes": [[]],
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
        header = FRAME_HEADER.pack(FRAME_MAGIC, MAX_FRAME_BYTES + 1)
        with pytest.raises(FrameTooLargeError):
            _read_back(header + b"x" * 16)

    def test_oversized_payload_refused_on_encode(self, monkeypatch):
        monkeypatch.setattr(transport, "MAX_FRAME_BYTES", 32)
        with pytest.raises(FrameTooLargeError):
            encode_frame({"type": "ping", "blob": "x" * 64})

    def test_small_read_cap_rejects_big_but_valid_frames(self, monkeypatch):
        frame = _frame_of({"type": "ping", "payload": "y" * 128})
        monkeypatch.setattr(transport, "MAX_FRAME_BYTES", 64)
        with pytest.raises(FrameTooLargeError):
            read_frame(io.BytesIO(frame))

    def test_foreign_magic_raises(self):
        frame = bytearray(_frame_of({"type": "ping", "id": 1}))
        frame[0:2] = b"GE"  # an HTTP GET is not our protocol
        with pytest.raises(ProtocolError):
            _read_back(bytes(frame))

    def test_non_json_payload_raises(self):
        payload = b"\xff\xfe not json"
        frame = FRAME_HEADER.pack(FRAME_MAGIC, len(payload)) + payload
        with pytest.raises(ProtocolError):
            _read_back(frame)

    def test_non_object_payload_raises(self):
        payload = json.dumps(["route_batch_request"]).encode()
        frame = FRAME_HEADER.pack(FRAME_MAGIC, len(payload)) + payload
        with pytest.raises(ProtocolError):
            _read_back(frame)

    def test_unknown_message_type_raises_on_read(self):
        payload = json.dumps({"type": "route_batch_request_v99"}).encode()
        frame = FRAME_HEADER.pack(FRAME_MAGIC, len(payload)) + payload
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
                  -0.0, 1 / 3, -17.000000000000004,
                  sys.float_info.max, sys.float_info.min, -5e-324]


def _rows_over_the_wire(route_lists):
    """Encode -> frame -> read back -> decode, as a reply travels."""
    return route_rows(_read_back(encode_frame(route_response(1, route_lists))))


def _over_the_wire(route_lists):
    return schema_routes(_rows_over_the_wire(route_lists))


class TestRoutePayloads:
    def test_scores_round_trip_bit_exactly(self):
        routes = [SchemaRoute("db", ("t",), score) for score in AWKWARD_SCORES]
        restored = _over_the_wire([routes])[0]
        for original, back in zip(routes, restored):
            assert back == original
            assert back.score.hex() == original.score.hex()

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_any_finite_score_survives_a_route_response_frame(self, score):
        """``json`` writes a float as its ``repr`` and reads it back correctly
        rounded: every finite double crosses the wire bit for bit."""
        (((back, _, _),),) = _rows_over_the_wire([[SchemaRoute("db", (), score)]])
        assert back.hex() == score.hex()

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

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(st.tuples(
        st.floats(min_value=-50.0, max_value=0.0),
        st.sampled_from(["db1", "db2", "db3"]),
        st.lists(st.sampled_from(["t1", "t2", "t3"]), max_size=3, unique=True)),
        max_size=4), min_size=1, max_size=3))
    def test_merging_wired_rows_ranks_as_the_local_routes(self, shards):
        """The dispatcher merges reply rows as they come off the wire; any
        shard answers, overlapping databases included, rank exactly as the
        in-process routes would."""
        shard_routes = [[SchemaRoute(database, tuple(tables), score)
                         for score, database, tables in shard] for shard in shards]
        local = merge_route_lists(shard_routes, max_candidates=4)
        wired = merge_route_lists([_rows_over_the_wire([routes])[0]
                                   for routes in shard_routes], max_candidates=4)
        assert wired == local
        assert [route.score.hex() for route in wired] \
            == [route.score.hex() for route in local]

    @given(st.text(), st.lists(st.text(), max_size=4))
    def test_any_names_survive_a_route_response_frame(self, database, tables):
        """Names are JSON strings: quotes, escapes, non-ASCII and lone
        surrogates cross the wire unchanged."""
        route = SchemaRoute(database, tuple(tables), -1.0)
        assert _over_the_wire([[route]]) == [[route]]

    def test_a_reply_is_one_row_list_per_question(self):
        reply = route_response(4, [
            [SchemaRoute("concert_hall", ("stadium", "singer"), -0.5)],
            [],
            [SchemaRoute("world_atlas", (), -2.25)]])
        assert reply == {"type": "route_response", "id": 4, "routes": [
            [[-0.5, "concert_hall", "stadium", "singer"]],
            [],
            [[-2.25, "world_atlas"]]]}
        assert route_rows(_read_back(encode_frame(reply))) == [
            [(-0.5, "concert_hall", ("stadium", "singer"))],
            [],
            [(-2.25, "world_atlas", ())]]

    def test_a_reply_to_no_questions_has_no_answers(self):
        assert route_response(5, []) == {"type": "route_response", "id": 5,
                                         "routes": []}
        assert _rows_over_the_wire([]) == []

    def test_a_reply_read_in_pieces_decodes_bit_exactly(self):
        """A reply that reaches :class:`FrameReader` a few bytes at a time
        (as a pipe may hand it over) decodes to the same rows."""
        route_lists = _sample_route_lists()
        frame = encode_frame(route_response(6, route_lists))
        read_fd, write_fd = os.pipe()
        reader_file = os.fdopen(read_fd, "rb", buffering=0)
        writer_file = os.fdopen(write_fd, "wb", buffering=0)
        reader = FrameReader(reader_file)

        def trickle():
            for start in range(0, len(frame), 7):
                writer_file.write(frame[start:start + 7])
                time.sleep(0.001)

        writer = threading.Thread(target=trickle)
        writer.start()
        try:
            reply = reader.read(timeout_seconds=10.0)
        finally:
            writer.join()
            reader.close()
            reader_file.close()
            writer_file.close()
        assert route_rows(reply) == [
            [(route.score, route.database, route.tables) for route in routes]
            for routes in route_lists]

    @pytest.mark.parametrize("size", ["sample", "20480-routes"])
    def test_rows_round_trip_bit_exactly(self, size):
        """The one decoder's rows, read off a real frame, equal the
        in-process routes as ``(score, database, tables)`` to the last bit --
        a reply far beyond any real scatter wave included."""
        route_lists = _sample_route_lists() if size == "sample" \
            else _large_route_lists()
        rows = _rows_over_the_wire(route_lists)
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
         SchemaRoute("world_atlas", ("city",), scores[1]),
         SchemaRoute('the "quoted" hall', ("back\\slash", "caf\u00e9", "\u6b4c\u624b"),
                     scores[2])],
        [],  # a question with no routes still takes a slot
        [SchemaRoute("concert_hall", (), scores[index])
         for index in range(3, len(scores))],
    ]


def _large_route_lists():
    """5 questions x 4 096 routes: 20 480 rows in one reply."""
    scores = AWKWARD_SCORES
    return [
        [SchemaRoute(f"db_{index}_{slot}", (f"t{slot}",),
                     scores[(index * 31 + slot) % len(scores)])
         for slot in range(4096)]
        for index in range(5)
    ]


def _first_row(reply: dict) -> list:
    return reply["routes"][0][0]


def _set_first_row(reply: dict, row) -> dict:
    reply["routes"][0][0] = row
    return reply


#: Every way a route reply can lie, as ``reply -> reply`` over a well-formed
#: sample whose first row is ``[score, "concert_hall", "stadium", "singer"]``.
MALFORMED_ROUTE_PAYLOADS = {
    "routes missing": lambda reply: {"type": reply["type"], "id": reply["id"]},
    "routes not a list": lambda reply: dict(reply, routes={"0": reply["routes"][0]}),
    "answer not a list": lambda reply: dict(reply, routes=[reply["routes"][0][0][0]]),
    "row not a list": lambda reply: _set_first_row(reply, "concert_hall"),
    "one-entry row": lambda reply: _set_first_row(reply, _first_row(reply)[:1]),
    "int score": lambda reply: _set_first_row(reply, [-1, *_first_row(reply)[1:]]),
    "bool score": lambda reply: _set_first_row(reply, [True, *_first_row(reply)[1:]]),
    "str score": lambda reply: _set_first_row(reply, ["-0.5", *_first_row(reply)[1:]]),
    "null score": lambda reply: _set_first_row(reply, [None, *_first_row(reply)[1:]]),
    "non-string database": lambda reply: _set_first_row(
        reply, [_first_row(reply)[0], 7, *_first_row(reply)[2:]]),
    "non-string table": lambda reply: _set_first_row(
        reply, [*_first_row(reply)[:2], None, *_first_row(reply)[3:]]),
    "list table": lambda reply: _set_first_row(
        reply, [*_first_row(reply)[:2], _first_row(reply)[2:]]),
    "empty row": lambda reply: _set_first_row(reply, []),
    "answer null": lambda reply: dict(reply, routes=[None, *reply["routes"][1:]]),
    "NaN score": lambda reply: _set_first_row(
        reply, [math.nan, *_first_row(reply)[1:]]),
    "infinite score": lambda reply: _set_first_row(
        reply, [math.inf, *_first_row(reply)[1:]]),
    "negative infinite score": lambda reply: _set_first_row(
        reply, [-math.inf, *_first_row(reply)[1:]]),
    # a protocol-6 peer's reply: a binary-segment descriptor, no rows
    "binary descriptor": lambda reply: {
        "type": reply["type"], "id": reply["id"],
        "routes_binary": {"questions": 3, "routes": 0, "tokens": 0, "strings": []}},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ROUTE_PAYLOADS))
def test_malformed_route_payload_raises(case):
    """Each lie, read off a real frame, is a :class:`ProtocolError` from the
    one decoder."""
    assert _rows_over_the_wire(_sample_route_lists())  # the sample is well formed
    lying = MALFORMED_ROUTE_PAYLOADS[case](route_response(1, _sample_route_lists()))
    with pytest.raises(ProtocolError):
        route_rows(_read_back(encode_frame(lying)))


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
        reader = FrameReader(reader_file)
        try:
            writer_file.write(FRAME_HEADER.pack(FRAME_MAGIC, MAX_FRAME_BYTES + 1))
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
