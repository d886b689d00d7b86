"""The cluster wire protocol: length-prefixed JSON framing, one version.

This is the boundary that lets a shard live in another process (or, later,
another host): the dispatcher side and the worker side exchange *frames* over
any pair of byte streams -- a subprocess's stdin/stdout pipes today, a TCP
socket tomorrow.  A frame is::

    +-------+------+----------------+---------------------------+
    | magic | kind | payload length | payload (`length` bytes)  |
    | 2 B   | 1 B  | 4 B big-endian |                           |
    +-------+------+----------------+---------------------------+

``magic`` (``b"RW"``) guards against a foreign stream, ``kind`` names the
payload encoding, and the length prefix bounds the read.  Kind 0 is a bare
JSON object.  Kind 1 is a JSON header followed by one opaque binary segment::

    +----------------+--------------------+--------------------------+
    | JSON length    | JSON header bytes  | binary segment           |
    | 4 B big-endian |                    | payload minus the header |
    +----------------+--------------------+--------------------------+

The *protocol version* is not in the header: the ``hello``/``hello_ack``
handshake states it once per connection, and the two ends must state the same
one (:func:`check_protocol`).  Both ends are always spawned from one source
tree, so there is nothing to negotiate.

Messages are plain dicts with a ``"type"`` key (see :data:`MESSAGE_TYPES`):
``route_batch_request`` -> ``route_response``, ``stats_request`` ->
``stats_response``, ``ping`` -> ``pong``, ``shutdown`` -> ``shutdown_ack``,
and ``error`` for request-scoped failures.
Requests carry a caller-chosen ``"id"`` that the response echoes.  Responses
come back in request order, and a response whose id is not the oldest
request in flight breaks the stream (see :mod:`repro.cluster.procworker`).  JSON keys travel in insertion
order; nothing reads a frame as raw bytes.

Route lists cross the wire in the binary segment of a kind-1 frame, scores as
raw little-endian float64 (:func:`route_lists_to_binary`): every bit survives,
so :func:`repro.core.router.merge_route_lists` ranks identically whether the
candidates were decoded in-process or round-tripped through a worker.  A reply
stays rows until the merge: :func:`route_rows_from_binary`, the one decoder,
returns ``(score, database, tables)`` tuples, which the merge pools as they
are; :func:`route_lists_from_binary` wraps it for callers that want
:class:`~repro.core.router.SchemaRoute` lists.

Protocol 6 ships a traced reply's spans as compact positional rows in the
``route_response``'s ``spans`` field, one per span, parents first::

    [parent row | null, name, started ns, ended ns, status, error, attributes]

(:meth:`repro.obs.trace.TraceContext.span_rows`; times are integer
nanoseconds since the worker's root span started).  Protocol 5's span dicts
-- with a trace id, span ids, a duration and a remote flag on every span --
are gone: the parent knows the trace id, mints span ids and derives the rest.
"""

from __future__ import annotations

import json
import os
import selectors
import struct
import time
from typing import BinaryIO, Callable

from repro.cluster.dispatcher import ClusterError
from repro.core.router import RouteRow, SchemaRoute, schema_routes

#: Bump on message-shape changes.  The handshake accepts exactly this version
#: (6: worker spans travel as positional rows).
PROTOCOL_VERSION = 6

FRAME_MAGIC = b"RW"
#: Payload encodings: bare JSON, or a JSON header + opaque binary segment.
KIND_JSON = 0
KIND_JSON_BINARY = 1
FRAME_HEADER = struct.Struct(">2sBI")
#: The kind-1 intra-payload prefix: length of the JSON header.
BINARY_HEADER = struct.Struct(">I")

#: Key under which a decoded frame carries its binary segment (and senders
#: may attach one).  Underscored so it can never collide with a JSON field:
#: the segment is framing, not part of the message.
BINARY_KEY = "_binary"

#: Frames larger than this are refused on both sides (a 16 MiB batch of
#: routes is far beyond any real scatter wave; the cap bounds a corrupt or
#: hostile length prefix).
MAX_FRAME_BYTES = 16 << 20

#: The compact JSON encoder, built once: ``json.dumps`` with non-default
#: separators builds a fresh encoder on every call.
_encode_json = json.JSONEncoder(separators=(",", ":")).encode

#: Every message type either side may legitimately send.
MESSAGE_TYPES = frozenset({
    "hello", "hello_ack",
    "route_batch_request", "route_response",
    "stats_request", "stats_response",
    "ping", "pong",
    "shutdown", "shutdown_ack",
    "error",
})


class ProtocolError(ClusterError):
    """The byte stream does not carry a well-formed protocol frame."""


class TruncatedFrameError(ProtocolError):
    """The stream ended in the middle of a frame header or payload."""


class FrameTooLargeError(ProtocolError):
    """A frame announced a payload above the size cap."""


class UnknownMessageError(ProtocolError):
    """A well-formed frame carried a message type this side does not know."""


class VersionMismatchError(ProtocolError):
    """The two endpoints speak different protocol versions."""


class TransportTimeoutError(ClusterError):
    """The peer did not produce a complete frame within the deadline."""


# -- encode --------------------------------------------------------------------
def encode_frame(message: dict, *, binary: bytes | None = None,
                 max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Serialize one message dict (plus an optional binary segment) into a
    framed byte string.  A non-None ``binary`` produces a kind-1 frame."""
    message_type = message.get("type")
    if message_type not in MESSAGE_TYPES:
        raise UnknownMessageError(f"cannot encode unknown message type {message_type!r}")
    if BINARY_KEY in message:
        raise ProtocolError(f"message key {BINARY_KEY!r} is reserved for "
                            "decoded binary segments; pass binary= instead")
    header = _encode_json(message).encode("utf-8")
    payload_length = len(header) if binary is None \
        else BINARY_HEADER.size + len(header) + len(binary)
    if payload_length > max_frame_bytes:
        raise FrameTooLargeError(
            f"{message_type} payload is {payload_length} bytes "
            f"(cap {max_frame_bytes})")
    if binary is None:
        return FRAME_HEADER.pack(FRAME_MAGIC, KIND_JSON, payload_length) + header
    return b"".join((FRAME_HEADER.pack(FRAME_MAGIC, KIND_JSON_BINARY, payload_length),
                     BINARY_HEADER.pack(len(header)), header, binary))


def write_frame(stream: BinaryIO, message: dict, *, binary: bytes | None = None,
                max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
    """Frame ``message`` onto ``stream`` and flush it."""
    stream.write(encode_frame(message, binary=binary,
                              max_frame_bytes=max_frame_bytes))
    stream.flush()


# -- decode --------------------------------------------------------------------
def validate_header(header: bytes, max_frame_bytes: int) -> tuple[int, int]:
    """Unpack + validate a frame header; returns ``(kind, payload length)``.

    The single authority on header well-formedness -- both readers and
    :func:`decode_payload` go through it, so a protocol change (say, a second
    payload kind) lands in exactly one place.
    """
    magic, kind, length = FRAME_HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r} (stream is not the "
                            "cluster wire protocol)")
    if kind not in (KIND_JSON, KIND_JSON_BINARY):
        raise ProtocolError(f"unsupported payload kind {kind}")
    if length > max_frame_bytes:
        raise FrameTooLargeError(f"frame announces {length} payload bytes "
                                 f"(cap {max_frame_bytes})")
    return kind, length


def decode_payload(header: bytes, payload: bytes,
                   *, max_frame_bytes: int = MAX_FRAME_BYTES) -> dict:
    """Decode a frame given its full header + payload.

    A kind-1 frame's binary segment is attached to the returned message
    under :data:`BINARY_KEY`; a kind-0 frame never carries that key.
    """
    kind, length = validate_header(header, max_frame_bytes)
    if length != len(payload):
        raise TruncatedFrameError(f"frame announced {length} payload bytes but "
                                  f"carries {len(payload)}")
    binary = None
    if kind == KIND_JSON_BINARY:
        if length < BINARY_HEADER.size:
            raise TruncatedFrameError(
                f"kind-1 frame of {length} bytes cannot hold its JSON-length "
                f"prefix ({BINARY_HEADER.size} bytes)")
        (json_length,) = BINARY_HEADER.unpack_from(payload)
        if BINARY_HEADER.size + json_length > length:
            raise TruncatedFrameError(
                f"kind-1 frame announces a {json_length}-byte JSON header but "
                f"only carries {length - BINARY_HEADER.size} payload bytes")
        binary = payload[BINARY_HEADER.size + json_length:]
        payload = payload[BINARY_HEADER.size:BINARY_HEADER.size + json_length]
    try:
        # Frames are UTF-8 by construction: decoding here spares json.loads
        # its encoding sniff.
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise ProtocolError(f"frame payload is not valid JSON: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError("frame payload must be a JSON object")
    if message.get("type") not in MESSAGE_TYPES:
        raise UnknownMessageError(f"unknown message type {message.get('type')!r}")
    if binary is not None:
        message[BINARY_KEY] = binary
    return message


def read_frame(stream: BinaryIO,
               *, max_frame_bytes: int = MAX_FRAME_BYTES) -> dict | None:
    """Read one frame from a blocking ``stream``.

    Returns ``None`` on a clean EOF *at a frame boundary* (the peer closed the
    connection); raises :class:`TruncatedFrameError` when the stream ends
    mid-frame.
    """
    header = _read_exact(stream, FRAME_HEADER.size, allow_eof=True)
    if header is None:
        return None
    _, length = validate_header(header, max_frame_bytes)
    payload = _read_exact(stream, length, allow_eof=False) if length else b""
    return decode_payload(header, payload, max_frame_bytes=max_frame_bytes)


def _read_exact(stream: BinaryIO, count: int, *, allow_eof: bool) -> bytes | None:
    data = b""
    while len(data) < count:
        chunk = stream.read(count - len(data))
        if not chunk:
            if allow_eof and not data:
                return None
            raise TruncatedFrameError(
                f"stream ended after {len(data)} of {count} expected bytes")
        data += chunk
    return data


class FrameReader:
    """Deadline-capable frame reader over a readable file descriptor.

    The dispatcher side reads worker replies through this: the fd is switched
    to non-blocking and each read waits on a selector, so a per-request
    timeout can fire even while a frame is partially received -- without
    abandoning a thread stuck in a blocking ``read()``.  (The worker side
    keeps the simple blocking :func:`read_frame`; it has nothing better to do
    than wait for its dispatcher.)
    """

    def __init__(self, stream: BinaryIO, *, max_frame_bytes: int = MAX_FRAME_BYTES,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self._fd = stream.fileno()
        self._max_frame_bytes = max_frame_bytes
        self._clock = clock
        self._buffer = b""
        self._eof = False
        #: Total payload+header bytes consumed off the stream (transport
        #: accounting: the dispatcher side surfaces bytes/route in stats).
        self.bytes_read = 0
        os.set_blocking(self._fd, False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._fd, selectors.EVENT_READ)

    def read(self, timeout_seconds: float | None = None) -> dict | None:
        """Read one frame; ``None`` on clean EOF at a frame boundary.

        Raises :class:`TransportTimeoutError` when a complete frame has not
        arrived within ``timeout_seconds`` (the partial bytes stay buffered,
        but callers are expected to kill the peer after a timeout).  A
        deadline already passed still takes a frame that has arrived.
        """
        deadline = None if timeout_seconds is None else self._clock() + timeout_seconds
        header = self._take(FRAME_HEADER.size, deadline, allow_eof=True)
        if header is None:
            return None
        _, length = validate_header(header, self._max_frame_bytes)
        payload = self._take(length, deadline, allow_eof=False) if length else b""
        return decode_payload(header, payload, max_frame_bytes=self._max_frame_bytes)

    def _take(self, count: int, deadline: float | None,
              *, allow_eof: bool) -> bytes | None:
        while len(self._buffer) < count:
            if self._eof:
                if allow_eof and not self._buffer:
                    return None
                raise TruncatedFrameError(
                    f"stream ended after {len(self._buffer)} of {count} expected bytes")
            if deadline is not None:
                if not self._selector.select(max(0.0, deadline - self._clock())):
                    raise TransportTimeoutError(
                        f"no complete frame within the deadline "
                        f"({len(self._buffer)} of {count} bytes buffered)")
            else:
                self._selector.select()
            try:
                chunk = os.read(self._fd, 1 << 16)
            except BlockingIOError:  # spurious wakeup
                continue
            except OSError as error:
                raise TruncatedFrameError(f"read failed: {error}") from error
            if not chunk:
                self._eof = True
                continue
            self._buffer += chunk
            self.bytes_read += len(chunk)
        data, self._buffer = self._buffer[:count], self._buffer[count:]
        return data

    def close(self) -> None:
        try:
            self._selector.unregister(self._fd)
        except (KeyError, ValueError):
            pass
        self._selector.close()


class FrameWriter:
    """Deadline-capable frame writer over a writable file descriptor.

    The dispatcher side sends requests through this: a worker that stops
    draining its stdin (SIGSTOP, swap-death) while a scatter wave larger than
    the OS pipe buffer is in flight would otherwise block ``write()`` forever
    *while holding the proxy's request lock*, wedging ``kill()``/``close()``
    with it.  The fd is switched to non-blocking and each chunk waits on a
    selector, so the per-request deadline covers the write half too.
    """

    def __init__(self, stream: BinaryIO, *, max_frame_bytes: int = MAX_FRAME_BYTES,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self._fd = stream.fileno()
        self._max_frame_bytes = max_frame_bytes
        self._clock = clock
        #: Frame bytes the fd accepted (transport accounting): a write that
        #: times out or breaks mid-frame counts only what went out.
        self.bytes_written = 0
        os.set_blocking(self._fd, False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._fd, selectors.EVENT_WRITE)

    def write(self, message: dict, *, binary: bytes | None = None,
              timeout_seconds: float | None = None) -> None:
        """Frame ``message`` onto the fd, raising
        :class:`TransportTimeoutError` when the peer does not drain it within
        ``timeout_seconds`` (the frame may then be half-sent -- callers are
        expected to kill the peer after a timeout)."""
        data = encode_frame(message, binary=binary,
                            max_frame_bytes=self._max_frame_bytes)
        deadline = None if timeout_seconds is None else self._clock() + timeout_seconds
        while data:
            if deadline is not None:
                remaining = deadline - self._clock()
                if remaining <= 0 or not self._selector.select(remaining):
                    raise TransportTimeoutError(
                        f"peer did not drain the frame within the deadline "
                        f"({len(data)} bytes unsent)")
            else:
                self._selector.select()
            try:
                sent = os.write(self._fd, data)
            except BlockingIOError:  # spurious wakeup
                continue
            self.bytes_written += sent
            data = data[sent:]

    def close(self) -> None:
        try:
            self._selector.unregister(self._fd)
        except (KeyError, ValueError):
            pass
        self._selector.close()


# -- handshake -----------------------------------------------------------------
def hello_message(shard_id: int, databases: tuple[str, ...] | list[str],
                  pid: int) -> dict:
    """The worker's opening frame: who it is and what it speaks."""
    return {"type": "hello", "protocol": PROTOCOL_VERSION, "shard_id": shard_id,
            "databases": list(databases), "pid": pid}


def check_protocol(message: dict) -> None:
    """Validate the version a ``hello`` / ``hello_ack`` states: it must be
    exactly :data:`PROTOCOL_VERSION`."""
    spoken = message.get("protocol")
    if type(spoken) is not int or spoken != PROTOCOL_VERSION:
        raise VersionMismatchError(
            f"peer speaks protocol {spoken!r}, this side speaks "
            f"{PROTOCOL_VERSION}")


# -- route payloads ------------------------------------------------------------
# Scores travel as raw little-endian IEEE 754 doubles (``struct`` round-trips
# every bit) and identifier names travel once, in an interned string table,
# with each route a short int32 index sequence -- no per-route dicts, no float
# formatting.
#
# Segment layout (all little-endian, in this order)::
#
#     counts   : int32[questions]   routes per question
#     scores   : float64[routes]    raw route scores
#     seq_lens : int32[routes]      identifiers per route (1 + len(tables))
#     tokens   : int32[total]       string-table indices: database, tables...
#
# The JSON side of the frame carries the descriptor: the three array lengths
# plus the string table, so the segment size is fully determined before a
# single byte of it is trusted.
def route_lists_to_binary(
        route_lists: list[list[SchemaRoute]]) -> tuple[dict, bytes]:
    """Per-question route lists -> ``(descriptor, binary segment)``."""
    strings: list[str] = []
    interned: dict[str, int] = {}

    def intern(name: str) -> int:
        slot = interned.get(name)
        if slot is None:
            slot = interned[name] = len(strings)
            strings.append(name)
        return slot

    counts = []
    scores = []
    seq_lens = []
    tokens = []
    for routes in route_lists:
        counts.append(len(routes))
        for route in routes:
            scores.append(route.score)
            seq_lens.append(1 + len(route.tables))
            tokens.append(intern(route.database))
            tokens.extend(intern(table) for table in route.tables)
    segment = b"".join((
        struct.pack(f"<{len(counts)}i", *counts),
        struct.pack(f"<{len(scores)}d", *scores),
        struct.pack(f"<{len(seq_lens)}i", *seq_lens),
        struct.pack(f"<{len(tokens)}i", *tokens),
    ))
    descriptor = {"questions": len(counts), "routes": len(scores),
                  "tokens": len(tokens), "strings": strings}
    return descriptor, segment


def route_rows_from_binary(descriptor: dict, segment: bytes) -> list[list[RouteRow]]:
    """Decode the binary route form into ``(score, database, tables)`` rows
    per question; :class:`ProtocolError` on any mismatch between the
    descriptor and the segment (sizes, counts, table indices)."""
    try:
        questions = int(descriptor["questions"])
        routes = int(descriptor["routes"])
        tokens = int(descriptor["tokens"])
        strings = descriptor["strings"]
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError(f"malformed binary route descriptor: {error}") from error
    if not isinstance(strings, list) \
            or min(questions, routes, tokens, 0) < 0:
        raise ProtocolError("malformed binary route descriptor")
    expected = 4 * questions + 8 * routes + 4 * routes + 4 * tokens
    if len(segment) != expected:
        raise ProtocolError(
            f"binary route segment is {len(segment)} bytes, descriptor "
            f"implies {expected}")
    offset = 0
    count_list = struct.unpack_from(f"<{questions}i", segment, offset)
    offset += 4 * questions
    score_list = struct.unpack_from(f"<{routes}d", segment, offset)
    offset += 8 * routes
    length_list = struct.unpack_from(f"<{routes}i", segment, offset)
    offset += 4 * routes
    token_list = struct.unpack_from(f"<{tokens}i", segment, offset)
    if sum(count_list) != routes or (count_list and min(count_list) < 0):
        raise ProtocolError("binary route counts do not sum to the route total")
    if sum(length_list) != tokens or (length_list and min(length_list) < 1):
        raise ProtocolError(
            "binary route sequences do not sum to the token total")
    if token_list and (min(token_list) < 0
                       or max(token_list) >= len(strings)):
        raise ProtocolError("binary route token outside the string table")
    try:
        names = [str(name) for name in strings]
    except ValueError as error:  # pragma: no cover - str() rarely fails
        raise ProtocolError(f"malformed string table: {error}") from error
    rows = []
    token_cursor = 0
    for index, length in enumerate(length_list):
        sequence = token_list[token_cursor:token_cursor + length]
        token_cursor += length
        rows.append((score_list[index], names[sequence[0]],
                     tuple([names[token] for token in sequence[1:]])))
    row_lists: list[list[RouteRow]] = []
    cursor = 0
    for count in count_list:
        row_lists.append(rows[cursor:cursor + count])
        cursor += count
    return row_lists


def route_lists_from_binary(descriptor: dict,
                            segment: bytes) -> list[list[SchemaRoute]]:
    """:func:`route_rows_from_binary` as :class:`SchemaRoute` lists."""
    return schema_routes(route_rows_from_binary(descriptor, segment))


def error_message(request_id: object, error: BaseException) -> dict:
    """An error frame answering the request ``request_id``."""
    return {"type": "error", "id": request_id,
            "error": type(error).__name__, "message": str(error)}
