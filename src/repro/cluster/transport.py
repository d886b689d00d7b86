"""The cluster wire protocol: length-prefixed JSON framing, one version.

This is the boundary that lets a shard live in another process (or, later,
another host): the dispatcher side and the worker side exchange *frames* over
any pair of byte streams -- a subprocess's stdin/stdout pipes today, a TCP
socket tomorrow.  A frame is::

    +-------+----------------+----------------------------------------+
    | magic | payload length | payload: one JSON object (`length` B)  |
    | 2 B   | 4 B big-endian |                                        |
    +-------+----------------+----------------------------------------+

``magic`` (``b"RW"``) guards against a foreign stream and the length prefix
bounds the read; every message, route replies included, is one UTF-8 JSON
object.

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

A ``route_response`` carries its answers as plain JSON rows, one list per
question and one ``[score, database, *tables]`` row per candidate
(:func:`route_response`).  ``json`` writes a float as its ``repr`` and reads
it back correctly rounded, so every finite score crosses bit for bit and
:func:`repro.core.router.merge_route_lists` ranks identically whether the
candidates were decoded in-process or round-tripped through a worker.  A
reply stays rows until the merge: :func:`route_rows`, the one decoder,
validates the rows and returns ``(score, database, tables)`` tuples, which
the merge pools as they are.

A traced reply ships its spans as compact positional rows in the
``route_response``'s ``spans`` field, one per span, parents first::

    [parent row | null, name, started ns, ended ns, status, error, attributes]

(:meth:`repro.obs.trace.TraceContext.span_rows`; times are integer
nanoseconds since the worker's root span started).  Protocol 5's span dicts
-- with a trace id, span ids, a duration and a remote flag on every span --
are gone: the parent knows the trace id, mints span ids and derives the rest.
"""

from __future__ import annotations

import json
import math
import os
import selectors
import struct
import time
from typing import BinaryIO, Callable

from repro.cluster.dispatcher import ClusterError
from repro.core.router import RouteRow, SchemaRoute

#: Bump on message-shape changes.  The handshake accepts exactly this version
#: (7: one payload kind, route replies as JSON rows).
PROTOCOL_VERSION = 7

FRAME_MAGIC = b"RW"
FRAME_HEADER = struct.Struct(">2sI")

#: Frames larger than this are refused on both sides (a 16 MiB batch of
#: routes is far beyond any real scatter wave; the cap bounds a corrupt or
#: hostile length prefix).  Read at call time, so a test may patch it.
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
def encode_frame(message: dict) -> bytes:
    """Serialize one message dict into a framed byte string."""
    message_type = message.get("type")
    if message_type not in MESSAGE_TYPES:
        raise UnknownMessageError(f"cannot encode unknown message type {message_type!r}")
    payload = _encode_json(message).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameTooLargeError(
            f"{message_type} payload is {len(payload)} bytes "
            f"(cap {MAX_FRAME_BYTES})")
    return FRAME_HEADER.pack(FRAME_MAGIC, len(payload)) + payload


def write_frame(stream: BinaryIO, message: dict) -> None:
    """Frame ``message`` onto ``stream`` and flush it."""
    stream.write(encode_frame(message))
    stream.flush()


# -- decode --------------------------------------------------------------------
def validate_header(header: bytes) -> int:
    """Unpack + validate a frame header; returns the payload length.

    The single authority on header well-formedness: both readers go
    through it.
    """
    magic, length = FRAME_HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r} (stream is not the "
                            "cluster wire protocol)")
    if length > MAX_FRAME_BYTES:
        raise FrameTooLargeError(f"frame announces {length} payload bytes "
                                 f"(cap {MAX_FRAME_BYTES})")
    return length


def decode_payload(payload: bytes) -> dict:
    """Decode a frame's payload: one JSON object of a known message type."""
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
    return message


def read_frame(stream: BinaryIO) -> dict | None:
    """Read one frame from a blocking ``stream``.

    Returns ``None`` on a clean EOF *at a frame boundary* (the peer closed the
    connection); raises :class:`TruncatedFrameError` when the stream ends
    mid-frame.
    """
    header = _read_exact(stream, FRAME_HEADER.size, allow_eof=True)
    if header is None:
        return None
    length = validate_header(header)
    return decode_payload(_read_exact(stream, length, allow_eof=False))


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

    def __init__(self, stream: BinaryIO, *,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self._fd = stream.fileno()
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
        length = validate_header(header)
        return decode_payload(self._take(length, deadline, allow_eof=False))

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

    def __init__(self, stream: BinaryIO, *,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self._fd = stream.fileno()
        self._clock = clock
        #: Frame bytes the fd accepted (transport accounting): a write that
        #: times out or breaks mid-frame counts only what went out.
        self.bytes_written = 0
        os.set_blocking(self._fd, False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._fd, selectors.EVENT_WRITE)

    def write(self, message: dict, *, timeout_seconds: float | None = None) -> None:
        """Frame ``message`` onto the fd, raising
        :class:`TransportTimeoutError` when the peer does not drain it within
        ``timeout_seconds`` (the frame may then be half-sent -- callers are
        expected to kill the peer after a timeout)."""
        data = encode_frame(message)
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
def route_response(request_id: object,
                   route_lists: list[list[SchemaRoute]]) -> dict:
    """The ``route_response`` answering ``request_id``: per question, one
    ``[score, database, *tables]`` row per candidate."""
    return {"type": "route_response", "id": request_id,
            "routes": [[[route.score, route.database, *route.tables]
                        for route in routes] for routes in route_lists]}


def route_rows(reply: dict) -> list[list[RouteRow]]:
    """A ``route_response``'s answers as ``(score, database, tables)`` rows
    per question; :class:`ProtocolError` unless ``routes`` is a list of lists
    of ``[float, str, *str]`` rows (an int, bool or null score is refused:
    ``json`` reads every float the encoder wrote as a float; so is a ``NaN``
    or infinite one, which ``json`` reads too but no decode ever scores and
    which would unsettle the merge's ranking)."""
    answers = reply.get("routes")
    if type(answers) is not list:
        raise ProtocolError(f"route_response routes is a "
                            f"{type(answers).__name__}, not a list")
    row_lists: list[list[RouteRow]] = []
    for answer in answers:
        if type(answer) is not list:
            raise ProtocolError(f"route_response answer is a "
                                f"{type(answer).__name__}, not a list")
        rows = []
        for row in answer:
            if type(row) is not list or len(row) < 2 or type(row[0]) is not float:
                raise ProtocolError("route row is not [score, database, *tables]")
            if not math.isfinite(row[0]):
                raise ProtocolError(f"route row scores {row[0]!r}, not a finite float")
            for name in row[1:]:
                if type(name) is not str:
                    raise ProtocolError(f"route row names a "
                                        f"{type(name).__name__}, not a string")
            rows.append((row[0], row[1], tuple(row[2:])))
        row_lists.append(rows)
    return row_lists


def error_message(request_id: object, error: BaseException) -> dict:
    """An error frame answering the request ``request_id``."""
    return {"type": "error", "id": request_id,
            "error": type(error).__name__, "message": str(error)}
