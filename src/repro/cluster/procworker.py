"""Multi-process shard workers: a shard in its own interpreter.

The in-process :class:`~repro.cluster.shard.ShardWorker` shares one GIL with
every other shard, so scatter-gather only overlaps the numpy portions of the
decode.  This module moves the worker across a process boundary:

* :func:`worker_main` is the child side -- ``python -m repro.cluster.procworker
  --master DIR --databases NAME ...``.  It loads the master router of a
  cluster checkpoint (the ``master/`` directory ``save_cluster`` writes) and
  projects its shard as a :class:`ShardWorker` -- the very construction an
  inproc fleet makes, from the rule's inputs on its command line (the shard
  count and whether the fleet has a careful tier), so its searches are
  :func:`~repro.cluster.shard.shard_search`'s -- performs
  the ``hello``/``hello_ack`` version handshake on its stdin/stdout pipes,
  and serves :mod:`repro.cluster.transport` frames until a ``shutdown`` frame
  or EOF.

* :class:`ProcShardWorker` is the dispatcher side -- a proxy with the same
  ``send_route_batch`` / ``route_batch`` surface as ``ShardWorker``, so
  :class:`~repro.cluster.replica.ReplicaSet` and
  :class:`~repro.cluster.dispatcher.ClusterDispatcher` work unchanged over the
  wire.  It owns the worker's lifecycle: spawn from a master directory,
  health-check pings, kill on request timeout, automatic respawn after a
  crash, and a graceful ``close()`` that sends ``shutdown`` and waits for
  its ack, which follows every earlier reply.

Replies come back **in order**: many frames ride the pipe at once, and the
child is one thread -- it reads a frame, answers it, and reads the next, so
a careful-tier frame decodes before the fast-tier frames queued behind it,
and a ``ping`` is answered after the frames ahead of it.  The dispatcher
side runs no thread: the caller that waits reads the pipe itself, settling
the oldest frame in flight with each reply it reads, until its own frame is
answered.  A reply for any other frame breaks the stream like a truncated
frame.  A request that misses its deadline kills the process (a wedged
decode cannot be cancelled politely) -- and with it fails *every* in-flight
request; auto-respawn then boots a clean child for the next request.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from repro.cluster.dispatcher import ClusterError, ShardTimeoutError
from repro.cluster.shard import ShardWorker
from repro.cluster.transport import (
    FrameReader,
    FrameTooLargeError,
    FrameWriter,
    PROTOCOL_VERSION,
    ProtocolError,
    TransportTimeoutError,
    check_protocol,
    error_message,
    hello_message,
    read_frame,
    route_response,
    route_rows,
    write_frame,
)
from repro.core.router import RouteRow, SchemaRoute, SchemaRouter, schema_routes
from repro.obs import Tracer

if TYPE_CHECKING:
    # Only the parent spawns and reaps a child (``_open_child``,
    # ``_wait_for_exit``), which import ``subprocess`` where they run: a
    # worker never loads it.
    import subprocess

#: Env var (seconds, float) that makes the child sleep before serving any
#: *careful* route request -- the injectable slow shard the ordering, health
#: and chaos tests drive.  The sleep runs on the serve loop, so every frame
#: queued behind a careful frame waits for it too.  An env var rather than
#: an argument so tests reach the children spawned deep inside checkpoint
#: boot paths.
SLOW_CAREFUL_ENV = "REPRO_PROCWORKER_TEST_SLOW_CAREFUL"


class WorkerCrashedError(ClusterError):
    """The worker process died (EOF / broken pipe) before answering."""


class WorkerError(ClusterError):
    """The worker answered a request with an ``error`` frame."""


# -- child side ----------------------------------------------------------------
def serve(worker: ShardWorker, reader, writer,
          *, slow_careful_seconds: float = 0.0) -> None:
    """Handshake, then answer frames until ``shutdown`` or EOF.

    One loop on the calling thread: read a frame, answer it, read the next.
    Replies leave in arrival order (the parent checks each reply's id
    against its oldest frame in flight), a careful frame decodes before the
    frames queued behind it, and a ``ping`` is answered after the frames
    ahead of it -- so a ``shutdown`` is read only once every earlier frame
    has been answered, and its ack is the last reply.  Request-scoped
    failures (a malformed batch, an unexpected exception in the router)
    answer with an ``error`` frame and keep serving; stream-level corruption
    is fatal -- once framing is lost there is nothing left to trust.
    """
    write_frame(writer, hello_message(worker.shard_id, worker.databases, os.getpid()))
    ack = read_frame(reader)
    if ack is None:
        return  # dispatcher went away before acking; nothing to serve
    if ack.get("type") != "hello_ack":
        raise ProtocolError(f"expected hello_ack, got {ack.get('type')!r}")
    check_protocol(ack)
    # The worker's one tracer: adopted spans land in its journal
    # (``stats()["traces"]``) AND travel back in ``route_response.spans`` as
    # positional rows (``TraceContext.span_rows``), to be stitched into the
    # dispatcher's trace.  It starts no trace of its own; ``adopt`` ignores
    # the disabled flag: a frame carrying a trace id is the instruction to
    # trace.
    tracer = Tracer(enabled=False)

    def route(message: dict) -> dict:
        careful = bool(message.get("careful", False))
        if slow_careful_seconds > 0.0 and careful:
            time.sleep(slow_careful_seconds)  # injected slow shard (tests)
        questions = list(message["questions"])
        wire_trace = message.get("trace")
        context = None
        if isinstance(wire_trace, dict) and wire_trace.get("trace_id"):
            context = tracer.adopt(
                str(wire_trace["trace_id"]),
                wire_trace.get("parent_span_id"),
                name="worker", shard=worker.shard_id, pid=os.getpid())
        try:
            routes = worker.route_batch(
                questions,
                max_candidates=message.get("max_candidates"),
                careful=careful,
                trace=context)
        except Exception as error:
            if context is not None:
                context.finish(status="error",
                               error=f"{type(error).__name__}: {error}")
            raise
        reply = route_response(message.get("id"), routes)
        if context is not None:
            context.finish()
            reply["spans"] = context.span_rows()
        return reply

    while True:
        message = read_frame(reader)
        if message is None:
            return  # dispatcher closed the pipe: treat as shutdown
        request_id = message.get("id")
        kind = message.get("type")
        try:
            if kind == "route_batch_request":
                reply = route(message)
            elif kind == "stats_request":
                reply = {"type": "stats_response", "id": request_id,
                         "stats": {**worker.stats(),
                                   "traces": tracer.journal.stats()}}
            elif kind == "ping":
                reply = {"type": "pong", "id": request_id, "pid": os.getpid()}
            elif kind == "shutdown":
                write_frame(writer, {"type": "shutdown_ack", "id": request_id})
                return
            else:
                reply = error_message(
                    request_id,
                    ProtocolError(f"worker cannot handle message type {kind!r}"))
        except Exception as error:  # request-scoped: report, keep serving
            reply = error_message(request_id, error)
        try:
            write_frame(writer, reply)
        except FrameTooLargeError as error:
            # An oversized *reply* is request-scoped too: answer with an
            # error frame instead of dying -- otherwise the dispatcher would
            # retry the same lethal batch against every freshly-respawned
            # replica.
            write_frame(writer, error_message(request_id, error))


def worker_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.procworker",
        description="Serve one cluster shard over stdin/stdout frames.")
    parser.add_argument("--master", required=True,
                        help="the master router checkpoint directory")
    parser.add_argument("--databases", nargs="*", required=True,
                        help="the databases this shard projects the master onto")
    parser.add_argument("--shard-id", type=int, default=0)
    parser.add_argument("--num-shards", type=int, default=1,
                        help="how many shards the fleet has")
    parser.add_argument("--careful-tier", action="store_true",
                        help="the fleet runs the escalation cascade")
    arguments = parser.parse_args(argv)

    # The frame stream owns fd 1.  Re-point sys.stdout at stderr so a stray
    # print() inside the router cannot corrupt the framing.
    writer = sys.stdout.buffer
    sys.stdout = sys.stderr
    reader = sys.stdin.buffer

    try:
        slow_careful = float(os.environ.get(SLOW_CAREFUL_ENV, "0") or "0")
    except ValueError:
        slow_careful = 0.0

    worker = ShardWorker(arguments.shard_id, tuple(arguments.databases),
                         SchemaRouter.from_checkpoint(arguments.master),
                         arguments.num_shards, arguments.careful_tier)
    try:
        serve(worker, reader, writer, slow_careful_seconds=slow_careful)
    except (BrokenPipeError, ProtocolError):
        return 1  # dispatcher vanished or the stream corrupted; nothing to save
    return 0


# -- dispatcher side -----------------------------------------------------------
def _repro_source_root() -> Path:
    """The directory that must be on the child's PYTHONPATH to import repro."""
    import repro

    return Path(repro.__file__).resolve().parents[1]


def _wait_for_exit(process: subprocess.Popen, timeout_seconds: float) -> None:
    """Wait up to ``timeout_seconds`` for ``process`` to exit, and no longer."""
    import subprocess

    try:
        process.wait(timeout=timeout_seconds)
    except subprocess.TimeoutExpired:
        pass


class _PendingRequest:
    """One in-flight frame: its id, its deadline, and how it settled."""

    __slots__ = ("request_id", "deadline", "reply", "error")

    def __init__(self, request_id: int) -> None:
        self.request_id = request_id
        self.deadline: float | None = None
        self.reply: dict | None = None
        self.error: BaseException | None = None


class ProcShardWorker:
    """A shard worker living in a subprocess, driven over the wire protocol.

    Quacks like :class:`ShardWorker` for the replica/dispatch layers
    (``send_route_batch`` / ``stats`` / ``close`` / ``databases``), plus
    process lifecycle:

    * **spawn** -- boots ``python -m repro.cluster.procworker`` on a master
      router directory, told which ``databases`` to project it onto for one
      shard of ``num_shards`` (with a careful tier or not), and runs the
      version handshake;
    * **timeout** -- a request that misses ``request_timeout_seconds`` kills
      the process (a wedged decode cannot be cancelled politely) and raises
      :class:`ShardTimeoutError`; every *other* in-flight request on the dead
      pipe fails as :class:`WorkerCrashedError`.  The replica layer counts
      both and fails over;
    * **crash** -- EOF, a truncated frame or a reply out of order fails every
      request in flight as :class:`WorkerCrashedError`, and is counted once,
      by whoever meets it first: the reading caller, or the next request.
      With ``auto_respawn`` the next request transparently boots a fresh
      process from the same master (counted in ``respawns``);
    * **close** -- sends ``shutdown`` at once: the child reads it only after
      answering every earlier frame, so its ack follows every in-flight
      reply.  Escalates to ``kill`` only if the worker does not exit in
      time.

    Many frames ride the pipe at once and no thread serves it: the callers
    that wait take turns reading (:meth:`_await`).  Locking: ``_lifecycle``
    (an RLock) guards spawn/destroy/close and the writer; ``_settled`` (a
    Condition) guards the in-flight queue, its counters and the reading
    role.  The reader never takes ``_lifecycle``, so ``_destroy`` can kill
    the child (EOF wakes the reader) and wait for it to step down.
    """

    def __init__(self, shard_id: int, master_dir: str | Path,
                 databases: Sequence[str], *,
                 num_shards: int = 1,
                 careful_tier: bool = False,
                 request_timeout_seconds: float | None = None,
                 control_timeout_seconds: float = 10.0,
                 spawn_timeout_seconds: float = 60.0,
                 auto_respawn: bool = True,
                 python_executable: str | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.shard_id = shard_id
        #: What the child projects: ``master_dir`` onto these databases as
        #: one shard of ``num_shards`` (``databases`` is what the child
        #: announces).
        self.master_dir = Path(master_dir)
        self.projected_databases = tuple(databases)
        self.num_shards = num_shards
        self.careful_tier = careful_tier
        self.request_timeout_seconds = request_timeout_seconds
        #: Control-plane frames (stats / ping / shutdown) answer
        #: without decoding, so they get their own, generous deadline -- a
        #: tight data-path timeout must not kill a worker mid-stats-poll.
        self.control_timeout_seconds = control_timeout_seconds
        self.spawn_timeout_seconds = spawn_timeout_seconds
        self.auto_respawn = auto_respawn
        self.python_executable = python_executable or sys.executable
        self.databases: tuple[str, ...] = ()
        self.respawns = -1  # first _spawn() brings it to 0
        self.requests_sent = 0
        self.timeouts = 0
        self.crashes = 0
        self._clock = clock
        #: When the child last answered anything (set at handshake and on
        #: every reply) -- the heartbeat the health probe ages.
        self.last_reply_at: float | None = None
        #: ``Popen`` -> ``hello_ack`` seconds of the live child on the injected
        #: clock: what a boot (and so an ``auto_respawn``) holds a wave for.
        self.spawn_seconds = 0.0
        #: Recent respawn timestamps (the boot is not one), for the
        #: crash-loop (respawn-velocity) probe; bounded, since only the
        #: probe's window ever matters.
        self._respawn_times: deque[float] = deque(maxlen=32)
        self._request_id = 0
        #: Lifecycle lock: spawn / destroy / close / the writer.  Reentrant
        #: so the request path can destroy-and-respawn under it.
        self._lifecycle = threading.RLock()
        #: Guards the in-flight queue, its counters and the reading role; its
        #: waiters are the callers whose frames have not settled.
        self._settled = threading.Condition(threading.Lock())
        #: Frames in flight, oldest first: the next reply answers the head.
        self._in_flight: deque[_PendingRequest] = deque()
        self._reading = False
        self._max_in_flight = 0
        self._pipelined_frames = 0
        #: Nobody may read this connection any more: it failed (the crash is
        #: counted), missed a deadline or is being torn down.
        self._stream_dead = False
        #: Byte counters accumulated across respawns (live halves come from
        #: the current reader/writer).
        self._bytes_sent_total = 0
        self._bytes_received_total = 0
        self._process: subprocess.Popen | None = None
        self._reader: FrameReader | None = None
        self._writer: FrameWriter | None = None
        #: Set by ``close()``: no new request may be sent.
        self._closed = False
        self._spawn()

    # -- lifecycle -------------------------------------------------------------
    def _command(self) -> list[str]:
        command = [self.python_executable, "-m", "repro.cluster.procworker",
                   "--master", str(self.master_dir),
                   "--databases", *self.projected_databases,
                   "--shard-id", str(self.shard_id),
                   "--num-shards", str(self.num_shards)]
        if self.careful_tier:
            command.append("--careful-tier")
        return command

    def _open_child(self) -> tuple[subprocess.Popen, FrameReader, FrameWriter]:
        """Start the child process and wrap its pipes: the one place a
        connection is made (tests override it to script both ends)."""
        import subprocess

        environment = dict(os.environ)
        source_root = str(_repro_source_root())
        existing = environment.get("PYTHONPATH")
        environment["PYTHONPATH"] = source_root if not existing \
            else os.pathsep.join([source_root, existing])
        process = subprocess.Popen(
            self._command(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=environment)
        return process, FrameReader(process.stdout), FrameWriter(process.stdin)

    def _spawn(self) -> None:
        spawn_started = self._clock()
        self._process, self._reader, self._writer = self._open_child()
        self.respawns += 1
        try:
            hello = self._reader.read(timeout_seconds=self.spawn_timeout_seconds)
            if hello is None:
                raise WorkerCrashedError(
                    f"shard {self.shard_id} worker exited during startup "
                    f"(code {self._process.poll()})")
            if hello.get("type") != "hello":
                raise ProtocolError(f"expected hello, got {hello.get('type')!r}")
            check_protocol(hello)
            self.databases = tuple(hello.get("databases", ()))
            self._writer.write({"type": "hello_ack",
                                "protocol": PROTOCOL_VERSION},
                               timeout_seconds=self.spawn_timeout_seconds)
            self.last_reply_at = self._clock()
            self.spawn_seconds = self.last_reply_at - spawn_started
            if self.respawns:
                self._respawn_times.append(self.last_reply_at)
        except TransportTimeoutError as error:
            self._destroy()
            raise ShardTimeoutError(
                f"shard {self.shard_id} worker did not complete the handshake "
                f"within {self.spawn_timeout_seconds}s") from error
        except Exception:
            self._destroy()
            raise
        self._stream_dead = False

    def _fail_in_flight_locked(self, make_error: Callable[[], BaseException]) -> None:
        """Fail every frame in flight (each gets its own exception instance,
        since they are raised on different caller threads).  The caller
        holds ``_settled``."""
        while self._in_flight:
            self._in_flight.popleft().error = make_error()
        self._settled.notify_all()

    def _fail_stream_locked(self, description: str) -> None:
        """The connection broke: count the crash and fail every frame in
        flight -- unless the stream is dead already (counted, timed out or
        torn down on purpose).  The caller holds ``_settled``."""
        if self._stream_dead:
            return
        self._stream_dead = True
        self.crashes += 1
        self._fail_in_flight_locked(lambda: WorkerCrashedError(description))

    def _destroy(self) -> None:
        """Hard-stop the child, fail anything in flight, release its pipes."""
        with self._lifecycle:
            with self._settled:
                # A deliberate stop: the EOF the kill causes is no crash.
                self._stream_dead = True
                self._fail_in_flight_locked(lambda: WorkerCrashedError(
                    f"shard {self.shard_id} worker was stopped with requests "
                    f"in flight"))
            process, self._process = self._process, None
            reader, self._reader = self._reader, None
            writer, self._writer = self._writer, None
            if process is not None:
                if process.poll() is None:
                    process.kill()
                _wait_for_exit(process, 5.0)
            # The kill closed the child's end: EOF wakes an active reader,
            # which steps down before its FrameReader is closed.
            with self._settled:
                self._settled.wait_for(lambda: not self._reading, timeout=5.0)
            if reader is not None:
                self._bytes_received_total += reader.bytes_read
                reader.close()
            if writer is not None:
                self._bytes_sent_total += writer.bytes_written
                writer.close()
            if process is not None:
                for pipe in (process.stdin, process.stdout):
                    if pipe is not None:
                        try:
                            pipe.close()
                        except OSError:
                            pass

    @property
    def process(self) -> subprocess.Popen | None:
        return self._process

    @property
    def pid(self) -> int | None:
        process = self._process  # snapshot: a timing-out request may _destroy
        return process.pid if process is not None else None

    def is_alive(self) -> bool:
        process = self._process  # snapshot: a timing-out request may _destroy
        return process is not None and process.poll() is None

    @property
    def in_flight(self) -> int:
        """How many requests ride the pipe right now."""
        return len(self._in_flight)

    def kill(self) -> None:
        """Hard-kill the child (the crash-injection path used by tests)."""
        self._destroy()

    def crash(self) -> None:
        """Chaos hook: SIGKILL the child, as an OOM kill would, without
        telling the proxy -- whoever reads the stream next (a waiting
        caller, or the next request) meets the EOF, counts the crash and
        fails whatever frames are in flight.  (A frame asking the child to
        die would queue behind its decodes.)"""
        with self._lifecycle:
            process = self._process
            if process is None or process.poll() is not None:
                return
            process.kill()
        _wait_for_exit(process, self.control_timeout_seconds)

    def respawn(self) -> None:
        """Kill (if needed) and boot a fresh process from the master."""
        with self._lifecycle:
            self._destroy()
            self._spawn()

    def _ensure_alive_locked(self) -> None:
        if self._closed:
            raise RuntimeError("the worker proxy has been closed")
        if self.is_alive() and not self._stream_dead:
            return
        if self._process is not None:
            with self._settled:  # it died with nothing in flight to read
                self._fail_stream_locked(
                    f"shard {self.shard_id} worker died between requests "
                    f"(exit code {self._process.poll()})")
        if not self.auto_respawn:
            raise WorkerCrashedError(f"shard {self.shard_id} worker is not running")
        self._destroy()
        self._spawn()

    # -- request path ----------------------------------------------------------
    def _begin_request(self, message: dict, timeout_seconds: float | None,
                       *, ensure: bool = True,
                       trace_context: Callable[[], dict] | None = None,
                       ) -> tuple[_PendingRequest, int]:
        """Queue a pending entry and write the frame.

        Returns ``(pending entry, in-flight depth at send)``; the entry's
        deadline counts from the send.  The entry is queued *before* the
        write, so a reply can never race past its own bookkeeping.
        """
        with self._lifecycle:
            if self._closed:
                raise RuntimeError("the worker proxy has been closed")
            if ensure:
                self._ensure_alive_locked()
            elif self._stream_dead or not self.is_alive():
                raise WorkerCrashedError(
                    f"shard {self.shard_id} worker is not running")
            self._request_id += 1
            pending = _PendingRequest(self._request_id)
            message = dict(message, id=pending.request_id)
            if trace_context is not None:
                message["trace"] = trace_context()
            with self._settled:
                self._in_flight.append(pending)
                depth = len(self._in_flight)
                self._max_in_flight = max(self._max_in_flight, depth)
                self._pipelined_frames += depth > 1
            self.requests_sent += 1
            try:
                self._writer.write(message, timeout_seconds=timeout_seconds)
            except TransportTimeoutError as error:
                self.timeouts += 1
                self._destroy()  # a wedged pipe cannot be drained politely
                raise ShardTimeoutError(
                    f"shard {self.shard_id} worker did not drain "
                    f"{message['type']} within {timeout_seconds}s") from error
            except OSError as error:  # a broken pipe
                description = f"shard {self.shard_id} worker pipe broke mid-request"
                with self._settled:
                    self._fail_stream_locked(description)
                self._destroy()
                raise WorkerCrashedError(description) from error
        if timeout_seconds is not None:
            pending.deadline = self._clock() + timeout_seconds
        return pending, depth

    def _await(self, pending: _PendingRequest) -> bool:
        """Wait until ``pending`` settles; ``False`` if its deadline passes
        first.  A group commit: while nobody reads, the waiter reads, one
        frame at a time within its own deadline, each settling the oldest
        frame in flight, until its own settles; the others sleep until
        theirs settles, the reader steps down or their deadline passes.  A
        missed deadline leaves the stream dead -- a frame may be half read --
        for the caller to kill."""
        with self._settled:
            while pending.reply is None and pending.error is None:
                remaining = None if pending.deadline is None \
                    else max(0.0, pending.deadline - self._clock())
                if not (self._reading or self._stream_dead):
                    if not self._read_reply_locked(remaining):
                        self._stream_dead = True
                        return False
                elif remaining == 0.0:
                    self._stream_dead = True
                    return False
                else:
                    self._settled.wait(remaining)
            return True

    def _read_reply_locked(self, remaining: float | None) -> bool:
        """Read one reply outside the lock and settle the oldest frame in
        flight with it; ``False`` if none came within ``remaining`` seconds.
        A reply for any other frame (a settled one included) breaks the
        stream like EOF.  The caller holds ``_settled``."""
        self._reading, reader = True, self._reader
        self._settled.release()
        try:
            reply = reader.read(timeout_seconds=remaining)
        except TransportTimeoutError:
            return False
        except ProtocolError as error:  # a truncated or corrupt frame
            reply = error
        finally:
            self._settled.acquire()
            self._reading = False
            self._settled.notify_all()
        head = self._in_flight[0] if self._in_flight else None
        if isinstance(reply, dict) and head is not None \
                and reply.get("id") == head.request_id:
            self._in_flight.popleft()
            head.reply = reply
            self.last_reply_at = self._clock()
            return True
        if isinstance(reply, dict):
            reply = ProtocolError(f"reply for request {reply.get('id')!r} is "
                                  f"not for the oldest request in flight")
        self._fail_stream_locked(
            f"shard {self.shard_id} worker died mid-request" if reply is None
            else f"shard {self.shard_id} worker reply stream failed "
                 f"({type(reply).__name__}: {reply})")
        return True

    def _await_reply(self, pending: _PendingRequest, expected: str,
                     timeout_seconds: float | None, label: str) -> dict:
        """Wait for this request's reply, reading the pipe if nobody else is.

        A deadline miss -- counted from the send -- kills the process
        (failing every other in-flight frame with it) and raises
        :class:`ShardTimeoutError`.
        """
        if not self._await(pending):
            with self._lifecycle:
                self.timeouts += 1
                self._destroy()
            raise ShardTimeoutError(
                f"shard {self.shard_id} worker did not answer "
                f"{label} within {timeout_seconds}s")
        if pending.error is not None:
            raise pending.error
        reply = pending.reply
        if reply.get("type") == "error":
            raise WorkerError(f"shard {self.shard_id} worker: "
                              f"{reply.get('error')}: {reply.get('message')}")
        if reply.get("type") != expected:
            self._destroy()  # correlation broke: cannot trust the stream
            raise ProtocolError(
                f"expected {expected} for request {pending.request_id}, got "
                f"{reply.get('type')!r}")
        return reply

    def send_route_batch(self, questions: list[str], max_candidates: int | None = None,
                         careful: bool = False, trace=None) -> Callable[[], list]:
        """Write one scatter wave's frame; its ``wait`` returns the reply's
        ``(score, database, tables)`` rows per question (they stay rows until
        the dispatcher's merge), with ``request_timeout_seconds`` counted
        from the send.

        With a ``trace``, a ``wire`` span covers send to reply and is tagged
        with the in-flight depth at send time; the propagation context rides
        the request frame and the worker's own spans come back in the reply
        as positional rows, kept under the ``wire`` span and rebased into it
        when the trace is read."""
        span = trace.start_span("wire", shard=self.shard_id,
                                questions=len(questions)) \
            if trace is not None else None
        try:
            message = {"type": "route_batch_request",
                       "questions": list(questions),
                       "max_candidates": max_candidates, "careful": careful}
            pending, depth = self._begin_request(
                message, self.request_timeout_seconds,
                trace_context=(lambda: trace.wire_context(span))
                if span is not None else None)
        except BaseException as exc:
            if span is not None:
                span.end(status="error", error=f"{type(exc).__name__}: {exc}")
            raise
        if span is not None:
            span.annotate(in_flight=depth)

        def wait() -> list[list[RouteRow]]:
            try:
                reply = self._await_reply(pending, "route_response",
                                          self.request_timeout_seconds,
                                          "route_batch_request")
                routes = route_rows(reply)
                if len(routes) != len(questions):
                    raise ProtocolError(
                        f"worker answered {len(routes)} route lists "
                        f"for {len(questions)} questions")
            except BaseException as exc:
                if span is not None:
                    span.end(status="error", error=f"{type(exc).__name__}: {exc}")
                raise
            if span is not None:
                span.end()
                remote_spans = reply.get("spans")
                if remote_spans:
                    trace.add_remote_spans(remote_spans, anchor=span)
            return routes

        return wait

    def route_batch(self, questions: list[str], max_candidates: int | None = None,
                    careful: bool = False, trace=None) -> list[list[SchemaRoute]]:
        """Route one scatter wave in the worker process: send, then wait."""
        return schema_routes(
            self.send_route_batch(questions, max_candidates, careful, trace)())

    def ping(self, timeout_seconds: float | None = None,
             *, ensure: bool = True) -> float:
        """Heartbeat: round-trip one ``ping`` frame, returning seconds taken.

        The child answers frames in arrival order, so the pong comes after
        every frame already on the pipe: the round trip includes their
        decodes.  ``ensure=False`` never boots a process as a side effect
        (the health probe's mode)."""
        timeout = timeout_seconds or self.control_timeout_seconds
        started = self._clock()
        pending, _ = self._begin_request({"type": "ping"}, timeout, ensure=ensure)
        self._await_reply(pending, "pong", timeout, "ping")
        return self._clock() - started

    def set_databases(self, databases: tuple[str, ...], master) -> None:
        raise ClusterError(
            "subprocess shard workers cannot be re-projected live; rebalance "
            "the cluster checkpoint and respawn the worker instead")

    # -- introspection ---------------------------------------------------------
    def health(self):
        """Liveness, heartbeat age and respawn velocity.

        Like :meth:`stats`, this never boots a process as a side effect: a
        dead child reports ``failing`` and leaves respawning to the request
        path (or an operator).  A heartbeat older than
        ``HEARTBEAT_MAX_AGE_SECONDS`` is re-checked with one ping.  The pong
        queues behind every frame already on the pipe, so a worker that has
        answered nothing for that long and then misses the ping's
        ``control_timeout_seconds`` is reported ``failing`` -- and killed by
        the ping's deadline, like any unanswered request.  The crash-loop
        budget counts respawns only, never the boot."""
        from repro.obs.health import (
            HEARTBEAT_MAX_AGE_SECONDS,
            MAX_RESPAWNS_IN_WINDOW,
            RESPAWN_WINDOW_SECONDS,
            HealthReport,
        )

        report = HealthReport(component=f"shard-{self.shard_id}-procworker")
        report.details.update(pid=self.pid, respawns=self.respawns,
                              timeouts=self.timeouts, crashes=self.crashes,
                              in_flight=self.in_flight,
                              spawn_seconds=self.spawn_seconds)
        if self._closed:
            report.degrade("failing", "worker proxy is closed")
            return report
        if not self.is_alive() or self._stream_dead:
            report.degrade("failing", "worker process is not running")
            return report
        now = self._clock()
        recent = sum(1 for at in self._respawn_times
                     if now - at <= RESPAWN_WINDOW_SECONDS)
        report.details["recent_respawns"] = recent
        if recent > MAX_RESPAWNS_IN_WINDOW:
            report.degrade("degraded",
                           f"{recent} respawns in the last "
                           f"{RESPAWN_WINDOW_SECONDS:g}s (crash loop)")
        age = now - self.last_reply_at if self.last_reply_at is not None else None
        report.details["heartbeat_age_seconds"] = (
            round(age, 3) if age is not None else None)
        if age is not None and age > HEARTBEAT_MAX_AGE_SECONDS:
            try:
                seconds = self.ping(self.control_timeout_seconds, ensure=False)
            except (ClusterError, ProtocolError, RuntimeError):
                report.degrade("failing",
                               f"no reply for {age:.0f}s and the "
                               f"health ping failed")
            else:
                report.details["heartbeat_check"] = \
                    f"ping answered in {seconds:.3f}s"
        return report

    def transport_stats(self) -> dict:
        reader = self._reader  # snapshots: a concurrent destroy may None them
        writer = self._writer
        return {
            "backend": "subprocess",
            "pid": self.pid,
            "alive": self.is_alive(),
            "protocol": PROTOCOL_VERSION,
            "respawns": self.respawns,
            "spawn_seconds": self.spawn_seconds,
            "requests_sent": self.requests_sent,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "in_flight": self.in_flight,
            # Highest in-flight depth reached, and frames sent while another
            # was already in flight.
            "max_in_flight": self._max_in_flight,
            "pipelined_frames": self._pipelined_frames,
            "bytes_sent": self._bytes_sent_total
            + (writer.bytes_written if writer is not None else 0),
            "bytes_received": self._bytes_received_total
            + (reader.bytes_read if reader is not None else 0),
        }

    def _shell_stats(self) -> dict:
        """What a dead/unreachable worker reports: its shard + transport truth."""
        return {"shard_id": self.shard_id, "databases": list(self.databases),
                "transport": self.transport_stats()}

    def stats(self) -> dict:
        """The worker's own stats (its shard and its trace journal) plus
        transport-level accounting.

        A dead worker -- including one that dies *during* the poll -- reports
        an empty shell (zero counters) instead of respawning or raising:
        ``stats()`` is the monitoring path, and it must never boot a process
        as a side effect nor crash the cluster-wide rollup exactly when a
        shard goes down.
        """
        if self._closed or self._stream_dead or not self.is_alive():
            return self._shell_stats()
        try:
            pending, _ = self._begin_request(
                {"type": "stats_request"}, self.control_timeout_seconds,
                ensure=False)
            reply = self._await_reply(pending, "stats_response",
                                      self.control_timeout_seconds,
                                      "stats_request")
        except (ClusterError, ProtocolError, RuntimeError):
            return self._shell_stats()  # crashed / timed out / closed mid-poll
        stats = reply["stats"]
        stats["transport"] = self.transport_stats()
        return stats

    # -- shutdown --------------------------------------------------------------
    def close(self, shutdown_timeout_seconds: float = 10.0) -> None:
        """Graceful stop: ``shutdown``, wait for its ack -- which the child
        sends after every earlier reply -- then escalate to a hard kill only
        if the worker does not exit in time."""
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
            process = self._process
            if process is None or process.poll() is not None or self._stream_dead:
                self._destroy()
                return
            self._request_id += 1
            pending = _PendingRequest(self._request_id)
            with self._settled:
                self._in_flight.append(pending)
            try:
                self._writer.write({"type": "shutdown", "id": pending.request_id},
                                   timeout_seconds=shutdown_timeout_seconds)
            except (ClusterError, OSError):
                self._destroy()  # stream already gone: straight to the kill
                return
        pending.deadline = self._clock() + shutdown_timeout_seconds
        # The child reads the shutdown only after answering every frame sent
        # before it, so the ack means every in-flight request has its reply.
        self._await(pending)
        _wait_for_exit(process, shutdown_timeout_seconds)  # else the hard stop
        self._destroy()

    def __enter__(self) -> "ProcShardWorker":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "alive" if self.is_alive() else "dead"
        return (f"ProcShardWorker(shard_id={self.shard_id}, pid={self.pid}, "
                f"{state}, master={str(self.master_dir)!r})")


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(worker_main())
