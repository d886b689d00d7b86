"""The request lifecycle of the shard wire, written down and enumerated.

One conversation happens on the wire, so its lifecycle is small enough to
check exhaustively -- a workflow net with a little data attached (request
ids, counters), in the sense of *Model Checking of Workflow Nets with Tables
and Constraints* (arXiv 2307.03685).  The two tables below are the net; the
model interprets a schedule on them, the harness replays the same schedule
on the real :class:`ProcShardWorker` -- over a scripted reader, a recording
writer and a fake process, the seam ``_open_child`` exists for -- and the two
must agree, for three in-flight ``route_batch`` frames and

* every permutation of their replies,
* a crash (EOF, or a reply stream that stops mid-frame) after every prefix,
* ``kill()`` and ``close()`` after every prefix, and a ``close()`` whose
  ``shutdown`` is acked after the outstanding replies,
* a late reply for every id that has already settled.

Nothing here sleeps or reads the wall clock: every wait is a blocking
hand-off with the thread that produces the awaited thing.  The deadline
edge -- a reply that never comes -- is checked twice: here on a hand-stepped
clock (a deadline counts from the send, not from the wait), and in
``test_timeout_mid_wave_kills_the_worker_and_fails_peers`` in
``test_procworker.py``, against a real stopped child.
"""

from __future__ import annotations

import queue
import subprocess
import threading
from itertools import permutations

import pytest

from repro.cluster.dispatcher import ShardTimeoutError
from repro.cluster.procworker import ProcShardWorker, WorkerCrashedError
from repro.cluster.transport import (
    BINARY_KEY,
    PROTOCOL_VERSION,
    TruncatedFrameError,
    route_lists_to_binary,
)
from repro.core.router import SchemaRoute

# -- the net -------------------------------------------------------------------
#: (frame state, event) -> frame state.  ``settled`` is the only final state.
FRAME_TABLE = {
    ("registered", "write"): "sent",
    ("sent", "reply"): "replied",
    ("sent", "eof"): "crashed",
    ("sent", "truncated"): "crashed",
    ("sent", "kill"): "drained",
    ("sent", "close"): "drained",
    ("replied", "return"): "settled",
    ("crashed", "raise"): "settled",
    ("drained", "raise"): "settled",
    ("settled", "late"): "settled",
}
#: (worker state, event) -> worker state.
WORKER_TABLE = {
    ("up", "reply"): "up",
    ("up", "late"): "up",
    ("up", "eof"): "dead",
    ("up", "truncated"): "dead",
    ("up", "kill"): "dead",
    ("up", "close"): "closed",
    ("up", "drain"): "draining",
    ("draining", "reply"): "draining",
    ("draining", "ack"): "closed",
    # health() / stats() never boot a process ...
    ("up", "health"): "up",
    ("dead", "health"): "dead",
    ("closed", "health"): "closed",
    # ... the next request does, exactly once
    ("up", "request"): "up",
    ("dead", "request"): "respawning",
    ("respawning", "hello"): "up",
}
#: Faults the receiver counts as a crash (the others are deliberate stops).
CRASHES = ("eof", "truncated")
FAULTS = CRASHES + ("kill", "close")
FRAMES = (0, 1, 2)


def schedules() -> list[tuple]:
    """Every schedule, in one fixed order."""
    found = []
    for order in permutations(FRAMES):
        replies = tuple(("reply", frame) for frame in order)
        found.append(replies)
        for cut in range(len(order) + 1):
            for fault in FAULTS:
                found.append(replies[:cut] + ((fault,),))
            if cut < len(order):
                found.append(replies[:cut] + (("drain",),) + replies[cut:])
        for cut in range(1, len(order) + 1):
            for late in order[:cut]:
                found.append(replies[:cut] + (("late", late),) + replies[cut:])
    return list(dict.fromkeys(found))


def model(schedule: tuple) -> dict:
    """Interpret ``schedule`` on the tables: how each frame settles, what the
    worker ends as and becomes on the next request, how many crashes the
    receiver counted -- and which table rows it took to say so."""
    rows = {"frame": {("registered", "write")}, "worker": set()}
    states = dict.fromkeys(FRAMES, FRAME_TABLE["registered", "write"])
    outcomes = {}

    def frame_step(frame: int, event: str) -> str:
        rows["frame"].add((states[frame], event))
        states[frame] = FRAME_TABLE[states[frame], event]
        return states[frame]

    def worker_step(state: str, event: str) -> str:
        rows["worker"].add((state, event))
        return WORKER_TABLE[state, event]

    worker, crashes = "up", 0
    for event, *target in schedule:
        worker = worker_step(worker, event)
        if event == "reply":
            outcomes[target[0]] = frame_step(target[0], "reply")
            frame_step(target[0], "return")
        elif event == "late":
            frame_step(target[0], "late")
        elif event in FAULTS:
            crashes += event in CRASHES
            for frame in FRAMES:
                if states[frame] == "sent":
                    outcomes[frame] = frame_step(frame, event)
                    frame_step(frame, "raise")
    if worker == "draining":
        worker = worker_step(worker, "ack")
    assert set(states.values()) == {"settled"}, (schedule, states)
    assert worker_step(worker, "health") == worker
    after = worker
    if worker != "closed":
        after = worker_step(worker, "request")
        if after == "respawning":
            after = worker_step(after, "hello")
    return {"outcomes": outcomes, "worker": worker, "after": after,
            "crashes": crashes, "rows": rows}


# -- the scripted child --------------------------------------------------------
WAIT = 10.0  # bound on every hand-off; reaching it is the failure, not a pace


def _routes_for(request_id: int, tag: str = "db") -> list[list[SchemaRoute]]:
    return [[SchemaRoute(f"{tag}{request_id}", ("t",), -float(request_id))]]


def _route_reply(request_id: int, tag: str = "db") -> dict:
    descriptor, segment = route_lists_to_binary(_routes_for(request_id, tag))
    return {"type": "route_response", "id": request_id,
            "routes_binary": descriptor, BINARY_KEY: segment}


class ScriptedReader:
    """What the child says, fed by the test: a frame, ``None`` for EOF, or an
    exception to raise."""

    def __init__(self) -> None:
        self._items: queue.SimpleQueue = queue.SimpleQueue()
        self.bytes_read = 0

    def feed(self, item) -> None:
        self._items.put(item)

    def read(self, timeout_seconds=None):
        item = self._items.get()
        if isinstance(item, BaseException):
            raise item
        return item

    def close(self) -> None:
        pass


class FakeProcess:
    stdin = stdout = None

    def __init__(self, pid: int, reader: ScriptedReader) -> None:
        self.pid = pid
        self.returncode = None
        self.kills = 0
        self._reader = reader

    def poll(self):
        return self.returncode

    def exit(self, code: int) -> None:
        if self.returncode is None:
            self.returncode = code
            self._reader.feed(None)  # a dead child's pipe reads EOF

    def kill(self) -> None:
        self.kills += 1
        self.exit(-9)

    def wait(self, timeout=None):
        if self.returncode is None:
            raise subprocess.TimeoutExpired("fake-child", timeout)
        return self.returncode


class FakeChild:
    """One scripted child: greets like a worker, answers control frames at
    once, acks a ``shutdown`` after the last route frame sent before it has
    its reply (the real child reads a shutdown only after answering every
    earlier frame), and otherwise says what the test feeds -- route replies
    in any order the test picks, more orders than the real child, which
    answers in arrival order, produces: the parent demuxes by id alone."""

    def __init__(self, pid: int, sent: queue.SimpleQueue) -> None:
        self.reader = ScriptedReader()
        self.process = FakeProcess(pid, self.reader)
        self.writer = self
        self.frames: list[dict] = []
        self.unanswered: set[int] = set()
        self.shutdown_id: int | None = None
        self.bytes_written = 0
        self._sent = sent
        self.reader.feed({"type": "hello", "protocol": PROTOCOL_VERSION,
                          "shard_id": 0, "databases": ["db"], "pid": pid})

    # the FrameWriter surface
    def write(self, message, *, binary=None, timeout_seconds=None) -> None:
        if self.process.returncode is not None:
            raise BrokenPipeError("fake child is gone")
        self.frames.append(message)
        kind = message["type"]
        if kind == "route_batch_request":
            self.unanswered.add(message["id"])
        elif kind == "ping":
            self.reader.feed({"type": "pong", "id": message["id"],
                              "pid": self.process.pid})
        elif kind == "stats_request":
            self.reader.feed({"type": "stats_response", "id": message["id"],
                              "stats": {"shard_id": 0, "counters": {"requests": 0}}})
        elif kind == "shutdown":
            self.shutdown_id = message["id"]
            self._ack_shutdown()
        self._sent.put(message)

    def close(self) -> None:
        pass

    def reply(self, request_id: int, tag: str = "db") -> None:
        self.unanswered.discard(request_id)
        self.reader.feed(_route_reply(request_id, tag))
        self._ack_shutdown()

    def _ack_shutdown(self) -> None:
        if self.shutdown_id is not None and not self.unanswered:
            self.reader.feed({"type": "shutdown_ack", "id": self.shutdown_id})
            self.shutdown_id = None
            self.process.exit(0)


class ScriptedWorker(ProcShardWorker):
    def __init__(self, shard_id: int = 0, **options) -> None:
        self.children: list[FakeChild] = []
        self.sent: queue.SimpleQueue = queue.SimpleQueue()
        super().__init__(shard_id, "no-master-needed", ("db",), **options)

    def _open_child(self):
        child = FakeChild(1000 + len(self.children), self.sent)
        self.children.append(child)
        return child.process, child.reader, child.writer

    def request_frames(self) -> list[dict]:
        """Every frame the request path wrote, on every child, in order."""
        return [frame for child in self.children for frame in child.frames
                if frame["type"] not in ("hello_ack", "shutdown")]


class Caller:
    """One ``route_batch`` on its own thread; ``outcomes`` must end up with
    exactly one entry."""

    def __init__(self, worker: ScriptedWorker, name: str) -> None:
        self.outcomes: list = []
        self._thread = threading.Thread(target=self._run, args=(worker, name),
                                        daemon=True)
        self._thread.start()
        # The frame is on the wire before the next caller starts: ids and
        # depths are the same in every run.
        frame = worker.sent.get(timeout=WAIT)
        while frame.get("questions") != [name]:
            frame = worker.sent.get(timeout=WAIT)
        self.request_id = frame["id"]

    def _run(self, worker: ScriptedWorker, name: str) -> None:
        try:
            self.outcomes.append(worker.route_batch([name]))
        except BaseException as error:  # noqa: BLE001 - the outcome under test
            self.outcomes.append(error)

    def settle(self):
        self._thread.join(WAIT)
        assert not self._thread.is_alive(), "a caller never settled"
        assert len(self.outcomes) == 1, self.outcomes
        return self.outcomes[0]


def _signature(route_lists):
    return [[(route.database, route.tables, route.score) for route in routes]
            for routes in route_lists]


def run_schedule(schedule: tuple) -> None:
    expected = model(schedule)
    worker = ScriptedWorker()
    child = worker.children[0]
    callers = [Caller(worker, f"question-{frame}") for frame in FRAMES]
    ids = [caller.request_id for caller in callers]
    assert ids == sorted(set(ids)), ids
    assert worker.in_flight == len(FRAMES) == worker.transport_stats()["max_in_flight"]
    closer = None

    for event, *target in schedule:
        if event == "reply":
            child.reply(ids[target[0]])
            callers[target[0]].settle()
        elif event == "late":
            child.reply(ids[target[0]], tag="stale")
            worker.ping()  # the pong queues behind the duplicate: it is dropped by now
        elif event == "eof":
            child.process.exit(70)
        elif event == "truncated":
            child.reader.feed(TruncatedFrameError("stream ended mid-frame"))
        elif event == "kill":
            worker.kill()
        elif event == "close":
            worker.close(shutdown_timeout_seconds=0.0)
        elif event == "drain":
            closer = threading.Thread(target=worker.close, args=(WAIT,), daemon=True)
            closer.start()
    if closer is not None:
        closer.join(WAIT)
        assert not closer.is_alive(), "close() never returned"

    # every caller got exactly one outcome, and the one the tables predict
    for frame, caller in enumerate(callers):
        outcome = caller.settle()
        if expected["outcomes"][frame] == "replied":
            assert _signature(outcome) == _signature(_routes_for(ids[frame]))
        else:
            assert isinstance(outcome, WorkerCrashedError), outcome  # a ClusterError
    if expected["crashes"]:
        worker._receiver.join(WAIT)  # the crash is counted before it exits
    assert worker.in_flight == 0
    assert worker.crashes == expected["crashes"]
    assert worker.timeouts == 0
    assert worker.requests_sent == len(worker.request_frames())
    if expected["worker"] == "closed":
        # a child with nothing left to answer exits on its own
        graceful = set(expected["outcomes"].values()) == {"replied"}
        assert child.process.kills == (0 if graceful else 1)

    # the monitoring paths never boot a process
    health, stats = worker.health(), worker.stats()
    assert worker.respawns == 0 and len(worker.children) == 1
    if expected["worker"] == "up":
        assert health.status == "ok" and stats["counters"] == {"requests": 0}
    else:
        assert health.status == "failing" and stats["counters"] == {}
    assert worker.requests_sent == len(worker.request_frames())

    # the next request: a dead worker respawns exactly once, a closed one
    # refuses, a live one just answers -- and no id is ever reused
    if expected["after"] == "closed":
        with pytest.raises(RuntimeError):
            worker.route_batch(["after"])
        assert worker.respawns == 0 and len(worker.children) == 1
        return
    after = Caller(worker, "after")
    respawned = expected["worker"] == "dead"
    assert worker.respawns == int(respawned)
    assert len(worker.children) == 1 + respawned
    assert after.request_id > max(ids)
    live = worker.children[-1]
    live.reply(after.request_id)
    assert _signature(after.settle()) == _signature(_routes_for(after.request_id))
    assert worker.in_flight == 0
    assert worker.requests_sent == len(worker.request_frames())
    worker.close(shutdown_timeout_seconds=WAIT)
    assert live.process.kills == 0 and live.process.returncode == 0


SCHEDULES = schedules()


def _name(schedule: tuple) -> str:
    return "-".join(event[0] + "".join(map(str, event[1:])) for event in schedule)


def test_the_enumeration_is_complete_and_ordered():
    assert schedules() == SCHEDULES  # same schedules, same order, every run
    assert len(SCHEDULES) == len(set(SCHEDULES))
    prefixes = {order[:cut] for order in permutations(FRAMES)
                for cut in range(len(FRAMES) + 1)}
    for fault in FAULTS:  # each fault after each ordered prefix of replies
        assert {tuple(frame for _, frame in schedule[:-1])
                for schedule in SCHEDULES if schedule[-1] == (fault,)} == prefixes
    def count(event: str) -> int:
        return sum(1 for schedule in SCHEDULES
                   if any(step[0] == event for step in schedule))

    assert (count("late"), count("drain")) == (36, 18)
    assert sum(1 for schedule in SCHEDULES
               if {step[0] for step in schedule} == {"reply"}) == 6
    assert len(SCHEDULES) == 6 + len(FAULTS) * len(prefixes) + 36 + 18


def test_every_table_row_is_taken():
    """No dead rows: the schedules, between them, take every transition."""
    taken = {"frame": set(), "worker": set()}
    for schedule in SCHEDULES:
        rows = model(schedule)["rows"]
        taken["frame"] |= rows["frame"]
        taken["worker"] |= rows["worker"]
    assert taken == {"frame": set(FRAME_TABLE), "worker": set(WORKER_TABLE)}


@pytest.mark.parametrize("schedule", SCHEDULES, ids=_name)
def test_schedule(schedule):
    run_schedule(schedule)


def test_the_deadline_counts_from_the_send():
    """A scatter sends to both shards, then waits on each in turn: shard 1's
    wait gets what is left of the deadline it started at its send, never a
    fresh one.  The clock is stepped by hand; shard 0 answers only after it
    has passed shard 1's deadline, and shard 1 never answers."""
    now = [0.0]
    shards = [ScriptedWorker(shard_id, request_timeout_seconds=5.0, clock=lambda: now[0])
              for shard_id in (0, 1)]
    waits = [worker.send_route_batch([f"question-{shard_id}"])
             for shard_id, worker in enumerate(shards)]
    ids = [worker.children[0].frames[-1]["id"] for worker in shards]
    (pending,) = shards[1]._pending.values()
    waited: list = []
    event_wait = pending.event.wait
    pending.event.wait = lambda timeout=None: waited.append(timeout) or event_wait(timeout)
    now[0] = 6.0  # shard 1 was sent at 0 with a 5 s budget
    shards[0].children[0].reply(ids[0])
    shards[0].ping()  # its pong queues behind the reply: the reply is demuxed
    assert waits[0]() == [[(route.score, route.database, route.tables)  # rows
                           for route in routes] for routes in _routes_for(ids[0])]
    victim = shards[1].children[0].process
    with pytest.raises(ShardTimeoutError):
        waits[1]()
    assert waited == [0.0]  # nothing left to wait for, not another 5 s
    assert shards[1].timeouts == 1
    assert victim.kills == 1 and shards[1].process is None
    assert [worker.in_flight for worker in shards] == [0, 0]
    for worker in shards:
        worker.close(shutdown_timeout_seconds=WAIT)
