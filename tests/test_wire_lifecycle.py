"""The request lifecycle of the shard wire, written down and enumerated.

One conversation happens on the wire, so its lifecycle is small enough to
check exhaustively -- a workflow net with a little data attached (request
ids, counters), in the sense of *Model Checking of Workflow Nets with Tables
and Constraints* (arXiv 2307.03685).  The two tables below are the net; the
model interprets a schedule on them, the harness replays the same schedule
on the real :class:`ProcShardWorker` -- over a scripted reader, a recording
writer and a fake process, the seam ``_open_child`` exists for -- and the two
must agree, for three frames in flight answered in send order, as the
real child answers them -- three ``route_batch`` frames, or two and a
``ping`` or a ``stats`` poll at any place in the queue (the tables do not
depend on a frame's kind; only what its caller gets back does) -- and

* a stream fault after every prefix of the replies: EOF, a reply stream
  that stops mid-frame, or a reply for a frame that is not the oldest in
  flight (one still queued behind it, or one already settled),
* ``kill()`` and ``close()`` after every prefix, and a ``close()`` whose
  ``shutdown`` is acked after the outstanding replies.

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
import sys
import threading
from collections import deque

import pytest

from repro.cluster.dispatcher import ShardTimeoutError
from repro.cluster.procworker import ProcShardWorker, WorkerCrashedError
from repro.cluster.transport import (
    BINARY_KEY,
    PROTOCOL_VERSION,
    TransportTimeoutError,
    TruncatedFrameError,
    route_lists_to_binary,
)
from repro.core.router import SchemaRoute
from repro.obs.health import (
    HEARTBEAT_MAX_AGE_SECONDS,
    MAX_RESPAWNS_IN_WINDOW,
    RESPAWN_WINDOW_SECONDS,
)

# -- the net -------------------------------------------------------------------
#: (frame state, event) -> frame state.  ``settled`` is the only final state.
FRAME_TABLE = {
    ("registered", "write"): "sent",
    ("sent", "reply"): "replied",
    ("sent", "eof"): "crashed",
    ("sent", "truncated"): "crashed",
    ("sent", "misordered"): "crashed",
    ("sent", "kill"): "drained",
    ("sent", "close"): "drained",
    ("replied", "return"): "settled",
    ("crashed", "raise"): "settled",
    ("drained", "raise"): "settled",
}
#: (worker state, event) -> worker state.
WORKER_TABLE = {
    ("up", "reply"): "up",
    ("up", "eof"): "dead",
    ("up", "truncated"): "dead",
    ("up", "misordered"): "dead",
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
#: Stream faults, counted as a crash (the others are deliberate stops).
CRASHES = ("eof", "truncated", "misordered")
FAULTS = CRASHES + ("kill", "close")
FRAMES = (0, 1, 2)
#: The replies, in the one order the child sends them.
REPLIES = tuple(("reply", frame) for frame in FRAMES)
#: What each caller asks, and the frame it writes: the request path and the
#: two monitoring polls that share its pipe.
KINDS = {"route": "route_batch_request", "ping": "ping", "stats": "stats_request"}
#: The kinds of the frames in flight: all routes, or one ``ping`` / ``stats``
#: poll at each place in the queue.
MIXES = [("route",) * len(FRAMES)] + [
    tuple(kind if frame == place else "route" for frame in FRAMES)
    for place in FRAMES for kind in KINDS if kind != "route"]


def schedules() -> list[tuple]:
    """Every schedule, in one fixed order."""
    found = [REPLIES]
    for cut in range(len(FRAMES) + 1):
        for fault in FAULTS:
            found.append(REPLIES[:cut] + ((fault,),))
        if cut < len(FRAMES):
            found.append(REPLIES[:cut] + (("drain",),) + REPLIES[cut:])
    return found


def model(schedule: tuple) -> dict:
    """Interpret ``schedule`` on the tables: how each frame settles, what the
    worker ends as and becomes on the next request, how many crashes the
    worker counted -- and which table rows it took to say so."""
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
    exception to raise.  A read given a deadline times out when nothing was
    fed within it."""

    def __init__(self) -> None:
        self._items: queue.SimpleQueue = queue.SimpleQueue()
        self.bytes_read = 0

    def feed(self, item) -> None:
        self._items.put(item)

    def read(self, timeout_seconds=None):
        try:
            item = self._items.get(timeout=timeout_seconds)
        except queue.Empty:
            raise TransportTimeoutError("nothing fed within the deadline") from None
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
    """One scripted child: greets like a worker, then answers frames in
    arrival order, as the real child does -- a route frame, or one written
    while :attr:`hold` is set, when the test says :meth:`reply`; any other
    frame as soon as every frame ahead of it is answered.  A ``shutdown`` is
    acked last, and the child then exits."""

    def __init__(self, pid: int, sent: queue.SimpleQueue) -> None:
        self.reader = ScriptedReader()
        self.process = FakeProcess(pid, self.reader)
        self.writer = self
        self.frames: list[dict] = []
        self.unanswered: deque[dict] = deque()
        #: While set, every frame written waits for :meth:`reply`.
        self.hold = False
        self.held: set[int] = set()
        self.bytes_written = 0
        self._sent = sent
        self.reader.feed({"type": "hello", "protocol": PROTOCOL_VERSION,
                          "shard_id": 0, "databases": ["db"], "pid": pid})

    # the FrameWriter surface
    def write(self, message, *, binary=None, timeout_seconds=None) -> None:
        if self.process.returncode is not None:
            raise BrokenPipeError("fake child is gone")
        self.frames.append(message)
        if message["type"] != "hello_ack":
            if self.hold:
                self.held.add(message["id"])
            self.unanswered.append(message)
            self._answer_control_frames()
        self._sent.put(message)

    def close(self) -> None:
        pass

    def reply(self) -> int:
        """Answer the oldest unanswered frame; returns its id."""
        message = self.unanswered.popleft()
        self._answer(message)
        self._answer_control_frames()
        return message["id"]

    def _answer_control_frames(self) -> None:
        while self.unanswered \
                and self.unanswered[0]["type"] != "route_batch_request" \
                and self.unanswered[0]["id"] not in self.held:
            self._answer(self.unanswered.popleft())

    def _answer(self, message: dict) -> None:
        kind, request_id = message["type"], message["id"]
        if kind == "route_batch_request":
            self.reader.feed(_route_reply(request_id))
        elif kind == "ping":
            self.reader.feed({"type": "pong", "id": request_id,
                              "pid": self.process.pid})
        elif kind == "stats_request":
            self.reader.feed({"type": "stats_response", "id": request_id,
                              "stats": {"shard_id": 0,
                                        "traces": {"completed": 0}}})
        elif kind == "shutdown":
            self.reader.feed({"type": "shutdown_ack", "id": request_id})
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
    """One ``route_batch`` -- or ``ping`` / ``stats`` poll, by ``kind`` -- on
    its own thread; ``outcomes`` must end up with exactly one entry."""

    def __init__(self, worker: ScriptedWorker, kind: str, name: str) -> None:
        self.outcomes: list = []
        call = {"route": lambda: worker.route_batch([name]),
                "ping": worker.ping, "stats": worker.stats}[kind]
        self._thread = threading.Thread(target=self._run, args=(call,),
                                        daemon=True)
        self._thread.start()
        # The frame is on the wire before the next caller starts: ids and
        # depths are the same in every run.
        frame = worker.sent.get(timeout=WAIT)
        while frame["type"] != KINDS[kind] \
                or (kind == "route" and frame["questions"] != [name]):
            frame = worker.sent.get(timeout=WAIT)
        self.request_id = frame["id"]

    def _run(self, call) -> None:
        try:
            self.outcomes.append(call())
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


def run_schedule(schedule: tuple, mix: tuple = MIXES[0]) -> None:
    expected = model(schedule)
    worker = ScriptedWorker()
    child = worker.children[0]
    child.hold = True  # the schedule answers every frame in flight
    callers = [Caller(worker, kind, f"question-{frame}")
               for frame, kind in zip(FRAMES, mix)]
    child.hold = False
    ids = [caller.request_id for caller in callers]
    assert ids == sorted(set(ids)), ids
    assert worker.in_flight == len(FRAMES) == worker.transport_stats()["max_in_flight"]
    closer, replied = None, 0

    for event, *target in schedule:
        if event == "reply":
            assert child.reply() == ids[target[0]]
            callers[target[0]].settle()
            replied += 1
        elif event == "eof":
            child.process.exit(70)
        elif event == "truncated":
            child.reader.feed(TruncatedFrameError("stream ended mid-frame"))
        elif event == "misordered":
            # a reply for the frame queued behind the oldest in flight --
            # or, with none behind it, for one already settled
            stray = ids[(replied + 1) % len(FRAMES)]
            child.reader.feed(_route_reply(stray, tag="stray"))
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
    for frame, (caller, kind) in enumerate(zip(callers, mix)):
        outcome = caller.settle()
        replied = expected["outcomes"][frame] == "replied"
        if kind == "stats":  # the monitoring path never raises: a shell
            assert outcome.get("traces") == ({"completed": 0} if replied else None)
        elif not replied:
            assert isinstance(outcome, WorkerCrashedError), outcome  # a ClusterError
        elif kind == "ping":
            assert isinstance(outcome, float), outcome
        else:
            assert _signature(outcome) == _signature(_routes_for(ids[frame]))
    # a crash is counted once, by whoever meets the dead stream first: a
    # waiting caller here, else the stats poll or the next request below
    met = "crashed" in expected["outcomes"].values()
    assert worker.in_flight == 0
    assert worker.crashes == (expected["crashes"] if met else 0)
    assert worker.timeouts == 0
    assert worker.requests_sent == len(worker.request_frames())
    if expected["worker"] == "closed":
        # a child with nothing left to answer exits on its own
        graceful = set(expected["outcomes"].values()) == {"replied"}
        assert child.process.kills == (0 if graceful else 1)

    # the monitoring paths never boot a process (the stats poll reads the
    # stream, so it meets a fault nobody was waiting to read)
    stats, health = worker.stats(), worker.health()
    assert worker.respawns == 0 and len(worker.children) == 1
    if expected["worker"] == "up":
        assert health.status == "ok" and stats["traces"] == {"completed": 0}
    else:
        assert health.status == "failing" and "traces" not in stats
    assert worker.requests_sent == len(worker.request_frames())

    # the next request: a dead worker respawns exactly once, a closed one
    # refuses, a live one just answers -- and no id is ever reused
    if expected["after"] == "closed":
        with pytest.raises(RuntimeError):
            worker.route_batch(["after"])
        assert worker.respawns == 0 and len(worker.children) == 1
        assert worker.crashes == 0
        return
    after = Caller(worker, "route", "after")
    respawned = expected["worker"] == "dead"
    assert worker.respawns == int(respawned)
    assert len(worker.children) == 1 + respawned
    assert after.request_id > max(ids)
    assert worker.crashes == expected["crashes"]
    live = worker.children[-1]
    assert live.reply() == after.request_id
    assert _signature(after.settle()) == _signature(_routes_for(after.request_id))
    assert worker.in_flight == 0
    assert worker.requests_sent == len(worker.request_frames())
    worker.close(shutdown_timeout_seconds=WAIT)
    assert live.process.kills == 0 and live.process.returncode == 0


SCHEDULES = schedules()


def _name(schedule: tuple) -> str:
    return "-".join(event[0] + "".join(map(str, event[1:])) for event in schedule)


def _mix_name(mix: tuple) -> str:
    return "-".join(f"{kind}@{frame}" for frame, kind in enumerate(mix)
                    if kind != "route") or "routes"


def test_the_enumeration_is_complete_and_ordered():
    assert schedules() == SCHEDULES  # same schedules, same order, every run
    assert len(SCHEDULES) == len(set(SCHEDULES))
    for schedule in SCHEDULES:  # replies only ever come in send order
        replies = tuple(step for step in schedule if step[0] == "reply")
        assert replies == REPLIES[:len(replies)]
    prefixes = {REPLIES[:cut] for cut in range(len(FRAMES) + 1)}
    for fault in FAULTS:  # each fault after each prefix of replies
        assert {schedule[:-1] for schedule in SCHEDULES
                if schedule[-1] == (fault,)} == prefixes
    drains = [schedule for schedule in SCHEDULES
              if any(step[0] == "drain" for step in schedule)]
    assert len(drains) == len(FRAMES)  # one with each frame still outstanding
    assert len(SCHEDULES) == 1 + len(FAULTS) * len(prefixes) + len(drains) == 24
    # every frame in flight is a route, or one of them is a poll
    assert len(MIXES) == len(set(MIXES)) == 1 + len(FRAMES) * (len(KINDS) - 1) == 7
    assert all(set(mix) <= set(KINDS) and sum(kind != "route" for kind in mix) <= 1
               for mix in MIXES)
    assert {(frame, kind) for mix in MIXES for frame, kind in enumerate(mix)} \
        == {(frame, kind) for frame in FRAMES for kind in KINDS}


def test_every_table_row_is_taken():
    """No dead rows: the schedules, between them, take every transition."""
    taken = {"frame": set(), "worker": set()}
    for schedule in SCHEDULES:
        rows = model(schedule)["rows"]
        taken["frame"] |= rows["frame"]
        taken["worker"] |= rows["worker"]
    assert taken == {"frame": set(FRAME_TABLE), "worker": set(WORKER_TABLE)}


@pytest.mark.parametrize("mix", MIXES, ids=_mix_name)
@pytest.mark.parametrize("schedule", SCHEDULES, ids=_name)
def test_schedule(schedule, mix):
    run_schedule(schedule, mix)


def test_the_deadline_counts_from_the_send():
    """A scatter sends to both shards, then waits on each in turn: shard 1's
    read gets what is left of the deadline it started at its send, never a
    fresh one.  The clock is stepped by hand; shard 0 answers only after it
    has passed shard 1's deadline, and shard 1 never answers."""
    now = [0.0]
    shards = [ScriptedWorker(shard_id, request_timeout_seconds=5.0, clock=lambda: now[0])
              for shard_id in (0, 1)]
    waits = [worker.send_route_batch([f"question-{shard_id}"])
             for shard_id, worker in enumerate(shards)]
    ids = [worker.children[0].frames[-1]["id"] for worker in shards]
    reader = shards[1].children[0].reader
    waited: list = []
    read = reader.read
    reader.read = lambda timeout_seconds=None: \
        waited.append(timeout_seconds) or read(timeout_seconds)
    now[0] = 6.0  # shard 1 was sent at 0 with a 5 s budget
    assert shards[0].children[0].reply() == ids[0]
    shards[0].ping()  # its pong queues behind the reply: the ping reads both
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


def test_a_reply_that_arrived_is_taken_after_its_deadline():
    """A scatter's later shard is waited on only after the earlier one
    answered: its reply, already on the pipe, is read even though the
    deadline has passed meanwhile -- with what is left of it, ``0.0``."""
    now = [0.0]
    worker = ScriptedWorker(request_timeout_seconds=5.0, clock=lambda: now[0])
    wait = worker.send_route_batch(["question"])
    request_id = worker.children[0].reply()
    now[0] = 6.0
    assert wait() == [[(route.score, route.database, route.tables)
                       for route in routes] for routes in _routes_for(request_id)]
    assert worker.timeouts == 0 and worker.children[0].process.kills == 0
    worker.close(shutdown_timeout_seconds=WAIT)


class EchoChild(FakeChild):
    """Answers every frame in arrival order on a thread of its own, like the
    real child's serve loop; a route's database names the question asked."""

    def __init__(self, pid: int, sent: queue.SimpleQueue) -> None:
        super().__init__(pid, sent)
        self.inbox: queue.SimpleQueue = queue.SimpleQueue()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def write(self, message, *, binary=None, timeout_seconds=None) -> None:
        self.frames.append(message)
        if message["type"] != "hello_ack":
            self.inbox.put(message)

    def _serve(self) -> None:
        while True:
            message = self.inbox.get()
            if message["type"] == "route_batch_request":
                routes = [[SchemaRoute(message["questions"][0], ("t",),
                                       -float(message["id"]))]]
                descriptor, segment = route_lists_to_binary(routes)
                self.reader.feed({"type": "route_response", "id": message["id"],
                                  "routes_binary": descriptor, BINARY_KEY: segment})
                continue
            self.unanswered.append(message)
            self._answer_control_frames()
            if message["type"] == "shutdown":
                return


def test_concurrent_callers_each_read_their_own_reply():
    """More callers than cores share one pipe with a health poller, the
    interpreter switching threads every microsecond: each caller gets the
    reply to its own frame, nothing stays in flight and nothing is counted
    as a crash or a timeout -- whichever caller happened to read."""
    class EchoWorker(ScriptedWorker):
        def _open_child(self):
            child = EchoChild(1000 + len(self.children), self.sent)
            self.children.append(child)
            return child.process, child.reader, child.writer

    worker = EchoWorker()
    wrong: list = []

    def caller(slot: int) -> None:
        for turn in range(50):
            question = f"question-{slot}-{turn}"
            (routes,) = worker.route_batch([question])
            if routes[0].database != question:
                wrong.append((question, routes[0].database))

    def poller() -> None:
        for _ in range(50):
            worker.ping()
            worker.stats()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(slot,), daemon=True)
                   for slot in range(6)]
        threads.append(threading.Thread(target=poller, daemon=True))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(WAIT)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert worker.in_flight == 0
    assert worker.crashes == worker.timeouts == worker.respawns == 0
    assert worker.requests_sent == len(worker.request_frames()) == 6 * 50 + 2 * 50
    worker.close(shutdown_timeout_seconds=WAIT)
    worker.children[0].thread.join(WAIT)
    assert not worker.children[0].thread.is_alive()


def test_a_health_ping_behind_a_route_frame_settles_both_in_order():
    """The probe's ping reads the route reply ahead of its pong: it settles
    the route frame first, then its own, and the route caller's ``wait``
    finds its rows without reading the pipe."""
    now = [0.0]
    worker = ScriptedWorker(clock=lambda: now[0])
    child = worker.children[0]
    wait = worker.send_route_batch(["question"])
    request_id = child.reply()
    now[0] = HEARTBEAT_MAX_AGE_SECONDS + 1.0  # the heartbeat is stale
    report = worker.health()
    assert report.status == "ok" and "heartbeat_check" in report.details
    assert worker.in_flight == 0
    assert [frame["type"] for frame in child.frames[1:]] == \
        ["route_batch_request", "ping"]
    assert wait() == [[(route.score, route.database, route.tables)
                       for route in routes] for routes in _routes_for(request_id)]
    assert worker.crashes == worker.timeouts == 0
    worker.close(shutdown_timeout_seconds=WAIT)


# -- the crash-loop probe -------------------------------------------------------
@pytest.mark.parametrize("booted_at", [0.0, 1000.0])
@pytest.mark.parametrize("respawns", [MAX_RESPAWNS_IN_WINDOW, MAX_RESPAWNS_IN_WINDOW + 1])
def test_a_respawn_burst_is_judged_the_same_however_long_ago_the_boot(
        booted_at, respawns):
    """Respawns, never the boot, count against the crash-loop budget: a
    burst just past it is ``degraded`` whether the worker booted a second
    or an age before it, and a burst at the budget is ``ok``."""
    now = [0.0]
    worker = ScriptedWorker(clock=lambda: now[0])
    for step in range(1, respawns + 1):
        now[0] = booted_at + step
        worker.respawn()
    now[0] += 1.0
    report = worker.health()
    assert report.details["recent_respawns"] == respawns
    assert report.status == ("degraded" if respawns > MAX_RESPAWNS_IN_WINDOW
                             else "ok")
    worker.close(shutdown_timeout_seconds=WAIT)


def test_a_fresh_worker_has_no_recent_respawns_and_a_burst_ages_out():
    now = [0.0]
    worker = ScriptedWorker(clock=lambda: now[0])
    assert worker.health().details["recent_respawns"] == 0
    for step in range(1, MAX_RESPAWNS_IN_WINDOW + 2):
        now[0] = step
        worker.respawn()
    assert worker.health().status == "degraded"
    now[0] += RESPAWN_WINDOW_SECONDS + 1.0  # the whole burst is out of the window
    report = worker.health()
    assert report.details["recent_respawns"] == 0
    assert report.status == "ok"
    worker.close(shutdown_timeout_seconds=WAIT)
