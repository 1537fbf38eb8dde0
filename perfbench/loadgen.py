"""A single-threaded load generator over at most two TCP connections.

Sockets stay blocking for sends (requests are a few hundred bytes) and
are polled for replies with ``select.select``. A sleeping generator is
woken late -- ``asyncio.sleep`` scheduling ran about half a millisecond
late at the median, and even a microsecond ``select`` timeout on a
2-CPU virtual machine woke over a millisecond late at the 99th
percentile. So the open loop sleeps only until 1 ms before each due
time and spins the rest, the closed loop spins throughout, and a
reply's time is the kernel's receive timestamp rather than the moment
the generator noticed it. Spinning costs one CPU, which is why the
runner pins the server to the other.

Each request is a :class:`Rec`. Latency in the open loop counts from the
request's *due* time; ``late`` is how long after its due time the
generator sent a request that found a free connection slot, which is
the generator's own delay. A request that waits for a slot (v1 allows
one in flight per connection) is *backlogged*: that wait is the
server's doing and counts in latency, not in lateness.
"""

from __future__ import annotations

import json
import select
import socket
import struct
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

FRAME = struct.Struct("<BIQ")  # flags, payload length, request id
HEADER = FRAME.size
OK_PREFIX = b'{"ok":true'
V2_CAP = 32  # in flight per v2 connection before the generator queues
_COMPACT = (",", ":")
SO_TIMESTAMPNS = getattr(socket, "SO_TIMESTAMPNS", 35)
_TIMESPEC = struct.Struct("@qq")
_CMSG_SPACE = socket.CMSG_SPACE(_TIMESPEC.size)
SPIN_WINDOW_S = 0.001  # the open loop sleeps until this long before a due time


class Rec:
    """One request's life: what was sent, when, and what came back."""

    __slots__ = ("req", "due", "sent", "done", "late", "nbytes", "ok", "body", "keep")

    def __init__(self, req: Dict[str, Any], due: float, keep: bool) -> None:
        self.req = req
        self.due = due
        self.sent = 0.0
        self.done = 0.0
        self.late: Optional[float] = None
        self.nbytes = 0
        self.ok = False
        self.body: Optional[bytes] = None
        self.keep = keep


class Conn:
    """One connection speaking wire v1 (JSON lines) or v2 (frames)."""

    def __init__(self, address, wire: int, timeout: float = 30.0) -> None:
        self.wire = wire
        self.sock = socket.create_connection(address, timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setsockopt(socket.SOL_SOCKET, SO_TIMESTAMPNS, 1)
        self.buf = bytearray()
        self.fifo: Deque[Rec] = deque()  # v1: replies come back in order
        self.by_id: Dict[int, Rec] = {}  # v2: replies carry the request id
        self.next_id = 1
        if wire == 2:
            reply = self._v1_call({"op": "ping", "v": 2})
            if not (reply.get("ok") and reply.get("v") == 2):
                raise RuntimeError(f"server refused wire v2: {reply}")

    def _v1_call(self, req: Dict[str, Any]) -> Dict[str, Any]:
        self.sock.sendall(json.dumps(req, separators=_COMPACT).encode() + b"\n")
        while b"\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buf.extend(chunk)
        i = self.buf.index(b"\n")
        line = bytes(self.buf[:i])
        del self.buf[: i + 1]
        return json.loads(line)

    @property
    def inflight(self) -> int:
        return len(self.fifo) if self.wire == 1 else len(self.by_id)

    def send(self, rec: Rec) -> None:
        payload = json.dumps(rec.req, separators=_COMPACT).encode()
        if self.wire == 1:
            self.fifo.append(rec)
            data = payload + b"\n"
        else:
            rid = self.next_id
            self.next_id += 1
            self.by_id[rid] = rec
            data = FRAME.pack(0, len(payload), rid) + payload
        rec.sent = time.perf_counter()
        self.sock.sendall(data)

    def receive(self) -> List[Rec]:
        """Read what is available; return the requests it completed.

        A reply's time is the kernel's receive timestamp of the data, so
        a generator that was slow to notice the reply does not add that
        delay to the server's latency.
        """
        chunk, ancillary, _, _ = self.sock.recvmsg(1 << 20, _CMSG_SPACE)
        if not chunk:
            raise ConnectionError("server closed the connection")
        now = time.perf_counter()
        for level, kind, data in ancillary:
            if level == socket.SOL_SOCKET and kind == SO_TIMESTAMPNS:
                sec, nsec = _TIMESPEC.unpack(data[: _TIMESPEC.size])
                now = min(now, sec + nsec * 1e-9 - (time.time() - time.perf_counter()))
        self.buf.extend(chunk)
        done: List[Rec] = []
        buf = self.buf
        if self.wire == 1:
            start = 0
            while True:
                i = buf.find(b"\n", start)
                if i < 0:
                    break
                _finish(self.fifo.popleft(), bytes(buf[start:i]), now, done)
                start = i + 1
            del buf[:start]
        else:
            pos = 0
            while len(buf) - pos >= HEADER:
                _, length, rid = FRAME.unpack_from(buf, pos)
                end = pos + HEADER + length
                if len(buf) < end:
                    break
                _finish(self.by_id.pop(rid), bytes(buf[pos + HEADER : end]), now, done)
                pos = end
            del buf[:pos]
        return done

    def call(self, req: Dict[str, Any]) -> Dict[str, Any]:
        """One blocking request (control ops between timed phases)."""
        rec = Rec(req, time.perf_counter(), keep=True)
        self.send(rec)
        while not rec.done:
            self.receive()
        reply = json.loads(rec.body)
        if not reply.get("ok"):
            raise RuntimeError(f"{req.get('op')} failed: {reply.get('error')}")
        return reply["result"]

    def close(self) -> None:
        self.sock.close()


def _finish(rec: Rec, body: bytes, now: float, done: List[Rec]) -> None:
    rec.done = now
    rec.nbytes = len(body)
    rec.ok = body.startswith(OK_PREFIX)
    if rec.keep or not rec.ok:
        rec.body = body
    done.append(rec)


def _free(conns: Sequence[Conn], cap: int, turn: int) -> Optional[Conn]:
    for k in range(len(conns)):
        conn = conns[(turn + k) % len(conns)]
        if conn.inflight < cap:
            return conn
    return None


def open_loop(
    conns: Sequence[Conn],
    requests: Sequence[Dict[str, Any]],
    offsets: Sequence[float],
    keep: Callable[[int, Dict[str, Any]], bool],
    drain_s: float = 20.0,
) -> List[Rec]:
    """Send ``requests[i]`` at ``offsets[i]`` seconds, whatever the replies do."""
    cap = 1 if conns[0].wire == 1 else V2_CAP
    socks = {c.sock: c for c in conns}
    sock_list = list(socks)
    recs: List[Rec] = []
    backlog: Deque[Rec] = deque()
    t0 = time.perf_counter() + 0.02
    n = len(requests)
    i = 0
    outstanding = 0
    turn = 0
    deadline = None
    while True:
        now = time.perf_counter()
        while i < n and t0 + offsets[i] <= now:
            rec = Rec(requests[i], t0 + offsets[i], keep(i, requests[i]))
            recs.append(rec)
            i += 1
            outstanding += 1
            conn = None if backlog else _free(conns, cap, turn)
            if conn is None:
                backlog.append(rec)
                continue
            turn += 1
            conn.send(rec)
            rec.late = rec.sent - rec.due
        if i >= n and not outstanding:
            break
        if i >= n:
            if deadline is None:
                deadline = time.perf_counter() + drain_s
            elif time.perf_counter() >= deadline:
                break  # unanswered requests count as failed
            wait = 0.001
        else:
            wait = t0 + offsets[i] - time.perf_counter() - SPIN_WINDOW_S
        ready, _, _ = select.select(sock_list, [], [], max(wait, 0.0))
        for sock in ready:
            outstanding -= len(socks[sock].receive())
        while backlog:
            conn = _free(conns, cap, turn)
            if conn is None:
                break
            turn += 1
            conn.send(backlog.popleft())
    return recs


def closed_loop(
    conns: Sequence[Conn],
    stream: Iterator[Dict[str, Any]],
    depth: int,
    seconds: float,
    keep: Callable[[int, Dict[str, Any]], bool],
    drain_s: float = 20.0,
) -> Tuple[List[Rec], int]:
    """Keep ``depth`` requests in flight per connection for ``seconds``,
    or until a finite ``stream`` runs out.

    Returns ``(records, completions within the window)``.
    """
    socks = {c.sock: c for c in conns}
    sock_list = list(socks)
    recs: List[Rec] = []
    exhausted = False

    def send_next(conn: Conn) -> None:
        nonlocal exhausted
        req = next(stream, None)
        if req is None:
            exhausted = True
            return
        rec = Rec(req, time.perf_counter(), keep(len(recs), req))
        recs.append(rec)
        conn.send(rec)

    start = time.perf_counter()
    end = start + seconds
    for conn in conns:
        for _ in range(depth):
            send_next(conn)
    completed = 0
    stop = None
    while True:
        now = time.perf_counter()
        if now >= end and stop is None:
            stop = now + drain_s
        idle = not any(c.inflight for c in conns)
        if (stop is not None and (now >= stop or idle)) or (exhausted and idle):
            break
        ready, _, _ = select.select(sock_list, [], [], 0.0)
        for sock in ready:
            conn = socks[sock]
            for rec in conn.receive():
                if rec.done <= end:
                    completed += 1
                    send_next(conn)
    return recs, completed


def sequential(
    conn: Conn,
    requests: Iterator[Dict[str, Any]],
    seconds: float,
    fill: Callable[[Rec, Dict[str, Any]], None],
) -> List[Rec]:
    """One request at a time for ``seconds``, never stopping after an
    insert; ``fill`` may complete the next request from the last reply."""
    recs: List[Rec] = []
    end = time.perf_counter() + seconds
    while not recs or recs[-1].req["op"] == "insert" or time.perf_counter() < end:
        req = next(requests)
        if recs:
            fill(recs[-1], req)
        rec = Rec(req, time.perf_counter(), keep=True)
        recs.append(rec)
        conn.send(rec)
        while not rec.done:
            conn.receive()
    return recs
