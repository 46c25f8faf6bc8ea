"""Closed-loop HTTP/1.1 load generator: one thread, non-blocking sockets.

The request mix comes from :class:`RequestStream` — Zipf-distributed
users drawn with a seeded ``random.Random``, so the same seed always
yields the same request sequence.  :func:`run_closed_loop` keeps up to
``connections`` requests in flight (each connection sends its next
request only after the previous reply arrived), reuses a connection when
the server keeps it open and reconnects when it does not, and records
per-request latency from the moment the request is issued (connect time
included), the number of connects, and its own CPU time.
"""

from __future__ import annotations

import bisect
import errno
import itertools
import json
import random
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence

from workloads import N_CANDIDATES, REPLY_TIMEOUT_S, SCORE_SHARE, TOP_K, ZIPF_S


@dataclass(frozen=True)
class Request:
    kind: str  # "recommend" | "score"
    user: int
    k: int = 0
    items: tuple = ()

    def encode(self, host: str) -> bytes:
        if self.kind == "recommend":
            return (
                f"GET /recommend?user={self.user}&k={self.k} HTTP/1.1\r\n"
                f"Host: {host}\r\n\r\n"
            ).encode()
        body = json.dumps({"user": self.user, "items": list(self.items)}).encode()
        head = (
            f"POST /score HTTP/1.1\r\nHost: {host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        return head + body


class RequestStream:
    """Endless seeded request sequence.

    Users follow a Zipf law of exponent ``ZIPF_S`` over ``users`` (the
    popularity order is a seeded shuffle, so the hottest user differs per
    seed); a ``SCORE_SHARE`` fraction of requests are ``POST /score`` of
    ``N_CANDIDATES`` distinct random items, the rest ``GET /recommend``
    of the top ``TOP_K``.
    """

    def __init__(self, seed: int, users: Sequence[int], n_items: int):
        if not users:
            raise ValueError("request stream needs at least one user")
        self._rng = random.Random(seed)
        self.users = list(users)
        self._rng.shuffle(self.users)
        weights = [1.0 / (rank ** ZIPF_S) for rank in range(1, len(self.users) + 1)]
        self._cum = list(itertools.accumulate(weights))
        self.n_items = int(n_items)
        self.n_candidates = min(N_CANDIDATES, self.n_items)

    def _user(self) -> int:
        pick = self._rng.random() * self._cum[-1]
        return self.users[min(bisect.bisect_right(self._cum, pick), len(self.users) - 1)]

    def __iter__(self) -> Iterator[Request]:
        return self

    def __next__(self) -> Request:
        user = self._user()
        if self._rng.random() < SCORE_SHARE:
            items = tuple(self._rng.sample(range(self.n_items), self.n_candidates))
            return Request("score", user, items=items)
        return Request("recommend", user, k=TOP_K)


@dataclass
class Sample:
    request: Request
    latency_s: float
    status: int
    body: bytes
    connect_s: Optional[float]  # set when this request opened a connection
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.status == 200


@dataclass
class LoadResult:
    samples: List[Sample] = field(default_factory=list)
    connects: int = 0
    cpu_s: float = 0.0
    wall_s: float = 0.0


class _Conn:
    __slots__ = (
        "sock", "state", "out", "buf", "request", "t_issue", "t_connect",
        "connect_s", "reused", "head", "body_len",
    )

    def __init__(self):
        self.sock = None
        self.state = "idle"


def _parse_head(raw: bytes):
    lines = raw.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    version, status = parts[0], int(parts[1])
    headers = {}
    for line in lines[1:]:
        if ":" in line:
            key, value = line.split(":", 1)
            headers[key.strip().lower()] = value.strip()
    return version, status, headers


def _keeps_alive(version: str, headers: dict) -> bool:
    token = headers.get("connection", "").lower()
    if version == "HTTP/1.1":
        return token != "close"
    return token == "keep-alive"


def run_closed_loop(
    host: str,
    port: int,
    requests: Iterable[Request],
    seconds: Optional[float] = None,
    connections: int = 2,
    min_samples: int = 0,
) -> LoadResult:
    """Drive ``requests`` through ``connections`` closed-loop clients.

    Stops issuing after ``seconds`` (or when ``requests`` runs out) and
    waits for the requests in flight; a slow server gets up to three times
    ``seconds`` to reach ``min_samples`` replies.  A request that gets no
    complete reply within ``REPLY_TIMEOUT_S`` is recorded as failed.
    """
    source = iter(requests)
    sel = selectors.DefaultSelector()
    conns = [_Conn() for _ in range(max(1, int(connections)))]
    result = LoadResult()
    cpu0 = time.process_time()
    start = time.perf_counter()
    deadline = None if seconds is None else start + float(seconds)
    last_call = None if seconds is None else start + 3 * float(seconds)
    exhausted = False

    def close(conn: _Conn) -> None:
        if conn.sock is not None:
            sel.unregister(conn.sock)
            conn.sock.close()
            conn.sock = None

    def finish(conn: _Conn, status: int, body: bytes, error: Optional[str]) -> None:
        now = time.perf_counter()
        result.samples.append(
            Sample(conn.request, now - conn.t_issue, status, body, conn.connect_s, error)
        )
        conn.state = "idle"
        conn.request = None

    def issue(conn: _Conn, request: Request, now: float) -> None:
        conn.request = request
        conn.t_issue = now
        conn.connect_s = None
        conn.out = request.encode(host)
        conn.buf = b""
        conn.head = None
        conn.body_len = None
        if conn.sock is None:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            code = sock.connect_ex((host, port))
            if code not in (0, errno.EINPROGRESS):
                sock.close()
                finish(conn, 0, b"", f"connect failed: {errno.errorcode.get(code, code)}")
                return
            result.connects += 1
            conn.sock = sock
            conn.t_connect = now
            conn.reused = False
            conn.state = "connecting"
            sel.register(sock, selectors.EVENT_WRITE, conn)
        else:
            conn.reused = True
            conn.state = "sending"
            sel.modify(conn.sock, selectors.EVENT_WRITE, conn)

    def on_readable(conn: _Conn) -> None:
        try:
            chunk = conn.sock.recv(65536)
        except (ConnectionResetError, BrokenPipeError) as exc:
            chunk, reset = b"", exc
        else:
            reset = None
        if chunk:
            conn.buf += chunk
            if conn.head is None:
                end = conn.buf.find(b"\r\n\r\n")
                if end < 0:
                    return
                conn.head = _parse_head(conn.buf[:end])
                conn.buf = conn.buf[end + 4:]
                length = conn.head[2].get("content-length")
                conn.body_len = int(length) if length is not None else None
            if conn.body_len is not None and len(conn.buf) >= conn.body_len:
                version, status, headers = conn.head
                body = conn.buf[: conn.body_len]
                if not _keeps_alive(version, headers):
                    close(conn)
                finish(conn, status, body, None)
            return
        # Peer closed the connection.
        if conn.head is not None and conn.body_len is None:
            close(conn)
            finish(conn, conn.head[1], conn.buf, None)
            return
        close(conn)
        if conn.reused and conn.head is None and not conn.buf:
            # A kept-alive connection the server had already dropped:
            # reconnect and resend once, as HTTP clients do.
            request, t_issue = conn.request, conn.t_issue
            issue(conn, request, t_issue)
            return
        finish(conn, 0, b"", f"connection closed mid-response ({reset!r})")

    def on_writable(conn: _Conn) -> None:
        if conn.state == "connecting":
            err = conn.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            if err:
                close(conn)
                finish(conn, 0, b"", f"connect failed: {errno.errorcode.get(err, err)}")
                return
            conn.connect_s = time.perf_counter() - conn.t_connect
            conn.state = "sending"
        if conn.state == "sending":
            try:
                sent = conn.sock.send(conn.out)
            except (ConnectionResetError, BrokenPipeError) as exc:
                close(conn)
                finish(conn, 0, b"", f"send failed: {exc!r}")
                return
            conn.out = conn.out[sent:]
            if not conn.out:
                conn.state = "receiving"
                sel.modify(conn.sock, selectors.EVENT_READ, conn)

    try:
        while True:
            now = time.perf_counter()
            accepting = not exhausted and (
                deadline is None or now < deadline
                or (len(result.samples) < min_samples and now < last_call)
            )
            if accepting:
                for conn in conns:
                    if conn.state == "idle":
                        request = next(source, None)
                        if request is None:
                            exhausted = True
                            break
                        issue(conn, request, now)
            busy = [c for c in conns if c.state != "idle"]
            if not busy:
                if not accepting:
                    break
                continue
            wait = 0.05 if deadline is None else max(0.0, min(0.05, deadline - now))
            for key, events in sel.select(timeout=wait):
                conn = key.data
                if conn.state == "idle":
                    # A kept-alive connection became readable between
                    # requests: the server closed it.
                    close(conn)
                elif events & selectors.EVENT_READ:
                    on_readable(conn)
                elif events & selectors.EVENT_WRITE:
                    on_writable(conn)
            now = time.perf_counter()
            for conn in conns:
                if conn.state != "idle" and now - conn.t_issue > REPLY_TIMEOUT_S:
                    close(conn)
                    finish(conn, 0, b"", "timed out")
    finally:
        for conn in conns:
            close(conn)
        sel.close()
    result.wall_s = time.perf_counter() - start
    result.cpu_s = time.process_time() - cpu0
    return result
