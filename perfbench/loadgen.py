"""Traffic against one server, from one generator process.

* :func:`open_loop` — single-row ``predict`` on a fixed schedule (request
  *k* is due at ``start + k / rate``), spread round-robin over the
  connections.  Latency is timed from when a request was *due*, so a
  stall also charges the requests queued behind it.  The generator's own
  lateness is the part of a send delay that was not the connection still
  waiting for its previous reply.
* :func:`closed_loop_batches` — ``predict_batch`` with a fixed number of
  rows per request, each connection sending its next request as soon as
  the previous reply arrives.

Request frames are encoded before a timed window starts and replies are
decoded after it ends (:func:`decode`), so inside the window the
generator only moves bytes: on two cores, its JSON work would otherwise
compete with the server for the CPU it is measuring.

One thread per connection, the caller's thread included: the generator
never runs more threads, or opens more connections, than it is given.
"""

from __future__ import annotations

import dataclasses
import json
import struct
import threading
import time
from typing import Callable, List, Optional, Sequence

from repro.faults import NO_RETRY
from repro.serve.client import ServeClient

#: The server's frame header: payload length, 4 bytes big-endian.
_LENGTH = struct.Struct(">I")


@dataclasses.dataclass
class Reply:
    """One request as the generator saw it (monotonic-clock seconds)."""

    due: float
    sent: float
    done: float
    index: int             # first input row used
    body: Optional[bytes]  # raw reply; None if the exchange failed
    lateness: float = 0.0  # generator-side send delay
    ok: bool = False       # set by :func:`decode`
    version: int = -1
    value: object = None   # prediction, or list of predictions

    @property
    def latency(self) -> float:
        return self.done - self.due


class Connection(ServeClient):
    """A client that never retries (a failed request is a failed request)
    and can also exchange pre-encoded frames."""

    def __init__(self, port: int):
        super().__init__("127.0.0.1", port, timeout=30.0, retry=NO_RETRY)

    def exchange_raw(self, frame: bytes) -> Optional[bytes]:
        """Send one encoded request; the raw reply body, or None on failure."""
        try:
            sock = self._connect()
            sock.sendall(frame)
            (length,) = _LENGTH.unpack(self._recv_exact(sock, _LENGTH.size))
            return self._recv_exact(sock, length)
        except OSError:
            self._teardown()
            return None


def connect(port: int) -> Connection:
    return Connection(port)


def encode(payload: dict) -> bytes:
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return _LENGTH.pack(len(body)) + body


def decode(replies: List[Reply]) -> List[Reply]:
    """Parse the raw bodies, after the timed window."""
    for reply in replies:
        if reply.body is None:
            continue
        try:
            payload = json.loads(reply.body)
        except ValueError:
            continue
        reply.ok = bool(payload.get("ok", False))
        reply.version = int(payload.get("model_version", -1))
        reply.value = payload.get("prediction", payload.get("predictions"))
        reply.body = None
    return replies


def run_threads(workers: Sequence[Callable[[], None]]) -> None:
    """Run ``workers`` concurrently: all but the first on new threads."""
    threads = [threading.Thread(target=w, daemon=True) for w in workers[1:]]
    for thread in threads:
        thread.start()
    try:
        workers[0]()
    finally:
        for thread in threads:
            thread.join(timeout=120.0)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a load thread did not finish")


def predict_frames(rows: List[list]) -> List[bytes]:
    return [encode({"op": "predict", "row": row}) for row in rows]


def open_loop(
    clients: Sequence[Connection],
    frames: List[bytes],
    rate: float,
    count: Optional[int],
    stop: Optional[threading.Event] = None,
    offset: int = 0,
) -> List[Reply]:
    """``count`` predicts at ``rate``/s (or until ``stop`` when count is None).

    Request *k* sends ``frames[(offset + k) % len(frames)]``.
    """
    start = time.monotonic() + 0.02
    n_conn = len(clients)
    per_conn: List[List[Reply]] = [[] for _ in clients]

    def worker(c: int) -> Callable[[], None]:
        def run() -> None:
            client, out, prev_done = clients[c], per_conn[c], start
            k = c
            while count is None or k < count:
                due = start + k / rate
                if stop is not None and stop.is_set():
                    return
                now = time.monotonic()
                if now < due:
                    time.sleep(due - now)
                sent = time.monotonic()
                i = (offset + k) % len(frames)
                body = client.exchange_raw(frames[i])
                done = time.monotonic()
                out.append(Reply(due, sent, done, i, body, sent - max(due, prev_done)))
                prev_done = done
                k += n_conn

        return run

    run_threads([worker(c) for c in range(n_conn)])
    return decode(sorted((r for out in per_conn for r in out), key=lambda r: r.due))


def batch_frames(rows: List[list], batch_rows: int) -> List[bytes]:
    """One ``predict_batch`` frame per whole block of ``batch_rows`` rows."""
    n_blocks = max(1, len(rows) // batch_rows)
    return [
        encode({"op": "predict_batch", "rows": rows[b * batch_rows:(b + 1) * batch_rows]})
        for b in range(n_blocks)
    ]


def closed_loop_batches(
    clients: Sequence[Connection],
    frames: List[bytes],
    batch_rows: int,
    duration: float,
) -> List[Reply]:
    """Back-to-back ``predict_batch`` requests; block *b* starts at row
    ``b * batch_rows``."""
    end = time.monotonic() + duration
    per_conn: List[List[Reply]] = [[] for _ in clients]

    def worker(c: int) -> Callable[[], None]:
        def run() -> None:
            j = c
            while time.monotonic() < end:
                b = j % len(frames)
                sent = time.monotonic()
                body = clients[c].exchange_raw(frames[b])
                per_conn[c].append(Reply(sent, sent, time.monotonic(), b * batch_rows, body))
                j += len(clients)

        return run

    run_threads([worker(c) for c in range(len(clients))])
    return decode(sorted((r for out in per_conn for r in out), key=lambda r: r.sent))
