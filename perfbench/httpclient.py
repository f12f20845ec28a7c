"""A lean closed-loop HTTP/1.1 client on raw sockets.

Request bytes are built before the loop starts and answers are parsed and
checked only after it ends, so the client adds little to each measured
request: in probes, urllib added 2-4 ms per request and a raw socket
1.5-2 ms.
"""

from __future__ import annotations

import itertools
import json
import socket
import threading
import time
from typing import Callable, List, Optional, Tuple

from .oracle import split_response

#: One op: ``(op index, send time, time of last byte, raw response or None)``.
Record = Tuple[int, float, float, Optional[bytes]]

HOST = "127.0.0.1"


def request_bytes(method: str, path: str, body: bytes = b"", op: Optional[int] = None) -> bytes:
    """An HTTP/1.1 request; ``X-Bench-Op`` lets a traced server tag its spans."""
    head = f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\nContent-Length: {len(body)}\r\n"
    if body:
        head += "Content-Type: application/json\r\n"
    if op is not None:
        head += f"X-Bench-Op: {op}\r\n"
    return (head + "\r\n").encode("latin-1") + body


def call(port: int, data: bytes, timeout: float = 60.0) -> Optional[bytes]:
    """Send one request and read until the server closes; ``None`` on error."""
    try:
        with socket.create_connection((HOST, port), timeout=timeout) as sock:
            sock.sendall(data)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
    except OSError:
        return None
    return b"".join(chunks) or None


def get_json(port: int, path: str) -> dict:
    raw = call(port, request_bytes("GET", path))
    if raw is None:
        raise ConnectionError(f"GET {path}: no response")
    status, body = split_response(raw)
    if status != 200:
        raise ConnectionError(f"GET {path}: HTTP {status}")
    return json.loads(body)


def closed_loop(
    port: int,
    body_for: Callable[[int], bytes],
    *,
    connections: int,
    first_op: int = 0,
    seconds: Optional[float] = None,
    max_ops: Optional[int] = None,
) -> Tuple[List[Record], float, float]:
    """``connections`` clients, each sending its next op when the last answers.

    Ops are numbered from ``first_op`` in send order.  Stops issuing after
    ``seconds`` or ``max_ops``; returns ``(records, start, end)`` where
    ``end`` is the last answer's arrival.
    """
    counter = itertools.count(first_op)
    records: List[Record] = []
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else float("inf")
    last_op = first_op + max_ops if max_ops is not None else None

    def worker() -> None:
        while True:
            k = next(counter)
            if (last_op is not None and k >= last_op) or time.perf_counter() >= deadline:
                return
            data = request_bytes("POST", "/v2/batch", body_for(k), op=k)
            sent = time.perf_counter()
            raw = call(port, data)
            records.append((k, sent, time.perf_counter(), raw))

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = max((r[2] for r in records), default=start)
    return sorted(records), start, end
