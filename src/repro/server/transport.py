"""The HTTP/1.1 edge of the front-end: one asyncio codec.

:func:`start_server` runs ``asyncio.start_server`` on a dedicated event-loop
thread, so synchronous callers (tests and the CLI) can start and stop it.
Each connection carries one request and one response, sent with
``Connection: close``.  The whole request — head and body — must arrive
within :data:`_READ_TIMEOUT_S`; a request the codec cannot frame gets
a prompt status of its own instead of a traceback, a silent close or a hang:

=====  ==================================================================
400    malformed request line, header line or ``Content-Length``; the
       client closed before the head or the declared body was complete
408    the request did not arrive within the read deadline
413    declared body over :data:`_MAX_BODY_BYTES`
431    request head (request line + headers) over :data:`_MAX_HEAD_BYTES`
=====  ==================================================================

:func:`post_json` and :func:`get_json` are the matching stdlib client: one
request, one parsed JSON answer, with error statuses returned, not raised.
"""

from __future__ import annotations

import asyncio
import json
import threading
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from http import HTTPStatus
from typing import Any, Callable, Dict, Optional, Tuple

from .core import ServerCore, _HttpError

__all__ = ["ServerHandle", "get_json", "post_json", "start_server"]

_MAX_BODY_BYTES = 64 * 1024 * 1024
_MAX_HEAD_BYTES = 64 * 1024
#: Seconds a client has to deliver its whole request (head and body).
_READ_TIMEOUT_S = 10.0


@dataclass
class ServerHandle:
    """A running server: address, core (for stats) and a stop switch."""

    core: ServerCore
    host: str
    port: int
    _stop: Callable[[], None] = field(repr=False, default=lambda: None)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        self._stop()


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Read one request as ``(method, path, headers, body)``.

    Returns ``None`` when the client closed without sending a byte and
    raises :class:`~repro.server.core._HttpError` for anything else that is
    not a complete request.  Header names come back lower-cased.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise _HttpError(HTTPStatus.BAD_REQUEST, "request head cut short") from None
    except asyncio.LimitOverrunError:  # the reader's limit is _MAX_HEAD_BYTES
        raise _HttpError(
            HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
            f"request head over {_MAX_HEAD_BYTES} bytes",
        ) from None
    request_line, *header_lines = head[:-4].decode("latin-1").split("\r\n")
    parts = request_line.split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise _HttpError(HTTPStatus.BAD_REQUEST, f"malformed request line {request_line[:80]!r}")
    headers: Dict[str, str] = {}
    for line in header_lines:
        name, colon, value = line.partition(":")
        if not colon:
            raise _HttpError(HTTPStatus.BAD_REQUEST, f"malformed header line {line[:80]!r}")
        headers[name.strip().lower()] = value.strip()

    raw_length = headers.get("content-length", "0")
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise _HttpError(
            HTTPStatus.BAD_REQUEST,
            f"Content-Length must be a non-negative integer, got {raw_length[:40]!r}",
        )
    # Count digits before calling int(), which refuses strings over ~4300 digits.
    digits = raw_length.lstrip("0") or "0"
    if len(digits) > len(str(_MAX_BODY_BYTES)) or int(digits) > _MAX_BODY_BYTES:
        raise _HttpError(
            HTTPStatus.REQUEST_ENTITY_TOO_LARGE,
            f"Content-Length {raw_length[:40]} is over the {_MAX_BODY_BYTES}-byte limit",
        )
    try:
        body = await reader.readexactly(int(digits))
    except asyncio.IncompleteReadError as exc:
        raise _HttpError(
            HTTPStatus.BAD_REQUEST,
            f"body cut short: {len(exc.partial)} of {exc.expected} bytes",
        ) from None
    return parts[0], parts[1], headers, body


def _response_bytes(status: int, headers: Dict[str, str], payload: bytes) -> bytes:
    """One complete response; every path through the codec ends here."""
    status = HTTPStatus(status)
    # The handler may override Content-Type (/metrics serves Prometheus
    # text); everything else is JSON.
    content_type = headers.pop("Content-Type", "application/json")
    lines = [
        f"HTTP/1.1 {status.value} {status.phrase}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(payload)}",
        "Connection: close",
    ]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload


def _error_response(status: int, message: str) -> bytes:
    """A codec-level error, in the JSON shape the core's errors use."""
    payload = json.dumps({"error": message, "status": int(status)}).encode("utf-8")
    return _response_bytes(status, {}, payload)


async def _serve_connection(
    core: ServerCore, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """One HTTP/1.1 exchange: read under the deadline, answer, close."""
    try:
        try:
            request = await asyncio.wait_for(_read_request(reader), _READ_TIMEOUT_S)
        except _HttpError as exc:
            response = _error_response(exc.status, exc.message)
        except asyncio.TimeoutError:
            response = _error_response(
                HTTPStatus.REQUEST_TIMEOUT, f"request not received within {_READ_TIMEOUT_S} s"
            )
        else:
            if request is None:
                return
            method, path, request_headers, body = request
            status, extra_headers, payload = await core.handle(
                method, path, body, headers=request_headers
            )
            response = _response_bytes(status, extra_headers, payload)
        writer.write(response)
        await writer.drain()
    except ConnectionError:
        pass  # the client went away; nobody is left to answer
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


def start_server(
    service: Optional[Any] = None,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    **options: Any,
) -> ServerHandle:
    """Start an HTTP front-end; returns a :class:`ServerHandle` (``port=0`` ⇒ ephemeral).

    ``options`` go straight to :class:`~repro.server.core.ServerCore`
    (admission limits, retry hint, default seed, trace ring capacity,
    default deadline).  The server runs on a dedicated event-loop thread.

    The caller owns the handle: ``handle.stop()`` closes the listener and
    shuts the core down; a second call does nothing.
    """
    core = ServerCore(service, **options)
    ready = threading.Event()
    bound = {}
    stop_event: dict = {}

    async def main() -> None:
        await core.startup()
        stop_event["event"] = asyncio.Event()
        stop_event["loop"] = asyncio.get_running_loop()
        server = await asyncio.start_server(
            lambda r, w: _serve_connection(core, r, w), host, port, limit=_MAX_HEAD_BYTES
        )
        bound["port"] = server.sockets[0].getsockname()[1]
        ready.set()
        try:
            async with server:
                await stop_event["event"].wait()
        finally:
            await core.shutdown()

    thread = threading.Thread(target=lambda: asyncio.run(main()), daemon=True)
    thread.start()
    if not ready.wait(timeout=30):
        raise RuntimeError("HTTP server failed to start within 30s")

    def stop() -> None:
        loop = stop_event.get("loop")
        event = stop_event.get("event")
        if loop is not None and event is not None and not loop.is_closed():
            loop.call_soon_threadsafe(event.set)
        thread.join(timeout=10)

    return ServerHandle(core=core, host=host, port=bound["port"], _stop=stop)


def post_json(
    url: str,
    payload: Any,
    timeout: float = 30.0,
    headers: Optional[Dict[str, str]] = None,
) -> Tuple[int, Dict[str, str], Any]:
    """POST a JSON document; returns ``(status, headers, parsed_body)``.

    HTTP error statuses (4xx/5xx) are returned, not raised, so a caller can
    assert on a 429 or a 400.  ``headers`` adds or overrides request headers
    (e.g. ``X-Repro-Deadline-Ms``).
    """
    request_headers = {"Content-Type": "application/json"}
    if headers:
        request_headers.update(headers)
    body = json.dumps(payload).encode("utf-8")
    return _exchange(
        urllib.request.Request(url, data=body, headers=request_headers, method="POST"),
        timeout,
    )


def get_json(url: str, timeout: float = 30.0) -> Tuple[int, Dict[str, str], Any]:
    """GET a JSON document; returns ``(status, headers, parsed_body)``."""
    return _exchange(urllib.request.Request(url, method="GET"), timeout)


def _exchange(
    request: urllib.request.Request, timeout: float
) -> Tuple[int, Dict[str, str], Any]:
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, dict(response.headers), json.load(response)
    except urllib.error.HTTPError as exc:
        raw = exc.read()
        try:
            parsed = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            parsed = {"error": raw.decode("utf-8", "replace")}
        return exc.code, dict(exc.headers), parsed
