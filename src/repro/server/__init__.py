"""Async HTTP front-end over the query-serving subsystem.

The server package puts a network face on :class:`~repro.service.serving.QueryService`:

* :mod:`~repro.server.core` — :class:`ServerCore`, the transport-agnostic
  brain: routing (``/v2/batch``, ``/builds``, ``/sessions``, ``/stats``),
  per-fingerprint request coalescing, admission control with honest 429 +
  ``Retry-After`` backpressure, background index builds and streaming
  sessions, all serialised onto one service thread;
* :mod:`~repro.server.transport` — the asyncio HTTP/1.1 codec behind
  :func:`start_server`, and the :func:`post_json` / :func:`get_json`
  client helpers that tests use to call it.

``python -m repro serve-http`` is the CLI entry point.
"""

from .core import BATCH_SCHEMA_ID, STATS_SCHEMA_ID, ServerCore
from .transport import ServerHandle, get_json, post_json, start_server

__all__ = [
    "BATCH_SCHEMA_ID",
    "STATS_SCHEMA_ID",
    "ServerCore",
    "get_json",
    "post_json",
    "ServerHandle",
    "start_server",
]
