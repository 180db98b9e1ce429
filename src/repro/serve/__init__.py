"""Serving over HTTP with continuation tokens (SaGe-style preemption).

The paper makes suspend/resume a first-class lifecycle operation; this
package makes it a *wire protocol*. Each HTTP request runs a query for
one quantum; instead of blocking, the server suspends the query through
the durable image path and hands back a **continuation token** — an
opaque reference to the committed image (a delta image on repeat
suspends). The client presents the token to continue; the server keeps
no per-query state between requests.

Layers, bottom up:

- :mod:`repro.serve.tokens` — token wire format, at-most-once redeem
  ledger, token-pinned GC over the image store;
- :mod:`repro.serve.service` — :class:`QueryService`: the transport-free
  request handlers, composing the same
  :class:`~repro.service.core.ExecutorCore` as the in-process
  scheduler;
- :mod:`repro.serve.http` — the asyncio HTTP/1.1 front end
  (``python -m repro.cli serve-http``);
- :mod:`repro.serve.loadgen` — the deterministic load generator behind
  ``repro loadgen``.
"""

from repro.serve.http import ServeApp, run_server, serve_async
from repro.serve.loadgen import run_loadgen
from repro.serve.service import QueryService, ServeConfig, ServeResult
from repro.serve.tokens import (
    TOKEN_PREFIX,
    ContinuationToken,
    TokenError,
    TokenExpiredError,
    TokenManager,
    TokenRedeemedError,
)

__all__ = [
    "ContinuationToken",
    "QueryService",
    "ServeApp",
    "ServeConfig",
    "ServeResult",
    "TOKEN_PREFIX",
    "TokenError",
    "TokenExpiredError",
    "TokenManager",
    "TokenRedeemedError",
    "run_loadgen",
    "run_server",
    "serve_async",
]
