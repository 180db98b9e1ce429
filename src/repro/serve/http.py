"""The asyncio HTTP front end over :class:`QueryService`.

A deliberately small, dependency-free HTTP/1.1 server
(``asyncio.start_server`` + hand-rolled request parsing — the container
has no aiohttp and the protocol surface is five routes). The asyncio
loop owns connection handling; the actual query work is synchronous and
single-writer (one shared virtual clock), so every request body is
executed under one lock on the default thread-pool executor. Parsing
and response writing stay on the loop, so slow clients never hold the
engine.

Routes (see docs/SERVING.md for a curl session):

- ``POST /queries`` — body ``{"query": <catalog name>, "as": <session
  name>?, "priority": <int>?}``; runs the first quantum, returns rows
  plus a continuation token (or ``"status": "done"``);
- ``POST /continue`` — body ``{"token": "rst1...."}``; next quantum.
- ``GET /obs/metrics`` — the full registry snapshot as JSON (works with
  tracing off: serving metrics like request latencies are always kept),
  plus the plain-text exposition under ``text`` when tracing is on;
- ``GET /obs/progress/<token>`` — live fraction-complete and estimated
  remaining work for the query the token names (no redemption);
- ``GET /obs/health`` — liveness, the plans this server can start
  (``queries``), serving counters, requests in flight (``records``) and
  trace state.

Error mapping: a malformed request (a ``Content-Length`` that is not a
decimal count, a body that is not a JSON object, a ``priority`` that is
not an integer, an ``"as"`` that is not a session name — code
``bad_name``) or a malformed token → 400, already redeemed → 409
(conflict: the continuation was consumed), image GC'd → 410 (gone),
unknown catalog entry / unknown progress query / unknown route → 404,
a session name the image root's ledger already holds → 409, oversized
body → 413, a request line or header line past the stream's 64 KiB
limit → 431, a request (head and body) not received within
``REQUEST_TIMEOUT_S`` → 408, so a client that trickles its request
cannot hold a connection. Every error body is
``{"error": <message>, "code": <machine tag>?}``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import re
import threading
from typing import Optional

from repro.common.errors import ReproError
from repro.engine.plan import PlanSpec
from repro.serve.service import QueryService
from repro.serve.tokens import (
    TokenError,
    TokenExpiredError,
    TokenRedeemedError,
)

MAX_BODY_BYTES = 1 << 20
#: Seconds a client has to send its whole request, head and body. Over
#: loopback a whole request is read in under 8 ms (the slowest of ~700
#: in a 4 s ``serve_hops`` run, 2-core machine); 10 s also admits a
#: ``MAX_BODY_BYTES`` body sent at 100 KiB/s or faster.
REQUEST_TIMEOUT_S = 10.0
#: A client-chosen session name (``"as"``), which prefixes image ids.
SESSION_NAME = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9._-]{0,63}")


class ServeApp:
    """Routing and JSON glue, transport-free (tests drive it directly)."""

    def __init__(self, service: QueryService, catalog: dict):
        self.service = service
        self.catalog: dict[str, PlanSpec] = dict(catalog)
        self._names = itertools.count(1)
        self._lock = threading.Lock()

    def _session_name(self, base: str) -> str:
        """``<base>-N`` for the next N whose name the image root's ledger
        does not hold, so a restarted server or a peer on the same root
        never reuses a name a query already took."""
        reserved = self.service.image_store.reserved
        names = (f"{base}-{n}" for n in self._names)
        return next(name for name in names if not reserved(name))

    def handle(self, method: str, path: str, body: Optional[dict]):
        """Dispatch one request; returns ``(http_status, payload)``."""
        with self._lock:
            return self._route(method, path, body)

    def _route(self, method, path, body):
        if method == "GET" and path == "/obs/metrics":
            # The JSON snapshot works with tracing off too: the stats
            # registry (shared with the tracer when tracing is on)
            # always exists and always carries the serving counters.
            tracer = self.service.tracer
            payload = {
                "tracing": tracer.enabled,
                "metrics": self.service.stats.registry.as_dict(
                    include_volatile=True
                ),
            }
            if tracer.enabled:
                payload["text"] = tracer.metrics.render_text()
            return 200, payload
        if method == "GET" and path.startswith("/obs/progress/"):
            token_text = path[len("/obs/progress/"):]
            try:
                return 200, self.service.progress_of(token_text)
            except KeyError as exc:
                return 404, {
                    "error": f"no progress for query {exc.args[0]!r} "
                    "on this server",
                    "code": "unknown_query",
                }
            except TokenError as exc:
                return 400, {"error": str(exc), "code": "bad_token"}
        if method == "GET" and path == "/obs/health":
            stats = self.service.stats
            return 200, {
                "ok": True,
                "queries": sorted(self.catalog),
                "tracing": self.service.tracer.enabled,
                "now": round(self.service.db.now, 6),
                "queries_admitted": stats.queries_admitted,
                "queries_completed": stats.queries_completed,
                "records": len(self.service.records),
            }
        if method == "POST" and path == "/queries":
            body = body or {}
            name = body.get("query")
            if name not in self.catalog:
                return 404, {
                    "error": f"unknown query {name!r}",
                    "queries": sorted(self.catalog),
                }
            session = body.get("as")
            if session is None:
                session = self._session_name(name)
            elif type(session) is not str or not SESSION_NAME.fullmatch(session):
                error = f"bad session name {session!r}"
                return 400, {"error": error, "code": "bad_name"}
            priority = body.get("priority", 0)
            if not isinstance(priority, int):
                return 400, {"error": f"priority {priority!r} is not an integer"}
            try:
                result = self.service.begin(
                    session, self.catalog[name], priority=priority
                )
            except ReproError as exc:
                return 409, {"error": str(exc)}
            return 200, result.as_dict()
        if method == "POST" and path == "/continue":
            body = body or {}
            try:
                result = self.service.continue_query(body.get("token"))
            except TokenRedeemedError as exc:
                return 409, {"error": str(exc)}
            except TokenExpiredError as exc:
                return 410, {"error": str(exc)}
            except TokenError as exc:
                return 400, {"error": str(exc)}
            return 200, result.as_dict()
        return 404, {"error": f"no route {method} {path}"}


STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    409: "Conflict",
    410: "Gone",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


def _response_bytes(status: int, payload: dict) -> bytes:
    body = (json.dumps(payload) + "\n").encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {STATUS_TEXT.get(status, 'Unknown')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("ascii")
    return head + body


class _Rejected(Exception):
    """``(status, payload)``: a request answered with a 4xx before it
    reaches the app."""


async def _read_line(reader) -> bytes:
    """One line of the request head. A line longer than the stream's
    buffer limit (asyncio's default: 64 KiB) makes ``readline`` raise
    ``ValueError``; it is answered, not dropped."""
    try:
        return await reader.readline()
    except ValueError:
        raise _Rejected(
            431,
            {
                "error": "request line or header too large",
                "code": "header_too_large",
            },
        ) from None


async def _read_body(reader, content_length: str) -> Optional[dict]:
    """The request body: a JSON object, or None when there is none."""
    if not content_length.isdigit():
        raise _Rejected(
            400, {"error": f"bad Content-Length {content_length!r}"}
        )
    if int(content_length) > MAX_BODY_BYTES:
        raise _Rejected(413, {"error": "body too large"})
    if not int(content_length):
        return None
    raw = await reader.readexactly(int(content_length))
    try:
        body = json.loads(raw)
    except ValueError:
        raise _Rejected(400, {"error": "body is not JSON"}) from None
    if not isinstance(body, dict):
        raise _Rejected(400, {"error": "body is not a JSON object"})
    return body


async def _read_request(reader) -> Optional[tuple[str, str, Optional[dict]]]:
    """``(method, path, body)`` of the request on ``reader``, or None
    when the client sent no request line."""
    parts = (await _read_line(reader)).decode("ascii", "replace").split()
    if len(parts) < 2:
        return None
    content_length = "0"
    while True:
        line = await _read_line(reader)
        if line in (b"\r\n", b"\n", b""):
            break
        header = line.decode("ascii", "replace")
        if header.lower().startswith("content-length:"):
            content_length = header.split(":", 1)[1].strip()
    return parts[0].upper(), parts[1], await _read_body(reader, content_length)


async def _handle_connection(app: ServeApp, reader, writer):
    try:
        try:
            request = await asyncio.wait_for(
                _read_request(reader), REQUEST_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            writer.write(
                _response_bytes(
                    408,
                    {
                        "error": "request not received in time",
                        "code": "request_timeout",
                    },
                )
            )
            return
        except _Rejected as exc:
            writer.write(_response_bytes(*exc.args))
            return
        if request is None:
            return
        method, path, body = request
        loop = asyncio.get_running_loop()
        try:
            status, payload = await loop.run_in_executor(
                None, app.handle, method, path, body
            )
        except Exception as exc:  # noqa: BLE001 - server must answer
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        writer.write(_response_bytes(status, payload))
        await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError):
        pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except ConnectionError:
            pass


async def serve_async(
    app: ServeApp, host: str = "127.0.0.1", port: int = 8351
):
    """Run the server until cancelled; returns the asyncio server."""
    server = await asyncio.start_server(
        lambda r, w: _handle_connection(app, r, w), host, port
    )
    return server


def run_server(app: ServeApp, host: str = "127.0.0.1", port: int = 8351):
    """Blocking entry point (the CLI's ``serve-http``)."""

    async def main():
        server = await serve_async(app, host, port)
        addrs = ", ".join(
            str(sock.getsockname()) for sock in server.sockets
        )
        print(f"serving on {addrs} (Ctrl-C to stop)")
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("stopped")


__all__ = [
    "MAX_BODY_BYTES",
    "REQUEST_TIMEOUT_S",
    "ServeApp",
    "run_server",
    "serve_async",
]
