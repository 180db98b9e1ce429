"""The HTTP front end: routing, error mapping, and a live socket test."""

import asyncio
import http.client
import json
import socket
import threading

import pytest

from repro.core.lifecycle import SuspendSpec
from repro.obs import Tracer
from repro.serve import QueryService, ServeApp, ServeConfig, serve_async
from repro.serve import http as http_module
from repro.workloads.plans import serve_catalog


def make_app(image_root, tracer=None):
    db_factory, catalog = serve_catalog(scale=16, seed=1)
    config = ServeConfig(
        quantum_rows=16,
        suspend=SuspendSpec(persist_to=image_root),
        tracer=tracer,
    )
    return ServeApp(QueryService(db_factory(), config), catalog)


class TestRoutes:
    def test_healthz_and_catalog(self, tmp_path):
        """One health route: ``/obs/health`` also names the catalog."""
        app = make_app(str(tmp_path))
        for gone in ("/healthz", "/catalog"):
            assert app.handle("GET", gone, None)[0] == 404
        status, payload = app.handle("GET", "/obs/health", None)
        assert status == 200 and payload["ok"]
        assert payload["queries"] == sorted(app.catalog)

    def test_metrics_route(self, tmp_path):
        """One metrics route: ``/obs/metrics`` adds the text exposition
        when tracing is on."""
        app = make_app(str(tmp_path))
        assert app.handle("GET", "/metrics", None)[0] == 404
        status, payload = app.handle("GET", "/obs/metrics", None)
        assert status == 200 and "text" not in payload

        app = make_app(str(tmp_path / "traced"), tracer=Tracer())
        app.handle("POST", "/queries", {"query": "sorted-join"})
        status, payload = app.handle("GET", "/obs/metrics", None)
        assert status == 200
        assert "serve_requests_total" in payload["text"]

    def test_full_session_through_the_app(self, tmp_path):
        app = make_app(str(tmp_path))
        status, payload = app.handle(
            "POST", "/queries", {"query": "sorted-join", "as": "demo"}
        )
        assert status == 200 and payload["status"] == "running"
        hops = 1
        while payload["status"] == "running":
            status, payload = app.handle(
                "POST", "/continue", {"token": payload["token"]}
            )
            assert status == 200
            hops += 1
        assert payload["status"] == "done" and payload["token"] is None
        assert hops > 2

    def test_auto_session_names_are_unique(self, tmp_path):
        app = make_app(str(tmp_path))
        _, first = app.handle("POST", "/queries", {"query": "hot-sort"})
        _, second = app.handle("POST", "/queries", {"query": "hot-sort"})
        assert first["query"] != second["query"]

    def test_error_mapping(self, tmp_path):
        app = make_app(str(tmp_path))
        assert app.handle("POST", "/queries", {"query": "nope"})[0] == 404
        assert app.handle("GET", "/nothing", None)[0] == 404

        app.handle("POST", "/queries", {"query": "sorted-join", "as": "d"})
        # duplicate session name
        assert (
            app.handle(
                "POST", "/queries", {"query": "sorted-join", "as": "d"}
            )[0]
            == 409
        )
        # malformed token
        assert app.handle("POST", "/continue", {"token": "junk"})[0] == 400
        assert app.handle("POST", "/continue", {})[0] == 400

    def test_redeemed_and_expired_tokens(self, tmp_path):
        app = make_app(str(tmp_path))
        _, payload = app.handle(
            "POST", "/queries", {"query": "sorted-join", "as": "d"}
        )
        token = payload["token"]
        status, follow = app.handle("POST", "/continue", {"token": token})
        assert status == 200
        # replaying the consumed token: 409
        assert app.handle("POST", "/continue", {"token": token})[0] == 409
        # collecting the image out from under the live token: 410
        service = app.service
        service.tokens.release(follow["image_id"])
        service.image_store.gc()
        assert (
            app.handle("POST", "/continue", {"token": follow["token"]})[0]
            == 410
        )


def drive(app, payload):
    """Continue ``payload``'s query on ``app`` until it is done; returns
    the number of continues."""
    hops = 0
    while payload["status"] == "running":
        status, payload = app.handle(
            "POST", "/continue", {"token": payload["token"]}
        )
        assert status == 200, payload
        hops += 1
    return hops


class TestSharedImageRoot:
    """Several servers, one after another or side by side, on one image
    root: names live in the root's ledger, not in a process."""

    def test_restart_with_an_outstanding_auto_name(self, tmp_path):
        first = make_app(str(tmp_path))
        _, a = first.handle("POST", "/queries", {"query": "sorted-join"})
        assert a["status"] == "running"
        restarted = make_app(str(tmp_path))
        status, b = restarted.handle(
            "POST", "/queries", {"query": "sorted-join"}
        )
        assert status == 200 and b["query"] != a["query"]
        assert drive(restarted, a) > 0 and drive(restarted, b) > 0
        assert restarted.service.image_store.list_images() == []

    def test_a_finished_client_name_is_refused_before_any_work(
        self, tmp_path
    ):
        first = make_app(str(tmp_path))
        _, payload = first.handle(
            "POST", "/queries", {"query": "sorted-join", "as": "mine"}
        )
        assert drive(first, payload) >= 1
        second = make_app(str(tmp_path))
        now = second.service.db.now
        status, payload = second.handle(
            "POST", "/queries", {"query": "sorted-join", "as": "mine"}
        )
        assert status == 409 and "already in use" in payload["error"]
        _, health = second.handle("GET", "/obs/health", None)
        assert health["queries_admitted"] == 0 and health["now"] == now
        assert second.service.image_store.list_images() == []

    def test_a_continue_only_server_admits_nothing(self, tmp_path):
        first = make_app(str(tmp_path))
        _, payload = first.handle("POST", "/queries", {"query": "sorted-join"})
        second = make_app(str(tmp_path))
        assert drive(second, payload) > 1
        _, health = second.handle("GET", "/obs/health", None)
        assert health["queries_admitted"] == 0
        assert health["queries_completed"] == 1
        assert health["records"] == 0


@pytest.fixture
def live_server(tmp_path):
    """serve_async on an OS-assigned port, in a background loop."""
    app = make_app(str(tmp_path))
    loop = asyncio.new_event_loop()
    started = threading.Event()
    info = {}

    async def main():
        server = await serve_async(app, "127.0.0.1", 0)
        info["port"] = server.sockets[0].getsockname()[1]
        started.set()
        async with server:
            await server.serve_forever()

    def run():
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(main())
        except RuntimeError:
            pass  # loop.stop() during shutdown
        finally:
            loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(10), "server failed to start"
    yield info["port"]
    loop.call_soon_threadsafe(loop.stop)
    thread.join(10)


def request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    payload = json.dumps(body) if body is not None else None
    conn.request(method, path, body=payload)
    response = conn.getresponse()
    raw = response.read()
    conn.close()
    return response.status, json.loads(raw)


class TestLiveServer:
    def test_end_to_end_session_over_sockets(self, live_server):
        port = live_server
        status, payload = request(port, "GET", "/obs/health")
        assert status == 200 and payload["ok"]

        status, payload = request(
            port, "POST", "/queries", {"query": "sorted-join", "as": "e2e"}
        )
        assert status == 200 and payload["status"] == "running"
        rows = list(payload["rows"])
        while payload["status"] == "running":
            status, payload = request(
                port, "POST", "/continue", {"token": payload["token"]}
            )
            assert status == 200
            rows.extend(payload["rows"])
        assert len(rows) > 16  # more than one quantum's worth

    def test_http_error_statuses(self, live_server):
        port = live_server
        assert request(port, "POST", "/queries", {"query": "x"})[0] == 404
        assert (
            request(port, "POST", "/continue", {"token": "bad"})[0] == 400
        )
        status, _ = request(port, "GET", "/absent")
        assert status == 404

    def test_non_json_body_is_a_400(self, live_server):
        conn = http.client.HTTPConnection("127.0.0.1", live_server, timeout=30)
        conn.request("POST", "/queries", body=b"not json {")
        assert conn.getresponse().status == 400
        conn.close()

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /obs/health HTTP/1.1\r\nX-Big: " + b"a" * 100_000 + b"\r\n\r\n",
            b"GET /obs/health?" + b"a" * 100_000 + b" HTTP/1.1\r\n\r\n",
        ],
        ids=["header", "request_line"],
    )
    def test_oversized_head_line_is_a_431(
        self, live_server, caplog, request_bytes
    ):
        """A head line past asyncio's 64 KiB stream limit is answered,
        not dropped with an unhandled ``ValueError`` in the log."""
        status, payload = raw_exchange(live_server, request_bytes)
        assert status == 431
        assert payload == {
            "error": "request line or header too large",
            "code": "header_too_large",
        }
        assert not [r for r in caplog.records if r.name == "asyncio"]


class TestSlowClient:
    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"POST /queries HTTP/1.1\r\nHost: loc",
            b"POST /queries HTTP/1.1\r\nContent-Length: 40\r\n\r\n{\"qu",
        ],
        ids=["half_head", "half_body"],
    )
    def test_a_stalled_request_is_a_408(
        self, live_server, monkeypatch, request_bytes
    ):
        """Part of a request, then silence: the server answers 408 once
        its deadline passes instead of holding the connection open."""
        monkeypatch.setattr(
            http_module, "REQUEST_TIMEOUT_S", 0.3, raising=False
        )
        with socket.create_connection(("127.0.0.1", live_server)) as sock:
            sock.settimeout(10)
            sock.sendall(request_bytes)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split()[1] == b"408"
        assert json.loads(body) == {
            "error": "request not received in time",
            "code": "request_timeout",
        }


def raw_exchange(port, request_bytes):
    """Send ``request_bytes`` as they are; the reply's status and JSON."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(request_bytes)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class TestHostileInput:
    """Malformed requests get a 400 with the usual error body, over a
    real socket, instead of a dropped connection or a 500."""

    @pytest.mark.parametrize("length", ["abc", "1e3", "-5"])
    def test_bad_content_length(self, live_server, caplog, length):
        status, payload = raw_exchange(
            live_server,
            b"POST /queries HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Length: " + length.encode() + b"\r\n\r\n",
        )
        assert status == 400
        assert payload == {"error": f"bad Content-Length {length!r}"}
        assert not [r for r in caplog.records if r.name == "asyncio"]

    @pytest.mark.parametrize("body", ["[1, 2]", "7", '"sorted-join"', "null"])
    def test_body_that_is_not_an_object(self, live_server, body):
        status, payload = raw_exchange(
            live_server,
            b"POST /queries HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body.encode()),
        )
        assert status == 400
        assert payload == {"error": "body is not a JSON object"}

    def test_priority_that_is_not_an_integer(self, live_server):
        status, payload = request(
            live_server,
            "POST",
            "/queries",
            {"query": "sorted-join", "priority": "x"},
        )
        assert status == 400
        assert payload == {"error": "priority 'x' is not an integer"}

    @pytest.mark.parametrize(
        "name",
        ["../evil", ".hidden", "a\u0000b", ["x"], 7, "", "n" * 65, "a/b"],
        ids=["dotdot", "dot", "nul", "list", "int", "empty", "long", "slash"],
    )
    def test_a_bad_session_name_is_a_400_before_any_work(
        self, live_server, name
    ):
        """``"as"`` becomes an image-id prefix and a key scope inside
        images: anything but a plain name is refused with nothing
        admitted, so the same request with a good name still works."""
        _, before = request(live_server, "GET", "/obs/health")
        status, payload = request(
            live_server, "POST", "/queries", {"query": "sorted-join", "as": name}
        )
        assert status == 400 and payload["code"] == "bad_name"
        _, after = request(live_server, "GET", "/obs/health")
        assert after["records"] == before["records"]
        assert after["queries_admitted"] == before["queries_admitted"]

    @pytest.mark.parametrize(
        "name", ["q1", "c00001-sorted-join", "sorted-join-1", "A.b_c-9", "n" * 64]
    )
    def test_plain_session_names_are_accepted(self, tmp_path, name):
        app = make_app(str(tmp_path))
        status, payload = app.handle(
            "POST", "/queries", {"query": "sorted-join", "as": name}
        )
        assert status == 200 and payload["query"] == name


class TestObsRoutes:
    """The live-introspection endpoints: /obs/metrics, progress, health."""

    def test_obs_metrics_works_with_tracing_off(self, tmp_path):
        app = make_app(str(tmp_path))
        app.handle("POST", "/queries", {"query": "sorted-join"})
        status, payload = app.handle("GET", "/obs/metrics", None)
        assert status == 200
        assert payload["tracing"] is False
        assert isinstance(payload["metrics"], dict)

    def test_obs_metrics_carries_registry_snapshot_when_traced(
        self, tmp_path
    ):
        app = make_app(str(tmp_path), tracer=Tracer())
        app.handle("POST", "/queries", {"query": "sorted-join"})
        status, payload = app.handle("GET", "/obs/metrics", None)
        assert status == 200 and payload["tracing"] is True
        counters = payload["metrics"]["counters"]
        assert any("serve_requests_total" in k for k in counters)

    def test_obs_health(self, tmp_path):
        app = make_app(str(tmp_path))
        app.handle("POST", "/queries", {"query": "sorted-join", "as": "h"})
        status, payload = app.handle("GET", "/obs/health", None)
        assert status == 200 and payload["ok"]
        assert payload["queries_admitted"] == 1
        assert payload["queries"] == sorted(app.catalog)
        assert payload["now"] > 0

    def test_obs_progress_monotone_across_hops(self, tmp_path):
        app = make_app(str(tmp_path))
        _, payload = app.handle(
            "POST", "/queries", {"query": "sorted-join", "as": "p"}
        )
        fractions = []
        while payload["status"] == "running":
            status, doc = app.handle(
                "GET", f"/obs/progress/{payload['token']}", None
            )
            assert status == 200
            assert doc["query"] == "p" and doc["current"] is True
            fractions.append(doc["fraction"])
            _, payload = app.handle(
                "POST", "/continue", {"token": payload["token"]}
            )
        assert len(fractions) > 2
        # Monotonically non-decreasing fraction-complete across hops.
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))
        assert 0.0 < fractions[0] < 1.0

    def test_obs_progress_reports_done(self, tmp_path):
        app = make_app(str(tmp_path))
        _, payload = app.handle(
            "POST", "/queries", {"query": "sorted-join", "as": "d"}
        )
        last_token = payload["token"]
        while payload["status"] == "running":
            last_token = payload["token"]
            _, payload = app.handle(
                "POST", "/continue", {"token": payload["token"]}
            )
        status, doc = app.handle(
            "GET", f"/obs/progress/{last_token}", None
        )
        assert status == 200
        assert doc["status"] == "done" and doc["fraction"] == 1.0
        assert doc["est_remaining_work"] == 0.0
        # The redeemed token is no longer the latest one for the query.
        assert doc["current"] is False

    def test_obs_progress_error_mapping(self, tmp_path):
        app = make_app(str(tmp_path))
        status, doc = app.handle("GET", "/obs/progress/garbage", None)
        assert status == 400 and doc["code"] == "bad_token"
        # A well-formed token for a query this server never saw: 404.
        other = make_app(str(tmp_path / "other"))
        _, payload = other.handle(
            "POST", "/queries", {"query": "sorted-join", "as": "elsewhere"}
        )
        status, doc = app.handle(
            "GET", f"/obs/progress/{payload['token']}", None
        )
        assert status == 404 and doc["code"] == "unknown_query"

    def test_progress_trace_id_matches_serve_trace(self, tmp_path):
        tracer = Tracer()
        app = make_app(str(tmp_path), tracer=tracer)
        _, payload = app.handle(
            "POST", "/queries", {"query": "sorted-join", "as": "t"}
        )
        _, doc = app.handle(
            "GET", f"/obs/progress/{payload['token']}", None
        )
        trace_ids = {
            r["trace_id"]
            for r in tracer.records
            if r.get("query") == "t" and "trace_id" in r
        }
        assert trace_ids == {doc["trace_id"]}
