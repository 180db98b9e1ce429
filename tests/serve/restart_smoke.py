"""Serve-restart smoke: two ``serve-http`` processes on one image root.

Run from the repository root::

    PYTHONPATH=src python tests/serve/restart_smoke.py

Starts ``repro serve-http`` on a fresh image root and begins one
auto-named ``sorted-join``, stops that server and starts a second one on
the same root, begins another auto-named ``sorted-join`` there, then
drives both tokens to ``done`` on the second server. The two sessions
must get different names and return the same rows. Any answer other
than a 200 exits non-zero with the server's error body. Uses only the
standard library.
"""

from __future__ import annotations

import http.client
import json
import re
import signal
import subprocess
import sys
import tempfile

SERVING = re.compile(r"serving on \('127\.0\.0\.1', (\d+)\)")


def start(root: str) -> tuple[subprocess.Popen, int]:
    """A ``serve-http`` process on ``root`` and the port it bound."""
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve-http"]
        + ["--images", root, "--port", "0"],
        stdout=subprocess.PIPE,
        text=True,
    )
    for line in proc.stdout:
        match = SERVING.search(line)
        if match:
            return proc, int(match.group(1))
    proc.wait()
    raise SystemExit(f"serve-http exited ({proc.returncode}) before serving")


def stop(proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def post(port: int, path: str, body: dict) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", path, body=json.dumps(body))
        response = conn.getresponse()
        payload = json.loads(response.read())
    finally:
        conn.close()
    if response.status != 200:
        raise SystemExit(f"POST {path}: HTTP {response.status}: {payload}")
    return payload


def drive(port: int, payload: dict) -> list:
    """The session's rows, continuing its token on ``port`` until done."""
    rows = list(payload["rows"])
    while payload["status"] == "running":
        payload = post(port, "/continue", {"token": payload["token"]})
        rows += payload["rows"]
    return rows


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="serve-restart-") as root:
        proc, port = start(root)
        try:
            first = post(port, "/queries", {"query": "sorted-join"})
        finally:
            stop(proc)
        assert first["status"] == "running", first
        proc, port = start(root)
        try:
            second = post(port, "/queries", {"query": "sorted-join"})
            names = (first["query"], second["query"])
            rows = [drive(port, first), drive(port, second)]
        finally:
            stop(proc)
    assert names[0] != names[1], names
    assert rows[0] == rows[1] and rows[0], "the two sessions' rows differ"
    print(
        f"restart smoke: {names[0]} and {names[1]} done, "
        f"{len(rows[0])} rows each"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
