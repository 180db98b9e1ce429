"""Process-backed shard worker: the in-process worker behind a pipe.

The parent side (:class:`ProcessShardWorker`) and the child
(``python -m repro.shard.worker_proc``) exchange length-prefixed
codec-v2 value streams (:mod:`repro.durability.codec2`) over the child's
binary stdin/stdout. The child builds its shard database from the
shipped table rows and the coordinator's :class:`EngineConfig`, then
calls the :class:`~repro.shard.worker.InProcessShardWorker` method each
request names, with the request's arguments — rows, plan fragments and
budgets cross the boundary as the values they are. Each reply carries
the trace records the call emitted, which the parent appends to the
coordinator's tracer, so a sharded run has one trace whatever the worker
kind. Suspend images are committed by the child directly into the shared
on-disk image root, so the coordinator's cut protocol is identical for
both worker kinds.

What the process boundary buys is *real* crash semantics for the fault
matrix: an armed crash makes the child ``os._exit`` mid-commit or
mid-resume — actual process death, not an exception unwinding through
cleanup handlers — and the parent surfaces the broken pipe as a
:class:`~repro.common.errors.ShardError`. The records of the calls that
completed before the crash are already in the parent's trace. A child
that neither answers nor dies is bounded too: a call that has no reply
within ``DEADLINE_S`` kills and reaps the child and raises a
``ShardError`` naming the op.
"""

from __future__ import annotations

import functools
import os
import select
import struct
import subprocess
import sys
import time
from typing import Optional

import repro
from repro.common.errors import (
    ReproError,
    ShardError,
    SuspendBudgetInfeasibleError,
)
from repro.durability import codec2
from repro.engine.config import EngineConfig
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.shard.worker import InProcessShardWorker
from repro.storage.database import Database

#: Exit code the child uses for an injected crash (real process death).
CRASH_EXIT_CODE = 23

#: Seconds the parent waits for the child to take a request and reply
#: (or to exit once asked to) before it deems the child hung. Across the
#: shard tests and the two-shard CLI smoke (2-core machine) the slowest
#: op is ``init`` at 0.37 s, mostly the child interpreter's start-up;
#: every other op answers within 10 ms. 60 s leaves over a hundredfold
#: margin for larger shards and a loaded host.
DEADLINE_S = 60.0

#: Length prefix of one message frame.
_LENGTH = struct.Struct("<I")


def _frame(message) -> bytes:
    data = codec2.encode_bytes(message)
    return _LENGTH.pack(len(data)) + data


def _receive(read):
    """The next message ``read(n)`` yields, or None at end of stream
    (``read`` returns short there)."""
    header = read(_LENGTH.size)
    if len(header) < _LENGTH.size:
        return None
    (size,) = _LENGTH.unpack(header)
    data = read(size)
    if len(data) < size:
        return None
    return codec2.decode_bytes(data)


def _wait(fd: int, events: int, deadline: float) -> None:
    """Block until ``fd`` is ready for ``events``; raise ``TimeoutError``
    if ``deadline`` (``time.monotonic``) passes first."""
    poller = select.poll()
    poller.register(fd, events)
    remaining = deadline - time.monotonic()
    if remaining <= 0 or not poller.poll(remaining * 1000):
        raise TimeoutError


def _write(proc, data: bytes, deadline: float) -> None:
    """Write ``data`` to the child's (non-blocking) stdin by ``deadline``."""
    fd = proc.stdin.fileno()
    view = memoryview(data)
    while view:
        _wait(fd, select.POLLOUT, deadline)
        try:
            view = view[os.write(fd, view) :]
        except BlockingIOError:
            continue


def _read(proc, size: int, deadline: float) -> bytes:
    """``size`` bytes of the child's stdout by ``deadline``, fewer at end
    of stream."""
    fd = proc.stdout.fileno()
    chunks = []
    while size:
        _wait(fd, select.POLLIN, deadline)
        chunk = os.read(fd, size)
        if not chunk:
            break
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _reap(proc, grace: float) -> None:
    """Give the child ``grace`` seconds to exit, then kill it; it is
    reaped and its pipes are closed either way."""
    try:
        proc.wait(timeout=grace)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()  # SIGKILL cannot be caught or ignored
    finally:
        proc.stdin.close()
        proc.stdout.close()


class ProcessShardWorker:
    """Parent-side proxy for an :class:`InProcessShardWorker` in a child.

    Every public method of the in-process worker is an op: calling it
    here sends its name and arguments through :meth:`_call`. The child
    traces with the coordinator's sampling period and attaches the
    records a call emitted to that call's reply; they are appended to
    ``tracer`` with this sink's next ``seq`` values, so a process-worker
    run writes the same trace as an in-process one.
    """

    def __init__(
        self,
        shard_id: int,
        num_shards: int,
        tables: list,
        config: Optional[EngineConfig] = None,
        tracer=None,
    ):
        self.shard_id = shard_id
        self.num_shards = num_shards
        self.tracer = tracer if tracer is not None else NULL_TRACER
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p
        )
        # -c (not -m): the module is imported once, normally — running it
        # as __main__ under runpy would shadow the already-imported copy
        # the package's __init__ pulled in.
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "from repro.shard.worker_proc import main; main()",
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )
        # Requests are written as the pipe takes them, each wait bounded.
        os.set_blocking(self.proc.stdin.fileno(), False)
        self._call(
            "init",
            shard_id,
            num_shards,
            tables,
            config=vars(config or EngineConfig()),
            trace_sample=(
                self.tracer.next_sample_every if self.tracer.enabled else None
            ),
        )

    def __getattr__(self, op: str):
        """A public :class:`InProcessShardWorker` method, run in the child."""
        if op.startswith("_") or not callable(
            getattr(InProcessShardWorker, op, None)
        ):
            raise AttributeError(op)
        return functools.partial(self._call, op)

    def _call(self, op: str, *args, **kwargs):
        if self.proc.poll() is not None:
            raise ShardError(
                f"shard {self.shard_id} worker process is dead "
                f"(exit code {self.proc.returncode})"
            )
        deadline = time.monotonic() + DEADLINE_S
        try:
            _write(
                self.proc,
                _frame({"op": op, "args": args, "kwargs": kwargs}),
                deadline,
            )
            response = _receive(lambda size: _read(self.proc, size, deadline))
        except TimeoutError:
            _reap(self.proc, 0)
            raise ShardError(
                f"shard {self.shard_id} worker process did not answer "
                f"{op!r} within {DEADLINE_S:g} s; killed it"
            ) from None
        except OSError as exc:
            raise ShardError(
                f"shard {self.shard_id} worker process died during {op!r}"
            ) from exc
        if response is None:
            _reap(self.proc, DEADLINE_S)
            raise ShardError(
                f"shard {self.shard_id} worker process died during {op!r} "
                f"(exit code {self.proc.returncode})"
            )
        self.tracer.adopt(response["trace"])
        if not response["ok"]:
            err_type = response.get("error_type")
            message = f"shard {self.shard_id}: {err_type}: {response['error']}"
            if err_type == "SuspendBudgetInfeasibleError":
                raise SuspendBudgetInfeasibleError(message)
            raise ShardError(message)
        return response.get("result")

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                _write(
                    self.proc,
                    _frame({"op": "shutdown"}),
                    time.monotonic() + DEADLINE_S,
                )
            except OSError:
                pass
        _reap(self.proc, 5)

    def kill(self) -> None:
        """Hard-kill the child (a shard dying outside any protocol step)."""
        _reap(self.proc, 0)


# ----------------------------------------------------------------------
# Child side
# ----------------------------------------------------------------------
def _build_worker(
    shard_id: int,
    num_shards: int,
    tables: list,
    config: dict,
    trace_sample: Optional[int],
) -> InProcessShardWorker:
    from repro.relational.schema import Schema

    db = Database()
    for table in tables:
        db.create_table(
            table["name"],
            Schema.of(
                table["columns"], bytes_per_tuple=table["bytes_per_tuple"]
            ),
            rows=table["rows"],
            tuples_per_page=table["tuples_per_page"],
        )
    tracer = None
    if trace_sample is not None:
        tracer = Tracer(next_sample_every=trace_sample)
        # The coordinator's trace already opens with the one trace.meta.
        tracer.records.clear()
    return InProcessShardWorker(
        shard_id,
        num_shards,
        db,
        config=EngineConfig(**config),
        tracer=tracer,
    )


def _handle(worker: InProcessShardWorker, op: str, args, kwargs):
    if op == "resume_fragment" and worker._fault == ("crash", "resume"):
        # Injected mid-resume death: the real thing, not an exception.
        os._exit(CRASH_EXIT_CODE)
    method = getattr(InProcessShardWorker, op, None)
    if op.startswith("_") or not callable(method):
        raise ShardError(f"unknown worker op {op!r}")
    return method(worker, *args, **kwargs)


def main() -> None:
    from repro.durability.faults import InjectedCrash

    stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
    worker: Optional[InProcessShardWorker] = None
    while True:
        request = _receive(stdin.read)
        if request is None or request["op"] == "shutdown":
            break
        op, args, kwargs = request["op"], request["args"], request["kwargs"]
        try:
            if op == "init":
                worker = _build_worker(*args, **kwargs)
                result = None
            else:
                result = _handle(worker, op, args, kwargs)
            response = {"ok": True, "result": result}
        except InjectedCrash:
            # The simulated crash becomes a genuine one: no response, no
            # cleanup, no atexit handlers — the parent sees a dead pipe.
            stdout.flush()
            os._exit(CRASH_EXIT_CODE)
        except ReproError as exc:
            response = {
                "ok": False,
                "error_type": type(exc).__name__,
                "error": str(exc),
            }
        # What this call traced rides back with its reply.
        records = worker.tracer.records if worker is not None else []
        response["trace"] = list(records)
        records.clear()
        stdout.write(_frame(response))
        stdout.flush()


if __name__ == "__main__":
    main()
