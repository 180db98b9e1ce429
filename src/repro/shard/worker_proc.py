"""Process-backed shard worker: the same interface, a real process.

The parent side (:class:`ProcessShardWorker`) and the child
(``python -m repro.shard.worker_proc``) exchange length-prefixed
codec-v2 value streams (:mod:`repro.durability.codec2`) over the child's binary
stdin/stdout. The child builds its shard database from the shipped table
rows and calls the :class:`~repro.shard.worker.InProcessShardWorker`
method each request names, with the request's arguments — rows, plan
fragments, budgets and trace records cross the boundary as the values
they are. Suspend images are committed by the child directly into the
shared on-disk image root, so the coordinator's cut protocol is
identical for both worker kinds.

What the process boundary buys is *real* crash semantics for the fault
matrix: an armed crash makes the child ``os._exit`` mid-commit or
mid-resume — actual process death, not an exception unwinding through
cleanup handlers — and the parent surfaces the broken pipe as a
:class:`~repro.common.errors.ShardError`.
"""

from __future__ import annotations

import math
import os
import struct
import subprocess
import sys
from typing import Optional

import repro
from repro.common.errors import (
    ReproError,
    ShardError,
    SuspendBudgetInfeasibleError,
)
from repro.durability import codec2
from repro.shard.worker import InProcessShardWorker, ShardWorker
from repro.storage.database import Database

#: Exit code the child uses for an injected crash (real process death).
CRASH_EXIT_CODE = 23

#: Length prefix of one message frame.
_LENGTH = struct.Struct("<I")


def _send(stream, message) -> None:
    data = codec2.encode_bytes(message)
    stream.write(_LENGTH.pack(len(data)) + data)
    stream.flush()


def _receive(stream):
    """The next message on ``stream``, or None at end of stream."""
    header = stream.read(_LENGTH.size)
    if len(header) < _LENGTH.size:
        return None
    (size,) = _LENGTH.unpack(header)
    data = stream.read(size)
    if len(data) < size:
        return None
    return codec2.decode_bytes(data)


class ProcessShardWorker(ShardWorker):
    """Parent-side proxy driving one shard in a child process.

    ``trace`` configures the child's own tracer:
    ``{"enabled": bool, "sample": int, "trace_id": str | None}``. The
    child buffers records in its own sink (virtual-clock timestamps, so
    no cross-process skew) and ships them back through
    :meth:`drain_trace`; :mod:`repro.obs.merge` interleaves them with
    the coordinator's stream into one global timeline.
    """

    def __init__(
        self,
        shard_id: int,
        num_shards: int,
        tables: list,
        trace: Optional[dict] = None,
    ):
        self.shard_id = shard_id
        self.num_shards = num_shards
        self.trace = trace or {"enabled": False}
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
        self._call(
            "init",
            shard_id=shard_id,
            num_shards=num_shards,
            tables=tables,
            trace=self.trace,
        )

    # -- protocol -------------------------------------------------------
    def _call(self, op: str, **kwargs):
        if self.proc.poll() is not None:
            raise ShardError(
                f"shard {self.shard_id} worker process is dead "
                f"(exit code {self.proc.returncode})"
            )
        try:
            _send(self.proc.stdin, {"op": op, "args": kwargs})
            response = _receive(self.proc.stdout)
        except (BrokenPipeError, OSError) as exc:
            raise ShardError(
                f"shard {self.shard_id} worker process died during {op!r}"
            ) from exc
        if response is None:
            self.proc.wait()
            raise ShardError(
                f"shard {self.shard_id} worker process died during {op!r} "
                f"(exit code {self.proc.returncode})"
            )
        if not response["ok"]:
            err_type = response.get("error_type")
            message = f"shard {self.shard_id}: {err_type}: {response['error']}"
            if err_type == "SuspendBudgetInfeasibleError":
                raise SuspendBudgetInfeasibleError(message)
            raise ShardError(message)
        return response.get("result")

    # -- ShardWorker interface ------------------------------------------
    def create_channel_table(
        self, name: str, column_names, bytes_per_tuple: int, rows
    ) -> None:
        self._call(
            "create_channel_table",
            name=name,
            column_names=column_names,
            bytes_per_tuple=bytes_per_tuple,
            rows=rows,
        )

    def start_fragment(self, spec) -> None:
        self._call("start_fragment", spec=spec)

    def run_quantum(self, max_rows: int) -> dict:
        return self._call("run_quantum", max_rows=max_rows)

    def progress(self) -> dict:
        return self._call("progress")

    def drain_trace(self) -> list:
        """Ship the child's buffered trace records (cleared after)."""
        if not self.trace.get("enabled"):
            return []
        if self.proc.poll() is not None:
            # A crashed child's buffered records died with it; the
            # coordinator's stream still shows the crash.
            return []
        return self._call("drain_trace")

    def estimate_suspend_cost(self) -> dict:
        return self._call("estimate_suspend_cost")

    def suspend_to_image(
        self,
        root: str,
        image_id: str,
        budget: float = math.inf,
        meta: Optional[dict] = None,
    ) -> dict:
        return self._call(
            "suspend_to_image",
            root=root,
            image_id=image_id,
            budget=budget,
            meta=meta,
        )

    def resume_fragment(self, root: str, image_id: str) -> dict:
        return self._call("resume_fragment", root=root, image_id=image_id)

    def arm_fault(self, kind: str, point: str) -> None:
        self._call("arm_fault", kind=kind, point=point)

    def now(self) -> float:
        return self._call("now")

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                _send(self.proc.stdin, {"op": "shutdown", "args": {}})
            except (BrokenPipeError, OSError):
                pass
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def kill(self) -> None:
        """Hard-kill the child (a shard dying outside any protocol step)."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


# ----------------------------------------------------------------------
# Child side
# ----------------------------------------------------------------------
def _build_worker(
    shard_id: int, num_shards: int, tables: list, trace: dict
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
    if trace.get("enabled"):
        from repro.obs.tracer import Tracer

        # The child runs its own root Tracer: records buffer here (with
        # the shard's virtual-clock timestamps) until the parent drains
        # them over the pipe for the global merge.
        root = Tracer(next_sample_every=int(trace.get("sample") or 0))
        tracer = root.bind(trace_id=trace.get("trace_id"))
    return InProcessShardWorker(shard_id, num_shards, db, tracer=tracer)


def _handle(worker: Optional[InProcessShardWorker], op: str, args: dict):
    if op == "drain_trace":
        records = list(worker.tracer.records)
        worker.tracer.records.clear()
        return records
    if op == "resume_fragment" and worker._fault == ("crash", "resume"):
        # Injected mid-resume death: the real thing, not an exception.
        os._exit(CRASH_EXIT_CODE)
    method = getattr(InProcessShardWorker, op, None)
    if op.startswith("_") or not callable(method):
        raise ShardError(f"unknown worker op {op!r}")
    return method(worker, **args)


def main() -> None:
    from repro.durability.faults import InjectedCrash

    stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
    worker: Optional[InProcessShardWorker] = None
    while True:
        request = _receive(stdin)
        if request is None or request["op"] == "shutdown":
            break
        try:
            if request["op"] == "init":
                worker = _build_worker(**request["args"])
                result = None
            else:
                result = _handle(worker, request["op"], request["args"])
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
        _send(stdout, response)


if __name__ == "__main__":
    main()
