"""Per-layer attribution from outside the program.

A traced round wraps the public callables of this repository's modules
(and the ``os`` calls that reach the device) with span recording. A span
is ``[name, start_ns, end_ns, parent, op_id, value]``; spans stay in
memory and are written out when the round ends. A layer's *self time* is
its span's duration minus the part its direct child spans cover, so the
layers of one operation add up to that operation's wall time and what is
left over — time inside no wrapped callable — is the reconciliation gap.

Span names are layer-metric stems: span ``durability.store.save`` is
reported as ``durability.store.save_ms`` (mean self time per operation)
and, for the device layers, ``..._calls`` (mean count per operation).
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import threading
from time import perf_counter_ns
from typing import Optional

#: Root span of every timed operation outside ``serve_hops`` (there the
#: root is the client's wire time, layer ``serve.http``). Its self time
#: is harness glue and is reported inside the reconciliation gap.
OP_SPAN = "harness.op"

NAME, START, END, PARENT, OP, VALUE = range(6)


class Recorder:
    """In-memory span sink; one per traced round."""

    def __init__(self):
        self.spans: list[list] = []
        #: Spans are recorded only while a timed operation is in flight,
        #: so set-up, warm-up and verification cost nothing here.
        self.active = False
        self.op_id = -1
        self._op_span = -1
        self._local = threading.local()

    # -- operations -----------------------------------------------------
    def begin_op(self, name: str) -> None:
        self.op_id += 1
        self._op_span = len(self.spans)
        self.spans.append([name, 0, 0, -1, self.op_id, 0])
        self.active = True

    def end_op(self, start_ns: int, end_ns: int) -> None:
        self.active = False
        root = self.spans[self._op_span]
        root[START], root[END] = start_ns, end_ns

    # -- wrapping ---------------------------------------------------------
    def wrap(self, name: str, fn, pre=None, post=None):
        """``fn`` with a span around every call made during a timed op.

        ``pre(args)`` / ``post(result)`` optionally compute the span's
        ``value`` (bytes committed, rows delivered) outside the timed
        interval of the span itself.
        """
        spans = self.spans
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            # A worker thread (the HTTP server's executor) has no span
            # of its own open: its work belongs to the one op in flight.
            parent = stack[-1] if stack else self._op_span
            span = [name, 0, 0, parent, self.op_id, 0]
            if pre is not None:
                span[VALUE] = pre(args)
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            if post is not None:
                span[VALUE] = post(result)
            return result

        return wrapper

    # -- aggregation ------------------------------------------------------
    def totals(self, limit: Optional[int] = None) -> dict:
        """Per span name: summed self time (ns), call count, summed value
        — over all spans, or over the first ``limit`` of them."""
        spans = self.spans[:limit]
        covered = [0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        out: dict[str, list] = {}
        for span, child_ns in zip(spans, covered):
            entry = out.setdefault(span[NAME], [0, 0, 0])
            entry[0] += span[END] - span[START] - child_ns
            entry[1] += 1
            entry[2] += span[VALUE]
        return {
            name: {"self_ns": e[0], "calls": e[1], "value": e[2]}
            for name, e in out.items()
        }

    def write(self, path: str) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "op_id", "value")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _committed_bytes(args) -> int:
    """Size of the file an ``os.replace``/``os.rename`` is committing.

    Manifests are left out: they carry a wall-clock ``created_at`` whose
    printed length varies from run to run, and this count must repeat
    exactly for a seed.
    """
    src = os.fspath(args[0])
    if src.endswith("MANIFEST.json.tmp"):
        return 0
    try:
        return os.path.getsize(src)
    except OSError:
        return 0


def install(rec: Recorder) -> None:
    """Wrap the program's layer boundaries for the life of this process.

    Called once, in a round's child process, after the program's modules
    are imported; nothing is restored because the process ends with the
    round.
    """
    from repro.core import lifecycle, optimizer
    from repro.core.lifecycle import QuerySession
    from repro.durability import codec2
    from repro.durability.store import ImageStore
    from repro.serve.http import ServeApp
    from repro.serve.tokens import TokenManager
    from repro.service.core import ExecutorCore

    def wrap(owner, layer: str, *names: str, **hooks) -> None:
        """Replace ``owner.<name>`` (a class's methods or a module's
        functions) with recording wrappers of layer ``layer``."""
        for name in names:
            setattr(
                owner, name, rec.wrap(layer, getattr(owner, name), **hooks)
            )

    wrap(ServeApp, "serve.service", "handle")
    wrap(TokenManager, "serve.tokens.redeem", "redeem")
    wrap(TokenManager, "serve.tokens.issue", "issue")
    wrap(TokenManager, "serve.tokens.release", "release")
    wrap(ImageStore, "durability.store.save", "save", "save_many")
    wrap(ImageStore, "durability.store.load", "load")
    wrap(ImageStore, "durability.store.pins", "pin", "unpin")
    wrap(ImageStore, "durability.store.gc", "delete", "delete_chain", "gc")
    wrap(
        codec2,
        "durability.codec2.encode",
        "encode_to_stream",
        "encode_bytes",
        "encode_suspended_query",
    )
    wrap(
        codec2,
        "durability.codec2.decode",
        "decode_bytes",
        "decode_suspended_query",
    )
    wrap(QuerySession, "core.lifecycle.suspend", "suspend")
    QuerySession.resume = classmethod(
        rec.wrap("core.lifecycle.resume", QuerySession.resume.__func__)
    )
    wrap(
        QuerySession,
        "engine.execute",
        "execute",
        post=lambda result: len(result.rows),
    )
    wrap(optimizer, "core.optimizer.plan", "choose_suspend_plan")
    # lifecycle imported the function by name, so it holds its own
    # reference to the unwrapped one.
    lifecycle.choose_suspend_plan = optimizer.choose_suspend_plan
    wrap(ExecutorCore, "service.core.quantum", "run_quantum")
    wrap(ExecutorCore, "service.core.suspend_victims", "suspend_victims")

    wrap(os, "device.fsync", "fsync")
    wrap(os, "device.rename", "replace", "rename", pre=_committed_bytes)
    # rmtree unlinks through ``os.unlink``, so each removed file is its
    # own nested span and ``device.unlink`` calls count files, while the
    # directory walk stays in rmtree's self time — same layer either way.
    wrap(os, "device.unlink", "unlink")
    wrap(shutil, "device.rmtree", "rmtree")
