"""The row path's outputs, kept after the row path itself was deleted.

``golden_row_path.json`` was recorded at the last commit that still had a
per-row implementation of every operator (one ``next()``, and so one
suspend poll, per row), with that path pinned. It holds, for each of the
12 ``PLAN_KINDS`` of ``tests/properties/plans.py`` x 10 stops (a
``fill``, ``position``, root ``emitted`` and leaf ``emitted`` trigger at
two thresholds each, ``position`` also just past the table's end, and a
``max_rows`` cut) x 3 strategies, what the run looked like at the stop (rows, clock,
I/O counters, every operator's ``(emitted, tally)`` and control state),
the bytes of the suspend image, and the same after the resumed run
finished — plus the stdout of the nine ``repro experiment`` commands and
of ``repro workload --policy suspend-resume`` (key ``serve``).
``test_golden_row_path.py`` demands all of it back, byte for byte, from
the single batch body each operator has now.

Regenerate with::

    PYTHONPATH=src python -m tests.engine.make_golden

A diff in the regenerated file means the paper's accounting moved: a
suspend lands at another instant, an operator is charged other events,
or an image holds other bytes. That must be explained in the PR that
causes it, never regenerated silently.
"""

import hashlib
import io
import json
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

from repro import QuerySession, SuspendSpec, SuspendTrigger
from repro.cli import main as cli_main
from repro.core.lifecycle import QueryStatus
from repro.durability.codec2 import encode_suspended_query

from tests.properties.plans import PLAN_KINDS, build_db, build_plan, events

GOLDEN = Path(__file__).with_name("golden_row_path.json")
STRATEGIES = ("all_dump", "all_goback", "lp")
#: golden key -> the ``repro`` command line whose stdout it holds.
EXPERIMENTS = {
    **{
        name: ["experiment", name]
        for name in (
            "ex10", "fig8", "fig9", "fig10", "fig12",
            "fig13", "fig14", "fig15",
        )
    },
    "serve": ["workload", "--policy", "suspend-resume"],
}


def sha(data) -> str:
    if not isinstance(data, bytes):
        # a DumpHandle's store id counts the stores this process has made
        data = re.sub(r"store_id=\d+", "store_id=_", repr(data)).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def spaced(values) -> str:
    return " ".join(map(str, values))


def operators(session) -> list:
    """The session's operators in preorder (the order of their ids)."""
    return [op for _, op in sorted(session.runtime.ops.items())]


def stops_for(kind, index):
    """The stops of one plan kind, as ``(name, execute keywords)``.

    Watched operators are picked by capability from a throwaway
    instantiation: the first buffering operator in preorder for ``fill``,
    the first table scan for ``position``, the root and the last leaf
    (an NLJ's inner scan, a hash join's probe scan) for ``emitted``.
    """
    probe = QuerySession(build_db(110, 60, 7 + index), plan_of(kind, index))
    ops = operators(probe)
    probe.close()
    watched = {
        "fill": next((o for o in ops if hasattr(o, "buffer_fill")), None),
        "position": next(o for o in ops if hasattr(o, "tuples_consumed")),
        "emitted_root": ops[0],
        "emitted_leaf": [o for o in ops if not o.children][-1],
    }
    thresholds = {
        "fill": (3, 11),
        "position": (20, 52),
        "emitted_root": (1, 13),
        "emitted_leaf": (9, 48),
    }
    for how, op in watched.items():
        if op is None:
            continue
        counter = how.split("_")[0]
        if how == "position" and kind not in ("sfp", "inlj"):
            # Past the last row: reached only by the step off a short
            # final page. (Not where that step ends the query: the row
            # path polled its exhausted root once more and reported a
            # pending suspend of a query with nothing left to do.)
            thresholds[how] += (op.table.num_tuples + 1,)
        for n in thresholds[how]:
            trigger = SuspendTrigger(op.name, counter, n)
            yield f"{how}:{op.name}>={n}", {"suspend_when": trigger}
    yield "max_rows:17", {"max_rows": 17}


def plan_of(kind, index):
    return build_plan(kind, 0.35 + 0.05 * index, 14 + index, 15)


def snapshot(db, session, rows):
    counters = db.disk.counters.snapshot()
    return {
        "status": session.status.value,
        "rows": len(rows),
        "rows_sha256": sha(rows),
        "now": repr(db.now),
        "counters": spaced(events(counters)),
        # emitted, then the tally's events, then the control state's hash
        "ops": {
            op.name: spaced(
                (op.tuples_emitted, *events(op.tally))
                + (sha(sorted(op.control_state().items())),)
            )
            for op in operators(session)
        },
    }


def run_case(kind, index, keywords, strategy):
    db = build_db(110, 60, 7 + index)
    session = QuerySession(db, plan_of(kind, index))
    first = session.execute(**keywords)
    record = {"stop": snapshot(db, session, first.rows)}
    if session.status is QueryStatus.COMPLETED:
        return record
    sq = session.suspend(SuspendSpec(strategy=strategy))
    image = encode_suspended_query(sq)
    record["image_bytes"] = len(image)
    record["image_sha256"] = sha(image)
    resumed = QuerySession.resume(db, sq)
    rest = resumed.execute()
    record["end"] = snapshot(db, resumed, first.rows + rest.rows)
    return record


def engine_cases() -> dict:
    cases = {}
    for index, kind in enumerate(PLAN_KINDS):
        for stop, keywords in stops_for(kind, index):
            for strategy in STRATEGIES:
                cases[f"{kind}/{stop}/{strategy}"] = run_case(
                    kind, index, keywords, strategy
                )
    return cases


def experiment_stdout(name) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        cli_main(EXPERIMENTS[name])
    return out.getvalue()


def main() -> int:
    golden = {
        "cases": engine_cases(),
        "experiments": {name: experiment_stdout(name) for name in EXPERIMENTS},
    }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(golden['cases'])} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
