"""QueryService: one request = one quantum, resumable anywhere.

The acceptance invariants live here: a query driven to completion
through continuation tokens emits byte-identical rows to an
uninterrupted run; repeat suspends commit delta images; a token minted
by one service instance resumes on a fresh instance over the same image
root (the server keeps no per-request state); completion collects the
whole image chain.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.common.errors import ReproError
from repro.core.lifecycle import QuerySession, QueryStatus, SuspendSpec
from repro.serve import QueryService, ServeConfig
from repro.serve.tokens import TokenRedeemedError
from repro.workloads.plans import serve_catalog
from tests.conftest import record_device_calls

QUANTUM = 16
SCALE = 16


def make_service(image_root, **kwargs):
    db_factory, catalog = serve_catalog(scale=SCALE, seed=1)
    config = ServeConfig(
        quantum_rows=QUANTUM,
        suspend=kwargs.pop("suspend", SuspendSpec(persist_to=image_root)),
        **kwargs,
    )
    return QueryService(db_factory(), config), catalog


def solo_rows(plan):
    db_factory, _ = serve_catalog(scale=SCALE, seed=1)
    session = QuerySession(db_factory(), plan, name="solo")
    rows = []
    while True:
        result = session.execute(max_rows=4096)
        rows.extend(result.rows)
        if result.status is QueryStatus.COMPLETED:
            break
    session.close()
    return rows


def keep_tracked_records(service, monkeypatch):
    """A list that collects every record ``service`` tracks from now on
    (the service itself drops each one when its request ends)."""
    tracked = []
    track = service.track

    def tracking(*args):
        tracked.append(track(*args))
        return tracked[-1]

    monkeypatch.setattr(service, "track", tracking)
    return tracked


def drive_to_completion(service, result, continue_fn=None):
    continue_fn = continue_fn or service.continue_query
    rows = list(result.rows)
    results = [result]
    while not result.done:
        result = continue_fn(result.token)
        rows.extend(result.rows)
        results.append(result)
    return rows, results


class TestRequestLoop:
    def test_token_driven_run_matches_uninterrupted_run(self, tmp_path):
        service, catalog = make_service(str(tmp_path))
        first = service.begin("q1", catalog["sorted-join"])
        rows, results = drive_to_completion(service, first)
        assert rows == solo_rows(catalog["sorted-join"])
        assert len(results) > 2  # actually exercised the token loop

    def test_repeat_suspends_commit_delta_images(self, tmp_path):
        service, catalog = make_service(str(tmp_path))
        result = service.begin("q1", catalog["sorted-join"])
        assert result.base_image_id is None  # first suspend: full image
        result = service.continue_query(result.token)
        assert result.base_image_id is not None  # second: delta
        manifest = service.image_store.manifest(result.image_id)
        assert manifest["base_image_id"] == result.base_image_id

    def test_requests_interleave_across_queries(self, tmp_path):
        service, catalog = make_service(str(tmp_path))
        a = service.begin("a", catalog["sorted-join"])
        b = service.begin("b", catalog["mixed-join"])
        collected = {"a": list(a.rows), "b": list(b.rows)}
        pending = [r for r in (a, b) if not r.done]
        while pending:
            result = service.continue_query(pending.pop(0).token)
            collected[result.query].extend(result.rows)
            if not result.done:
                pending.append(result)
        assert collected["a"] == solo_rows(catalog["sorted-join"])
        assert collected["b"] == solo_rows(catalog["mixed-join"])

    def test_duplicate_session_name_rejected(self, tmp_path):
        service, catalog = make_service(str(tmp_path))
        service.begin("q1", catalog["sorted-join"])
        with pytest.raises(ReproError, match="already in use"):
            service.begin("q1", catalog["mixed-join"])

    def test_a_name_is_spent_for_the_image_root(self, tmp_path):
        """The ledger, not process memory, holds the names: a fresh
        service on the root refuses a name an earlier one finished after
        a continue, and the refusal does no work."""
        service, catalog = make_service(str(tmp_path))
        result = service.continue_query(
            service.begin("q1", catalog["sorted-join"]).token
        )
        drive_to_completion(service, result)
        peer, _ = make_service(str(tmp_path))
        now = peer.db.now
        with pytest.raises(ReproError, match="already in use"):
            peer.begin("q1", catalog["mixed-join"])
        assert peer.db.now == now and peer.stats.queries_admitted == 0
        assert peer.image_store.list_images() == []

    def test_priority_rides_in_the_image(self, tmp_path):
        """A continue takes the query's priority from the image it
        loads, so every hop commits the priority the query began with,
        whichever service serves it."""
        service, catalog = make_service(str(tmp_path))
        result = service.begin("q1", catalog["sorted-join"], priority=2)
        for fresh in (False, True, False):
            if fresh:
                service, _ = make_service(str(tmp_path))
            result = service.continue_query(result.token)
            meta = service.image_store.manifest(result.image_id)["meta"]
            assert meta == {"query": "q1", "priority": 2}

    def test_service_without_image_store_rejected(self):
        db_factory, _ = serve_catalog(scale=SCALE, seed=1)
        with pytest.raises(ReproError, match="image store"):
            QueryService(db_factory(), ServeConfig())


class TestStatelessness:
    def test_token_resumes_on_a_fresh_service_instance(self, tmp_path):
        """Simulates a server restart (or a load-balanced peer): the
        token plus the shared image root is all the state there is."""
        first_service, catalog = make_service(str(tmp_path))
        result = first_service.begin("q1", catalog["sorted-join"])
        rows = list(result.rows)
        while not result.done:
            service, _ = make_service(str(tmp_path))  # fresh every hop
            result = service.continue_query(result.token)
            rows.extend(result.rows)
        assert rows == solo_rows(catalog["sorted-join"])

    def test_fresh_service_references_what_the_first_one_wrote(
        self, tmp_path
    ):
        """Provenance crosses the process boundary with the image: the
        peer never held the payloads, yet its delta rewrites none of the
        sublists it merely loaded."""
        first_service, catalog = make_service(str(tmp_path))
        begun = first_service.begin("q1", catalog["sorted-join"])
        written = {
            b["file"]
            for b in first_service.image_store.manifest(begun.image_id)["blobs"]
        }
        peer, _ = make_service(str(tmp_path))
        result = peer.continue_query(begun.token)
        assert result.base_image_id == begun.image_id
        blobs = peer.image_store.manifest(result.image_id)["blobs"]
        refs = [b["ref"] for b in blobs if "ref" in b]
        assert len(refs) >= 10 and len(blobs) - len(refs) <= 2
        assert {r["image_id"] for r in refs} == {begun.image_id}
        assert {r["file"] for r in refs} <= written
        assert peer.image_store.info(result.image_id).reused_bytes > 0
        assert peer.image_store.validate(result.image_id) == []

    def test_no_suspended_query_retained_in_memory(self, tmp_path):
        """A suspending request's record leaves the core with its
        SuspendedQuery released: the image is the only resume path."""
        service, catalog = make_service(str(tmp_path))
        result = service.begin("q1", catalog["sorted-join"])
        assert not result.done
        assert service.records == []
        assert len(service.db.state_store) == 0
        assert service.total_live_memory() == 0

    def test_no_served_row_is_retained(self, tmp_path, monkeypatch):
        """Rows go out with the response and nowhere else: over 300
        requests on 12 outstanding sessions, no request's record holds
        a row the service returned, and no record outlives its
        request."""
        service, catalog = make_service(str(tmp_path))
        tracked = keep_tracked_records(service, monkeypatch)
        plans = sorted(catalog)
        returned = set()
        outstanding = []
        for n in range(300):
            if len(outstanding) < 12:
                name = f"q{n}"
                result = service.begin(name, catalog[plans[n % len(plans)]])
            else:
                result = service.continue_query(outstanding.pop(0).token)
            returned.update(id(row) for row in result.rows)
            if not result.done:
                outstanding.append(result)
            assert service.records == []
        assert returned and len(tracked) == 300
        held = [
            (record.name, field)
            for record in tracked
            for field, value in vars(record).items()
            if isinstance(value, list)
            and any(id(row) in returned for row in value)
        ]
        assert held == []

    def test_no_history_after_load(self, tmp_path):
        """300 requests over 12 sessions, finished sessions replaced by
        new ones: the core holds no record, there is no timeline and no
        per-query stats, and the registry holds as many series as after
        50 requests (no ``query_*_total{query=...}`` per query)."""
        service, catalog = make_service(str(tmp_path))
        plans = sorted(catalog)
        outstanding, series, completed = [], {}, 0
        for n in range(300):
            if len(outstanding) < 12:
                result = service.begin(f"q{n}", catalog[plans[n % len(plans)]])
            else:
                result = service.continue_query(outstanding.pop(0).token)
            if result.done:
                completed += 1
            else:
                outstanding.append(result)
            series[n + 1] = len(service.stats.registry)
        assert completed >= 10
        assert service.records == []
        assert service.stats.timeline == [] and service.stats.per_query == {}
        assert series[300] == series[50]
        assert not any(
            name.startswith("query_")
            for name in service.stats.registry.as_dict()["counters"]
        )

    def test_old_token_rejected_after_continue(self, tmp_path):
        service, catalog = make_service(str(tmp_path))
        first = service.begin("q1", catalog["sorted-join"])
        service.continue_query(first.token)
        with pytest.raises(TokenRedeemedError):
            service.continue_query(first.token)


class TestAFailedRequestLeavesNothingBehind:
    @staticmethod
    def fail_first_commit(service, monkeypatch):
        save_many = service.image_store.save_many
        failed = []

        def flaky(requests, tracer=None):
            if not failed:
                failed.append(requests[0].image_id)
                raise OSError("injected commit failure")
            return save_many(requests, tracer=tracer)

        monkeypatch.setattr(service.image_store, "save_many", flaky)
        return failed

    @staticmethod
    def assert_nothing_left(service):
        assert service.records == []
        assert len(service.db.state_store) == 0
        assert service.total_live_memory() == 0

    def test_a_begin_whose_commit_fails(self, tmp_path, monkeypatch):
        """The commit raises after the suspend: the SuspendedQuery is
        released and the record dropped, so the store holds no payload
        and the same name begins again."""
        service, catalog = make_service(str(tmp_path))
        tracked = keep_tracked_records(service, monkeypatch)
        failed = self.fail_first_commit(service, monkeypatch)
        with pytest.raises(OSError, match="injected"):
            service.begin("q1", catalog["sorted-join"])
        assert failed == ["q1-s1"]
        self.assert_nothing_left(service)
        assert tracked[0].memory_in_use() == 0
        rows, _ = drive_to_completion(
            service, service.begin("q1", catalog["sorted-join"])
        )
        assert rows == solo_rows(catalog["sorted-join"])

    def test_a_continue_whose_commit_fails(self, tmp_path, monkeypatch):
        service, catalog = make_service(str(tmp_path), fold=True)
        begun = service.begin("q1", catalog["sorted-join"])
        self.fail_first_commit(service, monkeypatch)
        with pytest.raises(OSError, match="injected"):
            service.continue_query(begun.token)
        self.assert_nothing_left(service)
        assert not service.fold_manager.is_grafted("q1")
        assert service.fold_manager.binding("q1") is None


class TestImageChainHygiene:
    def test_completion_collects_the_chain(self, tmp_path):
        service, catalog = make_service(str(tmp_path))
        result = service.begin("q1", catalog["sorted-join"])
        drive_to_completion(service, result)
        assert service.image_store.list_images() == []
        assert service.image_store.pins() == set()

    def test_outstanding_token_survives_gc(self, tmp_path):
        service, catalog = make_service(str(tmp_path))
        result = service.begin("q1", catalog["sorted-join"])
        result = service.continue_query(result.token)  # now a delta tip
        deleted = service.image_store.gc()
        assert deleted == []  # pinned tip + chain expansion keep all
        follow = service.continue_query(result.token)
        assert follow.query == "q1"


class TestDeltaVersusFullEquivalence:
    def test_delta_chain_resumes_identically_to_full_images(
        self, tmp_path
    ):
        """Every hop after the first commits a delta on the session's
        chain, and the chain resumes to exactly the rows of the solo,
        never-suspended run."""
        service, catalog = make_service(str(tmp_path))
        first = service.begin("q1", catalog["sorted-join"])
        rows, results = drive_to_completion(service, first)
        bases = [r.base_image_id for r in results if not r.done]
        assert any(b is not None for b in bases[1:])
        assert rows == solo_rows(catalog["sorted-join"])


class TestHopDurabilityBudget:
    def test_steady_state_continue_is_four_fsyncs_and_one_rename(
        self, tmp_path, monkeypatch
    ):
        """1 (redeem ledger record) + 2 (packed image + root) + 1 (pin
        ledger record), and the image's rename, whatever the image's
        blob count — sorted-join commits 17-18 blobs per hop, which the
        directory layout paid ~40 fsyncs for. A chain rebase (every
        max_chain-th hop) adds the one sync of ``delete_chain``; the
        completing request is redeem + unpin + chain delete."""
        service, catalog = make_service(str(tmp_path))
        result = service.begin("q1", catalog["sorted-join"])
        result = service.continue_query(result.token)  # creates the ledger
        calls = record_device_calls(monkeypatch)
        per_hop = []
        while True:
            del calls[:]
            result = service.continue_query(result.token)
            if result.done:
                break
            blobs = service.image_store.manifest(result.image_id)["blobs"]
            assert calls.count("rename") == 1
            per_hop.append(
                (
                    calls.count("fsync"),
                    result.base_image_id is None,
                    len(blobs),
                    sum("file" in b for b in blobs),
                )
            )
        assert calls == ["fsync"] * 3
        assert len(per_hop) >= 12 and max(b for _, _, b, _ in per_hop) >= 10
        for fsyncs, rebased, _, _ in per_hop:
            assert fsyncs <= (5 if rebased else 4)
        # Those 17-18 payloads are the sort's sublists, unchanged since
        # the first image: a hop that does not rebase the chain writes
        # at most the join's re-dumped buffer and references the rest
        # (every hop rewrote all of them before payload provenance).
        steady = [written for _, rebased, _, written in per_hop if not rebased]
        assert len(steady) >= 10 and sum(steady) / len(steady) <= 2
        assert max(steady) <= 2


class TestStateStoreHygiene:
    def test_token_sessions_to_completion_leave_the_store_empty(
        self, tmp_path
    ):
        """Every incarnation's payloads are freed when its in-memory
        SuspendedQuery is dropped after the durable spill (the image is
        the only resume path), and the last one's on completion."""
        service, catalog = make_service(str(tmp_path))
        for round_ in range(2):
            for name in sorted(catalog):
                first = service.begin(f"{name}-{round_}", catalog[name])
                rows, _ = drive_to_completion(service, first)
                assert rows == solo_rows(catalog[name])
                assert len(service.db.state_store) == 0

    def test_scheduler_path_keeps_in_memory_payloads(self, tmp_path):
        """The in-process scheduler resumes from the in-memory
        SuspendedQuery, so its payloads must stay until completion."""
        from repro.service.core import ExecutorCore, SchedulerConfig
        from repro.service.trace import QueryArrival

        db_factory, catalog = serve_catalog(scale=SCALE, seed=1)
        core = ExecutorCore(
            db_factory(),
            SchedulerConfig(
                quantum_rows=QUANTUM,
                suspend=SuspendSpec(persist_to=str(tmp_path)),
            ),
        )
        record = core.track(QueryArrival("q", catalog["sorted-join"], 0.0, 0))
        core.admit(record)
        core.start_session(record)
        rows = list(core.run_quantum(record).rows)
        core.suspend_victims([record])
        assert record.sq is not None and len(core.db.state_store) > 0
        core.adopt_resumed_session(record, core.open_resumed_session(record))
        while True:
            result = core.run_quantum(record)
            rows += result.rows
            if result.status is QueryStatus.COMPLETED:
                break
        assert rows == solo_rows(catalog["sorted-join"])
        assert len(core.db.state_store) == 0


def _forty_hops(image_root, fresh_service_per_hop=False):
    """Drive one sorted-join session >= 40 token hops; per hop, the
    longest state-store key in the image and a digest of the packed
    file's sections and of its manifest minus the commit time. With
    ``fresh_service_per_hop`` every ``/continue`` is served by a new
    service (a new process's state store) over the same image root."""
    from repro.durability.format import TRAILER

    db_factory, catalog = serve_catalog(scale=4, seed=1)

    def new_service():
        return QueryService(
            db_factory(),
            ServeConfig(
                quantum_rows=8, suspend=SuspendSpec(persist_to=image_root)
            ),
        )

    service = new_service()
    result = service.begin("q", catalog["sorted-join"])
    hops = []
    while not result.done and len(hops) < 40:
        info = service.image_store.info(result.image_id)
        manifest = service.image_store.manifest(result.image_id)
        with open(info.path, "rb") as fh:
            data = fh.read()
        sections = data[: TRAILER.unpack(data[-TRAILER.size :])[0]]
        stamped = dict(manifest)
        del stamped["created_ns"]
        hops.append(
            [
                max(len(b["key"]) for b in manifest["blobs"]),
                hashlib.sha256(sections).hexdigest(),
                hashlib.sha256(
                    json.dumps(stamped, sort_keys=True).encode()
                ).hexdigest(),
            ]
        )
        if fresh_service_per_hop:
            service = new_service()
        result = service.continue_query(result.token)
    return hops


class TestKeysStayBounded:
    def test_import_keys_do_not_nest_across_hops(self, tmp_path):
        """A payload imported on every hop keeps the key it was first
        dumped under — no ``<scope>/import_`` layer or counter per hop,
        which made every manifest, control record and blob header grow
        with the hops."""
        hops = _forty_hops(str(tmp_path))
        assert len(hops) == 40
        longest = [hop[0] for hop in hops]
        # Constant from the second image on, up to the decimal width of
        # the key counters (``#9`` -> ``#10``).
        assert max(longest[1:]) - min(longest[1:]) <= 1
        assert max(longest) <= longest[1] + 1

    def test_images_do_not_depend_on_which_service_served_a_hop(
        self, tmp_path
    ):
        """A continuation is valid on any server, and what it writes does
        not depend on which one served the hops before: a fresh service
        per hop commits byte-identical images (sections, and the
        manifest but for ``created_ns``) to one service serving all."""
        one = _forty_hops(str(tmp_path / "one"))
        assert _forty_hops(str(tmp_path / "fresh"), True) == one

    def test_the_store_keeps_nothing_of_a_query_between_hops(self, tmp_path):
        """300 requests over 12 outstanding sessions, new sessions taking
        the place of finished ones: the state store is left holding no
        payload and no key counter of any query."""
        service, catalog = make_service(str(tmp_path))
        plans = sorted(catalog)
        names = iter(f"c{i:05d}-{plans[i % len(plans)]}" for i in range(10**6))
        requests, tokens = 0, {}

        def begin():
            name = next(names)
            plan = catalog[name.split("-", 1)[1]]
            return name, service.begin(name, plan)

        while requests < 300:
            while len(tokens) < 12:
                name, result = begin()
                requests += 1
                if not result.done:
                    tokens[name] = result.token
            for name in list(tokens):
                result = service.continue_query(tokens.pop(name))
                requests += 1
                if not result.done:
                    tokens[name] = result.token
        state = service.db.state_store
        assert tokens and len(state) == 0  # queries outstanding, none held
        assert [scope for scope in state._counters if scope is not None] == []
        assert state._origins == {} and state._holds == {}

    def test_two_processes_write_byte_identical_sections(self, tmp_path):
        """Same session, another interpreter: every hop's packed image
        is byte-identical — sections, and the manifest (references
        included) except for ``created_ns``."""
        here = _forty_hops(str(tmp_path / "here"))
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src, os.path.dirname(src)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import json, sys; "
                "from tests.serve.test_service import _forty_hops; "
                "print(json.dumps(_forty_hops(sys.argv[1])))",
                str(tmp_path / "there"),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == here
