"""The continuation-token wire format and the at-most-once ledger."""

import multiprocessing
import os
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.lifecycle import QuerySession, SuspendSpec
from repro.durability import ImageStore
from repro.serve.tokens import (
    TOKEN_PREFIX,
    ContinuationToken,
    TokenError,
    TokenExpiredError,
    TokenManager,
    TokenRedeemedError,
)
from tests.conftest import (
    make_small_db,
    record_device_calls,
    tiny_nlj_plan,
)

names = st.text(
    alphabet=st.characters(
        whitelist_categories=("L", "N"), whitelist_characters="-_."
    ),
    min_size=1,
    max_size=40,
)


class TestWireFormat:
    @given(query=names, image_id=names, seq=st.integers(0, 10_000))
    def test_encode_decode_round_trip(self, query, image_id, seq):
        token = ContinuationToken(query=query, image_id=image_id, seq=seq)
        assert ContinuationToken.decode(token.encode()) == token

    @given(query=names, image_id=names, seq=st.integers(0, 10_000))
    def test_encoding_is_deterministic(self, query, image_id, seq):
        a = ContinuationToken(query, image_id, seq).encode()
        b = ContinuationToken(query, image_id, seq).encode()
        assert a == b
        assert a.startswith(TOKEN_PREFIX + ".")

    def test_cross_process_bytes_are_identical(self):
        """The same fields encode to the same bytes in a fresh
        interpreter — tokens survive server restarts and load
        balancing across processes."""
        token = ContinuationToken("q-7", "q-7-s3", 3)
        script = (
            "from repro.serve.tokens import ContinuationToken;"
            "print(ContinuationToken('q-7','q-7-s3',3).encode())"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == token.encode()

    def test_malformed_tokens_rejected(self):
        for bad in (
            None,
            42,
            "",
            "nope",
            "rst1.onlytwo",
            "rst2.cGF5bG9hZA.00000000",
            "rst1.!!!.00000000",
        ):
            with pytest.raises(TokenError):
                ContinuationToken.decode(bad)

    def test_corruption_fails_integrity_check(self):
        text = ContinuationToken("q", "img", 1).encode()
        prefix, payload, crc = text.split(".")
        flipped = ("A" if payload[0] != "A" else "B") + payload[1:]
        with pytest.raises(TokenError, match="integrity"):
            ContinuationToken.decode(f"{prefix}.{flipped}.{crc}")

    def test_crc_must_match_payload(self):
        text = ContinuationToken("q", "img", 1).encode()
        prefix, payload, _ = text.split(".")
        with pytest.raises(TokenError):
            ContinuationToken.decode(f"{prefix}.{payload}.deadbeef")


def commit_image(store, image_id):
    db = make_small_db()
    session = QuerySession(db, tiny_nlj_plan())
    session.execute(max_rows=10)
    session.suspend(SuspendSpec(persist_to=store, image_id=image_id))
    session.close()


class TestTokenManagerLifecycle:
    def test_redeem_consumes_the_token(self, tmp_path):
        store = ImageStore(str(tmp_path))
        commit_image(store, "img-1")
        manager = TokenManager(store)
        text = manager.issue("q1", "img-1", 1)
        assert manager.redeem(text).image_id == "img-1"
        with pytest.raises(TokenRedeemedError):
            manager.redeem(text)

    def test_redeem_never_copies_or_walks_the_ledger(self, tmp_path):
        """Redeeming is O(1) in the number of tokens ever redeemed: the
        store's folded ledger is only probed and appended to."""

        class ProbeOnlyLedger:
            def __init__(self):
                self._entries = set()

            def __contains__(self, text):
                return text in self._entries

            def add(self, text):
                self._entries.add(text)

        store = ImageStore(str(tmp_path))
        commit_image(store, "img-1")
        manager = TokenManager(store)
        store._redeemed = ProbeOnlyLedger()
        text = manager.issue("q1", "img-1", 1)
        assert manager.redeem(text).image_id == "img-1"
        with pytest.raises(TokenRedeemedError):
            manager.redeem(text)

    def test_double_redeem_rejected_across_managers(self, tmp_path):
        """The ledger is durable: a second manager over the same root
        (another process, a restarted server) sees the redeem."""
        store = ImageStore(str(tmp_path))
        commit_image(store, "img-1")
        text = TokenManager(store).issue("q1", "img-1", 1)
        TokenManager(store).redeem(text)
        with pytest.raises(TokenRedeemedError):
            TokenManager(ImageStore(str(tmp_path))).redeem(text)

    def test_redeem_after_gc_is_a_clean_typed_error(self, tmp_path):
        store = ImageStore(str(tmp_path))
        commit_image(store, "img-1")
        manager = TokenManager(store)
        text = manager.issue("q1", "img-1", 1)
        manager.release("img-1")
        assert store.gc() == ["img-1"]
        with pytest.raises(TokenExpiredError, match="no longer exists"):
            manager.redeem(text)

    def test_token_for_unknown_image_expires(self, tmp_path):
        manager = TokenManager(ImageStore(str(tmp_path)))
        text = ContinuationToken("q", "never-committed", 1).encode()
        with pytest.raises(TokenExpiredError):
            manager.redeem(text)

    def test_issue_pins_and_supersede_unpins(self, tmp_path):
        store = ImageStore(str(tmp_path))
        commit_image(store, "img-1")
        commit_image(store, "img-2")
        manager = TokenManager(store)
        manager.issue("q1", "img-1", 1)
        assert store.pins() == {"img-1"}
        manager.issue("q1", "img-2", 2, release="img-1")
        assert store.pins() == {"img-2"}
        # gc spares the pinned image only.
        assert store.gc() == ["img-1"]
        assert store.list_images()[0].image_id == "img-2"

    def test_supersede_is_one_durable_pin_write(self, tmp_path, monkeypatch):
        """The new pin and the released one travel in a single ledger
        record: one fsync of the appended line, no rename, and no root
        sync once the ledger exists."""
        store = ImageStore(str(tmp_path))
        commit_image(store, "img-1")
        commit_image(store, "img-2")
        manager = TokenManager(store)
        manager.issue("q1", "img-1", 1)
        calls = record_device_calls(monkeypatch)
        manager.issue("q1", "img-2", 2, release="img-1")
        assert calls == ["fsync"]
        assert store.pins() == {"img-2"}

    def test_a_pin_that_changes_nothing_records_nothing(self, tmp_path):
        store = ImageStore(str(tmp_path))
        commit_image(store, "img-1")
        store.pin("img-1")
        size = os.path.getsize(tmp_path / "TOKENS.json")
        store.pin("img-1")
        store.pin("img-1", release="img-9")
        assert not store.unpin("img-9")
        assert os.path.getsize(tmp_path / "TOKENS.json") == size

    def test_a_parent_ledger_reads_unchanged(self, tmp_path):
        """A redeem line is ``{"img","q","token"}``, byte for byte what
        the ledger held before pins moved into it."""
        store = ImageStore(str(tmp_path))
        commit_image(store, "img-1")
        text = ContinuationToken("q1", "img-1", 1).encode()
        line = '{"img":"img-1","q":"q1","token":"%s"}\n' % text
        (tmp_path / "TOKENS.json").write_text(line)
        with pytest.raises(TokenRedeemedError):
            TokenManager(store).redeem(text)
        other = ContinuationToken("q1", "img-1", 2).encode()
        TokenManager(store).redeem(other)
        assert (tmp_path / "TOKENS.json").read_text() == line + (
            '{"img":"img-1","q":"q1","token":"%s"}\n' % other
        )

    def test_a_torn_tail_does_not_swallow_the_next_redeem(self, tmp_path):
        """A crash mid-append leaves a fragment with no newline; the next
        append ends it first, so its own record stays a line of its own
        and a fresh manager sees the redeem."""
        store = ImageStore(str(tmp_path))
        commit_image(store, "img-1")
        (tmp_path / "TOKENS.json").write_text('{"img":"x","q":"y","tok')
        text = TokenManager(store).issue("q1", "img-1", 1)
        TokenManager(store).redeem(text)
        with pytest.raises(TokenRedeemedError):
            TokenManager(ImageStore(str(tmp_path))).redeem(text)
        assert ImageStore(str(tmp_path)).pins() == {"img-1"}


def race(root, tokens, pins, start, results):
    """One contending process: redeem every token it can, pin ``pins``,
    and report how many redeems it won. ``start`` lines both phases up
    with the other contender's."""
    store = ImageStore(root)
    manager = TokenManager(store)
    won = 0
    start.wait(timeout=60)
    for text in tokens:
        try:
            manager.redeem(text)
            won += 1
        except TokenRedeemedError:
            pass
    start.wait(timeout=60)
    for image_id in pins:
        store.pin(image_id)
    results.put(won)


class TestOneRootManyStores:
    """Redeems and pins from several stores over one root serialise on
    the ledger: no token is redeemed twice, no pin is lost."""

    TOKENS = 400
    IMAGES = 40

    def setup_root(self, root):
        store = ImageStore(root)
        for i in range(self.IMAGES):
            commit_image(store, f"img-{i}")
        tokens = [
            ContinuationToken("q", "img-0", seq).encode()
            for seq in range(self.TOKENS)
        ]
        half = self.IMAGES // 2
        images = [f"img-{i}" for i in range(self.IMAGES)]
        return tokens, [images[:half], images[half:]]

    def test_two_processes(self, tmp_path):
        root = str(tmp_path)
        tokens, halves = self.setup_root(root)
        ctx = multiprocessing.get_context("spawn")
        start, results = ctx.Barrier(len(halves)), ctx.Queue()
        workers = [
            ctx.Process(
                target=race, args=(root, tokens, half, start, results)
            )
            for half in halves
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert [worker.exitcode for worker in workers] == [0, 0]
        won = [results.get(timeout=10) for _ in workers]
        assert sum(won) == self.TOKENS
        assert ImageStore(root).pins() == set(halves[0] + halves[1])

    def test_two_stores_in_one_process(self, tmp_path):
        root = str(tmp_path)
        tokens, halves = self.setup_root(root)
        managers = [TokenManager(ImageStore(root)) for _ in halves]
        won = 0
        for text in tokens:
            for manager in managers:
                try:
                    manager.redeem(text)
                    won += 1
                except TokenRedeemedError:
                    pass
        for manager, half in zip(managers, halves):
            for image_id in half:
                manager.store.pin(image_id)
        assert won == self.TOKENS
        for manager in managers:
            assert manager.store.pins() == set(halves[0] + halves[1])


class TestTraceFields:
    """trace_id and cumulative row count riding in the token."""

    def test_tid_and_rows_round_trip(self):
        token = ContinuationToken(
            "q", "img", 3, trace_id="ab12cd34ef56ab78", rows_total=420
        )
        back = ContinuationToken.decode(token.encode())
        assert back.trace_id == "ab12cd34ef56ab78"
        assert back.rows_total == 420
        assert (back.query, back.image_id, back.seq) == ("q", "img", 3)

    def test_optional_fields_are_omitted_when_unset(self):
        # A token without trace fields encodes exactly as before this
        # schema extension, so pre-extension tokens stay redeemable.
        plain = ContinuationToken("q", "img", 1)
        assert plain.encode() == ContinuationToken("q", "img", 1).encode()
        back = ContinuationToken.decode(plain.encode())
        assert back.trace_id is None and back.rows_total == 0
        with_rows = ContinuationToken("q", "img", 1, rows_total=7)
        assert with_rows.encode() != plain.encode()

    def test_non_string_tid_rejected(self):
        import base64
        import json
        import zlib

        doc = {"img": "i", "q": "q", "seq": 1, "tid": 123}
        payload = (
            base64.urlsafe_b64encode(
                json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
            )
            .rstrip(b"=")
            .decode("ascii")
        )
        crc = format(zlib.crc32(payload.encode("ascii")) & 0xFFFFFFFF, "08x")
        with pytest.raises(TokenError):
            ContinuationToken.decode(f"rst1.{payload}.{crc}")
