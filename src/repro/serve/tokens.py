"""Continuation tokens: durable suspend images as a wire format.

A continuation token is the serving layer's only per-query state: an
opaque string the client holds between requests, naming the durable
suspend image that will resume the query. Between requests the server
keeps no per-query state but the latest progress document of each query
(PROTOCOL.md section 9) — SaGe-style web preemption over the paper's
suspend machinery.

Wire format (``rst1.<payload>.<crc>``):

- ``rst1`` — format tag, bumped on incompatible changes;
- ``payload`` — URL-safe unpadded base64 of a compact, key-sorted JSON
  object ``{"img": image_id, "q": query_name, "seq": n}``. Sorted keys
  and compact separators make encoding a pure function of the fields,
  so the same suspend produces byte-identical tokens in any process;
- ``crc`` — CRC-32 of the payload segment, 8 lowercase hex digits.
  An integrity check against truncation/corruption in transit, not a
  signature: tokens are capabilities only as far as the store is.

:class:`TokenManager` adds the at-most-once discipline on top of an
:class:`~repro.durability.store.ImageStore`, whose ledger (``TOKENS.json``
under the image root) records both halves:

- **issue** pins the image (token-pinned GC: ``store.gc()`` spares the
  pinned tip and, via chain expansion, every delta ancestor) and
  releases the superseded image's pin, in one ledger record; a query's
  first token also records its name there, which reserves the name for
  the root (:meth:`~repro.durability.store.ImageStore.reserved`);
- **redeem** durably records the token as consumed *before* the caller
  resumes, so a second redeem — any store instance, any process, any
  time — fails with :class:`TokenRedeemedError`; a token whose image has
  been collected fails with :class:`TokenExpiredError` instead of a
  stack trace from the store internals.

The ledger is append-only — one fsynced line per record, never
rewritten — and every append checks and claims under one exclusive
lock, so any number of server processes may share an image root.
A store reads only the records appended since its last read, so
redeeming stays O(1) however many requests the root has served. A
redeem is recorded *before* the resume runs; a torn final line (crash
mid-append) is never a record, which is safe because the resume it
would have recorded never happened.
"""

from __future__ import annotations

import base64
import binascii
import json
from dataclasses import dataclass
from typing import Optional

from repro.common.errors import ReproError
from repro.durability.store import ImageNotFoundError, ImageStore

TOKEN_PREFIX = "rst1"


class TokenError(ReproError):
    """Malformed, corrupted, or otherwise unusable continuation token."""


class TokenRedeemedError(TokenError):
    """The token was already redeemed (a resume consumed it)."""


class TokenExpiredError(TokenError):
    """The token's suspend image no longer exists (GC'd or never here)."""


@dataclass(frozen=True)
class ContinuationToken:
    """The decoded contents of one continuation token.

    ``trace_id`` carries the query's distributed-trace identity across
    hops (PROTOCOL.md section 7): a resuming server binds its tracer to
    it so every span of the logical query shares one id however many
    processes it crosses. ``rows_total`` is the cumulative row count
    delivered through the hop that issued this token, which lets any
    process compute monotonically non-decreasing progress without shared
    state. Both are optional on decode so pre-existing tokens stay valid.
    """

    query: str
    image_id: str
    seq: int
    trace_id: Optional[str] = None
    rows_total: int = 0

    def encode(self) -> str:
        """The wire string. Deterministic: same fields, same bytes."""
        doc_fields = {"img": self.image_id, "q": self.query, "seq": self.seq}
        if self.trace_id is not None:
            doc_fields["tid"] = self.trace_id
        if self.rows_total:
            doc_fields["rows"] = self.rows_total
        doc = json.dumps(
            doc_fields,
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        payload = base64.urlsafe_b64encode(doc).rstrip(b"=").decode("ascii")
        crc = binascii.crc32(payload.encode("ascii")) & 0xFFFFFFFF
        return f"{TOKEN_PREFIX}.{payload}.{crc:08x}"

    @classmethod
    def decode(cls, text: str) -> "ContinuationToken":
        """Parse and integrity-check a wire token; raises TokenError."""
        if not isinstance(text, str):
            raise TokenError("continuation token must be a string")
        parts = text.strip().split(".")
        if len(parts) != 3 or parts[0] != TOKEN_PREFIX:
            raise TokenError(
                f"not a {TOKEN_PREFIX} continuation token: {text[:32]!r}"
            )
        _, payload, crc_hex = parts
        crc = binascii.crc32(payload.encode("ascii")) & 0xFFFFFFFF
        if f"{crc:08x}" != crc_hex:
            raise TokenError("continuation token failed its integrity check")
        try:
            padded = payload + "=" * (-len(payload) % 4)
            doc = json.loads(base64.urlsafe_b64decode(padded))
            trace_id = doc.get("tid")
            if trace_id is not None and not isinstance(trace_id, str):
                raise TokenError("continuation token trace id must be a string")
            return cls(
                query=doc["q"],
                image_id=doc["img"],
                seq=int(doc["seq"]),
                trace_id=trace_id,
                rows_total=int(doc.get("rows", 0)),
            )
        except (ValueError, KeyError, TypeError, binascii.Error) as exc:
            raise TokenError(f"unreadable continuation token: {exc}") from exc


class TokenManager:
    """Issue and redeem tokens against one image store, at most once."""

    def __init__(self, store: ImageStore):
        self.store = store

    # -- lifecycle -----------------------------------------------------
    def issue(
        self,
        query: str,
        image_id: str,
        seq: int,
        release: str = None,
        trace_id: Optional[str] = None,
        rows_total: int = 0,
    ) -> str:
        """Mint a token for a freshly committed image and pin it.

        ``release`` is the previous tip this image supersedes (its token
        was redeemed to get here); its pin is dropped — if the new image
        is a delta on top of it, the chain expansion of ``gc`` keeps it
        alive through the new tip's pin anyway. A token that supersedes
        none is the query's first, and its pin reserves the name.
        """
        self.store.pin(image_id, release=release, query=query)
        return ContinuationToken(
            query=query,
            image_id=image_id,
            seq=seq,
            trace_id=trace_id,
            rows_total=rows_total,
        ).encode()

    def redeem(self, text: str) -> ContinuationToken:
        """Consume a token: validate it and claim it in the ledger.

        On success the image is guaranteed present at the time of the
        call and the token can never be redeemed again — the durable
        ledger write happens before this returns. The image's pin is
        kept until the query either completes or is superseded by the
        next issued token.
        """
        token = ContinuationToken.decode(text)
        try:
            claimed = self.store.claim(
                token.image_id, token.query, token.encode()
            )
        except ImageNotFoundError:
            raise TokenExpiredError(
                f"token for {token.query!r} names image "
                f"{token.image_id!r}, which no longer exists "
                "(garbage-collected or never committed here)"
            ) from None
        if not claimed:
            raise TokenRedeemedError(
                f"token for {token.query!r} (image {token.image_id}) was "
                "already redeemed; a continuation may be resumed only once"
            )
        return token

    def release(self, image_id: str) -> None:
        """Drop a pin without issuing a successor (query finished)."""
        self.store.unpin(image_id)


__all__ = [
    "ContinuationToken",
    "TOKEN_PREFIX",
    "TokenError",
    "TokenExpiredError",
    "TokenManager",
    "TokenRedeemedError",
]
