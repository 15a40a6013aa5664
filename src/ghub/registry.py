"""Permissioned, hash-chained, append-only DID registry.

Every committed transaction lives in its own block; blocks are linked by
SHA-256 over their canonical bytes, so any single-byte mutation of the
persisted chain is detectable. Writes are restricted to admitted members
(admitted at genesis or by an admin-signed admission), and owners submit
their own grants: a transaction's controller must be the DID derived from
the submitting member's key, which is what makes ControllerMismatch
checkable here rather than on trust. The chain file is the only copy of the
history: a registry keeps in memory only the state that validation needs, and
reads blocks back from the file on request.
"""

from __future__ import annotations

import errno
import hashlib
import itertools
import os
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator

from .canonical import canonical_bytes, parse
from .identity import (
    Did,
    SignedDidDocument,
    as_did,
    b64,
    canonicalize,
    derive_did,
    unb64,
    verify_signature,
)
from .wire import ConnectionPool, Dispatcher, ServiceError, request

GENESIS_PREV_HASH = "0" * 64

KIND_CREATE = "create"
KIND_UPDATE = "update"
KIND_REVOKE = "revoke"
KIND_ADMIT = "admit"
KIND_GENESIS = "genesis"

DID_TX_KINDS = (KIND_CREATE, KIND_UPDATE, KIND_REVOKE)

# what parsing a malformed entry or block can raise
_MALFORMED = (KeyError, IndexError, TypeError, ValueError, AttributeError)

# how much of the chain one read takes when blocks are streamed back from it
_READ_CHUNK = 1 << 16


class RegistryError(ServiceError):
    pass


class ResolutionStatus(Enum):
    ACTIVE = "Active"
    REVOKED = "Revoked"
    EXPIRED = "Expired"
    NOT_FOUND = "NotFound"


@dataclass(frozen=True, slots=True)
class MemberId:
    public_key: bytes
    label: str

    def to_json(self) -> dict:
        return {"public_key": b64(self.public_key), "label": self.label}

    @classmethod
    def from_json(cls, obj: dict) -> "MemberId":
        return cls(public_key=unb64(obj["public_key"]), label=str(obj["label"]))


@dataclass(frozen=True, slots=True)
class RegistryTx:
    kind: str
    did: Did
    payload: SignedDidDocument | None
    submitter: MemberId
    seq: int
    submitter_signature: bytes

    def to_json(self) -> dict:
        obj = {
            "kind": self.kind,
            "did": self.did.render(),
            "submitter": self.submitter.to_json(),
            "seq": self.seq,
            "submitter_signature": b64(self.submitter_signature),
        }
        if self.payload is not None:
            obj["payload"] = self.payload.to_json()
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "RegistryTx":
        payload = obj.get("payload")
        return cls(
            kind=str(obj["kind"]),
            did=Did.parse(obj["did"]),
            payload=SignedDidDocument.from_json(payload) if payload is not None else None,
            submitter=MemberId.from_json(obj["submitter"]),
            seq=int(obj["seq"]),
            submitter_signature=unb64(obj["submitter_signature"]),
        )


def tx_signing_bytes(tx: RegistryTx) -> bytes:
    """Canonical tx bytes minus the signature field; what the submitter signs."""
    obj = tx.to_json()
    obj.pop("submitter_signature")
    return canonical_bytes(obj)


def signed_tx(kind: str, did, payload, submitter_keypair, label: str, seq: int) -> RegistryTx:
    """Build and sign a transaction with the submitting member's key."""
    submitter = MemberId(public_key=submitter_keypair.public_key, label=label)
    tx = RegistryTx(kind, as_did(did), payload, submitter, seq, submitter_signature=b"")
    return replace(tx, submitter_signature=submitter_keypair.sign(tx_signing_bytes(tx)))


def member_admission_bytes(member: MemberId) -> bytes:
    """Canonical member bytes; what the registry admin signs to admit a member."""
    return canonical_bytes(member.to_json())


@dataclass(frozen=True, slots=True)
class LedgerBlock:
    height: int
    prev_hash: str
    txs: tuple[dict, ...]
    block_hash: str

    def to_json(self) -> dict:
        return {
            "height": self.height,
            "prev_hash": self.prev_hash,
            "txs": list(self.txs),
            "block_hash": self.block_hash,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LedgerBlock":
        return cls(
            height=int(obj["height"]),
            prev_hash=str(obj["prev_hash"]),
            txs=tuple(obj["txs"]),
            block_hash=str(obj["block_hash"]),
        )


def _lines(read: Callable[[int, int], bytes], end: int) -> Iterator[bytes]:
    """The non-empty newline-separated lines of a chain's first `end` bytes,
    newlines removed, fetched a chunk at a time by `read(size, offset)`."""
    offset, tail = 0, b""
    while offset < end:
        chunk = read(min(_READ_CHUNK, end - offset), offset)
        if not chunk:
            raise RegistryError("CorruptChain", f"the chain ends at byte {offset}, before its last block")
        offset += len(chunk)
        *lines, tail = (tail + chunk).split(b"\n")
        yield from filter(None, lines)
    if tail:
        yield tail


def _parsed(lines: Iterable[bytes]) -> Iterator[LedgerBlock]:
    """One block per chain line; CorruptChain names the first line that is no block."""
    for height, line in enumerate(lines):
        try:
            yield LedgerBlock.from_json(parse(line))
        except _MALFORMED as exc:
            raise RegistryError("CorruptChain", f"block {height}: {exc}") from exc


@contextmanager
def _malformed() -> Iterator[None]:
    """Parse an entry inside this: what a malformed entry raises becomes MalformedTx."""
    try:
        yield
    except _MALFORMED as exc:
        raise RegistryError("MalformedTx", str(exc)) from exc


def _no_create(path, flags: int) -> int:
    """An `open` opener that never creates the file: a missing chain is an error."""
    return os.open(path, flags & ~os.O_CREAT)


def _block_hash(height: int, prev_hash: str, txs: list[dict]) -> str:
    body = canonical_bytes({"height": height, "prev_hash": prev_hash, "txs": txs})
    return hashlib.sha256(body).hexdigest()


@dataclass(frozen=True, slots=True)
class ResolutionResult:
    status: ResolutionStatus
    document: SignedDidDocument | None
    as_of: int


class Registry:
    """The ledger plus its materialized state. One writer at a time; a commit
    returning implies visibility to every subsequent resolve (no caching).

    In memory it holds only what validation needs: members, each member's last
    `seq`, DID state, the height and the head hash. The blocks live in the
    chain file alone: the file at `chain_path`, or an unlinked temporary file
    for a registry without one, kept open from the first write (or from `load`)
    until `close()`."""

    def __init__(self, admin_key: bytes, chain_path: str | Path | None = None):
        if len(admin_key) != 32:
            raise RegistryError("MalformedTx", "admin key must be 32 bytes")
        self.admin_key = admin_key
        self._chain_path = Path(chain_path) if chain_path is not None else None
        # every read goes through `_chain` and every write through `_appender`; they
        # are one handle, except after `load`, which opens `_chain` read-only
        self._chain: BinaryIO | None = None
        self._appender: BinaryIO | None = None
        self._size = 0  # bytes of the chain that hold committed blocks
        self._height = -1
        self._head = GENESIS_PREV_HASH
        self._lock = threading.RLock()
        self._members: dict[bytes, str] = {}
        self._member_seq: dict[bytes, int] = {}
        # did -> (ResolutionStatus.ACTIVE or REVOKED, latest signed document); keyed
        # by the Did itself, which the document already holds
        self._state: dict[Did, tuple[ResolutionStatus, SignedDidDocument]] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def create(
        cls,
        admin_key: bytes,
        initial_members: list[MemberId],
        chain_path: str | Path | None = None,
    ) -> "Registry":
        """Start a fresh chain: genesis at height 0 encodes the admin key and members."""
        reg = cls(admin_key, chain_path)
        reg._append(
            {
                "kind": KIND_GENESIS,
                "admin_key": b64(admin_key),
                "members": [m.to_json() for m in initial_members],
            }
        )
        return reg

    @classmethod
    def load(cls, chain_path: str | Path) -> "Registry":
        """Reload a persisted chain, verifying every hash and signature before
        serving. The file it replayed stays open, read-only, until `close()`; the
        first write reopens that same file for appends."""
        path = Path(chain_path)
        chain = open(path, "rb", buffering=0)
        reg = None
        try:
            size = os.fstat(chain.fileno()).st_size
            reg = cls._replay(_parsed(_lines(partial(os.pread, chain.fileno()), size)))
        except RegistryError as exc:
            raise RegistryError("CorruptChain", f"{path}: {exc.message}") from exc
        finally:
            if reg is None:
                chain.close()
        reg._chain_path, reg._chain, reg._size = path, chain, size
        return reg

    def close(self) -> None:
        """Release the chain; the registry takes no reads or writes after this."""
        with self._lock:
            for handle in (self._chain, self._appender):
                if handle is not None:
                    handle.close()

    @classmethod
    def _replay(cls, blocks: Iterable[LedgerBlock]) -> "Registry":
        """Rebuild a registry from raw blocks, read once in order, under the
        rules every append obeys.

        Raises CorruptChain on a broken link, a hash mismatch, or an entry that
        `_check` refuses. A block may hold several entries. Only the
        height and head hash are kept of the blocks themselves."""
        try:
            blocks = iter(blocks)
            first = next(blocks, None)
            reg = cls(unb64(first.txs[0]["admin_key"]))
        except (RegistryError, *_MALFORMED) as exc:
            raise RegistryError("CorruptChain", f"block 0 names no admin key: {exc}") from exc
        for height, block in enumerate(itertools.chain([first], blocks)):
            try:
                if block.height != height or block.prev_hash != reg._head:
                    raise RegistryError("CorruptChain", "broken link")
                if _block_hash(height, reg._head, list(block.txs)) != block.block_hash:
                    raise RegistryError("CorruptChain", "hash mismatch")
                for entry in block.txs:
                    reg._check(entry, sole=len(block.txs) == 1)()
            except (RegistryError, *_MALFORMED) as exc:
                raise RegistryError("CorruptChain", f"block {height}: {exc}") from exc
            reg._height, reg._head = height, block.block_hash
        return reg

    # -- write path ----------------------------------------------------------

    def admit_member(self, admin_signature: bytes, new_member: MemberId) -> int:
        """Admit a member by admin signature over the canonical member bytes."""
        return self._append(
            {
                "kind": KIND_ADMIT,
                "member": new_member.to_json(),
                "admin_signature": b64(admin_signature),
            }
        )

    def submit(self, tx: RegistryTx | dict) -> int:
        """Validate and commit one DID transaction, given as a RegistryTx or in its
        JSON form off the wire; returns its block height. Either way the entry is
        parsed once, and the chain stores the form `RegistryTx.to_json` gives."""
        if isinstance(tx, RegistryTx):
            return self._append(tx.to_json())
        with _malformed():
            parsed = RegistryTx.from_json(tx)
        return self._append(parsed.to_json(), parsed)

    def _append(self, entry: dict, parsed: RegistryTx | None = None) -> int:
        """Check one entry, persist it as the next block, and only then apply its
        state change, so a failed write leaves state and chain as they were.
        `parsed` is the DID entry already parsed from `entry`, if it was."""
        with self._lock:
            apply = self._check(entry, sole=True, parsed=parsed)
            height, prev_hash = self._height + 1, self._head
            block_hash = _block_hash(height, prev_hash, [entry])
            line = canonical_bytes({"height": height, "prev_hash": prev_hash, "txs": [entry], "block_hash": block_hash})
            self._write(line + b"\n")
            self._size += len(line) + 1
            apply()
            self._height, self._head = height, block_hash
            return height

    def _write(self, line: bytes) -> None:
        """Append one whole line to the chain, unbuffered. If any part of the write
        fails, the chain is cut back to its committed length, so no byte of a
        refused block reaches a later write, `close()` or a restart."""
        fd = self._chain_for_append().fileno()
        try:
            # the committed length is the file's end: `_chain_for_append` checked it
            view, offset = memoryview(line), self._size
            while view:
                written = os.pwrite(fd, view, offset)
                view, offset = view[written:], offset + written
        except BaseException:
            os.ftruncate(fd, self._size)
            raise

    def _chain_for_append(self) -> BinaryIO:
        """The chain's append handle, opened at the first write. A write is refused
        unless the open file holds exactly the committed blocks and `chain_path`
        still names it: a restart loads the file at `chain_path`, so a commit
        written elsewhere would be acknowledged and then lost."""
        if self._appender is None:
            if self._chain_path is None:
                self._appender = tempfile.TemporaryFile(buffering=0)
            elif self._chain is None:
                self._appender = open(self._chain_path, "a+b", buffering=0)
            else:  # loaded: append to the file that was replayed, and never create one
                if self._read(1, self._size - 1) != b"\n":
                    raise OSError(errno.EIO, "the chain's last block has no line end", str(self._chain_path))
                replayed = os.fstat(self._chain.fileno())
                appender = open(self._chain_path, "ab", buffering=0, opener=_no_create)
                if not os.path.samestat(os.fstat(appender.fileno()), replayed):
                    appender.close()
                    raise OSError(errno.ESTALE, "the chain file was replaced", str(self._chain_path))
                self._appender = appender
            if self._chain is None:
                self._chain = self._appender
        held = os.fstat(self._appender.fileno())
        if self._chain_path is not None and not os.path.samestat(os.stat(self._chain_path), held):
            raise OSError(errno.ESTALE, "the chain file was replaced", str(self._chain_path))
        if held.st_size != self._size:
            raise OSError(errno.EIO, f"the chain file holds {held.st_size} bytes, not the {self._size} committed")
        return self._appender

    def _chain_lines(self) -> Iterator[bytes]:
        """The committed chain's lines, up to the length committed at this call."""
        with self._lock:
            end = self._size
        return _lines(self._read, end)

    def _read(self, size: int, offset: int) -> bytes:
        return os.pread(self._chain.fileno(), size, offset)

    # -- validation ----------------------------------------------------------

    def _check(self, entry: dict, sole: bool, parsed: RegistryTx | None = None) -> Callable[[], None]:
        """Every chain rule for one entry against the current state, parsing the
        entry once, or not at all when `parsed` is given; returns the entry's
        state change, which the caller applies once the entry is committed.
        `sole` says the entry is alone in its block; height 0 holds exactly the
        genesis entry."""
        if not isinstance(entry, dict):
            raise RegistryError("MalformedTx", "an entry must be a JSON object")
        kind = entry.get("kind")
        at_genesis = self._height < 0
        if (kind == KIND_GENESIS) != at_genesis or (at_genesis and not sole):
            raise RegistryError("MalformedTx", "the genesis entry appears alone at height 0, and only there")
        if kind == KIND_GENESIS:
            with _malformed():
                admin_key = unb64(entry["admin_key"])
                members = [MemberId.from_json(m) for m in entry["members"]]
            if admin_key != self.admin_key:
                raise RegistryError("MalformedTx", "genesis names another admin key")
            if len({m.public_key for m in members}) != len(members):
                raise RegistryError("DuplicateMember", "genesis lists a member key twice")
            return partial(self._members.update, {m.public_key: m.label for m in members})
        if kind == KIND_ADMIT:
            with _malformed():
                member = MemberId.from_json(entry["member"])
                signature = unb64(entry["admin_signature"])
            if not verify_signature(self.admin_key, signature, member_admission_bytes(member)):
                raise RegistryError("BadAdminSignature", f"admission of {member.label!r} not signed by admin")
            if member.public_key in self._members:
                raise RegistryError("DuplicateMember", f"{member.label!r} is already a member")
            return partial(self._members.__setitem__, member.public_key, member.label)
        if kind not in DID_TX_KINDS:
            raise RegistryError("MalformedTx", f"unknown tx kind {kind!r}")
        tx = parsed
        if tx is None:
            with _malformed():
                tx = RegistryTx.from_json(entry)
        key = tx.submitter.public_key
        if key not in self._members:
            raise RegistryError("NotAMember", f"{tx.submitter.label!r} is not an admitted member")
        if not verify_signature(key, tx.submitter_signature, tx_signing_bytes(tx)):
            raise RegistryError("BadSignature", "submitter signature does not verify")
        last = self._member_seq.get(key, 0)
        if tx.seq <= last:
            raise RegistryError("StaleSeq", f"seq {tx.seq} not greater than last accepted {last}")
        if (tx.payload is None) != (tx.kind == KIND_REVOKE):
            raise RegistryError("MalformedTx", "create and update carry a signed document payload, revoke none")
        submitter_did = derive_did(key)
        current = self._state.get(tx.did)
        if tx.kind == KIND_CREATE:
            if current is not None:
                raise RegistryError("DuplicateDid", f"{tx.did} already exists")
        else:  # update and revoke act on a live DID of the submitter's
            if current is None:
                raise RegistryError("UnknownDid", f"{tx.did} was never created")
            if current[0] is ResolutionStatus.REVOKED:
                raise RegistryError("RevokedDid", f"{tx.did} is revoked")
            if current[1].document.controller != submitter_did:
                raise RegistryError("ControllerMismatch", f"{tx.kind} not submitted by the controller")
        sdoc = tx.payload
        if sdoc is None:
            state = (ResolutionStatus.REVOKED, current[1])
        else:
            if sdoc.document.id != tx.did:
                raise RegistryError("MalformedTx", "payload document id does not match the tx did")
            problems = sdoc.document.structural_errors()
            if problems:
                raise RegistryError("MalformedTx", "; ".join(problems))
            if sdoc.document.controller != submitter_did or sdoc.signer != submitter_did:
                raise RegistryError("ControllerMismatch", "document controller does not match the submitter")
            # the submitter IS the controller, so its member key verifies the owner signature
            if not verify_signature(key, sdoc.signature, canonicalize(sdoc.document)):
                raise RegistryError("BadSignature", "owner signature over the document does not verify")
            state = (ResolutionStatus.ACTIVE, sdoc)

        def apply() -> None:
            self._member_seq[key] = tx.seq
            self._state[tx.did] = state

        return apply

    # -- read path -----------------------------------------------------------

    @property
    def height(self) -> int:
        with self._lock:
            return self._height

    @property
    def blocks(self) -> list[LedgerBlock]:
        """Every committed block, parsed from the chain on each call."""
        return list(_parsed(self._chain_lines()))

    def is_member(self, public_key: bytes) -> bool:
        with self._lock:
            return public_key in self._members

    def resolve(self, did, now: int) -> ResolutionResult:
        did = as_did(did)
        with self._lock:
            head = self._height
            current = self._state.get(did)
        if current is None:
            return ResolutionResult(ResolutionStatus.NOT_FOUND, None, head)
        status, sdoc = current
        if status is ResolutionStatus.ACTIVE and now >= sdoc.document.not_after:
            status = ResolutionStatus.EXPIRED
        return ResolutionResult(status, sdoc, head)

    def history(self, did) -> list[tuple[int, RegistryTx]]:
        """The DID's transactions in chain order, streamed from the chain."""
        did_key = as_did(did).render()
        return [
            (block.height, RegistryTx.from_json(entry))
            for block in _parsed(self._chain_lines())
            for entry in block.txs
            if entry.get("kind") in DID_TX_KINDS and entry.get("did") == did_key
        ]

    def verify_chain(self) -> bool:
        """Replay the chain as committed, block by block; False on any discrepancy."""
        return verify_blocks(_parsed(self._chain_lines()))


def verify_blocks(blocks: Iterable[LedgerBlock]) -> bool:
    """Chain verification over raw blocks (also used on reloaded/foreign chains):
    True iff replaying them under the registry's own rules succeeds."""
    try:
        Registry._replay(blocks)
    except RegistryError:
        return False
    return True


# ---------------------------------------------------------------------------
# Service face

def registry_dispatcher(registry: Registry) -> Dispatcher:
    def _resolve(body):
        result = registry.resolve(Did.parse(body["did"]), int(body["now"]))
        return {
            "status": result.status.value,
            "document": result.document.to_json() if result.document else None,
            "as_of": result.as_of,
        }

    def _submit(body):
        return {"height": registry.submit(body.get("tx"))}

    def _verify(_body):
        return {"ok": registry.verify_chain()}

    def _history(body):
        entries = registry.history(Did.parse(body["did"]))
        return {"entries": [{"height": h, "tx": tx.to_json()} for h, tx in entries]}

    return Dispatcher(
        {
            "registry.resolve": _resolve,
            "registry.submit": _submit,
            "registry.verify": _verify,
            "registry.history": _history,
        }
    )


class RegistryClient:
    """Wire-backed registry access with the same read/write face as Registry.

    Calls share one kept-alive connection: the caller's pool if one is
    passed (the hub passes its own), else a pool the client makes, which
    `close` releases.
    """

    def __init__(self, endpoint: str, timeout: float = 5.0, pool: ConnectionPool | None = None):
        self.endpoint = endpoint
        self.timeout = timeout
        self._own_pool = ConnectionPool() if pool is None else None
        self._pool = self._own_pool if pool is None else pool

    def close(self) -> None:
        """Close the client's own pool; a passed-in pool stays open."""
        if self._own_pool is not None:
            self._own_pool.close()

    def _request(self, op: str, body: dict):
        try:
            return request(self.endpoint, op, body, timeout=self.timeout, pool=self._pool)
        except ServiceError as exc:
            raise RegistryError(exc.code, exc.message) from exc

    def resolve(self, did, now: int) -> ResolutionResult:
        body = self._request("registry.resolve", {"did": as_did(did).render(), "now": now})
        doc = body.get("document")
        return ResolutionResult(
            status=ResolutionStatus(body["status"]),
            document=SignedDidDocument.from_json(doc) if doc else None,
            as_of=int(body["as_of"]),
        )

    def submit(self, tx: RegistryTx) -> int:
        return int(self._request("registry.submit", {"tx": tx.to_json()})["height"])

    def verify_chain(self) -> bool:
        return bool(self._request("registry.verify", {})["ok"])

    def history(self, did) -> list[tuple[int, RegistryTx]]:
        body = self._request("registry.history", {"did": as_did(did).render()})
        return [(int(e["height"]), RegistryTx.from_json(e["tx"])) for e in body["entries"]]
