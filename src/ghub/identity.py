"""Guest and owner identity: Ed25519 keypairs, "did:ghub" identifiers,
owner-signed guest documents, and nonce challenge-response authentication.

A DID is self-certifying: its id is the base58btc encoding of the SHA-256
of the public key, so no naming authority is needed and distinct keys yield
distinct DIDs up to hash collision. Documents are signed over their
canonical JSON form (see canonical.py), making every byte of the document
tamper-evident.
"""

from __future__ import annotations

import base64
import hashlib
import json
import secrets
import struct
import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from pathlib import Path

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import ed25519

from .canonical import canonical_bytes, parse as parse_json

DID_METHOD = "ghub"
AUTH_METHOD_ED25519 = "Ed25519ChallengeResponse"
RESOURCE_SCHEME = "iot:"
KEY_FILE_KIND = "ed25519-seed"
PUBKEY_FILE_KIND = "ed25519-public"

_B58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_B58_INDEX = {c: i for i, c in enumerate(_B58_ALPHABET)}


def _b58encode(data: bytes) -> str:
    pad = len(data) - len(data.lstrip(b"\x00"))
    n = int.from_bytes(data, "big")
    out = []
    while n:
        n, rem = divmod(n, 58)
        out.append(_B58_ALPHABET[rem])
    return _B58_ALPHABET[0] * pad + "".join(reversed(out))


def _b58decode(text: str) -> bytes:
    pad = len(text) - len(text.lstrip(_B58_ALPHABET[0]))
    n = 0
    for ch in text:
        if ch not in _B58_INDEX:
            raise ValueError(f"invalid base58 character {ch!r}")
        n = n * 58 + _B58_INDEX[ch]
    body = n.to_bytes((n.bit_length() + 7) // 8, "big") if n else b""
    return b"\x00" * pad + body


def b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def unb64(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"), validate=True)


@dataclass(frozen=True)
class Keypair:
    """An Ed25519 keypair. The private half never leaves this object's fields;
    repr and serialization expose only the public key. The signing key and the
    DID are derived from the fields once, on first use, and kept."""

    public_key: bytes
    private_key: bytes = field(repr=False)

    def sign(self, message: bytes) -> bytes:
        return self._signer.sign(message)

    @cached_property
    def _signer(self) -> ed25519.Ed25519PrivateKey:
        return ed25519.Ed25519PrivateKey.from_private_bytes(self.private_key)

    @cached_property
    def did(self) -> "Did":
        return derive_did(self.public_key)


def generate_keypair(seed: bytes | None = None) -> Keypair:
    """Create an Ed25519 keypair, deterministically when a 32-byte seed is given."""
    if seed is None:
        seed = secrets.token_bytes(32)
    elif len(seed) != 32:
        raise ValueError(f"seed must be exactly 32 bytes, got {len(seed)}")
    private = ed25519.Ed25519PrivateKey.from_private_bytes(seed)
    public = private.public_key().public_bytes(
        serialization.Encoding.Raw, serialization.PublicFormat.Raw
    )
    return Keypair(public_key=public, private_key=seed)


def verify_signature(public_key: bytes, signature: bytes, message: bytes) -> bool:
    """True iff signature is a valid Ed25519 signature of message under public_key."""
    try:
        ed25519.Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


@dataclass(frozen=True, slots=True)
class Did:
    """A "did:ghub" identifier: method constant, id = base58btc(SHA-256(public key))."""

    id: str
    method: str = DID_METHOD

    def render(self) -> str:
        return f"did:{self.method}:{self.id}"

    def __str__(self) -> str:
        return self.render()

    @staticmethod
    def parse(text: str) -> "Did":
        """The Did a text names. Equal texts give the same object, remembered for
        the last 4096 texts; a malformed text raises on every call."""
        return _parse_did(text) if type(text) is str else _parse_did.__wrapped__(text)


@lru_cache(maxsize=4096)
def _parse_did(text: str) -> Did:
    parts = text.split(":")
    if len(parts) != 3 or parts[0] != "did" or parts[1] != DID_METHOD or not parts[2]:
        raise ValueError(f"not a did:{DID_METHOD} identifier: {text!r}")
    _b58decode(parts[2])  # reject non-base58 ids early
    return Did(id=parts[2])


def derive_did(public_key: bytes) -> Did:
    if len(public_key) != 32:
        raise ValueError(f"public key must be 32 bytes, got {len(public_key)}")
    return Did(id=_b58encode(hashlib.sha256(public_key).digest()))


def as_did(value: "Did | str") -> Did:
    return value if isinstance(value, Did) else Did.parse(value)


# values that recur across documents are stored once: from_json interns their
# strings, every document without resources holds this one empty set, and equal
# resource sets are one set while they recur
_NO_RESOURCES: frozenset[str] = frozenset()


def _shared(value):
    return sys.intern(value) if type(value) is str else value


@lru_cache(maxsize=1024)
def _one_copy(value):
    """The first of equal values passed in, while it is among the last 1024 distinct ones."""
    return value


@dataclass(frozen=True, slots=True)
class DidDocument:
    """The owner-signed authorization record for one guest.

    Carries the guest public key, the authentication method, the allowed
    resource URIs (simple mode), an optional policy endpoint (delegated
    mode), the expiration instant, and the controlling owner DID.
    """

    id: Did
    guest_key: bytes
    auth_method: str
    resources: frozenset[str]
    policy_endpoint: str | None
    not_after: int
    controller: Did

    def to_json(self) -> dict:
        doc = {
            "id": self.id.render(),
            "guest_key": b64(self.guest_key),
            "auth_method": self.auth_method,
            "resources": sorted(self.resources),
            "not_after": self.not_after,
            "controller": self.controller.render(),
        }
        if self.policy_endpoint is not None:
            doc["policy_endpoint"] = self.policy_endpoint
        return doc

    @classmethod
    def from_json(cls, obj: dict) -> "DidDocument":
        if not isinstance(obj, dict):
            raise ValueError("document must be a JSON object")
        try:
            doc = cls(
                id=Did.parse(obj["id"]),
                guest_key=unb64(obj["guest_key"]),
                auth_method=sys.intern(str(obj["auth_method"])),
                resources=_one_copy(frozenset(sys.intern(str(r)) for r in obj["resources"]) or _NO_RESOURCES),
                policy_endpoint=_shared(obj.get("policy_endpoint")),
                not_after=int(obj["not_after"]),
                controller=Did.parse(obj["controller"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed document: {exc}") from exc
        if doc.policy_endpoint is not None and not isinstance(doc.policy_endpoint, str):
            raise ValueError("policy_endpoint must be a string when present")
        return doc

    def structural_errors(self) -> list[str]:
        """Invariant violations, empty for a well-formed document."""
        problems = []
        if len(self.guest_key) != 32:
            problems.append("guest_key is not 32 bytes")
        elif derive_did(self.guest_key) != self.id:
            problems.append("id does not derive from guest_key")
        if not self.resources and self.policy_endpoint is None:
            problems.append("no resources and no policy endpoint")
        for uri in self.resources:
            if not uri.startswith(RESOURCE_SCHEME):
                problems.append(f"resource {uri!r} lacks the {RESOURCE_SCHEME} scheme")
        if self.auth_method != AUTH_METHOD_ED25519:
            problems.append(f"unsupported auth method {self.auth_method!r}")
        return problems


def canonicalize(document: DidDocument) -> bytes:
    """The byte string the owner signs; deterministic across platforms."""
    return canonical_bytes(document.to_json())


def parse_document(data: bytes) -> DidDocument:
    return DidDocument.from_json(parse_json(data))


@dataclass(frozen=True, slots=True)
class SignedDidDocument:
    document: DidDocument
    signer: Did
    signature: bytes

    def to_json(self) -> dict:
        return {
            "document": self.document.to_json(),
            "signer": self.signer.render(),
            "signature": b64(self.signature),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SignedDidDocument":
        try:
            return cls(
                document=DidDocument.from_json(obj["document"]),
                signer=Did.parse(obj["signer"]),
                signature=unb64(obj["signature"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed signed document: {exc}") from exc


class DocumentStatus(Enum):
    ACTIVE = "Active"
    EXPIRED = "Expired"
    BAD_SIGNATURE = "BadSignature"
    MALFORMED = "Malformed"


def build_and_sign_guest_document(
    owner: Keypair,
    guest_key: bytes,
    resources,
    policy_endpoint: str | None,
    not_after: int,
    now: int,
) -> SignedDidDocument:
    """Owner-side grant: derive the guest DID, assemble the document, sign it.

    Raises ValueError for an expiration not strictly in the future or an
    empty authorization (no resources and no policy endpoint).
    """
    if not_after <= now:
        raise ValueError(f"not_after ({not_after}) must be strictly after now ({now})")
    document = DidDocument(
        id=derive_did(guest_key),
        guest_key=guest_key,
        auth_method=AUTH_METHOD_ED25519,
        resources=frozenset(resources),
        policy_endpoint=policy_endpoint,
        not_after=not_after,
        controller=owner.did,
    )
    problems = document.structural_errors()
    if problems:
        raise ValueError("; ".join(problems))
    return SignedDidDocument(
        document=document,
        signer=owner.did,
        signature=owner.sign(canonicalize(document)),
    )


def verify_document(sdoc: SignedDidDocument, owner_key: bytes, now: int) -> DocumentStatus:
    """Classify a signed document. Precedence: Malformed > BadSignature > Expired > Active.

    The checks that do not depend on `now` are remembered for the last 256
    (document, owner key) pairs; expiry is checked against `now` on every call."""
    doc = sdoc.document
    # the memo is keyed by the document itself. Equal documents with the field
    # types from_json builds encode to equal bytes; a not_after of 1, 1.0 or
    # True compares equal but encodes apart, so other types are checked afresh
    exact = type(doc.not_after) is int and type(doc.policy_endpoint) in (str, type(None))
    status = (_signed_status if exact else _signed_status.__wrapped__)(sdoc, owner_key)
    if status is DocumentStatus.ACTIVE and now >= doc.not_after:
        return DocumentStatus.EXPIRED
    return status


@lru_cache(maxsize=256)
def _signed_status(sdoc: SignedDidDocument, owner_key: bytes) -> DocumentStatus:
    """Malformed, BadSignature or Active: the classification of a document at
    any instant before its not_after."""
    if sdoc.document.structural_errors() or sdoc.signer != sdoc.document.controller:
        return DocumentStatus.MALFORMED
    if len(owner_key) != 32 or not verify_signature(owner_key, sdoc.signature, canonicalize(sdoc.document)):
        return DocumentStatus.BAD_SIGNATURE
    return DocumentStatus.ACTIVE


@dataclass(frozen=True, slots=True)
class Challenge:
    nonce: bytes
    issued_at: int
    hub_id: str

    def to_json(self) -> dict:
        return {"nonce": b64(self.nonce), "issued_at": self.issued_at, "hub_id": self.hub_id}

    @classmethod
    def from_json(cls, obj: dict) -> "Challenge":
        try:
            return cls(nonce=unb64(obj["nonce"]), issued_at=int(obj["issued_at"]), hub_id=str(obj["hub_id"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed challenge: {exc}") from exc


def make_challenge(hub_id: str, now: int) -> Challenge:
    return Challenge(nonce=secrets.token_bytes(32), issued_at=now, hub_id=hub_id)


def _challenge_signing_bytes(challenge: Challenge) -> bytes:
    # length-prefixed concatenation; unambiguous regardless of field contents
    hub = challenge.hub_id.encode("utf-8")
    ts = struct.pack(">Q", challenge.issued_at)
    parts = []
    for chunk in (challenge.nonce, hub, ts):
        parts.append(struct.pack(">I", len(chunk)))
        parts.append(chunk)
    return b"".join(parts)


def respond_to_challenge(challenge: Challenge, guest: Keypair) -> bytes:
    """Guest-side proof of key possession: a signature over the challenge fields."""
    return guest.sign(_challenge_signing_bytes(challenge))


def verify_challenge(challenge: Challenge, response: bytes, guest_key: bytes) -> bool:
    if len(guest_key) != 32 or len(response) != 64:
        return False
    return verify_signature(guest_key, response, _challenge_signing_bytes(challenge))


def save_keypair(path: str | Path, keypair: Keypair) -> None:
    """Write the seed envelope {"kind":"ed25519-seed","seed":<base64>}."""
    Path(path).write_text(
        json.dumps({"kind": KEY_FILE_KIND, "seed": b64(keypair.private_key)}) + "\n"
    )


def load_keypair(path: str | Path) -> Keypair:
    obj = json.loads(Path(path).read_text())
    if obj.get("kind") != KEY_FILE_KIND:
        raise ValueError(f"{path}: not an {KEY_FILE_KIND} envelope")
    return generate_keypair(unb64(obj["seed"]))


def save_public_key(path: str | Path, public_key: bytes) -> None:
    """Write the out-of-band exchange blob a guest hands to an owner."""
    Path(path).write_text(
        json.dumps({"kind": PUBKEY_FILE_KIND, "public_key": b64(public_key)}) + "\n"
    )


def load_public_key(path: str | Path) -> bytes:
    """Read a public key from either a public envelope or a seed envelope."""
    obj = json.loads(Path(path).read_text())
    kind = obj.get("kind")
    if kind == PUBKEY_FILE_KIND:
        key = unb64(obj["public_key"])
        if len(key) != 32:
            raise ValueError(f"{path}: public key is not 32 bytes")
        return key
    if kind == KEY_FILE_KIND:
        return generate_keypair(unb64(obj["seed"])).public_key
    raise ValueError(f"{path}: unrecognized key envelope kind {kind!r}")
