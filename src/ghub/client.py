"""Client-side flows: owner grant/revoke against a registry, and the guest's
two-step hub interaction (authenticate, then invoke).

A GuestAgent keeps one keypair per owner relationship, so the byte strings
one owner's hub observes (DID, public key, signatures) share nothing with
another owner's, which is what keeps guests untrackable across hubs.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

from .identity import (
    Challenge,
    Did,
    Keypair,
    as_did,
    b64,
    build_and_sign_guest_document,
    generate_keypair,
    respond_to_challenge,
)
from .registry import KIND_CREATE, KIND_REVOKE, Registry, RegistryClient, signed_tx
from .wire import read_reply, request


def _access_reply(reply) -> dict:
    """The hub's access reply: an object whose `decision` and `gateway`, the
    fields a caller reads, are objects where present."""
    if not isinstance(reply, dict):
        raise TypeError(f"reply is a {type(reply).__name__}, not an object")
    for name in ("decision", "gateway"):
        if not isinstance(reply.get(name, {}), dict):
            raise TypeError(f"{name} is a {type(reply[name]).__name__}, not an object")
    return reply


def next_seq() -> int:
    """Replay-protection counter for one-shot submitters: strictly increasing
    per wall clock, independent of any virtual clock in play."""
    return time.time_ns()


@dataclass
class Owner:
    """An owner's registry-facing identity: keypair doubles as member key."""

    keypair: Keypair
    label: str
    _seq: int = 0

    @property
    def did(self) -> Did:
        return self.keypair.did

    def bump_seq(self) -> int:
        self._seq += 1
        return self._seq

    def grant(
        self,
        registry: Registry | RegistryClient,
        guest_key: bytes,
        resources,
        policy_endpoint: str | None,
        not_after: int,
        now: int,
        seq: int | None = None,
    ) -> tuple[Did, int]:
        """Sign a guest document and commit its Create; returns (guest DID, height)."""
        sdoc = build_and_sign_guest_document(
            self.keypair, guest_key, resources, policy_endpoint, not_after, now
        )
        tx = signed_tx(
            KIND_CREATE,
            sdoc.document.id,
            sdoc,
            self.keypair,
            self.label,
            seq if seq is not None else self.bump_seq(),
        )
        height = registry.submit(tx)
        return sdoc.document.id, height

    def revoke(
        self,
        registry: Registry | RegistryClient,
        guest_did,
        seq: int | None = None,
    ) -> int:
        tx = signed_tx(
            KIND_REVOKE,
            as_did(guest_did),
            None,
            self.keypair,
            self.label,
            seq if seq is not None else self.bump_seq(),
        )
        return registry.submit(tx)


class HubClient:
    """Wire-level guest view of one hub."""

    def __init__(self, endpoint: str, timeout: float = 5.0):
        self.endpoint = endpoint
        self.timeout = timeout

    def begin_auth(self, guest_did, now: int | None = None) -> Challenge:
        body = {"guest_did": as_did(guest_did).render()}
        if now is not None:
            body["now"] = now
        reply = request(self.endpoint, "hub.auth.begin", body, timeout=self.timeout)
        return read_reply(self.endpoint, reply, lambda r: Challenge.from_json(r["challenge"]))

    def complete_auth(self, guest_did, response: bytes, now: int | None = None) -> str:
        body = {"guest_did": as_did(guest_did).render(), "response": b64(response)}
        if now is not None:
            body["now"] = now
        reply = request(self.endpoint, "hub.auth.complete", body, timeout=self.timeout)
        return read_reply(self.endpoint, reply, lambda r: r["session_id"])

    def access(self, session_id: str, resource: str, action: str, payload=None, context=None, now: int | None = None) -> dict:
        body = {"session_id": session_id, "resource": resource, "action": action, "payload": payload}
        if context:
            body["context"] = context
        if now is not None:
            body["now"] = now
        reply = request(self.endpoint, "hub.access", body, timeout=self.timeout)
        return read_reply(self.endpoint, reply, _access_reply)

    def authenticate(self, guest_key: Keypair, now: int | None = None) -> str:
        """The full two-step handshake; returns a session id."""
        did = guest_key.did
        challenge = self.begin_auth(did, now)
        return self.complete_auth(did, respond_to_challenge(challenge, guest_key), now)


@dataclass
class GuestAgent:
    """A guest's keyring: an independent keypair per owner relationship."""

    name: str = "guest"
    deterministic: bool = False
    _keys: dict[str, Keypair] = field(default_factory=dict)

    def keypair_for(self, owner_ref: str) -> Keypair:
        key = self._keys.get(owner_ref)
        if key is None:
            seed = None
            if self.deterministic:
                seed = hashlib.sha256(f"guest:{self.name}:{owner_ref}".encode()).digest()
            key = generate_keypair(seed)
            self._keys[owner_ref] = key
        return key

    def did_for(self, owner_ref: str) -> Did:
        return self.keypair_for(owner_ref).did
