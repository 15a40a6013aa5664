"""The IoT hub as Policy Enforcement Point.

Authenticates guests by DID (resolve, owner-signature check, nonce
challenge), then authorizes each request either from the document's resource
allow-list (simple mode) or by fanning a request out to the policy endpoint
named in the document (delegated mode), caching decisions by
(guest, resource, action) until their valid_until. On a grant it invokes the
routed gateway with the owner's linked-account token; guest credentials
never travel past the hub. Every error path denies without touching a
gateway.
"""

from __future__ import annotations

import secrets
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field, replace

from . import pdp
from .identity import (
    RESOURCE_SCHEME,
    Challenge,
    Did,
    DocumentStatus,
    SignedDidDocument,
    as_did,
    make_challenge,
    unb64,
    verify_challenge,
    verify_document,
)
from .pdp import SOURCE_DELEGATED, SOURCE_SIMPLE, AccessDecision, PolicyRequest
from .registry import RegistryClient, ResolutionStatus
from .wire import ConnectionPool, Dispatcher, ServiceError, WireError, WireServer, request


# handshakes one guest may have outstanding at a hub; a further begin_auth drops the oldest
CHALLENGES_PER_GUEST = 4


class HubError(ServiceError):
    pass


@dataclass(frozen=True, slots=True)
class GatewayLink:
    endpoint: str
    token: str


@dataclass
class HubConfig:
    hub_id: str
    registry_endpoint: object  # "host:port"/"local:name" or any object with .resolve(did, now)
    known_owners: dict[str, bytes]
    gateway_links: dict[str, GatewayLink] = field(default_factory=dict)
    pdp_replica_keys: dict[str, bytes] = field(default_factory=dict)
    cache_capacity: int = 128
    default_ttl: int = 60
    challenge_ttl: int = 30
    pdp_timeout: float = 5.0

    def __post_init__(self):
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be at least 1")


@dataclass(slots=True)
class GuestSession:
    session_id: str
    guest_did: Did
    document: SignedDidDocument


class DecisionCache:
    """LRU decision cache keyed by (guest_did, resource, action); entries are
    never served at or past their valid_until."""

    def __init__(self, capacity: int):
        self._capacity = capacity
        self._entries: OrderedDict[tuple, AccessDecision] = OrderedDict()
        self._lock = threading.RLock()

    def get(self, key: tuple, now: int) -> AccessDecision | None:
        with self._lock:
            decision = self._entries.get(key)
            if decision is None:
                return None
            if now >= decision.valid_until:
                del self._entries[key]
                return None
            self._entries.move_to_end(key)
            return decision

    def put(self, key: tuple, decision: AccessDecision, now: int) -> None:
        if decision.valid_until <= now:
            return  # already stale; nothing worth keeping
        with self._lock:
            self._entries[key] = decision
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)

    def purge_expired(self, now: int) -> int:
        with self._lock:
            stale = [k for k, d in self._entries.items() if d.valid_until <= now]
            for k in stale:
                del self._entries[k]
            return len(stale)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class Hub:
    """The enforcement point. Its registry, PDP and gateway calls share one
    pool of kept-alive connections, which `close` releases."""

    def __init__(self, config: HubConfig):
        self.config = config
        self._pool = ConnectionPool()
        resolver = config.registry_endpoint
        self._registry = RegistryClient(resolver, pool=self._pool) if isinstance(resolver, str) else resolver
        self._cache = DecisionCache(config.cache_capacity)
        # guest DID -> its outstanding (challenge, document) pairs, oldest first
        self._challenges: dict[Did, deque[tuple[Challenge, SignedDidDocument]]] = {}
        self._sessions: dict[str, GuestSession] = {}
        self._session_of: dict[Did, str] = {}  # guest DID -> its one live session id
        self._lock = threading.RLock()
        self._flights: dict[tuple, threading.Lock] = {}

    # -- authentication --------------------------------------------------------

    def begin_auth(self, guest_did, now: int) -> Challenge:
        """Resolve and vet the guest's document, then issue a challenge."""
        did = as_did(guest_did)
        sdoc = self._resolve_active(did, now)
        # a 32-byte random nonce does not repeat, and complete_auth uses up what it answers
        challenge = make_challenge(self.config.hub_id, now)
        with self._lock:
            pending = self._challenges.setdefault(did, deque(maxlen=CHALLENGES_PER_GUEST))
            pending.append((challenge, sdoc))
        return challenge

    def complete_auth(self, guest_did, response: bytes, now: int) -> GuestSession:
        """Answer the newest outstanding challenge of the guest's that the response
        signs, and use it up. A response that signs none uses up nothing."""
        did = as_did(guest_did)
        with self._lock:
            pending = list(self._challenges.get(did, ()))
        if not pending:
            raise HubError("NoChallenge", f"no outstanding challenge for {did}")
        fresh = [entry for entry in pending if now - entry[0].issued_at <= self.config.challenge_ttl]
        if not fresh:
            self._take_challenges(did, pending)
            raise HubError("ChallengeExpired", "challenge is too old")
        for entry in reversed(fresh):
            if verify_challenge(entry[0], response, entry[1].document.guest_key):
                break
        else:
            raise HubError("BadResponse", "challenge response does not verify")
        if not self._take_challenges(did, [entry]):
            raise HubError("NoChallenge", f"no outstanding challenge for {did}")  # a concurrent complete used it
        session = GuestSession(session_id=secrets.token_hex(16), guest_did=did, document=entry[1])
        with self._lock:
            # one live session per guest: a new handshake ends the previous session
            previous = self._session_of.get(did)
            if previous is not None:
                self._sessions.pop(previous, None)
            self._sessions[session.session_id] = session
            self._session_of[did] = session.session_id
        return session

    def _take_challenges(self, did: Did, entries: list) -> bool:
        """Remove these outstanding challenges of one guest; False if one was gone."""
        with self._lock:
            pending = self._challenges.get(did, ())
            present = [entry for entry in entries if entry in pending]
            for entry in present:
                pending.remove(entry)
            if not pending:
                self._challenges.pop(did, None)
            return len(present) == len(entries)

    def _resolve_active(self, did: Did, now: int) -> SignedDidDocument:
        result = self._registry.resolve(did, now)
        if result.status == ResolutionStatus.NOT_FOUND:
            raise HubError("UnknownDid", f"{did} is not registered")
        if result.status == ResolutionStatus.REVOKED:
            raise HubError("DocumentRevoked", f"{did} has been revoked")
        if result.status == ResolutionStatus.EXPIRED:
            raise HubError("DocumentExpired", f"{did} has expired")
        sdoc = result.document
        owner_key = self.config.known_owners.get(sdoc.document.controller.render())
        if owner_key is None:
            raise HubError("UnknownOwner", f"controller {sdoc.document.controller} is not known to this hub")
        status = verify_document(sdoc, owner_key, now)
        if status == DocumentStatus.EXPIRED:
            raise HubError("DocumentExpired", f"{did} has expired")
        if status != DocumentStatus.ACTIVE:
            raise HubError("BadOwnerSignature", f"document for {did} failed verification ({status.value})")
        return sdoc

    # -- authorization -----------------------------------------------------------

    def authorize(self, session, resource: str, action: str, context: dict | None, now: int) -> AccessDecision:
        """Cached decision if fresh; otherwise re-resolve and decide."""
        sess = self._session(session)
        if now >= sess.document.document.not_after:
            self._drop_session(sess.session_id)
            raise HubError("SessionExpired", f"document for {sess.guest_did} expired")
        key = (sess.guest_did.render(), resource, action)
        cached = self._cache.get(key, now)
        if cached is not None:
            return cached
        with self._flight(key):
            cached = self._cache.get(key, now)
            if cached is not None:
                return cached
            decision = self._decide(sess, resource, action, context or {}, now)
            if decision.granted:
                self._cache.put(key, decision, now)
            return decision

    def _decide(self, sess: GuestSession, resource: str, action: str, context: dict, now: int) -> AccessDecision:
        # cache miss: re-resolve so revocations and updates are picked up
        try:
            sdoc = self._resolve_active(sess.guest_did, now)
        except HubError as exc:
            if exc.code == "DocumentExpired":
                self._drop_session(sess.session_id)
                raise HubError("SessionExpired", exc.message) from exc
            return AccessDecision(False, now, SOURCE_SIMPLE, f"re-resolve failed: {exc.code}")
        sess.document = sdoc
        doc = sdoc.document

        if doc.policy_endpoint is None:
            granted = resource in doc.resources
            if not granted:
                return AccessDecision(False, now, SOURCE_SIMPLE, f"{resource} is not in the allow list")
            valid_until = min(now + self.config.default_ttl, doc.not_after)
            return AccessDecision(True, valid_until, SOURCE_SIMPLE, "resource listed in document")

        try:
            uri = pdp.parse_policy_uri(doc.policy_endpoint)
        except ValueError as exc:
            return AccessDecision(False, now, SOURCE_DELEGATED, f"bad policy endpoint: {exc}")
        req = PolicyRequest(
            guest_did=sess.guest_did.render(),
            resource=resource,
            action=action,
            context=context,
            now=now,
        )
        decision = pdp.decide(
            uri,
            req,
            replica_keys=self.config.pdp_replica_keys,
            timeout=self.config.pdp_timeout,
            default_ttl=self.config.default_ttl,
            pool=self._pool,
        )
        return replace(decision, valid_until=min(decision.valid_until, doc.not_after))

    # -- enforcement ---------------------------------------------------------------

    def access(self, session, resource: str, action: str, payload, now: int, context: dict | None = None):
        """Authorize, then invoke the routed gateway with the owner's token.

        Returns (GatewayResponse-shaped dict, AccessDecision). Raises on denial
        or gateway failure; no gateway call is ever made for a denied request.
        """
        decision = self.authorize(session, resource, action, context, now)
        if not decision.granted:
            raise HubError("Denied", decision.detail)
        link = self._route(resource)
        if link is None:
            raise HubError("Denied", "no gateway route")
        try:
            body = request(
                link.endpoint,
                "gateway.invoke",
                {"token": link.token, "resource": resource, "action": action, "payload": payload, "now": now},
                timeout=self.config.pdp_timeout,
                pool=self._pool,
            )
        except (OSError, WireError) as exc:
            raise HubError("GatewayUnreachable", str(exc)) from exc
        except ServiceError as exc:
            raise HubError("GatewayUnreachable", f"{exc.code}: {exc.message}") from exc
        if body.get("status") != "OK":
            reason = (body.get("body") or {}).get("reason", "rejected")
            raise HubError("GatewayRejectedToken", reason)
        return body, decision

    def _route(self, resource: str) -> GatewayLink | None:
        # resources are "iot:<gateway_id>/<path>"; route on the gateway segment
        if not resource.startswith(RESOURCE_SCHEME):
            return None
        gateway_id = resource[len(RESOURCE_SCHEME):].split("/", 1)[0]
        return self.config.gateway_links.get(gateway_id)

    # -- housekeeping -----------------------------------------------------------------

    def purge_expired(self, now: int) -> int:
        return self._cache.purge_expired(now)

    def session(self, session_id: str) -> GuestSession | None:
        with self._lock:
            return self._sessions.get(session_id)

    def _session(self, session) -> GuestSession:
        # a GuestSession is looked up by its id, as on the wire, so an ended one is refused
        session_id = session.session_id if isinstance(session, GuestSession) else session
        sess = self.session(session_id)
        if sess is None:
            raise HubError("UnknownSession", f"no session {session_id!r}")
        return sess

    def _drop_session(self, session_id: str) -> None:
        with self._lock:
            sess = self._sessions.pop(session_id, None)
            if sess is not None and self._session_of.get(sess.guest_did) == session_id:
                del self._session_of[sess.guest_did]

    def close(self) -> None:
        """Close the kept-alive connections."""
        self._pool.close()

    def _flight(self, key: tuple) -> threading.Lock:
        # per-key single flight: concurrent identical misses do one fan-out
        with self._lock:
            lock = self._flights.get(key)
            if lock is None:
                if len(self._flights) > 4 * self.config.cache_capacity:
                    for stale in [k for k, lk in self._flights.items() if not lk.locked()]:
                        del self._flights[stale]
                lock = threading.Lock()
                self._flights[key] = lock
            return lock

    # -- service face ---------------------------------------------------------------------

    def dispatcher(self) -> Dispatcher:
        def _now(body) -> int:
            return int(body.get("now", time.time()))

        def _begin(body):
            challenge = self.begin_auth(Did.parse(body["guest_did"]), _now(body))
            return {"challenge": challenge.to_json()}

        def _complete(body):
            session = self.complete_auth(Did.parse(body["guest_did"]), unb64(body["response"]), _now(body))
            return {
                "session_id": session.session_id,
                "guest_did": session.guest_did.render(),
                "expires_at": session.document.document.not_after,
            }

        def _access(body):
            gateway_body, decision = self.access(
                str(body["session_id"]),
                str(body["resource"]),
                str(body["action"]),
                body.get("payload"),
                _now(body),
                context=body.get("context"),
            )
            return {"granted": True, "decision": decision.to_json(), "gateway": gateway_body}

        return Dispatcher(
            {
                "hub.auth.begin": _begin,
                "hub.auth.complete": _complete,
                "hub.access": _access,
            }
        )


def serve_hub(hub: Hub, host: str = "127.0.0.1", port: int = 0) -> WireServer:
    return WireServer(hub.dispatcher(), host, port).start()
