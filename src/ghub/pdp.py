"""Policy Decision Points: a small declarative rule language evaluated as a
pure function of the request, served by N independent replicas named in a
pdp:// policy URI, and combined client-side by a pre-defined consensus rule.

Every honest replica running the same rule returns the identical verdict for
identical input, so disagreement implies a fault. Aggregation fails closed:
timeouts, unknown policies, and verdicts with bad signatures all count as
deny votes, and ties deny.
"""

from __future__ import annotations

import hashlib
import re
import struct
from dataclasses import dataclass
from urllib.parse import parse_qs, urlsplit

from .canonical import canonical_bytes, parse as parse_json
from .identity import Keypair, b64, unb64, verify_signature
from .wire import ConnectionPool, Dispatcher, ServiceError, WireServer, failure_reason, request_all
from .wire import request  # noqa: F401  (no vote uses it; kept as `pdp.request`, a name tracers patch)

ALLOW = "allow"
DENY = "deny"
PREDICATE_OPS = ("==", "!=", "<", "<=", ">", ">=", "in")
DEFAULT_GRANT_TTL = 60  # seconds, for grant votes that carry no valid_until

_CONTEXT_KEY = re.compile(r"^[a-z_][a-z0-9_]*$")


class PolicyError(ValueError):
    pass


@dataclass(frozen=True)
class Clause:
    effect: str
    did_pattern: str = "*"
    resource_pattern: str = "*"
    action_pattern: str = "*"
    context_predicates: tuple[tuple[str, str, object], ...] = ()
    ttl_seconds: int | None = None


@dataclass(frozen=True)
class PolicyRule:
    policy_id: str
    clauses: tuple[Clause, ...] = ()


@dataclass(frozen=True, slots=True)
class PolicyRequest:
    guest_did: str
    resource: str
    action: str
    context: dict
    now: int

    def __post_init__(self):
        for key in self.context:
            if not isinstance(key, str) or not _CONTEXT_KEY.match(key):
                raise ValueError(f"context key {key!r} is not a lowercase ASCII identifier")

    def to_json(self) -> dict:
        return {
            "guest_did": self.guest_did,
            "resource": self.resource,
            "action": self.action,
            "context": dict(self.context),
            "now": self.now,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PolicyRequest":
        return cls(
            guest_did=str(obj["guest_did"]),
            resource=str(obj["resource"]),
            action=str(obj["action"]),
            context=dict(obj.get("context", {})),
            now=int(obj["now"]),
        )

    def digest(self) -> bytes:
        return hashlib.sha256(canonical_bytes(self.to_json())).digest()


@dataclass(frozen=True, slots=True)
class PolicyVerdict:
    granted: bool
    valid_until: int | None
    replica_id: str
    signature: bytes

    def to_json(self) -> dict:
        obj = {
            "granted": self.granted,
            "replica_id": self.replica_id,
            "signature": b64(self.signature),
        }
        if self.valid_until is not None:
            obj["valid_until"] = self.valid_until
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "PolicyVerdict":
        return cls(
            granted=bool(obj["granted"]),
            valid_until=int(obj["valid_until"]) if "valid_until" in obj else None,
            replica_id=str(obj["replica_id"]),
            signature=unb64(obj["signature"]),
        )


@dataclass(frozen=True, slots=True)
class ReplicaFailure:
    """A missing or unusable reply; always a deny vote."""

    endpoint: str
    reason: str


@dataclass(frozen=True)
class ConsensusRule:
    kind: str  # "majority" | "unanimous" | "threshold"
    threshold: int | None = None

    def __post_init__(self):
        if self.kind not in ("majority", "unanimous", "threshold"):
            raise ValueError(f"unknown consensus kind {self.kind!r}")
        if self.kind == "threshold" and (self.threshold is None or self.threshold < 1):
            raise ValueError("threshold rule needs k >= 1")

    @classmethod
    def majority(cls) -> "ConsensusRule":
        return cls("majority")

    @classmethod
    def unanimous(cls) -> "ConsensusRule":
        return cls("unanimous")

    @classmethod
    def of_threshold(cls, k: int) -> "ConsensusRule":
        return cls("threshold", k)


SOURCE_SIMPLE = "simple-document"  # decided by the document's resource allow-list
SOURCE_DELEGATED = "delegated-pdp"  # decided by consensus of PDP replicas


@dataclass(frozen=True, slots=True)
class AccessDecision:
    granted: bool
    valid_until: int
    source: str  # SOURCE_SIMPLE | SOURCE_DELEGATED
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "granted": self.granted,
            "valid_until": self.valid_until,
            "source": self.source,
            "detail": self.detail,
        }


# ---------------------------------------------------------------------------
# Policy URIs

POLICY_SCHEME = "pdp"


@dataclass(frozen=True)
class PolicyUri:
    """pdp://<ep1,ep2,...>/<policy_id>?consensus=majority|unanimous|threshold-k"""

    endpoints: tuple[str, ...]
    policy_id: str
    consensus: str = "majority"
    threshold: int | None = None

    def render(self) -> str:
        kind = f"threshold-{self.threshold}" if self.consensus == "threshold" else self.consensus
        return f"{POLICY_SCHEME}://{','.join(self.endpoints)}/{self.policy_id}?consensus={kind}"

    def __str__(self) -> str:
        return self.render()


def parse_policy_uri(text: str) -> PolicyUri:
    parts = urlsplit(text)
    if parts.scheme != POLICY_SCHEME:
        raise ValueError(f"policy URI must use the {POLICY_SCHEME!r} scheme, got {parts.scheme!r}")
    endpoints = tuple(e for e in parts.netloc.split(",") if e)
    if not endpoints:
        raise ValueError("policy URI has no replica endpoints")
    policy_id = parts.path.lstrip("/")
    if not policy_id or "/" in policy_id:
        raise ValueError("policy URI path must be a single non-empty policy id segment")
    query = parse_qs(parts.query)
    raw = query.get("consensus", ["majority"])[-1]
    threshold = None
    if raw.startswith("threshold-"):
        consensus = "threshold"
        try:
            threshold = int(raw[len("threshold-"):])
        except ValueError:
            raise ValueError(f"bad threshold in consensus parameter {raw!r}") from None
        if not 1 <= threshold <= len(endpoints):
            raise ValueError(
                f"threshold {threshold} out of range for {len(endpoints)} endpoint(s)"
            )
    elif raw in ("majority", "unanimous"):
        consensus = raw
    else:
        raise ValueError(f"unknown consensus rule {raw!r}")
    return PolicyUri(endpoints=endpoints, policy_id=policy_id, consensus=consensus, threshold=threshold)


# ---------------------------------------------------------------------------
# Rule parsing and evaluation

def parse_policy(obj: dict | str | bytes) -> PolicyRule:
    """Validate a policy document; errors name the offending clause index."""
    if isinstance(obj, (str, bytes)):
        obj = parse_json(obj)
    if not isinstance(obj, dict):
        raise PolicyError("policy must be a JSON object")
    policy_id = obj.get("policy_id")
    if not isinstance(policy_id, str) or not policy_id:
        raise PolicyError("policy_id must be a non-empty string")
    raw_clauses = obj.get("clauses", [])
    if not isinstance(raw_clauses, list):
        raise PolicyError("clauses must be a list")
    clauses = []
    for i, raw in enumerate(raw_clauses):
        where = f"clause {i}"
        if not isinstance(raw, dict):
            raise PolicyError(f"{where}: not an object")
        effect = raw.get("effect")
        if effect not in (ALLOW, DENY):
            raise PolicyError(f"{where}: effect must be {ALLOW!r} or {DENY!r}, got {effect!r}")
        preds = []
        for p in raw.get("context_predicates", []):
            if not isinstance(p, (list, tuple)) or len(p) != 3:
                raise PolicyError(f"{where}: predicates are [key, op, value] triples")
            key, op, value = p
            if not isinstance(key, str) or not _CONTEXT_KEY.match(key):
                raise PolicyError(f"{where}: bad predicate key {key!r}")
            if op not in PREDICATE_OPS:
                raise PolicyError(f"{where}: unknown op {op!r}")
            if op == "in" and not isinstance(value, list):
                raise PolicyError(f"{where}: 'in' needs a list value")
            preds.append((key, op, value))
        ttl = raw.get("ttl_seconds")
        if ttl is not None:
            # positive so a grant's valid_until is strictly after the request
            if not isinstance(ttl, int) or isinstance(ttl, bool) or ttl < 1:
                raise PolicyError(f"{where}: ttl_seconds must be a positive integer")
        clauses.append(
            Clause(
                effect=effect,
                did_pattern=str(raw.get("did_pattern", "*")),
                resource_pattern=str(raw.get("resource_pattern", "*")),
                action_pattern=str(raw.get("action_pattern", "*")),
                context_predicates=tuple(preds),
                ttl_seconds=ttl,
            )
        )
    return PolicyRule(policy_id=policy_id, clauses=tuple(clauses))


def _pattern_matches(pattern: str, value: str) -> bool:
    if pattern == "*":
        return True
    if pattern.endswith("*"):
        return value.startswith(pattern[:-1])
    return pattern == value


_NUMBERS = (int, float)


def _predicate_holds(pred: tuple[str, str, object], context: dict) -> bool:
    key, op, expected = pred
    if key not in context:
        return False
    actual = context[key]
    if op == "==":
        return actual == expected
    if op == "!=":
        return actual != expected
    if op == "in":
        return isinstance(expected, list) and actual in expected
    # ordering ops need comparable operands of the same flavor
    both_numbers = (
        isinstance(actual, _NUMBERS)
        and isinstance(expected, _NUMBERS)
        and not isinstance(actual, bool)
        and not isinstance(expected, bool)
    )
    both_strings = isinstance(actual, str) and isinstance(expected, str)
    if not (both_numbers or both_strings):
        return False
    if op == "<":
        return actual < expected
    if op == "<=":
        return actual <= expected
    if op == ">":
        return actual > expected
    return actual >= expected


def _clause_matches(clause: Clause, req: PolicyRequest) -> bool:
    return (
        _pattern_matches(clause.did_pattern, req.guest_did)
        and _pattern_matches(clause.resource_pattern, req.resource)
        and _pattern_matches(clause.action_pattern, req.action)
        and all(_predicate_holds(p, req.context) for p in clause.context_predicates)
    )


def evaluate(rule: PolicyRule, req: PolicyRequest) -> tuple[bool, int | None]:
    """First matching clause decides; no match denies (fail-closed)."""
    for clause in rule.clauses:
        if _clause_matches(clause, req):
            if clause.effect == ALLOW:
                ttl = clause.ttl_seconds
                return True, (req.now + ttl if ttl is not None else None)
            return False, None
    return False, None


# ---------------------------------------------------------------------------
# Verdict signing

def _verdict_signing_bytes(request_digest: bytes, granted: bool, valid_until: int | None) -> bytes:
    parts = [request_digest, b"\x01" if granted else b"\x00"]
    if valid_until is None:
        parts.append(b"\x00")
    else:
        parts.append(b"\x01" + struct.pack(">Q", valid_until))
    return b"".join(parts)


def make_verdict(req: PolicyRequest, granted: bool, valid_until: int | None, replica_id: str, key: Keypair) -> PolicyVerdict:
    signature = key.sign(_verdict_signing_bytes(req.digest(), granted, valid_until))
    return PolicyVerdict(granted=granted, valid_until=valid_until, replica_id=replica_id, signature=signature)


def verify_verdict(verdict: PolicyVerdict, req: PolicyRequest, replica_key: bytes) -> bool:
    return _verdict_verifies(verdict, req.digest(), replica_key)


def _verdict_verifies(verdict: PolicyVerdict, request_digest: bytes, replica_key: bytes) -> bool:
    return verify_signature(
        replica_key,
        verdict.signature,
        _verdict_signing_bytes(request_digest, verdict.granted, verdict.valid_until),
    )


# ---------------------------------------------------------------------------
# Replicas

class PdpReplica:
    """One decision point: a keypair plus the policies it is willing to evaluate."""

    def __init__(self, replica_id: str, key: Keypair, policies: dict[str, PolicyRule]):
        self.replica_id = replica_id
        self.key = key
        self.policies = dict(policies)

    def evaluate_policy(self, policy_id: str, req: PolicyRequest) -> PolicyVerdict:
        rule = self.policies.get(policy_id)
        if rule is None:
            raise ServiceError("UnknownPolicy", f"no policy {policy_id!r} on replica {self.replica_id}")
        granted, valid_until = evaluate(rule, req)
        return make_verdict(req, granted, valid_until, self.replica_id, self.key)

    def dispatcher(self) -> Dispatcher:
        def _evaluate(body):
            req = PolicyRequest.from_json(body["request"])
            return self.evaluate_policy(str(body["policy_id"]), req).to_json()

        return Dispatcher({"pdp.evaluate": _evaluate})


def serve_replica(replica: PdpReplica, host: str = "127.0.0.1", port: int = 0) -> WireServer:
    """Run a replica as a TCP service; returns the started server."""
    return WireServer(replica.dispatcher(), host, port).start()


# ---------------------------------------------------------------------------
# Aggregation and the one-call client face

def aggregate(
    entries: list,
    rule: ConsensusRule,
    n_replicas: int,
    *,
    now: int,
    default_ttl: int = DEFAULT_GRANT_TTL,
    req: PolicyRequest | None = None,
    replica_keys: dict[str, bytes] | None = None,
) -> AccessDecision:
    """Combine one entry per replica (verdict or failure) into a decision.

    Grant votes are counted only from well-formed verdicts; when replica_keys
    is given, a verdict must also carry a valid signature from a known
    replica, and each replica is counted once: a further verified verdict of
    the same replica, such as a copy another endpoint relayed, is a
    `duplicate` and never a grant. valid_until of a granted decision is the
    minimum over granting votes, treating an absent valid_until as
    now + default_ttl.
    """
    if len(entries) != n_replicas:
        raise ValueError(f"expected {n_replicas} entries, got {len(entries)}")
    # every vote signs the same request, so it is hashed once
    request_digest = req.digest() if req is not None and replica_keys is not None else None
    grants: list[int] = []
    notes: list[str] = []
    counted: set[str] = set()
    for entry in entries:
        if isinstance(entry, ReplicaFailure):
            notes.append(f"{entry.endpoint}:{entry.reason}")
            continue
        verdict: PolicyVerdict = entry
        if replica_keys is not None:
            key = replica_keys.get(verdict.replica_id)
            if key is None:
                notes.append(f"{verdict.replica_id}:unknown-replica")
                continue
            if request_digest is None or not _verdict_verifies(verdict, request_digest, key):
                notes.append(f"{verdict.replica_id}:bad-signature")
                continue
            if verdict.replica_id in counted:
                notes.append(f"{verdict.replica_id}:duplicate")
                continue
            counted.add(verdict.replica_id)
        if verdict.granted:
            grants.append(verdict.valid_until if verdict.valid_until is not None else now + default_ttl)
            notes.append(f"{verdict.replica_id}:grant")
        else:
            notes.append(f"{verdict.replica_id}:deny")

    n_grants = len(grants)
    if rule.kind == "majority":
        granted = 2 * n_grants > n_replicas
    elif rule.kind == "unanimous":
        granted = n_grants == n_replicas
    else:
        granted = n_grants >= (rule.threshold or 0)

    detail = f"{rule.kind}: {n_grants}/{n_replicas} grant ({', '.join(notes)})"
    if granted:
        return AccessDecision(True, min(grants), SOURCE_DELEGATED, detail)
    return AccessDecision(False, now, SOURCE_DELEGATED, detail)


def decide(
    policy_uri: PolicyUri | str,
    req: PolicyRequest,
    replica_keys: dict[str, bytes],
    timeout: float = 5.0,
    *,
    default_ttl: int = DEFAULT_GRANT_TTL,
    pool: ConnectionPool | None = None,
) -> AccessDecision:
    """Ask every replica endpoint at once and aggregate the votes.

    The caller sees a single call returning a single decision within
    `timeout`; replicas that time out, refuse connections, or answer garbage
    become deny votes, and so does a vote still out at the deadline. The
    votes are one `wire.request_all` round: the request is encoded once and
    written to every TCP replica from the calling thread, and the replies
    are read in one poll loop, so a decide over TCP starts no thread; a
    `local:` replica answers on a wire.WORKERS thread. A long-lived caller
    passes a connection pool; without one, each vote opens its own connection.
    """
    uri = parse_policy_uri(policy_uri) if isinstance(policy_uri, str) else policy_uri
    body = {"policy_id": uri.policy_id, "request": req.to_json()}
    replies = request_all(uri.endpoints, "pdp.evaluate", body, timeout=timeout, pool=pool)
    return aggregate(
        [_vote(endpoint, reply) for endpoint, reply in zip(uri.endpoints, replies)],
        ConsensusRule(uri.consensus, uri.threshold),
        len(uri.endpoints),
        now=req.now,
        default_ttl=default_ttl,
        req=req,
        replica_keys=replica_keys,
    )


def _vote(endpoint: str, reply) -> PolicyVerdict | ReplicaFailure:
    if isinstance(reply, Exception):
        return ReplicaFailure(endpoint, failure_reason(reply))
    try:
        return PolicyVerdict.from_json(reply)
    except Exception as exc:  # a reply that is not a verdict is a failed vote too
        return ReplicaFailure(endpoint, failure_reason(exc))
