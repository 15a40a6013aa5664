"""Shared builders and independent oracles for the test suite.

The oracles here are deliberately written against the plain definitions
(fold the history, count the votes, check clauses one by one) rather than
reusing the production code paths they check.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field

from ghub.client import Owner
from ghub.gateway import Gateway
from ghub.hub import GatewayLink, Hub, HubConfig
from ghub.identity import Keypair, generate_keypair
from ghub.pdp import PdpReplica, PolicyRule, parse_policy
from ghub.registry import KIND_CREATE, KIND_REVOKE, KIND_UPDATE, MemberId, Registry
from ghub.wire import Dispatcher, register_local, unregister_local

NOW = 1_000_000


def seeded_keypair(n: int) -> Keypair:
    return generate_keypair(bytes([n]) * 32)


def unique_local(dispatcher: Dispatcher, tag: str = "ep") -> tuple[str, str]:
    """Register under a collision-free name; returns (name, endpoint)."""
    name = f"{tag}-{uuid.uuid4().hex[:10]}"
    return name, register_local(name, dispatcher)


@dataclass
class SimpleWorld:
    registry: Registry
    owner: Owner
    guest: Keypair
    guest_did: object
    gateway: Gateway
    hub: Hub
    token: str
    local_names: list[str] = field(default_factory=list)

    def close(self):
        for name in self.local_names:
            unregister_local(name)
        self.hub.close()
        self.registry.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def build_simple_world(
    now: int = NOW,
    resources=("iot:hue/light1",),
    expires_in: int = 3600,
    policy_uri: str | None = None,
    default_ttl: int = 60,
    challenge_ttl: int = 30,
    replica_keys: dict | None = None,
    pdp_timeout: float = 2.0,
    gateway_id: str = "hue",
) -> SimpleWorld:
    """One registry, one owner, one hub, one gateway, one granted guest."""
    owner = Owner(keypair=seeded_keypair(7), label="alice")
    admin = seeded_keypair(9)
    registry = Registry.create(admin.public_key, [MemberId(owner.keypair.public_key, "alice")])
    guest = seeded_keypair(3)
    did, _ = owner.grant(registry, guest.public_key, list(resources), policy_uri, now + expires_in, now)

    gateway = Gateway(gateway_id, {"alice": "pw"}, {r: "off" for r in resources} or {f"iot:{gateway_id}/x": 0})
    name, endpoint = unique_local(gateway.dispatcher(), "gw")
    token = gateway.link_account("alice", "pw", now)
    hub = Hub(
        HubConfig(
            hub_id="hub1",
            registry_endpoint=registry,
            known_owners={owner.did.render(): owner.keypair.public_key},
            gateway_links={gateway_id: GatewayLink(endpoint, token)},
            pdp_replica_keys=replica_keys or {},
            default_ttl=default_ttl,
            challenge_ttl=challenge_ttl,
            pdp_timeout=pdp_timeout,
        )
    )
    return SimpleWorld(
        registry=registry,
        owner=owner,
        guest=guest,
        guest_did=did,
        gateway=gateway,
        hub=hub,
        token=token,
        local_names=[name],
    )


def make_replicas(n: int, rule: PolicyRule, id_prefix: str = "r") -> tuple[list[PdpReplica], list[str], list[str], dict]:
    """n honest replicas on local endpoints; returns (replicas, names, endpoints, keys)."""
    replicas, names, endpoints, keys = [], [], [], {}
    for i in range(n):
        replica = PdpReplica(f"{id_prefix}{i}", generate_keypair(), {rule.policy_id: rule})
        name, endpoint = unique_local(replica.dispatcher(), f"pdp-{id_prefix}{i}")
        replicas.append(replica)
        names.append(name)
        endpoints.append(endpoint)
        keys[replica.replica_id] = replica.key.public_key
    return replicas, names, endpoints, keys


def allow_all_rule(policy_id: str = "p", ttl: int | None = 300) -> PolicyRule:
    clause = {"effect": "allow"}
    if ttl is not None:
        clause["ttl_seconds"] = ttl
    return parse_policy({"policy_id": policy_id, "clauses": [clause]})


class LyingReplica(PdpReplica):
    """Byzantine replica: evaluates honestly, then signs the inverted verdict."""

    def evaluate_policy(self, policy_id, req):
        from ghub.pdp import evaluate, make_verdict

        rule = self.policies.get(policy_id)
        if rule is None:
            from ghub.wire import ServiceError

            raise ServiceError("UnknownPolicy", policy_id)
        granted, valid_until = evaluate(rule, req)
        inverted_until = req.now + 300 if not granted else None
        return make_verdict(req, not granted, inverted_until, self.replica_id, self.key)


class RecordingDispatcher:
    """Wraps a dispatcher and keeps the raw request envelopes it saw."""

    def __init__(self, inner: Dispatcher):
        self.inner = inner
        self.requests: list = []

    def handle(self, envelope):
        self.requests.append(envelope)
        return self.inner.handle(envelope)


# ---------------------------------------------------------------------------
# Independent oracles

def fold_resolution(history: list, now: int) -> tuple[str, object]:
    """Fold a DID's tx history with the plain state machine.

    Returns (status string, document or None) exactly as resolve should.
    """
    state = None  # None | ("active", sdoc) | ("revoked", sdoc)
    for _height, tx in history:
        if tx.kind == KIND_CREATE:
            assert state is None, "fold oracle: create over existing state"
            state = ("active", tx.payload)
        elif tx.kind == KIND_UPDATE:
            assert state is not None and state[0] == "active"
            state = ("active", tx.payload)
        elif tx.kind == KIND_REVOKE:
            assert state is not None and state[0] == "active"
            state = ("revoked", state[1])
    if state is None:
        return "NotFound", None
    status, sdoc = state
    if status == "revoked":
        return "Revoked", sdoc
    if now >= sdoc.document.not_after:
        return "Expired", sdoc
    return "Active", sdoc


def naive_evaluate(rule: PolicyRule, req) -> tuple[bool, int | None]:
    """Clause-by-clause reference evaluator, written independently."""

    def pat(p, v):
        return p == "*" or (p.endswith("*") and v.startswith(p[:-1])) or p == v

    def pred(key, op, want, ctx):
        if key not in ctx:
            return False
        have = ctx[key]
        if op == "==":
            return have == want
        if op == "!=":
            return have != want
        if op == "in":
            return isinstance(want, list) and have in want
        numeric = (
            isinstance(have, (int, float))
            and isinstance(want, (int, float))
            and not isinstance(have, bool)
            and not isinstance(want, bool)
        )
        stringy = isinstance(have, str) and isinstance(want, str)
        if not numeric and not stringy:
            return False
        return {"<": have < want, "<=": have <= want, ">": have > want, ">=": have >= want}[op]

    for clause in rule.clauses:
        hits = (
            pat(clause.did_pattern, req.guest_did)
            and pat(clause.resource_pattern, req.resource)
            and pat(clause.action_pattern, req.action)
            and all(pred(k, op, v, req.context) for (k, op, v) in clause.context_predicates)
        )
        if hits:
            if clause.effect == "allow":
                return True, (req.now + clause.ttl_seconds if clause.ttl_seconds is not None else None)
            return False, None
    return False, None


def popcount_decision(votes: list[bool], kind: str, n: int, k: int | None = None) -> bool:
    """Vote-counting oracle: grant counts compared against the rule's bar."""
    grants = sum(1 for v in votes if v)
    if kind == "majority":
        return grants > n / 2
    if kind == "unanimous":
        return grants == n
    return grants >= k
