"""Latency harness for the seven operations on the access hot paths.

Measures p50/p95 wall time per operation over in-process fixtures and prints
each row next to its latency budget: 25 ms for key-level cryptography, 50 ms
for registry and decision operations. DID creation on Fabric-style
block-committing ledgers is dominated by the ~2500 ms commit interval; the
in-process chain commits synchronously, so that figure is reported as
context, not reproduced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .client import Owner
from .gateway import Gateway
from .hub import GatewayLink, Hub, HubConfig
from .identity import (
    generate_keypair,
    make_challenge,
    respond_to_challenge,
    verify_challenge,
)
from .pdp import PdpReplica, PolicyRequest, decide, parse_policy
from .registry import MemberId, Registry
from .wire import register_local, unregister_local

CRYPTO_BUDGET_MS = 25.0
SERVICE_BUDGET_MS = 50.0
LEDGER_COMMIT_REFERENCE_MS = 2500.0


@dataclass
class BenchRow:
    name: str
    iterations: int
    p50_ms: float
    p95_ms: float
    budget_ms: float

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "iterations": self.iterations,
            "p50_ms": round(self.p50_ms, 4),
            "p95_ms": round(self.p95_ms, 4),
            "budget_ms": self.budget_ms,
            "within_budget": self.p95_ms < self.budget_ms,
        }


def _percentile(sorted_ms: list[float], q: float) -> float:
    idx = min(len(sorted_ms) - 1, max(0, round(q * (len(sorted_ms) - 1))))
    return sorted_ms[idx]


def _time_loop(fn, iterations: int) -> tuple[float, float]:
    samples = []
    for _ in range(iterations):
        start = time.perf_counter_ns()
        fn()
        samples.append((time.perf_counter_ns() - start) / 1e6)
    samples.sort()
    return _percentile(samples, 0.50), _percentile(samples, 0.95)


def run_bench(iterations: int = 1000) -> dict:
    if iterations < 1:
        raise ValueError("iterations must be positive")
    rows: list[BenchRow] = []
    now = 1_000_000

    signer = generate_keypair()
    message = b"m" * 256
    signature = signer.sign(message)
    rows.append(BenchRow("sign", iterations, *_time_loop(lambda: signer.sign(message), iterations), CRYPTO_BUDGET_MS))

    from .identity import verify_signature

    rows.append(
        BenchRow(
            "verify",
            iterations,
            *_time_loop(lambda: verify_signature(signer.public_key, signature, message), iterations),
            CRYPTO_BUDGET_MS,
        )
    )

    def challenge_round_trip():
        challenge = make_challenge("bench-hub", now)
        response = respond_to_challenge(challenge, signer)
        assert verify_challenge(challenge, response, signer.public_key)

    rows.append(BenchRow("challenge_round_trip", iterations, *_time_loop(challenge_round_trip, iterations), CRYPTO_BUDGET_MS))

    # registry submit: one pre-signed create per iteration, timing only submit()
    owner = Owner(keypair=generate_keypair(), label="bench-owner")
    admin = generate_keypair()
    registry = Registry.create(admin.public_key, [MemberId(owner.keypair.public_key, owner.label)])
    from .identity import build_and_sign_guest_document
    from .registry import KIND_CREATE, signed_tx

    pending = []
    for _ in range(iterations):
        guest = generate_keypair()
        sdoc = build_and_sign_guest_document(
            owner.keypair, guest.public_key, ["iot:bench/thing"], None, now + 3600, now
        )
        pending.append(signed_tx(KIND_CREATE, sdoc.document.id, sdoc, owner.keypair, owner.label, owner.bump_seq()))
    pending_iter = iter(pending)
    p50, p95 = _time_loop(lambda: registry.submit(next(pending_iter)), iterations)
    rows.append(BenchRow("registry_submit", iterations, p50, p95, SERVICE_BUDGET_MS))

    target_did = pending[0].did
    rows.append(
        BenchRow(
            "registry_resolve",
            iterations,
            *_time_loop(lambda: registry.resolve(target_did, now), iterations),
            SERVICE_BUDGET_MS,
        )
    )

    # simple authorize: unique action per call keeps every call a cache miss
    gateway = Gateway("bench-gw", {"owner": "pw"}, {"iot:bench-gw/thing": 0})
    gw_endpoint = register_local("bench-gateway", gateway.dispatcher())
    token = gateway.link_account("owner", "pw", now)
    guest = generate_keypair()
    sdoc = build_and_sign_guest_document(
        owner.keypair, guest.public_key, ["iot:bench-gw/thing"], None, now + 7200, now
    )
    registry.submit(signed_tx(KIND_CREATE, sdoc.document.id, sdoc, owner.keypair, owner.label, owner.bump_seq()))
    hub = Hub(
        HubConfig(
            hub_id="bench-hub",
            registry_endpoint=registry,
            known_owners={owner.did.render(): owner.keypair.public_key},
            gateway_links={"bench-gw": GatewayLink(gw_endpoint, token)},
            cache_capacity=4,
        )
    )
    challenge = hub.begin_auth(guest.did, now)
    session = hub.complete_auth(guest.did, respond_to_challenge(challenge, guest), now)
    counter = iter(range(10 * iterations))

    def authorize_simple():
        hub.authorize(session, "iot:bench-gw/thing", f"read-{next(counter)}", None, now)

    try:
        rows.append(BenchRow("authorize_simple", iterations, *_time_loop(authorize_simple, iterations), SERVICE_BUDGET_MS))

        # delegated decision across three in-process replicas
        rule = parse_policy(
            {
                "policy_id": "bench-policy",
                "clauses": [{"effect": "allow", "resource_pattern": "iot:*", "ttl_seconds": 300}],
            }
        )
        replica_names = []
        endpoints = []
        keys = {}
        for i in range(3):
            replica = PdpReplica(f"bench-r{i}", generate_keypair(), {"bench-policy": rule})
            name = f"bench-replica-{i}"
            endpoints.append(replica.serve_local(name))
            replica_names.append(name)
            keys[replica.replica_id] = replica.key.public_key
        uri = f"pdp://{','.join(endpoints)}/bench-policy?consensus=majority"
        req = PolicyRequest(
            guest_did=guest.did.render(), resource="iot:bench-gw/thing", action="read", context={}, now=now
        )

        def decide_delegated():
            decision = decide(uri, req, keys, timeout=5.0)
            assert decision.granted

        try:
            rows.append(
                BenchRow("decide_delegated_3", iterations, *_time_loop(decide_delegated, iterations), SERVICE_BUDGET_MS)
            )
        finally:
            for name in replica_names:
                unregister_local(name)
    finally:
        unregister_local("bench-gateway")
        hub.close()
        registry.close()

    return {
        "iterations": iterations,
        "rows": [row.to_json() for row in rows],
        "reference": {
            "crypto_budget_ms": CRYPTO_BUDGET_MS,
            "service_budget_ms": SERVICE_BUDGET_MS,
            "did_create_block_commit_ms": LEDGER_COMMIT_REFERENCE_MS,
            "note": (
                "the block-commit figure applies to Fabric-style ledger deployments; "
                "the in-process chain commits synchronously and does not reproduce it"
            ),
        },
    }


def format_table(report: dict) -> str:
    lines = [
        f"{'operation':<22} {'iters':>6} {'p50 ms':>10} {'p95 ms':>10} {'budget ms':>10}  ok",
        "-" * 66,
    ]
    for row in report["rows"]:
        mark = "yes" if row["within_budget"] else "NO"
        lines.append(
            f"{row['name']:<22} {row['iterations']:>6} {row['p50_ms']:>10.3f} "
            f"{row['p95_ms']:>10.3f} {row['budget_ms']:>10.1f}  {mark}"
        )
    ref = report["reference"]
    lines.append("-" * 66)
    lines.append(
        f"reference: crypto budget {ref['crypto_budget_ms']:.0f} ms, "
        f"registry/decision budget {ref['service_budget_ms']:.0f} ms (p95)"
    )
    lines.append(
        f"not reproduced: DID creation via ledger block commit, ~{ref['did_create_block_commit_ms']:.0f} ms ({ref['note']})"
    )
    return "\n".join(lines)
