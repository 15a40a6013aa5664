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

from .identity import (
    build_and_sign_guest_document,
    generate_keypair,
    make_challenge,
    respond_to_challenge,
    verify_challenge,
    verify_signature,
)
from .pdp import PolicyRequest, decide
from .registry import KIND_CREATE, signed_tx
from .scenario import ScenarioWorld

CRYPTO_BUDGET_MS = 25.0
SERVICE_BUDGET_MS = 50.0
LEDGER_COMMIT_REFERENCE_MS = 2500.0

# The in-process fixtures: one owner and guest, a gateway, three replicas
# serving one policy, and a hub whose small cache keeps most calls misses.
BENCH_WORLD = {
    "clock": 1_000_000,
    "owners": [{"name": "bench-owner"}],
    "guests": [{"name": "bench-guest"}],
    "gateways": [{"id": "bench-gw", "accounts": {"owner": "pw"}, "resources": {"iot:bench-gw/thing": 0}}],
    "policies": {"bench-policy": {"clauses": [{"effect": "allow", "resource_pattern": "iot:*", "ttl_seconds": 300}]}},
    "pdp_replicas": [{"id": f"bench-r{i}"} for i in range(3)],
    "hubs": [
        {"id": "bench-hub", "owner": "bench-owner", "cache_capacity": 4,
         "links": [{"gateway": "bench-gw", "username": "owner", "password": "pw"}]},
    ],
}
BENCH_SETUP = [
    {"do": "grant", "owner": "bench-owner", "guest": "bench-guest", "resources": ["iot:bench-gw/thing"], "expires_in": 7200},
    {"do": "authenticate", "guest": "bench-guest", "hub": "bench-hub"},
]


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
    now = BENCH_WORLD["clock"]

    def timed(name: str, fn, budget_ms: float) -> None:
        rows.append(BenchRow(name, iterations, *_time_loop(fn, iterations), budget_ms))

    signer = generate_keypair()
    message = b"m" * 256
    signature = signer.sign(message)
    timed("sign", lambda: signer.sign(message), CRYPTO_BUDGET_MS)
    timed("verify", lambda: verify_signature(signer.public_key, signature, message), CRYPTO_BUDGET_MS)

    def challenge_round_trip():
        challenge = make_challenge("bench-hub", now)
        response = respond_to_challenge(challenge, signer)
        assert verify_challenge(challenge, response, signer.public_key)

    timed("challenge_round_trip", challenge_round_trip, CRYPTO_BUDGET_MS)

    with ScenarioWorld(BENCH_WORLD) as world:
        # registry submit: one pre-signed create per iteration, timing only submit()
        owner = world.owners["bench-owner"]
        pending = []
        for _ in range(iterations):
            sdoc = build_and_sign_guest_document(
                owner.keypair, generate_keypair().public_key, ["iot:bench/thing"], None, now + 3600, now
            )
            pending.append(signed_tx(KIND_CREATE, sdoc.document.id, sdoc, owner.keypair, owner.label, owner.bump_seq()))
        pending_iter = iter(pending)
        timed("registry_submit", lambda: world.registry.submit(next(pending_iter)), SERVICE_BUDGET_MS)
        target_did = pending[0].did
        timed("registry_resolve", lambda: world.registry.resolve(target_did, now), SERVICE_BUDGET_MS)

        for step in BENCH_SETUP:
            outcome = world.run_step(step)
            if outcome.get("status") != "ok":
                raise RuntimeError(f"bench set-up step {step['do']!r} failed: {outcome}")
        hub = world.hubs["bench-hub"]
        session = world.sessions[("bench-guest", "bench-hub")]
        counter = iter(range(10 * iterations))

        # simple authorize: unique action per call keeps every call a cache miss
        def authorize_simple():
            hub.authorize(session, "iot:bench-gw/thing", f"read-{next(counter)}", None, now)

        timed("authorize_simple", authorize_simple, SERVICE_BUDGET_MS)

        # delegated decision across three in-process replicas
        uri = world.resolve_policy_uri("pdp://bench-r0,bench-r1,bench-r2/bench-policy?consensus=majority")
        keys = {rid: replica.key.public_key for rid, replica in world.replicas.items()}
        guest_did = world.grants[("bench-owner", "bench-guest")]
        req = PolicyRequest(guest_did=guest_did, resource="iot:bench-gw/thing", action="read", context={}, now=now)

        def decide_delegated():
            decision = decide(uri, req, keys, timeout=5.0)
            assert decision.granted

        timed("decide_delegated_3", decide_delegated, SERVICE_BUDGET_MS)

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
