"""The three workloads, the closed-loop client that runs them, and the oracle.

Every workload runs in whole rounds. A round is a fixed multiset of
operations whose order (and the keys they touch) comes from a seeded RNG, so
each round costs the same number of calls at every layer whatever the seed.
The oracle is the benchmark's own record of what it granted, revoked and
configured; it never asks the program what the answer should be.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import count

from ghub.identity import Keypair
from ghub.registry import Registry, ResolutionStatus
from ghub.wire import ServiceError

import deploy

OPS = ("grant", "revoke", "auth", "access")
GRANT, DENY, EITHER = "grant", "deny", "either"

clock = time.perf_counter


@dataclass(eq=False)
class Guest:
    name: str
    keypair: Keypair
    owner: object
    policy_uri: str | None  # None for a simple-mode guest
    resources: tuple[str, ...]  # allow-list of a simple-mode guest
    keys: tuple[tuple[str, str], ...]  # (resource, action) pairs the guest uses
    status: str = "new"  # new -> live -> revoked
    session: str | None = None
    cursor: int = 0
    granted: dict = field(default_factory=dict)  # key -> valid_until of the hub's grant

    @property
    def did(self) -> str:
        return self.keypair.did.render()

    def next_key(self) -> tuple[str, str]:
        key = self.keys[self.cursor % len(self.keys)]
        self.cursor += 1
        return key


class Client:
    """Runs operations one at a time from the calling thread and checks each."""

    def __init__(self, dep: deploy.Deployment, seed: int):
        self.dep = dep
        self.seed = seed
        self.guests: list[Guest] = []
        self.names = count()
        self.payloads = count(1)
        self.granted_log: list[tuple[str, str]] = []
        self.last_value = dict(dep.initial_values)
        self.problems: list[str] = []
        self.timed = False
        self.samples = {op: [] for op in OPS}
        self.attempted = dict.fromkeys(OPS, 0)
        self.failed = dict.fromkeys(OPS, 0)
        self.committed_in_timed = 0
        self.windows: list[tuple[str, float, float]] = []  # timed ops, for the tracer

    # -- guests ------------------------------------------------------------------

    def new_guest(self, tag: str, owner_index: int, *, delegated: bool, resources=(), keys=()) -> Guest:
        name = f"{tag}-{next(self.names)}"
        guest = Guest(
            name=name,
            keypair=deploy.keypair(self.seed, f"guest-{name}"),
            owner=self.dep.owners[owner_index % len(self.dep.owners)],
            policy_uri=self.dep.policy_uri if delegated else None,
            resources=tuple(resources),
            keys=tuple(keys),
        )
        self.guests.append(guest)
        return guest

    # -- the oracle ----------------------------------------------------------------

    def expect(self, guest: Guest, resource: str, action: str) -> str:
        if guest.status == "live":
            if guest.policy_uri is None:
                allowed = resource in guest.resources
            else:
                allowed = deploy.policy_allows(resource, action)
            return GRANT if allowed else DENY
        # after a revoke only a grant the hub made before it may still be served
        return EITHER if (resource, action) in guest.granted else DENY

    # -- operations ------------------------------------------------------------------

    def run(self, op: tuple) -> None:
        kind = op[0]
        self.attempted[kind] += 1
        try:
            t0, t1, ok = getattr(self, "_" + kind)(*op[1:])
        except Exception as exc:  # a failed operation, whatever the cause, is counted and the run goes on
            self.failed[kind] += 1
            self.note(f"{kind} {op[1].name}: {type(exc).__name__}: {exc}")
            return
        if not ok:
            self.failed[kind] += 1
        if self.timed:
            self.samples[kind].append(t1 - t0)
            self.windows.append((kind, t0, t1))
            if ok and kind in ("grant", "revoke"):
                self.committed_in_timed += 1

    def note(self, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(problem)

    def _grant(self, guest: Guest):
        not_after = int(time.time()) + deploy.DOCUMENT_LIFETIME
        t0 = clock()
        did, _height = guest.owner.grant(
            self.dep.registry_client,
            guest.keypair.public_key,
            guest.resources,
            guest.policy_uri,
            not_after,
            int(time.time()),
        )
        t1 = clock()
        guest.status = "live"
        return t0, t1, did.render() == guest.did

    def _revoke(self, guest: Guest):
        t0 = clock()
        guest.owner.revoke(self.dep.registry_client, guest.did)
        t1 = clock()
        guest.status = "revoked"
        return t0, t1, True

    def _auth(self, guest: Guest):
        t0 = clock()
        session = self.dep.hub_client.authenticate(guest.keypair)
        t1 = clock()
        guest.session = session
        return t0, t1, True

    def _access(self, guest: Guest, resource: str, action: str):
        expected = self.expect(guest, resource, action)
        payload = f"{guest.name}:{next(self.payloads)}" if action == "write" else None
        started = time.time()
        t0 = clock()
        try:
            reply = self.dep.hub_client.access(guest.session, resource, action, payload)
        except ServiceError as exc:
            t1 = clock()
            if exc.code != "Denied":
                raise
            if expected == GRANT:
                self.note(f"access {guest.name} {resource} {action}: denied, expected a grant ({exc.message})")
                return t0, t1, False
            return t0, t1, True
        t1 = clock()
        if expected == DENY:
            self.note(f"access {guest.name} {resource} {action}: granted, expected a denial")
            return t0, t1, False
        self.check_grant(guest, resource, action, payload, reply, expected, started)
        return t0, t1, True

    def check_grant(self, guest, resource, action, payload, reply, expected, started) -> None:
        key = (resource, action)
        decision = reply.get("decision", {})
        valid_until = decision.get("valid_until")
        where = f"access {guest.name} {resource} {action}"
        if expected == EITHER:
            # served from the cache after the revoke: the same grant, and still in date
            if valid_until != guest.granted[key] or not started < valid_until:
                self.note(f"{where}: post-revoke grant valid_until {valid_until}, recorded {guest.granted[key]}")
        else:
            guest.granted[key] = valid_until
        if guest.policy_uri is None:
            if decision.get("source") != "simple-document":
                self.note(f"{where}: decision source {decision.get('source')!r}")
        else:
            detail = decision.get("detail", "")
            votes_ok = (
                decision.get("source") == "delegated-pdp"
                and detail.startswith("majority: 2/3 grant")
                and f"{deploy.OFF_KEY_REPLICA}:bad-signature" in detail
                and all(f"{r}:grant" in detail for r in deploy.REPLICA_IDS if r != deploy.OFF_KEY_REPLICA)
            )
            if not votes_ok:
                self.note(f"{where}: delegated decision {detail!r}")
        self.granted_log.append(key)
        body = (reply.get("gateway") or {}).get("body") or {}
        if action == "write":
            self.last_value[resource] = payload
        if body.get("value") != self.last_value[resource]:
            self.note(f"{where}: gateway value {body.get('value')!r}, last written {self.last_value[resource]!r}")

    # -- end-of-run checks ----------------------------------------------------------

    def final_checks(self) -> None:
        log = self.dep.gateway.call_log
        if [(e["resource"], e["action"]) for e in log] != self.granted_log:
            self.note(f"gateway call log has {len(log)} entries for {len(self.granted_log)} granted accesses")
        if any(e["outcome"] != "ok" for e in log):
            self.note("gateway call log holds a rejected invoke")
        if not self.dep.registry.verify_chain():
            self.note("verify_chain() is false")
        reloaded = Registry.load(self.dep.chain_path)
        now = int(time.time())
        want = {"live": ResolutionStatus.ACTIVE, "revoked": ResolutionStatus.REVOKED}
        for guest in self.guests:
            if guest.status == "new":
                continue
            status = reloaded.resolve(guest.did, now).status
            if status != want[guest.status]:
                self.note(f"reloaded chain: {guest.name} is {status.value}, expected {want[guest.status].value}")


BYSTANDERS = 48


def bystanders(c: Client) -> list[Guest]:
    """Guests every set-up grants and no round touches: the household's
    standing population, which the registry holds in every workload."""
    return [
        c.new_guest("bystander", i, delegated=False, resources=[deploy.RESOURCES[-1 - i % 8]])
        for i in range(BYSTANDERS)
    ]


def interleave(rng: random.Random, streams: list[list]) -> list:
    """A uniformly random merge of ordered streams; each keeps its own order."""
    streams = [list(reversed(s)) for s in streams if s]
    out = []
    while streams:
        i = rng.choices(range(len(streams)), [len(s) for s in streams])[0]
        out.append(streams[i].pop())
        if not streams[i]:
            streams.pop(i)
    return out


def lifecycle(guest: Guest, accesses) -> list[tuple]:
    return [("grant", guest), ("auth", guest), *[("access", guest, r, a) for r, a in accesses], ("revoke", guest)]


# -- workloads ------------------------------------------------------------------------
#
# Each workload is a class with `populate` (the guests set-up grants), `prologue`
# (untimed operations that fill sessions and the cache) and `round`.

RW = ("read", "write")


class WarmSimple:
    """Returning simple-mode guests on a working set that fits the decision cache."""

    RESIDENTS = 8
    RESOURCES_EACH = 4  # 8 guests x 4 resources x 2 actions = 64 keys < CACHE_CAPACITY
    ACCESSES = 40
    REAUTHS = 2

    def populate(self, c: Client) -> list[Guest]:
        self.residents = []
        for i in range(self.RESIDENTS):
            res = deploy.RESOURCES[i * self.RESOURCES_EACH:(i + 1) * self.RESOURCES_EACH]
            self.residents.append(
                c.new_guest("resident", i, delegated=False, resources=res, keys=[(r, a) for r in res for a in RW])
            )
        return self.residents

    def prologue(self, c: Client) -> list[tuple]:
        ops = [("auth", g) for g in self.residents]
        return ops + [("access", g, r, a) for g in self.residents for r, a in g.keys]

    def round(self, c: Client, rng: random.Random) -> list[tuple]:
        accesses = []
        for _ in range(self.ACCESSES):
            g = rng.choice(self.residents)
            accesses.append(("access", g, *rng.choice(g.keys)))
        # one access outside the guest's allow-list: a simple-mode denial
        g = rng.choice(self.residents)
        outside = deploy.RESOURCES[(self.residents.index(g) + 1) % self.RESIDENTS * self.RESOURCES_EACH]
        probe = [("access", g, outside, "read")]
        reauths = [("auth", g) for g in rng.sample(self.residents, self.REAUTHS)]
        # an owner lets a delegated guest in for one access and revokes it
        churn = c.new_guest("churn", rng.randrange(2), delegated=True)
        visit = lifecycle(churn, [(rng.choice(deploy.RESOURCES), rng.choice(RW))])
        return interleave(rng, [accesses, probe, reauths, visit])


class ColdDelegated:
    """Delegated guests cycling through more keys than the cache holds: every access misses."""

    RESIDENTS = 4
    KEY_RESOURCES = 66  # 66 resources x 2 actions = 132 keys per guest > CACHE_CAPACITY
    ACCESSES = 16

    def populate(self, c: Client) -> list[Guest]:
        self.residents = []
        for i in range(self.RESIDENTS):
            keys = [(r, a) for r in deploy.RESOURCES[: self.KEY_RESOURCES] for a in RW]
            random.Random(f"{c.seed}/keys/{i}").shuffle(keys)
            self.residents.append(c.new_guest("resident", i, delegated=True, keys=keys))
        return self.residents

    def prologue(self, c: Client) -> list[tuple]:
        return [("auth", g) for g in self.residents]

    def round(self, c: Client, rng: random.Random) -> list[tuple]:
        accesses = []
        for _ in range(self.ACCESSES):
            g = rng.choice(self.residents)
            accesses.append(("access", g, *g.next_key()))
        reauths = [("auth", rng.choice(self.residents))]
        churn = c.new_guest("churn", rng.randrange(2), delegated=True)
        visit = lifecycle(churn, [(rng.choice(deploy.RESOURCES), rng.choice(RW))])
        return interleave(rng, [accesses, reauths, visit])


class OwnerChurn:
    """Owners keep granting guests, who use their access briefly and are revoked."""

    RESIDENTS = 2  # each round touches every resident key once, so they stay cached
    CHURN_RESOURCES = 2

    def populate(self, c: Client) -> list[Guest]:
        self.residents = []
        for i in range(self.RESIDENTS):
            res = deploy.RESOURCES[i:i + 1]
            self.residents.append(c.new_guest("resident", i, delegated=False, resources=res, keys=[(r, a) for r in res for a in RW]))
        return self.residents

    def prologue(self, c: Client) -> list[tuple]:
        ops = [("auth", g) for g in self.residents]
        return ops + [("access", g, r, a) for g in self.residents for r, a in g.keys]

    def _visit(self, c: Client, rng: random.Random, owner_index: int, delegated: bool) -> list[tuple]:
        picks = rng.sample(deploy.RESOURCES[self.RESIDENTS:], self.CHURN_RESOURCES)
        guest = c.new_guest("churn", owner_index, delegated=delegated, resources=() if delegated else picks)
        first, second = picks
        ops = lifecycle(guest, [(first, "read"), (first, "write"), (second, "read")])
        # after the revoke: a key the hub granted (a cached grant may still be
        # served) and a key it never granted (must be denied)
        return ops + [("access", guest, first, "read"), ("access", guest, second, "write")]

    def round(self, c: Client, rng: random.Random) -> list[tuple]:
        resident = [("access", g, r, a) for g in self.residents for r, a in g.keys]
        rng.shuffle(resident)
        visits = [self._visit(c, rng, 0, delegated=False), self._visit(c, rng, 1, delegated=True)]
        return interleave(rng, [resident, *visits])


WORKLOADS = {
    "warm-simple": WarmSimple,
    "cold-delegated": ColdDelegated,
    "owner-churn": OwnerChurn,
}
