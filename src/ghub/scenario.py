"""Declarative end-to-end scenarios: a JSON script sets up a registry,
owners, guests, hubs, gateways, and PDP replicas, then drives an ordered
step list against a virtual clock. Any step whose outcome does not match
its expectation fails the run with that step's index.

Keys are derived deterministically from actor names, so a scenario run is
reproducible bit-for-bit apart from nonces and session ids (which are never
asserted on).
"""

from __future__ import annotations

import hashlib
import json
import uuid
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field
from importlib import resources as importlib_resources
from pathlib import Path

from .client import GuestAgent, Owner
from .gateway import Gateway
from .hub import GatewayLink, Hub, HubConfig
from .identity import generate_keypair, respond_to_challenge
from .pdp import PdpReplica, parse_policy
from .registry import MemberId, Registry
from .wire import ServiceError, register_local, unregister_local

BUNDLED = {"happy-path": "happy_path.json", "revocation": "revocation.json"}


class ScenarioError(Exception):
    pass


@dataclass
class StepResult:
    index: int
    kind: str
    outcome: dict
    expected: dict
    ok: bool


@dataclass
class ScenarioReport:
    passed: bool
    steps: list[StepResult] = field(default_factory=list)
    failed_step: int | None = None
    message: str = ""

    def to_json(self) -> dict:
        return asdict(self)


def _seed(kind: str, name: str) -> bytes:
    return hashlib.sha256(f"scenario:{kind}:{name}".encode()).digest()


def _subset_matches(expected, actual) -> bool:
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return False
        return all(k in actual and _subset_matches(v, actual[k]) for k, v in expected.items())
    if isinstance(expected, list):
        return isinstance(actual, list) and len(expected) == len(actual) and all(
            _subset_matches(e, a) for e, a in zip(expected, actual)
        )
    return expected == actual


class ScenarioWorld:
    """All actors of one scenario, wired together in process."""

    def __init__(self, spec: dict):
        # what is built is closed in reverse order by `close`, or at once if building raises
        with ExitStack() as closers:
            self._closers = closers
            self._build(spec)
            self._closers = closers.pop_all()

    def _build(self, spec: dict) -> None:
        self.spec = spec
        self.clock = int(spec.get("clock", 1_000_000))
        self._run_tag = uuid.uuid4().hex[:8]

        self.owners: dict[str, Owner] = {}
        for entry in spec.get("owners", []):
            name = entry["name"]
            self.owners[name] = Owner(keypair=generate_keypair(_seed("owner", name)), label=name)

        admin = generate_keypair(_seed("admin", spec.get("registry", {}).get("admin_label", "admin")))
        members = [MemberId(o.keypair.public_key, o.label) for o in self.owners.values()]
        self.registry = Registry.create(admin.public_key, members)
        self._closers.callback(self.registry.close)

        self.guests: dict[str, GuestAgent] = {}
        for entry in spec.get("guests", []):
            self.guests[entry["name"]] = GuestAgent(name=entry["name"], deterministic=True)

        self.gateways: dict[str, Gateway] = {}
        self.gateway_endpoints: dict[str, str] = {}
        for entry in spec.get("gateways", []):
            gw = Gateway(
                gateway_id=entry["id"],
                accounts=entry.get("accounts", {}),
                resources=entry.get("resources", {}),
                token_lifetime=int(entry.get("token_lifetime", 24 * 3600)),
            )
            self.gateways[entry["id"]] = gw
            self.gateway_endpoints[entry["id"]] = self._register(f"gw-{entry['id']}", gw.dispatcher())

        policies = {pid: parse_policy({"policy_id": pid, **rule}) for pid, rule in spec.get("policies", {}).items()}
        self.replicas: dict[str, PdpReplica] = {}
        self.replica_endpoints: dict[str, str] = {}
        for entry in spec.get("pdp_replicas", []):
            rid = entry["id"]
            served = entry.get("policies")
            rules = {pid: policies[pid] for pid in served} if served else dict(policies)
            replica = PdpReplica(rid, generate_keypair(_seed("replica", rid)), rules)
            self.replicas[rid] = replica
            self.replica_endpoints[rid] = self._register(f"pdp-{rid}", replica.dispatcher())

        self.hubs: dict[str, Hub] = {}
        self._hub_owners: dict[str, list[str]] = {}
        self.hub_tokens: dict[tuple[str, str], str] = {}  # (hub, gateway) -> owner token
        for entry in spec.get("hubs", []):
            hub_id = entry["id"]
            owner_names = self._hub_owners[hub_id] = entry.get("owners", [entry["owner"]] if "owner" in entry else [])
            known = {self.owners[n].did.render(): self.owners[n].keypair.public_key for n in owner_names}
            links = {}
            for link in entry.get("links", []):
                gw = self.gateways[link["gateway"]]
                token = gw.link_account(link["username"], link["password"], self.clock)
                links[link["gateway"]] = GatewayLink(self.gateway_endpoints[link["gateway"]], token)
                self.hub_tokens[(hub_id, link["gateway"])] = token
            replica_ids = entry.get("replicas", list(self.replicas))
            config = HubConfig(
                hub_id=hub_id,
                registry_endpoint=self.registry,
                known_owners=known,
                gateway_links=links,
                pdp_replica_keys={rid: self.replicas[rid].key.public_key for rid in replica_ids},
                cache_capacity=int(entry.get("cache_capacity", 128)),
                default_ttl=int(entry.get("default_ttl", 60)),
                challenge_ttl=int(entry.get("challenge_ttl", 30)),
            )
            self.hubs[hub_id] = hub = Hub(config)
            self._closers.callback(hub.close)

        self.sessions: dict[tuple[str, str], object] = {}  # (guest, hub) -> GuestSession
        self.grants: dict[tuple[str, str], str] = {}  # (owner, guest) -> did string

    def _register(self, name: str, dispatcher) -> str:
        name = f"{self._run_tag}-{name}"
        endpoint = register_local(name, dispatcher)
        self._closers.callback(unregister_local, name)
        return endpoint

    def close(self) -> None:
        self._closers.close()

    def __enter__(self) -> "ScenarioWorld":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- step execution ------------------------------------------------------

    def resolve_policy_uri(self, uri: str) -> str:
        """Replace replica ids in the authority with their live endpoints."""
        if not uri.startswith("pdp://"):
            return uri
        rest = uri[len("pdp://"):]
        authority, _, tail = rest.partition("/")
        endpoints = [self.replica_endpoints.get(tok, tok) for tok in authority.split(",")]
        return "pdp://" + ",".join(endpoints) + "/" + tail

    def run_step(self, step: dict) -> dict:
        kind = step.get("do")
        handler = getattr(self, f"_step_{kind}", None)
        if handler is None:
            raise ScenarioError(f"unknown step kind {kind!r}")
        try:
            return handler(step)
        except ServiceError as exc:
            return {"status": "error", "error": exc.code, "message": exc.message}
        except (ValueError, KeyError) as exc:
            return {"status": "error", "error": type(exc).__name__, "message": str(exc)}

    def _step_grant(self, step: dict) -> dict:
        owner = self.owners[step["owner"]]
        guest = self.guests[step["guest"]]
        guest_key = guest.keypair_for(step["owner"])
        policy_uri = step.get("policy_uri")
        if policy_uri:
            policy_uri = self.resolve_policy_uri(policy_uri)
        expires_in = int(step["expires_in"])
        did, height = owner.grant(
            self.registry,
            guest_key.public_key,
            step.get("resources", []),
            policy_uri,
            self.clock + expires_in,
            self.clock,
        )
        self.grants[(step["owner"], step["guest"])] = did.render()
        return {"status": "ok", "did": did.render(), "height": height}

    def _step_revoke(self, step: dict) -> dict:
        owner = self.owners[step["owner"]]
        did = self.grants[(step["owner"], step["guest"])]
        height = owner.revoke(self.registry, did)
        return {"status": "ok", "height": height}

    def _step_authenticate(self, step: dict) -> dict:
        hub = self.hubs[step["hub"]]
        guest = self.guests[step["guest"]]
        owner_ref = step.get("owner") or self._sole_owner(step["hub"])
        keypair = guest.keypair_for(owner_ref)
        challenge = hub.begin_auth(keypair.did, self.clock)
        session = hub.complete_auth(keypair.did, respond_to_challenge(challenge, keypair), self.clock)
        self.sessions[(step["guest"], step["hub"])] = session
        return {"status": "ok", "session": True}

    def _step_access(self, step: dict) -> dict:
        hub = self.hubs[step["hub"]]
        session = self.sessions.get((step["guest"], step["hub"]))
        if session is None:
            return {"status": "error", "error": "NoSession", "message": "authenticate first"}
        gateway_body, decision = hub.access(
            session,
            step["resource"],
            step["action"],
            step.get("payload"),
            self.clock,
            context=step.get("context"),
        )
        return {
            "status": "ok",
            "granted": True,
            "source": decision.source,
            "valid_until": decision.valid_until,
            "gateway_status": gateway_body["status"],
            "value": (gateway_body.get("body") or {}).get("value"),
        }

    def _step_advance_clock(self, step: dict) -> dict:
        self.clock += int(step["by"])
        return {"status": "ok", "clock": self.clock}

    def _step_expect(self, step: dict) -> dict:
        for i, check in enumerate(step.get("checks", [])):
            ok, detail = self._run_check(check)
            if not ok:
                return {"status": "failed", "check": i, "detail": detail}
        return {"status": "ok"}

    def _run_check(self, check: dict) -> tuple[bool, str]:
        kind = check.get("check")
        if kind == "resolve":
            did = self.grants[(check["owner"], check["guest"])]
            result = self.registry.resolve(did, self.clock)
            want = check["status"]
            return result.status.value == want, f"resolve {did} -> {result.status.value}, wanted {want}"
        if kind == "gateway_never_saw_guest":
            gw = self.gateways[check["gateway"]]
            keypair = self.guests[check["guest"]].keypair_for(check["owner"])
            did = keypair.did.render()
            from .identity import b64 as _b64

            for pattern in (did, _b64(keypair.public_key)):
                if not gw.assert_never_saw(pattern):
                    return False, f"gateway {check['gateway']} observed {pattern!r}"
            return True, ""
        if kind == "gateway_saw_hub_token":
            token = self.hub_tokens[(check["hub"], check["gateway"])]
            gw = self.gateways[check["gateway"]]
            if gw.assert_never_saw(token):
                return False, f"gateway {check['gateway']} never saw the hub's linked token"
            return True, ""
        if kind == "chain_valid":
            return self.registry.verify_chain(), "registry chain failed verification"
        raise ScenarioError(f"unknown check kind {kind!r}")

    def _sole_owner(self, hub_id: str) -> str:
        owners = self._hub_owners[hub_id]
        if len(owners) != 1:
            raise ScenarioError(f"step needs an explicit owner: hub {hub_id} has multiple")
        return owners[0]


def run_scenario(spec: dict) -> ScenarioReport:
    report = ScenarioReport(passed=True)
    with ScenarioWorld(spec) as world:
        for index, step in enumerate(spec.get("steps", [])):
            outcome = world.run_step(step)
            expected = step.get("expect", {"status": "ok"})
            ok = _subset_matches(expected, outcome)
            report.steps.append(StepResult(index, step.get("do", "?"), outcome, expected, ok))
            if not ok:
                report.passed = False
                report.failed_step = index
                report.message = f"step {index} ({step.get('do')}): expected {expected}, got {outcome}"
                break
    return report


def load_scenario(path_or_name: str | Path) -> dict:
    """Load a scenario file; bare bundled names ("happy-path") also resolve."""
    path = Path(path_or_name)
    if path.exists():
        return json.loads(path.read_text())
    name = str(path_or_name)
    if name in BUNDLED:
        data = importlib_resources.files("ghub").joinpath("scenarios", BUNDLED[name]).read_text()
        return json.loads(data)
    raise FileNotFoundError(f"no scenario file {path_or_name!r} (bundled: {', '.join(sorted(BUNDLED))})")
