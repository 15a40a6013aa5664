"""One loopback deployment of every ghub role inside the benchmark process.

The registry, the gateway, three PDP replicas and the hub each run as a real
`WireServer` on 127.0.0.1 with a port the OS picks. The benchmark reaches them
only through the public client API: `Owner.grant`/`revoke` against a
`RegistryClient`, and `HubClient.authenticate`/`access`.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import threading
import time
from pathlib import Path

from ghub.client import HubClient, Owner
from ghub.gateway import Gateway
from ghub.hub import GatewayLink, Hub, HubConfig
from ghub.identity import Keypair, generate_keypair
from ghub.pdp import PdpReplica, parse_policy
from ghub.registry import MemberId, Registry, RegistryClient, registry_dispatcher
from ghub.wire import Dispatcher, WireServer

GATEWAY_ID = "hue"
RESOURCES = tuple(f"iot:{GATEWAY_ID}/dev{i:03d}" for i in range(80))
POLICY_ID = "home"
REPLICA_IDS = ("r1", "r2", "r3")
# the hub holds a different public key for this replica, so its verdicts are
# rejected and every delegated grant is carried by the other two votes
OFF_KEY_REPLICA = "r3"
CACHE_CAPACITY = 128
# cached grants outlive any run (at most 60 s timed plus warm-up), so a run's
# hit/miss pattern depends only on its operations, never on the clock
DEFAULT_TTL = 600
POLICY_TTL = 300
DOCUMENT_LIFETIME = 6 * 3600
OWNER_LABELS = ("alice", "bob")
GATEWAY_ACCOUNT = ("owner", "owner-password")

POLICY = {
    "policy_id": POLICY_ID,
    "clauses": [
        {"effect": "allow", "resource_pattern": f"iot:{GATEWAY_ID}/*", "action_pattern": "read", "ttl_seconds": POLICY_TTL},
        {"effect": "allow", "resource_pattern": f"iot:{GATEWAY_ID}/*", "action_pattern": "write", "ttl_seconds": POLICY_TTL},
    ],
}


def policy_allows(resource: str, action: str) -> bool:
    """What POLICY grants, written out by hand as the oracle for delegated guests."""
    return resource.startswith(f"iot:{GATEWAY_ID}/") and action in ("read", "write")


def keypair(seed: int, name: str) -> Keypair:
    return generate_keypair(hashlib.sha256(f"ghub-guestbench/{seed}/{name}".encode()).digest())


class Deployment:
    """Every role started on loopback; `close` stops them and deletes the chain."""

    def __init__(self, seed: int, workdir: Path):
        self.tmp = Path(tempfile.mkdtemp(prefix="deploy-", dir=workdir))
        self.servers: list[WireServer] = []
        try:
            self._start(seed)
        except BaseException:
            self.close()
            raise

    def _serve(self, dispatcher: Dispatcher) -> str:
        server = WireServer(dispatcher).start()
        self.servers.append(server)
        return server.endpoint

    def _start(self, seed: int) -> None:
        self.owners = [Owner(keypair(seed, f"owner-{label}"), label) for label in OWNER_LABELS]
        self.chain_path = self.tmp / "chain.ndjson"
        admin = keypair(seed, "registry-admin")
        self.registry = Registry.create(
            admin.public_key,
            [MemberId(o.keypair.public_key, o.label) for o in self.owners],
            self.chain_path,
        )
        registry_endpoint = self._serve(registry_dispatcher(self.registry))

        username, password = GATEWAY_ACCOUNT
        self.initial_values = {r: f"init:{r}" for r in RESOURCES}
        self.gateway = Gateway(GATEWAY_ID, {username: password}, self.initial_values)
        gateway_endpoint = self._serve(self.gateway.dispatcher())
        token = self.gateway.link_account(username, password, int(time.time()))

        rule = parse_policy(POLICY)
        replica_endpoints = []
        hub_replica_keys = {}
        for replica_id in REPLICA_IDS:
            key = keypair(seed, f"replica-{replica_id}")
            replica_endpoints.append(self._serve(PdpReplica(replica_id, key, {POLICY_ID: rule}).dispatcher()))
            held = keypair(seed, f"replica-{replica_id}-stale") if replica_id == OFF_KEY_REPLICA else key
            hub_replica_keys[replica_id] = held.public_key
        self.policy_uri = f"pdp://{','.join(replica_endpoints)}/{POLICY_ID}?consensus=majority"

        self.hub = Hub(
            HubConfig(
                hub_id="hub1",
                registry_endpoint=registry_endpoint,
                known_owners={o.did.render(): o.keypair.public_key for o in self.owners},
                gateway_links={GATEWAY_ID: GatewayLink(gateway_endpoint, token)},
                pdp_replica_keys=hub_replica_keys,
                cache_capacity=CACHE_CAPACITY,
                default_ttl=DEFAULT_TTL,
            )
        )
        hub_endpoint = self._serve(self.hub.dispatcher())
        self.registry_client = RegistryClient(registry_endpoint)
        self.hub_client = HubClient(hub_endpoint)

    def close(self) -> None:
        # each stop waits out its server's 0.5 s poll, so stop them side by side
        stoppers = [threading.Thread(target=s.stop) for s in self.servers]
        for t in stoppers:
            t.start()
        for t in stoppers:
            t.join()
        self.servers = []
        shutil.rmtree(self.tmp, ignore_errors=True)
