"""Operator front end. Every subcommand is a thin shell over module
operations; no signing or ledger logic lives here.

Exit codes: 0 success, 1 protocol denial or remote failure, 2 usage or
config error. Pass --json for machine-readable output; the commands that
read a clock (grant, resolve, guest-access) take --now to pin it for
reproducible runs.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from pathlib import Path

from . import bench as bench_mod
from . import scenario as scenario_mod
from .canonical import canonical_text
from .client import HubClient, Owner, next_seq
from .gateway import Gateway
from .hub import GatewayLink, Hub, HubConfig
from .identity import (
    generate_keypair,
    load_keypair,
    load_public_key,
    save_keypair,
    save_public_key,
    unb64,
)
from .pdp import PdpReplica, parse_policy
from .registry import MemberId, Registry, RegistryClient, registry_dispatcher
from .wire import ServiceError, WireServer


def _emit(args, payload: dict, human: str) -> None:
    print(canonical_text(payload) if args.json else human)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _default_now(args) -> int:
    return args.now if args.now is not None else int(time.time())


def cmd_keygen(args) -> int:
    out = Path(args.out)
    if out.exists() and not args.force:
        return _fail(f"{out} exists; pass --force to overwrite", 2)
    try:
        seed = bytes.fromhex(args.seed) if args.seed else None
        keypair = generate_keypair(seed)
    except ValueError as exc:
        return _fail(str(exc), 2)
    save_keypair(out, keypair)
    save_public_key(out.with_name(out.name + ".pub"), keypair.public_key)
    did = keypair.did.render()
    _emit(args, {"did": did, "key_file": str(out), "public_file": str(out) + ".pub"}, did)
    return 0


def cmd_grant(args) -> int:
    if args.expires_in <= 0:
        return _fail("--expires-in must be a positive number of seconds", 2)
    if not args.resource and not args.policy_uri:
        return _fail("a grant needs at least one --resource or a --policy-uri", 2)
    try:
        owner = Owner(keypair=load_keypair(args.owner_key), label=args.label)
        guest_key = load_public_key(args.guest_pubkey)
    except (OSError, ValueError) as exc:
        return _fail(str(exc), 2)
    now = _default_now(args)
    registry = RegistryClient(args.registry)
    try:
        did, height = owner.grant(
            registry,
            guest_key,
            args.resource,
            args.policy_uri,
            now + args.expires_in,
            now,
            seq=args.seq if args.seq is not None else next_seq(),
        )
    except ServiceError as exc:
        return _fail(f"{exc.code}: {exc.message}", 1)
    except (ValueError, ConnectionRefusedError, TimeoutError) as exc:
        return _fail(str(exc), 1)
    finally:
        registry.close()
    _emit(args, {"did": did.render(), "height": height}, f"{did.render()} (block {height})")
    return 0


def cmd_revoke(args) -> int:
    try:
        owner = Owner(keypair=load_keypair(args.owner_key), label=args.label)
    except (OSError, ValueError) as exc:
        return _fail(str(exc), 2)
    registry = RegistryClient(args.registry)
    try:
        height = owner.revoke(registry, args.did, seq=args.seq if args.seq is not None else next_seq())
    except ServiceError as exc:
        return _fail(f"{exc.code}: {exc.message}", 1)
    except (ValueError, ConnectionRefusedError, TimeoutError) as exc:
        return _fail(str(exc), 1)
    finally:
        registry.close()
    _emit(args, {"did": args.did, "height": height}, f"revoked at block {height}")
    return 0


def cmd_resolve(args) -> int:
    registry = RegistryClient(args.registry)
    try:
        result = registry.resolve(args.did, _default_now(args))
    except ServiceError as exc:
        return _fail(f"{exc.code}: {exc.message}", 1)
    except (ValueError, ConnectionRefusedError, TimeoutError) as exc:
        return _fail(str(exc), 1)
    finally:
        registry.close()
    payload = {
        "status": result.status.value,
        "as_of": result.as_of,
        "document": result.document.to_json() if result.document else None,
    }
    _emit(args, payload, f"{args.did}: {result.status.value} (as of block {result.as_of})")
    return 0


def cmd_guest_access(args) -> int:
    try:
        keypair = load_keypair(args.key)
        payload = json.loads(args.payload) if args.payload else None
        context = json.loads(args.context) if args.context else None
    except (OSError, ValueError) as exc:
        return _fail(str(exc), 2)
    client = HubClient(args.hub)
    now = _default_now(args)
    did = keypair.did
    stages: list[str] = []
    try:
        stages.append("auth.begin")
        challenge = client.begin_auth(did, now)
        stages.append("auth.complete")
        from .identity import respond_to_challenge

        session_id = client.complete_auth(did, respond_to_challenge(challenge, keypair), now)
        stages.append("access")
        reply = client.access(session_id, args.resource, args.action, payload, context, now)
    except ServiceError as exc:
        print(f"failed at {stages[-1]}: {exc.code}: {exc.message}", file=sys.stderr)
        return 1
    except (ConnectionRefusedError, TimeoutError) as exc:
        print(f"failed at {stages[-1]}: {exc}", file=sys.stderr)
        return 1
    decision = reply.get("decision", {})
    gateway = reply.get("gateway", {})
    _emit(
        args,
        {"did": did.render(), "stages": stages, "decision": decision, "gateway": gateway},
        f"{did.render()}: granted via {decision.get('source')} "
        f"(valid until {decision.get('valid_until')}); gateway {gateway.get('status')}: "
        f"{json.dumps(gateway.get('body'))}",
    )
    return 0


def _load_config(path: str) -> dict:
    return json.loads(Path(path).read_text())


def _build_registry_service(config: dict) -> tuple[object, object]:
    chain_path = config["chain_path"]
    if Path(chain_path).exists():
        registry = Registry.load(chain_path)
    else:
        members = [MemberId(unb64(m["public_key"]), m["label"]) for m in config.get("members", [])]
        registry = Registry.create(unb64(config["admin_public_key"]), members, chain_path)
    return registry, registry_dispatcher(registry)


def _build_hub_service(config: dict) -> tuple[object, object]:
    links = {
        gid: GatewayLink(entry["endpoint"], entry["token"])
        for gid, entry in config.get("gateway_links", {}).items()
    }
    hub = Hub(
        HubConfig(
            hub_id=config["hub_id"],
            registry_endpoint=config["registry_endpoint"],
            known_owners={did: unb64(key) for did, key in config.get("known_owners", {}).items()},
            gateway_links=links,
            pdp_replica_keys={rid: unb64(key) for rid, key in config.get("pdp_replica_keys", {}).items()},
            cache_capacity=int(config.get("cache_capacity", 128)),
            default_ttl=int(config.get("default_ttl", 60)),
            challenge_ttl=int(config.get("challenge_ttl", 30)),
            pdp_timeout=float(config.get("pdp_timeout", 5.0)),
        )
    )
    return hub, hub.dispatcher()


def _build_pdp_service(config: dict) -> tuple[object, object]:
    policies = {}
    for pid, rule in config.get("policies", {}).items():
        policies[pid] = parse_policy({"policy_id": pid, **rule})
    for path in config.get("policy_files", []):
        rule = parse_policy(Path(path).read_text())
        policies[rule.policy_id] = rule
    replica = PdpReplica(config["replica_id"], load_keypair(config["key_file"]), policies)
    return replica, replica.dispatcher()


def _build_gateway_service(config: dict) -> tuple[object, object]:
    gateway = Gateway(
        gateway_id=config["gateway_id"],
        accounts=config.get("accounts", {}),
        resources=config.get("resources", {}),
        token_lifetime=int(config.get("token_lifetime", 3600)),
    )
    for entry in config.get("tokens", []):
        gateway.seed_token(
            entry["token"], entry["username"], int(time.time()), entry.get("expires_at")
        )
    return gateway, gateway.dispatcher()


_BUILDERS = {
    "registry": _build_registry_service,
    "hub": _build_hub_service,
    "pdp": _build_pdp_service,
    "gateway": _build_gateway_service,
}


def cmd_serve(args) -> int:
    try:
        config = _load_config(args.config)
        host, _, port = config["listen"].rpartition(":")
        service, dispatcher = _BUILDERS[args.role](config)
        server = WireServer(dispatcher, host or "127.0.0.1", int(port)).start()
    except (OSError, KeyError, ValueError, ServiceError) as exc:
        return _fail(f"cannot start {args.role}: {exc}", 2)
    stop = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: stop.set())
    print(f"{args.role} listening on {server.endpoint}", flush=True)
    stop.wait()
    server.stop()
    close = getattr(service, "close", None)  # the hub's back-end sockets, the registry's chain file
    if close is not None:
        close()
    print(f"{args.role} stopped", flush=True)
    return 0


def cmd_scenario(args) -> int:
    try:
        spec = scenario_mod.load_scenario(args.path)
    except (OSError, ValueError) as exc:
        return _fail(str(exc), 2)
    report = scenario_mod.run_scenario(spec)
    if args.json:
        print(canonical_text(report.to_json()))
    else:
        for step in report.steps:
            mark = "ok" if step.ok else "FAIL"
            print(f"step {step.index:>2} {step.kind:<14} {mark}  {json.dumps(step.outcome, sort_keys=True)}")
        print("PASS" if report.passed else f"FAIL: {report.message}")
    return 0 if report.passed else 1


def cmd_bench(args) -> int:
    report = bench_mod.run_bench(args.iterations)
    if args.json:
        print(canonical_text(report))
    else:
        print(bench_mod.format_table(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ghub", description="Guest access control for multi-tenant IoT hubs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, now: bool = False):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if now:  # only the commands that read a clock
            p.add_argument("--now", type=int, default=None, help="virtual clock (seconds since epoch)")

    p = sub.add_parser("keygen", help="generate an Ed25519 keypair and print its DID")
    p.add_argument("--out", required=True, help="seed envelope path; <out>.pub gets the public envelope")
    p.add_argument("--seed", help="32-byte hex seed for deterministic keys")
    p.add_argument("--force", action="store_true", help="overwrite an existing key file")
    common(p)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("grant", help="sign a guest document and store it in the registry")
    p.add_argument("--owner-key", required=True)
    p.add_argument("--guest-pubkey", required=True, help="guest public-key envelope")
    p.add_argument("--resource", action="append", default=[], help="allowed resource URI (repeatable)")
    p.add_argument("--policy-uri", default=None, help="delegate decisions to pdp:// replicas")
    p.add_argument("--expires-in", type=int, required=True, help="document lifetime in seconds")
    p.add_argument("--registry", required=True, help="registry endpoint host:port")
    p.add_argument("--label", default="owner", help="registry member label")
    p.add_argument("--seq", type=int, default=None, help="override the replay-protection counter")
    common(p, now=True)
    p.set_defaults(func=cmd_grant)

    p = sub.add_parser("revoke", help="revoke a guest DID")
    p.add_argument("--owner-key", required=True)
    p.add_argument("--did", required=True)
    p.add_argument("--registry", required=True)
    p.add_argument("--label", default="owner")
    p.add_argument("--seq", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_revoke)

    p = sub.add_parser("resolve", help="look a DID up in the registry")
    p.add_argument("--did", required=True)
    p.add_argument("--registry", required=True)
    common(p, now=True)
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("guest-access", help="authenticate to a hub and invoke a resource")
    p.add_argument("--key", required=True, help="guest seed envelope")
    p.add_argument("--hub", required=True, help="hub endpoint host:port")
    p.add_argument("--resource", required=True)
    p.add_argument("--action", required=True)
    p.add_argument("--payload", default=None, help="JSON payload for write/actuate")
    p.add_argument("--context", default=None, help="JSON object of context values")
    common(p, now=True)
    p.set_defaults(func=cmd_guest_access)

    p = sub.add_parser("serve", help="run a service from a config file")
    p.add_argument("--role", required=True, choices=sorted(_BUILDERS))
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("scenario", help="run a scenario file (or a bundled name)")
    p.add_argument("path", help="scenario JSON path, or one of: " + ", ".join(sorted(scenario_mod.BUNDLED)))
    common(p)
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("bench", help="measure operation latencies against their budgets")
    p.add_argument("--iterations", type=int, default=1000)
    common(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
