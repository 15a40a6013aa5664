import json
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from ghub.cli import main
from ghub.gateway import Gateway, serve_gateway
from ghub.hub import GatewayLink, Hub, HubConfig, serve_hub
from ghub.identity import b64, load_keypair
from ghub.registry import MemberId, Registry, RegistryClient, registry_dispatcher
from ghub.wire import Dispatcher, WireServer
from helpers import NOW, seeded_keypair

ZERO_KEY_DID = "did:ghub:7tkzFg8RHBmMw1ncRJZCCZAizgq4rwCftTKYLce8RU8t"


def run_cli(*argv):
    return main(list(argv))


class TestKeygen:
    def test_fixed_seed_prints_known_did(self, tmp_path, capsys):
        out = tmp_path / "guest.key"
        zero_pub_did = "did:ghub:2KagShR4Usj2uARXJeDw7XJEKvQ3XDr84dC47hUB3Uyd"
        assert run_cli("keygen", "--out", str(out), "--seed", "00" * 32) == 0
        printed = capsys.readouterr().out.strip()
        assert printed == zero_pub_did
        assert load_keypair(out).private_key == bytes(32)
        assert (tmp_path / "guest.key.pub").exists()

    def test_refuses_overwrite_without_force(self, tmp_path, capsys):
        out = tmp_path / "k.key"
        assert run_cli("keygen", "--out", str(out)) == 0
        assert run_cli("keygen", "--out", str(out)) == 2
        assert run_cli("keygen", "--out", str(out), "--force") == 0

    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "k.key"
        assert run_cli("keygen", "--out", str(out), "--seed", "11" * 32, "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["did"].startswith("did:ghub:")
        assert payload["key_file"] == str(out)

    def test_bad_seed_is_usage_error(self, tmp_path):
        assert run_cli("keygen", "--out", str(tmp_path / "k"), "--seed", "f00d") == 2


@pytest.fixture
def registry_service():
    owner = seeded_keypair(7)
    admin = seeded_keypair(9)
    registry = Registry.create(admin.public_key, [MemberId(owner.public_key, "owner")])
    with WireServer(registry_dispatcher(registry)) as server:
        yield registry, server.endpoint, owner


@pytest.fixture
def owner_key_file(tmp_path):
    from ghub.identity import save_keypair

    path = tmp_path / "owner.key"
    save_keypair(path, seeded_keypair(7))
    return str(path)


@pytest.fixture
def guest_key_files(tmp_path):
    from ghub.identity import save_keypair, save_public_key

    guest = seeded_keypair(3)
    seed_path = tmp_path / "guest.key"
    save_keypair(seed_path, guest)
    pub_path = tmp_path / "guest.key.pub"
    save_public_key(pub_path, guest.public_key)
    return str(seed_path), str(pub_path), guest


class TestGrantRevokeResolve:
    def test_grant_then_resolve_active(self, registry_service, owner_key_file, guest_key_files, capsys):
        _, endpoint, _ = registry_service
        _, guest_pub, _ = guest_key_files
        code = run_cli(
            "grant", "--owner-key", owner_key_file, "--guest-pubkey", guest_pub,
            "--resource", "iot:hue/light1", "--expires-in", "3600",
            "--registry", endpoint, "--now", str(NOW), "--json",
        )
        assert code == 0
        did = json.loads(capsys.readouterr().out)["did"]

        assert run_cli("resolve", "--did", did, "--registry", endpoint, "--now", str(NOW), "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "Active"
        assert payload["document"]["document"]["resources"] == ["iot:hue/light1"]

    def test_zero_expiry_is_client_side_error(self, registry_service, owner_key_file, guest_key_files):
        _, endpoint, _ = registry_service
        _, guest_pub, _ = guest_key_files
        code = run_cli(
            "grant", "--owner-key", owner_key_file, "--guest-pubkey", guest_pub,
            "--resource", "iot:x/y", "--expires-in", "0", "--registry", endpoint,
        )
        assert code == 2

    def test_grant_needs_resources_or_policy(self, registry_service, owner_key_file, guest_key_files):
        _, endpoint, _ = registry_service
        _, guest_pub, _ = guest_key_files
        assert run_cli(
            "grant", "--owner-key", owner_key_file, "--guest-pubkey", guest_pub,
            "--expires-in", "60", "--registry", endpoint,
        ) == 2

    def test_policy_uri_only_grant_succeeds(self, registry_service, owner_key_file, guest_key_files, capsys):
        _, endpoint, _ = registry_service
        _, guest_pub, _ = guest_key_files
        code = run_cli(
            "grant", "--owner-key", owner_key_file, "--guest-pubkey", guest_pub,
            "--policy-uri", "pdp://local:r1/p?consensus=majority",
            "--expires-in", "3600", "--registry", endpoint, "--now", str(NOW), "--json",
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["did"].startswith("did:ghub:")

    def test_revoke_then_second_revoke_fails(self, registry_service, owner_key_file, guest_key_files, capsys):
        _, endpoint, _ = registry_service
        _, guest_pub, _ = guest_key_files
        run_cli(
            "grant", "--owner-key", owner_key_file, "--guest-pubkey", guest_pub,
            "--resource", "iot:x/y", "--expires-in", "3600",
            "--registry", endpoint, "--now", str(NOW), "--json",
        )
        did = json.loads(capsys.readouterr().out)["did"]
        assert run_cli("revoke", "--owner-key", owner_key_file, "--did", did, "--registry", endpoint) == 0
        capsys.readouterr()
        assert run_cli("revoke", "--owner-key", owner_key_file, "--did", did, "--registry", endpoint) == 1

    def test_revoke_foreign_did_is_controller_mismatch(self, registry_service, guest_key_files, tmp_path, capsys):
        registry, endpoint, owner_pub = registry_service
        _, guest_pub, guest = guest_key_files
        # a second member tries to revoke alice's grant
        from ghub.identity import save_keypair
        from ghub.registry import member_admission_bytes

        intruder = seeded_keypair(12)
        admin = seeded_keypair(9)
        member = MemberId(intruder.public_key, "intruder")
        registry.admit_member(admin.sign(member_admission_bytes(member)), member)
        intruder_file = tmp_path / "intruder.key"
        save_keypair(intruder_file, intruder)

        owner_file = tmp_path / "owner2.key"
        save_keypair(owner_file, seeded_keypair(7))
        run_cli(
            "grant", "--owner-key", str(owner_file), "--guest-pubkey", guest_pub,
            "--resource", "iot:x/y", "--expires-in", "3600",
            "--registry", endpoint, "--now", str(NOW), "--json",
        )
        did = json.loads(capsys.readouterr().out)["did"]
        code = run_cli(
            "revoke", "--owner-key", str(intruder_file), "--did", did,
            "--registry", endpoint, "--label", "intruder",
        )
        assert code == 1


class TestGuestAccess:
    @pytest.fixture
    def full_stack(self, registry_service, owner_key_file, guest_key_files):
        registry, reg_endpoint, _ = registry_service
        owner = seeded_keypair(7)
        gateway = Gateway("hue", {"alice": "pw"}, {"iot:hue/light1": "off"})
        gw_server = serve_gateway(gateway)
        token = gateway.link_account("alice", "pw", NOW)
        hub = Hub(
            HubConfig(
                hub_id="hub1",
                registry_endpoint=reg_endpoint,
                known_owners={owner.did.render(): owner.public_key},
                gateway_links={"hue": GatewayLink(gw_server.endpoint, token)},
            )
        )
        hub_server = serve_hub(hub)
        yield reg_endpoint, hub_server.endpoint, gateway
        hub_server.stop()
        gw_server.stop()

    def test_happy_path(self, full_stack, owner_key_file, guest_key_files, capsys):
        reg_endpoint, hub_endpoint, gateway = full_stack
        guest_seed, guest_pub, _ = guest_key_files
        run_cli(
            "grant", "--owner-key", owner_key_file, "--guest-pubkey", guest_pub,
            "--resource", "iot:hue/light1", "--expires-in", "3600",
            "--registry", reg_endpoint, "--now", str(NOW),
        )
        capsys.readouterr()
        code = run_cli(
            "guest-access", "--key", guest_seed, "--hub", hub_endpoint,
            "--resource", "iot:hue/light1", "--action", "read", "--now", str(NOW), "--json",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stages"] == ["auth.begin", "auth.complete", "access"]
        assert payload["gateway"]["status"] == "OK"

    def test_fails_at_auth_after_revocation(self, full_stack, owner_key_file, guest_key_files, capsys):
        reg_endpoint, hub_endpoint, _ = full_stack
        guest_seed, guest_pub, _ = guest_key_files
        run_cli(
            "grant", "--owner-key", owner_key_file, "--guest-pubkey", guest_pub,
            "--resource", "iot:hue/light1", "--expires-in", "3600",
            "--registry", reg_endpoint, "--now", str(NOW), "--json",
        )
        did = json.loads(capsys.readouterr().out)["did"]
        run_cli("revoke", "--owner-key", owner_key_file, "--did", did, "--registry", reg_endpoint)
        code = run_cli(
            "guest-access", "--key", guest_seed, "--hub", hub_endpoint,
            "--resource", "iot:hue/light1", "--action", "read", "--now", str(NOW),
        )
        assert code == 1
        assert "failed at auth.begin: DocumentRevoked" in capsys.readouterr().err

    def test_denied_resource_exits_one(self, full_stack, owner_key_file, guest_key_files, capsys):
        reg_endpoint, hub_endpoint, gateway = full_stack
        guest_seed, guest_pub, _ = guest_key_files
        run_cli(
            "grant", "--owner-key", owner_key_file, "--guest-pubkey", guest_pub,
            "--resource", "iot:hue/light1", "--expires-in", "3600",
            "--registry", reg_endpoint, "--now", str(NOW),
        )
        capsys.readouterr()
        code = run_cli(
            "guest-access", "--key", guest_seed, "--hub", hub_endpoint,
            "--resource", "iot:hue/light2", "--action", "read", "--now", str(NOW),
        )
        assert code == 1
        assert "failed at access" in capsys.readouterr().err


class TestScenarioCommand:
    def test_bundled_happy_path(self, capsys):
        assert run_cli("scenario", "happy-path") == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_failing_scenario_exits_one(self, tmp_path, capsys):
        spec = json.loads(
            __import__("importlib.resources", fromlist=["files"])
            .files("ghub").joinpath("scenarios", "happy_path.json").read_text()
        )
        spec["steps"][2]["expect"]["value"] = "wrong"
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(spec))
        assert run_cli("scenario", str(path)) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_missing_file_is_usage_error(self):
        assert run_cli("scenario", "/does/not/exist.json") == 2


class TestBenchCommand:
    def test_small_run_emits_all_rows(self, capsys):
        assert run_cli("bench", "--iterations", "5", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        names = [row["name"] for row in payload["rows"]]
        assert names == [
            "sign", "verify", "challenge_round_trip", "registry_submit",
            "registry_resolve", "authorize_simple", "decide_delegated_3",
        ]
        assert payload["reference"]["did_create_block_commit_ms"] == 2500.0


def free_port():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return False


class TestServe:
    def spawn(self, *argv):
        return subprocess.Popen(
            [sys.executable, "-m", "ghub", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )

    def test_registry_serve_restart_reloads_chain(self, tmp_path, owner_key_file, guest_key_files):
        admin = seeded_keypair(9)
        owner = seeded_keypair(7)
        port = free_port()
        config = {
            "listen": f"127.0.0.1:{port}",
            "chain_path": str(tmp_path / "chain.ndjson"),
            "admin_public_key": b64(admin.public_key),
            "members": [{"public_key": b64(owner.public_key), "label": "owner"}],
        }
        config_path = tmp_path / "registry.json"
        config_path.write_text(json.dumps(config))
        endpoint = f"127.0.0.1:{port}"

        proc = self.spawn("serve", "--role", "registry", "--config", str(config_path))
        try:
            client = RegistryClient(endpoint, timeout=1.0)
            assert wait_for(lambda: _endpoint_up(endpoint)), proc.stdout.read()
            _, guest_pub, guest = guest_key_files
            code = run_cli(
                "grant", "--owner-key", owner_key_file, "--guest-pubkey", guest_pub,
                "--resource", "iot:x/y", "--expires-in", "3600",
                "--registry", endpoint, "--now", str(NOW),
            )
            assert code == 0
            assert client.verify_chain()
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0

        # restart on the same chain file: state must survive and verify
        proc = self.spawn("serve", "--role", "registry", "--config", str(config_path))
        try:
            assert wait_for(lambda: _endpoint_up(endpoint))
            client = RegistryClient(endpoint, timeout=1.0)
            _, _, guest = guest_key_files
            from ghub.identity import derive_did

            result = client.resolve(derive_did(guest.public_key), NOW)
            assert result.status.value == "Active"
            assert client.verify_chain()
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0

    def test_bad_config_exits_nonzero(self, tmp_path):
        config_path = tmp_path / "broken.json"
        config_path.write_text('{"listen": "127.0.0.1:1"}')  # missing required fields
        proc = self.spawn("serve", "--role", "registry", "--config", str(config_path))
        assert proc.wait(timeout=10) == 2
        assert "cannot start registry" in proc.stdout.read()

    def test_port_conflict_exits_nonzero(self, tmp_path):
        import socket as socketlib

        blocker = socketlib.socket()
        blocker.bind(("127.0.0.1", 0))
        port = blocker.getsockname()[1]
        blocker.listen(1)
        config_path = tmp_path / "gw.json"
        config_path.write_text(json.dumps({"listen": f"127.0.0.1:{port}", "gateway_id": "g"}))
        try:
            proc = self.spawn("serve", "--role", "gateway", "--config", str(config_path))
            assert proc.wait(timeout=10) == 2
        finally:
            blocker.close()


def _endpoint_up(endpoint):
    host, port = endpoint.rsplit(":", 1)
    try:
        with socket.create_connection((host, int(port)), timeout=0.2):
            return True
    except OSError:
        return False


class TestServeFullStack:
    """Whole deployment driven through the CLI: four services from config
    files, then grant, guest access, and revocation over the wire."""

    def spawn(self, *argv):
        return subprocess.Popen(
            [sys.executable, "-m", "ghub", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )

    def test_full_deployment(self, tmp_path, capsys):
        procs = []
        try:
            # identities
            assert run_cli("keygen", "--out", str(tmp_path / "owner.key"), "--seed", "07" * 32, "--json") == 0
            owner_did = json.loads(capsys.readouterr().out)["did"]
            assert run_cli("keygen", "--out", str(tmp_path / "guest.key"), "--seed", "03" * 32) == 0
            assert run_cli("keygen", "--out", str(tmp_path / "replica.key"), "--seed", "21" * 32) == 0
            capsys.readouterr()
            owner_pub = seeded_keypair(7).public_key
            replica_pub = seeded_keypair(0x21).public_key

            reg_port, pdp_port, gw_port, hub_port = (free_port() for _ in range(4))
            admin = seeded_keypair(9)
            token = "test-owner-token-0001"

            (tmp_path / "registry.json").write_text(json.dumps({
                "listen": f"127.0.0.1:{reg_port}",
                "chain_path": str(tmp_path / "chain.ndjson"),
                "admin_public_key": b64(admin.public_key),
                "members": [{"public_key": b64(owner_pub), "label": "owner"}],
            }))
            (tmp_path / "pdp.json").write_text(json.dumps({
                "listen": f"127.0.0.1:{pdp_port}",
                "replica_id": "r1",
                "key_file": str(tmp_path / "replica.key"),
                "policies": {"door": {"clauses": [
                    {"effect": "allow", "resource_pattern": "iot:hue/*", "ttl_seconds": 120}
                ]}},
            }))
            (tmp_path / "gateway.json").write_text(json.dumps({
                "listen": f"127.0.0.1:{gw_port}",
                "gateway_id": "hue",
                "accounts": {"alice": "pw"},
                "resources": {"iot:hue/light1": "off"},
                "tokens": [{"token": token, "username": "alice", "expires_at": NOW + 10**6}],
            }))
            (tmp_path / "hub.json").write_text(json.dumps({
                "listen": f"127.0.0.1:{hub_port}",
                "hub_id": "hub1",
                "registry_endpoint": f"127.0.0.1:{reg_port}",
                "known_owners": {owner_did: b64(owner_pub)},
                "gateway_links": {"hue": {"endpoint": f"127.0.0.1:{gw_port}", "token": token}},
                "pdp_replica_keys": {"r1": b64(replica_pub)},
            }))

            for role in ("registry", "pdp", "gateway", "hub"):
                procs.append(self.spawn("serve", "--role", role, "--config", str(tmp_path / f"{role}.json")))
            for port in (reg_port, pdp_port, gw_port, hub_port):
                assert wait_for(lambda p=port: _endpoint_up(f"127.0.0.1:{p}")), f"port {port} never came up"

            code = run_cli(
                "grant", "--owner-key", str(tmp_path / "owner.key"),
                "--guest-pubkey", str(tmp_path / "guest.key.pub"),
                "--policy-uri", f"pdp://127.0.0.1:{pdp_port}/door?consensus=majority",
                "--expires-in", "3600", "--registry", f"127.0.0.1:{reg_port}",
                "--now", str(NOW), "--json",
            )
            assert code == 0
            did = json.loads(capsys.readouterr().out)["did"]

            code = run_cli(
                "guest-access", "--key", str(tmp_path / "guest.key"), "--hub", f"127.0.0.1:{hub_port}",
                "--resource", "iot:hue/light1", "--action", "read", "--now", str(NOW), "--json",
            )
            assert code == 0
            reply = json.loads(capsys.readouterr().out)
            assert reply["gateway"]["status"] == "OK"
            assert reply["decision"]["source"] == "delegated-pdp"

            assert run_cli("revoke", "--owner-key", str(tmp_path / "owner.key"), "--did", did,
                           "--registry", f"127.0.0.1:{reg_port}") == 0
            capsys.readouterr()
            code = run_cli(
                "guest-access", "--key", str(tmp_path / "guest.key"), "--hub", f"127.0.0.1:{hub_port}",
                "--resource", "iot:hue/light1", "--action", "read", "--now", str(NOW + 1),
            )
            assert code == 1
            assert "DocumentRevoked" in capsys.readouterr().err
        finally:
            for proc in procs:
                proc.send_signal(signal.SIGTERM)
            for proc in procs:
                proc.wait(timeout=10)


class TestRemoteFailures:
    """A remote call that gets no usable answer exits 1 with one line, not a traceback."""

    def test_guest_access_to_an_endpoint_that_does_not_parse(self, guest_key_files, capsys):
        guest_seed, _, _ = guest_key_files
        code = run_cli(
            "guest-access", "--key", guest_seed, "--hub", "nohost",
            "--resource", "iot:hue/light1", "--action", "read", "--now", str(NOW),
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("failed at auth.begin: endpoint must be host:port") and "Traceback" not in err

    def test_guest_access_to_a_hub_that_answers_without_fields(self, guest_key_files, capsys):
        guest_seed, _, _ = guest_key_files
        with WireServer(Dispatcher({"hub.auth.begin": lambda body: {}})) as hub:
            code = run_cli(
                "guest-access", "--key", guest_seed, "--hub", hub.endpoint,
                "--resource", "iot:hue/light1", "--action", "read", "--now", str(NOW),
            )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"failed at auth.begin: malformed reply from {hub.endpoint}: KeyError")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "access_reply",
        [[], {"granted": True, "decision": []}, {"granted": True, "gateway": "x"}],
        ids=["list", "decision-list", "gateway-string"],
    )
    def test_guest_access_to_a_hub_that_answers_access_with_a_malformed_body(
        self, guest_key_files, capsys, access_reply
    ):
        guest_seed, _, _ = guest_key_files
        challenge = {"nonce": b64(bytes(32)), "issued_at": NOW, "hub_id": "hub"}
        handlers = {
            "hub.auth.begin": lambda body: {"challenge": challenge},
            "hub.auth.complete": lambda body: {"session_id": "s"},
            "hub.access": lambda body: access_reply,
        }
        with WireServer(Dispatcher(handlers)) as hub:
            code = run_cli(
                "guest-access", "--key", guest_seed, "--hub", hub.endpoint,
                "--resource", "iot:hue/light1", "--action", "read", "--now", str(NOW),
            )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"failed at access: malformed reply from {hub.endpoint}: TypeError")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_resolve_from_a_registry_that_drops_the_connection(self, capsys):
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(5)

        def drop_one():
            with listener:
                connection, _ = listener.accept()
                connection.close()

        dropper = threading.Thread(target=drop_one)
        dropper.start()
        host, port = listener.getsockname()[:2]
        code = run_cli("resolve", "--did", ZERO_KEY_DID, "--registry", f"{host}:{port}")
        dropper.join()
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_cli_module_is_a_thin_shell():
    # the CLI must contain no signature or ledger code of its own
    import ast
    import inspect

    import ghub.cli as cli_module

    source = inspect.getsource(cli_module)
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            module = getattr(node, "module", "") or ""
            assert "cryptography" not in module and not any("cryptography" in n for n in names)
            assert "hashlib" not in module and "hashlib" not in names
