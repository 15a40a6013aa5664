import gc
import json
import warnings

import pytest

from ghub import wire
from ghub.client import GuestAgent, HubClient, Owner
from ghub.hub import Hub, serve_hub
from ghub.registry import Registry, RegistryClient, MemberId, registry_dispatcher, ResolutionStatus
from ghub.bench import run_bench
from ghub.scenario import BUNDLED, _subset_matches, load_scenario, run_scenario
from ghub.wire import WireServer
from helpers import NOW, build_simple_world, seeded_keypair


class TestSubsetMatching:
    def test_flat_subset(self):
        assert _subset_matches({"a": 1}, {"a": 1, "b": 2})
        assert not _subset_matches({"a": 2}, {"a": 1})
        assert not _subset_matches({"c": 1}, {"a": 1})

    def test_nested(self):
        assert _subset_matches({"a": {"b": 1}}, {"a": {"b": 1, "c": 2}})
        assert not _subset_matches({"a": {"b": 2}}, {"a": {"b": 1}})

    def test_lists_compare_elementwise(self):
        assert _subset_matches({"xs": [1, 2]}, {"xs": [1, 2]})
        assert not _subset_matches({"xs": [1]}, {"xs": [1, 2]})


class TestGuestAgent:
    def test_per_owner_keys_are_independent(self):
        agent = GuestAgent(name="bob", deterministic=True)
        a = agent.keypair_for("alice")
        b = agent.keypair_for("carol")
        assert a.public_key != b.public_key
        assert agent.did_for("alice") != agent.did_for("carol")

    def test_keys_are_stable_per_relationship(self):
        agent = GuestAgent(name="bob", deterministic=True)
        assert agent.keypair_for("alice") == agent.keypair_for("alice")

    def test_deterministic_across_agents_with_same_name(self):
        first = GuestAgent(name="bob", deterministic=True).keypair_for("alice")
        second = GuestAgent(name="bob", deterministic=True).keypair_for("alice")
        assert first == second


class TestOwnerClientOverWire:
    def test_grant_and_revoke_through_registry_service(self):
        owner = Owner(keypair=seeded_keypair(7), label="alice")
        admin = seeded_keypair(9)
        registry = Registry.create(admin.public_key, [MemberId(owner.keypair.public_key, "alice")])
        with WireServer(registry_dispatcher(registry)) as server:
            client = RegistryClient(server.endpoint)
            guest = seeded_keypair(3)
            did, height = owner.grant(client, guest.public_key, ["iot:a/b"], None, NOW + 60, NOW)
            assert client.resolve(did, NOW).status is ResolutionStatus.ACTIVE
            assert client.verify_chain()
            owner.revoke(client, did)
            assert client.resolve(did, NOW).status is ResolutionStatus.REVOKED
            history = client.history(did)
            assert [tx.kind for _, tx in history] == ["create", "revoke"]
            assert height == history[0][0]


class TestHubClientOverWire:
    def test_full_two_step_access(self):
        with build_simple_world() as world:
            server = serve_hub(world.hub)
            try:
                client = HubClient(server.endpoint)
                session_id = client.authenticate(world.guest, now=NOW)
                reply = client.access(session_id, "iot:hue/light1", "read", now=NOW)
                assert reply["granted"] is True
                assert reply["gateway"]["status"] == "OK"
                assert reply["decision"]["source"] == "simple-document"
            finally:
                server.stop()


class TestBundledScenarios:
    def test_happy_path_passes(self):
        report = run_scenario(load_scenario("happy-path"))
        assert report.passed, report.message

    def test_revocation_passes(self):
        report = run_scenario(load_scenario("revocation"))
        assert report.passed, report.message

    def test_unknown_bundled_name(self):
        with pytest.raises(FileNotFoundError):
            load_scenario("no-such-scenario")


class TestScenarioRunner:
    def base_spec(self):
        return json.loads(json.dumps(load_scenario("happy-path")))  # deep copy

    def test_wrong_expect_fails_at_that_step(self):
        spec = self.base_spec()
        spec["steps"][2]["expect"]["value"] = "definitely-wrong"
        report = run_scenario(spec)
        assert not report.passed
        assert report.failed_step == 2
        assert "definitely-wrong" in report.message

    def test_execution_stops_at_first_failure(self):
        spec = self.base_spec()
        spec["steps"][1]["expect"] = {"status": "error"}
        report = run_scenario(spec)
        assert report.failed_step == 1
        assert len(report.steps) == 2

    def test_error_outcomes_are_expectable(self):
        spec = self.base_spec()
        spec["steps"].insert(
            1,
            {
                "do": "access",
                "guest": "bob",
                "hub": "hub1",
                "resource": "iot:hue/light1",
                "action": "read",
                "expect": {"status": "error", "error": "NoSession"},
            },
        )
        report = run_scenario(spec)
        assert report.passed, report.message

    def test_advance_clock_expires_documents(self):
        spec = self.base_spec()
        spec["steps"].extend(
            [
                {"do": "advance_clock", "by": 7200},
                {
                    "do": "authenticate",
                    "guest": "bob",
                    "hub": "hub1",
                    "expect": {"status": "error", "error": "DocumentExpired"},
                },
            ]
        )
        report = run_scenario(spec)
        assert report.passed, report.message

    def test_unknown_step_kind_raises(self):
        spec = self.base_spec()
        spec["steps"].append({"do": "teleport"})
        with pytest.raises(Exception):
            run_scenario(spec)

    def test_world_cleans_up_local_endpoints(self):
        from ghub.wire import _local_endpoints

        before = set(_local_endpoints)
        run_scenario(self.base_spec())
        assert set(_local_endpoints) == before

    def test_delegated_scenario_with_replica_placeholders(self):
        spec = {
            "clock": 5_000_000,
            "owners": [{"name": "olga"}],
            "guests": [{"name": "gus"}],
            "gateways": [{"id": "cam", "accounts": {"olga": "pw"}, "resources": {"iot:cam/1": "idle"}}],
            "policies": {
                "cam-policy": {
                    "clauses": [
                        {"effect": "deny", "context_predicates": [["hour_of_day", ">", 17]]},
                        {"effect": "allow", "resource_pattern": "iot:cam/*", "ttl_seconds": 120},
                    ]
                }
            },
            "pdp_replicas": [{"id": "r1"}, {"id": "r2"}, {"id": "r3"}],
            "hubs": [
                {"id": "hub1", "owner": "olga", "links": [{"gateway": "cam", "username": "olga", "password": "pw"}]}
            ],
            "steps": [
                {
                    "do": "grant",
                    "owner": "olga",
                    "guest": "gus",
                    "policy_uri": "pdp://r1,r2,r3/cam-policy?consensus=majority",
                    "expires_in": 3600,
                },
                {"do": "authenticate", "guest": "gus", "hub": "hub1"},
                {
                    "do": "access",
                    "guest": "gus",
                    "hub": "hub1",
                    "resource": "iot:cam/1",
                    "action": "read",
                    "context": {"hour_of_day": 10},
                    "expect": {"status": "ok", "granted": True, "source": "delegated-pdp"},
                },
                {
                    "do": "access",
                    "guest": "gus",
                    "hub": "hub1",
                    "resource": "iot:cam/1",
                    "action": "actuate",
                    "context": {"hour_of_day": 22},
                    "expect": {"status": "error", "error": "Denied"},
                },
            ],
        }
        report = run_scenario(spec)
        assert report.passed, report.message

    def test_report_json_shape(self):
        report = run_scenario(self.base_spec())
        payload = report.to_json()
        assert payload["passed"] is True
        assert all("outcome" in s for s in payload["steps"])


def test_in_process_worlds_close_what_they_build():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for name in sorted(BUNDLED):
            assert run_scenario(load_scenario(name)).passed
        run_bench(iterations=5)
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_a_world_that_fails_to_build_closes_what_it_built():
    spec = {
        "owners": [{"name": "olga"}],
        "gateways": [{"id": "cam", "accounts": {"olga": "pw"}, "resources": {"iot:cam/1": "idle"}}],
        "pdp_replicas": [{"id": "r1"}],
        "hubs": [
            {"id": "hub1", "owner": "olga", "links": [{"gateway": "cam", "username": "olga", "password": "pw"}]},
            {"id": "hub2", "owner": "olga", "links": [{"gateway": "nowhere", "username": "olga", "password": "pw"}]},
        ],
    }
    before = dict(wire._local_endpoints)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(KeyError, match="nowhere"):
            run_scenario(spec)
        gc.collect()
    assert wire._local_endpoints == before
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_bench_run_that_fails_part_way_leaves_nothing_behind(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("refused")

    before = dict(wire._local_endpoints)
    with monkeypatch.context() as patch:
        patch.setattr(Hub, "complete_auth", refuse)
        with pytest.raises(RuntimeError, match="refused"):
            run_bench(iterations=3)
    assert wire._local_endpoints == before
    assert len(run_bench(iterations=3)["rows"]) == 7
