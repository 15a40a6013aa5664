import threading
import time
from dataclasses import replace

import pytest

from ghub import identity, pdp
from ghub.client import HubClient
from ghub.gateway import serve_gateway
from ghub.hub import CHALLENGES_PER_GUEST, DecisionCache, GatewayLink, Hub, HubConfig, HubError, serve_hub
from ghub.identity import make_challenge, respond_to_challenge
from ghub.pdp import AccessDecision, parse_policy
from ghub.registry import registry_dispatcher, signed_tx
from ghub.wire import ServiceError, WireServer, unregister_local
from helpers import (
    NOW,
    allow_all_rule,
    build_simple_world,
    make_replicas,
    seeded_keypair,
    unique_local,
)


def authenticate(world, now=NOW):
    challenge = world.hub.begin_auth(world.guest_did, now)
    return world.hub.complete_auth(world.guest_did, respond_to_challenge(challenge, world.guest), now)


def authenticate_with(world, challenge, now=NOW):
    return world.hub.complete_auth(world.guest_did, respond_to_challenge(challenge, world.guest), now)


class TestBeginAuth:
    def test_active_document_yields_challenge(self):
        with build_simple_world() as world:
            challenge = world.hub.begin_auth(world.guest_did, NOW)
            assert challenge.hub_id == "hub1" and len(challenge.nonce) == 32

    def test_unknown_did(self):
        with build_simple_world() as world:
            with pytest.raises(HubError) as err:
                world.hub.begin_auth(seeded_keypair(40).did, NOW)
            assert err.value.code == "UnknownDid"

    def test_revoked_document(self):
        with build_simple_world() as world:
            world.owner.revoke(world.registry, world.guest_did)
            with pytest.raises(HubError) as err:
                world.hub.begin_auth(world.guest_did, NOW)
            assert err.value.code == "DocumentRevoked"

    def test_expired_document(self):
        with build_simple_world(expires_in=100) as world:
            with pytest.raises(HubError) as err:
                world.hub.begin_auth(world.guest_did, NOW + 100)
            assert err.value.code == "DocumentExpired"

    def test_unknown_owner(self):
        with build_simple_world() as world:
            world.hub.config.known_owners.clear()
            with pytest.raises(HubError) as err:
                world.hub.begin_auth(world.guest_did, NOW)
            assert err.value.code == "UnknownOwner"

    def test_wrong_owner_key_is_bad_signature(self):
        with build_simple_world() as world:
            controller = world.owner.did.render()
            world.hub.config.known_owners[controller] = seeded_keypair(41).public_key
            with pytest.raises(HubError) as err:
                world.hub.begin_auth(world.guest_did, NOW)
            assert err.value.code == "BadOwnerSignature"


class TestCompleteAuth:
    def test_honest_guest_gets_session(self):
        with build_simple_world() as world:
            session = authenticate(world)
            assert session.guest_did == world.guest_did
            assert world.hub.session(session.session_id) is session

    def test_no_challenge(self):
        with build_simple_world() as world:
            with pytest.raises(HubError) as err:
                world.hub.complete_auth(world.guest_did, b"x" * 64, NOW)
            assert err.value.code == "NoChallenge"

    def test_wrong_key_rejected(self):
        with build_simple_world() as world:
            challenge = world.hub.begin_auth(world.guest_did, NOW)
            response = respond_to_challenge(challenge, seeded_keypair(40))
            with pytest.raises(HubError) as err:
                world.hub.complete_auth(world.guest_did, response, NOW)
            assert err.value.code == "BadResponse"

    def test_challenge_expiry(self):
        with build_simple_world(challenge_ttl=30) as world:
            challenge = world.hub.begin_auth(world.guest_did, NOW)
            response = respond_to_challenge(challenge, world.guest)
            with pytest.raises(HubError) as err:
                world.hub.complete_auth(world.guest_did, response, NOW + 31)
            assert err.value.code == "ChallengeExpired"

    def test_challenge_single_use(self):
        with build_simple_world() as world:
            challenge = world.hub.begin_auth(world.guest_did, NOW)
            response = respond_to_challenge(challenge, world.guest)
            world.hub.complete_auth(world.guest_did, response, NOW)
            with pytest.raises(HubError) as err:
                world.hub.complete_auth(world.guest_did, response, NOW)
            assert err.value.code == "NoChallenge"

    def test_foreign_challenge_rejected(self):
        with build_simple_world() as world:
            world.hub.begin_auth(world.guest_did, NOW)
            foreign = make_challenge("hub1", NOW)
            response = respond_to_challenge(foreign, world.guest)
            with pytest.raises(HubError) as err:
                world.hub.complete_auth(world.guest_did, response, NOW)
            assert err.value.code == "BadResponse"

    def test_interleaved_handshakes_over_tcp_both_complete(self):
        with build_simple_world() as world:
            server = serve_hub(world.hub)
            try:
                client = HubClient(server.endpoint)
                first = client.begin_auth(world.guest_did, NOW)
                second = client.begin_auth(world.guest_did, NOW)
                session_a = client.complete_auth(world.guest_did, respond_to_challenge(first, world.guest), NOW)
                session_b = client.complete_auth(world.guest_did, respond_to_challenge(second, world.guest), NOW)
                assert session_a != session_b
                # one live session per guest: the second handshake ended the first session
                with pytest.raises(ServiceError) as err:
                    client.access(session_a, "iot:hue/light1", "read", now=NOW)
                assert err.value.code == "UnknownSession"
                assert client.access(session_b, "iot:hue/light1", "read", now=NOW)["granted"] is True
            finally:
                server.stop()

    def test_a_bad_response_uses_up_no_challenge(self):
        with build_simple_world() as world:
            challenge = world.hub.begin_auth(world.guest_did, NOW)
            with pytest.raises(HubError) as err:
                world.hub.complete_auth(world.guest_did, respond_to_challenge(challenge, seeded_keypair(40)), NOW)
            assert err.value.code == "BadResponse"
            assert authenticate_with(world, challenge).guest_did == world.guest_did

    def test_outstanding_challenges_per_guest_are_capped(self):
        with build_simple_world() as world:
            challenges = [world.hub.begin_auth(world.guest_did, NOW) for _ in range(CHALLENGES_PER_GUEST + 2)]
            assert len(world.hub._challenges[world.guest_did]) == CHALLENGES_PER_GUEST
            for dropped in challenges[:2]:  # the oldest were dropped
                with pytest.raises(HubError) as err:
                    authenticate_with(world, dropped)
                assert err.value.code == "BadResponse"
            for kept in reversed(challenges[2:]):
                authenticate_with(world, kept)
            assert world.guest_did not in world.hub._challenges

    def test_only_stale_challenges_is_challenge_expired(self):
        with build_simple_world(challenge_ttl=30) as world:
            stale = world.hub.begin_auth(world.guest_did, NOW)
            fresh = world.hub.begin_auth(world.guest_did, NOW + 20)
            with pytest.raises(HubError) as err:
                authenticate_with(world, stale, NOW + 40)
            assert err.value.code == "BadResponse"  # the fresh one is still outstanding
            assert authenticate_with(world, fresh, NOW + 40).guest_did == world.guest_did
            world.hub.begin_auth(world.guest_did, NOW)
            with pytest.raises(HubError) as err:
                authenticate_with(world, stale, NOW + 40)
            assert err.value.code == "ChallengeExpired"
            assert world.guest_did not in world.hub._challenges


class CountingRegistry:
    """Wraps a registry to count resolve calls (cache behavior probe)."""

    def __init__(self, inner):
        self.inner = inner
        self.resolves = 0

    def resolve(self, did, now):
        self.resolves += 1
        return self.inner.resolve(did, now)


class TestAuthorizeSimple:
    def test_listed_resource_granted_with_clamped_ttl(self):
        with build_simple_world(expires_in=40, default_ttl=60) as world:
            session = authenticate(world)
            decision = world.hub.authorize(session, "iot:hue/light1", "read", None, NOW)
            assert decision.granted
            assert decision.valid_until == NOW + 40  # document expiry wins over default_ttl
            assert decision.source == "simple-document"

    def test_unlisted_resource_denied(self):
        with build_simple_world() as world:
            session = authenticate(world)
            decision = world.hub.authorize(session, "iot:hue/light9", "read", None, NOW)
            assert not decision.granted

    def test_cache_hit_skips_registry(self):
        with build_simple_world() as world:
            counting = CountingRegistry(world.registry)
            world.hub._registry = counting
            session = authenticate(world)
            world.hub.authorize(session, "iot:hue/light1", "read", None, NOW)
            misses = counting.resolves
            world.hub.authorize(session, "iot:hue/light1", "read", None, NOW + 1)
            assert counting.resolves == misses  # served from cache

    def test_cache_key_includes_action(self):
        with build_simple_world() as world:
            counting = CountingRegistry(world.registry)
            world.hub._registry = counting
            session = authenticate(world)
            world.hub.authorize(session, "iot:hue/light1", "read", None, NOW)
            before = counting.resolves
            world.hub.authorize(session, "iot:hue/light1", "write", None, NOW)
            assert counting.resolves == before + 1  # different action, fresh decision

    def test_session_expires_with_document(self):
        with build_simple_world(expires_in=100) as world:
            session = authenticate(world)
            with pytest.raises(HubError) as err:
                world.hub.authorize(session, "iot:hue/light1", "read", None, NOW + 100)
            assert err.value.code == "SessionExpired"

    def test_revocation_respected_after_cache_expiry(self):
        with build_simple_world(default_ttl=60) as world:
            session = authenticate(world)
            first = world.hub.authorize(session, "iot:hue/light1", "read", None, NOW)
            assert first.granted and first.valid_until == NOW + 60
            world.owner.revoke(world.registry, world.guest_did)
            # stale grant still served strictly before valid_until
            assert world.hub.authorize(session, "iot:hue/light1", "read", None, NOW + 59).granted
            # at valid_until the cache entry dies and the re-resolve sees the revocation
            decision = world.hub.authorize(session, "iot:hue/light1", "read", None, NOW + 60)
            assert not decision.granted
            assert "DocumentRevoked" in decision.detail

    def test_updated_document_picked_up_on_miss(self):
        from ghub.identity import build_and_sign_guest_document
        from ghub.registry import KIND_UPDATE

        with build_simple_world() as world:
            session = authenticate(world)
            assert not world.hub.authorize(session, "iot:hue/light2", "read", None, NOW).granted
            sdoc = build_and_sign_guest_document(
                world.owner.keypair, world.guest.public_key,
                ["iot:hue/light1", "iot:hue/light2"], None, NOW + 3600, NOW,
            )
            world.registry.submit(
                signed_tx(KIND_UPDATE, world.guest_did, sdoc, world.owner.keypair, "alice", world.owner.bump_seq())
            )
            assert world.hub.authorize(session, "iot:hue/light2", "read", None, NOW + 1).granted


class TestAuthorizeDelegated:
    def build_delegated(self, rule, now=NOW, expires_in=3600, consensus="majority"):
        replicas, names, endpoints, keys = make_replicas(3, rule)
        uri = f"pdp://{','.join(endpoints)}/{rule.policy_id}?consensus={consensus}"
        world = build_simple_world(
            now=now, resources=(), expires_in=expires_in, policy_uri=uri, replica_keys=keys
        )
        world.local_names.extend(names)
        return world, replicas

    def test_grant_with_policy_ttl(self):
        world, _ = self.build_delegated(allow_all_rule("p", ttl=300))
        with world:
            session = authenticate(world)
            decision = world.hub.authorize(session, "iot:hue/light1", "read", None, NOW)
            assert decision.granted and decision.valid_until == NOW + 300
            assert decision.source == "delegated-pdp"

    def test_valid_until_clamped_to_document_expiry(self):
        world, _ = self.build_delegated(allow_all_rule("p", ttl=9999), expires_in=120)
        with world:
            session = authenticate(world)
            decision = world.hub.authorize(session, "iot:hue/light1", "read", None, NOW)
            assert decision.valid_until == NOW + 120

    def test_cached_grant_makes_no_pdp_calls(self):
        world, replicas = self.build_delegated(allow_all_rule("p", ttl=300))
        with world:
            calls = {"n": 0}
            original = replicas[0].evaluate_policy

            def counted(policy_id, req):
                calls["n"] += 1
                return original(policy_id, req)

            replicas[0].evaluate_policy = counted
            session = authenticate(world)
            world.hub.authorize(session, "iot:hue/light1", "read", None, NOW)
            first_calls = calls["n"]
            assert first_calls == 1
            decision = world.hub.authorize(session, "iot:hue/light1", "read", None, NOW + 100)
            assert decision.granted
            assert calls["n"] == first_calls  # zero new PDP traffic

    def test_pep_is_oblivious_to_policy_content(self):
        # swapping the rule set on the replicas flips hub decisions with zero hub changes
        deny_rule = parse_policy({"policy_id": "p", "clauses": [{"effect": "deny"}]})
        world, replicas = self.build_delegated(allow_all_rule("p", ttl=300))
        with world:
            session = authenticate(world)
            assert world.hub.authorize(session, "iot:hue/light1", "read", None, NOW).granted
            for replica in replicas:
                replica.policies["p"] = deny_rule
            # different action avoids the cache; same hub, same config
            assert not world.hub.authorize(session, "iot:hue/light1", "write", None, NOW).granted

    def test_denials_are_not_cached(self):
        deny_rule = parse_policy({"policy_id": "p", "clauses": [{"effect": "deny"}]})
        world, replicas = self.build_delegated(deny_rule)
        with world:
            calls = {"n": 0}
            original = replicas[0].evaluate_policy

            def counted(policy_id, req):
                calls["n"] += 1
                return original(policy_id, req)

            replicas[0].evaluate_policy = counted
            session = authenticate(world)
            assert not world.hub.authorize(session, "iot:hue/light1", "read", None, NOW).granted
            assert not world.hub.authorize(session, "iot:hue/light1", "read", None, NOW).granted
            assert calls["n"] == 2  # each denial re-asks the PDPs

    def test_single_flight_on_concurrent_misses(self):
        rule = allow_all_rule("p", ttl=300)
        world, replicas = self.build_delegated(rule)
        with world:
            calls = {"n": 0}
            original = replicas[0].evaluate_policy

            def slow_counted(policy_id, req):
                calls["n"] += 1
                time.sleep(0.2)
                return original(policy_id, req)

            replicas[0].evaluate_policy = slow_counted
            session = authenticate(world)
            results = []

            def worker():
                results.append(world.hub.authorize(session, "iot:hue/light1", "read", None, NOW))

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert all(r.granted for r in results)
            assert calls["n"] == 1  # one fan-out served all four

    def test_a_resident_guests_miss_verifies_only_the_votes(self, monkeypatch):
        # the registry answers over local:, so every resolve parses a new copy of the document
        world, replicas = self.build_delegated(allow_all_rule("p", ttl=300))
        off_key = replicas[-1].replica_id
        name, endpoint = unique_local(registry_dispatcher(world.registry), "registry")
        config = world.hub.config
        hub = Hub(replace(config, registry_endpoint=endpoint,
                          pdp_replica_keys={**config.pdp_replica_keys, off_key: seeded_keypair(40).public_key}))
        with world:
            try:
                challenge = hub.begin_auth(world.guest_did, NOW)
                session = hub.complete_auth(world.guest_did, respond_to_challenge(challenge, world.guest), NOW)
                assert hub.authorize(session, "iot:hue/light1", "read", None, NOW).granted
                verifies = {"owner": 0, "verdict": 0}

                def counting(module, kind):
                    verify = module.verify_signature

                    def counted(*args):
                        verifies[kind] += 1
                        return verify(*args)

                    monkeypatch.setattr(module, "verify_signature", counted)

                counting(identity, "owner")
                counting(pdp, "verdict")
                decision = hub.authorize(session, "iot:hue/light1", "write", None, NOW)
                assert decision.granted
                assert f"{off_key}:bad-signature" in decision.detail
                assert decision.detail.startswith("majority: 2/3 grant")
                assert verifies == {"owner": 0, "verdict": 3}
            finally:
                hub.close()
                unregister_local(name)


class TestAccess:
    def test_granted_invokes_gateway_with_owner_token(self):
        with build_simple_world() as world:
            session = authenticate(world)
            body, decision = world.hub.access(session, "iot:hue/light1", "read", None, NOW)
            assert body["status"] == "OK"
            assert not world.gateway.assert_never_saw(world.token)
            assert world.gateway.assert_never_saw(world.guest_did.render())

    def test_denied_makes_no_gateway_call(self):
        with build_simple_world() as world:
            session = authenticate(world)
            with pytest.raises(HubError) as err:
                world.hub.access(session, "iot:hue/light9", "read", None, NOW)
            assert err.value.code == "Denied"
            assert world.gateway.call_log == []

    def test_unroutable_resource_denied(self):
        with build_simple_world(resources=("iot:hue/light1", "iot:nowhere/x")) as world:
            session = authenticate(world)
            with pytest.raises(HubError) as err:
                world.hub.access(session, "iot:nowhere/x", "read", None, NOW)
            assert err.value.code == "Denied" and "route" in err.value.message
            assert world.gateway.call_log == []

    def test_gateway_token_rejection_surfaces(self):
        with build_simple_world() as world:
            world.hub.config.gateway_links["hue"] = GatewayLink(
                world.hub.config.gateway_links["hue"].endpoint, "forged-token"
            )
            session = authenticate(world)
            with pytest.raises(HubError) as err:
                world.hub.access(session, "iot:hue/light1", "read", None, NOW)
            assert err.value.code == "GatewayRejectedToken"

    def test_unreachable_gateway(self):
        with build_simple_world() as world:
            world.hub.config.gateway_links["hue"] = GatewayLink("local:not-there", world.token)
            session = authenticate(world)
            with pytest.raises(HubError) as err:
                world.hub.access(session, "iot:hue/light1", "read", None, NOW)
            assert err.value.code == "GatewayUnreachable"

    def test_unknown_session(self):
        with build_simple_world() as world:
            with pytest.raises(HubError) as err:
                world.hub.access("bogus-session", "iot:hue/light1", "read", None, NOW)
            assert err.value.code == "UnknownSession"

    @pytest.mark.parametrize("policy_uri", ["https://example/p", "pdp://a,b/p?consensus=threshold-9", "pdp:///p"])
    def test_unparsable_policy_endpoint_is_denied_over_tcp(self, policy_uri):
        with build_simple_world(resources=(), policy_uri=policy_uri) as world:
            server = serve_hub(world.hub)
            try:
                client = HubClient(server.endpoint)
                session = client.authenticate(world.guest, NOW)
                with pytest.raises(ServiceError) as err:
                    client.access(session, "iot:hue/x", "read", now=NOW)
                assert err.value.code == "Denied" and err.value.message.startswith("bad policy endpoint")
                assert world.gateway.call_log == []
            finally:
                server.stop()


class TestDecisionCache:
    def decision(self, valid_until):
        return AccessDecision(True, valid_until, "simple-document", "")

    def test_never_served_at_or_past_valid_until(self):
        cache = DecisionCache(4)
        cache.put(("d", "r", "a"), self.decision(100), now=50)
        assert cache.get(("d", "r", "a"), 99) is not None
        assert cache.get(("d", "r", "a"), 100) is None

    def test_purge_counts(self):
        cache = DecisionCache(8)
        cache.put(("a",), self.decision(100), now=0)
        cache.put(("b",), self.decision(200), now=0)
        assert cache.purge_expired(150) == 1
        assert len(cache) == 1
        assert cache.purge_expired(150) == 0

    def test_purge_empty(self):
        assert DecisionCache(4).purge_expired(10) == 0

    def test_purge_all(self):
        cache = DecisionCache(8)
        cache.put(("a",), self.decision(100), now=0)
        cache.put(("b",), self.decision(110), now=0)
        assert cache.purge_expired(500) == 2
        assert len(cache) == 0

    def test_lru_eviction_at_capacity(self):
        cache = DecisionCache(2)
        cache.put(("a",), self.decision(1000), now=0)
        cache.put(("b",), self.decision(1000), now=0)
        cache.get(("a",), 1)  # touch a so b is the victim
        cache.put(("c",), self.decision(1000), now=0)
        assert cache.get(("b",), 1) is None
        assert cache.get(("a",), 1) is not None

    def test_stale_put_is_dropped(self):
        cache = DecisionCache(2)
        cache.put(("a",), self.decision(10), now=20)
        assert len(cache) == 0


def test_hub_purge_expired():
    with build_simple_world(default_ttl=60) as world:
        session = authenticate(world)
        world.hub.authorize(session, "iot:hue/light1", "read", None, NOW)
        assert world.hub.purge_expired(NOW + 61) == 1
        assert world.hub.purge_expired(NOW + 61) == 0


def test_cache_capacity_validation():
    with pytest.raises(ValueError):
        HubConfig(hub_id="h", registry_endpoint=None, known_owners={}, cache_capacity=0)


class TestSessions:
    def test_new_handshake_ends_the_previous_session(self):
        with build_simple_world() as world:
            first = authenticate(world)
            second = authenticate(world)
            with pytest.raises(HubError) as err:
                world.hub.access(first.session_id, "iot:hue/light1", "read", None, NOW)
            assert err.value.code == "UnknownSession"
            assert world.hub.session(first.session_id) is None
            body, _ = world.hub.access(second.session_id, "iot:hue/light1", "read", None, NOW)
            assert body["status"] == "OK"

    def test_ended_session_object_is_refused_in_process(self):
        with build_simple_world() as world:
            first = authenticate(world)
            authenticate(world)
            for call in (world.hub.authorize, world.hub.access):
                with pytest.raises(HubError) as err:
                    call(first, "iot:hue/light1", "read", None, NOW)
                assert err.value.code == "UnknownSession"
            assert world.gateway.call_log == []

    def test_revoked_guest_keeps_its_session_and_is_denied(self):
        with build_simple_world() as world:
            session = authenticate(world)
            world.owner.revoke(world.registry, world.guest_did)
            with pytest.raises(HubError) as err:
                world.hub.access(session.session_id, "iot:hue/light1", "read", None, NOW)
            assert err.value.code == "Denied" and "DocumentRevoked" in err.value.message
            assert world.gateway.call_log == []


def test_hub_over_tcp_reuses_its_backend_connections():
    with build_simple_world() as world:
        registry_server = WireServer(registry_dispatcher(world.registry)).start()
        gateway_server = serve_gateway(world.gateway)
        hub = Hub(
            HubConfig(
                hub_id="hub-tcp",
                registry_endpoint=registry_server.endpoint,
                known_owners=world.hub.config.known_owners,
                gateway_links={"hue": GatewayLink(gateway_server.endpoint, world.token)},
            )
        )
        try:
            challenge = hub.begin_auth(world.guest_did, NOW)
            session = hub.complete_auth(world.guest_did, respond_to_challenge(challenge, world.guest), NOW)
            for n in range(3):
                body, _ = hub.access(session.session_id, "iot:hue/light1", "write", f"v{n}", NOW)
                assert body["status"] == "OK"
            assert world.gateway.resource_value("iot:hue/light1") == "v2"
            # one kept-alive connection to each back end served every call
            assert len(hub._pool._idle) == 2
        finally:
            hub.close()
            started = time.monotonic()
            registry_server.stop()
            gateway_server.stop()
            assert time.monotonic() - started < 3
