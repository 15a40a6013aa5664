import contextlib
import random
import socket
import sys
import threading
import time
from concurrent.futures import wait

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghub.pdp import (
    ConsensusRule,
    PdpReplica,
    PolicyError,
    PolicyRequest,
    PolicyVerdict,
    ReplicaFailure,
    aggregate,
    decide,
    evaluate,
    make_verdict,
    parse_policy,
    serve_replica,
    verify_verdict,
)
from ghub.wire import (
    CALL_FAILURES,
    MAX_FRAME,
    WORKERS,
    ConnectionPool,
    Dispatcher,
    Envelope,
    ServiceError,
    WireServer,
    _Fanout,
    decode_frame,
    encode_frame,
    failure_reason,
    request,
    unregister_local,
)
from helpers import (
    NOW,
    LyingReplica,
    allow_all_rule,
    make_replicas,
    naive_evaluate,
    seeded_keypair,
    unique_local,
)


def req(resource="iot:door/main", action="open", context=None, now=NOW, did="did:ghub:guest1"):
    return PolicyRequest(guest_did=did, resource=resource, action=action, context=context or {}, now=now)


class TestParsePolicy:
    def test_single_allow_clause(self):
        rule = parse_policy(
            {
                "policy_id": "door",
                "clauses": [
                    {"effect": "allow", "did_pattern": "*", "resource_pattern": "iot:door/*", "ttl_seconds": 300}
                ],
            }
        )
        assert rule.policy_id == "door"
        assert rule.clauses[0].ttl_seconds == 300

    def test_unknown_op_names_clause_index(self):
        with pytest.raises(PolicyError, match="clause 0"):
            parse_policy(
                {"policy_id": "p", "clauses": [{"effect": "allow", "context_predicates": [["k", "~=", 1]]}]}
            )

    def test_empty_clause_list_is_deny_all(self):
        rule = parse_policy({"policy_id": "p", "clauses": []})
        assert evaluate(rule, req()) == (False, None)

    def test_negative_ttl_rejected(self):
        with pytest.raises(PolicyError, match="clause 0"):
            parse_policy({"policy_id": "p", "clauses": [{"effect": "allow", "ttl_seconds": -1}]})

    def test_bad_effect_rejected(self):
        with pytest.raises(PolicyError, match="clause 1"):
            parse_policy(
                {"policy_id": "p", "clauses": [{"effect": "allow"}, {"effect": "permit"}]}
            )

    def test_bad_predicate_key(self):
        with pytest.raises(PolicyError, match="clause 0"):
            parse_policy(
                {"policy_id": "p", "clauses": [{"effect": "deny", "context_predicates": [["Bad-Key", "==", 1]]}]}
            )

    def test_parses_from_text(self):
        rule = parse_policy('{"policy_id":"p","clauses":[]}')
        assert rule.policy_id == "p"


class TestEvaluate:
    def test_allow_with_ttl(self):
        rule = parse_policy(
            {"policy_id": "p", "clauses": [{"effect": "allow", "resource_pattern": "iot:door/*", "ttl_seconds": 300}]}
        )
        assert evaluate(rule, req(now=1000)) == (True, 1300)

    def test_deny_listed_first_wins(self):
        rule = parse_policy(
            {
                "policy_id": "p",
                "clauses": [
                    {"effect": "deny", "action_pattern": "open"},
                    {"effect": "allow", "ttl_seconds": 300},
                ],
            }
        )
        assert evaluate(rule, req(action="open")) == (False, None)
        granted, until = evaluate(rule, req(action="close"))
        assert granted and until == NOW + 300

    def test_context_range_predicate(self):
        rule = parse_policy(
            {
                "policy_id": "p",
                "clauses": [
                    {
                        "effect": "allow",
                        "ttl_seconds": 60,
                        "context_predicates": [["hour_of_day", ">=", 9], ["hour_of_day", "<=", 17]],
                    }
                ],
            }
        )
        assert evaluate(rule, req(context={"hour_of_day": 12}))[0]
        assert not evaluate(rule, req(context={"hour_of_day": 20}))[0]
        assert not evaluate(rule, req(context={}))[0]  # missing key fails the clause

    def test_in_predicate(self):
        rule = parse_policy(
            {
                "policy_id": "p",
                "clauses": [
                    {"effect": "allow", "ttl_seconds": 5, "context_predicates": [["location", "in", ["home", "garage"]]]}
                ],
            }
        )
        assert evaluate(rule, req(context={"location": "home"}))[0]
        assert not evaluate(rule, req(context={"location": "street"}))[0]

    def test_allow_without_ttl_has_no_valid_until(self):
        rule = allow_all_rule(ttl=None)
        assert evaluate(rule, req()) == (True, None)

    def test_type_confusion_fails_closed(self):
        rule = parse_policy(
            {"policy_id": "p", "clauses": [{"effect": "allow", "ttl_seconds": 5, "context_predicates": [["n", "<", 5]]}]}
        )
        assert not evaluate(rule, req(context={"n": "4"}))[0]
        assert not evaluate(rule, req(context={"n": True}))[0]


effects = st.sampled_from(["allow", "deny"])
patterns = st.sampled_from(["*", "iot:door/*", "iot:door/main", "iot:cam/1", "open", "did:ghub:guest1"])
pred_ops = st.sampled_from(["==", "!=", "<", "<=", ">", ">=", "in"])
pred_values = st.one_of(st.integers(0, 23), st.sampled_from(["home", "street"]), st.booleans())
predicates = st.tuples(st.sampled_from(["hour_of_day", "location", "vip"]), pred_ops, pred_values).map(
    lambda t: [t[0], t[1], [t[2], "home", 9] if t[1] == "in" else t[2]]
)
clauses = st.builds(
    lambda e, d, r, a, p, t: {
        "effect": e,
        "did_pattern": d,
        "resource_pattern": r,
        "action_pattern": a,
        "context_predicates": p,
        **({"ttl_seconds": t} if t is not None else {}),
    },
    effects,
    patterns,
    patterns,
    patterns,
    st.lists(predicates, max_size=3),
    st.one_of(st.none(), st.integers(1, 600)),
)
contexts = st.fixed_dictionaries(
    {},
    optional={
        "hour_of_day": st.integers(0, 23),
        "location": st.sampled_from(["home", "street"]),
        "vip": st.booleans(),
    },
)


@given(
    rule_clauses=st.lists(clauses, max_size=5),
    resource=st.sampled_from(["iot:door/main", "iot:door/side", "iot:cam/1"]),
    action=st.sampled_from(["open", "close"]),
    context=contexts,
)
@settings(max_examples=300, deadline=None)
def test_evaluate_matches_naive_oracle(rule_clauses, resource, action, context):
    rule = parse_policy({"policy_id": "p", "clauses": rule_clauses})
    request_obj = req(resource=resource, action=action, context=context)
    assert evaluate(rule, request_obj) == naive_evaluate(rule, request_obj)


class TestVerdicts:
    def test_sign_verify_round_trip(self):
        key = seeded_keypair(21)
        verdict = make_verdict(req(), True, NOW + 60, "r1", key)
        assert verify_verdict(verdict, req(), key.public_key)

    def test_tampered_grant_flag_fails(self):
        key = seeded_keypair(21)
        verdict = make_verdict(req(), False, None, "r1", key)
        flipped = PolicyVerdict(granted=True, valid_until=None, replica_id="r1", signature=verdict.signature)
        assert not verify_verdict(flipped, req(), key.public_key)

    def test_other_request_fails(self):
        key = seeded_keypair(21)
        verdict = make_verdict(req(action="open"), True, NOW + 60, "r1", key)
        assert not verify_verdict(verdict, req(action="close"), key.public_key)

    def test_json_round_trip(self):
        key = seeded_keypair(21)
        for verdict in (make_verdict(req(), True, NOW + 60, "r1", key), make_verdict(req(), False, None, "r1", key)):
            assert PolicyVerdict.from_json(verdict.to_json()) == verdict


class TestReplicaService:
    def test_wire_equals_local_evaluation(self):
        rule = allow_all_rule("p", ttl=120)
        replica = PdpReplica("r1", seeded_keypair(21), {"p": rule})
        name, endpoint = unique_local(replica.dispatcher(), "pdp")
        try:
            over_wire = PolicyVerdict.from_json(
                request(endpoint, "pdp.evaluate", {"policy_id": "p", "request": req().to_json()})
            )
            local = replica.evaluate_policy("p", req())
            assert over_wire == local  # deterministic, including the signature
        finally:
            unregister_local(name)

    def test_unknown_policy_id(self):
        replica = PdpReplica("r1", seeded_keypair(21), {})
        name, endpoint = unique_local(replica.dispatcher(), "pdp")
        try:
            with pytest.raises(ServiceError) as err:
                request(endpoint, "pdp.evaluate", {"policy_id": "ghost", "request": req().to_json()})
            assert err.value.code == "UnknownPolicy"
        finally:
            unregister_local(name)

    def test_verdict_signature_verifies_under_replica_key(self):
        replica = PdpReplica("r1", seeded_keypair(21), {"p": allow_all_rule("p")})
        verdict = replica.evaluate_policy("p", req())
        assert verify_verdict(verdict, req(), replica.key.public_key)

    def test_tcp_service(self):
        replica = PdpReplica("r1", seeded_keypair(21), {"p": allow_all_rule("p", ttl=60)})
        server = serve_replica(replica)
        try:
            body = request(server.endpoint, "pdp.evaluate", {"policy_id": "p", "request": req().to_json()})
            assert body["granted"] is True
        finally:
            server.stop()


def trusted_verdict(granted, valid_until=None, replica="r"):
    # aggregate() without replica_keys skips signature checks
    return PolicyVerdict(granted=granted, valid_until=valid_until, replica_id=replica, signature=b"")


class TestAggregate:
    def test_strict_majority(self):
        decision = aggregate(
            [trusted_verdict(True), trusted_verdict(True), trusted_verdict(False)],
            ConsensusRule.majority(), 3, now=NOW,
        )
        assert decision.granted

    def test_tie_fails_closed(self):
        decision = aggregate(
            [trusted_verdict(True), trusted_verdict(False)], ConsensusRule.majority(), 2, now=NOW
        )
        assert not decision.granted

    def test_minimum_valid_until_wins(self):
        decision = aggregate(
            [trusted_verdict(True, 1300), trusted_verdict(True, 1200), trusted_verdict(False)],
            ConsensusRule.majority(), 3, now=NOW,
        )
        assert decision.granted and decision.valid_until == 1200

    def test_absent_valid_until_gets_default_ttl(self):
        decision = aggregate(
            [trusted_verdict(True, None), trusted_verdict(True, NOW + 900)],
            ConsensusRule.unanimous(), 2, now=NOW, default_ttl=60,
        )
        assert decision.valid_until == NOW + 60

    def test_failures_count_as_deny(self):
        decision = aggregate(
            [trusted_verdict(True), ReplicaFailure("ep", "timeout"), ReplicaFailure("ep2", "unreachable")],
            ConsensusRule.majority(), 3, now=NOW,
        )
        assert not decision.granted
        assert "timeout" in decision.detail

    def test_entry_count_mismatch(self):
        with pytest.raises(ValueError):
            aggregate([trusted_verdict(True)], ConsensusRule.majority(), 3, now=NOW)

    def test_bad_signature_counts_as_deny(self):
        key = seeded_keypair(21)
        good = make_verdict(req(), True, NOW + 60, "r0", key)
        forged = PolicyVerdict(granted=True, valid_until=NOW + 60, replica_id="r1", signature=good.signature)
        decision = aggregate(
            [good, forged],
            ConsensusRule.unanimous(), 2, now=NOW,
            req=req(), replica_keys={"r0": key.public_key, "r1": seeded_keypair(22).public_key},
        )
        assert not decision.granted
        assert "r1:bad-signature" in decision.detail

    def test_unknown_replica_counts_as_deny(self):
        key = seeded_keypair(21)
        verdict = make_verdict(req(), True, NOW + 60, "stranger", key)
        decision = aggregate(
            [verdict], ConsensusRule.unanimous(), 1, now=NOW, req=req(), replica_keys={"r0": key.public_key}
        )
        assert not decision.granted

    def test_threshold_rule(self):
        votes = [trusted_verdict(True), trusted_verdict(True), trusted_verdict(False)]
        assert aggregate(votes, ConsensusRule.of_threshold(2), 3, now=NOW).granted
        assert not aggregate(votes, ConsensusRule.of_threshold(3), 3, now=NOW).granted


@given(
    votes=st.lists(st.booleans(), min_size=1, max_size=6),
    kind=st.sampled_from(["majority", "unanimous", "threshold"]),
    k=st.integers(1, 6),
)
@settings(max_examples=300, deadline=None)
def test_adding_a_grant_never_flips_granted_to_denied(votes, kind, k):
    k = min(k, len(votes))
    rule = ConsensusRule.of_threshold(k) if kind == "threshold" else ConsensusRule(kind)
    before = aggregate([trusted_verdict(v, NOW + 60) for v in votes], rule, len(votes), now=NOW)
    after = aggregate(
        [trusted_verdict(v, NOW + 60) for v in votes] + [trusted_verdict(True, NOW + 60)],
        rule, len(votes) + 1, now=NOW,
    )
    if before.granted:
        assert after.granted


class TestDecide:
    def test_three_honest_replicas_grant(self):
        rule = allow_all_rule("p", ttl=300)
        replicas, names, endpoints, keys = make_replicas(3, rule)
        try:
            uri = f"pdp://{','.join(endpoints)}/p?consensus=majority"
            decision = decide(uri, req(), keys, timeout=2)
            assert decision.granted and decision.valid_until == NOW + 300
        finally:
            for name in names:
                unregister_local(name)

    def test_one_replica_down_still_grants(self):
        rule = allow_all_rule("p", ttl=300)
        replicas, names, endpoints, keys = make_replicas(3, rule)
        unregister_local(names[0])  # now unreachable
        try:
            uri = f"pdp://{','.join(endpoints)}/p?consensus=majority"
            decision = decide(uri, req(), keys, timeout=1)
            assert decision.granted  # 2 grants > 1.5
        finally:
            for name in names[1:]:
                unregister_local(name)

    def test_all_down_fails_closed(self):
        uri = "pdp://local:gone1,local:gone2,local:gone3/p?consensus=majority"
        decision = decide(uri, req(), {}, timeout=0.5)
        assert not decision.granted

    def test_byzantine_minority_cannot_flip(self):
        rng = random.Random(77)
        rule = parse_policy(
            {
                "policy_id": "p",
                "clauses": [
                    {"effect": "deny", "context_predicates": [["hour_of_day", ">", 17]]},
                    {"effect": "allow", "resource_pattern": "iot:door/*", "ttl_seconds": 120},
                ],
            }
        )
        for _ in range(10):
            hour = rng.randrange(0, 24)
            request_obj = req(context={"hour_of_day": hour})
            honest_outcome, _ = evaluate(rule, request_obj)

            replicas, names, endpoints, keys = make_replicas(3, rule)
            liar = LyingReplica("r0", replicas[0].key, {"p": rule})
            unregister_local(names[0])
            from ghub.wire import register_local

            register_local(names[0], liar.dispatcher())
            try:
                uri = f"pdp://{','.join(endpoints)}/p?consensus=majority"
                decision = decide(uri, request_obj, keys, timeout=2)
                assert decision.granted == honest_outcome
            finally:
                for name in names:
                    unregister_local(name)

    def test_unanimous_uri(self):
        rule = allow_all_rule("p", ttl=300)
        replicas, names, endpoints, keys = make_replicas(2, rule)
        try:
            uri = f"pdp://{','.join(endpoints)}/p?consensus=unanimous"
            assert decide(uri, req(), keys, timeout=2).granted
        finally:
            for name in names:
                unregister_local(name)

    def test_the_request_is_hashed_once_on_the_deciding_side(self, monkeypatch):
        rule = allow_all_rule("p", ttl=300)
        replicas, names, endpoints, keys = make_replicas(3, rule)
        hashed = []
        digest = PolicyRequest.digest

        def counted(self):
            hashed.append(self)
            return digest(self)

        monkeypatch.setattr(PolicyRequest, "digest", counted)
        asked = req()
        try:
            uri = f"pdp://{','.join(endpoints)}/p?consensus=majority"
            decision = decide(uri, asked, keys, timeout=2)
            assert decision.granted and decision.detail.startswith("majority: 3/3 grant")
            # each replica hashes the request it parsed; the decide hashes its own once
            assert sum(1 for r in hashed if r is asked) == 1
            assert len(hashed) == 4
        finally:
            for name in names:
                unregister_local(name)


class TestLongLivedFanout:
    def test_hung_policy_does_not_delay_a_healthy_one(self):
        release = threading.Event()
        hung = [unique_local(Dispatcher({"pdp.evaluate": lambda b: release.wait(10)}), "hung") for _ in range(3)]
        hung_uri = f"pdp://{','.join(e for _, e in hung)}/p?consensus=majority"
        replicas, names, endpoints, keys = make_replicas(3, allow_all_rule("p", ttl=300))
        healthy_uri = f"pdp://{','.join(endpoints)}/p?consensus=majority"
        hung_results = []

        def decide_hung():
            started = time.monotonic()
            decision = decide(hung_uri, req(), {}, timeout=1.0)
            hung_results.append((decision, time.monotonic() - started))

        # four decisions hold twelve hung votes at once
        deciders = [threading.Thread(target=decide_hung) for _ in range(4)]
        try:
            for t in deciders:
                t.start()
            time.sleep(0.1)
            # a vote queued behind the hung ones would miss this shorter deadline and deny
            decision = decide(healthy_uri, req(), keys, timeout=0.5)
            assert decision.granted and decision.valid_until == NOW + 300
            for t in deciders:
                t.join(timeout=5)
            assert not any(t.is_alive() for t in deciders) and len(hung_results) == 4
            for decision, elapsed in hung_results:
                assert not decision.granted and decision.detail.count(":timeout") == 3
                assert elapsed < 2.0
        finally:
            release.set()
            for name in names + [name for name, _ in hung]:
                unregister_local(name)

    def test_fanout_runs_every_task_once_under_contention(self):
        # a short idle limit makes workers expire while votes are handed to them
        fanout = _Fanout(idle_seconds=0.001)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def submitter(base):
            futures = [fanout.submit(lambda n: n * n, base + n) for n in range(100)]
            wait(futures, timeout=10)
            results.append([f.result() for f in futures if f.done()])

        try:
            threads = [threading.Thread(target=submitter, args=(1000 * k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=20)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(x for batch in results for x in batch) == sorted((1000 * k + n) ** 2 for k in range(6) for n in range(100))

    def test_pooled_fanout_over_tcp(self):
        rule = allow_all_rule("p", ttl=300)
        replicas = [PdpReplica(f"r{i}", seeded_keypair(60 + i), {"p": rule}) for i in range(3)]
        servers = [serve_replica(r) for r in replicas]
        keys = {r.replica_id: r.key.public_key for r in replicas}
        uri = f"pdp://{','.join(s.endpoint for s in servers)}/p?consensus=majority"
        pool = ConnectionPool()
        try:
            for now in (NOW, NOW + 1):
                decision = decide(uri, req(now=now), keys, timeout=2, pool=pool)
                assert decision.granted and decision.valid_until == now + 300
        finally:
            pool.close()
            for server in servers:
                server.stop()


def meeting_replicas(n: int, barrier: threading.Barrier) -> tuple[list[WireServer], dict]:
    """n honest TCP replicas, each of which answers only once every one of them holds a request."""
    servers, keys = [], {}
    for i in range(n):
        replica = PdpReplica(f"r{i}", seeded_keypair(90 + i), {"p": allow_all_rule("p", ttl=300)})

        def evaluate_after_all(body, replica=replica):
            barrier.wait()
            return replica.evaluate_policy(body["policy_id"], PolicyRequest.from_json(body["request"])).to_json()

        servers.append(WireServer(Dispatcher({"pdp.evaluate": evaluate_after_all})).start())
        keys[replica.replica_id] = replica.key.public_key
    return servers, keys


def count_from_this_thread(monkeypatch) -> tuple[list, list]:
    """Thread starts and WORKERS tasks made by the calling thread from here on."""
    me = threading.get_ident()
    started, submitted = [], []
    start, submit = threading.Thread.start, _Fanout.submit

    def counted_start(thread):
        if threading.get_ident() == me:
            started.append(thread.name)
        start(thread)

    def counted_submit(fanout, fn, arg):
        if fanout is WORKERS and threading.get_ident() == me:
            submitted.append(arg)
        return submit(fanout, fn, arg)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    monkeypatch.setattr(_Fanout, "submit", counted_submit)
    return started, submitted


@contextlib.contextmanager
def raw_endpoint(answer):
    """A TCP endpoint that reads one request line per connection and writes
    answer(line) back, then closes; an answer of None holds the connection
    open, unanswered, until the endpoint closes."""
    listener = socket.create_server(("127.0.0.1", 0))
    closing = threading.Event()

    def serve():
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return  # the listener was shut down
            try:
                with conn, conn.makefile("rb") as lines:
                    reply = answer(lines.readline())
                    if reply is None:
                        closing.wait(5)
                    else:
                        conn.sendall(reply)
            except OSError:
                pass  # the caller gave up on the reply

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    try:
        yield "127.0.0.1:%d" % listener.getsockname()[1]
    finally:
        closing.set()
        listener.shutdown(socket.SHUT_RDWR)
        server.join(timeout=5)
        listener.close()


def replying(body):
    return lambda line: encode_frame(decode_frame(line).reply(body))


def closed_port_endpoint() -> str:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"127.0.0.1:{port}"


# How a call to a raw TCP endpoint fails, by what the endpoint answers: the
# failure's reason, and whether the pool keeps the socket after it.
FAILED_CALLS = {
    "hung": (None, "timeout", False),
    "dropped": (lambda line: b"", "malformed:ProtocolError", False),  # dropped before a reply
    "garbage": (lambda line: b"not json\n", "malformed:ProtocolError", False),
    "error-body": (replying({"error": {"code": "Busy", "message": "later"}}), "error:Busy", True),
    "non-object-error": (replying({"error": "boom"}), "malformed:ProtocolError", True),
    "oversize": (lambda line: b"x" * (MAX_FRAME + 1), "malformed:FrameTooLarge", False),
    "wrong-id": (
        lambda line: encode_frame(Envelope(id="wrong", op="pdp.evaluate", body={})),
        "malformed:ProtocolError",
        False,
    ),
}
# and by an endpoint that no server answers on
NO_SERVER = {"refused": (closed_port_endpoint(), "unreachable"), "unparsable": ("nohost", "malformed:ValueError")}


class TestOneRound:
    """A decide's votes are one wire round: every TCP request is written from
    the deciding thread and the replies are read together."""

    def test_tcp_votes_go_out_together_from_the_deciding_thread(self, monkeypatch):
        servers, keys = meeting_replicas(2, threading.Barrier(2, timeout=2))
        uri = f"pdp://{','.join(s.endpoint for s in servers)}/p?consensus=unanimous"
        try:
            started, _ = count_from_this_thread(monkeypatch)
            decision = decide(uri, req(), keys, timeout=3)
        finally:
            for server in servers:
                server.stop()
        # either replica alone would wait out its barrier and answer an error
        assert decision.granted and decision.detail == "unanimous: 2/2 grant (r0:grant, r1:grant)"
        assert started == []

    def test_a_decide_over_tcp_hands_no_vote_to_a_worker(self, monkeypatch):
        rule = allow_all_rule("p", ttl=300)
        replicas = [PdpReplica(f"r{i}", seeded_keypair(60 + i), {"p": rule}) for i in range(3)]
        servers = [serve_replica(r) for r in replicas]
        keys = {r.replica_id: r.key.public_key for r in replicas}
        uri = f"pdp://{','.join(s.endpoint for s in servers)}/p?consensus=majority"
        pool = ConnectionPool()
        try:
            started, submitted = count_from_this_thread(monkeypatch)
            assert decide(uri, req(), keys, timeout=2).granted
            assert decide(uri, req(), keys, timeout=2, pool=pool).granted
        finally:
            pool.close()
            for server in servers:
                server.stop()
        assert submitted == [] and started == []

    @pytest.mark.parametrize(
        "answer, reason, kept",
        [*FAILED_CALLS.values(), (replying({"granted": True}), "malformed:KeyError", True)],  # not a verdict
        ids=[*FAILED_CALLS, "not-a-verdict"],
    )
    def test_each_failed_tcp_vote_is_a_deny_naming_its_reason(self, answer, reason, kept):
        pool = ConnectionPool()
        try:
            with raw_endpoint((lambda line: None) if answer is None else answer) as endpoint:
                started = time.monotonic()
                decision = decide(f"pdp://{endpoint}/p", req(), {}, timeout=0.5, pool=pool)
            assert not decision.granted
            assert decision.detail == f"majority: 0/1 grant ({endpoint}:{reason})"
            assert time.monotonic() - started < 2
            # a socket is kept only after a reply that decoded and matched its request
            assert len(pool._idle) == kept
        finally:
            pool.close()

    @pytest.mark.parametrize("endpoint, reason", NO_SERVER.values(), ids=NO_SERVER)
    def test_an_endpoint_without_a_server_is_a_deny_naming_its_reason(self, endpoint, reason):
        decision = decide(f"pdp://{endpoint}/p", req(), {}, timeout=0.5)
        assert decision.detail == f"majority: 0/1 grant ({endpoint}:{reason})"

    @pytest.mark.parametrize("answer, reason, kept", FAILED_CALLS.values(), ids=FAILED_CALLS)
    def test_request_fails_as_the_round_does(self, answer, reason, kept):
        pool = ConnectionPool()
        try:
            with raw_endpoint((lambda line: None) if answer is None else answer) as endpoint:
                with pytest.raises(CALL_FAILURES) as failed:
                    request(endpoint, "pdp.evaluate", {}, timeout=0.5, pool=pool)
            assert failure_reason(failed.value) == reason
            assert len(pool._idle) == kept
        finally:
            pool.close()

    @pytest.mark.parametrize("endpoint, reason", NO_SERVER.values(), ids=NO_SERVER)
    def test_request_to_an_endpoint_without_a_server_fails_as_the_round_does(self, endpoint, reason):
        with pytest.raises(CALL_FAILURES) as failed:
            request(endpoint, "pdp.evaluate", {}, timeout=0.5)
        assert failure_reason(failed.value) == reason

    def test_pooled_decides_keep_one_connection_per_replica(self):
        rule = allow_all_rule("p", ttl=300)
        replicas = [PdpReplica(f"r{i}", seeded_keypair(60 + i), {"p": rule}) for i in range(3)]
        connections = set()
        late = threading.Event()

        def serving(replica):
            def evaluate(body):
                connections.add(threading.current_thread().name)  # "ghub-conn <peer>" while a connection is served
                if replica.replica_id == "r2" and not late.is_set():
                    late.set()
                    time.sleep(0.5)  # answers its first request after the deadline
                return replica.evaluate_policy(body["policy_id"], PolicyRequest.from_json(body["request"])).to_json()

            return WireServer(Dispatcher({"pdp.evaluate": evaluate})).start()

        servers = [serving(r) for r in replicas]
        keys = {r.replica_id: r.key.public_key for r in replicas}
        uri = f"pdp://{','.join(s.endpoint for s in servers)}/p?consensus=unanimous"
        pool = ConnectionPool()
        try:
            first = decide(uri, req(), keys, timeout=0.2, pool=pool)
            assert first.detail == f"unanimous: 2/3 grant (r0:grant, r1:grant, {servers[2].endpoint}:timeout)"
            time.sleep(0.5)  # the late reply is on the timed-out socket by now
            # read on that socket, it would be taken for the next request's reply
            for now in range(NOW, NOW + 10):
                decision = decide(uri, req(now=now), keys, timeout=2, pool=pool)
                assert decision.detail == "unanimous: 3/3 grant (r0:grant, r1:grant, r2:grant)"
        finally:
            pool.close()
            for server in servers:
                server.stop()
        # one connection per replica for all eleven decides, and a fresh one after the timeout
        assert len(connections) == 4

    def test_a_policy_may_mix_local_and_tcp_replicas(self, monkeypatch):
        rule = allow_all_rule("p", ttl=300)
        _, names, endpoints, keys = make_replicas(1, rule)
        tcp = [PdpReplica(f"t{i}", seeded_keypair(95 + i), {"p": rule}) for i in range(2)]
        servers = [serve_replica(r) for r in tcp]
        keys.update({r.replica_id: r.key.public_key for r in tcp})
        uri = f"pdp://{servers[0].endpoint},{endpoints[0]},{servers[1].endpoint}/p?consensus=unanimous"
        try:
            _, submitted = count_from_this_thread(monkeypatch)
            decision = decide(uri, req(), keys, timeout=2)
        finally:
            unregister_local(names[0])
            for server in servers:
                server.stop()
        assert decision.granted and decision.detail == "unanimous: 3/3 grant (t0:grant, r0:grant, t1:grant)"
        assert len(submitted) == 1  # only the local: replica answers on a worker


class TestOneVotePerReplica:
    """A quorum counts distinct verified replicas: a copy of one replica's verdict counts once."""

    def test_a_relayed_copy_of_a_grant_is_denied_over_tcp(self):
        allow, deny = allow_all_rule("p", ttl=300), parse_policy({"policy_id": "p", "clauses": []})
        rules = (allow, deny, allow)
        replicas = [PdpReplica(f"r{i}", seeded_keypair(70 + i), {"p": rule}) for i, rule in enumerate(rules)]
        servers = [serve_replica(r) for r in replicas[:2]]
        # the third endpoint holds no key: it forwards each request to r0 and returns r0's signed grant
        relay = WireServer(
            Dispatcher({"pdp.evaluate": lambda body: request(servers[0].endpoint, "pdp.evaluate", body)})
        ).start()
        servers.append(relay)
        keys = {r.replica_id: r.key.public_key for r in replicas}
        uri = f"pdp://{','.join(s.endpoint for s in servers)}/p?consensus=majority"
        try:
            decision = decide(uri, req(), keys, timeout=2)
        finally:
            for server in servers:
                server.stop()
        assert not decision.granted
        assert decision.detail == "majority: 1/3 grant (r0:grant, r1:deny, r0:duplicate)"

    def test_one_endpoint_listed_three_times_is_denied_under_unanimous(self):
        replicas, names, endpoints, keys = make_replicas(3, allow_all_rule("p", ttl=300))
        try:
            uri = f"pdp://{endpoints[0]},{endpoints[0]},{endpoints[0]}/p?consensus=unanimous"
            decision = decide(uri, req(), keys, timeout=2)
        finally:
            for name in names:
                unregister_local(name)
        assert not decision.granted
        assert decision.detail.count("r0:duplicate") == 2

    def test_a_failed_copy_does_not_hide_the_replicas_own_vote(self):
        key = seeded_keypair(21)
        good = make_verdict(req(), True, NOW + 60, "r0", key)
        forged = PolicyVerdict(granted=True, valid_until=NOW + 60, replica_id="r0", signature=bytes(64))
        decision = aggregate(
            [forged, good], ConsensusRule.of_threshold(1), 2, now=NOW, req=req(), replica_keys={"r0": key.public_key}
        )
        assert decision.granted
        assert decision.detail == "threshold: 1/2 grant (r0:bad-signature, r0:grant)"


REPLICA_KEYS = [seeded_keypair(80 + i) for i in range(4)]
VERDICTS = {
    (i, granted): make_verdict(req(), granted, NOW + 60 if granted else None, f"r{i}", key)
    for i, key in enumerate(REPLICA_KEYS)
    for granted in (True, False)
}


@given(
    granted=st.lists(st.booleans(), min_size=4, max_size=4),
    votes=st.lists(st.integers(-1, 3), min_size=1, max_size=6),
    kind=st.sampled_from(["majority", "unanimous", "threshold"]),
    k=st.integers(1, 6),
)
@settings(max_examples=200, deadline=None)
def test_a_decision_counts_distinct_verified_grants(granted, votes, kind, k):
    # each vote is a copy of replica i's verdict, or a failure (-1)
    entries = [ReplicaFailure(f"ep{n}", "timeout") if i < 0 else VERDICTS[i, granted[i]] for n, i in enumerate(votes)]
    rule = ConsensusRule.of_threshold(k) if kind == "threshold" else ConsensusRule(kind)
    keys = {f"r{i}": key.public_key for i, key in enumerate(REPLICA_KEYS)}
    decision = aggregate(entries, rule, len(entries), now=NOW, req=req(), replica_keys=keys)
    distinct = len({i for i in votes if i >= 0 and granted[i]})
    n = len(entries)
    expected = {"majority": 2 * distinct > n, "unanimous": distinct == n, "threshold": distinct >= k}[kind]
    assert decision.granted == expected
    assert decision.valid_until == (NOW + 60 if expected else NOW)
