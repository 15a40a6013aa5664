import base64
import gc
import json
import secrets
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghub.gateway import BadCredentials, Gateway
from ghub.wire import ServiceError, request, unregister_local
from helpers import NOW, unique_local


@pytest.fixture
def gateway():
    return Gateway("hue", {"alice": "hunter2"}, {"iot:hue/light1": "off"}, token_lifetime=600)


class TestLinkAccount:
    def test_token_shape(self, gateway):
        token = gateway.link_account("alice", "hunter2", NOW)
        assert len(token) == 44  # 32 bytes, base64
        base64.b64decode(token)

    def test_wrong_password(self, gateway):
        with pytest.raises(BadCredentials):
            gateway.link_account("alice", "wrong", NOW)

    def test_unknown_user(self, gateway):
        with pytest.raises(BadCredentials):
            gateway.link_account("nobody", "x", NOW)

    def test_two_links_two_tokens(self, gateway):
        assert gateway.link_account("alice", "hunter2", NOW) != gateway.link_account("alice", "hunter2", NOW)


class TestInvoke:
    def test_read_existing_resource(self, gateway):
        token = gateway.link_account("alice", "hunter2", NOW)
        response = gateway.invoke(token, "iot:hue/light1", "read", None, NOW)
        assert response.ok and response.body["value"] == "off"

    def test_write_mutates_state(self, gateway):
        token = gateway.link_account("alice", "hunter2", NOW)
        response = gateway.invoke(token, "iot:hue/light1", "write", "on", NOW)
        assert response.ok
        assert gateway.resource_value("iot:hue/light1") == "on"

    def test_actuate_allowed(self, gateway):
        token = gateway.link_account("alice", "hunter2", NOW)
        assert gateway.invoke(token, "iot:hue/light1", "actuate", "blink", NOW).ok

    def test_expired_token_rejected_and_logged(self, gateway):
        token = gateway.link_account("alice", "hunter2", NOW)
        response = gateway.invoke(token, "iot:hue/light1", "read", None, NOW + 600)
        assert not response.ok and response.body["reason"] == "expired-token"
        assert gateway.call_log[-1]["outcome"] == "expired-token"

    def test_garbage_token_rejected(self, gateway):
        response = gateway.invoke("AAAA", "iot:hue/light1", "read", None, NOW)
        assert not response.ok and response.body["reason"] == "bad-token"

    def test_unknown_resource_rejected(self, gateway):
        token = gateway.link_account("alice", "hunter2", NOW)
        response = gateway.invoke(token, "iot:hue/light9", "read", None, NOW)
        assert not response.ok and response.body["reason"] == "unknown-resource"

    def test_unknown_action_rejected(self, gateway):
        token = gateway.link_account("alice", "hunter2", NOW)
        response = gateway.invoke(token, "iot:hue/light1", "reboot", None, NOW)
        assert not response.ok and response.body["reason"] == "bad-action"

    def test_everything_is_logged(self, gateway):
        token = gateway.link_account("alice", "hunter2", NOW)
        gateway.invoke(token, "iot:hue/light1", "read", None, NOW)
        gateway.invoke(None, "iot:hue/light1", "read", None, NOW)
        log = gateway.call_log
        assert len(log) == 2
        assert log[0]["token_presented"] and not log[1]["token_presented"]

    def test_call_log_returns_copies(self, gateway):
        gateway.invoke(None, "iot:hue/light1", "read", None, NOW)
        log = gateway.call_log
        log[0]["outcome"] = "tampered"
        assert gateway.call_log[0]["outcome"] != "tampered"


@pytest.fixture
def logged(gateway):
    token = gateway.link_account("alice", "hunter2", NOW)
    for n in range(6):
        gateway.invoke(token if n % 2 else None, "iot:hue/light1", "write", f"v{n}", NOW + n)
    return gateway


class TestCallsSince:
    @pytest.mark.parametrize("start", [0, 3, 6, 9, -2])
    def test_equals_the_tail_of_call_log(self, logged, start):
        assert logged.calls_since(start) == logged.call_log[start:]

    def test_middle_starts_at_that_entry(self, logged):
        tail = logged.calls_since(3)
        assert [e["timestamp"] for e in tail] == [NOW + 3, NOW + 4, NOW + 5]
        assert [e["token_presented"] for e in tail] == [True, False, True]

    def test_returns_copies(self, logged):
        logged.calls_since(5)[0]["outcome"] = "tampered"
        assert logged.calls_since(5)[0]["outcome"] == "ok"


class TestCallLogView:
    def test_reads_as_the_list_it_replaces(self, logged):
        log = logged.call_log
        as_list = list(log)
        assert len(log) == 6 and log == as_list and as_list == log and log == logged.call_log
        assert log[-1] == as_list[-1] and log[-6] == as_list[0] and log[2] == as_list[2]
        assert log[1:4] == as_list[1:4] and isinstance(log[1:4], list)
        assert log[::-2] == as_list[::-2] and log[9:] == []
        assert log != as_list[:-1] and log != as_list[::-1] and log != tuple(as_list)
        for index in (6, -7):
            with pytest.raises(IndexError):
                log[index]

    def test_later_invokes_are_not_in_it(self, logged):
        log = logged.call_log
        before = list(log)
        logged.invoke(None, "iot:hue/light1", "read", None, NOW + 6)
        assert len(log) == 6 and list(log) == before and log[-1]["timestamp"] == NOW + 5
        with pytest.raises(IndexError):
            log[6]
        assert len(logged.call_log) == 7

    def test_changing_an_item_leaves_the_transcript(self, logged):
        log = logged.call_log
        for entry in log:
            entry["outcome"] = "tampered"
        log[0]["resource"] = "tampered"
        log[1:3][0]["action"] = "tampered"
        assert "tampered" not in json.dumps(list(logged.call_log))

    def test_dumps_as_json(self, logged):
        log = logged.call_log
        assert json.loads(json.dumps(list(log))) == log

    def test_reading_the_log_holds_one_entry_at_a_time(self, gateway):
        token = gateway.link_account("alice", "hunter2", NOW)
        invokes = 10_000
        for n in range(invokes):
            gateway.invoke(token, "iot:hue/light1", "read", None, NOW + n // 100)  # inside the token's 600 s
        gc.collect()
        tracemalloc.start()
        try:
            log = gateway.call_log
            read = sum(entry["outcome"] == "ok" for entry in log)
            last = log[-1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(log) == read == invokes and last["timestamp"] == NOW + (invokes - 1) // 100
        # a list of five-key dicts took about 2 MB
        assert peak < 64 * 1024


class TestObservability:
    def test_seen_token_is_found(self, gateway):
        token = gateway.link_account("alice", "hunter2", NOW)
        gateway.invoke(token, "iot:hue/light1", "read", None, NOW)
        assert not gateway.assert_never_saw(token)

    def test_unused_pattern_never_seen(self, gateway):
        gateway.invoke(None, "iot:hue/light1", "read", None, NOW)
        assert gateway.assert_never_saw("did:ghub:U6ycgN3hiErBGiVxpbZhDWhZLzN8uLLUnwTZ63BSzHdS")

    def test_payload_bytes_are_observed(self, gateway):
        token = gateway.link_account("alice", "hunter2", NOW)
        gateway.invoke(token, "iot:hue/light1", "write", "very-specific-payload", NOW)
        assert not gateway.assert_never_saw("very-specific-payload")


def test_random_tokens_never_collide_with_issued(gateway):
    issued = {gateway.link_account("alice", "hunter2", NOW) for _ in range(8)}
    for _ in range(100_000):
        candidate = base64.b64encode(secrets.token_bytes(32)).decode("ascii")
        assert candidate not in issued


def test_seeded_token_accepted(gateway):
    gateway.seed_token("fixed-token", "alice", NOW, NOW + 100)
    assert gateway.invoke("fixed-token", "iot:hue/light1", "read", None, NOW).ok
    assert not gateway.invoke("fixed-token", "iot:hue/light1", "read", None, NOW + 100).ok


def test_service_face(gateway):
    token = gateway.link_account("alice", "hunter2", NOW)
    name, endpoint = unique_local(gateway.dispatcher(), "gw")
    try:
        body = request(endpoint, "gateway.invoke", {"token": token, "resource": "iot:hue/light1", "action": "read", "payload": None, "now": NOW})
        assert body["status"] == "OK"
        with pytest.raises(ServiceError):
            request(endpoint, "gateway.link", {})  # only invoke is exposed
    finally:
        unregister_local(name)


def test_module_has_no_identity_registry_or_pdp_imports():
    # the unmodified-gateway property, enforced structurally
    import ast
    import inspect

    import ghub.gateway as gateway_module

    tree = ast.parse(inspect.getsource(gateway_module))
    forbidden = {"identity", "registry", "pdp", "hub", "client"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            assert module not in forbidden, f"gateway imports {module}"
            assert not any(alias.name in forbidden for alias in node.names)
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[-1] not in forbidden


def test_transcript_bytes_per_invoke_are_capped(gateway):
    token = gateway.link_account("alice", "hunter2", NOW)
    invokes = 5000
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for n in range(invokes):
            gateway.invoke(token, "iot:hue/light1", "read", None, NOW + n // 10)  # ten invokes a second
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(gateway.call_log) == invokes
    # a timestamp, a payload and a row index each; a 6-tuple per invoke took about 128 B
    assert grown / invokes < 48


class ReferenceTranscript:
    """The transcript as a plain list of (timestamp, token, resource, action,
    payload, outcome) tuples, read back the way call_log and assert_never_saw
    are specified."""

    def __init__(self):
        self.entries = []

    def call_log(self):
        return [
            {"timestamp": t, "token_presented": token is not None, "resource": r, "action": a, "outcome": o}
            for t, token, r, a, _, o in self.entries
        ]

    def never_saw(self, pattern):
        fields = ("timestamp", "token", "resource", "action", "payload", "outcome")
        return pattern not in json.dumps([dict(zip(fields, e)) for e in self.entries], default=str)


_json_scalars = st.none() | st.booleans() | st.integers(-5, 5) | st.floats(allow_nan=False) | st.text(max_size=6)
invokes = st.lists(
    st.tuples(
        st.sampled_from(["live", "other", None, "", 1, True, 1.0, [], "gw-token"]),
        st.sampled_from(["iot:hue/light1", "iot:hue/light9", "", 1, True]),
        st.sampled_from(["read", "write", "actuate", "reboot", 0, False]),
        st.recursive(_json_scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=4),
        st.sampled_from([NOW, NOW + 1, NOW + 700, 1, True, 1.0, 0.0, -0.0]),
    ),
    max_size=25,
)


@given(calls=invokes, start=st.integers(-30, 30))
@settings(max_examples=200, deadline=None)
def test_columnar_transcript_reads_as_a_list_of_tuples(calls, start):
    gateway = Gateway("hue", {"alice": "hunter2"}, {"iot:hue/light1": "off"}, token_lifetime=600)
    gateway.seed_token("live", "alice", NOW)
    reference = ReferenceTranscript()
    for token, resource, action, payload, now in calls:
        response = gateway.invoke(token, resource, action, payload, now)
        outcome = "ok" if response.ok else response.body["reason"]
        reference.entries.append((now, token, resource, action, payload, outcome))
    log = gateway.call_log
    assert log == reference.call_log()
    # equal values of other types (1, 1.0, True; 0.0, -0.0) keep their own type and sign
    assert [repr(e["timestamp"]) for e in log] == [repr(e["timestamp"]) for e in reference.call_log()]
    assert gateway.calls_since(start) == reference.call_log()[start:]
    patterns = ["live", "true", "1.0", "-0.0", '"token": 1,', '"token": []', '"payload": null, "outcome": "bad-token"', "reboot"]
    for pattern in patterns:
        assert gateway.assert_never_saw(pattern) == reference.never_saw(pattern)
