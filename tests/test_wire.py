import ast
import contextlib
import select
import socket
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghub
from ghub.canonical import canonical_bytes, parse
from ghub.pdp import PolicyRequest, PolicyUri, decide, parse_policy_uri
from ghub.wire import (
    CALL_FAILURES,
    MAX_FRAME,
    WORKERS,
    ConnectionPool,
    Dispatcher,
    Envelope,
    FrameTooLarge,
    ProtocolError,
    ServiceError,
    WireError,
    WireServer,
    _Fanout,
    call,
    decode_frame,
    decode_frames,
    encode_frame,
    failure_reason,
    register_local,
    request,
    request_all,
    unregister_local,
)
from helpers import NOW, allow_all_rule, make_replicas, unique_local


def echo_dispatcher():
    return Dispatcher({"echo": lambda body: body})


class TestFraming:
    def test_round_trip(self):
        env = Envelope.request("registry.resolve", {"did": "did:ghub:abc", "now": 5})
        assert decode_frame(encode_frame(env)) == env

    def test_frame_ends_with_single_newline(self):
        frame = encode_frame(Envelope.request("echo", {"text": "a\nb"}))
        assert frame.endswith(b"\n")
        assert frame.count(b"\n") == 1  # newlines in strings are escaped

    def test_two_frames_decode_in_order(self):
        first = Envelope.request("echo", {"n": 1})
        second = Envelope.request("echo", {"n": 2})
        out = decode_frames(encode_frame(first) + encode_frame(second))
        assert out == [first, second]

    def test_oversize_encode_rejected(self):
        body = {"blob": "x" * MAX_FRAME}
        with pytest.raises(FrameTooLarge):
            encode_frame(Envelope.request("echo", body))

    def test_boundary_frame_passes(self):
        probe = encode_frame(Envelope(id="i", op="echo", body={"blob": ""}))
        filler = MAX_FRAME - len(probe)
        frame = encode_frame(Envelope(id="i", op="echo", body={"blob": "x" * filler}))
        assert len(frame) == MAX_FRAME
        with pytest.raises(FrameTooLarge):
            decode_frame(frame[:-1] + b"y\n")

    def test_missing_field_rejected(self):
        with pytest.raises(ProtocolError):
            decode_frame(b'{"id":"a","op":"echo","version":1}\n')
        with pytest.raises(ProtocolError):
            decode_frame(b'{"id":"a","body":{},"version":1}\n')

    def test_malformed_json_rejected(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"{nope\n")

    @given(st.binary(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_bytes_never_crash_the_decoder(self, blob):
        try:
            decode_frames(blob)
        except WireError:
            pass  # errors are the contract; anything else is a bug


def test_request_ids_are_unique_across_threads():
    made = [[] for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible

    def make(out):
        out.extend(Envelope.request("echo", {}).id for _ in range(5000))

    try:
        threads = [threading.Thread(target=make, args=(out,)) for out in made]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert [len(out) for out in made] == [5000] * 4
    assert len({id_ for out in made for id_ in out}) == 20000


class TestDispatcher:
    def test_unknown_op_is_structured_error(self):
        reply = echo_dispatcher().handle(Envelope.request("nope", {}))
        assert reply.body["error"]["code"] == "UnknownOp"

    def test_service_error_maps_to_body(self):
        def handler(_body):
            raise ServiceError("Denied", "no")

        reply = Dispatcher({"x": handler}).handle(Envelope.request("x", {}))
        assert reply.body["error"] == {"code": "Denied", "message": "no"}

    def test_unexpected_exception_does_not_leak(self):
        def handler(_body):
            raise RuntimeError("secret internals")

        reply = Dispatcher({"x": handler}).handle(Envelope.request("x", {}))
        assert reply.body["error"]["code"] == "Internal"

    def test_id_echoed(self):
        env = Envelope.request("echo", {"v": 1})
        assert echo_dispatcher().handle(env).id == env.id


class TestLocalTransport:
    def test_round_trip(self):
        name, endpoint = unique_local(echo_dispatcher())
        try:
            assert request(endpoint, "echo", {"v": 7}) == {"v": 7}
        finally:
            unregister_local(name)

    def test_unknown_endpoint_refused(self):
        with pytest.raises(ConnectionRefusedError):
            call("local:never-registered", Envelope.request("echo", {}))

    def test_slow_handler_times_out(self):
        name, endpoint = unique_local(Dispatcher({"sleep": lambda b: time.sleep(2)}))
        try:
            with pytest.raises(TimeoutError):
                call(endpoint, Envelope.request("sleep", {}), timeout=0.2)
        finally:
            unregister_local(name)

    def test_duplicate_name_rejected(self):
        name, _ = unique_local(echo_dispatcher())
        try:
            with pytest.raises(ValueError):
                register_local(name, echo_dispatcher())
        finally:
            unregister_local(name)


@contextlib.contextmanager
def served(dispatcher, transport: str):
    """The endpoint of `dispatcher` served over `transport`, "local" or "tcp"."""
    if transport == "tcp":
        with WireServer(dispatcher) as server:
            yield server.endpoint
        return
    name, endpoint = unique_local(dispatcher)
    try:
        yield endpoint
    finally:
        unregister_local(name)


@pytest.mark.parametrize("transport", ["local", "tcp"])
class TestBothTransports:
    """A `local:` call is a TCP call minus the socket: encoded, size-checked and decoded."""

    def test_handler_gets_a_copy_and_the_caller_a_new_reply(self, transport):
        def grab(body):
            body["n"] += 1
            body["seen"].append("handler")
            return body

        sent = {"n": 1, "seen": []}
        with served(Dispatcher({"grab": grab}), transport) as endpoint:
            reply = request(endpoint, "grab", sent)
        assert sent == {"n": 1, "seen": []}
        assert reply == {"n": 2, "seen": ["handler"]} and reply is not sent

    def test_unencodable_reply_is_internal(self, transport):
        with served(Dispatcher({"set": lambda body: {1, 2}}), transport) as endpoint:
            with pytest.raises(ServiceError) as err:
                request(endpoint, "set", {})
        assert err.value.code == "Internal"

    def test_oversize_request_raises_frame_too_large(self, transport):
        with served(echo_dispatcher(), transport) as endpoint:
            with pytest.raises(FrameTooLarge):
                request(endpoint, "echo", {"blob": "x" * MAX_FRAME})
            assert request(endpoint, "echo", {"after": 1}) == {"after": 1}


def count_thread_starts(monkeypatch) -> list:
    started = []
    original = threading.Thread.start

    def start(self):
        started.append(self.name)
        original(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


class RaisingHandler:
    """Registered as a local endpoint in place of a Dispatcher; its handle raises."""

    def handle(self, envelope):
        raise RuntimeError("handler broke")


class TestWorkers:
    def test_steady_local_calls_and_decides_start_no_threads(self, monkeypatch):
        name, endpoint = unique_local(echo_dispatcher())
        _, names, endpoints, keys = make_replicas(3, allow_all_rule("p"))
        uri = f"pdp://{','.join(endpoints)}/p?consensus=majority"
        req = PolicyRequest(guest_did="did:ghub:guest1", resource="iot:door/main", action="open", context={}, now=NOW)
        try:
            # warm-up: six workers at once, as many as a decide's three votes
            # and their three local calls hold when all of them overlap
            gate = threading.Event()
            held = [WORKERS.submit(gate.wait, 5) for _ in range(6)]
            gate.set()
            assert all(f.result(timeout=5) for f in held)
            started = count_thread_starts(monkeypatch)
            for i in range(200):
                assert request(endpoint, "echo", {"i": i}) == {"i": i}
            for _ in range(200):
                assert decide(uri, req, keys).granted
            assert started == []
        finally:
            for n in names + [name]:
                unregister_local(n)

    def test_raising_handler_is_a_prompt_protocol_error(self):
        broken, broken_endpoint = unique_local(RaisingHandler())
        name, endpoint = unique_local(echo_dispatcher())
        try:
            t0 = time.monotonic()
            with pytest.raises(ProtocolError):
                call(broken_endpoint, Envelope.request("echo", {}), timeout=5)
            assert time.monotonic() - t0 < 1.0
            assert request(endpoint, "echo", {"after": 1}) == {"after": 1}
        finally:
            unregister_local(broken)
            unregister_local(name)

    def test_a_worker_outlives_its_raising_task(self):
        fanout = _Fanout(idle_seconds=5.0)
        idents = []

        def fail(_):
            idents.append(threading.get_ident())
            raise ValueError("task broke")

        assert isinstance(fanout.submit(fail, None).exception(timeout=5), ValueError)
        assert fanout.submit(lambda _: threading.get_ident(), None).result(timeout=5) == idents[0]

    def test_nested_local_call_answers_while_workers_are_hung(self):
        release = threading.Event()
        hung = [WORKERS.submit(release.wait, 10) for _ in range(4)]
        inner, inner_endpoint = unique_local(echo_dispatcher())
        outer, outer_endpoint = unique_local(
            Dispatcher({"relay": lambda body: request(inner_endpoint, "echo", body, timeout=1)})
        )
        try:
            t0 = time.monotonic()
            assert request(outer_endpoint, "relay", {"v": 3}, timeout=1) == {"v": 3}
            assert time.monotonic() - t0 < 1.0
            assert not any(f.done() for f in hung)
        finally:
            release.set()
            unregister_local(inner)
            unregister_local(outer)


class TestTcpTransport:
    def test_round_trip(self):
        with WireServer(echo_dispatcher()) as server:
            body = request(server.endpoint, "echo", {"text": "hello"})
            assert body == {"text": "hello"}

    def test_pipelined_frames_matched_by_id(self):
        with WireServer(echo_dispatcher()) as server:
            host, port = server.endpoint.rsplit(":", 1)
            first = Envelope.request("echo", {"n": 1})
            second = Envelope.request("echo", {"n": 2})
            with socket.create_connection((host, int(port)), timeout=5) as sock:
                sock.sendall(encode_frame(first) + encode_frame(second))
                buf = b""
                while buf.count(b"\n") < 2:
                    buf += sock.recv(65536)
            replies = {e.id: e for e in decode_frames(buf)}
            assert replies[first.id].body == {"n": 1}
            assert replies[second.id].body == {"n": 2}

    def test_closed_port_refused(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ConnectionRefusedError):
            call(f"127.0.0.1:{port}", Envelope.request("echo", {}), timeout=2)

    def test_handler_sleeping_past_timeout(self):
        with WireServer(Dispatcher({"sleep": lambda b: time.sleep(3)})) as server:
            with pytest.raises(TimeoutError):
                call(server.endpoint, Envelope.request("sleep", {}), timeout=0.3)

    def test_id_mismatch_raises_protocol_error(self):
        # a server that answers with the wrong correlation id
        lis = socket.socket()
        lis.bind(("127.0.0.1", 0))
        lis.listen(1)
        port = lis.getsockname()[1]

        def rogue():
            conn, _ = lis.accept()
            conn.recv(65536)
            conn.sendall(encode_frame(Envelope(id="wrong", op="echo", body={})))
            conn.close()

        thread = threading.Thread(target=rogue, daemon=True)
        thread.start()
        try:
            with pytest.raises(ProtocolError):
                call(f"127.0.0.1:{port}", Envelope.request("echo", {}), timeout=2)
        finally:
            lis.close()

    def test_unknown_op_over_tcp(self):
        with WireServer(echo_dispatcher()) as server:
            with pytest.raises(ServiceError) as err:
                request(server.endpoint, "bogus.op", {})
            assert err.value.code == "UnknownOp"

    def test_oversize_frame_is_answered_then_the_connection_dropped(self):
        with WireServer(echo_dispatcher()) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:

                def send():
                    try:
                        sock.sendall(b"x" * (MAX_FRAME + 100) + b"\n")
                    except OSError:
                        pass  # the server may drop the connection before it has read it all

                sender = threading.Thread(target=send, daemon=True)
                sender.start()
                buf = b""
                while not buf.endswith(b"\n"):
                    chunk = sock.recv(65536)
                    assert chunk, "connection closed before the reply"
                    buf += chunk
                assert decode_frame(buf).body["error"]["code"] == "FrameTooLarge"
                try:
                    assert sock.recv(65536) == b""
                except ConnectionResetError:
                    pass
                sender.join(timeout=5)
                assert not sender.is_alive()

    def test_concurrent_connections(self):
        with WireServer(echo_dispatcher()) as server:
            results = []
            lock = threading.Lock()

            def worker(n):
                body = request(server.endpoint, "echo", {"n": n})
                with lock:
                    results.append(body["n"])

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert sorted(results) == list(range(8))


class TestServerWorkers:
    def test_stop_before_start_closes_the_socket_and_returns(self):
        server = WireServer(echo_dispatcher())
        endpoint = server.endpoint
        stopper = threading.Thread(target=lambda: (server.stop(), server.stop()), daemon=True)
        stopper.start()
        stopper.join(timeout=5)
        assert not stopper.is_alive()
        with pytest.raises(ConnectionRefusedError):
            call(endpoint, Envelope.request("echo", {}), timeout=2)

    def test_stop_right_after_a_served_call_returns_at_once(self):
        server = WireServer(echo_dispatcher()).start()
        assert request(server.endpoint, "echo", {"n": 1}) == {"n": 1}
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 0.2

    def test_a_raising_handle_ends_only_its_connection_and_is_printed(self, capfd):
        class Breaking:
            def handle(self, envelope):
                if envelope.op == "break":
                    raise RuntimeError("handler broke")
                return envelope.reply(threading.current_thread().name)

        pool = ConnectionPool()
        try:
            with WireServer(Breaking()) as server:
                kept = request(server.endpoint, "who", {}, pool=pool)
                with pytest.raises(ProtocolError):
                    request(server.endpoint, "break", {})
                assert request(server.endpoint, "who", {}, pool=pool) == kept
            assert "RuntimeError: handler broke" in capfd.readouterr().err
        finally:
            pool.close()

    def test_one_shot_connections_reuse_workers(self, monkeypatch):
        with WireServer(echo_dispatcher()) as server:
            assert request(server.endpoint, "echo", {"warm": 1}) == {"warm": 1}
            started = count_thread_starts(monkeypatch)
            for i in range(50):
                assert request(server.endpoint, "echo", {"i": i}) == {"i": i}
            assert len(started) <= 2

    def test_stop_leaves_every_serving_worker_idle_and_renamed(self, monkeypatch):
        served = {}

        def who(_body):
            worker = threading.current_thread()
            served[worker] = worker.name
            return worker.name

        pool = ConnectionPool()
        try:
            with WireServer(Dispatcher({"who": who})) as server:
                kept = request(server.endpoint, "who", {}, pool=pool)  # still open at stop
                one_shot = request(server.endpoint, "who", {})
            assert kept != one_shot and all(n.startswith("ghub-conn 127.0.0.1:") for n in (kept, one_shot))
            assert len(served) == 2 and all(worker.name == "ghub-worker" for worker in served)
            # idle workers are handed out most recently idle first, so these
            # tasks land on the two that served, and no thread starts
            started = count_thread_starts(monkeypatch)
            gate = threading.Event()

            def held(_):
                gate.wait(5)
                return threading.current_thread()

            holders = [WORKERS.submit(held, None) for _ in served]
            gate.set()
            assert {f.result(timeout=5) for f in holders} == set(served) and started == []
        finally:
            pool.close()


def thread_name(_body):
    # a server runs each connection on its own thread, so the name tells connections apart
    return threading.current_thread().name


class TestRequestAll:
    def test_a_fresh_connection_tries_each_address_in_turn(self, monkeypatch):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        closed_port = probe.getsockname()[1]
        probe.close()
        lookup = socket.getaddrinfo

        def refused_first(host, port, *args):
            # as a name with two addresses whose first refuses would resolve
            return lookup("127.0.0.1", closed_port, *args) + lookup(host, port, *args)

        with WireServer(echo_dispatcher()) as server:
            monkeypatch.setattr(socket, "getaddrinfo", refused_first)
            replies = request_all([server.endpoint, f"127.0.0.1:{closed_port}"], "echo", {"n": 1}, timeout=2)
        assert replies[0] == {"n": 1}
        assert isinstance(replies[1], ConnectionRefusedError)


class TestConnectionPool:
    def test_pooled_calls_share_one_connection(self):
        pool = ConnectionPool()
        try:
            with WireServer(Dispatcher({"who": thread_name})) as server:
                pooled = {request(server.endpoint, "who", {}, pool=pool) for _ in range(5)}
                one_shot = {request(server.endpoint, "who", {}) for _ in range(2)}
            assert len(pooled) == 1
            assert len(one_shot) == 2 and not one_shot & pooled
        finally:
            pool.close()

    def test_timed_out_socket_is_not_reused(self):
        def slow(_body):
            time.sleep(0.5)
            return "late"

        pool = ConnectionPool()
        try:
            with WireServer(Dispatcher({"slow": slow, "echo": lambda body: body})) as server:
                with pytest.raises(TimeoutError):
                    request(server.endpoint, "slow", {}, timeout=0.1, pool=pool)
                # on the timed-out socket this would read the late reply first
                assert request(server.endpoint, "echo", {"n": 2}, timeout=2, pool=pool) == {"n": 2}
        finally:
            pool.close()

    def test_error_reply_socket_is_not_reused(self):
        lis = socket.socket()
        lis.bind(("127.0.0.1", 0))
        lis.listen(2)
        port = lis.getsockname()[1]
        accepted = []

        def rogue():
            # answers its first connection with a wrong id, then serves honestly
            for wrong in (True, False):
                conn, _ = lis.accept()
                accepted.append(conn)
                data = conn.recv(65536)
                envelope = decode_frame(data)
                reply = Envelope(id="wrong", op="echo", body={}) if wrong else envelope.reply(envelope.body)
                conn.sendall(encode_frame(reply))

        thread = threading.Thread(target=rogue, daemon=True)
        thread.start()
        pool = ConnectionPool()
        try:
            with pytest.raises(ProtocolError):
                request(f"127.0.0.1:{port}", "echo", {"n": 1}, timeout=2, pool=pool)
            assert request(f"127.0.0.1:{port}", "echo", {"n": 2}, timeout=2, pool=pool) == {"n": 2}
            thread.join(timeout=5)
            assert not thread.is_alive() and len(accepted) == 2
        finally:
            pool.close()
            lis.close()
            for conn in accepted:
                conn.close()

    def test_restarted_backend_is_reached_on_a_fresh_connection(self):
        pool = ConnectionPool()
        server = WireServer(Dispatcher({"who": lambda b: "first"})).start()
        endpoint, port = server.endpoint, server.port
        try:
            assert request(endpoint, "who", {}, pool=pool) == "first"
            server.stop()
            server = WireServer(Dispatcher({"who": lambda b: "second"}), port=port).start()
            assert request(endpoint, "who", {}, timeout=2, pool=pool) == "second"
        finally:
            server.stop()
            pool.close()

    def test_stop_returns_while_a_pooled_connection_is_idle(self):
        pool = ConnectionPool()
        server = WireServer(echo_dispatcher()).start()
        try:
            assert request(server.endpoint, "echo", {"n": 1}, pool=pool) == {"n": 1}
            stopper = threading.Thread(target=server.stop, daemon=True)
            started = time.monotonic()
            stopper.start()
            stopper.join(timeout=5)
            assert not stopper.is_alive() and time.monotonic() - started < 2
            with pytest.raises(ConnectionRefusedError):
                request(server.endpoint, "echo", {"n": 2}, timeout=2, pool=pool)
        finally:
            pool.close()

    def test_stop_lets_a_request_in_flight_finish(self):
        def slow(body):
            time.sleep(1.0)  # still running when stop shuts connections
            return body

        server = WireServer(Dispatcher({"slow": slow})).start()
        replies = []
        caller = threading.Thread(target=lambda: replies.append(request(server.endpoint, "slow", {"n": 1}, timeout=3)))
        caller.start()
        time.sleep(0.1)
        server.stop()
        caller.join(timeout=5)
        assert replies == [{"n": 1}]

    def test_an_interrupted_call_closes_its_socket_and_pools_nothing(self, monkeypatch):
        poll = select.poll

        class Interrupted:
            """A poller whose wait is cut short by Ctrl-C."""

            def __init__(self):
                self._poller = poll()

            def __getattr__(self, name):
                return getattr(self._poller, name)

            def poll(self, timeout=None):
                raise KeyboardInterrupt

        connected = []
        connect_ex = socket.socket.connect_ex

        def recorded(sock, address):
            connected.append(sock)
            return connect_ex(sock, address)

        monkeypatch.setattr(select, "poll", Interrupted)
        monkeypatch.setattr(socket.socket, "connect_ex", recorded)
        pool = ConnectionPool()
        # a listener that never accepts: the connect completes, and no reply ever comes
        with socket.create_server(("127.0.0.1", 0)) as hung:
            try:
                with pytest.raises(KeyboardInterrupt):
                    call("127.0.0.1:%d" % hung.getsockname()[1], Envelope.request("echo", {}), timeout=2, pool=pool)
                assert len(connected) == 1 and connected[0].fileno() == -1
                assert pool._idle == {}
            finally:
                pool.close()

    def test_one_idle_connection_is_kept_per_endpoint(self):
        callers = 3
        barrier = threading.Barrier(callers, timeout=5)

        def gather(body):
            barrier.wait()  # hold every caller on its own connection at once
            return thread_name(body)

        pool = ConnectionPool()
        try:
            with WireServer(Dispatcher({"who": gather})) as server:
                names = []
                threads = [
                    threading.Thread(target=lambda: names.append(request(server.endpoint, "who", {}, pool=pool)))
                    for _ in range(callers)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=5)
                assert not any(t.is_alive() for t in threads) and len(set(names)) == callers
                address = ("127.0.0.1", server.port)
                kept = [pool._checkout(address) for _ in range(callers)]
                assert sum(sock is not None for sock in kept) == 1
                for sock in kept:
                    if sock is not None:
                        sock.close()
        finally:
            pool.close()


class TestPolicyUri:
    def test_full_form(self):
        uri = parse_policy_uri("pdp://h1:7001,h2:7002,h3:7003/door-policy?consensus=majority")
        assert uri.endpoints == ("h1:7001", "h2:7002", "h3:7003")
        assert uri.policy_id == "door-policy"
        assert uri.consensus == "majority"
        assert uri.threshold is None

    def test_threshold_in_range(self):
        uri = parse_policy_uri("pdp://a:1,b:2,c:3/p?consensus=threshold-2")
        assert uri.consensus == "threshold"
        assert uri.threshold == 2

    def test_threshold_out_of_range(self):
        with pytest.raises(ValueError):
            parse_policy_uri("pdp://h1:7001/p?consensus=threshold-2")

    def test_bad_scheme(self):
        with pytest.raises(ValueError):
            parse_policy_uri("http://x/p")

    def test_empty_authority(self):
        with pytest.raises(ValueError):
            parse_policy_uri("pdp:///p")

    def test_bad_consensus_value(self):
        with pytest.raises(ValueError):
            parse_policy_uri("pdp://h:1/p?consensus=plurality")

    def test_default_consensus_is_majority(self):
        assert parse_policy_uri("pdp://h:1/p").consensus == "majority"

    def test_render_parse_round_trip(self):
        for text in (
            "pdp://h1:7001,h2:7002/door?consensus=unanimous",
            "pdp://local:r1,local:r2,local:r3/door?consensus=threshold-3",
            "pdp://h:1/p?consensus=majority",
        ):
            uri = parse_policy_uri(text)
            assert parse_policy_uri(uri.render()) == uri

    def test_multi_segment_path_rejected(self):
        with pytest.raises(ValueError):
            parse_policy_uri("pdp://h:1/a/b?consensus=majority")

    def test_render_form(self):
        uri = PolicyUri(endpoints=("h:1",), policy_id="p", consensus="threshold", threshold=1)
        assert uri.render() == "pdp://h:1/p?consensus=threshold-1"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


class TestCallFailures:
    """`request` either returns the reply body or raises one of CALL_FAILURES,
    and `failure_reason` names each failure the way every caller reports it."""

    @given(st.one_of(JSON_VALUES, JSON_VALUES.map(lambda value: {"error": value})))
    @settings(max_examples=150, deadline=None)
    def test_request_returns_the_body_or_raises_a_call_failure(self, body):
        name, endpoint = unique_local(Dispatcher({"answer": lambda _: body}), "answer")
        try:
            try:
                reply = request(endpoint, "answer", None, timeout=2)
            except CALL_FAILURES as exc:
                assert isinstance(body, dict) and "error" in body
                assert isinstance(exc, ServiceError if isinstance(body["error"], dict) else ProtocolError)
            else:
                assert reply == parse(canonical_bytes(body))
        finally:
            unregister_local(name)

    @pytest.mark.parametrize(
        "exc, reason",
        [
            (ServiceError("UnknownPolicy", "no policy"), "error:UnknownPolicy"),
            (TimeoutError("late"), "timeout"),
            (ConnectionRefusedError(111, "refused"), "unreachable"),
            (ConnectionResetError(104, "reset"), "malformed:ConnectionResetError"),
            (ProtocolError("closed"), "malformed:ProtocolError"),
            (ValueError("endpoint must be host:port"), "malformed:ValueError"),
        ],
    )
    def test_failure_reason(self, exc, reason):
        assert isinstance(exc, CALL_FAILURES) and failure_reason(exc) == reason


def test_only_wire_names_transport_failures():
    # the call-failure taxonomy is written once, in wire: no other module's except clause names its parts
    package = Path(ghub.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "wire.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                named = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
                named |= {n.attr for n in ast.walk(node.type) if isinstance(n, ast.Attribute)}
                offenders += [f"{path.name}:{node.lineno} {n}" for n in named & {"TimeoutError", "ConnectionRefusedError"}]
    assert offenders == []
