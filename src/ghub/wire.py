"""Request/response messaging shared by every service: newline-delimited
canonical-JSON envelopes over TCP, plus an in-process transport with the
same call contract so integration tests run without sockets.

An envelope is {"id","op","body","version"}; the id is echoed verbatim in
the response, and an unknown op yields a structured error, never a dropped
connection. Frames are capped at 1 MiB including the trailing newline.
Both transports answer through `_answer`, so a `local:` call is a TCP call
minus the socket: request and reply are encoded, size-checked and decoded,
and caller and callee share no objects.

Every client call is one round: `call` and `request` are a round of one
endpoint, and `request_all` sends one request to several at once (the PDP
votes). A round writes every TCP request from the calling thread and reads
the replies in one poll loop, so it starts no thread. A TCP call opens a
connection and closes it after the reply, unless the caller passes a
ConnectionPool: a long-lived caller of its own back ends (the hub) keeps one
connection to each alive in one, and so does an owner's RegistryClient; a
guest's HubClient does not. A WireServer is one accept thread; WORKERS, the
process-wide long-lived threads, run a `local:` call's handler and each
connection a WireServer accepts, for as long as it stays open; so a
one-shot connection starts no thread when a worker is idle.

A call that gets no usable answer raises one of CALL_FAILURES, and
`failure_reason` names it in the words the PDP, the hub and the CLI all
report: `error:<code>` for an error body, `timeout`, `unreachable` for a
refused connection, and `malformed:<Type>` for anything else (a dropped
connection, a reply that does not decode, an endpoint that does not parse).
"""

from __future__ import annotations

import errno
import functools
import itertools
import os
import queue
import secrets
import select
import socket
import sys
import threading
import time
import traceback
from concurrent.futures import Future, TimeoutError as FutureTimeout, wait as futures_wait
from dataclasses import dataclass
from typing import Any, Callable, Sequence, TypeVar

from .canonical import canonical_bytes, parse

MAX_FRAME = 1 << 20  # bytes, newline included
PROTOCOL_VERSION = 1


class WireError(Exception):
    pass


class FrameTooLarge(WireError):
    pass


class ProtocolError(WireError):
    pass


class ServiceError(Exception):
    """Application-level failure carried in a response body as {"error": ...}."""

    def __init__(self, code: str, message: str = ""):
        super().__init__(f"{code}: {message}" if message else code)
        self.code = code
        self.message = message


# What `call` and `request` raise when they get no usable answer; ValueError
# is an endpoint that does not parse. A caller catches exactly these.
CALL_FAILURES = (ServiceError, OSError, WireError, ValueError)


T = TypeVar("T")


def read_reply(endpoint: str, body: Any, read: Callable[[Any], T]) -> T:
    """`read(body)`, with a reply body that lacks a field `read` needs, or
    holds one of the wrong type, raised as ProtocolError: so a client that
    reads a reply still raises only CALL_FAILURES."""
    try:
        return read(body)
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise ProtocolError(f"malformed reply from {endpoint}: {type(exc).__name__}: {exc}") from exc


def failure_reason(exc: BaseException) -> str:
    """The name of a failed call, as a vote, a hub error or the CLI reports it."""
    if isinstance(exc, ServiceError):
        return f"error:{exc.code}"
    if isinstance(exc, TimeoutError):
        return "timeout"
    if isinstance(exc, ConnectionRefusedError):
        return "unreachable"
    return f"malformed:{type(exc).__name__}"


# Correlation ids: the counter keeps them unique within the process (its
# next() is atomic under the GIL), the random prefix across processes.
_ID_PREFIX = secrets.token_hex(8)
_next_id = itertools.count().__next__


@dataclass(frozen=True, slots=True)
class Envelope:
    id: str
    op: str
    body: Any
    version: int = PROTOCOL_VERSION

    @classmethod
    def request(cls, op: str, body: Any) -> "Envelope":
        return cls(id=f"{_ID_PREFIX}-{_next_id()}", op=op, body=body)

    def reply(self, body: Any) -> "Envelope":
        return Envelope(id=self.id, op=self.op, body=body)


def encode_frame(envelope: Envelope) -> bytes:
    try:
        payload = canonical_bytes(
            {
                "id": envelope.id,
                "op": envelope.op,
                "body": envelope.body,
                "version": envelope.version,
            }
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"unencodable envelope body: {exc}") from exc
    frame = payload + b"\n"
    if len(frame) > MAX_FRAME:
        raise FrameTooLarge(f"frame is {len(frame)} bytes, limit {MAX_FRAME}")
    return frame


def _envelope_from_obj(obj: Any) -> Envelope:
    if not isinstance(obj, dict):
        raise ProtocolError("envelope is not a JSON object")
    for name in ("id", "op", "version"):
        if name not in obj:
            raise ProtocolError(f"envelope is missing required field {name!r}")
    if "body" not in obj:
        raise ProtocolError("envelope is missing required field 'body'")
    if not isinstance(obj["id"], str) or not isinstance(obj["op"], str):
        raise ProtocolError("envelope id and op must be strings")
    if not isinstance(obj["version"], int) or isinstance(obj["version"], bool):
        raise ProtocolError("envelope version must be an integer")
    return Envelope(id=obj["id"], op=obj["op"], body=obj["body"], version=obj["version"])


def decode_frame(data: bytes) -> Envelope:
    """Decode exactly one frame (trailing newline optional)."""
    if len(data) > MAX_FRAME:
        raise FrameTooLarge(f"frame is {len(data)} bytes, limit {MAX_FRAME}")
    line = data.rstrip(b"\n")
    if b"\n" in line:
        raise ProtocolError("more than one frame in input")
    try:
        obj = parse(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed frame: {exc}") from exc
    return _envelope_from_obj(obj)


def decode_frames(data: bytes) -> list[Envelope]:
    """Decode a buffer of concatenated frames, in order."""
    out = []
    for line in data.split(b"\n"):
        if line:
            out.append(decode_frame(line))
    return out


class Dispatcher:
    """Routes envelopes to per-op handlers, mapping failures to error bodies."""

    def __init__(self, handlers: dict[str, Callable[[Any], Any]]):
        self._handlers = dict(handlers)

    def handle(self, envelope: Envelope) -> Envelope:
        handler = self._handlers.get(envelope.op)
        if handler is None:
            return envelope.reply(_error_body("UnknownOp", f"unsupported op {envelope.op!r}"))
        try:
            return envelope.reply(handler(envelope.body))
        except ServiceError as exc:
            return envelope.reply(_error_body(exc.code, exc.message))
        except Exception as exc:  # never leak a traceback over the wire
            return envelope.reply(_error_body("Internal", f"{type(exc).__name__}: {exc}"))


def _error_body(code: str, message: str) -> dict:
    return {"error": {"code": code, "message": message}}


def _error_frame(code: str, message: str) -> bytes:
    return encode_frame(Envelope(id="", op="", body=_error_body(code, message)))


def _answer(dispatcher, frame: bytes) -> bytes:
    """The reply frame to one request frame: both transports answer through
    here. A frame that does not decode gets a ProtocolError reply, and a reply
    that does not encode an Internal one; `dispatcher.handle` may raise."""
    try:
        envelope = decode_frame(frame)
    except WireError as exc:
        return _error_frame("ProtocolError", str(exc))
    reply = dispatcher.handle(envelope)
    try:
        return encode_frame(reply)
    except WireError as exc:  # handler returned something unencodable
        return encode_frame(reply.reply(_error_body("Internal", str(exc))))


# ---------------------------------------------------------------------------
# Long-lived workers

class _Fanout:
    """Runs every task at once, on an idle worker thread if there is one and
    on a new thread if not. A task never waits behind busy workers, so hung
    replicas named by one policy cannot delay the votes of another, and a
    task may submit to the same workers and wait without deadlock. A task
    that raises settles its future with the exception. A worker left idle
    for `idle_seconds` exits."""

    def __init__(self, idle_seconds: float):
        self._idle_seconds = idle_seconds
        self._idle: list[queue.SimpleQueue] = []  # one inbox per idle worker, most recent last
        self._lock = threading.Lock()

    def submit(self, fn, arg) -> Future:
        future = Future()
        task = (future, fn, arg)
        with self._lock:
            inbox = self._idle.pop() if self._idle else None
        if inbox is None:
            threading.Thread(target=self._work, args=(task,), name="ghub-worker", daemon=True).start()
        else:
            inbox.put(task)
        return future

    def _work(self, task) -> None:
        inbox = queue.SimpleQueue()
        while True:
            future, fn, arg = task
            future.set_running_or_notify_cancel()
            try:
                outcome, settle = fn(arg), future.set_result
            except Exception as exc:
                outcome, settle = exc, future.set_exception
            # idle again before the outcome is out, so a caller's next task finds this worker
            with self._lock:
                self._idle.append(inbox)
            settle(outcome)
            try:
                task = inbox.get(timeout=self._idle_seconds)
            except queue.Empty:
                with self._lock:
                    if inbox in self._idle:
                        self._idle.remove(inbox)
                        return
                task = inbox.get()  # a task was handed over as the wait ran out


# The workers that run `local:` calls (a `local:` PDP vote among them) and
# the connections a WireServer accepts. Idle as long as a call's default
# deadline, so steady traffic keeps its workers and the extra threads of a
# burst are gone soon after it.
WORKERS = _Fanout(idle_seconds=5.0)


# ---------------------------------------------------------------------------
# In-process transport

_local_lock = threading.Lock()
_local_endpoints: dict[str, Dispatcher] = {}

LOCAL_PREFIX = "local:"


def register_local(name: str, dispatcher: Dispatcher) -> str:
    """Expose a dispatcher under "local:<name>"; returns the endpoint string."""
    with _local_lock:
        if name in _local_endpoints:
            raise ValueError(f"local endpoint {name!r} already registered")
        _local_endpoints[name] = dispatcher
    return LOCAL_PREFIX + name


def unregister_local(name: str) -> None:
    with _local_lock:
        _local_endpoints.pop(name, None)


# ---------------------------------------------------------------------------
# TCP transport

class WireServer:
    """A TCP frame server bound to one dispatcher.

    One accept thread hands each connection to one of the shared WORKERS,
    which serves it for as long as it stays open; requests pipelined on one
    connection get their responses in arrival order, matched by envelope id.
    `stop` wakes the blocked accept by shutting the listening socket down:
    at once on Linux; a platform where that leaves accept blocked waits 5 s.
    """

    def __init__(self, dispatcher: Dispatcher, host: str = "127.0.0.1", port: int = 0):
        self._dispatcher = dispatcher
        self._listener = socket.create_server((host, port))
        host, self.port = self._listener.getsockname()[:2]  # kept, so both still read after stop
        self.endpoint = f"{host}:{self.port}"
        self._accepting: threading.Thread | None = None
        self._stopping = False
        self._open: dict[socket.socket, Future] = {}  # connection -> its serve loop, until that settles
        self._lock = threading.Lock()

    def start(self) -> "WireServer":
        self._accepting = threading.Thread(target=self._accept, name=f"ghub-accept {self.endpoint}", daemon=True)
        self._accepting.start()
        return self

    def stop(self) -> None:
        """Stop serving and close the listening socket; a server never started
        only closes it, and a second stop does nothing more. Open connections
        have their read side shut, so an idle one ends at once and one
        mid-request still gets its reply; stop waits up to 5 s for them."""
        self._stopping = True
        if self._accepting is not None:
            try:
                self._listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
            except OSError:
                pass
            self._accepting.join(timeout=5)
            self._accepting = None
            with self._lock:
                open_now = dict(self._open)
            for sock in open_now:
                try:
                    sock.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
            futures_wait(open_now.values(), 5)
        self._listener.close()

    def _accept(self) -> None:
        while not self._stopping:
            try:
                sock, peer = self._listener.accept()
            except OSError:
                continue  # stop shut the listener, or a connection failed before it was accepted
            serving = WORKERS.submit(self._serve, (sock, peer))
            with self._lock:
                self._open[sock] = serving
            serving.add_done_callback(lambda _, sock=sock: self._forget(sock))  # runs at once if already settled

    def _forget(self, sock: socket.socket) -> None:
        with self._lock:
            self._open.pop(sock, None)

    def _serve(self, connection: tuple[socket.socket, tuple]) -> None:
        sock, peer = connection
        worker = threading.current_thread()
        idle_name, worker.name = worker.name, f"ghub-conn {peer[0]}:{peer[1]}"
        try:
            with sock, sock.makefile("rb") as frames:
                # a stopped server answers no request read after its stop
                while (line := frames.readline(MAX_FRAME + 1)) and not self._stopping:
                    if len(line) > MAX_FRAME:
                        # cannot resync inside an oversize line; drop the connection
                        sock.sendall(_error_frame("FrameTooLarge", "frame exceeds 1 MiB"))
                        return
                    sock.sendall(_answer(self._dispatcher, line))
        except OSError:
            pass  # the peer went away, or stop shut the connection
        except Exception:  # ends this connection only; the server keeps serving
            print(f"ghub: error serving {peer[0]}:{peer[1]}", file=sys.stderr)
            traceback.print_exc()
        finally:
            worker.name = idle_name

    def __enter__(self) -> "WireServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def _received(buf: bytearray, chunk: bytes) -> bytes | None:
    """Add a chunk read from a socket to `buf`; the response frame once it is whole."""
    if not chunk:
        raise ProtocolError("connection closed before a full frame arrived")
    buf += chunk
    if len(buf) > MAX_FRAME:
        raise FrameTooLarge("response frame exceeds 1 MiB")
    return bytes(buf) if buf.endswith(b"\n") else None


def _matched(envelope: Envelope, response: Envelope) -> Envelope:
    if response.id != envelope.id:
        raise ProtocolError(f"response id {response.id!r} does not match request {envelope.id!r}")
    return response


def _address(endpoint: str) -> tuple[str, int]:
    host, _, port_text = endpoint.rpartition(":")
    if not host or not port_text.isdigit():
        raise ValueError(f"endpoint must be host:port or local:name, got {endpoint!r}")
    return host, int(port_text)


class ConnectionPool:
    """Kept-alive TCP connections: at most one idle socket per endpoint.

    Each socket is handed to one caller at a time. A caller that finds its
    endpoint's socket in use connects afresh, and that surplus socket is
    closed after the reply unless the endpoint's slot is empty again. A
    socket that saw any error or timeout is closed, never returned, so a late
    reply cannot be read as the next call's answer; an idle socket that
    became readable (the peer closed it) is dropped before anything is sent
    on it. A request once written is never resent.
    """

    def __init__(self):
        self._idle: dict[tuple[str, int], socket.socket] = {}
        self._closed = False
        self._lock = threading.Lock()

    def _checkout(self, address: tuple[str, int]) -> socket.socket | None:
        with self._lock:
            sock = self._idle.pop(address, None)
        if sock is None or _quiet(sock):
            return sock
        sock.close()
        return None

    def _checkin(self, address: tuple[str, int], sock: socket.socket) -> None:
        with self._lock:
            if not self._closed and address not in self._idle:
                self._idle[address] = sock
                return
        sock.close()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle = list(self._idle.values())
            self._idle.clear()
        for sock in idle:
            sock.close()


def _quiet(sock: socket.socket) -> bool:
    """True iff nothing is waiting on an idle socket: no unasked-for bytes and no close."""
    sock.setblocking(False)
    try:
        sock.recv(1, socket.MSG_PEEK)
    except BlockingIOError:
        return True
    except OSError:
        pass
    return False


def call(endpoint: str, envelope: Envelope, timeout: float = 5.0, pool: ConnectionPool | None = None) -> Envelope:
    """Send one envelope to "host:port" or "local:name" and return the
    correlated response. A call that gets no usable answer raises one of
    CALL_FAILURES: TimeoutError, ConnectionRefusedError or another OSError, a
    WireError (id mismatch, malformed response), or a ValueError for an
    endpoint that does not parse. Without a pool, a TCP call opens a
    connection and closes it after the reply; with one, it borrows a
    kept-alive connection to the endpoint. It is a round of one endpoint.
    """
    outcome = _round((endpoint,), envelope, timeout, pool)[0]
    if isinstance(outcome, Envelope):
        return outcome
    raise outcome


def request(endpoint: str, op: str, body: Any, timeout: float = 5.0, pool: ConnectionPool | None = None) -> Any:
    """`call` with a fresh correlation id, returning the reply body: an error
    body is raised as ServiceError, and one that is not an object as
    ProtocolError."""
    return _reply_body(endpoint, call(endpoint, Envelope.request(op, body), timeout=timeout, pool=pool))


def _reply_body(endpoint: str, response: Envelope) -> Any:
    if isinstance(response.body, dict) and "error" in response.body:
        err = response.body["error"]
        if not isinstance(err, dict):
            raise ProtocolError(f"error body from {endpoint} is not an object")
        raise ServiceError(str(err.get("code", "Unknown")), str(err.get("message", "")))
    return response.body


def request_all(
    endpoints: Sequence[str], op: str, body: Any, timeout: float = 5.0, pool: ConnectionPool | None = None
) -> list:
    """One request to every endpoint at once, all under one deadline: for
    each endpoint in order, its reply body or the exception `request` would
    have raised for it."""
    results = _round(endpoints, Envelope.request(op, body), timeout, pool)
    for i, outcome in enumerate(results):
        if isinstance(outcome, Envelope):
            try:
                results[i] = _reply_body(endpoints[i], outcome)
            except CALL_FAILURES as exc:
                results[i] = exc
    return results


def _round(endpoints: Sequence[str], envelope: Envelope, timeout: float, pool: ConnectionPool | None) -> list:
    """Send `envelope` to every endpoint at once; for each endpoint in order,
    its matched reply Envelope or the exception its call raises (one of
    CALL_FAILURES, or whatever else decoding the reply raised).

    The frame is encoded once. A `local:` endpoint's handler runs on WORKERS.
    Every TCP request is written from the calling thread, on a pooled socket
    at once or on a fresh one when its non-blocking connect completes, and
    the replies are read in one poll loop; so TCP starts no thread. A socket
    is pooled only after a reply that decoded and matched its request; one
    that saw an error or the deadline is closed, and so is every socket
    still open when the round raises (KeyboardInterrupt too).
    """
    if timeout <= 0:
        raise ValueError("timeout must be positive")
    deadline = time.monotonic() + timeout
    try:
        frame = encode_frame(envelope)
    except WireError as exc:
        return [exc] * len(endpoints)
    results: list = [None] * len(endpoints)
    answering: list[tuple[int, str, Future]] = []  # (endpoint index, local name, its handler's future)
    reading: dict[int, tuple[int, _Exchange]] = {}  # socket fd -> (endpoint index, its exchange)
    poller = select.poll()
    try:
        for i, endpoint in enumerate(endpoints):
            if endpoint.startswith(LOCAL_PREFIX):
                name = endpoint[len(LOCAL_PREFIX):]
                with _local_lock:
                    dispatcher = _local_endpoints.get(name)
                if dispatcher is None:
                    results[i] = ConnectionRefusedError(f"no local endpoint {name!r}")
                else:
                    answering.append((i, name, WORKERS.submit(functools.partial(_answer, dispatcher), frame)))
                continue
            try:
                exchange = _Exchange(frame, _address(endpoint), pool)
            except Exception as exc:  # as any failure below: it fails this endpoint's call, not the round
                results[i] = exc
                continue
            fd = exchange.sock.fileno()
            reading[fd] = (i, exchange)
            poller.register(fd, exchange.events())

        while reading and (remaining := deadline - time.monotonic()) > 0:
            for fd, _ in poller.poll(remaining * 1000):
                i, exchange = reading[fd]
                try:
                    frame_in = exchange.step()
                    if frame_in is None:
                        if (moved := exchange.sock.fileno()) != fd:  # a refused connect went on to the next address
                            poller.unregister(fd)
                            reading[moved] = reading.pop(fd)
                        poller.register(moved, exchange.events())
                        continue
                    results[i] = _matched(envelope, decode_frame(frame_in))
                except Exception as exc:  # a reply may make decoding raise anything, RecursionError too
                    results[i] = exc
                del reading[fd]  # before the socket is pooled, so the finally below cannot close it
                poller.unregister(fd)
                if pool is None or not isinstance(results[i], Envelope):
                    exchange.close()
                else:
                    pool._checkin(exchange.address, exchange.sock)
        for i, _ in reading.values():
            results[i] = TimeoutError(f"no response from {endpoints[i]} within {timeout}s")
    finally:
        for _, exchange in reading.values():
            exchange.close()

    for i, name, answer in answering:
        try:
            error = answer.exception(max(0.0, deadline - time.monotonic()))
            if error is not None:
                raise ProtocolError(f"local endpoint {name!r} produced no response") from error
            results[i] = _matched(envelope, decode_frame(answer.result()))
        except FutureTimeout:
            results[i] = TimeoutError(f"local endpoint {name!r} did not answer within {timeout}s")
        except Exception as exc:
            results[i] = exc
    return results


class _Exchange:
    """One TCP request of a round: a pooled socket or a non-blocking connect,
    then the request written and one frame read, each step taken when poll
    says the socket is ready for it."""

    __slots__ = ("address", "sock", "connected", "candidates", "out", "buf")

    def __init__(self, frame: bytes, address: tuple[str, int], pool: ConnectionPool | None):
        self.address = address
        self.out = frame
        self.buf = bytearray()
        self.sock: socket.socket | None = pool._checkout(address) if pool is not None else None
        self.connected = self.sock is not None
        self.candidates: list = []
        try:
            if self.connected:
                self.step()  # the request goes out at once
            else:
                # each address getaddrinfo gives, in turn, until one connects
                self.candidates = socket.getaddrinfo(*address, 0, socket.SOCK_STREAM)
                self._connect(OSError("getaddrinfo returns an empty list"))
        except BaseException:
            self.close()
            raise

    def _connect(self, error: OSError) -> None:
        while self.candidates:
            family, kind, proto, _, sockaddr = self.candidates.pop(0)
            self.sock = socket.socket(family, kind, proto)
            self.sock.setblocking(False)
            code = self.sock.connect_ex(sockaddr)
            if code in (0, errno.EINPROGRESS):
                return
            self.close()
            error = OSError(code, os.strerror(code))  # ConnectionRefusedError for ECONNREFUSED
        raise error

    def events(self) -> int:
        return select.POLLOUT if self.out else select.POLLIN  # a connect pending has all of `out` left

    def step(self) -> bytes | None:
        """Take the step the socket is ready for; the reply frame once it is whole."""
        if not self.connected:
            code = self.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            if code:
                self.close()
                self._connect(OSError(code, os.strerror(code)))
                return None
            self.connected = True
        try:
            if self.out:
                sent = self.sock.send(self.out)
                # a view only of what a partial send left: a whole send, the usual case, copies nothing
                self.out = memoryview(self.out)[sent:] if sent < len(self.out) else b""
                return None
            chunk = self.sock.recv(65536)
        except BlockingIOError:  # a wake-up with nothing to do after all
            return None
        return _received(self.buf, chunk)

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None
