"""Request/response messaging shared by every service: newline-delimited
canonical-JSON envelopes over TCP, plus an in-process transport with the
same call contract so integration tests run without sockets.

An envelope is {"id","op","body","version"}; the id is echoed verbatim in
the response, and an unknown op yields a structured error, never a dropped
connection. Frames are capped at 1 MiB including the trailing newline.

A TCP call opens a connection and closes it after the reply, unless the
caller passes a ConnectionPool: a long-lived caller of its own back ends
(the hub) keeps one connection to each alive in one, and so does an owner's
RegistryClient; a guest's HubClient does not. WORKERS, the
process-wide long-lived threads, run a `local:` call's handler, the PDP
votes, and each connection a WireServer accepts, for as long as it stays
open; so a one-shot connection starts no thread when a worker is idle.
"""

from __future__ import annotations

import queue
import socket
import socketserver
import threading
import time
import uuid
from concurrent.futures import Future, TimeoutError as FutureTimeout, wait as futures_wait
from dataclasses import dataclass
from typing import Any, Callable

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


@dataclass(frozen=True, slots=True)
class Envelope:
    id: str
    op: str
    body: Any
    version: int = PROTOCOL_VERSION

    @classmethod
    def request(cls, op: str, body: Any) -> "Envelope":
        return cls(id=str(uuid.uuid4()), op=op, body=body)

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


# The workers that run PDP votes, `local:` calls and the connections a
# WireServer accepts. Idle as long as a call's default deadline, so steady
# traffic keeps its workers and the extra threads of a burst are gone soon after it.
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


def _local_call(name: str, envelope: Envelope, timeout: float) -> Envelope:
    with _local_lock:
        dispatcher = _local_endpoints.get(name)
    if dispatcher is None:
        raise ConnectionRefusedError(f"no local endpoint {name!r}")
    future = WORKERS.submit(dispatcher.handle, envelope)
    try:
        error = future.exception(timeout)
    except FutureTimeout:
        raise TimeoutError(f"local endpoint {name!r} did not answer within {timeout}s") from None
    if error is not None:
        raise ProtocolError(f"local endpoint {name!r} produced no response") from error
    return future.result()


# ---------------------------------------------------------------------------
# TCP transport

class _FrameHandler(socketserver.StreamRequestHandler):
    def handle(self):
        while True:
            try:
                line = self.rfile.readline(MAX_FRAME + 1)
            except (ConnectionError, OSError):
                return
            if not line or self.server.stopping:  # type: ignore[attr-defined]
                return  # a stopped server answers no request read after its stop
            if len(line) > MAX_FRAME:
                self._reply(Envelope(id="", op="", body=_error_body("FrameTooLarge", "frame exceeds 1 MiB")))
                return  # cannot resync inside an oversize line; drop the connection
            try:
                envelope = decode_frame(line)
            except WireError as exc:
                self._reply(Envelope(id="", op="", body=_error_body("ProtocolError", str(exc))))
                continue
            self._reply(self.server.dispatcher.handle(envelope))  # type: ignore[attr-defined]

    def _reply(self, envelope: Envelope) -> None:
        try:
            frame = encode_frame(envelope)
        except WireError as exc:  # handler returned something unserializable
            frame = encode_frame(envelope.reply(_error_body("Internal", str(exc))))
        try:
            self.wfile.write(frame)
            self.wfile.flush()
        except (ConnectionError, OSError):
            pass


class _TcpServer(socketserver.TCPServer):
    """Serves each accepted connection on one of WORKERS until it closes."""

    allow_reuse_address = True

    def __init__(self, address, handler):
        super().__init__(address, handler)
        self.stopping = False
        self._open: dict[socket.socket, Future] = {}  # connection -> its serve loop, until that settles
        self._lock = threading.Lock()

    def process_request(self, request, client_address):
        serving = WORKERS.submit(self._serve, (request, client_address))
        with self._lock:
            self._open[request] = serving
        serving.add_done_callback(lambda _: self._forget(request))  # runs at once if already settled

    def _serve(self, connection) -> None:
        request, client_address = connection
        worker = threading.current_thread()
        idle_name, worker.name = worker.name, f"ghub-conn {client_address[0]}:{client_address[1]}"
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)
            worker.name = idle_name

    def _forget(self, request) -> None:
        with self._lock:
            self._open.pop(request, None)

    def end_connections(self, timeout: float) -> None:
        """Close every accepted connection, waiting up to `timeout` for their
        serve loops to end and their workers to be idle again. Only the read
        side is shut: that ends a blocked read of an idle connection, and a
        connection mid-request still gets its reply, then is read no further."""
        with self._lock:
            self.stopping = True
            open_now = dict(self._open)
        for sock in open_now:
            try:
                sock.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        futures_wait(open_now.values(), timeout)


class WireServer:
    """A TCP frame server bound to one dispatcher.

    Handles concurrent connections, each on one of the shared WORKERS for as
    long as it stays open; requests pipelined on one connection get their
    responses in arrival order, matched by envelope id.
    """

    def __init__(self, dispatcher: Dispatcher, host: str = "127.0.0.1", port: int = 0):
        self._server = _TcpServer((host, port), _FrameHandler)
        self._server.dispatcher = dispatcher  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def endpoint(self) -> str:
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def start(self) -> "WireServer":
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and close the listening socket; a server never started
        only closes it, and a second stop does nothing more."""
        if self._thread is not None:
            self._server.shutdown()  # waits for serve_forever, so only once it runs
            self._server.end_connections(timeout=5)
            self._thread.join(timeout=5)
            self._thread = None
        self._server.server_close()

    def __enter__(self) -> "WireServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def _remaining(deadline: float) -> float:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("timed out waiting for response frame")
    return remaining


def _read_frame(sock: socket.socket, deadline: float) -> bytes:
    buf = bytearray()
    while True:
        sock.settimeout(_remaining(deadline))
        try:
            chunk = sock.recv(65536)
        except socket.timeout as exc:
            raise TimeoutError("timed out waiting for response frame") from exc
        if not chunk:
            raise ProtocolError("connection closed before a full frame arrived")
        buf.extend(chunk)
        if len(buf) > MAX_FRAME:
            raise FrameTooLarge("response frame exceeds 1 MiB")
        if buf.endswith(b"\n"):
            return bytes(buf)


def _matched(envelope: Envelope, response: Envelope) -> Envelope:
    if response.id != envelope.id:
        raise ProtocolError(f"response id {response.id!r} does not match request {envelope.id!r}")
    return response


def _exchange(sock: socket.socket, envelope: Envelope, deadline: float) -> Envelope:
    """Send one request on a connected socket and read its correlated response."""
    frame = encode_frame(envelope)
    sock.settimeout(_remaining(deadline))
    sock.sendall(frame)
    return _matched(envelope, decode_frame(_read_frame(sock, deadline)))


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

    def call(self, address: tuple[str, int], envelope: Envelope, deadline: float) -> Envelope:
        sock = self._checkout(address)
        if sock is None:
            sock = socket.create_connection(address, timeout=_remaining(deadline))
        try:
            response = _exchange(sock, envelope, deadline)
        except BaseException:
            sock.close()
            raise
        self._checkin(address, sock)
        return response

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
    """Send one envelope and return the correlated response.

    Raises TimeoutError, ConnectionRefusedError, or ProtocolError (id
    mismatch, malformed response). Endpoints are "host:port" or "local:name".
    Without a pool, a TCP call opens a connection and closes it after the
    reply; with one, it borrows a kept-alive connection to the endpoint.
    """
    if timeout <= 0:
        raise ValueError("timeout must be positive")
    if endpoint.startswith(LOCAL_PREFIX):
        return _matched(envelope, _local_call(endpoint[len(LOCAL_PREFIX):], envelope, timeout))
    address = _address(endpoint)
    deadline = time.monotonic() + timeout
    try:
        if pool is not None:
            return pool.call(address, envelope, deadline)
        with socket.create_connection(address, timeout=timeout) as sock:
            return _exchange(sock, envelope, deadline)
    except socket.timeout as exc:
        raise TimeoutError(f"no response from {endpoint} within {timeout}s") from exc


def request(endpoint: str, op: str, body: Any, timeout: float = 5.0, pool: ConnectionPool | None = None) -> Any:
    """Convenience wrapper: fresh correlation id, error bodies raised as ServiceError."""
    response = call(endpoint, Envelope.request(op, body), timeout=timeout, pool=pool)
    if isinstance(response.body, dict) and "error" in response.body:
        err = response.body["error"]
        raise ServiceError(str(err.get("code", "Unknown")), str(err.get("message", "")))
    return response.body
