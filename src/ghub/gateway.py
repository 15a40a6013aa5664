"""Simulated IoT gateways: each has its own accounts, issues opaque bearer
tokens when an account is linked, and validates only those tokens on invoke.

Deliberately knows nothing about DIDs, registries, or policy decisions, and
must not import those modules; it stands in for an unmodified commercial
gateway. Every request it observes is logged so tests can prove what a
gateway did and did not see.
"""

from __future__ import annotations

import base64
import hashlib
import json
import secrets
import threading
import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass

from .wire import Dispatcher, WireServer

ACTIONS = ("read", "write", "actuate")
TOKEN_BYTES = 32
DEFAULT_TOKEN_LIFETIME = 3600
# the fields of one transcript entry, in the order assert_never_saw renders them
_LOG_FIELDS = ("timestamp", "token", "resource", "action", "payload", "outcome")


class BadCredentials(Exception):
    pass


@dataclass(frozen=True)
class GatewayResponse:
    status: str  # "OK" | "Rejected"
    body: object

    @property
    def ok(self) -> bool:
        return self.status == "OK"

    def to_json(self) -> dict:
        return {"status": self.status, "body": self.body}


def _hash_password(password: str, salt: bytes) -> str:
    return hashlib.sha256(salt + password.encode("utf-8")).hexdigest()


class Gateway:
    """One silo's controller: accounts, tokens, resources, and a call log."""

    def __init__(
        self,
        gateway_id: str,
        accounts: dict[str, str],
        resources: dict[str, object],
        token_lifetime: int = DEFAULT_TOKEN_LIFETIME,
    ):
        self.gateway_id = gateway_id
        self._lock = threading.Lock()
        self._accounts = {}
        for username, password in accounts.items():
            salt = secrets.token_bytes(16)
            self._accounts[username] = (salt, _hash_password(password, salt))
        self._tokens: dict[str, tuple[str, int, int]] = {}  # token -> (user, issued, expires)
        self._resources = dict(resources)
        self._token_lifetime = token_lifetime
        # every invoke as received, with its outcome, in three columns: its
        # timestamp, its payload, and the index in _kinds of its (token, resource,
        # action, outcome). Those rows recur, so each distinct one is stored
        # once; _kind_index finds it. _call and _entries read the columns back
        self._times: list = []
        self._kind_of = array("L")
        self._payloads: list = []
        self._kinds: list[tuple] = []
        self._kind_index: dict[tuple, int] = {}

    # -- account linking (OAuth-style, reduced to bearer tokens) -------------

    def link_account(self, username: str, password: str, now: int) -> str:
        with self._lock:
            entry = self._accounts.get(username)
            if entry is None or _hash_password(password, entry[0]) != entry[1]:
                raise BadCredentials(f"bad credentials for {username!r}")
            token = base64.b64encode(secrets.token_bytes(TOKEN_BYTES)).decode("ascii")
            self._tokens[token] = (username, now, now + self._token_lifetime)
            return token

    def seed_token(self, token: str, username: str, now: int, expires_at: int | None = None) -> None:
        """Pre-provision a token (config-driven deployments link out of band)."""
        with self._lock:
            self._tokens[token] = (username, now, expires_at if expires_at is not None else now + self._token_lifetime)

    # -- the invoke surface ---------------------------------------------------

    def invoke(self, token: str | None, resource: str, action: str, payload, now: int) -> GatewayResponse:
        with self._lock:
            outcome, body = self._invoke_locked(token, resource, action, payload, now)
            self._record(now, token, resource, action, outcome, payload)
        status = "OK" if outcome == "ok" else "Rejected"
        return GatewayResponse(status=status, body=body)

    def _record(self, now, token, resource, action, outcome: str, payload) -> None:
        kinds, times = self._kinds, self._times
        kind = (token, resource, action, outcome)
        index = len(kinds)
        # a row of strings (and a None token) is stored once; any other row is
        # stored alone, since values such as 1, 1.0 and True compare equal but render apart
        if (token is None or type(token) is str) and type(resource) is str and type(action) is str:
            index = self._kind_index.setdefault(kind, index)
        if index == len(kinds):
            kinds.append(kind)
        if type(now) is int and times and type(times[-1]) is int and times[-1] == now:
            now = times[-1]  # invokes in the same second share one int
        times.append(now)
        self._kind_of.append(index)
        self._payloads.append(payload)

    def _invoke_locked(self, token, resource, action, payload, now):
        entry = self._tokens.get(token) if token else None
        if entry is None:
            return "bad-token", {"reason": "bad-token"}
        if now >= entry[2]:
            return "expired-token", {"reason": "expired-token"}
        if resource not in self._resources:
            return "unknown-resource", {"reason": "unknown-resource"}
        if action not in ACTIONS:
            return "bad-action", {"reason": "bad-action"}
        if action == "read":
            return "ok", {"resource": resource, "value": self._resources[resource]}
        self._resources[resource] = payload
        return "ok", {"resource": resource, "value": payload}

    # -- observability hooks for tests ----------------------------------------

    @property
    def call_log(self) -> CallLog:
        """The invokes received so far, as a read-only sequence of five-key dicts."""
        with self._lock:
            return CallLog(self, len(self._times))

    def calls_since(self, start: int) -> list[dict]:
        """`call_log[start:]`, without building the entries before `start`."""
        return self.call_log[start:]

    def _call(self, index: int) -> dict:
        """A fresh copy of entry `index` of call_log."""
        with self._lock:
            timestamp = self._times[index]
            token, resource, action, outcome = self._kinds[self._kind_of[index]]
        return {
            "timestamp": timestamp,
            "token_presented": token is not None,
            "resource": resource,
            "action": action,
            "outcome": outcome,
        }

    def _entries(self):
        """The transcript as _LOG_FIELDS tuples; the caller holds the lock."""
        for timestamp, kind, payload in zip(self._times, self._kind_of, self._payloads):
            token, resource, action, outcome = self._kinds[kind]
            yield timestamp, token, resource, action, payload, outcome

    def resource_value(self, resource: str):
        with self._lock:
            return self._resources.get(resource)

    def assert_never_saw(self, pattern: str | bytes) -> bool:
        """True iff the pattern appears nowhere in anything this gateway received."""
        if isinstance(pattern, bytes):
            pattern = pattern.decode("utf-8", errors="replace")
        with self._lock:
            transcript = json.dumps([dict(zip(_LOG_FIELDS, entry)) for entry in self._entries()], default=str)
        return pattern not in transcript

    # -- service face ----------------------------------------------------------

    def dispatcher(self) -> Dispatcher:
        def _invoke(body):
            response = self.invoke(
                body.get("token"),
                str(body.get("resource", "")),
                str(body.get("action", "")),
                body.get("payload"),
                int(body.get("now", time.time())),
            )
            return response.to_json()

        return Dispatcher({"gateway.invoke": _invoke})


class CallLog(Sequence):
    """The first `len` entries of a gateway's transcript, as call_log reads
    them. Each item is built when it is read, so a caller that walks the log
    holds one entry at a time, and each is a fresh dict the caller may change.
    Invokes made after the view was taken are not in it. A slice is a list."""

    __slots__ = ("_gateway", "_len")

    def __init__(self, gateway: Gateway, length: int):
        self._gateway = gateway
        self._len = length

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._gateway._call(i) for i in range(self._len)[index]]
        return self._gateway._call(range(self._len)[index])

    def __iter__(self):
        for i in range(self._len):
            yield self._gateway._call(i)

    def __eq__(self, other):
        if not isinstance(other, (list, CallLog)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"CallLog({list(self)!r})"


def serve_gateway(gateway: Gateway, host: str = "127.0.0.1", port: int = 0) -> WireServer:
    return WireServer(gateway.dispatcher(), host, port).start()
