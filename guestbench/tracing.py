"""Spans for the traced run, recorded around the program's public functions.

Each traced name is patched where its caller looks it up: a function is
replaced in every `ghub` module that imported it, a method on its class, and
`socket.create_connection` and `threading.Thread.start` on their module and class. Spans
stay in memory until the run ends. The benchmark drives one operation at a time
from one thread, so every span that starts inside an operation's window
belongs to that operation, whichever server thread recorded it.
"""

from __future__ import annotations

import bisect
import functools
import socket
import sys
import threading
import time
from collections import defaultdict

from ghub import canonical, gateway, hub, identity, pdp, registry, wire

# (owner, attribute, span name, key of the span or None)
METHODS = (
    (wire.Dispatcher, "handle", "wire.handle", lambda a: a[1].id),
    (identity.Keypair, "sign", "identity.sign", None),
    (registry.Registry, "resolve", "registry.resolve", None),
    (registry.Registry, "submit", "registry.submit", None),
    (pdp.PdpReplica, "evaluate_policy", "pdp.evaluate", None),
    (hub.Hub, "access", "hub.access", None),
    (hub.Hub, "authorize", "hub.authorize", None),
    (hub.Hub, "begin_auth", "hub.begin_auth", None),
    (hub.Hub, "complete_auth", "hub.complete_auth", None),
    (gateway.Gateway, "invoke", "gateway.invoke", None),
    (wire, "call", "wire.call", lambda a: a[1].id),
    (pdp, "decide", "pdp.decide", None),
    (pdp, "request", "pdp.replica_call", None),
    (socket, "create_connection", "wire.connect", None),
    (threading.Thread, "start", "thread.start", lambda a: a[0].name),
)
# functions imported by name into several modules: patched in each of them
SHARED = (
    (canonical.canonical_bytes, "canonical.encode"),
    (canonical.parse, "canonical.parse"),
    (identity.verify_signature, "identity.verify"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, object]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, name: str, key) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans = self.spans
        now = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            t0 = now()
            try:
                return original(*args, **kwargs)
            finally:
                spans.append((name, t0, now(), key(args) if key else None))

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        for owner, attr, name, key in METHODS:
            self._patch(owner, attr, name, key)
        modules = [m for n, m in sys.modules.items() if n.startswith("ghub.")]
        for function, name in SHARED:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is function:
                        self._patch(module, attr, name, None)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------------

    def by_operation(self, windows: list[tuple[str, float, float]]) -> dict[str, list]:
        """Spans grouped by name as (start, end, key, operation index); spans
        outside every operation window (warm-up, checks) are dropped."""
        starts = [w[1] for w in windows]
        grouped: dict[str, list] = defaultdict(list)
        for name, t0, t1, key in self.spans:
            i = bisect.bisect_right(starts, t0) - 1
            if i >= 0 and t0 <= windows[i][2]:
                grouped[name].append((t0, t1, key, i))
        return grouped

    def layer_metrics(self, windows, chain_bytes_per_tx: float) -> dict[str, tuple[float, str]]:
        spans = self.by_operation(windows)
        n_ops = len(windows)
        kinds = [w[0] for w in windows]
        n_access = kinds.count("access")
        n_auth = kinds.count("auth")

        def count(name):
            return len(spans[name])

        def total_ms(name):
            return 1000.0 * sum(t1 - t0 for t0, t1, _, _ in spans[name])

        def mean_ms(name):
            return total_ms(name) / max(1, count(name))

        handle_ms = {key: 1000.0 * (t1 - t0) for t0, t1, key, _ in spans["wire.handle"]}
        transport = [1000.0 * (t1 - t0) - handle_ms[key] for t0, t1, key, _ in spans["wire.call"] if key in handle_ms]

        resolves_by_op = defaultdict(list)
        for t0, _, _, i in spans["registry.resolve"]:
            resolves_by_op[i].append(t0)
        hits = sum(
            1
            for a0, a1, _, i in spans["hub.authorize"]
            if not any(a0 <= r0 <= a1 for r0 in resolves_by_op[i])
        )

        # a server names each connection's thread after process_request_thread;
        # the only other threads started inside an operation are the fan-out
        # pool's, whose number per decide depends on whether a worker is idle
        # again before the next vote is submitted
        server_threads = sum(1 for _, _, name, _ in spans["thread.start"] if "process_request_thread" in name)
        pool_threads = count("thread.start") - server_threads

        calls_by_op = defaultdict(list)
        for t0, t1, _, i in spans["pdp.replica_call"]:
            calls_by_op[i].append((t0, t1))
        fanout_self = [
            1000.0 * ((d1 - d0) - covered(d0, d1, calls_by_op[i])) for d0, d1, _, i in spans["pdp.decide"]
        ]

        m = {
            "wire.connects_per_op": (count("wire.connect") / n_ops, "count"),
            "wire.threads_per_op": (server_threads / n_ops, "count"),
            "wire.calls_per_op": (count("wire.call") / n_ops, "count"),
            "wire.call_ms": (mean_ms("wire.call"), "ms"),
            "wire.transport_ms": (sum(transport) / max(1, len(transport)), "ms"),
            "canonical.encodes_per_op": (count("canonical.encode") / n_ops, "count"),
            "canonical.encode_ms_per_op": (total_ms("canonical.encode") / n_ops, "ms"),
            "canonical.parses_per_op": (count("canonical.parse") / n_ops, "count"),
            "canonical.parse_ms_per_op": (total_ms("canonical.parse") / n_ops, "ms"),
            "identity.verifies_per_op": (count("identity.verify") / n_ops, "count"),
            "identity.verify_ms": (mean_ms("identity.verify"), "ms"),
            "identity.signs_per_op": (count("identity.sign") / n_ops, "count"),
            "identity.sign_ms": (mean_ms("identity.sign"), "ms"),
            "registry.resolves_per_access": (
                sum(1 for _, _, _, i in spans["registry.resolve"] if kinds[i] == "access") / max(1, n_access),
                "count",
            ),
            "registry.resolve_ms": (mean_ms("registry.resolve"), "ms"),
            "registry.submit_ms": (mean_ms("registry.submit"), "ms"),
            "registry.chain_bytes_per_tx": (chain_bytes_per_tx, "bytes"),
            "pdp.decide_ms": (mean_ms("pdp.decide"), "ms"),
            "pdp.evaluate_ms": (mean_ms("pdp.evaluate"), "ms"),
            "pdp.threads_per_decide": (pool_threads / max(1, count("pdp.decide")), "count"),
            "pdp.fanout_self_ms": (sum(fanout_self) / max(1, len(fanout_self)), "ms"),
            "hub.access_ms": (mean_ms("hub.access"), "ms"),
            "hub.authorize_ms": (mean_ms("hub.authorize"), "ms"),
            "hub.cache_hit_ratio": (hits / max(1, count("hub.authorize")), "ratio"),
            "hub.authorize_calls": (float(count("hub.authorize")), "count"),
            "hub.auth_ms": ((total_ms("hub.begin_auth") + total_ms("hub.complete_auth")) / max(1, n_auth), "ms"),
            "gateway.invoke_ms": (mean_ms("gateway.invoke"), "ms"),
        }
        return m

    def span_dump(self, windows, n_ops: int) -> list[dict]:
        """The first n_ops timed operations' spans. Ids count within an
        operation; a span's parent is the innermost span of the same operation
        whose interval contains it (by time alone, so of two overlapping
        replica calls the later-starting one may be given the other's children)."""
        per_op = defaultdict(list)
        for name, items in self.by_operation(windows[:n_ops]).items():
            for t0, t1, _, i in items:
                per_op[i].append((t0, t1, name))
        out = []
        for op in range(min(n_ops, len(windows))):
            kind, w0, w1 = windows[op]
            own = sorted(per_op[op], key=lambda s: (s[0], -s[1]))
            records = [{"op": op, "id": 0, "name": f"op.{kind}", "start_us": 0.0, "end_us": 1e6 * (w1 - w0), "parent": None}]
            stack = [(w0, w1, 0)]
            for t0, t1, name in own:
                while len(stack) > 1 and not (stack[-1][0] <= t0 and t1 <= stack[-1][1]):
                    stack.pop()
                records.append(
                    {
                        "op": op,
                        "id": len(records),
                        "name": name,
                        "start_us": 1e6 * (t0 - w0),
                        "end_us": 1e6 * (t1 - w0),
                        "parent": stack[-1][2],
                    }
                )
                stack.append((t0, t1, len(records) - 1))
            out.extend(records)
        return out


def covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    inner = sorted((max(a, start), min(b, end)) for a, b in intervals if a < end and b > start)
    total, reach = 0.0, start
    for a, b in inner:
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total
