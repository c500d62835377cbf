"""Per-layer self time and counts, from wrappers installed around the
public entry points of each layer.

Nothing under ``src/`` changes: :class:`LayerTracer` replaces the entry
points listed in :func:`entry_points` with timing wrappers for the length
of a ``with tracer.installed():`` block and puts the original objects back
on exit.  A wrapped call's *self time* is its duration minus the wrapped
calls it contains; operation time that no wrapped call covers is charged
to ``unattributed``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

UNATTRIBUTED = "unattributed"


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped callable: ``module.owner.attr`` (owner may be empty)."""

    module: str
    owner: str
    attr: str
    key: str
    #: wrap only when this holds for the call stack; otherwise the call is
    #: transparent and its time stays with the enclosing wrapped call
    when: Optional[Callable] = None
    #: called as ``count(tracer, args, result)`` after each wrapped call
    count: Optional[Callable] = None

    def target(self):
        module = importlib.import_module(self.module)
        return getattr(module, self.owner) if self.owner else module


def _server_side(stack) -> bool:
    return any(frame[0] == "server" for frame in stack)


def _client_side(stack) -> bool:
    return not _server_side(stack)


def _in_transport(stack) -> bool:
    return bool(stack) and stack[-1][0] == "transport"


def _count_request(tracer, args, result) -> None:
    from repro.net.transport import Network

    tracer.counts["transport.requests." + Network.parse_url(args[2])[1]] += 1


def _count_cache(tracer, args, result) -> None:
    tracer.counts["cache.misses" if result is None else "cache.hits"] += 1


def _count_scan(tracer, args, result) -> None:
    tracer.counts["store.segments_scanned"] += result.scanned_segments
    tracer.counts["store.segments_returned"] += len(result.segments)


def _count_pieces(tracer, args, result) -> None:
    tracer.counts["rules.pieces"] += len(result)


def _count_wal_append(tracer, args, result) -> None:
    # Keyed by log object, so appends can be matched to each store's counter.
    tracer.counts[f"wal.appends@{id(args[0])}"] += 1


def _counter(name: str) -> Callable:
    def count(tracer, args, result) -> None:
        tracer.counts[name] += 1

    return count


def entry_points() -> list:
    """Every wrapped entry point, by layer (module names under ``repro``)."""
    E = EntryPoint
    return [
        # core.consumer / net.client
        E("repro.net.client", "HttpClient", "post", "client"),
        E("repro.rules.engine", "ReleasedSegment", "from_json", "client.decode",
          when=_client_side),
        E("repro.datastore.aggregate", "AggregateRow", "from_json", "client.decode"),
        # net.transport
        E("repro.net.transport", "Network", "request", "transport",
          count=_count_request),
        E("repro.util.jsonutil", "", "canonical_dumps", "transport.encode",
          when=_in_transport),
        # net.overload: AdmissionController.gate and gate_done are bound
        # onto each Router when the host starts; see router_gates().
        # auth
        E("repro.auth.apikeys", "ApiKeyRegistry", "authenticate", "auth"),
        # server
        E("repro.net.http", "Router", "dispatch", "server"),
        E("repro.server.audit", "AuditLog", "record_access", "audit"),
        # datastore.cache
        E("repro.datastore.cache", "ReleaseCache", "get", "cache", count=_count_cache),
        E("repro.datastore.cache", "ReleaseCache", "put", "cache"),
        E("repro.datastore.cache", "ReleaseCache", "contains", "cache"),
        # datastore.segment_store
        E("repro.datastore.segment_store", "SegmentStore", "query", "store.scan",
          count=_count_scan),
        E("repro.datastore.segment_store", "SegmentStore", "add_packet", "store.ingest"),
        E("repro.datastore.segment_store", "SegmentStore", "flush", "store.ingest"),
        # datastore.aggregate
        E("repro.datastore.aggregate", "", "aggregate_released", "aggregate"),
        # datastore.wavesegment / sensors.packets
        E("repro.rules.engine", "ReleasedSegment", "to_json", "codec.encode"),
        E("repro.sensors.packets", "SensorPacket", "to_json", "codec.encode"),
        E("repro.sensors.packets", "SensorPacket", "from_json", "codec.decode",
          when=_server_side),
        E("repro.datastore.wavesegment", "WaveSegment", "from_json", "codec.decode",
          when=_server_side),
        # rules.engine / rules.dependency / rules.compiler
        E("repro.rules.engine", "RuleEngine", "evaluate", "rules.evaluate",
          count=_count_pieces),
        E("repro.rules.dependency", "DependencyGraph", "channels_revealing",
          "rules.closure", count=_counter("rules.closure_calls")),
        E("repro.rules.dependency", "DependencyGraph", "contexts_revealed_by",
          "rules.closure", count=_counter("rules.closure_calls")),
        E("repro.rules.dependency", "DependencyGraph", "raw_permitted_channels",
          "rules.closure"),
        E("repro.rules.compiler", "CompiledRuleCache", "artifact_for", "rules.compile"),
        # collection / context
        E("repro.collection.phone", "SmartphoneAgent", "collect", "collection"),
        E("repro.collection.phone", "SmartphoneAgent", "sensing_allowed",
          "collection.gate"),
        E("repro.collection.phone", "SmartphoneAgent", "should_upload",
          "collection.gate"),
        E("repro.context.annotate", "ContextAnnotator", "infer_window",
          "collection.annotate"),
        # storage.wal / storage.replication
        E("repro.storage.wal", "WriteAheadLog", "append", "wal.append",
          count=_count_wal_append),
        E("repro.storage.wal", "WriteAheadLog", "commit", "wal.commit"),
        E("repro.storage.replication", "WalShipper", "after_write", "replication.ship"),
        # obs
        E("repro.obs.tracing", "Tracer", "start_span", "obs",
          count=_counter("obs.spans")),
        E("repro.obs.tracing", "Tracer", "end_span", "obs"),
        E("repro.obs.costs", "QueryCostLog", "start", "obs"),
        E("repro.obs.costs", "QueryCostLog", "finish", "obs"),
        E("repro.obs.slo", "SloTracker", "rule_mutated", "obs"),
        E("repro.obs.slo", "SloTracker", "release_observed", "obs"),
    ]


def router_gates(system) -> list:
    """``(router, attr, key)`` for the admission hooks of every host.

    ``AdmissionController.attach`` stores bound methods on the router, so
    the class attribute is never looked up again; the tracer wraps the
    router's attributes instead.
    """
    out = []
    for service in [system.broker, *system.stores.values()]:
        for attr in ("gate", "gate_done"):
            if getattr(service.router, attr) is not None:
                out.append((service.router, attr, "admission"))
    return out


class LayerTracer:
    """Accumulates self time (ns) and call counts per layer key."""

    def __init__(self, points: Optional[list] = None):
        self.points = entry_points() if points is None else points
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        #: open frames: ``[key, child_ns]``
        self.stack: list = []
        self._saved: list = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, point: EntryPoint, fn: Callable) -> Callable:
        tracer = self
        stack = self.stack
        key, when, count = point.key, point.when, point.count
        perf = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(stack):
                return fn(*args, **kwargs)
            frame = [key, 0]
            stack.append(frame)
            started = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - started
                stack.pop()
                tracer.self_ns[key] += elapsed - frame[1]
                tracer.calls[key] += 1
                if stack:
                    stack[-1][1] += elapsed
            if count is not None:
                count(tracer, args, result)
            return result

        return wrapper

    def install(self, bound: tuple = ()) -> None:
        """Wrap every entry point, plus ``bound``: ``(object, attr, key)``
        triples naming callables stored on individual objects."""
        if self._saved:
            raise RuntimeError("layer tracer already installed")
        for obj, attr, key in bound:
            original = getattr(obj, attr)
            self._saved.append((obj, attr, original))
            setattr(obj, attr, self._wrap(EntryPoint("", "", attr, key), original))
        for point in self.points:
            owner = point.target()
            original = vars(owner)[point.attr]
            if isinstance(original, (classmethod, staticmethod)):
                replacement = type(original)(self._wrap(point, original.__func__))
            else:
                replacement = self._wrap(point, original)
            self._saved.append((owner, point.attr, original))
            setattr(owner, point.attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, bound: tuple = ()):
        self.install(bound)
        try:
            yield self
        finally:
            self.uninstall()

    # -- operations --------------------------------------------------------

    @contextlib.contextmanager
    def operation(self):
        """Open the root frame of one timed operation."""
        frame = [UNATTRIBUTED, 0]
        self.stack.append(frame)
        started = time.perf_counter_ns()
        try:
            yield
        finally:
            elapsed = time.perf_counter_ns() - started
            self.stack.pop()
            self.self_ns[UNATTRIBUTED] += elapsed - frame[1]

    def self_ms(self, key: str) -> float:
        return self.self_ns[key] / 1e6
