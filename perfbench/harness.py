"""One benchmark run: inputs, set-up, warm-up, timed phase, checks, metrics.

``run(...)`` returns the result object the command prints as its last line.
With ``trace=False`` the metrics are the end-to-end ones.  With
``trace=True`` the timed rounds alternate between plain rounds and rounds
under a :class:`~perfbench.layers.LayerTracer`; the traced rounds give the
per-layer metrics, and the two kinds of round together give the tracing
overhead.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from perfbench import checks
from perfbench.layers import UNATTRIBUTED, LayerTracer, router_gates
from perfbench.workloads import AGGREGATE, PRINCIPALS, WORKLOADS, window_query

#: Set-ups per run; ``setup_s`` is their median.  The host's speed drifts
#: by tens of percent within seconds, so one set-up builds the deployment
#: the operations run on, and the others are spread evenly over the timed
#: phase after the memory read, between rounds, and thrown away.
SETUP_REPS = 7

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _BENCHMARK = json.load(_fh)
#: metric name -> unit, as ``BENCHMARK.json`` lists them
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _BENCHMARK["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _BENCHMARK["per_layer"]}

#: self-time metric -> tracer key
SELF_TIME_KEYS = {
    "client.self_ms": "client",
    "client.decode_ms": "client.decode",
    "transport.self_ms": "transport",
    "transport.encode_ms": "transport.encode",
    "admission.ms": "admission",
    "auth.ms": "auth",
    "server.self_ms": "server",
    "audit.ms": "audit",
    "cache.ms": "cache",
    "store.scan_ms": "store.scan",
    "store.ingest_ms": "store.ingest",
    "aggregate.ms": "aggregate",
    "codec.encode_ms": "codec.encode",
    "codec.decode_ms": "codec.decode",
    "rules.evaluate_ms": "rules.evaluate",
    "rules.closure_ms": "rules.closure",
    "rules.compile_ms": "rules.compile",
    "collection.self_ms": "collection",
    "collection.gate_ms": "collection.gate",
    "collection.annotate_ms": "collection.annotate",
    "wal.append_ms": "wal.append",
    "wal.commit_ms": "wal.commit",
    "replication.ship_ms": "replication.ship",
    "obs.ms": "obs",
    "unattributed_ms": UNATTRIBUTED,
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# The program's own counters, read around traced rounds
# ----------------------------------------------------------------------


def program_counters(dep) -> Counter:
    """Registry counters the traced counts are cross-checked against."""
    system = dep.system
    m = system.obs.metrics
    out = Counter()
    for name in ("cache_hits_total", "cache_misses_total",
                 "store_segments_scanned_total", "replication_frames_shipped_total",
                 "net_bytes_in_total", "net_bytes_out_total"):
        out[name] = m.sum_counter(name)
    for host in system.stores:
        out["wal_appends_total." + host] = m.counter_value("wal_appends_total", store=host)
    for host, metrics in system.network.metrics.items():
        out["net_requests_total." + host] = metrics.requests_in
    out["samples_uploaded"] = sum(p.stats.samples_uploaded for p in dep.phones.values())
    out["wal_bytes"] = sum(
        store.durability.wal.size_bytes()
        for store in system.stores.values()
        if store.role == "primary" and store.durability is not None
        and store.durability.wal is not None
    )
    return out


def wire_bytes(dep) -> int:
    return sum(m.total_bytes() for m in dep.system.network.metrics.values())


# ----------------------------------------------------------------------
# Timed phase
# ----------------------------------------------------------------------


class Phase:
    """Latencies and counts of the timed rounds."""

    def __init__(self):
        self.latencies: list = []
        #: per round, each operation's seconds (NaN if it failed)
        self.by_round: list = []
        self.op_seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.first_error = ""
        self.rounds = 0

    def run_round(self, ops: list, tracer=None) -> None:
        latencies = []
        perf = time.perf_counter
        started = perf()
        for op in ops:
            self.attempted += 1
            t0 = perf()
            try:
                if tracer is None:
                    op()
                else:
                    with tracer.operation():
                        op()
            except Exception as exc:  # an operation failed: count it, go on
                self.failed += 1
                if not self.first_error:
                    self.first_error = f"{type(exc).__name__}: {exc}"
                latencies.append(float("nan"))
                continue
            latencies.append(perf() - t0)
        self.op_seconds += perf() - started
        self.rounds += 1
        self.by_round.append(latencies)
        self.latencies += [x for x in latencies if x == x]

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.op_seconds if self.op_seconds else 0.0

    def best_ms(self) -> np.ndarray:
        """Each operation of the schedule at its fastest round, in ms."""
        return np.nanmin(np.asarray(self.by_round), axis=0) * 1e3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Timed:
    """What the timed phase measured."""

    plain: Phase = field(default_factory=Phase)
    traced: Phase = field(default_factory=Phase)
    #: operations between rounds: revocations and cache re-warming
    between: Phase = field(default_factory=Phase)
    tracer: Optional[LayerTracer] = None
    #: the program's counter deltas over the traced rounds
    program: Counter = field(default_factory=Counter)
    #: wire bytes of the plain rounds
    wire: int = 0
    #: peak resident memory after round ``SAMPLE_ROUND``
    rss_mb: float = 0.0
    #: failed checks of the sampled fetches
    errors: list = field(default_factory=list)


def timed_phase(wl, seconds: float, trace: bool, setup_s: list) -> Timed:
    """Whole rounds until ``seconds`` have passed, and at least
    ``wl.SAMPLE_ROUND`` rounds and one traced round.

    After round ``SAMPLE_ROUND`` the peak memory is read and the round's
    sampled fetches are checked, before a revocation changes the rules they
    saw.  After every round, outside the operation timings, come the
    workload's between-round operations and, once the memory is read,
    set-ups appended to ``setup_s``, spread evenly over the rest of the
    phase.
    """
    t = Timed(tracer=LayerTracer() if trace else None)
    rss_at = None
    started = time.perf_counter()
    r = 1
    while True:
        ops = wl.round_ops(r)
        if t.tracer is not None and r % 2 == 0:
            before = program_counters(wl.dep)
            with t.tracer.installed(router_gates(wl.dep.system)):
                t.traced.run_round(ops, t.tracer)
            t.program += program_counters(wl.dep) - before
        else:
            before = wire_bytes(wl.dep)
            t.plain.run_round(ops)
            t.wire += wire_bytes(wl.dep) - before
        if r == wl.SAMPLE_ROUND:
            t.rss_mb = peak_rss_mb()
            t.errors = check_fetches(wl)
            rss_at = time.perf_counter() - started
        t.between.run_round(wl.between_rounds(r))
        elapsed = time.perf_counter() - started
        if rss_at is not None and len(setup_s) < SETUP_REPS:
            share = (len(setup_s) - 1) / max(1, SETUP_REPS - 1)
            if elapsed >= rss_at + share * (seconds - rss_at):
                setup_s.append(wl.timed_build()[0])
                gc.collect()  # free the thrown-away deployment, untimed
        r += 1
        if (elapsed >= seconds and r > wl.SAMPLE_ROUND
                and (t.tracer is None or t.traced.rounds)):
            break
    return t


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


def check_fetches(wl) -> list:
    """Sampled fetches against the oracle; sampled aggregates against numpy.

    Runs right after the sampled round, while each owner's rules are still
    the ones its operations saw.
    """
    dep = wl.dep
    errors = []
    for name, window, rules, released in wl.fetch_samples:
        errors += checks.release_errors(
            name, dep.delivered[name], window, rules, wl.places[name],
            PRINCIPALS, released,
        )
    for name, window, rules, rows in wl.aggregate_samples:
        released = dep.consumer.fetch(name, window_query(window.start, window.end))
        errors += checks.release_errors(
            name, dep.delivered[name], window, rules, wl.places[name],
            PRINCIPALS, released,
        )
        errors += checks.aggregate_errors(name, released, rows, AGGREGATE)
    return errors


def check_revocations(wl) -> list:
    errors = []
    for rec in wl.revocations:
        errors += checks.release_errors(
            rec.contributor, wl.dep.delivered[rec.contributor], rec.window,
            rec.rules, wl.places[rec.contributor], PRINCIPALS, rec.released,
        )
    return errors


def check_storage(wl) -> list:
    """Ingest: phones, owner view, WAL recovery and replica readback."""
    from repro.net.transport import Network
    from repro.server.datastore_service import DataStoreService

    dep = wl.dep
    errors = []
    delivered = {name: checks.packet_table(dep.delivered[name]) for name in dep.phones}
    for name, phone in dep.phones.items():
        stats = phone.stats
        if stats.upload_failures or stats.packets_lost or phone.offline_backlog:
            errors.append(f"{name}: phone lost or failed uploads: {stats}")
        if stats.packets_delivered != len(dep.delivered[name]):
            errors.append(
                f"{name}: phone reports {stats.packets_delivered} packets "
                f"delivered, collect returned {len(dep.delivered[name])}"
            )
        errors += checks.delivered_errors(name, dep.offered[name], delivered[name])
    # A crash image: copy the primary's directory while it is live.
    primary_dir = os.path.join(dep.directory, "lab")
    image = os.path.join(wl.workdir, "recovered", "lab")
    shutil.copytree(primary_dir, image)
    recovered = DataStoreService("lab", Network(), directory=image, durable=True)
    replica = dep.system.stores["lab-r1"]
    for name in dep.phones:
        for where, segments in (
            ("owner view", dep.contributors[name].view_data()),
            ("recovered from WAL", recovered.store.segments_of(name)),
            ("replica", replica.store.segments_of(name)),
        ):
            errors += checks.stored_errors(where, name, delivered[name], segments)
    recovered.durability.close()
    return errors


def crosscheck(system, tracer, program: Counter) -> list:
    """Traced counts that disagree with the program's own counters."""
    pairs = [
        ("cache.hits", "cache_hits_total"),
        ("cache.misses", "cache_misses_total"),
        ("store.segments_scanned", "store_segments_scanned_total"),
    ]
    out = []
    for ours, theirs in pairs:
        if tracer.counts[ours] != program[theirs]:
            out.append(f"{ours}={tracer.counts[ours]} but {theirs}={program[theirs]}")
    for host, store in sorted(system.stores.items()):
        wal = store.durability.wal if store.durability is not None else None
        ours = tracer.counts[f"wal.appends@{id(wal)}"] if wal is not None else 0
        theirs = program["wal_appends_total." + host]
        if ours != theirs:
            out.append(f"WAL appends on {host}: traced {ours}, wal_appends_total {theirs}")
    hosts = {k.split(".", 1)[1] for k in program if k.startswith("net_requests_total.")}
    for host in sorted(hosts):
        ours = tracer.counts["transport.requests." + host]
        theirs = program["net_requests_total." + host]
        if ours != theirs:
            out.append(f"requests to {host}: traced {ours}, net_requests_total {theirs}")
    return out


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def _metric(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def best_revocations_ms(revocations: list) -> list:
    """Each repeated revocation at its fastest repetition, in ms."""
    best: dict = {}
    for rec in revocations:
        best[rec.key] = min(best.get(rec.key, rec.latency_s), rec.latency_s)
    return [seconds * 1e3 for seconds in best.values()]


def end_to_end(setup_times, phase: Phase, wire: int, rss_mb: float,
               revocations: list) -> dict:
    """The host's speed drifts and stalls within seconds (see the README), so
    the central figures take every repeated operation at its fastest
    repetition; ``op_p95_ms`` keeps every repetition, stalls included."""
    best_ms = phase.best_ms()
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": 1e3 * len(best_ms) / float(np.sum(best_ms)),
        "op_p50_ms": float(np.median(best_ms)),
        "op_p95_ms": float(np.percentile(np.asarray(phase.latencies) * 1e3, 95)),
        "peak_rss_mb": rss_mb,
        "wire_kb_per_op": wire / max(1, phase.attempted) / 1024,
        "revoke_p50_ms": statistics.median(best_revocations_ms(revocations)),
    }
    return _metric(values, END_TO_END_UNITS)


def per_layer(tracer, program: Counter, plain: Phase, traced: Phase,
              mismatches: list) -> dict:
    n = max(1, len(traced.latencies))
    values = {name: tracer.self_ms(key) / n for name, key in SELF_TIME_KEYS.items()}
    samples = program["samples_uploaded"]
    values.update({
        "client.calls": tracer.calls["client"] / n,
        "transport.bytes": (program["net_bytes_in_total"]
                            + program["net_bytes_out_total"]) / n,
        "cache.hits": tracer.counts["cache.hits"] / n,
        "cache.misses": tracer.counts["cache.misses"] / n,
        "store.segments_scanned": tracer.counts["store.segments_scanned"] / n,
        "store.segments_returned": tracer.counts["store.segments_returned"] / n,
        "rules.pieces": tracer.counts["rules.pieces"] / n,
        "rules.closure_calls": tracer.counts["rules.closure_calls"] / n,
        "rules.compiles": tracer.calls["rules.compile"] / n,
        "collection.samples_uploaded": samples / n,
        "wal.appends": tracer.calls["wal.append"] / n,
        "wal.commits": tracer.calls["wal.commit"] / n,
        "wal.bytes_per_sample": program["wal_bytes"] / samples if samples else 0.0,
        "replication.frames": program["replication_frames_shipped_total"] / n,
        "broker.requests": program["net_requests_total.broker"] / n,
        "obs.spans": tracer.counts["obs.spans"] / n,
        "trace.overhead_pct": (plain.ops_per_s / traced.ops_per_s - 1) * 100
        if traced.ops_per_s else 0.0,
        "crosscheck.mismatches": len(mismatches),
    })
    return _metric(values, PER_LAYER_UNITS)


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    """One run in a fresh work directory under ``root``; returns the result."""
    workdir = os.path.join(root, ".perfbench-work", f"{workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    wl = WORKLOADS[workload](seed, workdir)
    try:
        setup_s = [wl.setup()]
        Phase().run_round(wl.round_ops(0))  # warm-up, untimed
        gc.collect()  # every run starts its timed phase from the same heap
        first_timed = len(wl.revocations)
        t = timed_phase(wl, seconds, trace, setup_s)
        errors = t.errors + check_revocations(wl)
        if wl.durable:
            errors += check_storage(wl)
        for message in errors:
            log("check failed: " + message)
        phases = (t.plain, t.traced, t.between)
        attempted = sum(phase.attempted for phase in phases)
        failed = sum(phase.failed for phase in phases)
        for phase in phases:
            if phase.first_error:
                log("operation failed: " + phase.first_error)
        if trace:
            mismatches = crosscheck(wl.dep.system, t.tracer, t.program)
            for message in mismatches:
                log("cross-check: " + message)
            metrics = per_layer(t.tracer, t.program, t.plain, t.traced, mismatches)
        else:
            # A phase too short to hold every set-up: the rest come now.
            setup_s += [wl.timed_build()[0] for _ in range(SETUP_REPS - len(setup_s))]
            metrics = end_to_end(setup_s, t.plain, t.wire, t.rss_mb,
                                 wl.revocations[first_timed:])
        return {
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
    finally:
        wl.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))  # left if other runs use it
