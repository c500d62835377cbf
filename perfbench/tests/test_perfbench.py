"""The benchmark's own tests: tiny end-to-end runs, checks that catch
corrupted outputs, tracer hygiene and the counter cross-check.

Run with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import checks, harness, layers, workloads
from perfbench.workloads import (
    AGGREGATE,
    HOUR_MS,
    MINUTE_MS,
    MONDAY,
    PRINCIPALS,
    FetchCold,
    IngestRevoke,
    window_query,
)
from repro.conformance.oracle import decide_instant
from repro.datastore.wavesegment import WaveSegment
from repro.rules.engine import ReleasedSegment

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload: two contributors, one or two hours, one set-up,
    one timed round."""
    monkeypatch.setattr(harness, "SETUP_REPS", 1)
    for cls in workloads.WORKLOADS.values():
        monkeypatch.setattr(cls, "SAMPLE_ROUND", 1)
    fleet = workloads._FleetWorkload
    monkeypatch.setattr(fleet, "N_CONTRIBUTORS", 2)
    for cls in (fleet, workloads.FetchWarm):
        monkeypatch.setattr(cls, "REVOKE_CYCLES", 1)
    monkeypatch.setattr(fleet, "FIRST_HOUR", 8)
    monkeypatch.setattr(fleet, "LAST_HOUR", 10)
    monkeypatch.setattr(IngestRevoke, "N_CONTRIBUTORS", 2)
    monkeypatch.setattr(IngestRevoke, "PRELOAD_HOUR", 7)
    monkeypatch.setattr(IngestRevoke, "FIRST_HOUR", 8)
    monkeypatch.setattr(IngestRevoke, "LAST_HOUR", 9)


def tiny_run(tmp_path, workload, trace=False):
    return harness.run(workload, 3, 0, trace, str(tmp_path))


def crosscheck_lines(capsys) -> list:
    err = capsys.readouterr().err
    return [line for line in err.splitlines() if line.startswith("cross-check:")]


# ----------------------------------------------------------------------
# End to end at a tiny size
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_runs_end_to_end(tiny, tmp_path, workload):
    result = tiny_run(tmp_path, workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert set(metrics) == set(harness.END_TO_END_UNITS)
    for name, metric in metrics.items():
        assert metric["unit"] == harness.END_TO_END_UNITS[name]
        assert metric["value"] > 0, name
    assert not os.listdir(tmp_path)  # the work directory is gone


def test_traced_fetch_warm_hits_cache_and_skips_broker(tiny, tmp_path, capsys):
    metrics = tiny_run(tmp_path, "fetch-warm", trace=True)["metrics"]
    assert set(metrics) == set(harness.PER_LAYER_UNITS)
    assert metrics["cache.hits"]["value"] == 1.0
    assert metrics["cache.misses"]["value"] == 0.0
    assert metrics["broker.requests"]["value"] == 0.0
    assert metrics["rules.evaluate_ms"]["value"] == 0.0
    assert metrics["unattributed_ms"]["value"] > 0
    assert crosscheck_lines(capsys) == []
    assert metrics["crosscheck.mismatches"]["value"] == 0


def test_traced_fetch_cold_misses_cache(tiny, tmp_path, capsys):
    metrics = tiny_run(tmp_path, "fetch-cold", trace=True)["metrics"]
    assert metrics["cache.hits"]["value"] == 0.0
    assert metrics["cache.misses"]["value"] == 1.0
    assert metrics["broker.requests"]["value"] == 0.0
    assert metrics["rules.closure_calls"]["value"] > 0
    assert metrics["aggregate.ms"]["value"] > 0
    assert crosscheck_lines(capsys) == []


def test_traced_ingest_counts_one_broker_push_per_rule_edit(tiny, tmp_path, capsys):
    metrics = tiny_run(tmp_path, "ingest-revoke", trace=True)["metrics"]
    wl = IngestRevoke(3, str(tmp_path))
    ops = len(wl.round_ops(2))
    edits = ops - len(wl.windows) * IngestRevoke.N_CONTRIBUTORS
    assert metrics["broker.requests"]["value"] == pytest.approx(edits / ops)
    for name in ("wal.appends", "replication.frames", "collection.samples_uploaded",
                 "collection.gate_ms", "codec.decode_ms", "store.ingest_ms"):
        assert metrics[name]["value"] > 0, name
    # The replica applies shipped frames straight to its WAL, which
    # wal_appends_total does not count; every other counter agrees.
    for line in crosscheck_lines(capsys):
        assert "WAL appends on lab-r1" in line


# ----------------------------------------------------------------------
# The checks catch corrupted outputs
# ----------------------------------------------------------------------


@pytest.fixture
def cold(tiny, tmp_path):
    wl = FetchCold(5, str(tmp_path))
    wl.setup()
    yield wl
    wl.teardown()


def _meeting_window():
    lo = MONDAY + 9 * HOUR_MS  # the weekly microphone deny, 9:00-9:30
    return lo, lo + 15 * MINUTE_MS


def test_release_check_catches_withheld_channel(cold):
    lo, hi = _meeting_window()
    window = window_query(lo, hi).time_range
    name = "c0"
    dep = cold.dep
    released = dep.consumer.fetch(name, window_query(lo, hi))
    args = (name, dep.delivered[name], window, dep.rules_of(name),
            cold.places[name], PRINCIPALS)
    assert checks.release_errors(*args, released) == []

    withheld = next(
        p for p in dep.delivered[name]
        if lo <= p.start_ms < hi and p.channel_name == "MicAmplitude"
    )
    decision = decide_instant(
        dep.rules_of(name), checks._packet_segment(name, withheld), PRINCIPALS,
        cold.places[name], withheld.start_ms,
    )
    assert "MicAmplitude" not in decision.channels
    leaked = ReleasedSegment(
        contributor=name,
        interval=window,
        segment=checks._packet_segment(name, withheld),
        context_labels=dict(decision.context_labels),
        location=decision.location,
    )
    errors = checks.release_errors(*args, released + [leaked])
    assert any("oracle withholds" in e for e in errors)


def test_aggregate_check_catches_off_by_one_sample(cold):
    lo, hi = _meeting_window()
    dep = cold.dep
    query = window_query(lo, hi)
    rows = dep.consumer.fetch_aggregate("c1", AGGREGATE, query)
    released = dep.consumer.fetch("c1", query)
    assert checks.aggregate_errors("c1", released, rows, AGGREGATE) == []
    rows[0] = dataclasses.replace(rows[0], count=rows[0].count - 1)
    assert checks.aggregate_errors("c1", released, rows, AGGREGATE)


def test_storage_check_catches_dropped_sample(cold):
    dep = cold.dep
    stored = dep.contributors["c0"].view_data()
    delivered = checks.packet_table(dep.delivered["c0"])
    assert checks.stored_errors("view", "c0", delivered, stored) == []
    first = stored[0]
    shortened = WaveSegment(
        contributor=first.contributor,
        channels=first.channels,
        start_ms=first.start_ms,
        interval_ms=first.interval_ms,
        values=first.values[:-1],
        location=first.location,
        context=dict(first.context),
    )
    errors = checks.stored_errors("view", "c0", delivered, [shortened] + stored[1:])
    assert any("missing" in e for e in errors)


def test_delivered_check_catches_changed_value(cold):
    delivered = cold.dep.delivered["c0"]
    offered = cold.inputs[0].packets
    table = checks.packet_table(delivered)
    assert checks.delivered_errors("c0", offered, table) == []
    first = delivered[0]
    bumped = dataclasses.replace(first, values=(first.values[0] + 1.0,) + first.values[1:])
    table = checks.packet_table([bumped] + delivered[1:])
    assert checks.delivered_errors("c0", offered, table)


# ----------------------------------------------------------------------
# Tracer hygiene
# ----------------------------------------------------------------------


def test_traced_run_restores_every_wrapped_function(tiny, tmp_path):
    def current():
        return [vars(p.target())[p.attr] for p in layers.entry_points()]

    before = current()
    tiny_run(tmp_path, "fetch-cold", trace=True)
    assert all(now is then for now, then in zip(current(), before))


def test_router_gates_are_restored(cold):
    gates = layers.router_gates(cold.dep.system)
    assert gates
    before = [getattr(obj, attr) for obj, attr, _ in gates]
    tracer = layers.LayerTracer()
    with tracer.installed(gates):
        assert all(getattr(obj, attr) is not b for (obj, attr, _), b in zip(gates, before))
        cold.dep.consumer.fetch("c0", window_query(*_meeting_window()))
    assert all(getattr(obj, attr) is b for (obj, attr, _), b in zip(gates, before))
    assert tracer.calls["admission"] > 0


def test_self_times_add_up_to_operation_time():
    tracer = layers.LayerTracer(points=[])

    def inner():
        return sum(range(1000))

    wrapped = tracer._wrap(layers.EntryPoint("", "", "inner", "inner"), inner)
    with tracer.operation():
        wrapped()
        sum(range(1000))
    assert tracer.calls["inner"] == 1
    assert tracer.self_ns["inner"] > 0 and tracer.self_ns[layers.UNATTRIBUTED] > 0


# ----------------------------------------------------------------------
# The command and its description
# ----------------------------------------------------------------------


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fetch-warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
