"""Workload inputs, deployments and operation schedules.

Every workload is a fixed, seeded schedule.  ``--seed`` picks the persona
traces and the order of operations; it never changes how many contributors,
windows or operations a round holds, so every run does the same kind and
amount of work.  A *round* is one pass over the schedule; the harness runs
whole rounds until the measuring time is used up.

Inputs are generated in ``__init__``, before any set-up timer starts.
``build`` makes a deployment and loads its data; it is what ``setup_s``
times.  ``round_ops(r)`` prepares round ``r``'s operations (untimed) and
returns them as callables; the harness times each call.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import os
import random
import shutil
import time
from dataclasses import dataclass, field

from repro.collection.phone import PhoneConfig
from repro.core import SensorSafeSystem
from repro.datastore.aggregate import AggregateSpec
from repro.datastore.query import DataQuery
from repro.rules.model import ALLOW, DENY, Rule, abstraction
from repro.sensors.personas import make_persona
from repro.sensors.simulator import SimulatorConfig, TraceSimulator
from repro.util.timeutil import Interval, RepeatedTime, TimeCondition, timestamp_ms

MONDAY = timestamp_ms(2011, 2, 7)
MINUTE_MS = 60_000
HOUR_MS = 60 * MINUTE_MS
WEEK_MS = 7 * 24 * HOUR_MS

#: Channel rates are 5% of the hardware defaults (accelerometer 0.2 Hz,
#: ECG 0.4 Hz, ...): about 4,500 samples per contributor-hour.
RATE_SCALE = 0.05
CONSUMER = "bob"
PRINCIPALS = frozenset({CONSUMER})
AGGREGATE = AggregateSpec("mean", MINUTE_MS)

#: The deny rule owners switch on and off in revocation operations.
REVOKE_RULE = Rule(
    consumers=(CONSUMER,), sensors=("Microphone",), action=DENY, note="revocable"
)

#: Fetch operations per run whose releases are checked against the oracle.
FETCH_CHECK_SAMPLES = 12


def base_rules() -> list:
    """Each contributor's rules: allow-all, a context abstraction, a deny at
    a labelled place and a deny in a repeated weekly window."""
    weekdays = ("Mon", "Tue", "Wed", "Thu", "Fri")
    return [
        Rule(consumers=(CONSUMER,), action=ALLOW, note="allow all"),
        Rule(
            consumers=(CONSUMER,),
            contexts=("Drive",),
            action=abstraction(Stress="NotShare"),
            note="no stress while driving",
        ),
        Rule(
            consumers=(CONSUMER,),
            location_labels=("home",),
            sensors=("GPS",),
            action=DENY,
            note="no GPS at home",
        ),
        Rule(
            consumers=(CONSUMER,),
            sensors=("Microphone",),
            time=TimeCondition(
                repeated=(RepeatedTime.weekly(weekdays, "9:00am", "9:30am"),)
            ),
            action=DENY,
            note="no microphone in the morning meeting",
        ),
    ]


@dataclass
class ContributorInput:
    """One contributor's generated trace, limited to the hours a workload uses."""

    name: str
    places: dict
    packets: list

    def between(self, start_ms: int, end_ms: int, offset_ms: int = 0) -> list:
        """Packets starting in ``[start, end)``, shifted by ``offset_ms``."""
        out = [p for p in self.packets if start_ms <= p.start_ms < end_ms]
        if offset_ms:
            out = [dataclasses.replace(p, start_ms=p.start_ms + offset_ms) for p in out]
        return out


def make_inputs(seed: int, n: int, first_hour: int, last_hour: int) -> list:
    """Seeded Monday traces for ``n`` contributors, hours [first, last)."""
    lo, hi = MONDAY + first_hour * HOUR_MS, MONDAY + last_hour * HOUR_MS
    out = []
    for i in range(n):
        name = f"c{i}"
        persona = make_persona(
            name, stress_prob=0.35, smoker=i % 2 == 1, seed_offset=0.001 * i
        )
        trace = TraceSimulator(
            persona, SimulatorConfig(rate_scale=RATE_SCALE), seed=seed * 1009 + i
        ).run(MONDAY, days=1)
        packets = [p for p in trace.all_packets_sorted() if lo <= p.start_ms < hi]
        out.append(ContributorInput(name, dict(persona.places), packets))
    return out


def window_query(start_ms: int, end_ms: int) -> DataQuery:
    return DataQuery(time_range=Interval(start_ms, end_ms))


@dataclass
class Deployment:
    """A built system plus the client handles the workloads drive."""

    system: SensorSafeSystem
    contributors: dict
    phones: dict
    consumer: object
    #: the directory the deployment's durable stores live in
    directory: str = ""
    #: contributor -> every packet handed to its phone (the reference the
    #: owner's stored view is compared with)
    offered: dict = field(default_factory=dict)
    #: contributor -> annotated packets the phone delivered, in order
    delivered: dict = field(default_factory=dict)
    #: contributor -> id of the revocable rule while it is switched on
    revoked: dict = field(default_factory=dict)

    def add(self, name: str, contributor, phone) -> None:
        self.contributors[name] = contributor
        self.phones[name] = phone
        self.offered[name] = []
        self.delivered[name] = []

    def rules_of(self, name: str) -> list:
        """The owner's rules right now, as the benchmark set them."""
        return base_rules() + ([REVOKE_RULE] if name in self.revoked else [])

    def upload(self, name: str, packets: list) -> None:
        """One phone upload: gate, annotate, upload, flush."""
        self.offered[name].extend(packets)
        kept = self.phones[name].collect(packets)
        self.delivered[name].extend(kept)


@dataclass
class Revocation:
    """One rule edit followed at once by a fetch of the owner's data."""

    contributor: str
    window: Interval
    rules: list
    #: what the consumer received
    released: list
    latency_s: float

    @property
    def key(self) -> tuple:
        """Equal for repetitions of the same revocation: same owner, same
        time of week, same rule switched the same way."""
        return (self.contributor, self.window.start % WEEK_MS,
                self.window.end - self.window.start, REVOKE_RULE in self.rules)


class Workload:
    """Shared machinery: set-up bookkeeping, revocations, sampled checks."""

    name = ""
    #: the store keeps a WAL and a replica, whose contents are checked
    durable = False
    #: the timed round whose sampled outputs are checked and after which
    #: ``peak_rss_mb`` is read, about a third into a 30-second run.  The
    #: program keeps state per operation, so reading memory after a fixed
    #: amount of work keeps a faster program from reading as a larger one.
    SAMPLE_ROUND = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.dep: Deployment = None
        self.revocations: list = []
        #: (contributor, window, rules, released) of fetches to check
        self.fetch_samples: list = []
        #: (contributor, window, rules, rows) of aggregates to check
        self.aggregate_samples: list = []
        #: contributor -> {label: LabeledPlace}
        self.places: dict = {}
        self._setups = 0

    # -- set-up -------------------------------------------------------

    def setup(self) -> float:
        """Build the deployment the operations run on; seconds."""
        seconds, self.dep = self.timed_build()
        return seconds

    def timed_build(self) -> tuple:
        """``(seconds, deployment)`` of one set-up in a directory of its own."""
        gc.collect()  # free earlier deployments before timing the next
        self._setups += 1
        directory = os.path.join(self.workdir, f"setup-{self._setups}")
        started = time.perf_counter()
        dep = self.build(directory)
        return time.perf_counter() - started, dep

    def build(self, directory: str) -> Deployment:
        raise NotImplementedError

    def teardown(self) -> None:
        self.dep = None
        for entry in os.listdir(self.workdir):
            shutil.rmtree(os.path.join(self.workdir, entry), ignore_errors=True)

    def _add_contributor(self, dep: Deployment, ci: ContributorInput, *,
                         store=None, rule_aware: bool) -> None:
        contributor = dep.system.add_contributor(ci.name, store=store)
        contributor.set_places(ci.places.values())
        for rule in base_rules():
            contributor.add_rule(rule)
        dep.add(ci.name, contributor, contributor.phone(PhoneConfig(rule_aware=rule_aware)))

    # -- operations ---------------------------------------------------

    def round_ops(self, r: int) -> list:
        """Round ``r``'s operations; round 0 is the untimed warm-up."""
        raise NotImplementedError

    def revoke(self, name: str, window: Interval) -> Revocation:
        """Switch the revocable rule, then fetch ``window`` as the consumer."""
        dep = self.dep
        contributor = dep.contributors[name]
        started = time.perf_counter()
        if name in dep.revoked:
            contributor.remove_rule(dep.revoked.pop(name))
        else:
            dep.revoked[name] = contributor.add_rule(REVOKE_RULE)
        released = dep.consumer.fetch(name, window_query(window.start, window.end))
        latency = time.perf_counter() - started
        record = Revocation(name, window, dep.rules_of(name), released, latency)
        self.revocations.append(record)
        return record

    def between_rounds(self, r: int) -> list:
        """Operations run after timed round ``r``, outside the operation
        timings: the fetch workloads' revocations."""
        return []

    def sample_indices(self, n_ops: int) -> set:
        """Seeded choice of the operations whose outputs are checked."""
        return set(self.rng.sample(range(n_ops), min(FETCH_CHECK_SAMPLES, n_ops)))


class _FleetWorkload(Workload):
    """Fetch workloads: a 2-shard fleet loaded once, read by one consumer.

    Every run reports ``revoke_p50_ms``, so every ``REVOKE_EVERY``-th timed
    round, from round 1 on, is followed by a slot of revocations on the
    fleet, outside the operation timings: each owner in turn (in a seeded
    order) switches its deny rule on and off again, ``REVOKE_CYCLES``
    times, each switch followed at once by a fetch of one minute.  Each
    owner has a fixed minute, together spanning the loaded hours, so every
    seed revokes the same mix of windows, and every revocation repeats
    ``REVOKE_CYCLES`` times per slot, spread over the whole run like the
    timed rounds.  A minute rather than a quarter-hour puts the time into
    the rule change and the request path rather than into moving data,
    which the host slows most unevenly.  ``revoke_p50_ms`` takes each
    revocation at its fastest repetition; with one cycle per slot a run
    gave each about 25 repetitions, too few for that minimum to settle
    across runs.
    """

    N_CONTRIBUTORS = 6
    FIRST_HOUR, LAST_HOUR = 7, 11  # home, commute by car, work
    REVOKE_EVERY = 1
    REVOKE_CYCLES = 4

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.inputs = make_inputs(
            seed, self.N_CONTRIBUTORS, self.FIRST_HOUR, self.LAST_HOUR
        )
        self.places = {ci.name: ci.places for ci in self.inputs}
        #: the (contributor, minute) revoked in every slot, in order
        quarters = self.quarter_hours()
        self.revoked_windows = []
        for i, ci in enumerate(self.inputs):
            start = quarters[(3 * i + 1) % len(quarters)].start
            self.revoked_windows.append((ci.name, Interval(start, start + MINUTE_MS)))
        self.rng.shuffle(self.revoked_windows)

    def build(self, directory: str) -> Deployment:
        system = SensorSafeSystem(seed=self.seed)
        system.create_shard_fleet(2)
        dep = Deployment(system, {}, {}, None, directory)
        for ci in self.inputs:
            self._add_contributor(dep, ci, rule_aware=False)
        for ci in self.inputs:
            dep.upload(ci.name, ci.packets)
        dep.consumer = system.add_consumer(CONSUMER)
        dep.consumer.add_contributors(list(dep.contributors))
        return dep

    def quarter_hours(self) -> list:
        """The 15-minute windows of the loaded hours."""
        start = MONDAY + self.FIRST_HOUR * HOUR_MS
        return [
            Interval(start + q * 15 * MINUTE_MS, start + (q + 1) * 15 * MINUTE_MS)
            for q in range(4 * (self.LAST_HOUR - self.FIRST_HOUR))
        ]

    def between_rounds(self, r: int) -> list:
        if (r - 1) % self.REVOKE_EVERY:
            return []
        return [
            functools.partial(self.revoke, name, window)
            for name, window in self.revoked_windows
            for _on_then_off in range(2 * self.REVOKE_CYCLES)
        ]

    def _fetch_op(self, name: str, window: Interval, keep: bool):
        consumer = self.dep.consumer
        query = window_query(window.start, window.end)

        def op():
            released = consumer.fetch(name, query)
            if keep:
                self.fetch_samples.append(
                    (name, window, self.dep.rules_of(name), released)
                )

        return op

    def _aggregate_op(self, name: str, window: Interval, keep: bool):
        consumer = self.dep.consumer
        query = window_query(window.start, window.end)

        def op():
            rows = consumer.fetch_aggregate(name, AGGREGATE, query)
            if keep:
                self.aggregate_samples.append(
                    (name, window, self.dep.rules_of(name), rows)
                )

        return op


class FetchWarm(_FleetWorkload):
    """One-hour fetches that all hit the release cache."""

    name = "fetch-warm"
    SAMPLE_ROUND = 30
    # A slot is followed by a re-warm round (below) that costs more than
    # the slot, so slots are rarer here and hold more cycles.
    REVOKE_EVERY = 5
    REVOKE_CYCLES = 8

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.windows = []
        for ci in self.inputs:
            for h in range(self.FIRST_HOUR, self.LAST_HOUR):
                lo = MONDAY + h * HOUR_MS
                self.windows.append((ci.name, Interval(lo, lo + HOUR_MS)))
        self.rng.shuffle(self.windows)
        self._checked = self.sample_indices(len(self.windows))

    def round_ops(self, r: int) -> list:
        return [
            self._fetch_op(name, window, keep=r == self.SAMPLE_ROUND and i in self._checked)
            for i, (name, window) in enumerate(self.windows)
        ]

    def between_rounds(self, r: int) -> list:
        # A rule edit bumps its shard's rules epoch, which empties that
        # shard's release cache: warm it again before the next timed round.
        ops = super().between_rounds(r)
        return ops + self.round_ops(0) if ops else []


class FetchCold(_FleetWorkload):
    """15-minute fetches and aggregates whose release-cache keys never repeat."""

    name = "fetch-cold"
    SAMPLE_ROUND = 8

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.windows = [
            (ci.name, window) for ci in self.inputs for window in self.quarter_hours()
        ]
        # Two fetches per aggregate: the median falls inside the fetches
        # and the 95th percentile inside the (slower) aggregates, never on
        # the step between the two kinds.
        kinds = ["fetch", "fetch", "aggregate"] * (len(self.windows) // 3)
        self.rng.shuffle(self.windows)
        self.rng.shuffle(kinds)
        self.plan = list(zip(kinds, self.windows))
        self._checked = self.sample_indices(len(self.plan))

    def round_ops(self, r: int) -> list:
        # Round r shifts every window by r ms: the query, and so the
        # release-cache key, is new in every round.
        ops = []
        for i, (kind, (name, window)) in enumerate(self.plan):
            shifted = Interval(window.start + r, window.end + r)
            make = self._fetch_op if kind == "fetch" else self._aggregate_op
            ops.append(make(name, shifted, keep=r == self.SAMPLE_ROUND and i in self._checked))
        return ops


class IngestRevoke(Workload):
    """Rule-aware phone uploads to a replicated store, with revocations."""

    name = "ingest-revoke"
    durable = True
    SAMPLE_ROUND = 5

    N_CONTRIBUTORS = 4
    PRELOAD_HOUR = 6
    FIRST_HOUR, LAST_HOUR = 7, 11
    WINDOW_MS = 10 * MINUTE_MS
    #: a revocation follows every third window of uploads
    REVOKE_EVERY = 3

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.inputs = make_inputs(
            seed, self.N_CONTRIBUTORS, self.PRELOAD_HOUR, self.LAST_HOUR
        )
        self.by_name = {ci.name: ci for ci in self.inputs}
        self.places = {ci.name: ci.places for ci in self.inputs}
        start = MONDAY + self.FIRST_HOUR * HOUR_MS
        n_windows = (self.LAST_HOUR - self.FIRST_HOUR) * HOUR_MS // self.WINDOW_MS
        self.windows = [
            Interval(start + w * self.WINDOW_MS, start + (w + 1) * self.WINDOW_MS)
            for w in range(n_windows)
        ]
        # Upload order within a window, fixed for the run.
        self.order = [ci.name for ci in self.inputs]
        self.rng.shuffle(self.order)

    def build(self, directory: str) -> Deployment:
        system = SensorSafeSystem(seed=self.seed)
        # The replica set lives in ``directory``, the primary in ``lab/``.
        store = system.create_replicated_store(
            "lab", directory=directory, n_replicas=1, mode="semi-sync"
        )
        dep = Deployment(system, {}, {}, None, directory)
        for ci in self.inputs:
            self._add_contributor(dep, ci, store=store, rule_aware=True)
        dep.consumer = system.add_consumer(CONSUMER)
        dep.consumer.add_contributors([ci.name for ci in self.inputs])
        lo = MONDAY + self.PRELOAD_HOUR * HOUR_MS
        for ci in self.inputs:
            dep.upload(ci.name, ci.between(lo, lo + HOUR_MS))
        return dep

    def round_ops(self, r: int) -> list:
        # Round r replays the same Monday hours r weeks later, so weekday,
        # time of day and rule behaviour repeat exactly.
        offset = r * WEEK_MS
        ops = []
        for w, window in enumerate(self.windows):
            shifted = Interval(window.start + offset, window.end + offset)
            for name in self.order:
                packets = self.by_name[name].between(window.start, window.end, offset)
                ops.append(self._upload_op(name, packets))
            if w % self.REVOKE_EVERY == self.REVOKE_EVERY - 1:
                k = (w // self.REVOKE_EVERY) % len(self.order)
                ops.append(self._revoke_op(self.order[k], shifted))
        return ops

    def _upload_op(self, name: str, packets: list):
        def op():
            self.dep.upload(name, packets)

        return op

    def _revoke_op(self, name: str, window: Interval):
        def op():
            self.revoke(name, window)
            # The phone picks up the new rules before its next window.
            self.dep.phones[name].download_rules()

        return op


WORKLOADS = {cls.name: cls for cls in (FetchWarm, FetchCold, IngestRevoke)}
