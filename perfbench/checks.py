"""Correctness checks, run outside the timed phase.

The references are independent of the code under test:

* released pieces are compared sample by sample with
  :func:`repro.conformance.oracle.decide_instant`, evaluated on segments
  rebuilt here from the packets the phones delivered;
* aggregate rows are recomputed with numpy from released samples;
* stored data (the owner's view, a store recovered from the WAL, the
  replica) is compared with the packets the phones delivered, whose values
  are compared with the generated trace.

Every check returns a list of error strings; empty means it passed.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.conformance.oracle import decide_instant
from repro.datastore.wavesegment import TIME_CHANNEL, WaveSegment
from repro.sensors.channels import CHANNELS

#: Errors reported per check before the rest are summarised.
MAX_ERRORS = 5


def _packet_segment(contributor: str, packet) -> WaveSegment:
    """The single-channel segment a stored packet becomes."""
    return WaveSegment(
        contributor=contributor,
        channels=(packet.channel_name,),
        start_ms=packet.start_ms,
        interval_ms=packet.interval_ms,
        values=np.asarray(packet.values, dtype=np.float64).reshape(-1, 1),
        location=packet.location,
        context=dict(packet.context),
    )


def _location(value):
    return list(value) if isinstance(value, (list, tuple)) else value


def _limit(errors: list) -> list:
    if len(errors) <= MAX_ERRORS:
        return errors
    return errors[:MAX_ERRORS] + [f"... and {len(errors) - MAX_ERRORS} more"]


def released_samples(released) -> tuple:
    """``({(channel, t): value}, duplicates)`` over every released piece."""
    samples: dict = {}
    duplicates = []
    for piece in released:
        segment = piece.segment
        if segment is None:
            continue
        times = segment.sample_times()
        for channel in segment.channels:
            if channel == TIME_CHANNEL:
                continue
            values = segment.channel_values(channel)
            for t, v in zip(times.tolist(), values.tolist()):
                if (channel, t) in samples:
                    duplicates.append((channel, t))
                samples[(channel, t)] = (v, piece)
    return samples, duplicates


def release_errors(contributor, delivered, window, rules, places, principals,
                   released) -> list:
    """Released pieces for ``window`` against the oracle, sample by sample.

    ``delivered`` are the packets the owner's phone delivered (annotated
    with the context the phone inferred, which is what the store holds).
    """
    errors = []
    covering = [
        p for p in delivered
        if p.start_ms < window.end and p.end_ms > window.start
    ]
    expected = {}
    for packet in covering:
        segment = _packet_segment(contributor, packet)
        for i, value in enumerate(packet.values):
            t = packet.start_ms + i * packet.interval_ms
            if not window.start <= t < window.end:
                continue
            decision = decide_instant(rules, segment, principals, places, t)
            if decision.releases and packet.channel_name in decision.channels:
                expected[(packet.channel_name, t)] = (value, decision)

    actual, duplicates = released_samples(released)
    for channel, t in duplicates:
        errors.append(f"{contributor}: sample {channel}@{t} released twice")
    for key in sorted(set(expected) - set(actual)):
        errors.append(f"{contributor}: oracle releases {key[0]}@{key[1]}; missing")
    for key in sorted(set(actual) - set(expected)):
        errors.append(f"{contributor}: {key[0]}@{key[1]} released; oracle withholds it")
    for key in sorted(set(actual) & set(expected)):
        got, piece = actual[key]
        want, decision = expected[key]
        if got != want:
            errors.append(f"{contributor}: {key[0]}@{key[1]} value {got} != {want}")
        for what, a, b in (
            ("labels", piece.context_labels, decision.context_labels),
            ("location", _location(piece.location), _location(decision.location)),
            ("location level", piece.location_level, decision.location_level),
            ("time level", piece.time_level, decision.time_level),
        ):
            if a != b:
                errors.append(f"{contributor}: {key[0]}@{key[1]} {what} {a!r} != {b!r}")

    # Label-only pieces carry no samples: the oracle must release exactly
    # those labels, and no data, for some delivered packet at that instant.
    for piece in released:
        if piece.segment is not None:
            continue
        t = piece.timestamp
        justified = False
        for packet in covering:
            if not packet.start_ms <= t < packet.end_ms:
                continue
            decision = decide_instant(
                rules, _packet_segment(contributor, packet), principals, places, t
            )
            if (decision.releases and packet.channel_name not in decision.channels
                    and decision.context_labels == piece.context_labels):
                justified = True
                break
        if not justified:
            errors.append(
                f"{contributor}: label-only piece at {t} "
                f"({piece.context_labels}) not released by the oracle"
            )
    return _limit(errors)


def aggregate_errors(contributor, released, rows, spec) -> list:
    """Aggregate rows against a numpy recomputation from released samples."""
    if spec.function != "mean":
        raise ValueError(f"check supports mean aggregates, not {spec.function}")
    samples, _ = released_samples(released)
    by_channel = defaultdict(lambda: ([], []))
    for (channel, t), (value, _piece) in samples.items():
        by_channel[channel][0].append(t)
        by_channel[channel][1].append(value)
    expected = {}
    for channel, (times, values) in by_channel.items():
        windows = np.asarray(times, dtype=np.int64) // spec.window_ms
        values = np.asarray(values, dtype=np.float64)
        for w in np.unique(windows):
            chunk = values[windows == w]
            expected[(channel, int(w) * spec.window_ms)] = (float(np.mean(chunk)), chunk.size)
    errors = []
    got = {(row.channel, row.window_start_ms): (row.value, row.count) for row in rows}
    if len(got) != len(rows):
        errors.append(f"{contributor}: aggregate rows repeat a (channel, window)")
    for key in sorted(set(expected) ^ set(got)):
        side = "missing" if key in expected else "unexpected"
        errors.append(f"{contributor}: aggregate row {key} {side}")
    for key in sorted(set(expected) & set(got)):
        (want, want_n), (value, n) = expected[key], got[key]
        if n != want_n:
            errors.append(f"{contributor}: aggregate {key} count {n} != {want_n}")
        elif not np.isclose(value, want, rtol=1e-9, atol=1e-12):
            errors.append(f"{contributor}: aggregate {key} mean {value} != {want}")
    return _limit(errors)


#: Stored-data checks key a sample as ``channel_code << 42 | t``: epoch
#: milliseconds stay below 2**42 until the year 2109.
_TIME_BITS = 42
_CHANNEL_CODES = {name: code for code, name in enumerate(sorted(CHANNELS))}


def _sorted(keys, values) -> tuple:
    order = np.argsort(keys, kind="stable")
    return keys[order], values[order]


def packet_table(packets) -> tuple:
    """Sorted ``(keys, values)`` arrays of every sample of a packet list."""
    lengths = np.array([len(p.values) for p in packets], dtype=np.int64)
    first = np.array(
        [(_CHANNEL_CODES[p.channel_name] << _TIME_BITS) + p.start_ms for p in packets],
        dtype=np.int64,
    )
    step = np.array([p.interval_ms for p in packets], dtype=np.int64)
    # index of each sample within its packet
    index = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    keys = np.repeat(first, lengths) + np.repeat(step, lengths) * index
    values = np.fromiter(
        (v for p in packets for v in p.values), dtype=np.float64, count=len(keys)
    )
    return _sorted(keys, values)


def segment_table(segments) -> tuple:
    """Sorted ``(keys, values)`` arrays of every sample of stored segments."""
    keys, values = [np.empty(0, np.int64)], [np.empty(0, np.float64)]
    for segment in segments:
        times = segment.sample_times().astype(np.int64)
        for channel in segment.channels:
            if channel != TIME_CHANNEL:
                keys.append((_CHANNEL_CODES[channel] << _TIME_BITS) + times)
                values.append(segment.channel_values(channel))
    return _sorted(np.concatenate(keys), np.concatenate(values).astype(np.float64))


def _describe(key) -> str:
    code, t = int(key) >> _TIME_BITS, int(key) & ((1 << _TIME_BITS) - 1)
    return f"{sorted(_CHANNEL_CODES)[code]}@{t}"


def delivered_errors(contributor, offered, delivered_table) -> list:
    """Delivered samples must be generated samples with unchanged values.

    ``delivered_table`` is :func:`packet_table` of the delivered packets.
    """
    have_keys, have_values = packet_table(offered)
    keys, values = delivered_table
    if len(have_keys):
        at = np.minimum(np.searchsorted(have_keys, keys), len(have_keys) - 1)
        bad = (have_keys[at] != keys) | (have_values[at] != values)
    else:
        bad = np.ones(len(keys), dtype=bool)
    return _limit([
        f"{contributor}: delivered {_describe(k)}={v} is not in the generated trace"
        for k, v in zip(keys[bad], values[bad])
    ])


def stored_errors(where, contributor, delivered_table, segments) -> list:
    """A store must hold exactly the delivered samples, values included.

    ``delivered_table`` is :func:`packet_table` of the delivered packets.
    """
    want_keys, want_values = delivered_table
    keys, values = segment_table(segments)
    if np.array_equal(keys, want_keys) and np.array_equal(values, want_values):
        return []
    errors = []
    if len(np.unique(keys)) != len(keys):
        errors.append(f"{where}/{contributor}: a sample is stored twice")
    missing = np.setdiff1d(want_keys, keys)
    extra = np.setdiff1d(keys, want_keys)
    errors += [f"{where}/{contributor}: delivered sample {_describe(k)} missing"
               for k in missing]
    errors += [f"{where}/{contributor}: holds {_describe(k)} never delivered"
               for k in extra]
    if not errors:
        errors.append(f"{where}/{contributor}: stored values differ from delivered ones")
    return _limit(errors)
