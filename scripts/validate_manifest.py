#!/usr/bin/env python3
"""Validate a tdp-run-manifest JSON document (stdlib only).

Usage: validate_manifest.py MANIFEST.json [--expect-runs N]
           [--require-stream] [--require-stream-timeline]

Checks the schema-versioned structure written by obs::RunManifest:
field presence, types, fingerprint format, histogram snapshot shape.
Exits non-zero with a message naming the first violation.
"""

import argparse
import json
import re
import sys

FINGERPRINT_RE = re.compile(r"^[0-9a-f]{16}$")


def fail(msg):
    print(f"validate_manifest: {msg}", file=sys.stderr)
    sys.exit(1)


def expect(cond, msg):
    if not cond:
        fail(msg)


def check_number(value, where):
    expect(isinstance(value, (int, float)) and not isinstance(value, bool),
           f"{where} must be a number, got {type(value).__name__}")


def check_stats(stats):
    expect(isinstance(stats, dict), "stats must be an object")
    for group in ("counters", "gauges", "histograms"):
        expect(group in stats, f"stats.{group} missing")
        expect(isinstance(stats[group], dict),
               f"stats.{group} must be an object")
    for name, value in stats["counters"].items():
        expect(isinstance(value, int) and value >= 0,
               f"counter {name} must be a non-negative integer")
    for name, value in stats["gauges"].items():
        check_number(value, f"gauge {name}")
    for name, hist in stats["histograms"].items():
        expect(isinstance(hist, dict), f"histogram {name} must be an object")
        for field in ("count", "sum", "buckets"):
            expect(field in hist, f"histogram {name}.{field} missing")
        expect(isinstance(hist["buckets"], list) and len(hist["buckets"]) <= 65,
               f"histogram {name}.buckets must be a list of <= 65 buckets")
        expect(sum(hist["buckets"]) == hist["count"],
               f"histogram {name}: bucket sum != count")


STREAM_INGEST_KEYS = (
    "offered", "admitted", "shed", "overflow", "high_water",
    "quarantined_at_door", "ticks", "drained")
STREAM_SESSION_KEYS = (
    "created", "accepted", "baselines", "wraps", "non_finite",
    "out_of_range", "duplicate_seq", "out_of_order_seq", "stale_time",
    "zero_cycles", "rejected_quarantined", "quarantines", "evicted",
    "active", "quarantined_now")
STREAM_SLO_KEYS = ("samples", "p50_ticks", "p99_ticks", "max_ticks")
STREAM_RAILS = ("cpu", "chipset", "memory", "io", "disk")
STREAM_RAIL_COUNTER_KEYS = (
    "refits", "full_qr_refits", "verified_refits",
    "degraded_publishes", "unestimable", "drift_engaged",
    "drift_recovered", "drift_relapses", "rls_rows")
STREAM_DRIFT_STATES = ("healthy", "degraded", "probation")


def check_stream_sections(sections):
    """Schema of the StreamService manifest sections (PR 7)."""
    for name, keys in (("stream.ingest", STREAM_INGEST_KEYS),
                       ("stream.session", STREAM_SESSION_KEYS),
                       ("stream.slo", STREAM_SLO_KEYS)):
        expect(name in sections, f"section {name} missing "
               f"(did the sweep run a drift phase with observability "
               f"on?)")
        for key in keys:
            expect(key in sections[name],
                   f"section {name}.{key} missing")
            check_number(sections[name][key], f"section {name}.{key}")

    expect("stream.rails" in sections, "section stream.rails missing")
    rails = sections["stream.rails"]
    for rail in STREAM_RAILS:
        state = rails.get(f"{rail}.state")
        expect(isinstance(state, str)
               and state.lower() in STREAM_DRIFT_STATES,
               f"stream.rails.{rail}.state must be one of "
               f"{STREAM_DRIFT_STATES}, got {state!r}")
        for key in STREAM_RAIL_COUNTER_KEYS:
            full = f"{rail}.{key}"
            expect(full in rails, f"stream.rails.{full} missing")
            check_number(rails[full], f"stream.rails.{full}")
        for key in ("baseline_rmse", "last_refit_rmse"):
            check_number(rails.get(f"{rail}.{key}"),
                         f"stream.rails.{rail}.{key}")


STREAM_TIMELINE_SUMMARY_KEYS = (
    "window_ticks", "capacity", "windows", "recorded", "dropped")
STREAM_TIMELINE_WINDOW_KEYS = (
    "tick", "offered", "admitted", "shed", "overflow", "accepted",
    "invalid", "quarantines", "evicted", "refits", "drift_engaged",
    "drift_recovered", "checkpoints", "occupancy_max", "occupancy_mean",
    "latency_count", "latency_max_ticks", "p50_ticks", "p99_ticks",
    "p999_ticks")
STREAM_HDR_KEYS = (
    "count", "max_ticks", "p50_ticks", "p99_ticks", "p999_ticks",
    "sub_bucket_bits", "rel_error_bound", "buckets_used")
STREAM_FLIGHT_KEYS = ("rings", "capacity", "recorded", "dropped")


def check_stream_timeline_sections(sections):
    """Schema of the StreamTelemetry manifest sections (PR 9):
    the tick-indexed timeline, the HDR latency summary and the
    flight-recorder totals."""
    expect("stream.timeline" in sections,
           "section stream.timeline missing (was the bench run with "
           "--timeline-out / TDP_TIMELINE_OUT?)")
    timeline = sections["stream.timeline"]
    for key in STREAM_TIMELINE_SUMMARY_KEYS:
        expect(key in timeline, f"stream.timeline.{key} missing")
        check_number(timeline[key], f"stream.timeline.{key}")
    windows = timeline["windows"]
    expect(isinstance(windows, int) and windows >= 1,
           "stream.timeline.windows must be a positive integer - an "
           "empty timeline proves nothing")
    last_tick = -1
    for w in range(windows):
        prefix = f"w{w}."
        for key in STREAM_TIMELINE_WINDOW_KEYS:
            full = prefix + key
            expect(full in timeline,
                   f"stream.timeline.{full} missing")
            check_number(timeline[full], f"stream.timeline.{full}")
        state = timeline.get(prefix + "drift_state")
        expect(isinstance(state, str)
               and state.lower() in STREAM_DRIFT_STATES,
               f"stream.timeline.{prefix}drift_state must be one of "
               f"{STREAM_DRIFT_STATES}, got {state!r}")
        tick = timeline[prefix + "tick"]
        expect(tick > last_tick,
               f"stream.timeline.{prefix}tick must increase "
               f"(got {tick} after {last_tick})")
        last_tick = tick
        if timeline[prefix + "latency_count"] > 0:
            p50 = timeline[prefix + "p50_ticks"]
            p99 = timeline[prefix + "p99_ticks"]
            p999 = timeline[prefix + "p999_ticks"]
            pmax = timeline[prefix + "latency_max_ticks"]
            expect(p50 <= p99 <= p999 <= pmax,
                   f"stream.timeline.{prefix} quantiles must be "
                   f"ordered p50 <= p99 <= p999 <= max, got "
                   f"{p50}/{p99}/{p999}/{pmax}")

    expect("stream.latency_hdr" in sections,
           "section stream.latency_hdr missing")
    hdr = sections["stream.latency_hdr"]
    for key in STREAM_HDR_KEYS:
        expect(key in hdr, f"stream.latency_hdr.{key} missing")
        check_number(hdr[key], f"stream.latency_hdr.{key}")
    expect(0 < hdr["rel_error_bound"] <= 0.5,
           "stream.latency_hdr.rel_error_bound out of range")
    if hdr["count"] > 0:
        expect(hdr["p50_ticks"] <= hdr["p99_ticks"]
               <= hdr["p999_ticks"] <= hdr["max_ticks"],
               "stream.latency_hdr quantiles must be ordered")

    expect("stream.flight" in sections,
           "section stream.flight missing")
    flight = sections["stream.flight"]
    for key in STREAM_FLIGHT_KEYS:
        expect(key in flight, f"stream.flight.{key} missing")
        check_number(flight[key], f"stream.flight.{key}")
    expect(flight["rings"] >= 2,
           "stream.flight.rings must cover the shards plus the "
           "service ring")


def check_manifest(doc, expect_runs):
    expect(isinstance(doc, dict), "document must be a JSON object")
    expect(doc.get("schema") == "tdp-run-manifest",
           f"schema must be 'tdp-run-manifest', got {doc.get('schema')!r}")
    expect(doc.get("version") == 1, f"version must be 1, got {doc.get('version')!r}")
    expect(isinstance(doc.get("tool"), str) and doc["tool"],
           "tool must be a non-empty string")
    expect(isinstance(doc.get("jobs"), int) and doc["jobs"] >= 1,
           "jobs must be a positive integer")

    runs = doc.get("runs")
    expect(isinstance(runs, list), "runs must be a list")
    if expect_runs is not None:
        expect(len(runs) == expect_runs,
               f"expected {expect_runs} runs, found {len(runs)}")
    for i, run in enumerate(runs):
        where = f"runs[{i}]"
        expect(isinstance(run, dict), f"{where} must be an object")
        expect(isinstance(run.get("workload"), str) and run["workload"],
               f"{where}.workload must be a non-empty string")
        expect(isinstance(run.get("samples"), int) and run["samples"] >= 0,
               f"{where}.samples must be a non-negative integer")
        expect(isinstance(run.get("fingerprint"), str)
               and FINGERPRINT_RE.match(run["fingerprint"]),
               f"{where}.fingerprint must be 16 lowercase hex digits")
        expect(isinstance(run.get("from_cache"), bool),
               f"{where}.from_cache must be a boolean")
        check_number(run.get("sim_seconds"), f"{where}.sim_seconds")

    metrics = doc.get("metrics")
    expect(isinstance(metrics, list), "metrics must be a list")
    for i, metric in enumerate(metrics):
        where = f"metrics[{i}]"
        expect(isinstance(metric, dict), f"{where} must be an object")
        expect(isinstance(metric.get("name"), str) and metric["name"],
               f"{where}.name must be a non-empty string")
        check_number(metric.get("value"), f"{where}.value")
        expect(isinstance(metric.get("unit"), str),
               f"{where}.unit must be a string")

    sections = doc.get("sections")
    expect(isinstance(sections, dict), "sections must be an object")
    for name, entries in sections.items():
        expect(isinstance(entries, dict),
               f"section {name} must be an object")
        for key, value in entries.items():
            expect(isinstance(value, (int, float, str))
                   and not isinstance(value, bool),
                   f"section {name}.{key} must be a number or string")

    expect("stats" in doc, "stats missing")
    check_stats(doc["stats"])

    if "span_trace" in doc:
        span = doc["span_trace"]
        expect(isinstance(span, dict), "span_trace must be an object")
        expect(isinstance(span.get("path"), str) and span["path"],
               "span_trace.path must be a non-empty string")
        for field in ("recorded", "dropped"):
            expect(isinstance(span.get(field), int) and span[field] >= 0,
                   f"span_trace.{field} must be a non-negative integer")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("manifest")
    parser.add_argument("--expect-runs", type=int, default=None)
    parser.add_argument("--require-stream", action="store_true",
                        help="additionally require the stream.* "
                             "sections written by the streaming "
                             "estimation service")
    parser.add_argument("--require-stream-timeline",
                        action="store_true",
                        help="additionally require the telemetry "
                             "sections (stream.timeline, "
                             "stream.latency_hdr, stream.flight) "
                             "written when --timeline-out is set")
    args = parser.parse_args()

    try:
        with open(args.manifest, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"cannot load {args.manifest}: {err}")

    check_manifest(doc, args.expect_runs)
    if args.require_stream:
        check_stream_sections(doc.get("sections", {}))
    if args.require_stream_timeline:
        check_stream_timeline_sections(doc.get("sections", {}))
    print(f"validate_manifest: {args.manifest} OK "
          f"({len(doc['runs'])} runs, {len(doc['metrics'])} metrics, "
          f"{len(doc['stats']['counters'])} counters)")


if __name__ == "__main__":
    main()
