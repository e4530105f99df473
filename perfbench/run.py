#!/usr/bin/env python3
"""End-to-end benchmark of the trickle-down pipeline and the stream service.

One run:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the perfbench binary (perfbench/CMakeLists.txt, on top of the repository's
src/ libraries) on first use, runs one workload, checks its outputs and
prints every metric by name with its unit. The last stdout line is the
JSON result: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. The exit code is non-zero when an output check fails.

Steadiness report (sets the bounds, and checks two sets agree):

    python3 perfbench/run.py --workload NAME --repeat 10 [--sets 2]

runs the workload REPEAT times per set, each with another seed, and prints
each end-to-end metric's median, quartiles and IQR against its bound.

Workloads, metrics and bounds are listed in BENCHMARK.json; the paper's
reference errors, the default and held-out seeds, the reference digests
and which end-to-end metric each layer metric should move are in
perfbench/reference.json.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("paper-pipeline", "model-grid", "stream-hostile")
BATCH = ("paper-pipeline", "model-grid")

# The percentile reported as tick_tail_ms: the highest one with at least
# ten steps beyond it in a 30 s run (at most p99), fixed per workload so
# that the metric keeps its meaning when a later change makes steps
# faster. Steps: a simulated run scaled to 180 simulated seconds
# (pipeline), a grid row (model-grid), a serving tick (stream-hostile,
# where p99 lands on checkpoint ticks).
TAIL_PERCENTILE = {
    "paper-pipeline": 90.0,
    "model-grid": 99.0,
    "stream-hostile": 99.0,
}

PAPER_WORKLOADS = ("idle", "gcc", "mcf", "vortex", "dbt2", "specjbb",
                   "diskload", "art", "lucas", "mesa", "mgrid", "wupwise")

BINARY_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configure and build the binary; returns its path or None."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    logfile = os.path.join(out, "build.log")
    with open(logfile, "w") as sink:
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", out, "-j4", "--target",
                      "perfbench"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=sink, stderr=subprocess.STDOUT) != 0:
                # A failed configure must not leave a cache that makes the
                # next attempt skip it.
                cache = os.path.join(out, "CMakeCache.txt")
                if cmd[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)
                with open(logfile) as f:
                    log("".join(f.readlines()[-20:]))
                log("perfbench: build failed (log: %s)" % logfile)
                return None
    return os.path.join(out, "perfbench")


def percentile(values, p):
    """Nearest-rank percentile, and how many values lie beyond it."""
    ordered = sorted(values)
    if not ordered:
        return 0.0, 0
    rank = min(len(ordered), max(1, math.ceil(len(ordered) * p / 100)))
    return ordered[rank - 1], len(ordered) - rank


def count_log_lines(path):
    """fatal:/warn: lines in one set-up plus the first measured unit.

    The binary brackets all set-ups (setup-begin/end) and the first unit
    (unit-begin/end) with marks, so the counts are exact and do not grow
    with the run length.
    """
    window = None
    counts = {"setup": {"fatal": 0, "warn": 0},
              "unit": {"fatal": 0, "warn": 0}}
    with open(path, errors="replace") as f:
        for line in f:
            if line.startswith("perfbench: mark "):
                mark = line.split()[-1]
                window = {"setup-begin": "setup", "unit-begin": "unit"}.get(
                    mark)
                continue
            if window is None:
                continue
            if line.startswith("fatal:"):
                counts[window]["fatal"] += 1
            elif line.startswith("warn:"):
                counts[window]["warn"] += 1
    return counts


def load_spans(files):
    """The benchmark's own spans (names with '::') from the chunk files."""
    spans = []
    for path in files:
        with open(path) as f:
            for ev in json.load(f)["traceEvents"]:
                name = ev["name"]
                if "::" not in name or name.startswith("perfbench::"):
                    continue
                spans.append({
                    "name": name,
                    "cat": ev["cat"],
                    "ts": ev["ts"],
                    "dur": ev["dur"],
                    "tid": ev["tid"],
                    "id": ev.get("args", {}).get("id"),
                })
    return spans


def self_times(spans):
    """Per layer (span category): total and self seconds.

    A span's self time is its duration minus what its direct children on
    the same thread cover.
    """
    by_tid = {}
    for s in spans:
        by_tid.setdefault(s["tid"], []).append(s)
    layers = {}
    for items in by_tid.values():
        items.sort(key=lambda s: (s["ts"], -s["dur"]))
        stack = []
        for s in items:
            s["child"] = 0.0
            while stack and s["ts"] >= stack[-1]["ts"] + stack[-1]["dur"]:
                stack.pop()
            if stack:
                stack[-1]["child"] += s["dur"]
            stack.append(s)
        for s in items:
            entry = layers.setdefault(s["cat"], {"total": 0.0, "self": 0.0,
                                                 "spans": 0})
            entry["total"] += s["dur"] / 1e6
            entry["self"] += max(0.0, s["dur"] - s["child"]) / 1e6
            entry["spans"] += 1
    return layers


def sum_dur(spans, name):
    return sum(s["dur"] for s in spans if s["name"] == name) / 1e6


def end_to_end(workload, raw):
    nums, series, counts = raw["numbers"], raw["series"], raw["counts"]
    steps = series["step_ms"]
    tail_p = TAIL_PERCENTILE[workload]
    tail, beyond = percentile(steps, tail_p)
    # Single steps split between the host's fast and slow phases (up to
    # 2x apart on a vCPU whose sibling is busy), so their median jumps
    # between the two. The median is taken over passes instead (a
    # pipeline pass, a grid pass, a checkpoint period of ticks), each as
    # its mean step; the tail keeps single steps.
    n = counts["steps_per_pass"]
    passes = [statistics.mean(steps[i:i + n])
              for i in range(0, len(steps) - n + 1, n)]
    m = {
        "setup_s": (statistics.median(series["setup_s"]), "s"),
        "tick_p50_ms": (statistics.median(passes), "ms"),
        "tick_tail_ms": (tail, "ms"),
        "bytes_per_session": (nums["bytes_per_session"], "B"),
        "peak_rss_mb": (nums["peak_rss_mb"], "MB"),
    }
    # Throughputs are work over the whole measured section, which averages
    # the host's speed swings better than a median of units.
    if workload in BATCH:
        units = series["unit_s"]
        per_unit = sum(units) / len(units)
        m["sim_s_per_wall_s"] = (nums["work.trace_seconds"] / per_unit,
                                 "sim_s/s")
        m["cells_per_s"] = (nums["work.cells"] / per_unit, "1/s")
        m["samples_per_s"] = (nums["work.samples"] / per_unit, "1/s")
    else:
        step_s = sum(steps) / 1e3
        m["samples_per_s"] = (sum(series["step_samples"]) / step_s, "1/s")
        # Every stream sample is one 1 s window of its client's time.
        m["sim_s_per_wall_s"] = (m["samples_per_s"][0], "sim_s/s")
        m["cells_per_s"] = (counts["timed.stream.refits"] / step_s, "1/s")
    notes = {"tick_p50_ms": "median of %d passes of %d steps" % (
                 len(passes), n),
             "tick_tail_ms": "p%g, %d of %d steps beyond" % (
                 tail_p, beyond, len(steps))}
    return m, notes


def per_layer(workload, raw, logs, correct):
    nums, series, counts, texts = (raw["numbers"], raw["series"],
                                   raw["counts"], raw["texts"])
    files = [f for f in texts.get("span_files", "").split("\n") if f]
    spans = load_spans(files)
    traced_units = counts.get("traced_units", 0)
    workers = counts.get("workers", 1)
    c = lambda name: counts.get(name, 0)
    m = {}

    m["platform.build_s"] = (sum_dur(spans, "Server::Server"), "s")
    run_s = sum_dur(spans, "Server::run")
    m["sim.run_s"] = (run_s, "s")
    spec_names = texts.get("spec_workloads", "").split(",")
    for w in PAPER_WORKLOADS:
        total = 0.0
        for s in spans:
            if s["name"] == "Server::run" and s["id"] is not None:
                idx = int(s["id"]) % 100
                if idx < len(spec_names) and spec_names[idx] == w:
                    total += s["dur"] / 1e6
        m["sim.run_s." + w] = (total, "s")
    quanta = c("sim.quanta")
    m["sim.ns_per_quantum"] = (
        run_s * 1e9 / (quanta * traced_units) if quanta and traced_units
        else 0.0, "ns")
    m["sim.quanta"] = (quanta, "count")
    m["sim.events"] = (c("sim.events"), "count")

    m["measure.collect_s"] = (sum_dur(spans, "MeasurementRig::collect"), "s")
    m["measure.samples"] = (c("measure.samples"), "count")
    m["measure.orphans"] = (c("measure.orphans"), "count")

    pool_s = sum_dur(spans, "ExperimentPool::map")
    tasks = [s["dur"] / 1e6 for s in spans
             if s["name"] == "ExperimentPool::task"]
    m["exp.pool_s"] = (pool_s, "s")
    m["exp.task_s_sum"] = (sum(tasks), "s")
    m["exp.task_max_s"] = (max(tasks) if tasks else 0.0, "s")
    m["exp.busy_ratio"] = (sum(tasks) / (pool_s * workers) if pool_s else 0.0,
                           "ratio")

    m["trace.load_s"] = (sum_dur(spans, "TraceCache::lookup"), "s")
    # Stores happen only in set-up; the binary times them there.
    m["trace.store_s"] = (nums.get("trace.store_s", 0.0), "s")
    m["trace.hits"] = (c("trace.hits"), "count")
    m["trace.misses"] = (c("trace.misses"), "count")
    m["trace.bytes"] = (c("trace.bytes"), "B")

    train_s = sum_dur(spans, "ModelTrainer::train")
    validate_s = sum_dur(spans, "Validator::validate")
    tick_s = sum_dur(spans, "StreamService::tick")
    m["core.train_s"] = (train_s, "s")
    m["core.trains"] = (c("core.trains"), "count")
    m["core.validate_s"] = (validate_s, "s")
    m["core.estimates"] = (c("core.estimates"), "count")
    if workload in BATCH:
        est = c("core.estimates") * traced_units
        m["core.ns_per_estimate"] = (validate_s * 1e9 / est if est else 0.0,
                                     "ns")
    else:
        n_untraced = len(series["unit_s"])
        est = sum(series["step_samples"][n_untraced:])
        m["core.ns_per_estimate"] = (tick_s * 1e9 / est if est else 0.0,
                                     "ns")
    m["log.fatal_lines"] = (logs["fatal"], "count")
    m["log.warn_lines"] = (logs["warn"], "count")

    offer_s = sum_dur(spans, "StreamService::offer")
    offers = c("offers_per_tick") * sum(
        1 for s in spans if s["name"] == "StreamService::offer")
    m["stream.offer_s"] = (offer_s, "s")
    m["stream.offer_ns"] = (offer_s * 1e9 / offers if offers else 0.0, "ns")
    for name in ("offered", "shed", "overflow", "refused", "accepted",
                 "invalid", "quarantines", "evicted", "refits",
                 "full_qr_refits", "fallback_publishes", "drift_engaged",
                 "checkpoints"):
        m["stream." + name] = (c("prefix.stream." + name), "count")
    ticks = [s["dur"] / 1e3 for s in spans
             if s["name"] == "StreamService::tick"]
    m["stream.tick_s"] = (tick_s, "s")
    m["stream.tick_ms_p50"] = (statistics.median(ticks) if ticks else 0.0,
                               "ms")
    m["stream.tick_ms_tail"] = (
        percentile(ticks, TAIL_PERCENTILE[workload])[0], "ms")
    m["stream.queue_ticks_p99"] = (c("stream.queue_ticks_p99"), "ticks")
    ckpt = series.get("checkpoint_ms", [])
    m["stream.checkpoint_ms_p50"] = (statistics.median(ckpt) if ckpt else 0.0,
                                     "ms")
    m["stream.checkpoint_ms_max"] = (max(ckpt) if ckpt else 0.0, "ms")
    m["stream.checkpoint_bytes"] = (c("stream.checkpoint_bytes"), "B")
    m["stream.checkpoint_failures"] = (c("stream.checkpoint_failures"),
                                       "count")
    m["stream.restore_s"] = (nums.get("stream.restore_s", 0.0), "s")
    m["stream.session_bytes"] = (c("stream.session_bytes"), "B")

    untraced = series["unit_s"]
    traced = series.get("traced_unit_s", [])
    if workload not in BATCH:
        steps = series["step_ms"]
        untraced, traced = steps[:len(untraced)], steps[len(untraced):]
    m["obs.trace_overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced)
        if traced and untraced else 0.0, "ratio")
    m["obs.spans"] = (c("obs.spans"), "count")
    m["obs.spans_dropped"] = (c("obs.spans_dropped"), "count")

    m["avg_model_error_pct"] = (nums["avg_model_error_pct"], "%")
    # A failed output check fails every operation of the run.
    if not correct:
        m["failed_share"] = (1.0, "ratio")
    elif workload in BATCH:
        m["failed_share"] = (0.0, "ratio")
    else:
        offered = c("timed.stream.offered")
        refused = (c("timed.stream.shed") + c("timed.stream.overflow") +
                   c("timed.stream.refused"))
        m["failed_share"] = (refused / offered if offered else 0.0, "ratio")
    traced_wall = sum(series.get("traced_unit_s", []))
    return m, self_times(spans), traced_wall


def layer_mix(workload, m, layers, busy):
    """The layer mix each workload was designed for, as (claim, holds)."""
    share = lambda *cats: sum(layers.get(c, {}).get("self", 0.0)
                              for c in cats) / busy if busy else 0.0
    value = lambda name: m[name][0]
    if workload == "paper-pipeline":
        return [("sim holds most of the traced time", share("sim") > 0.5)]
    if workload == "model-grid":
        return [("no simulation in the measured section",
                 value("sim.run_s") == 0),
                ("trace + core hold most of the traced time",
                 share("trace", "core") > 0.5)]
    hostile_paths = ("stream.shed", "stream.quarantines", "stream.refits",
                     "stream.checkpoints")
    return [("no simulation or training in the measured section",
             value("sim.run_s") == 0 and value("core.train_s") == 0),
            ("shed, quarantine, refit and checkpoint all ran",
             all(value(n) > 0 for n in hostile_paths))]


def reference_checks(workload, seed, raw):
    """Digests recorded for the default and held-out seeds must repeat."""
    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f)
    expected = ref["digests"].get(workload, {}).get(str(seed))
    key = "prefix_digest" if workload.startswith("stream") else "error_digest"
    got = raw["texts"].get(key)
    if expected is None:
        return []
    return [{"name": "reference.digest", "ok": got == expected,
             "detail": "%s %s vs reference %s" % (key, got, expected)}]


def run_once(args):
    binary = build()
    if binary is None:
        return 1
    workdir = os.path.join(build_dir(), "run-" + args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    stderr_path = os.path.join(workdir, "stderr.txt")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    with open(stderr_path, "w") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                text=True)
        try:
            out, _ = proc.communicate(timeout=BINARY_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            log("perfbench: binary timed out")
            return 1
    lines = out.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        with open(stderr_path, errors="replace") as f:
            log("".join(f.readlines()[-20:]))
        log("perfbench: binary exited with %d" % proc.returncode)
        return 1
    raw = json.loads(lines[-1])
    checks = raw["checks"] + reference_checks(args.workload, args.seed, raw)
    correct = all(c["ok"] for c in checks)
    logs = count_log_lines(stderr_path)
    setups = len(raw["series"]["setup_s"])
    log_lines = {k: logs["setup"][k] // setups + logs["unit"][k]
                 for k in ("fatal", "warn")}

    print("workload %s  seed %d  seconds %g  trace %d  workers %d" % (
        args.workload, args.seed, args.seconds, args.trace,
        raw["counts"].get("workers", 0)))
    for c in checks:
        print("check %-34s %s  %s" % (c["name"], "ok" if c["ok"] else
                                      "FAILED", c["detail"]))
    for key in ("error_digest", "prefix_digest"):
        if key in raw["texts"]:
            print("output %s %s" % (key, raw["texts"][key]))
    print("log lines per set-up + first unit: fatal %d, warn %d "
          "(recovered outcomes, not failures)" % (
              log_lines["fatal"], log_lines["warn"]))

    metrics = {}
    if args.trace:
        m, layers, traced_wall = per_layer(args.workload, raw, log_lines,
                                           correct)
        if raw["counts"].get("obs.spans_dropped", 0):
            # A layer whose spans were overwritten has no trustworthy
            # number: withhold them all rather than report a partial one.
            log("perfbench: %d spans were overwritten; layer numbers "
                "withheld" % raw["counts"]["obs.spans_dropped"])
            return 1
        busy = sum(t["self"] for t in layers.values())
        print("self time by layer (all threads) over %.3f s of traced "
              "units:" % traced_wall)
        for layer, t in sorted(layers.items(), key=lambda kv: -kv[1]["self"]):
            print("  %-10s self %9.4f s (%5.1f%% of traced)  total %9.4f s  "
                  "%7d spans" % (layer, t["self"], 100.0 * t["self"] / busy,
                                 t["total"], t["spans"]))
        for claim, holds in layer_mix(args.workload, m, layers, busy):
            print("layer mix: %-58s %s" % (claim, "yes" if holds else "NO"))
    else:
        m, notes = end_to_end(args.workload, raw)
        print("avg_model_error_pct %.4f %%  (reported with --trace 1; "
              "outputs are checked exactly)" % raw["numbers"][
                  "avg_model_error_pct"])
        if args.workload == "paper-pipeline":
            with open(os.path.join(HERE, "reference.json")) as f:
                paper = json.load(f)["paper_errors_pct"]
            print("Eq 6 by rail (measured vs paper):")
            for table in ("table3", "table4"):
                print("  %s  %s" % (table, "  ".join(
                    "%s %.2f/%.2f" % (rail, raw["numbers"][table + "." + rail],
                                      paper[table][rail])
                    for rail in paper[table])))
        for name, note in notes.items():
            print("  %s: %s" % (name, note))
    for name in sorted(m):
        value, unit = m[name]
        print("%-34s %16.6f %s" % (name, value, unit))
        metrics[name] = {"value": value, "unit": unit}

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = {m["name"]: m["unit"] for m in json.load(f)[
            "per_layer" if args.trace else "end_to_end"]}
    if listed != {name: v["unit"] for name, v in metrics.items()}:
        log("perfbench: metrics differ from BENCHMARK.json: %s" % sorted(
            set(listed) ^ set(metrics)))
        return 1

    attempted = max(1, int(raw["attempted"]))
    result = {"correct": correct, "attempted": attempted,
              "failed": 0 if correct else attempted, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(args):
    """Run REPEAT seeds per set; report median, quartiles, IQR vs bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    sets = []
    for s in range(args.sets):
        runs = []
        for i in range(args.repeat):
            seed = args.seed + i + 1
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   args.workload, "--seed", str(seed), "--seconds",
                   str(seconds), "--trace", "0"]
            start = time.time()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                log("perfbench: set %d seed %d failed" % (s + 1, seed))
                return 1
            result = json.loads(lines[-1])
            runs.append(result["metrics"])
            log("set %d seed %d done in %.1f s: %s" % (
                s + 1, seed, time.time() - start,
                " ".join("%s=%.5g" % (k, v["value"])
                         for k, v in sorted(result["metrics"].items()))))
        sets.append(runs)

    ok = True
    print("%-20s %5s %14s %14s %14s %8s %8s %s" % (
        "metric", "set", "median", "q1", "q3", "iqr/med", "bound", "verdict"))
    medians = {}
    for name in sorted(bounds):
        bound = bounds[name]["bound"]
        for s, runs in enumerate(sets):
            values = [r[name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "ok"
            if spread > bound:
                verdict, ok = "TOO WIDE", False
            elif spread > bound / 3:
                verdict = "above bound/3"
            print("%-20s %5d %14.6g %14.6g %14.6g %8.4f %8.4f %s" % (
                name, s + 1, med, q1, q3, spread, bound, verdict))
            medians.setdefault(name, []).append(med)
    if args.sets > 1:
        for name, meds in medians.items():
            better = bounds[name]["better"]
            first, last = meds[0], meds[-1]
            worse = ((last - first) / first if better == "lower"
                     else (first - last) / first) if first else 0.0
            verdict = "ok" if worse <= bounds[name]["bound"] else "WORSE"
            ok = ok and verdict == "ok"
            print("two-set %-20s %+8.4f of median (bound %.2f) %s" % (
                name, worse, bounds[name]["bound"], verdict))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds (steadiness report: "
                        "BENCHMARK.json's run_seconds when omitted)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness report: runs per set")
    parser.add_argument("--sets", type=int, default=1,
                        help="steadiness report: sets to compare")
    args = parser.parse_args()
    if args.repeat > 0:
        return steadiness(args)
    if args.seconds is None or args.seconds <= 0:
        parser.error("--seconds must be given and positive")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
