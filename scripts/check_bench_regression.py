#!/usr/bin/env python3
"""Perf-regression gate over the committed BENCH_*.json trajectory.

Compares freshly produced bench JSON (format_version 2, see
bench/common/bench_stats.hh) against the baselines committed at the
repo root. Only metrics marked "gate": true participate: those are
machine-portable by construction (deterministic counters and
same-run ratios), never wall-clock seconds.

Gate rule per metric, driven by its "direction":
  higher:  fail when current mean < baseline mean - threshold
  lower:   fail when current mean > baseline mean + threshold
  exact:   fail on any mean change beyond epsilon
  ceiling: fail when current mean > the baseline's hard "limit"
           (carried in the baseline file, never re-derived from
           noise - used for the telemetry overhead ratio)
with threshold = max(k_sigma * baseline stddev, rel_tol * |baseline
mean|). The stddev term absorbs run-to-run noise measured at baseline
time; the relative floor absorbs cross-machine variation (CI runners
are not the machines baselines were recorded on).

The gate never stops at the first problem: every bench file and
every gated metric is checked and reported in one run, so a single
CI pass shows the complete damage (an unreadable or wrong-format
file counts as that bench's failure and the remaining benches are
still checked).

Exit status: 0 when every gated metric passes, 1 on any regression
or unreadable file, 2 on usage errors.
"""

import argparse
import glob
import json
import math
import os
import sys

EXACT_EPS = 1e-9


def load(path):
    """Returns (doc, None), or (None, reason) on a bad file.

    Load problems are per-bench failures, not process aborts: one
    corrupt file must not hide regressions in the benches after it.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as err:
        return None, f"cannot read {path}: {err}"
    if doc.get("format_version") != 2:
        return None, (f"{path}: unsupported format_version "
                      f"{doc.get('format_version')!r} (want 2)")
    return doc, None


def metric_map(doc):
    return {m["name"]: m for m in doc.get("metrics", [])}


def machine_line(doc):
    machine = doc.get("machine", {})
    return "{} x{} / {} @ {}".format(
        machine.get("cpu", "?"), machine.get("cores", "?"),
        machine.get("compiler", "?"), machine.get("git_sha", "?"))


def check_bench(base_doc, cur_doc, k_sigma, rel_tol, verbose):
    """Returns (n_checked, failures) for one bench file pair."""
    failures = []
    checked = 0
    cur_metrics = metric_map(cur_doc)
    for name, base in metric_map(base_doc).items():
        if not base.get("gate", False):
            continue
        checked += 1
        cur = cur_metrics.get(name)
        if cur is None:
            failures.append(
                f"{name}: gated in the baseline but missing from "
                f"the current run - if the metric was renamed or "
                f"removed, refresh the committed baseline in the "
                f"same commit")
            continue
        try:
            base_mean = float(base["mean"])
            cur_mean = float(cur["mean"])
        except (KeyError, TypeError, ValueError) as err:
            failures.append(
                f"{name}: malformed metric (missing or non-numeric "
                f"'mean': {err!r}) - regenerate the JSON with the "
                f"current bench binary")
            continue
        direction = base.get("direction", "lower")
        if direction == "exact":
            if math.isnan(cur_mean) or \
                    abs(cur_mean - base_mean) > EXACT_EPS:
                failures.append(
                    f"{name}: expected exactly {base_mean:g}, "
                    f"got {cur_mean:g}")
            elif verbose:
                print(f"    ok   {name}: {cur_mean:g} (exact)")
            continue
        if direction == "ceiling":
            try:
                limit = float(base["limit"])
            except (KeyError, TypeError, ValueError) as err:
                failures.append(
                    f"{name}: ceiling metric lacks a numeric "
                    f"'limit' ({err!r}) - regenerate the baseline "
                    f"with the current bench binary")
                continue
            if math.isnan(limit):
                failures.append(f"{name}: ceiling limit is NaN")
                continue
            if math.isnan(cur_mean) or cur_mean > limit:
                failures.append(
                    f"{name}: exceeded the hard ceiling "
                    f"(limit {limit:g}, current {cur_mean:g})")
            elif verbose:
                print(f"    ok   {name}: {cur_mean:g} "
                      f"(ceiling {limit:g})")
            continue
        threshold = max(k_sigma * float(base.get("stddev", 0.0)),
                        rel_tol * abs(base_mean))
        if direction == "higher":
            bad = cur_mean < base_mean - threshold
            verdict = "fell"
        elif direction == "lower":
            bad = cur_mean > base_mean + threshold
            verdict = "rose"
        else:
            failures.append(
                f"{name}: unknown direction {direction!r}")
            continue
        if math.isnan(cur_mean) or bad:
            failures.append(
                f"{name}: {verdict} beyond threshold "
                f"(baseline {base_mean:g} +/- {threshold:g}, "
                f"current {cur_mean:g})")
        elif verbose:
            print(f"    ok   {name}: {cur_mean:g} "
                  f"(baseline {base_mean:g} +/- {threshold:g}, "
                  f"{direction})")
    return checked, failures


def run_gate(baseline_dir, current_dir, k_sigma, rel_tol, verbose):
    baselines = sorted(
        glob.glob(os.path.join(baseline_dir, "BENCH_*.json")))
    if not baselines:
        raise SystemExit(
            f"error: no BENCH_*.json baselines in {baseline_dir}")

    total_checked = 0
    total_failures = 0
    for baseline_path in baselines:
        name = os.path.basename(baseline_path)
        current_path = os.path.join(current_dir, name)
        print(f"== {name}")
        if not os.path.exists(current_path):
            print(f"    FAIL baseline {name} has no counterpart in "
                  f"the current run ({current_path} not found).\n"
                  f"         If the bench still exists, its CI run "
                  f"step is missing or failed upstream; if the "
                  f"bench was removed, delete the committed "
                  f"baseline {name} in the same commit.")
            total_failures += 1
            continue
        base_doc, base_err = load(baseline_path)
        cur_doc, cur_err = load(current_path)
        if base_err or cur_err:
            print(f"    FAIL {base_err or cur_err} - regenerate "
                  f"the file; the remaining benches were still "
                  f"checked")
            total_failures += 1
            continue
        if machine_line(base_doc) != machine_line(cur_doc):
            print(f"    note machine changed:")
            print(f"         baseline: {machine_line(base_doc)}")
            print(f"         current:  {machine_line(cur_doc)}")
        checked, failures = check_bench(
            base_doc, cur_doc, k_sigma, rel_tol, verbose)
        total_checked += checked
        total_failures += len(failures)
        for failure in failures:
            print(f"    FAIL {failure}")
        if not failures:
            print(f"    {checked} gated metric(s) ok")

    # The reverse direction: a fresh result with no committed
    # baseline means a new bench joined the suite but nothing will
    # ever gate it - fail with the recipe instead of silently
    # passing forever.
    known = {os.path.basename(p) for p in baselines}
    for current_path in sorted(
            glob.glob(os.path.join(current_dir, "BENCH_*.json"))):
        name = os.path.basename(current_path)
        if name in known:
            continue
        print(f"== {name}")
        print(f"    FAIL current run produced {name} but no "
              f"baseline is committed.\n"
              f"         Commit a baseline: run the bench with "
              f"--repetitions 5 on a quiet machine and commit the "
              f"resulting {name} at the repo root (next to the "
              f"other BENCH_*.json files).")
        total_failures += 1

    print(f"== {total_checked} gated metric(s) checked, "
          f"{total_failures} regression(s)")
    return 1 if total_failures else 0


def self_test():
    """Exercise the gate end-to-end against synthetic dirs.

    Covers the failure modes CI relies on: a clean pass, an exact
    metric drifting, a baseline whose current result is missing, a
    new current result with no baseline, and a malformed metric -
    each must fail with a message, never a traceback.
    """
    import contextlib
    import io
    import tempfile

    def doc(mean=5.0, name="ops", gate=True, drop_mean=False,
            direction="exact", limit=None):
        metric = {"name": name, "unit": "count", "gate": gate,
                  "direction": direction, "mean": mean,
                  "stddev": 0.0, "min": mean, "max": mean,
                  "values": [mean]}
        if limit is not None:
            metric["limit"] = limit
        if drop_mean:
            del metric["mean"]
        return {"bench": "self", "format_version": 2,
                "machine": {"cpu": "x", "cores": 1, "compiler": "y",
                            "git_sha": "z"},
                "repetitions": 1, "metrics": [metric]}

    def write(directory, filename, payload):
        with open(os.path.join(directory, filename), "w",
                  encoding="utf-8") as fh:
            json.dump(payload, fh)

    def gate(base_dir, cur_dir):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = run_gate(base_dir, cur_dir, 3.0, 0.30, False)
        return status, out.getvalue()

    failures = []

    def expect(label, status, want_status, text, *want_text):
        if status != want_status:
            failures.append(
                f"{label}: exit {status}, want {want_status}")
        for fragment in want_text:
            if fragment not in text:
                failures.append(
                    f"{label}: output lacks {fragment!r}")

    with tempfile.TemporaryDirectory() as root:
        base = os.path.join(root, "base")
        cur = os.path.join(root, "cur")
        os.mkdir(base)
        os.mkdir(cur)

        write(base, "BENCH_a.json", doc())
        write(cur, "BENCH_a.json", doc())
        status, text = gate(base, cur)
        expect("clean pass", status, 0, text, "1 gated metric(s) ok")

        write(cur, "BENCH_a.json", doc(mean=6.0))
        status, text = gate(base, cur)
        expect("exact drift", status, 1, text, "expected exactly 5")

        write(cur, "BENCH_a.json", doc())
        write(base, "BENCH_gone.json", doc(name="x"))
        status, text = gate(base, cur)
        expect("missing current", status, 1, text,
               "no counterpart in the current run",
               "delete the committed baseline")
        os.remove(os.path.join(base, "BENCH_gone.json"))

        write(cur, "BENCH_new.json", doc(name="fresh"))
        status, text = gate(base, cur)
        expect("missing baseline", status, 1, text,
               "no baseline is committed", "Commit a baseline")
        os.remove(os.path.join(cur, "BENCH_new.json"))

        write(base, "BENCH_a.json", doc(drop_mean=True))
        status, text = gate(base, cur)
        expect("malformed metric", status, 1, text,
               "malformed metric")

        # Ceiling metrics: under the baseline's hard limit passes,
        # over it fails, and a ceiling baseline without a limit is
        # malformed - the limit is carried in the file, never
        # re-derived from noise.
        write(base, "BENCH_a.json",
              doc(mean=1.0, direction="ceiling", limit=1.05))
        write(cur, "BENCH_a.json",
              doc(mean=1.02, direction="ceiling", limit=1.05))
        status, text = gate(base, cur)
        expect("ceiling pass", status, 0, text,
               "1 gated metric(s) ok")

        write(cur, "BENCH_a.json",
              doc(mean=1.2, direction="ceiling", limit=1.05))
        status, text = gate(base, cur)
        expect("ceiling breach", status, 1, text,
               "exceeded the hard ceiling")

        write(base, "BENCH_a.json", doc(mean=1.0,
                                        direction="ceiling"))
        status, text = gate(base, cur)
        expect("ceiling without limit", status, 1, text,
               "lacks a numeric 'limit'")
        write(cur, "BENCH_a.json", doc())

        # Everything in one run: a corrupt baseline file plus two
        # independently drifted metrics in another bench must all
        # appear in a single report - the gate never stops at the
        # first failure.
        write(base, "BENCH_a.json", doc())
        with open(os.path.join(base, "BENCH_broken.json"), "w",
                  encoding="utf-8") as fh:
            fh.write("{not json")
        write(cur, "BENCH_broken.json", doc())

        def two_metrics(first_mean, second_mean):
            payload = doc(mean=first_mean)
            second = dict(payload["metrics"][0])
            second.update(name="ops2", mean=second_mean,
                          min=second_mean, max=second_mean,
                          values=[second_mean])
            payload["metrics"].append(second)
            return payload

        write(base, "BENCH_multi.json", two_metrics(5.0, 7.0))
        write(cur, "BENCH_multi.json", two_metrics(6.0, 8.0))
        status, text = gate(base, cur)
        expect("all failures in one run", status, 1, text,
               "cannot read", "expected exactly 5",
               "expected exactly 7", "3 regression(s)")

    if failures:
        for failure in failures:
            print(f"self-test FAIL: {failure}")
        return 1
    print("self-test ok: 9 scenario(s)")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Gate current bench JSON against the committed "
                    "baselines.")
    parser.add_argument("--baseline-dir", default=".",
                        help="directory with committed BENCH_*.json "
                             "(default: repo root)")
    parser.add_argument("--current-dir",
                        help="directory with freshly produced "
                             "BENCH_*.json")
    parser.add_argument("--k-sigma", type=float, default=3.0,
                        help="noise multiplier on baseline stddev "
                             "(default 3)")
    parser.add_argument("--rel-tol", type=float, default=0.30,
                        help="relative threshold floor for "
                             "cross-machine variation (default 0.30)")
    parser.add_argument("--verbose", action="store_true",
                        help="print passing metrics too")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in scenario suite and "
                             "exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.current_dir:
        parser.error("--current-dir is required (or --self-test)")
    return run_gate(args.baseline_dir, args.current_dir,
                    args.k_sigma, args.rel_tol, args.verbose)


if __name__ == "__main__":
    sys.exit(main())
