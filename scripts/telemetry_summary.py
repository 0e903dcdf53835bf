#!/usr/bin/env python3
"""Render (or validate) a Banshee telemetry JSONL trace.

The simulator writes one JSON object per line (see src/telemetry/):
every line carries "run", "cycle" and "event". "epoch" events embed
cumulative metric values and cumulative histogram bucket states; this
script turns adjacent epochs into per-epoch rates and per-epoch
percentiles, and prints one timeline table per run:

    epoch  cycle  missRate  W  activeSlices  <tenant>.slices  <tenant>.p95qlat ...

Percentile cells ending in "!" are saturated: the sample landed in
the histogram's open-ended top bucket, so the printed value is a
lower bound (mirrors the "saturated" flag in the bench JSON).

Usage:
    telemetry_summary.py trace.jsonl              # timelines + events
    telemetry_summary.py trace.jsonl --run solo   # one run only
    telemetry_summary.py trace.jsonl --check      # schema validation
    telemetry_summary.py trace.jsonl --csv        # machine-readable

Span traces (--spans, Chrome JSON) have their own validator:
scripts/spans_to_perfetto.py.

Stdlib only (CI runs it next to the bench binaries).
"""

import argparse
import json
import signal
import sys
from collections import OrderedDict


def bucket_high(i):
    """Upper bound (inclusive-exclusive) of log2 bucket i; bucket 0
    holds the value 0, bucket i >= 1 holds [2^(i-1), 2^i)."""
    return 0 if i == 0 else (1 << i) - 1


def delta_percentile(prev, cur, q):
    """Percentile of the values recorded *between* two cumulative
    histogram snapshots (epoch-local distribution), rendered as a
    string. A trailing "!" marks a saturated read: the percentile
    landed in the histogram's top (open-ended) bucket, so the true
    value is only bounded below."""
    prev_b = (prev or {}).get("buckets", [])
    cur_b = cur.get("buckets", [])
    deltas = []
    for i, c in enumerate(cur_b):
        p = prev_b[i] if i < len(prev_b) else 0
        deltas.append(c - p)
    total = sum(deltas)
    if total <= 0:
        return None
    target = max(1, int(q * total + 0.9999999))
    seen = 0
    for i, d in enumerate(deltas):
        seen += d
        if seen >= target:
            val = min(bucket_high(i), cur.get("max", bucket_high(i)))
            mark = "!" if i == len(cur_b) - 1 else ""
            return f"{val}{mark}"
    return f"{bucket_high(len(deltas) - 1)}!"


def load(path):
    """Parse the trace into {run: [records]}, preserving line order."""
    runs = OrderedDict()
    errors = []
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                errors.append(f"line {n}: not JSON ({e})")
                continue
            for key in ("run", "cycle", "event"):
                if key not in rec:
                    errors.append(f"line {n}: missing '{key}'")
                    break
            else:
                runs.setdefault(rec["run"], []).append(rec)
    return runs, errors


def check(runs, errors):
    """Schema validation (--check): exit non-zero on any problem."""
    for run, recs in runs.items():
        epochs = [r for r in recs if r["event"] == "epoch"]
        for r in epochs:
            for key in ("epoch", "metrics", "hists"):
                if key not in r:
                    errors.append(f"run '{run}': epoch event missing "
                                  f"'{key}'")
            for name, h in r.get("hists", {}).items():
                if not all(k in h for k in ("count", "sum", "max",
                                            "buckets")):
                    errors.append(f"run '{run}': histogram '{name}' "
                                  "missing count/sum/max/buckets")
        cycles = [r["cycle"] for r in epochs]
        if cycles != sorted(cycles):
            errors.append(f"run '{run}': epoch cycles not monotonic")
        if not any(r["event"] == "run_start" for r in recs):
            errors.append(f"run '{run}': no run_start event")
    if errors:
        for e in errors:
            print(f"[check] {e}", file=sys.stderr)
        return 1
    n_epochs = sum(1 for recs in runs.values()
                   for r in recs if r["event"] == "epoch")
    print(f"[check] OK: {len(runs)} run(s), {n_epochs} epoch sample(s)")
    return 0


def tenant_names(recs):
    """Tenant names in id order, from the run's 'tenant' events."""
    tenants = sorted((r["id"], r["name"]) for r in recs
                     if r["event"] == "tenant")
    return [name for _, name in tenants]


def timeline(run, recs, csv):
    """Per-epoch rate table for one run."""
    start = next((r for r in recs if r["event"] == "run_start"), {})
    freq_hz = start.get("coreFreqHz", 0.0)
    epochs = [r for r in recs if r["event"] == "epoch"]
    if len(epochs) < 2:
        print(f"== {run}: fewer than two epoch samples, no timeline")
        return

    tenants = tenant_names(recs)
    cols = ["epoch", "cycle", "missRate", "W", "activeSlices"]
    for t in tenants:
        cols += [f"{t}.slices", f"{t}.p95qlat"]

    rows = []
    for prev, cur in zip(epochs, epochs[1:]):
        pm, cm = prev["metrics"], cur["metrics"]

        def d(name):
            return cm.get(name, 0.0) - pm.get(name, 0.0)

        acc = d("dramAccesses")
        miss_rate = d("dramMisses") / acc if acc > 0 else 0.0
        dcycles = cur["cycle"] - prev["cycle"]
        watts = ""
        if freq_hz > 0 and dcycles > 0 and "inPkgEnergyPJ" in cm:
            ns = dcycles * 1e9 / freq_hz
            watts = f"{d('inPkgEnergyPJ') / ns * 1e-3:.3f}"
        row = [str(cur["epoch"]), str(cur["cycle"]),
               f"{miss_rate:.4f}", watts,
               f"{cm['activeSlices']:.0f}" if "activeSlices" in cm
               else ""]
        for t in tenants:
            slices = cm.get(f"tenant.{t}.slices")
            row.append("" if slices is None else f"{slices:.0f}")
            p95 = delta_percentile(
                prev["hists"].get(f"tenant.{t}.queueLat"),
                cur["hists"].get(f"tenant.{t}.queueLat", {}), 0.95)
            row.append("" if p95 is None else p95)
        rows.append(row)

    if csv:
        print(",".join(["run"] + cols))
        for row in rows:
            print(",".join([run] + row))
        return

    print(f"== {run}")
    widths = [max(len(c), max(len(r[i]) for r in rows))
              for i, c in enumerate(cols)]
    print("  " + "  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    for row in rows:
        print("  " + "  ".join(v.ljust(w) for v, w in zip(row, widths)))

    decisions = [r for r in recs
                 if r["event"] not in ("epoch", "run_start", "tenant",
                                       "measure_start")]
    if decisions:
        print("  events:")
        for r in decisions:
            extra = {k: v for k, v in r.items()
                     if k not in ("run", "cycle", "event")}
            print(f"    cycle {r['cycle']:>12}  {r['event']:<16} "
                  + " ".join(f"{k}={v}" for k, v in extra.items()))
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", help="telemetry JSONL file")
    ap.add_argument("--check", action="store_true",
                    help="validate the schema and exit")
    ap.add_argument("--run", help="only render runs whose label "
                                  "contains this substring")
    ap.add_argument("--csv", action="store_true",
                    help="emit the timelines as CSV")
    args = ap.parse_args()

    runs, errors = load(args.trace)
    if args.check:
        sys.exit(check(runs, errors))
    for e in errors:
        print(f"[warn] {e}", file=sys.stderr)
    if not runs:
        print("no runs in trace", file=sys.stderr)
        sys.exit(1)
    for run, recs in runs.items():
        if args.run and args.run not in run:
            continue
        timeline(run, recs, args.csv)


if __name__ == "__main__":
    # Die quietly when the output is piped into head/less and closed.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    main()
