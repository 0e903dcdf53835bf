#!/usr/bin/env python3
"""Validate, summarize or merge Banshee run traces (span_trace.cc).

Each run writes one Chrome trace-event JSON file — a top-level array
of event objects — that loads directly in Perfetto (ui.perfetto.dev)
or chrome://tracing: sampled page/channel spans, the control "resize"
track, run metadata and, with telemetry on, one "metrics" counter plus
one "epoch" instant per epoch sample. This script is the tooling
around that:

    spans_to_perfetto.py trace.json            # --check + --summary
    spans_to_perfetto.py trace.json --check    # well-formedness gate
    spans_to_perfetto.py trace.json --summary  # queue-vs-service table
    spans_to_perfetto.py trace.json --timeline [--csv]
                                               # per-epoch rates + events
    spans_to_perfetto.py a.json b.json --merge out.json
                                               # side-by-side compare

--check validates what Perfetto's importer assumes and what the
simulator promises:
  * the file is a JSON array of objects with name/ph/pid/tid;
  * duration events nest: per (pid, tid) track, every B has a
    matching same-name E and the stack closes empty (events are
    stable-sorted by ts first — the writer emits in completion
    order, which is not time order);
  * async events pair: per (pid, cat, id), b and e counts match and
    no e precedes its b;
  * complete (X) events carry dur >= 0, instants carry scope "t",
    counters (C) numeric args with ts non-decreasing per name;
  * exactly one run_info, measure_start and run_end.

--summary reconstructs the causal story: per-channel queueing vs
service time, per-page residency, eviction causes, fetch latency —
split by tenant when tenant ids are present.

--timeline prints one row per epoch (miss rate, watts, active slices,
per-tenant slices and p95 queue latency), then the resize track
(decisions, <kind>_start, <kind>_commit) and run_end by cycle. A
percentile ending in "!" was read from the top bucket of the sample.

Stdlib only (CI runs it next to the bench binaries).
"""

import argparse
import json
import signal
import sys
from collections import defaultdict


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path) as f:
            events = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    if not isinstance(events, list):
        fail(f"{path}: top level is not a JSON array")
    return events


def check(path, events):
    """Validate one trace; returns a list of problem strings."""
    problems = []

    def bad(i, ev, why):
        problems.append(f"{path}: event {i} {ev.get('name')!r}: {why}")

    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"{path}: event {i} is not an object")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                bad(i, ev, f"missing {key!r}")
        ph = ev.get("ph")
        if ph not in ("B", "E", "X", "i", "b", "e", "M", "C"):
            bad(i, ev, f"unknown phase {ph!r}")
            continue
        if ph != "M" and "ts" not in ev:
            bad(i, ev, "missing 'ts'")
        if ph == "X" and ev.get("dur", -1) < 0:
            bad(i, ev, "complete event without dur >= 0")
        if ph == "i" and ev.get("s") != "t":
            bad(i, ev, "instant without thread scope")
        if ph in ("b", "e") and ("cat" not in ev or "id" not in ev):
            bad(i, ev, "async event without cat/id")
        if ph == "C" and not all(type(v) in (int, float) for v in
                                 ev.get("args", {}).values()):
            bad(i, ev, "counter with a non-numeric arg")
    if problems:
        return problems

    # Duration nesting per (pid, tid). The writer emits events when
    # they complete, so sibling spans can appear out of time order;
    # stable-sort by ts (E before B at equal ts so zero-length spans
    # close before their successor opens) exactly as importers do.
    order = {"E": 0, "B": 1}
    tracks = defaultdict(list)
    for i, ev in enumerate(events):
        if ev["ph"] in ("B", "E"):
            tracks[(ev["pid"], ev["tid"])].append(ev)
    for (pid, tid), track in tracks.items():
        track.sort(key=lambda ev: (ev["ts"], order[ev["ph"]]))
        stack = []
        for ev in track:
            if ev["ph"] == "B":
                stack.append(ev["name"])
            elif not stack:
                problems.append(
                    f"{path}: track pid={pid} tid={tid}: E "
                    f"{ev['name']!r} at ts={ev['ts']} with empty stack")
            elif stack[-1] != ev["name"]:
                problems.append(
                    f"{path}: track pid={pid} tid={tid}: E "
                    f"{ev['name']!r} at ts={ev['ts']} crosses open "
                    f"B {stack[-1]!r}")
                stack.pop()
            else:
                stack.pop()
        for name in stack:
            problems.append(
                f"{path}: track pid={pid} tid={tid}: B {name!r} "
                f"never closed")

    # Async pairing per (pid, cat, id): overlap is legal, imbalance
    # and e-before-b are not.
    pairs = defaultdict(lambda: [0, 0])  # opened, closed
    for ev in events:
        if ev["ph"] not in ("b", "e"):
            continue
        key = (ev["pid"], ev["cat"], ev["id"])
        if ev["ph"] == "b":
            pairs[key][0] += 1
        else:
            pairs[key][1] += 1
            if pairs[key][1] > pairs[key][0]:
                problems.append(
                    f"{path}: async {key}: 'e' before its 'b'")
    for key, (opened, closed) in pairs.items():
        if opened != closed:
            problems.append(
                f"{path}: async {key}: {opened} 'b' vs {closed} 'e'")

    # Counter series: Perfetto plots each name as one track in time.
    last_ts = {}
    for ev in events:
        if ev["ph"] != "C":
            continue
        key = (ev["pid"], ev["name"])
        if key in last_ts and ev["ts"] < last_ts[key]:
            problems.append(
                f"{path}: counter {ev['name']!r}: ts {ev['ts']} after "
                f"{last_ts[key]}")
        last_ts[key] = ev["ts"]

    for name in ("run_info", "measure_start", "run_end"):
        n = len(run_events(events, name))
        if n != 1:
            problems.append(f"{path}: {n} {name!r} events, want 1")
    return problems


def is_run_event(ev, name):
    """An instant named @name on the control process (run metadata,
    epoch samples)."""
    return (ev.get("ph") == "i" and ev.get("pid") == 3
            and ev.get("name") == name)


def run_events(events, name):
    return [ev for ev in events if is_run_event(ev, name)]


def thread_names(events):
    names = {}
    for ev in events:
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            names[(ev["pid"], ev["tid"])] = ev["args"]["name"]
    return names


def summarize(path, events):
    print(f"== {path} ==")
    for info in run_events(events, "run_info"):
        args = info.get("args", {})
        print("  run: " + ", ".join(f"{k}={v}" for k, v in args.items()))
    tenant_names = {e["args"]["id"]: e["args"]["name"]
                    for e in run_events(events, "tenant")}

    # Channel tracks (pid 2): queue/service async pairs share one id
    # per request; only the queue 'b' carries the request args
    # (tenant, rw, cat), so remember the tenant per id.
    opens = {}
    req_tenant = {}
    chan = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
    for ev in events:
        if ev.get("pid") != 2 or ev["ph"] not in ("b", "e"):
            continue
        key = (ev["cat"], ev["id"], ev["name"])
        if ev["ph"] == "b":
            opens[key] = ev
            if ev["name"] == "queue":
                req_tenant[(ev["cat"], ev["id"])] = \
                    ev.get("args", {}).get("tenant", 255)
        else:
            b = opens.pop(key, None)
            if b is None:
                continue
            dur = ev["ts"] - b["ts"]
            tenant = req_tenant.get((ev["cat"], ev["id"]), 255)
            slot = chan[ev["cat"]][tenant_names.get(tenant, "-")]
            if ev["name"] == "queue":
                slot[0] += 1
                slot[1] += dur
            else:
                slot[2] += dur
                req_tenant.pop((ev["cat"], ev["id"]), None)
    if chan:
        print(f"  {'channel':24} {'tenant':12} {'reqs':>8} "
              f"{'avg queue us':>14} {'avg service us':>14}")
        for track in sorted(chan):
            for tname, (n, q, s) in sorted(chan[track].items()):
                if n == 0:
                    continue
                print(f"  {track:24} {tname:12} {n:8} "
                      f"{q / n:14.3f} {s / n:14.3f}")

    # Page residency (pid 1): B/E "resident" spans per page track.
    res_open = {}
    res_total = defaultdict(float)
    res_count = defaultdict(int)
    causes = defaultdict(int)
    for ev in events:
        if ev.get("pid") != 1 or ev.get("name") != "resident":
            continue
        tid = ev["tid"]
        if ev["ph"] == "B":
            res_open[tid] = ev["ts"]
        elif ev["ph"] == "E" and tid in res_open:
            res_total[tid] += ev["ts"] - res_open.pop(tid)
            res_count[tid] += 1
            causes[ev.get("args", {}).get("cause", "?")] += 1
    if res_count:
        pages = len(res_count)
        spans = sum(res_count.values())
        total = sum(res_total.values())
        print(f"  residency: {spans} spans over {pages} sampled pages, "
              f"avg {total / spans:.1f} us")
        print("  eviction causes: " + ", ".join(
            f"{k}={v}" for k, v in sorted(causes.items())))

    # Fetch latency (pid 1 async "fetch").
    fetch_open = {}
    fetch_n, fetch_us = 0, 0.0
    for ev in events:
        if ev.get("pid") != 1 or ev.get("name") != "fetch":
            continue
        key = (ev["cat"], ev["id"])
        if ev["ph"] == "b":
            fetch_open[key] = ev["ts"]
        elif ev["ph"] == "e" and key in fetch_open:
            fetch_us += ev["ts"] - fetch_open.pop(key)
            fetch_n += 1
    if fetch_n:
        print(f"  fetches: {fetch_n} sampled, "
              f"avg {fetch_us / fetch_n:.3f} us")


def bucket_high(i):
    """Upper bound (inclusive-exclusive) of log2 bucket i; bucket 0
    holds the value 0, bucket i >= 1 holds [2^(i-1), 2^i)."""
    return 0 if i == 0 else (1 << i) - 1


def delta_percentile(prev, cur, q):
    """Percentile of the values recorded *between* two cumulative
    histogram snapshots (epoch-local distribution), rendered as a
    string, or None when the epoch recorded nothing. A trailing "!"
    marks a read from the top bucket of the snapshot's bucket list."""
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


def timeline(path, events, csv):
    """Per-epoch rate table and event list of one run."""
    info = run_events(events, "run_info")
    info = info[0].get("args", {}) if info else {}
    run = info.get("label") or path
    freq_hz = info.get("coreFreqHz", 0.0)
    # Each sample is a "metrics" counter followed by its "epoch"
    # instant; pair them in file order.
    metrics = [ev.get("args", {}) for ev in events
               if ev.get("ph") == "C" and ev.get("name") == "metrics"]
    epochs = [dict(ev.get("args", {}), metrics=m)
              for ev, m in zip(run_events(events, "epoch"), metrics)]
    if len(epochs) < 2:
        print(f"== {run}: fewer than two epoch samples, no timeline")
        return

    tenants = [ev["args"]["name"] for ev in
               sorted(run_events(events, "tenant"),
                      key=lambda ev: ev["args"]["id"])]
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

    # The resize track (a B opens "<kind>_start", its E is the
    # "<kind>_commit"; a span the run ended inside has no commit) and
    # run_end, by cycle.
    resize = {tid for (pid, tid), name in thread_names(events).items()
              if pid == 3 and name == "resize"}
    suffix = {"i": "", "B": "_start", "E": "_commit"}
    lines = []
    for ev in events:
        args = ev.get("args", {})
        on_resize = ev.get("pid") == 3 and ev.get("tid") in resize
        if on_resize and ev["ph"] in suffix and "truncated" not in args:
            name = ev["name"] + suffix[ev["ph"]]
        elif is_run_event(ev, "run_end"):
            name = "run_end"
        else:
            continue
        cycle = round(ev["ts"] * freq_hz / 1e6)
        lines.append(f"    cycle {cycle:>12}  {name:<16} "
                     + " ".join(f"{k}={v}" for k, v in args.items()))
    if lines:
        print("  events:")
        print("\n".join(lines))
    print()


def merge(paths, out):
    """Concatenate traces side by side: trace k's pids shift by 10*k
    so each file's pages/channels/control land in their own process
    group, labelled with the source run."""
    merged = []
    for k, path in enumerate(paths):
        events = load(path)
        label = None
        for ev in events:
            if ev.get("name") == "run_info":
                label = ev.get("args", {}).get("label") or None
                break
        prefix = label or path
        for ev in events:
            ev = dict(ev)
            ev["pid"] = ev["pid"] + 10 * k
            if ev.get("ph") == "M" and ev.get("name") == "process_name":
                ev = dict(ev, args={
                    "name": f"{prefix}: {ev['args']['name']}"})
            merged.append(ev)
    with open(out, "w") as f:
        json.dump(merged, f)
    print(f"merged {len(paths)} traces ({len(merged)} events) -> {out}")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("traces", nargs="+", help="*.trace.json files")
    ap.add_argument("--check", action="store_true",
                    help="validate only (exit 1 on problems)")
    ap.add_argument("--summary", action="store_true",
                    help="print per-channel / per-tenant tables only")
    ap.add_argument("--merge", metavar="OUT",
                    help="write one merged Perfetto file")
    ap.add_argument("--timeline", action="store_true",
                    help="print per-epoch rates and the resize events")
    ap.add_argument("--csv", action="store_true",
                    help="emit the --timeline rows as CSV")
    args = ap.parse_args()
    if args.csv and not args.timeline:
        ap.error("--csv needs --timeline")

    if args.merge:
        merge(args.traces, args.merge)
        return
    if args.timeline:
        for path in args.traces:
            timeline(path, load(path), args.csv)
        return

    do_check = args.check or not args.summary
    do_summary = args.summary or not args.check
    bad = 0
    for path in args.traces:
        events = load(path)
        if do_check:
            problems = check(path, events)
            for p in problems[:20]:
                print(p, file=sys.stderr)
            if len(problems) > 20:
                print(f"... {len(problems) - 20} more", file=sys.stderr)
            if problems:
                bad += 1
            else:
                print(f"{path}: OK ({len(events)} events)")
        if do_summary and not bad:
            summarize(path, events)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    # Die quietly when the output is piped into head/less and closed.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    main()
