#!/usr/bin/env python3
"""Simulator benchmark: host speed of one serial System per workload.

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds simbench_driver from the simulator sources (CMake, into
$CARGO_TARGET_DIR or .bench_build), then runs the workload for S
seconds as repeated identical experiments, one System per process.
Each experiment is checked: every core retires its instruction budget,
every repeat reproduces the first one's result fingerprint, and at the
default seed the fingerprint matches the one recorded below. The last
line of stdout is one JSON object: end-to-end metrics with --trace 0,
per-layer metrics (a gprof-instrumented run plus an untraced one) with
--trace 1. README.md explains the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Per-core instruction budgets: warmup phase, then measured phase.
WORKLOADS = {
    "mix1-banshee": {"warmup": 75_000, "measure": 75_000},
    "pagerank-nocache": {"warmup": 75_000, "measure": 75_000},
    "tenant-qos": {"warmup": 60_000, "measure": 240_000},
}

# Result fingerprints (see fingerprint()) at DEFAULT_SEED, the
# simulator's own default seed. A model change must update these.
DEFAULT_SEED = 42
REFERENCE = {
    "mix1-banshee": "3bc9b04fb0d4bc1f",
    "pagerank-nocache": "25bda0a5291445a7",
    "tenant-qos": "1356b0b7171f6bb2",
}

# A core stops at the first instruction boundary at or past its limit;
# the last memory op carries at most 255 non-memory instructions.
MAX_OVERSHOOT = 256
MIN_REPEATS = 3
STOP_STARTING_AFTER_S = 120.0  # keep one invocation well inside 180 s
TRACED_SHARE = 0.75  # of --seconds, for instrumented experiments
STARTED = time.monotonic()


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(kind, gprof):
    """Configure (once) and build one flavour of the driver."""
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"), kind)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
               "-DSIMBENCH_GPROF=" + ("ON" if gprof else "OFF")]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], stdout=sys.stderr,
                   check=True)
    return os.path.join(out, "simbench_driver")


def run_experiment(binary, workload, seed, cwd=None, env=None):
    """Run one driver process; returns (its JSON record or None, pid,
    peak RSS in MiB)."""
    spec = WORKLOADS[workload]
    proc = subprocess.Popen(
        [binary, "--workload", workload, "--seed", str(seed),
         "--warmup", str(spec["warmup"]), "--measure", str(spec["measure"])],
        stdout=subprocess.PIPE, cwd=cwd, env=env)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        log("experiment exited with %d" % proc.returncode)
        return None, proc.pid, 0.0
    try:
        record = json.loads(out.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        log("experiment printed no result")
        return None, proc.pid, 0.0
    return record, proc.pid, usage.ru_maxrss / 1024.0


def fingerprint(r):
    """Digest of the deterministic RunResult fields."""
    fields = [r["instructions"], r["cycles"], r["inpkg_bytes"],
              r["offpkg_bytes"], r["inpkg_dyn_pj"], r["offpkg_dyn_pj"],
              r["static_pj"]]
    return hashlib.sha256(
        json.dumps(fields, separators=(",", ":")).encode()).hexdigest()[:16]


def problems(r, workload, seed, expected):
    """Why experiment record @p r is wrong (empty when it is right).
    @p expected is the fingerprint it must reproduce, if known."""
    spec = WORKLOADS[workload]
    if r is None:
        return ["no result"]
    if r.get("workload") != workload or r.get("seed") != seed:
        return ["result is for another workload or seed"]
    found = []
    budget = spec["warmup"] + spec["measure"]
    bad = [i for i, n in enumerate(r["core_instr"])
           if not budget <= n < budget + MAX_OVERSHOOT]
    if bad:
        found.append("cores %s missed the %d-instruction budget" %
                     (bad, budget))
    cores = len(r["core_instr"])
    if not (cores * (spec["measure"] - MAX_OVERSHOOT) < r["instructions"]
            < cores * (spec["measure"] + MAX_OVERSHOOT)):
        found.append("measured phase retired %d instructions" %
                     r["instructions"])
    if expected and fingerprint(r) != expected:
        found.append("fingerprint %s != expected %s" %
                     (fingerprint(r), expected))
    return found


class Experiments:
    """Runs and checks repeated experiments of one workload and seed."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.expected = REFERENCE[workload] if seed == DEFAULT_SEED else None
        self.attempted = 0
        self.failed = 0
        self.good = []  # (record, peak RSS MiB) that passed every check
        self.rejected = []  # the same for experiments that failed one

    def run(self, binary, cwd=None, env=None):
        self.attempted += 1
        record, pid, rss = run_experiment(binary, self.workload, self.seed,
                                          cwd, env)
        # Without a recorded reference, every repeat must reproduce the
        # first good experiment of this invocation.
        expected = self.expected or (fingerprint(self.good[0][0])
                                     if self.good else None)
        found = problems(record, self.workload, self.seed, expected)
        if found:
            self.failed += 1
            log("experiment %d failed: %s" % (self.attempted,
                                              "; ".join(found)))
            if record is not None:
                self.rejected.append((record, rss))
            return None, pid
        self.good.append((record, rss))
        return record, pid


def metric(value, unit):
    return {"value": value, "unit": unit}


def instructions_total(r):
    return sum(r["core_instr"])


def end_to_end(measured):
    """End-to-end metrics over [(record, peak RSS MiB)]."""
    records = [r for r, _ in measured]
    first = records[0]
    instr = first["instructions"]
    inpkg, offpkg = sum(first["inpkg_bytes"]), sum(first["offpkg_bytes"])
    return {
        "sim_mips": metric(statistics.median(
            instructions_total(r) / r["run_s"] / 1e6 for r in records),
            "MIPS"),
        "setup_s": metric(statistics.median(r["setup_s"] for r in records),
                          "s"),
        "peak_rss_mb": metric(statistics.median(rss for _, rss in measured),
                              "MiB"),
        "ipc": metric(first["ipc"], "instr/cycle"),
        "dram_bytes_per_instr": metric((inpkg + offpkg) / instr,
                                       "B/instr"),
        "offpkg_bytes_per_instr": metric(offpkg / instr, "B/instr"),
        "dram_pj_per_instr": metric(first["energy_pj_per_instr"],
                                    "pJ/instr"),
    }


def ratio(num, den):
    return num / den if den else 0.0


def modelled_counters(r):
    """Per-layer counters of the modelled machine (measured phase,
    except events, which cover the whole run)."""
    kinstr = r["instructions"] / 1000.0
    tlb = r["tlb_hits"] + r["tlb_misses"]
    tb = r["tag_buffer_hits"] + r["tag_buffer_misses"]
    return {
        "common.events_per_kinstr": metric(
            r["events"] / (instructions_total(r) / 1000.0), "events/kinstr"),
        "cpu.tlb_miss_rate": metric(ratio(r["tlb_misses"], tlb), "ratio"),
        "cache.llc_mpki": metric(r["llc_mpki"], "misses/kinstr"),
        "scheme.dram_cache_miss_rate": metric(
            ratio(r["dram_cache_misses"], r["dram_cache_accesses"]),
            "ratio"),
        "scheme.tag_buffer_hit_rate": metric(
            ratio(r["tag_buffer_hits"], tb), "ratio"),
        "scheme.replacements_blocked_per_kinstr": metric(
            r["replacements_blocked"] / kinstr, "count/kinstr"),
        "scheme.fetch_latency_cycles": metric(r["fetch_latency_cycles"],
                                              "cycles"),
        "os.pte_update_runs": metric(r["pte_update_runs"], "count"),
        "dram.inpkg_bytes_per_instr": metric(
            sum(r["inpkg_bytes"]) / r["instructions"], "B/instr"),
        "dram.inpkg_bus_util": metric(r["inpkg_bus_util"], "ratio"),
        "dram.offpkg_bus_util": metric(r["offpkg_bus_util"], "ratio"),
        "dram.row_hit_rate": metric(
            ratio(r["dram_row_hits"], r["dram_requests"]), "ratio"),
    }


def repeat(exps, binary, deadline, min_repeats, **kwargs):
    """Run experiments until @p deadline (time.monotonic()) has passed
    and at least @p min_repeats ran; returns [(record, pid)] of the good
    ones. Starts none later than STOP_STARTING_AFTER_S into the run."""
    good = []
    attempted = 0
    while not (attempted >= min_repeats and time.monotonic() >= deadline):
        if time.monotonic() - STARTED >= STOP_STARTING_AFTER_S:
            break
        record, pid = exps.run(binary, **kwargs)
        attempted += 1
        if record is not None:
            good.append((record, pid))
    return good


def profile(binary, exps, workdir, deadline):
    """gprof-instrumented experiments until @p deadline. Returns their
    records and the attributed flat profile summed over all of them."""
    snapshot = os.path.join(workdir, "simbench_driver")
    shutil.copy2(binary, snapshot)
    digest = layers.file_digest(snapshot)
    env = dict(os.environ, GMON_OUT_PREFIX=os.path.join(workdir, "gmon.out"))
    started = time.time()
    good = repeat(exps, snapshot, deadline, 1, cwd=workdir, env=env)
    if not good:
        return [], []
    gmons = [os.path.join(workdir, "gmon.out.%d" % pid) for _, pid in good]
    for gmon in gmons:
        layers.check_profile_fresh(snapshot, digest, gmon, started)
    flat = subprocess.run(["gprof", "-b", "-p", "--no-demangle", snapshot]
                          + gmons, capture_output=True, text=True,
                          check=True).stdout
    rows = layers.parse_flat(flat)
    nm = subprocess.run(["nm", "-l", "--defined-only", snapshot],
                        capture_output=True, text=True, check=True).stdout
    attributed = layers.attribute(
        rows, layers.demangle([s for s, _, _ in rows]),
        layers.parse_nm_lines(nm), layers.type_index(SRC), SRC, HERE)
    runs = layers.count_calls(attributed, r"^banshee::System::run\(\)$")
    if runs != len(good):
        raise layers.StaleProfile("profiles show %d System::run calls for "
                                  "%d experiments" % (runs, len(good)))
    log("profile of %d experiments; heaviest functions per layer:" %
        len(good))
    for layer in layers.LAYER_NAMES + ("unattributed",):
        top = sorted((row for row in attributed if row[1] == layer),
                     key=lambda row: -row[2])[:3]
        for name, _, self_s, _ in top:
            if self_s > 0:
                log("  %-12s %7.2f s  %s" % (layer, self_s, name[:110]))
    return [r for r, _ in good], attributed


def per_layer(traced, attributed, untraced):
    """Host-time split and call-count ratios from the instrumented
    experiments @p traced, against the @p untraced ones."""
    seconds = layers.layer_seconds(attributed)
    sampled = sum(seconds.values())
    kinstr = sum(instructions_total(r) for r in traced) / 1000.0

    def calls(pattern, layer=None):
        return layers.count_calls(attributed, pattern, layer)

    def median_run_s(records):
        return statistics.median(r["run_s"] for r in records)

    out = {}
    for layer in layers.LAYER_NAMES:
        out[layer + ".self_share"] = metric(ratio(seconds[layer], sampled),
                                            "ratio")
        out[layer + ".self_ns_per_kinstr"] = metric(
            seconds[layer] * 1e9 / kinstr, "ns/kinstr")
    out["unattributed.self_share"] = metric(
        ratio(seconds["unattributed"], sampled), "ratio")
    out["trace.overhead"] = metric(median_run_s(traced) /
                                   median_run_s(untraced), "ratio")
    out["trace.sampled_share"] = metric(
        ratio(sampled, sum(r["run_s"] + r["setup_s"] for r in traced)),
        "ratio")

    issues = calls(r"^banshee::DramChannel::issue\(")
    inserts = calls(r"^banshee::Cache::insert\(")
    probes = calls(r"^banshee::Cache::(lookup|contains|insert|invalidate|"
                   r"setDirty|meta|setMeta)\(")
    out.update({
        "cache.probes_per_kinstr": metric(probes / kinstr, "calls/kinstr"),
        "cache.invalidates_per_insert": metric(
            ratio(calls(r"^banshee::Cache::invalidate\("), inserts),
            "calls/insert"),
        "dram.candidates_per_issue": metric(
            ratio(calls(r"^banshee::DramChannel::bankReadyCycle\("), issues),
            "calls/issue"),
        "dram.kicks_per_issue": metric(
            ratio(calls(r"^banshee::DramChannel::kick\("), issues),
            "calls/issue"),
        "scheme.fetch_calls_per_kinstr": metric(
            calls(r"^banshee::MemSystem::fetchLine\(") / kinstr,
            "calls/kinstr"),
        "os.page_table_finds_per_kinstr": metric(
            calls(r"banshee::PageTableManager::Entry.*>::find\(") / kinstr,
            "calls/kinstr"),
        "workload.next_calls_per_kinstr": metric(
            calls(r"::next\(banshee::Rng&\)$", "workload") / kinstr,
            "calls/kinstr"),
        "common.schedules_per_event": metric(
            ratio(calls(r"^banshee::EventQueue::schedule\("),
                  sum(r["events"] for r in traced)), "calls/event"),
    })
    return out


def summarize(workload, record, metrics):
    log("%s: result fingerprint %s" % (workload, fingerprint(record)))
    for name, m in metrics.items():
        log("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not os.path.isdir(SRC):
        log("no simulator sources at %s" % SRC)
        return 1
    try:
        release = build("release", gprof=False)
        instrumented = build("gprof", gprof=True)
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1

    exps = Experiments(args.workload, args.seed)
    start = time.monotonic()
    deadline = start + args.seconds
    if args.trace:
        # Instrumented experiments take the first TRACED_SHARE of the
        # time; untraced ones, for the overhead ratio and the modelled
        # counters, the rest.
        workdir = tempfile.mkdtemp(prefix="profile-", dir=os.path.dirname(
            os.path.dirname(instrumented)))
        try:
            traced, attributed = profile(
                instrumented, exps, workdir,
                start + TRACED_SHARE * args.seconds)
        except (layers.StaleProfile, subprocess.CalledProcessError) as e:
            log("profile rejected: %s" % e)
            return 1
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        # exps.run holds every untraced repeat to the first traced
        # experiment's fingerprint: both builds must simulate alike.
        untraced = [r for r, _ in repeat(exps, release, deadline, 1)]
        if not traced or not untraced:
            log("no experiment succeeded")
            return 1
        metrics = per_layer(traced, attributed, untraced)
        metrics.update(modelled_counters(untraced[0]))
        first = traced[0]
    else:
        repeat(exps, release, deadline, MIN_REPEATS)
        # A wrong result still has host timings: report them, and the
        # failures, rather than nothing.
        measured = exps.good or exps.rejected
        if not measured:
            log("no experiment produced a result")
            return 1
        metrics = end_to_end(measured)
        first = measured[0][0]
    summarize(args.workload, first, metrics)
    print(json.dumps({"correct": exps.failed == 0,
                      "attempted": exps.attempted,
                      "failed": exps.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
