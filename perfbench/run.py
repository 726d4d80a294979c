#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
                             [--scale S]

Run from the root of a loclab source tree.  It builds the measuring
program (perfbench/bench.ml) with dune, runs one workload through it,
checks the outputs, prints every metric by name with its unit, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (the traced run).  Every time is host time.  METRICS.md
says what each metric means and which layer metric should move which
end-to-end metric.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATE = "_perfbench"
BUILD_DIR = os.path.join(STATE, "build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
WORKLOADS = ("grid-cold", "report-warm", "serve-mixed")
RUN_TIMEOUT_S = 170

# Worker domains per workload.  The grid workloads run on one domain: on
# a shared host the second core comes and goes, and a grid on two
# domains (whose minor collections stop both) spread 2.5 times as much
# from run to run as on one.  serve-mixed keeps a worker domain per CPU
# and as many client connections, so simulation and request handling
# compete.
NPROC = len(os.sched_getaffinity(0))
JOBS = {"grid-cold": 1, "report-warm": 1, "serve-mixed": NPROC}

# (name, unit, scope): scope None means every workload, and only those
# metrics go into the result line; "*" is printed for every workload,
# a tuple names the workloads the metric is printed for.
END_TO_END = [
    ("wall_s", "s", None),
    ("setup_s", "s", None),
    ("peak_rss_mb", "MB", None),
    ("cpu_s", "s", "*"),
    ("sim_events_per_s", "1/s", ("grid-cold",)),
    ("req_per_s", "1/s", ("serve-mixed",)),
    ("warm_p50_us", "us", ("serve-mixed",)),
    ("warm_tail_us", "us", ("serve-mixed",)),
    ("cold_p50_ms", "ms", ("serve-mixed",)),
    ("cold_tail_ms", "ms", ("serve-mixed",)),
    ("ingest_p50_ms", "ms", ("serve-mixed",)),
]

CONSUMERS = [
    "memsim.checksum",
    "cachesim.family_b32",
    "cachesim.family_b16",
    "cachesim.family_b64",
    "cachesim.family_b128",
    "cachesim.plru",
    "cachesim.qlru",
    "cachesim.hierarchy",
    "vmsim.page_sim",
]
SERVE_STAGES = ["read_frame", "decode", "store_lookup", "simulate",
                "single_flight_wait", "encode", "write_reply"]
OFF_GRID = ["tabcpu", "abl-flush", "abl-lifetime"]

PER_LAYER = (
    [("workload.driver_s", "s", None),
     ("workload.events", "count", None),
     ("allocators.calls", "count", None),
     ("memsim.capture_s", "s", None),
     ("core.fanout_s", "s", None)]
    + [(c + "_s", "s", None) for c in CONSUMERS]
    + [("store.put_s", "s", None),
       ("store.find_s", "s", None),
       ("store.bytes", "bytes", None),
       ("core.artifact_encode_s", "s", None),
       ("core.artifact_decode_s", "s", None),
       ("telemetry.overhead_pct", "%", None)]
    + [("core.render.%s_s" % e, "s", ("grid-cold", "report-warm")) for e in OFF_GRID]
    + [("core.render_grid_s", "s", ("grid-cold", "report-warm")),
       ("store.load_s", "s", ("report-warm",)),
       ("exec.grid_efficiency", "ratio", ("grid-cold",))]
    + [("serve.%s_%s_us" % (st, q), "us", ("serve-mixed",))
       for st in SERVE_STAGES for q in ("p50", "p99")]
    + [("memsim.trace_read_text_s", "s", ("serve-mixed",)),
       ("memsim.trace_read_binary_s", "s", ("serve-mixed",)),
       ("cachesim.shard_replay_s", "s", ("serve-mixed",))]
)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Build the measuring program from source (a no-op when current)."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", os.path.join(ROOT, BUILD_DIR),
           "--profile", "release", "./perfbench/bench.exe"]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
        fail("build failed (exit %d)" % proc.returncode)


def run_bench(args, trace_raw):
    """Run bench.exe; returns (raw result, peak RSS in KiB of its process)."""
    cmd = [os.path.abspath(EXE), "--workload", args.workload,
           "--scale", repr(args.scale), "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--jobs", str(JOBS[args.workload]), "--clients", str(NPROC),
           "--dir", os.path.join(STATE, "work-" + args.workload),
           "--trace-out", trace_raw]
    if args.trace:
        cmd.append("--trace")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        # wait4, not wait: the rusage of this one child is the
        # workload process's own high-water mark.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
    if proc.returncode != 0:
        fail("bench.exe exited with %d" % proc.returncode)
    lines = out.decode(errors="replace").strip().splitlines()
    if not lines:
        fail("bench.exe printed nothing")
    return json.loads(lines[-1]), usage.ru_maxrss


def percentile(values, p):
    s = sorted(values)
    return s[max(0, math.ceil(p / 100.0 * len(s)) - 1)]


def tail(values):
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return percentile(values, p), "p%g" % p
    return percentile(values, 50.0), "p50"


def end_to_end(raw, rss_kib):
    passes = raw["passes"]
    m, notes = {}, {}
    m["wall_s"] = statistics.median(p["wall_s"] for p in passes)
    m["cpu_s"] = statistics.median(p["cpu_s"] for p in passes)
    m["setup_s"] = statistics.median(raw["setup_s"])
    m["peak_rss_mb"] = rss_kib * 1024 / 1e6
    if raw["workload"] == "grid-cold":
        m["sim_events_per_s"] = statistics.median(
            p["events"] / p["fill_s"] for p in passes)
    if raw["workload"] == "serve-mixed":
        m["req_per_s"] = statistics.median(p["requests"] / p["wall_s"] for p in passes)
        for cls, unit in (("warm", "us"), ("cold", "ms"), ("ingest", "ms")):
            xs = [x for p in passes for x in p["%s_%s" % (cls, unit)]]
            m["%s_p50_%s" % (cls, unit)] = statistics.median(xs)
            notes["%s_p50_%s" % (cls, unit)] = "n=%d" % len(xs)
            if cls != "ingest":
                m["%s_tail_%s" % (cls, unit)], which = tail(xs)
                notes["%s_tail_%s" % (cls, unit)] = "%s, n=%d" % (which, len(xs))
    notes["wall_s"] = notes["cpu_s"] = "median of %d passes" % len(passes)
    notes["setup_s"] = "median of %d set-ups" % len(raw["setup_s"])
    return m, notes


def self_times(trace_raw, trace_out):
    """Self time per span name, in seconds, over the benchmark's own spans.

    The raw trace also holds the libraries' spans; only the category
    "perfbench" is kept (and written to trace_out).  A span's self time
    is its duration minus the part its child spans cover."""
    with open(trace_raw) as f:
        events = [e for e in json.load(f)["traceEvents"]
                  if e.get("cat") == "perfbench" and e.get("ph") == "X"]
    with open(trace_out, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
    os.remove(trace_raw)
    by_tid = {}
    for e in events:
        by_tid.setdefault(e["tid"], []).append(e)
    total, span = {}, {}
    for evs in by_tid.values():
        # Parents sort before their children: by start, longest first.
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for e in evs:
            end = e["ts"] + e["dur"]
            while stack and stack[-1][1] < end:
                stack.pop()
            if stack:
                stack[-1][0]["_child"] = stack[-1][0].get("_child", 0.0) + e["dur"]
            stack.append((e, end))
        for e in evs:
            name = e["name"]
            total[name] = total.get(name, 0.0) + (e["dur"] - e.get("_child", 0.0)) / 1e6
            span[name] = span.get(name, 0.0) + e["dur"] / 1e6
    return total, span


def per_layer(raw, trace_out):
    selfs, spans = self_times(raw["trace_out"], trace_out)
    s = lambda name: selfs.get(name, 0.0)
    m, notes = {}, {}
    m["workload.driver_s"] = s("workload.driver")
    m["memsim.capture_s"] = s("memsim.capture")
    for c in CONSUMERS:
        m[c + "_s"] = s(c)
    m["core.fanout_s"] = (s("core.cell_insitu") - s("workload.driver")
                          - sum(s(c) for c in CONSUMERS))
    for name in ("store.put", "store.find", "core.artifact_encode",
                 "core.artifact_decode"):
        m[name + "_s"] = s(name)
    counts = raw["counts"]
    for name in ("workload.events", "allocators.calls", "store.bytes"):
        m[name] = counts.get(name, 0)
    untraced, traced = (p["wall_s"] for p in raw["passes"])
    m["telemetry.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    notes["telemetry.overhead_pct"] = "traced %.3f s vs untraced %.3f s" % (traced, untraced)
    w = raw["workload"]
    if w in ("grid-cold", "report-warm"):
        renders = {k[len("core.render."):]: v for k, v in selfs.items()
                   if k.startswith("core.render.")}
        for e in OFF_GRID:
            m["core.render.%s_s" % e] = renders.get(e, 0.0)
        m["core.render_grid_s"] = sum(v for k, v in renders.items() if k not in OFF_GRID)
    if w == "report-warm":
        m["store.load_s"] = s("store.load")
    if w == "grid-cold":
        m["exec.grid_efficiency"] = s("core.cell_insitu") / (raw["jobs"] * spans["core.fill"])
        notes["exec.grid_efficiency"] = "in-situ cell seconds / (%d jobs x fill)" % raw["jobs"]
    if w == "serve-mixed":
        stages = {st["stage"]: st for st in raw.get("stages", [])}
        for st in SERVE_STAGES:
            got = stages.get(st)
            for q in ("p50", "p99"):
                m["serve.%s_%s_us" % (st, q)] = got["%s_us" % q] if got else 0.0
            notes["serve.%s_p50_us" % st] = "n=%d" % (got["count"] if got else 0)
        for name in ("memsim.trace_read_text", "memsim.trace_read_binary",
                     "cachesim.shard_replay"):
            m[name + "_s"] = s(name)
    return m, notes


def report(table, values, notes):
    for name, unit, only in table:
        if name not in values:
            continue
        scope = "" if only in (None, "*") else "  [%s only]" % ", ".join(only)
        note = notes.get(name, "")
        print("  %-34s %16.6g %-6s %s%s" % (name, values[name], unit,
                                          note, scope))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, default=0.002)
    args = ap.parse_args()
    if not (args.seconds > 0 and 0 < args.scale <= 4):
        fail("--seconds must be positive and --scale in (0, 4]")

    os.chdir(ROOT)
    os.makedirs(STATE, exist_ok=True)
    t0 = time.time()
    build()
    build_s = time.time() - t0
    trace_raw = os.path.join(STATE, args.workload + ".raw-trace.json")
    raw, rss_kib = run_bench(args, trace_raw)

    attempted = raw["attempted"]
    failures = raw["failures"]
    failed = len(failures)
    print("perfbench %s: scale %g, jobs %d, seed %d, %d passes (build check %.1f s)"
          % (args.workload, raw["scale"], raw["jobs"], raw["seed"],
             len(raw["passes"]), build_s))
    print("  all times are host time; the simulated machine is not validated "
          "against hardware")
    for name, digest in sorted(raw["digests"].items()):
        print("  digest %-10s %s" % (name, digest))
    if args.trace:
        values, notes = per_layer(raw, os.path.join(STATE, args.workload + ".trace.json"))
        table = PER_LAYER
        print("  per-layer metrics (traced run; Chrome trace in %s/%s.trace.json):"
              % (STATE, args.workload))
    else:
        values, notes = end_to_end(raw, rss_kib)
        table = END_TO_END
        print("  end-to-end metrics:")
    values["failed_ratio"] = failed / attempted if attempted else 1.0
    notes["failed_ratio"] = "%d of %d checks failed" % (failed, attempted)
    report(table + [("failed_ratio", "ratio", "*")], values, notes)
    if failed:
        print("  failed checks:")
        for f in failures:
            print("    " + f)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, only in table if only is None}
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
