#!/usr/bin/env python3
"""End-to-end benchmark of the P2 reproduction, driven through `p2run`.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload chord-lossy --seed 1 --seconds 30 --trace 0

The script builds `p2run` from the checkout (CMake, RelWithDebInfo, into
.bench_build/perfbench), then repeatedly simulates the workload's scenario
set until --seconds have passed, one `p2run` process per scenario, each with
a seed derived from --seed. It checks every scenario's report (exit status,
convergence lines, event count) and prints one JSON object as the last line
of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 re-runs each scenario with `--stats-dump --trace-out` and reports
the per-layer ledger read from the program's metrics registry and its
Chrome trace of shard windows, plus the tracing overhead against an
untraced run of the same seed. See perfbench/README.md for what each
workload and metric is for.
"""

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "perfbench")
TMP_DIR = os.path.join(BUILD_DIR, "tmp")
P2RUN = os.path.join(BUILD_DIR, "p2run")

# Wall-clock cap on one p2run process; the slowest scenario takes ~5 s.
SCENARIO_TIMEOUT_S = 90
SETUP_REPS = 25

# A workload is a scenario set: every round simulates each spec once.
# chord-lossy and chord-sharded run identical inputs, so the pair isolates
# the shard runtime; overlays-static and chord-lossy differ in whether the
# reliable transport stack (and chord's lookup machinery) runs at all.
# Chord stays above 64 nodes, where the harness's scale timer profile makes
# every seed converge.
CHORD_LOSSY = ["--overlay", "chord", "--nodes", "72", "--loss", "0.2", "--reliable"]
WORKLOADS = {
    "overlays-static": [
        ["--overlay", "gossip", "--nodes", "64"],
        ["--overlay", "narada", "--nodes", "32"],
        ["--overlay", "pathvector", "--nodes", "48"],
    ],
    "chord-lossy": [CHORD_LOSSY],
    "chord-sharded": [CHORD_LOSSY + ["--shards", "4"]],
}

# Expected "<label>: a/b" lines: every node must hold a complete view.
FULL_VIEW_LINE = {
    "gossip": "full membership views",
    "narada": "full live views",
    "pathvector": "full routing tables",
}


class BenchError(Exception):
    pass


class Timeout(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds p2run incrementally (a no-op when fresh)."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isfile("src/cli/p2run.cc")):
        raise BenchError("run from the root of a source checkout (no CMakeLists.txt "
                         "or src/cli/p2run.cc here)")
    os.makedirs(TMP_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ".", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo", "-DP2_BUILD_TESTS=OFF",
                      "-DP2_BUILD_EXAMPLES=OFF", "-DP2_BUILD_BENCHES=OFF"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "p2run", "-j", jobs])
    with open(build_log, "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode
            except OSError as e:
                raise BenchError(f"cannot run {cmd[0]}: {e}")
            if rc != 0:
                raise BenchError(f"build step failed ({' '.join(cmd)}); see {build_log}")
    if not os.access(P2RUN, os.X_OK):
        raise BenchError(f"build produced no {P2RUN}")


def _on_alarm(signum, frame):
    raise Timeout()


def spawn(args, out_path):
    """Runs p2run with stdout+stderr in out_path.

    Returns (exit code, wall s, cpu s, peak rss MB); wait4 gives this child's
    own rusage, so the figures cover exactly one process.
    """
    argv = [P2RUN] + args
    fd = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    t0 = time.perf_counter()
    try:
        pid = os.posix_spawn(P2RUN, argv, os.environ,
                             file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1),
                                           (os.POSIX_SPAWN_DUP2, fd, 2)])
    finally:
        os.close(fd)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(SCENARIO_TIMEOUT_S)
    try:
        _, status, ru = os.wait4(pid, 0)
    except Timeout:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise BenchError(f"p2run {' '.join(args)} exceeded {SCENARIO_TIMEOUT_S}s")
    finally:
        signal.alarm(0)
    wall = time.perf_counter() - t0
    cpu = ru.ru_utime + ru.ru_stime
    return os.waitstatus_to_exitcode(status), wall, cpu, ru.ru_maxrss / 1024.0


def measure_setup(specs):
    """Median wall seconds to parse and plan every overlay of the workload.

    `p2run --explain` loads the binary, parses the overlay's OverLog program,
    plans it and builds one node's dataflow graph: the fixed cost every
    scenario pays before its first simulated event.
    """
    overlays = sorted({spec[spec.index("--overlay") + 1] for spec in specs})
    out = os.path.join(TMP_DIR, "explain.txt")
    totals = []
    for _ in range(SETUP_REPS):
        total = 0.0
        for overlay in overlays:
            rc, wall, _, _ = spawn(["--overlay", overlay, "--explain"], out)
            if rc != 0:
                raise BenchError(f"p2run --overlay {overlay} --explain exited {rc}")
            total += wall
        totals.append(total)
    return statistics.median(totals)


def check_report(spec, text, rc):
    """Validates one scenario report. Returns (failed, events, detail lines).

    A scenario that ran cleanly but did not converge counts as a failed
    operation; output that is malformed, or that contradicts the exit code,
    is a correctness error.
    """
    overlay = spec[spec.index("--overlay") + 1]
    nodes = int(spec[spec.index("--nodes") + 1])
    lines = text.splitlines()
    if rc not in (0, 1) or not lines or lines[-1] not in ("CONVERGED", "DID NOT CONVERGE"):
        raise BenchError(f"p2run {' '.join(spec)} exited {rc}: {lines[-3:]}")
    m = re.search(r"^sim: (\d+) events in ", text, re.M)
    if not m or int(m.group(1)) == 0:
        raise BenchError(f"p2run {' '.join(spec)}: no simulated events reported")
    events = int(m.group(1))
    if overlay == "chord":
        m = re.search(r"^lookups: (\d+)/(\d+) completed, (\d+) consistent$", text, re.M)
        if not m:
            raise BenchError("chord report has no lookups line")
        done, issued, consistent = map(int, m.groups())
        ring = re.search(r"^ring consistency: ([0-9.e+-]+)$", text, re.M)
        if not ring:
            raise BenchError("chord report has no ring consistency line")
        ok = (issued > 0 and done == issued and consistent * 10 >= done * 9
              and float(ring.group(1)) >= 0.9)
    else:
        m = re.search(r"^%s: (\d+)/(\d+)" % FULL_VIEW_LINE[overlay], text, re.M)
        if not m or int(m.group(2)) != nodes:
            raise BenchError(f"{overlay} report has no '{FULL_VIEW_LINE[overlay]}' line")
        ok = m.group(1) == m.group(2)
    if ok != (rc == 0):
        raise BenchError(f"p2run {' '.join(spec)} exit {rc} contradicts its report")
    # The lines between the banner and the wall-clock "sim:" line are a pure
    # function of the config and seed: the virtual-time results.
    sim_line = next(i for i, l in enumerate(lines) if l.startswith("sim: "))
    return rc != 0, events, lines[1:sim_line]


def parse_stats(text):
    """Sums each Prometheus family of a --stats-dump over its label sets."""
    fams = {}
    body = text.split("--- metrics ---\n", 1)
    if len(body) != 2:
        raise BenchError("--stats-dump printed no metrics section")
    for line in body[1].splitlines():
        if not line.startswith("p2_"):
            continue
        name_part, _, value = line.rpartition(" ")
        fam = name_part.split("{", 1)[0]
        if fam.endswith("_bucket"):
            continue
        try:
            fams[fam] = fams.get(fam, 0.0) + float(value)
        except ValueError:
            raise BenchError(f"unparseable metric line: {line}")
    return fams


def parse_trace(path):
    """Reads a --trace-out file.

    Returns (ms per span name summed over lanes, windows on lane 0, ms the
    coordinator spent inside the simulator, virtual seconds simulated).
    The coordinator is worker 0: its lane alternates windows and "barrier"
    gaps from the first window to the last, and the gaps contain the
    control actions (logged on their own lane) and the harness's work
    between simulated intervals.
    """
    with open(path) as f:
        events = json.load(f)
    dur = {"window": 0.0, "barrier": 0.0, "control": 0.0}
    windows = 0
    coordinator_ms = 0.0
    virtual_s = 0.0
    for ev in events:
        name = ev.get("name")
        if name not in dur:
            continue
        ms = ev.get("dur", 0.0) / 1e3
        dur[name] += ms
        if name != "control" and ev.get("tid") == 0:
            coordinator_ms += ms
        if name == "window":
            windows += ev.get("tid") == 0
            virtual_s = max(virtual_s, ev.get("args", {}).get("vt_end", 0.0))
    return dur, windows, coordinator_ms, virtual_s


def layer_metrics(r):
    """One round's per-layer ledger: name -> (value, unit)."""
    g = lambda name: r["fams"].get(name, 0.0)
    wall, dur = r["wall"], r["dur"]
    fire_n = g("p2_rule_fire_ns_count")
    fire_ns = g("p2_rule_fire_ns_sum") / fire_n if fire_n else 0.0
    worker_ms = dur["window"] + dur["barrier"]
    data = g("p2_channel_data_frames_sent_total")
    depth_n = g("p2_shard_mailbox_depth_count")
    return {
        # Simulator core (src/sim event loops, src/runtime timer wheel).
        "sim_events": (r["events"], "count"),
        "events_per_s": (r["events"] / wall, "1/s"),
        "node_virtual_s_per_s": (r["node_virtual_s"] / wall, "1/s"),
        "cpu_per_wall": (r["cpu"] / wall, "ratio"),
        # Wall time before the first simulated window and after the last:
        # process start, fleet construction (OverLog parse and plan per
        # node), and teardown.
        "outside_sim_ms": (1e3 * wall - r["sim_ms"], "ms"),
        # Shard runtime (src/sim/shard): windows, barriers, control timeline.
        "windows": (r["windows"], "count"),
        "window_busy_ms": (dur["window"], "ms"),
        "barrier_wait_ms": (dur["barrier"], "ms"),
        "barrier_wait_pct": (100.0 * dur["barrier"] / worker_ms if worker_ms else 0.0,
                             "%"),
        "control_ms": (dur["control"], "ms"),
        "shard_steals": (g("p2_shard_steals_total"), "count"),
        "domain_owner_moves": (g("p2_domain_owner_moves_total"), "count"),
        "window_imbalance_pct": (g("p2_shard_window_imbalance_pct"), "%"),
        "mailbox_backpressure": (g("p2_mailbox_backpressure_total"), "count"),
        "mailbox_depth_mean": (g("p2_shard_mailbox_depth_sum") / depth_n if depth_n else 0.0,
                               "count"),
        # Rule engine (src/overlog plans over src/dataflow and src/pel).
        "rule_fires": (g("p2_rule_fires_total"), "count"),
        "rule_fire_ns_mean": (fire_ns, "ns"),
        "rule_busy_pct": (100.0 * g("p2_rule_fires_total") * fire_ns / 1e6 / dur["window"]
                          if dur["window"] else 0.0, "%"),
        "element_out": (g("p2_element_out_total"), "count"),
        "dataflow_drops": (g("p2_queue_dropped_total") + g("p2_demux_unroutable_total")
                           + g("p2_rule_malformed_total"), "count"),
        # Tables (src/table).
        "table_ops": (sum(g("p2_table_%s_total" % k) for k in
                          ("inserts", "replaces", "deletes", "expiries", "evictions")),
                      "count"),
        "table_rows": (g("p2_table_rows"), "count"),
        # Node I/O and wire (src/p2, src/net/wire).
        "tuples_sent": (g("p2_node_tuples_sent_total"), "count"),
        "local_loopbacks": (g("p2_node_local_loopbacks_total"), "count"),
        "bad_packets": (g("p2_node_bad_packets_total"), "count"),
        # Reliable transport (src/net/stack).
        "data_frames": (data, "count"),
        "retransmits": (g("p2_channel_retransmits_total"), "count"),
        "retransmit_pct": (100.0 * g("p2_channel_retransmits_total") / data if data else 0.0,
                           "%"),
        "acks_sent": (g("p2_channel_acks_sent_total"), "count"),
        # Cost of the instrumentation itself: traced vs untraced, same seeds.
        "trace_overhead_pct": (100.0 * (wall / r["untraced_wall"] - 1.0), "%"),
    }


def run_round(specs, seed, trace):
    """Simulates each spec once with `seed`; sums the per-scenario figures.

    Returns (round dict, errors). With `trace`, each scenario runs twice:
    untraced for the overhead baseline, then with the registry dump and the
    shard trace, whose figures the round keeps.
    """
    r = {"wall": 0.0, "cpu": 0.0, "rss": 0.0, "events": 0, "failed": 0, "details": [],
         "untraced_wall": 0.0, "fams": {}, "windows": 0, "node_virtual_s": 0.0, "sim_ms": 0.0,
         "dur": {"window": 0.0, "barrier": 0.0, "control": 0.0}}
    errors = []
    for i, spec in enumerate(specs):
        args = spec + ["--sim", "--seed", str(seed)]
        out = os.path.join(TMP_DIR, f"scenario{i}.txt")
        trace_path = os.path.join(TMP_DIR, f"trace{i}.json")
        try:
            if trace:
                r["untraced_wall"] += spawn(args, out)[1]
                args = args + ["--stats-dump", "--trace-out", trace_path]
            rc, wall, cpu, rss = spawn(args, out)
            with open(out) as f:
                text = f.read()
            failed, events, detail = check_report(spec, text, rc)
            if trace:
                for k, v in parse_stats(text).items():
                    r["fams"][k] = r["fams"].get(k, 0.0) + v
                dur, windows, coordinator_ms, virtual_s = parse_trace(trace_path)
        except BenchError as e:
            errors.append(f"seed {seed}: {e}")
            continue
        r["wall"] += wall
        r["cpu"] += cpu
        r["rss"] = max(r["rss"], rss)
        r["events"] += events
        r["failed"] += failed
        r["details"].append(detail)
        if trace:
            for k in dur:
                r["dur"][k] += dur[k]
            r["windows"] += windows
            r["sim_ms"] += coordinator_ms
            r["node_virtual_s"] += int(spec[spec.index("--nodes") + 1]) * virtual_s
    return r, errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    specs = WORKLOADS[args.workload]

    try:
        build()
        setup_s = measure_setup(specs)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1

    rounds = []
    errors = []
    t0 = time.perf_counter()
    while not errors and (not rounds or time.perf_counter() - t0 < args.seconds):
        seed = args.seed * 1000 + len(rounds) + 1
        r, errs = run_round(specs, seed, args.trace == 1)
        r["seed"] = seed
        rounds.append(r)
        log(f"perfbench: round seed={seed} wall={r['wall']:.3f}s events={r['events']}")
        errors += errs
    attempted = sum(len(r["details"]) for r in rounds) + len(errors)
    if not errors and any("--shards" in s for s in specs):
        # Shard-count invariance: the same seed on one worker must give the
        # identical virtual-time report and event total.
        first = rounds[0]
        ref, errs = run_round([s[:s.index("--shards")] for s in specs], first["seed"], False)
        errors += errs
        if not errs and (ref["details"], ref["events"]) != (first["details"], first["events"]):
            errors.append(f"seed {first['seed']}: sharded report differs from the 1-worker "
                          f"report ({first['events']} vs {ref['events']} events)")
    for e in errors:
        log(f"perfbench: {e}")
    complete = [r for r in rounds if len(r["details"]) == len(specs)]
    if not complete:
        log("perfbench: no scenario round completed")
        return 1

    metrics = {}
    if args.trace == 1:
        ledgers = [layer_metrics(r) for r in complete]
        for name, (_, unit) in ledgers[0].items():
            metrics[name] = {"value": statistics.median(l[name][0] for l in ledgers),
                             "unit": unit}
    else:
        for name, key, unit in (("scenario_s", "wall", "s"), ("peak_rss_mb", "rss", "MB")):
            metrics[name] = {"value": statistics.median(r[key] for r in complete),
                             "unit": unit}
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    failed = sum(r["failed"] for r in rounds)
    log(f"perfbench: {args.workload} seed={args.seed} rounds={len(rounds)} "
        f"attempted={attempted} failed={failed} errors={len(errors)}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
