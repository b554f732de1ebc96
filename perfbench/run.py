#!/usr/bin/env python3
"""Two-clock benchmark of the ganns library: simulated device time and host
wall time, end to end and per layer.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1
        [--online-rate QPS] [--write-rate OPS]
        [--latency-limit-ms serve_closed=MS,serve_online=MS,...]

W is build, serve_closed, serve_online, cluster_failover, or `all` (every
workload in turn, with a summary). Run from anywhere inside a checkout: the
driver is built from the checkout's sources into .bench_build/ (or
$CARGO_TARGET_DIR), each measured run is a child process of its own, and
the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a separate traced
run. The exit code is 1 when an output was wrong, 2 when the benchmark could
not run at all (bad arguments, no sources, failed build), and 0 otherwise; a
child that died is reported as not correct, with every operation it
attempted failed. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import harness  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("build", "serve_closed", "serve_online", "cluster_failover")
SERVING = WORKLOADS[1:]
# Workloads through ServeEngine; the others run the library on one thread.
ENGINE = ("serve_closed", "serve_online")

# Recall@10 floors; a run below its floor is incorrect.
RECALL_FLOOR = {
    "build": 0.90,
    "serve_closed": 0.95,
    "serve_online": 0.80,
    "cluster_failover": 0.95,
}
# A run must end within 180 s: a hung child is killed (and recorded).
CHILD_TIMEOUT_S = 110
FIXTURE_TIMEOUT_S = 60
FIXTURES_KEPT = 6

# End-to-end metrics: name -> unit, the ones BENCHMARK.json gates and the
# result line carries, on every workload. An operation is a query on the
# serving workloads and an inserted point on build.
END_TO_END = {
    "setup_s": "s",
    "wall_ops_s": "1/s",
    "sim_ops_s": "1/sim_s",
    "latency_p50_ms": "ms",
    "recall_at_10": "ratio",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}
# Printed beside them, not gated: serving tails and SLO, build times.
SERVING_EXTRA = {"latency_p90_ms": "ms", "slo_met_frac": "ratio"}
BUILD_EXTRA = {"build_s": "s", "build_sim_s": "sim_s"}

# Per-layer metrics: name -> unit, the ones BENCHMARK.json lists and the
# result line carries. A layer a workload does not exercise reports 0.
PER_LAYER = {
    "common.pool.parallel_for_calls": "count",
    "common.pool.inline_frac": "ratio",
    "data.generate_s": "s",
    "data.ground_truth_s": "s",
    "gpusim.host_ns_per_kcycle": "ns",
    "gpusim.sm_imbalance": "ratio",
    "core.ggraphcon.wall_s": "s",
    "core.ggraphcon.sim_s": "sim_s",
    "core.ggraphcon.distance_work_cycles": "cycles",
    "core.ggraphcon.ds_work_cycles": "cycles",
    "core.search.host_us_per_query": "us",
    "core.search.phase.locate.sim_cycles": "cycles",
    "core.search.phase.explore.sim_cycles": "cycles",
    "core.search.phase.distance.sim_cycles": "cycles",
    "core.search.phase.lazy_check.sim_cycles": "cycles",
    "core.search.phase.sort.sim_cycles": "cycles",
    "core.search.phase.merge.sim_cycles": "cycles",
    "core.search.hops": "count",
    "core.search.distances": "count",
    "core.search.redundant_frac": "ratio",
    "serve.load_s": "s",
    "serve.route.batch_ms_p50": "ms",
    "serve.route.batch_ms_p99": "ms",
    "serve.route.fanout_ms": "ms",
    "serve.route.merge_ms": "ms",
    "serve.route.shard_skew": "ratio",
    "cluster.batch_ms_p50": "ms",
    "cluster.batch_ms_p99": "ms",
    "cluster.batch_sim_us_p50": "sim_us",
    "cluster.rounds_per_batch": "count",
    "cluster.retries": "count",
    "cluster.failovers": "count",
    "cluster.timeouts": "count",
    "cluster.lost_sub_queries": "count",
    "cluster.agg.coalescing_factor": "ratio",
    "cluster.agg.capacity_flushes": "count",
    "cluster.agg.deadline_flushes": "count",
    "cluster.transport.bytes": "bytes",
    "cluster.rejoin_ms": "ms",
    "cluster.recovery_sim_s": "sim_s",
    "cluster.monitoring_sim_s": "sim_s",
    "obs.federation.windows": "count",
    "obs.alerts.transitions": "count",
    "trace.overhead": "ratio",
}
# Per-layer metrics of the ServeEngine workloads (serve_closed,
# serve_online), printed beside them, not gated.
ENGINE_PER_LAYER = {
    "serve.queue_wait_p50_ms": "ms",
    "serve.queue_wait_p99_ms": "ms",
    "serve.batch_size_mean": "count",
    "serve.rejected": "count",
    "serve.expired": "count",
    "serve.kernel_queries": "count",
    "serve.writes.ops_s": "1/s",
    "serve.writes.insert_ms_p50": "ms",
    "serve.writes.insert_ms_p99": "ms",
    "serve.writes.remove_ms_p50": "ms",
    "serve.writes.remove_ms_p99": "ms",
    "serve.writes.update_sim_s": "sim_s",
    "serve.writes.epochs": "count",
    "serve.writes.compactions": "count",
    "obs.series.windows": "count",
    "obs.flight.dumps": "count",
    "obs.telemetry_wall_overhead": "ratio",
    "loadgen.late_p99_ms": "ms",
}
# Per-layer tails computed here from the driver's sample series:
# metric -> (series, percentile wanted).
SERIES_TAILS = {
    "serve.queue_wait_p50_ms": ("serve.queue_wait_ms", 50.0),
    "serve.queue_wait_p99_ms": ("serve.queue_wait_ms", 99.0),
    "serve.route.batch_ms_p50": ("serve.route.batch_ms", 50.0),
    "serve.route.batch_ms_p99": ("serve.route.batch_ms", 99.0),
    "serve.writes.insert_ms_p50": ("serve.writes.insert_ms", 50.0),
    "serve.writes.insert_ms_p99": ("serve.writes.insert_ms", 99.0),
    "serve.writes.remove_ms_p50": ("serve.writes.remove_ms", 50.0),
    "serve.writes.remove_ms_p99": ("serve.writes.remove_ms", 99.0),
    "cluster.batch_ms_p50": ("cluster.batch_ms", 50.0),
    "cluster.batch_ms_p99": ("cluster.batch_ms", 99.0),
    "cluster.batch_sim_us_p50": ("cluster.batch_sim_us", 50.0),
}


class BenchError(Exception):
    """The benchmark cannot run at all (exit code 2, no result line)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build_driver():
    """Configures and builds the driver from the checkout's sources."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources not found: %s/src" % ROOT)
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    tree = os.path.join(build_root(), "perfbench", "cmake")
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(build_root(), "perfbench", "tmp")
    for path in (tree, tmp):
        os.makedirs(path, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(tree, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", tree,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", tree, "-j", "4"])
    with open(log_path, "a") as out:
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=subprocess.STDOUT, env=env) != 0:
                with open(log_path) as f:
                    log(f.read()[-4000:])
                raise BenchError("build failed: %s (log %s)" % (" ".join(step), log_path))
    return os.path.join(tree, "perfbench_driver")


def file_digest(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def run_child(argv, timeout_s):
    """Runs one child to completion. Returns (returncode, last progress
    count, result dict or None, peak RSS in MB). A negative returncode is
    the signal that ended the child."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    progress, result = 0, None
    try:
        for line in proc.stdout:
            line = line.strip()
            if not line.startswith("{"):
                continue
            message = json.loads(line)
            if "progress" in message:
                progress = max(progress, int(message["progress"]))
            elif "result" in message:
                result = message["result"]
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        proc.returncode = (-os.WTERMSIG(status) if os.WIFSIGNALED(status)
                           else os.WEXITSTATUS(status))
        proc.stdout.close()
    return proc.returncode, progress, result, usage.ru_maxrss / 1024.0


def ensure_fixture(driver, digest, workload, seed):
    """The workload's saved shards, built by this driver binary for this
    seed (rebuilt whenever the library changes, since the key is the
    binary's hash). Returns (directory, 0), or (None, the child's exit
    status) when the build died."""
    base = os.path.join(build_root(), "perfbench", "fixtures")
    path = os.path.join(base, "%s-%s-seed%d" % (digest, workload, seed))
    if os.path.isfile(os.path.join(path, "done")):
        os.utime(path)
        return path, 0
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    start = time.time()
    code, _, _, _ = run_child([driver, "fixture", "--workload", workload,
                               "--seed", str(seed), "--out", tmp],
                              FIXTURE_TIMEOUT_S)
    if code != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        return None, code
    open(os.path.join(tmp, "done"), "w").close()
    shutil.rmtree(path, ignore_errors=True)
    os.rename(tmp, path)
    log("built %s fixture for seed %d in %.1f s" % (workload, seed, time.time() - start))
    # Keep the most recently used fixtures only.
    entries = sorted((os.path.join(base, e) for e in os.listdir(base)
                      if not e.endswith(".tmp")), key=os.path.getmtime)
    for old in entries[:-FIXTURES_KEPT]:
        shutil.rmtree(old, ignore_errors=True)
    return path, 0


def check_repeat(digest, workload, seed, trace, determinism, failures):
    """Fields that must repeat exactly at one seed are compared with the
    record of an earlier run of the same binary, workload and seed."""
    if not determinism:
        return
    records = os.path.join(build_root(), "perfbench", "records")
    os.makedirs(records, exist_ok=True)
    path = os.path.join(records, "%s-%s-seed%d-trace%d.json" % (digest, workload, seed, trace))
    if os.path.isfile(path):
        with open(path) as f:
            before = json.load(f)
        for key, value in determinism.items():
            if value != "" and before.get(key, "") not in ("", value):
                failures.append("%s differs from an earlier run at this seed" % key)
    else:
        with open(path, "w") as f:
            json.dump(determinism, f, sort_keys=True)


def end_to_end(workload, result, rss_mb, attempted, failed, limits):
    """End-to-end metrics of one untraced run, and a note on the tail."""
    if workload == "build":
        build_s = harness.median(result["build_s"])
        return {
            "setup_s": harness.median(result["setup_s"]),
            "wall_ops_s": result["points"] / build_s,
            "sim_ops_s": result["points"] / result["build_sim_s"],
            "latency_p50_ms": build_s * 1e3,
            "recall_at_10": result["recall"],
            "ok_frac": 1.0 - harness.error_rate(attempted, failed),
            "peak_rss_mb": rss_mb,
            "build_s": build_s,
            "build_sim_s": result["build_sim_s"],
        }, None
    limit = limits[workload]
    if workload == "serve_online":
        latency, _ = open_loop(result["open_loop"])
        sent, ok, groups = len(result["open_loop"]["due_ms"]), len(latency), len(latency)
    else:
        latency = result["latency_ms"]
        sent, ok, groups = result["sent_reads"], result["ok_reads"], int(result["latency_groups"])
    tail, used = harness.tail(latency, 99.0, groups)
    note = ("%d latencies from %d independent samples: p%g is the highest "
            "percentile with ten beyond it (%.3f ms)" % (len(latency), groups, used, tail))
    return {
        "setup_s": harness.median(result["setup_s"]),
        "wall_ops_s": ok / result["wall_s"],
        "sim_ops_s": result["served"] / result["sim_s"] if result["sim_s"] > 0 else 0.0,
        "latency_p50_ms": harness.percentile(latency, 50.0),
        "recall_at_10": result["recall"],
        "ok_frac": 1.0 - harness.error_rate(attempted, failed),
        "peak_rss_mb": rss_mb,
        "latency_p90_ms": harness.percentile(latency, 90.0),
        "slo_met_frac": harness.slo_met_frac(latency, sent, limit),
    }, note


def units_of(workload, trace):
    """Every metric a run of the workload prints: name -> unit."""
    if trace:
        return dict(PER_LAYER, **(ENGINE_PER_LAYER if workload in ENGINE else {}))
    return dict(END_TO_END, **(BUILD_EXTRA if workload == "build" else SERVING_EXTRA))


def per_layer(workload, result):
    layers = dict.fromkeys(units_of(workload, 1), 0.0)
    unknown = set(result.get("layers", {})) - set(layers)
    if unknown:
        raise BenchError("driver reported unknown metrics: %s" % ", ".join(sorted(unknown)))
    layers.update(result.get("layers", {}))
    series = result.get("series", {})
    for metric, (name, p) in SERIES_TAILS.items():
        if series.get(name):
            layers[metric] = harness.tail(series[name], p)[0]
    if workload == "serve_online":
        latency, late = open_loop(result["open_loop"])
        layers["loadgen.late_p99_ms"] = harness.tail(late, 99.0)[0]
        untraced = harness.percentile(open_loop(series["online.untraced"])[0], 50.0)
        plain = harness.percentile(open_loop(series["online.no_telemetry"])[0], 50.0)
        layers["obs.telemetry_wall_overhead"] = untraced / plain if plain > 0 else 0.0
        traced = harness.percentile(latency, 50.0)
        layers["trace.overhead"] = traced / untraced if untraced > 0 else 0.0
    return layers


def open_loop(samples):
    return harness.due_time_latencies(samples["due_ms"], samples["sent_ms"],
                                      samples["done_ms"], samples["ok"])


def run_workload(driver, digest, args, workload):
    """One measured child run. Returns (status, attempted, failed, metrics,
    units); status is "ok", "wrong" (a check failed) or "crashed"."""
    failures = []
    child = [driver, "run", "--workload", workload, "--seed", str(args.seed),
             "--seconds", repr(float(args.seconds)), "--trace", str(args.trace)]
    if workload in SERVING:
        fixture, code = ensure_fixture(driver, digest, workload, args.seed)
        if fixture is None:
            return crashed(workload, args.trace, 1, code, "fixture build")
        child += ["--fixture", fixture]
    if workload == "serve_online":
        child += ["--online-rate", repr(args.online_rate),
                  "--online-slo-ms", repr(args.limits["serve_online"]),
                  "--write-rate", repr(args.write_rate)]
    if args.trace:
        traces = os.path.join(build_root(), "perfbench", "traces")
        os.makedirs(traces, exist_ok=True)
        child += ["--trace-out", os.path.join(traces, "%s-seed%d.json" % (workload, args.seed))]
    code, progress, result, rss_mb = run_child(child, CHILD_TIMEOUT_S)
    if code != 0 or result is None:
        return crashed(workload, args.trace, progress, code, "run")
    attempted, failed, _ = harness.account(int(result["attempted"]),
                                           int(result["failed"]), code)
    for check in result["failed_checks"]:
        failures.append("%s: %s" % (check["name"], check["detail"]))
    if result["recall"] < RECALL_FLOOR[workload]:
        failures.append("recall_at_10 %.4f below floor %.2f" % (result["recall"], RECALL_FLOOR[workload]))
    check_repeat(digest, workload, args.seed, args.trace, result["determinism"], failures)
    if args.trace:
        metrics = per_layer(workload, result)
        log("%d spans; self time by span (ms): %s" % (
            result.get("spans", 0),
            ", ".join("%s %.1f" % kv for kv in sorted(result.get("span_self_ms", {}).items()))))
    else:
        metrics, note = end_to_end(workload, result, rss_mb, attempted, failed, args.limits)
        if note:
            log(note)
    log("error_rate %.6f (%d of %d operations failed)" % (
        harness.error_rate(attempted, failed), failed, attempted))
    for failure in failures:
        log("CHECK FAILED [%s]: %s" % (workload, failure))
    return ("wrong" if failures else "ok"), attempted, failed, metrics, units_of(workload, args.trace)


def crashed(workload, trace, attempted, code, stage):
    """A child that died: every attempted operation failed."""
    attempted, failed, signal_name = harness.account(attempted, attempted, code)
    what = signal_name or "exit code %d" % code
    log("CHILD FAILED [%s] during %s: %s; %d attempted operations count as failed"
        % (workload, stage, what, attempted))
    units = units_of(workload, trace)
    return "crashed", attempted, failed, dict.fromkeys(units, 0.0), units


def parse_limits(text):
    limits = {}
    for item in text.split(","):
        name, _, value = item.partition("=")
        if name not in SERVING or not value:
            raise BenchError("bad --latency-limit-ms entry '%s'" % item)
        limits[name] = float(value)
    missing = set(SERVING) - set(limits)
    if missing:
        raise BenchError("--latency-limit-ms lacks %s" % ", ".join(sorted(missing)))
    return limits


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--online-rate", type=float, default=800.0,
                        help="serve_online offered rate, requests per second")
    parser.add_argument("--write-rate", type=float, default=50.0,
                        help="serve_online writer rate, operations per second")
    parser.add_argument("--latency-limit-ms", default="serve_closed=250,serve_online=50,cluster_failover=250",
                        help="per-workload latency limit of slo_met_frac; "
                             "serve_online also uses it as its SLO")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0 or args.online_rate <= 0 or args.write_rate < 0:
        raise BenchError("--seed, --seconds and the rates must be positive")
    args.limits = parse_limits(args.latency_limit_ms)

    driver = build_driver()
    digest = file_digest(driver)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    # One workload's result line carries the metrics BENCHMARK.json names;
    # `all` carries every metric printed, prefixed by its workload.
    carried = PER_LAYER if args.trace else END_TO_END
    statuses, attempted, failed, metrics = set(), 0, 0, {}
    for workload in names:
        status, a, f, values, units = run_workload(driver, digest, args, workload)
        statuses.add(status)
        attempted, failed = attempted + a, failed + f
        for name, value in values.items():
            print("%-20s %-42s %16.6g %s" % (workload, name, value, units[name]))
            if args.workload == "all":
                metrics[workload + "." + name] = {"value": value, "unit": units[name]}
            elif name in carried:
                metrics[name] = {"value": value, "unit": units[name]}
    print(json.dumps({"correct": statuses == {"ok"}, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    # A wrong result fails the command. A child that died is a measured
    # outcome: it is reported (not correct, every operation failed) and the
    # command still succeeds, so the abort is recorded rather than lost.
    return 1 if "wrong" in statuses else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        log("perfbench: %s" % error)
        sys.exit(2)
