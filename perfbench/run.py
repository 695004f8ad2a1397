#!/usr/bin/env python3
"""Benchmark of the GLR DTN simulator: builds it, runs one workload, checks
its outputs and prints its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload glr-paper --seed 7 --seconds 36 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run; --workload all runs every workload in turn. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 0 only when every check passed.
See README.md for the workloads, metrics and checks.
"""

import argparse
import hashlib
import json
import os
import re
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
BOUNDARY_FIELDS = (("calls", "count"), ("self_s", "s"), ("incl_s", "s"),
                   ("allocs", "count"))
# Host times are scaled to a host that runs the reference kernel
# (src/calibration.cpp) in this many seconds: about its time on the
# baseline host (baseline.json) when nothing else loaded that host.
REFERENCE_KERNEL_S = 0.030


class BenchError(Exception):
    """The benchmark could not run: no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def run_process(cmd, timeout, stdout):
    """Runs cmd in its own process group and returns (stdout, exit code).
    On a timeout, or when this script is interrupted, the whole group
    (a build's compilers too) is killed and waited for."""
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, stderr=sys.stderr,
                                text=True, start_new_session=True)
    except OSError as e:
        raise BenchError(f"{cmd[0]}: {e}") from e
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException as e:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if isinstance(e, subprocess.TimeoutExpired):
            raise BenchError(f"{' '.join(cmd[:3])}...: timed out") from e
        raise
    return out, proc.returncode


def run_checked(cmd, timeout):
    _, code = run_process(cmd, timeout, stdout=sys.stderr)
    if code != 0:
        raise BenchError(f"{' '.join(cmd[:3])}... exited with code {code}")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError("no CMakeLists.txt at the repository root")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=Release"], timeout=120)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", bdir, "-j", jobs, "--target", *targets],
                timeout=660)


def run_binary(name, args, timeout=170):
    """Runs a benchmark binary and returns its JSON lines and exit code."""
    out, code = run_process([os.path.join(build_dir(), name), *args],
                            timeout, stdout=subprocess.PIPE)
    lines = []
    for line in out.splitlines():
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError:
            log(f"{name}: unparsable output line {line[:80]!r}")
    return lines, code


def list_workloads():
    lines, code = run_binary("perfbench", ["--list"])
    if code != 0 or not lines:
        raise BenchError("perfbench --list failed")
    return {w["name"]: w for w in lines}


class Tally:
    """Runs attempted and failed, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, ok, why):
        self.attempted += 1
        if not ok:
            self.failures.append(why)

    def scenarios(self, lines, code, label):
        """Counts scenario lines. A binary that died early, or failed with
        no failing line, counts as one more failure."""
        records = [l for l in lines if "j" in l]
        for r in records:
            self.add(r["ok"], f"{label} replicate {r['j']} seed {r['seed']}: "
                              f"{r['error']}")
        done = [l for l in lines if l.get("done")]
        if not done or (code != 0 and all(r["ok"] for r in records)):
            self.add(False, f"{label}: exited with code {code}")
        return records, (done[0] if done else {})


def metric(value, unit):
    return {"value": value, "unit": unit}


def host_scale(calib):
    """Factor that turns this run's host times into times on the reference
    host: the reference kernel's time there over its median time in this
    run. Other work on a shared host slows the kernel and the program
    alike, so scaled times hold still while the host's speed drifts."""
    return REFERENCE_KERNEL_S / statistics.median(calib)


def end_to_end_metrics(records, done, calib):
    """End-to-end metrics of one untraced run; `calib` holds the reference
    kernel's times taken during it."""
    scale = host_scale(calib)
    first = sorted((r for r in records if r["rep"] == 0), key=lambda r: r["j"])
    run_s = {}
    for r in records:
        run_s.setdefault(r["j"], []).append(r["run_s"])
    host_s = scale * sum(statistics.fmean(run_s[r["j"]]) for r in first)
    created = sum(r["created"] for r in first)
    return {
        "sim_rate": metric(sum(r["sim_s"] for r in first) / host_s, "s/s"),
        # First executions only: repeats set up on a heap that earlier
        # scenarios have churned, and how many there are depends on the
        # host's speed.
        "setup_s": metric(
            scale * statistics.median(r["setup_s"] for r in first), "s"),
        "peak_rss_mb": metric(done["peak_rss_kb"] / 1024.0, "MB"),
        "delivery_ratio": metric(
            sum(r["delivered"] for r in first) / created, "ratio"),
        "latency_p50_s": metric(
            statistics.fmean(r["latency_p50_s"] for r in first), "s"),
        "latency_p90_s": metric(
            statistics.fmean(r["latency_p90_s"] for r in first), "s"),
    }


def ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(traced):
    """Per-layer metrics of a traced run: one record per replicate, with
    the time of the replicate's untraced twin beside its own. Per-scenario
    figures are means over the replicates."""
    n = len(traced)
    out = {}
    for b in traced[0]["spans"]:
        for field, unit in BOUNDARY_FIELDS:
            total = sum(r["spans"][b][field] for r in traced)
            out[f"{b}.{field}"] = metric(total / n, unit)

    def total(key):
        return sum(r[key] for r in traced)

    def calls(b):
        return sum(r["spans"][b]["calls"] for r in traced)

    out.update({
        "sim.events": metric(total("events") / n, "count"),
        "sim.events_per_s": metric(
            total("events") / total("untraced_run_s"), "1/s"),
        "spanner.memo_hit_ratio": metric(
            ratio(total("memo_hits"), total("memo_hits") + total("memo_misses")),
            "ratio"),
        "spanner.builds_per_call": metric(
            ratio(calls("geometry.Delaunay.buildInto"),
                  calls("spanner.localSpannerNeighbors")), "builds/call"),
        "mac.queue_drop_ratio": metric(
            ratio(total("mac_queue_drops"), calls("mac.Mac.send")), "ratio"),
        "mac.collisions": metric(total("collisions") / n, "count"),
        "dtn.buffer_evictions": metric(total("buffer_evictions") / n, "count"),
        "dtn.send_rejects": metric(total("send_rejects") / n, "count"),
        "core.custody_refusals": metric(total("custody_refusals") / n, "count"),
        "alloc.per_event": metric(
            total("allocs_under_root") / total("events"), "allocs/event"),
        "trace.overhead_pct": metric(
            (total("run_s") / total("untraced_run_s") - 1.0) * 100.0, "%"),
    })
    return out


def run_workload(w, seed, seconds, trace, tally):
    """Runs one workload; returns its metrics (empty when a run failed)."""
    name = w["name"]
    seed_args = ["--workload", name, "--seed", str(seed)]
    if not trace:
        lines, code = run_binary("perfbench",
                                 [*seed_args, "--seconds", str(seconds)])
        records, done = tally.scenarios(lines, code, name)
        calib = [l["calib_s"] for l in lines if "calib_s" in l]
        if tally.failures or not records or not calib:
            return {}
        print(f"{name}: reference kernel median {statistics.median(calib):.6f} s "
              f"over {len(calib)} runs; host times scaled by "
              f"{host_scale(calib):.4f}")
        return end_to_end_metrics(records, done, calib)

    lines, code = run_binary("perfbench_traced",
                             [*seed_args, "--count", str(w["traced_batch"])])
    traced, _ = tally.scenarios(lines, code, f"{name} traced")
    if tally.failures or not traced:
        return {}
    with open(os.path.join(build_dir(), f"trace-{name}-seed{seed}.json"),
              "w") as f:
        json.dump(traced, f, indent=1)
    return per_layer_metrics(traced)


def cmake_cache(key):
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def host_stamp():
    """Identity of the host and build, printed with every result so numbers
    from different hosts are never compared silently."""
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f
                        if l.startswith("model name")), "")
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        version = ""
    sha = None
    try:
        top, sha = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10).stdout.split()
        if os.path.realpath(top) != os.path.realpath(ROOT):
            sha = None  # an enclosing repository, not this checkout
    except (OSError, ValueError, subprocess.TimeoutExpired):
        pass
    # The program's sources, to identify it where there is no git sha.
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for d, dirs, files in os.walk(os.path.join(ROOT, "src")):
        paths += [os.path.join(d, fn) for fn in files]
    for p in sorted(paths):
        digest.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            digest.update(f.read())
    flags = ""
    try:
        with open(os.path.join(build_dir(), "glr", "CMakeFiles", "glr.dir",
                               "flags.make")) as f:
            flags = next((l.split("=", 1)[1].strip() for l in f
                          if l.startswith("CXX_FLAGS")), "")
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "online_cores": len(os.sched_getaffinity(0)),
        "compiler": version or compiler,
        "flags": flags,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
    }


def result_line(tally, metrics):
    for name in metrics:
        if not METRIC_NAME.fullmatch(name):
            raise BenchError(f"invalid metric name {name!r}")
    return {"correct": not tally.failures, "attempted": tally.attempted,
            "failed": len(tally.failures), "metrics": metrics}


def selftest():
    build(["perfbench_tests"])
    run_checked([os.path.join(build_dir(), "perfbench_tests")], timeout=300)
    run_checked([sys.executable, "-m", "unittest", "discover", "-s",
                 os.path.join(HERE, "tests"), "-p", "test_*.py"], timeout=300)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if args.selftest:
        return selftest()

    build(["perfbench", "perfbench_traced"] if args.trace else ["perfbench"])
    known = list_workloads()
    names = list(known) if args.workload == "all" else [args.workload]
    if any(n not in known for n in names):
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"known: {', '.join(known)}")

    tally = Tally()
    lines, code = run_binary("perfbench", ["--golden"])
    golden = lines[0] if lines else {"ok": False, "error": f"exit {code}"}
    tally.add(golden["ok"] and code == 0, f"golden: {golden['error']}")

    results = {}
    for n in names:
        results[n] = run_workload(known[n], args.seed, args.seconds,
                                  args.trace, tally)
    print("host " + json.dumps(host_stamp()))
    for n, metrics in results.items():
        for k, v in metrics.items():
            print(f"{n:26s} {k:44s} {v['value']:>16.6g} {v['unit']}")
    for why in tally.failures:
        log(f"FAILED: {why}")
    if len(names) == 1:
        metrics = results[names[0]]
    else:
        metrics = {f"{n}.{k}": v for n, m in results.items() for k, v in m.items()}
    print(json.dumps(result_line(tally, metrics)), flush=True)
    return 0 if not tally.failures else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except BenchError as e:
        log(f"perfbench: {e}")
        sys.exit(2)
