#!/usr/bin/env python3
"""Builds and runs the TRACLUS benchmark, then prints one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (a CMake project that compiles the library from ../src) into
$CARGO_TARGET_DIR/perfbench-cmake, defaulting to .bench_build/; later runs
only re-check the build. The benchmark program then generates its inputs
from --seed, checks every output against a reference, and writes a report,
from which this script computes the metrics named in BENCHMARK.json:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Traced runs keep their trace under <build dir>/perfbench-traces/; see
summarize.py. Progress and build output go to stderr; the last line of
stdout is {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import summarize  # noqa: E402

# Each workload is named after its corpus; the default corpus is frozen in
# tests/golden/<workload>_default.golden.
WORKLOADS = ("hurricane", "deer")
# The default seed reproduces the generators' default corpora, which the
# golden files freeze.
DEFAULT_SEED = 0
# The program is stopped after this long; a run must end within 180 s.
RUN_DEADLINE_S = 170.0


def nearest_rank(values, q):
    """The q-th percentile by nearest rank, and how many values lie above."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n * q / 100)
    return ordered[int(rank) - 1], len(ordered) - int(rank)


def end_to_end_metrics(report):
    """{metric: (value, unit)} from an untraced report.

    Each operation's time is the median of its samples on a corpus, averaged
    over the run's corpora; AssignTrajectory percentiles likewise. A
    corpus's snapshot density sets its latency tail, so a percentile pooled
    over the corpora would follow the densest one alone.
    """
    samples = report["samples"]
    corpora = len(report["corpora"])

    def per_corpus(name):
        lists = samples.get(name, [])
        if len(lists) != corpora or not all(lists):
            raise ValueError("a corpus has no successful samples of " + name)
        return lists

    def corpus_mean(name):
        return statistics.fmean(statistics.median(values)
                                for values in per_corpus(name))

    p99s = []
    for latencies in per_corpus("assign_ms"):
        p99, beyond = nearest_rank(latencies, 99)
        if beyond < 10:
            raise ValueError("only %d assign samples beyond p99" % beyond)
        p99s.append(p99)
    query_segments = sum(c["query_segments"] for c in report["corpora"])
    bulk_s = sum(statistics.median(v) for v in per_corpus("bulk_s"))
    return {
        "setup_s": (statistics.median(report["setup_s"]), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        "uncached_s": (corpus_mean("uncached_s"), "s"),
        "uncached_1t_s": (corpus_mean("uncached_1t_s"), "s"),
        "cold_s": (corpus_mean("cold_s"), "s"),
        "warm_s": (corpus_mean("warm_s"), "s"),
        "capped_s": (corpus_mean("capped_s"), "s"),
        "load_s": (corpus_mean("load_s"), "s"),
        "assign_p50_ms": (corpus_mean("assign_ms"), "ms"),
        "assign_p99_ms": (statistics.fmean(p99s), "ms"),
        "bulk_segments_per_s": (query_segments / bulk_s, "segments/s"),
    }


def build(build_root):
    """Configures (once) and builds the benchmark; returns the binary path."""
    cmake_dir = os.path.join(build_root, "perfbench-cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", cmake_dir, "--target",
                    "traclus_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(cmake_dir, "traclus_perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.exists(os.path.join(ROOT, "src", "core", "engine.h")):
        sys.stderr.write("TRACLUS sources not found next to perfbench/\n")
        return 1
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(build_root)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.stderr.write("build failed: %s\n" % e)
        return 1

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work = os.path.join(build_root, "perfbench-work", "%s-%d" % (tag, os.getpid()))
    traces = os.path.join(build_root, "perfbench-traces")
    os.makedirs(traces, exist_ok=True)
    report_path = os.path.join(traces if args.trace else work + "-out",
                               tag + ".json")
    os.makedirs(os.path.dirname(report_path), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work", work, "--out", report_path]
    if args.seed == DEFAULT_SEED:
        golden = os.path.join(ROOT, "tests", "golden",
                              args.workload + "_default.golden")
        if not os.path.exists(golden):
            sys.stderr.write("golden file %s is missing\n" % golden)
            return 1
        cmd += ["--golden", golden]
    try:
        # The chunk store's spill file comes from std::tmpfile(), which
        # glibc places in /tmp whatever TMPDIR says (it is unlinked on
        # creation); TMPDIR still keeps anything else that honours it inside
        # the work directory.
        proc = subprocess.run(
            cmd, stdout=sys.stderr, env=dict(os.environ, TMPDIR=work),
            timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("benchmark program timed out\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write("benchmark program exited with %d\n" % proc.returncode)
        return 1

    with open(report_path) as f:
        report = json.load(f)
    if not args.trace:
        shutil.rmtree(os.path.dirname(report_path), ignore_errors=True)
    for failure in report["failures"]:
        sys.stderr.write("failure: %s\n" % failure)

    try:
        if args.trace:
            trace = summarize.Trace(report)
            for name, count, total, per_iter in trace.self_time_table():
                sys.stderr.write("  %-30s %5d spans  %10.6f s self/iter\n" %
                                 (name, count, per_iter))
            computed = {k: (v["value"], v["unit"])
                        for k, v in trace.per_layer_metrics().items()}
        else:
            computed = end_to_end_metrics(report)
    except (ValueError, KeyError) as e:
        sys.stderr.write("cannot compute metrics: %s\n" % e)
        return 1

    metrics = {}
    for m in declared_metrics(args.trace):
        if m["name"] not in computed or computed[m["name"]][1] != m["unit"]:
            sys.stderr.write("metric %s is not computed as declared\n" %
                             m["name"])
            return 1
        metrics[m["name"]] = {"value": computed[m["name"]][0],
                              "unit": m["unit"]}
    result = {
        "correct": report["failed"] == 0 and report["attempted"] > 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
