#!/usr/bin/env python3
"""Summarises a TRACLUS benchmark trace.

A trace is the report a traced run (`--trace 1`) writes: spans (name, start,
end, parent span, iteration) and counters (name, iteration, value). This
module turns it into the per-layer metrics listed in PER_LAYER; run as a
script it also prints the self time of every span name:

    python3 perfbench/summarize.py .bench_build/perfbench-traces/<file>.json

A span's self time is its duration minus the time its child spans cover.
Per-iteration values are reduced to one number by taking the median over
the run's iterations.
"""

import json
import statistics
import sys
from collections import defaultdict

# (metric, unit, better, how it is computed)
#   ("span", S)            self time of span S, summed within an iteration
#   ("span_max", S)        largest single S span within an iteration
#   ("span_each", S, k)    median of every single S span, times k
#   ("counter", C)         counter C
#   ("per", S, C, k)       self time of S divided by counter C, times k
#   ("rate", C, S)         counter C divided by the self time of S
#   ("ratio", C, D)        counter C divided by counter D
#   ("overhead", [S...], C)  sum of the spans' medians over the median of
#                          counter C (an untraced run of the same work), - 1
PER_LAYER = [
    ("core.partition_s", "s", "lower", ("span", "core.partition")),
    ("core.group_uncached_s", "s", "lower", ("span", "core.group_uncached")),
    ("core.group_cold_s", "s", "lower", ("span", "core.group_cold")),
    ("core.group_warm_s", "s", "lower", ("span", "core.group_warm")),
    ("core.represent_s", "s", "lower", ("span", "core.represent")),
    ("core.represent_1t_s", "s", "lower", ("span", "core.represent_1t")),
    ("core.snapshot_bytes", "count", "lower", ("counter", "core.snapshot_bytes")),
    ("core.assign_segments_1t_s", "s", "lower",
     ("span", "core.assign_segments_1t")),
    ("core.assign_segments_s", "s", "lower", ("span", "core.assign_segments")),
    ("partition.mdl_us_per_traj", "us", "lower",
     ("per", "partition.mdl", "partition.trajectories", 1e6)),
    ("partition.segments", "count", "lower", ("counter", "partition.segments")),
    ("traj.csv_parse_s", "s", "lower", ("span", "traj.csv_parse")),
    ("traj.freeze_s", "s", "lower", ("span", "traj.freeze")),
    ("traj.rss_per_segment_bytes", "B", "lower",
     ("ratio", "traj.heap_growth_bytes", "partition.segments")),
    ("traj.chunk_ingest_s", "s", "lower", ("span", "traj.chunk_ingest")),
    ("traj.chunk_fault_us", "us", "lower",
     ("span_each", "traj.chunk_fault", 1e6)),
    ("traj.peak_resident_chunks", "count", "lower",
     ("counter", "traj.peak_resident_chunks")),
    ("distance.refine_pairs_per_s", "pairs/s", "higher",
     ("rate", "distance.refine_pairs", "distance.refine")),
    ("distance.nearest_pairs_per_s", "pairs/s", "higher",
     ("rate", "distance.nearest_pairs", "core.assign_segments_1t")),
    ("distance.hash_s", "s", "lower", ("span", "distance.hash")),
    ("cluster.index_build_s", "s", "lower", ("span", "cluster.index_build")),
    ("cluster.neighbors_s", "s", "lower", ("span", "cluster.neighbors")),
    ("cluster.neighbors_1t_s", "s", "lower", ("span", "cluster.neighbors_1t")),
    ("cluster.neighbor_pairs", "count", "lower",
     ("counter", "cluster.neighbor_pairs")),
    ("cluster.dbscan_expand_s", "s", "lower", ("span", "cluster.dbscan_expand")),
    ("cluster.cache_create_cold_s", "s", "lower",
     ("span", "cluster.cache_create_cold")),
    ("cluster.cache_create_warm_s", "s", "lower",
     ("span", "cluster.cache_create_warm")),
    ("cluster.cache_read_s", "s", "lower", ("span", "cluster.cache_read")),
    ("cluster.cache_bytes", "count", "lower", ("counter", "cluster.cache_bytes")),
    ("cluster.cache_hit_frac", "ratio", "higher",
     ("ratio", "cluster.cache_hits", "cluster.cache_opens")),
    ("cluster.sweep_max_s", "s", "lower", ("span_max", "cluster.sweep_one")),
    ("cluster.sweep_total_s", "s", "lower", ("span", "cluster.sweep_one")),
    ("cluster.sweep_max_members", "count", "lower",
     ("counter", "cluster.sweep_max_members")),
    ("cluster.chunked_neighbors_s", "s", "lower",
     ("span", "cluster.chunked_neighbors")),
    ("cluster.uncapped_neighbors_s", "s", "lower",
     ("span", "cluster.uncapped_neighbors")),
    ("common.pool_task_us", "us", "lower",
     ("per", "common.pool", "common.pool_tasks", 1e6)),
    ("trace.overhead_frac", "ratio", "lower",
     ("overhead", ["core.partition", "core.group_uncached", "core.represent"],
      "e2e.uncached_s")),
]


def self_times(spans):
    """Returns [(span, self seconds)] in recording order."""
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end"] - s["start"]
    return [(s, s["end"] - s["start"] - child_time[s["id"]]) for s in spans]


def _per_iteration(pairs):
    """{iteration: [values]} from (iteration, value) pairs."""
    out = defaultdict(list)
    for it, value in pairs:
        out[it].append(value)
    return out


class Trace:
    def __init__(self, report):
        self.report = report
        self.selfs = self_times(report["spans"])

    def span_values(self, name):
        """{iteration: [self seconds of each span called name]}"""
        return _per_iteration((s["iter"], t) for s, t in self.selfs
                              if s["name"] == name)

    def counter_values(self, name):
        """{iteration: summed counter}"""
        per = _per_iteration((c["iter"], c["value"])
                             for c in self.report["counters"]
                             if c["name"] == name)
        return {it: sum(v) for it, v in per.items()}

    def span_sum(self, name):
        return {it: sum(v) for it, v in self.span_values(name).items()}

    def metric(self, how):
        kind = how[0]
        if kind == "span":
            return _median(self.span_sum(how[1]).values())
        if kind == "span_max":
            return _median(max(v) for v in self.span_values(how[1]).values())
        if kind == "span_each":
            every = [t for v in self.span_values(how[1]).values() for t in v]
            return _median(every) * how[2]
        if kind == "counter":
            return _median(self.counter_values(how[1]).values())
        if kind in ("per", "rate", "ratio"):
            if kind == "per":
                num, den = self.span_sum(how[1]), self.counter_values(how[2])
            elif kind == "rate":
                num, den = self.counter_values(how[1]), self.span_sum(how[2])
            else:
                num, den = self.counter_values(how[1]), self.counter_values(how[2])
            scale = how[3] if kind == "per" else 1.0
            return _median(num[it] / den[it] * scale for it in num
                           if it in den and den[it] != 0)
        if kind == "overhead":
            traced = sum(_median(self.span_sum(s).values()) for s in how[1])
            untraced = _median(self.counter_values(how[2]).values())
            return traced / untraced - 1.0
        raise ValueError("unknown metric kind %r" % (kind,))

    def per_layer_metrics(self):
        """{metric: {"value", "unit"}} for every PER_LAYER entry."""
        return {name: {"value": self.metric(how), "unit": unit}
                for name, unit, _, how in PER_LAYER}

    def self_time_table(self):
        """[(span name, count, total self s, median self s per iteration)]"""
        rows = {}
        for s, t in self.selfs:
            row = rows.setdefault(s["name"], [0, 0.0])
            row[0] += 1
            row[1] += t
        return [(name, count, total,
                 _median(self.span_sum(name).values()))
                for name, (count, total) in rows.items()]


def _median(values):
    values = list(values)
    if not values:
        raise ValueError("no samples")
    return statistics.median(values)


def main(argv):
    if len(argv) != 2:
        sys.stderr.write("usage: summarize.py TRACE.json\n")
        return 2
    with open(argv[1]) as f:
        trace = Trace(json.load(f))
    print("%-32s %6s %12s %14s" % ("span", "count", "self total s",
                                   "self/iter s"))
    for name, count, total, per_iter in trace.self_time_table():
        print("%-32s %6d %12.6f %14.6f" % (name, count, total, per_iter))
    print()
    print("%-32s %16s  %s" % ("per-layer metric", "value", "unit"))
    for name, m in trace.per_layer_metrics().items():
        print("%-32s %16.6g  %s" % (name, m["value"], m["unit"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
