#!/usr/bin/env python3
"""Validates the BENCH_<name>.json stats dumps for the CI bench-smoke job.

Usage: check_bench_json.py <bench name, see CHECKS below> [--min-speedup X]

Two failure classes with distinct exit codes, so the workflow can retry
the right one:
  exit 2 — structural: required keys missing, obs disabled, instrumentation
           dead, or an invariant violated. Never retried: reruns cannot fix
           a missing key.
  exit 3 — performance: a measured speedup landed below --min-speedup.
           Retryable: shared CI runners are noisy, so the workflow reruns
           the bench once and revalidates against a relaxed floor.
"""

import argparse
import json
import sys


def structural(msg):
    print(f"FAIL (structural): {msg}", file=sys.stderr)
    sys.exit(2)


def performance(msg):
    print(f"FAIL (performance): {msg}", file=sys.stderr)
    sys.exit(3)


def load(name):
    path = f"BENCH_{name}.json"
    try:
        with open(path) as f:
            stats = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        structural(f"{path}: {e}")
    if not stats.get("obs_enabled"):
        structural(f"{path}: obs was not enabled during the bench run")
    return stats


def require(stats, name, keys, sub=None):
    scope = stats if sub is None else stats.get(sub, {})
    label = f"BENCH_{name}.json" + (f" [{sub}]" if sub else "")
    missing = [k for k in keys if k not in scope]
    if missing:
        structural(f"{label} missing required keys: {missing}")
    return scope


def check_batch(stats, args):
    require(stats, "batch", ["bench", "obs_enabled", "metrics", "trace"])
    counters = require(
        stats["metrics"], "batch",
        ["batch.pairs_total", "batch.cache_hits", "batch.cache_misses",
         "detector.calls"],
        sub="counters")
    if "spans" not in stats["trace"]:
        structural("BENCH_batch.json missing trace.spans")
    if counters["batch.pairs_total"] == 0:
        structural("no pairs recorded: instrumentation is dead")
    try:
        with open("BENCH_batch_trace.json") as f:
            trace = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        structural(f"BENCH_batch_trace.json: {e}")
    if not trace.get("traceEvents"):
        structural("Chrome trace has no events")
    print(f"ok: {counters['batch.pairs_total']} pairs, "
          f"{len(trace['traceEvents'])} trace events")


def check_intern(stats, args):
    require(stats, "intern",
            ["bench", "obs_enabled", "key_lookup", "metrics", "trace"])
    key_lookup = require(stats, "intern",
                         ["pairs", "string_ns", "interned_ns", "speedup"],
                         sub="key_lookup")
    counters = require(
        stats["metrics"], "intern",
        ["pattern_store.hits", "pattern_store.misses", "pattern_store.bytes"],
        sub="counters")
    # Misses count distinct patterns; the repeated-intern benchmarks drive
    # hits far above misses, proving canonicalization is not paid per lookup.
    if counters["pattern_store.misses"] == 0:
        structural("no interns recorded: instrumentation is dead")
    if counters["pattern_store.hits"] <= counters["pattern_store.misses"]:
        structural("expected repeated interning to be hit-dominated: "
                   f"{counters}")
    if key_lookup["speedup"] < args.min_speedup:
        performance(f"key_lookup speedup {key_lookup['speedup']} "
                    f"< {args.min_speedup}x")
    print(f"ok: key_lookup speedup {key_lookup['speedup']}x, "
          f"{counters['pattern_store.misses']} distinct patterns, "
          f"{counters['pattern_store.hits']} hits")


def check_incremental(stats, args):
    require(stats, "incremental",
            ["bench", "obs_enabled", "edit_stream", "metrics", "trace"])
    edit_stream = require(
        stats, "incremental",
        ["matrix", "edits", "scratch_ms", "maintained_ms", "speedup",
         "pairs_requested", "pairs_solved", "cells_recomputed"],
        sub="edit_stream")
    counters = require(
        stats["metrics"], "incremental",
        ["matrix.edits", "matrix.cells_recomputed", "matrix.cells_reused",
         "batch.pairs_total"],
        sub="counters")
    if counters["matrix.edits"] == 0:
        structural("no matrix edits recorded: instrumentation is dead")
    # The tentpole invariant: a single-statement edit of an N×M matrix asks
    # the engine for at most max(N, M) pairs, so the whole stream stays
    # within edits * matrix requests.
    bound = edit_stream["edits"] * edit_stream["matrix"]
    if edit_stream["pairs_requested"] > bound:
        structural(f"edit stream requested {edit_stream['pairs_requested']} "
                   f"pairs > row/column bound {bound}")
    if edit_stream["speedup"] < args.min_speedup:
        performance(f"edit_stream speedup {edit_stream['speedup']} "
                    f"< {args.min_speedup}x")
    print(f"ok: edit_stream speedup {edit_stream['speedup']}x "
          f"({edit_stream['edits']} edits, "
          f"{edit_stream['pairs_requested']} pairs requested, "
          f"{edit_stream['pairs_solved']} solved)")


def check_lint(stats, args):
    require(stats, "lint", ["bench", "obs_enabled", "lint", "metrics",
                            "trace"])
    lint = require(
        stats, "lint",
        ["programs", "statements", "diagnostics", "fixits", "pairs_checked",
         "unknown_share", "seconds", "diagnostics_per_sec"],
        sub="lint")
    counters = require(
        stats["metrics"], "lint",
        ["lint.programs", "lint.statements", "lint.diagnostics",
         "batch.pairs_total"],
        sub="counters")
    if counters["lint.programs"] == 0:
        structural("no lint runs recorded: instrumentation is dead")
    if lint["diagnostics"] == 0:
        structural("lint corpus produced zero diagnostics: passes are dead")
    if lint["pairs_checked"] == 0:
        structural("lint corpus checked zero pairs: engine wiring is dead")
    if not 0.0 <= lint["unknown_share"] <= 1.0:
        structural(f"unknown_share {lint['unknown_share']} not in [0, 1]")
    print(f"ok: {lint['programs']} programs, {lint['diagnostics']} "
          f"diagnostics ({lint['fixits']} fix-its), "
          f"{lint['pairs_checked']} pairs checked, "
          f"{lint['diagnostics_per_sec']} diagnostics/s")


def check_detect_hot(stats, args):
    require(stats, "detect_hot",
            ["bench", "obs_enabled", "detect_hot", "metrics", "trace"])
    ablation = require(
        stats, "detect_hot",
        ["pairs", "cold_us", "warm_us", "speedup", "verdicts_identical",
         "warm_compiled_hits", "warm_compiled_misses"],
        sub="detect_hot")
    counters = require(
        stats["metrics"], "detect_hot",
        ["store.nfa.hits", "store.nfa.misses", "store.nfa.bytes",
         "detector.calls", "detector.errors"],
        sub="counters")
    if ablation["pairs"] == 0:
        structural("no pairs measured: workload is dead")
    # Caching must never change answers — the equivalence oracle ran inside
    # the bench itself, over both phases.
    if not ablation["verdicts_identical"]:
        structural("cached verdicts diverged from the cold value path")
    if counters["store.nfa.misses"] == 0 or counters["store.nfa.bytes"] == 0:
        structural("no compiled automata recorded: store cache is dead")
    # The bench reads the compiled-form counters around its warm phase
    # alone: the cold phase's call-local stores compile every operand, so
    # the process-wide totals depend on how many cold iterations ran.
    if ablation["warm_compiled_hits"] <= ablation["warm_compiled_misses"]:
        structural("expected warm passes to be hit-dominated: "
                   f"{ablation['warm_compiled_hits']} hits / "
                   f"{ablation['warm_compiled_misses']} builds")
    if counters["detector.errors"] != 0:
        structural(f"{counters['detector.errors']} detector errors during "
                   "the bench: the workload should be error-free")
    if ablation["speedup"] < args.min_speedup:
        performance(f"warm detect speedup {ablation['speedup']} "
                    f"< {args.min_speedup}x")
    print(f"ok: detect_hot speedup {ablation['speedup']}x warm over "
          f"{ablation['pairs']} pairs; warm compiled forms "
          f"{ablation['warm_compiled_hits']} hits / "
          f"{ablation['warm_compiled_misses']} builds")


def check_prune(stats, args):
    require(stats, "prune",
            ["bench", "obs_enabled", "prune", "metrics", "trace"])
    ablation = require(
        stats, "prune",
        ["pairs", "warm_us", "pruned_us", "speedup", "pruned_fraction",
         "verdicts_identical"],
        sub="prune")
    counters = require(
        stats["metrics"], "prune",
        ["store.types.hits", "store.types.misses", "store.types.bytes",
         "detector.method.type_pruned", "detector.calls", "detector.errors"],
        sub="counters")
    if ablation["pairs"] == 0:
        structural("no pairs measured: workload is dead")
    # Soundness gate: Stage 0 may change a pair's method, never its verdict.
    if not ablation["verdicts_identical"]:
        structural("pruned verdicts diverged from the unpruned warm path")
    if counters["store.types.misses"] == 0 or counters["store.types.bytes"] == 0:
        structural("no type summaries recorded: store summary cache is dead")
    if counters["store.types.hits"] <= counters["store.types.misses"]:
        structural("expected per-pair probes to be hit-dominated: "
                   f"{counters}")
    if counters["detector.method.type_pruned"] == 0:
        structural("no pair resolved via kTypePruned: Stage 0 is dead")
    if counters["detector.errors"] != 0:
        structural(f"{counters['detector.errors']} detector errors during "
                   "the bench: the workload should be error-free")
    # The typed workload is built so most pairs are schema-disjoint; a low
    # fraction means the footprint computation lost precision.
    if ablation["pruned_fraction"] <= 0.5:
        structural(f"pruned_fraction {ablation['pruned_fraction']} <= 0.5: "
                   "Stage 0 pruned too few pairs")
    if ablation["speedup"] < args.min_speedup:
        performance(f"prune speedup {ablation['speedup']} "
                    f"< {args.min_speedup}x")
    print(f"ok: prune speedup {ablation['speedup']}x over "
          f"{ablation['pairs']} pairs, "
          f"{ablation['pruned_fraction']:.1%} type-pruned; "
          f"summaries {counters['store.types.hits']} hits / "
          f"{counters['store.types.misses']} misses")


def check_workload(stats, args):
    require(stats, "workload",
            ["bench", "obs_enabled", "workload", "metrics", "trace"])
    report = require(stats, "workload",
                     ["workload", "seed", "phases", "total_verdicts"],
                     sub="workload")
    counters = require(stats["metrics"], "workload", ["detector.calls"],
                       sub="counters")
    if counters["detector.calls"] == 0:
        structural("no detector calls recorded: the driver never ran")
    phases = report["phases"]
    if not phases:
        structural("workload report has no phases")
    for phase in phases:
        label = phase.get("name", "?")
        missing = [k for k in
                   ["name", "mode", "workers", "ops_planned", "ops_completed",
                    "truncated", "wall_seconds", "throughput_ops_per_s",
                    "latency", "verdicts", "engine_counters"]
                   if k not in phase]
        if missing:
            structural(f"phase {label} missing keys: {missing}")
        latency = phase["latency"]
        missing = [k for k in
                   ["count", "p50_us", "p95_us", "p99_us", "mean_us", "max_us"]
                   if k not in latency]
        if missing:
            structural(f"phase {label} latency missing keys: {missing}")
        if phase["ops_completed"] == 0:
            structural(f"phase {label} completed zero ops")
        if phase["throughput_ops_per_s"] <= 0:
            structural(f"phase {label} throughput "
                       f"{phase['throughput_ops_per_s']} not > 0")
        if latency["count"] != phase["ops_completed"]:
            structural(f"phase {label} recorded {latency['count']} latencies "
                       f"for {phase['ops_completed']} ops")
        # The quantile invariant the interpolated extraction must preserve.
        if not (0 <= latency["p50_us"] <= latency["p95_us"]
                <= latency["p99_us"] <= latency["max_us"]):
            structural(f"phase {label} latency not monotone: "
                       f"p50 {latency['p50_us']} p95 {latency['p95_us']} "
                       f"p99 {latency['p99_us']} max {latency['max_us']}")
    totals = report["total_verdicts"]
    tallied = sum(totals.get(k, 0) for k in
                  ["no_conflict", "conflict", "unknown", "errors"])
    if tallied == 0:
        structural("workload tallied zero verdicts: work units are dead")
    if totals.get("errors", 0) == tallied:
        structural("every verdict was an error: the workload is degenerate")
    print(f"ok: {len(phases)} phases, {tallied} verdicts "
          f"({totals.get('errors', 0)} errors); throughput " +
          ", ".join(f"{p['name']} {p['throughput_ops_per_s']:.0f} ops/s"
                    for p in phases))


def check_merge(stats, args):
    require(stats, "merge", ["bench", "obs_enabled", "merge", "metrics",
                             "trace"])
    sweep = require(stats, "merge", ["configs"], sub="merge")
    counters = require(
        stats["metrics"], "merge",
        ["merge.merges", "merge.ops", "merge.pairs_checked"],
        sub="counters")
    if counters["merge.merges"] == 0:
        structural("no merges recorded: instrumentation is dead")
    configs = sweep["configs"]
    if not configs:
        structural("merge sweep measured no configs")
    for config in configs:
        label = (f"sessions={config.get('sessions', '?')} "
                 f"conflict={config.get('conflict', '?')}")
        missing = [k for k in
                   ["sessions", "conflict", "ops_total", "accepted",
                    "serialized", "rejected", "levels", "merge_us",
                    "throughput_ops_per_s", "oracle_identical"]
                   if k not in config]
        if missing:
            structural(f"config {label} missing keys: {missing}")
        # Correctness gate: the merged document must equal the sequential
        # reference on every unit of every config.
        if not config["oracle_identical"]:
            structural(f"config {label} diverged from the serial oracle")
        # Per-op accounting: every op is accepted, serialized or rejected.
        accounted = (config["accepted"] + config["serialized"]
                     + config["rejected"])
        if accounted != config["ops_total"]:
            structural(f"config {label} accounts for {accounted} of "
                       f"{config['ops_total']} ops")
        if config["ops_total"] == 0:
            structural(f"config {label} merged zero ops")
        if config["throughput_ops_per_s"] <= 0:
            structural(f"config {label} throughput "
                       f"{config['throughput_ops_per_s']} not > 0")
    print(f"ok: {len(configs)} configs; " +
          ", ".join(f"s{c['sessions']}/{c['conflict']} "
                    f"{c['throughput_ops_per_s']:.0f} ops/s "
                    f"({c['accepted']}/{c['ops_total']} accepted)"
                    for c in configs))


CHECKS = {
    "batch": check_batch,
    "intern": check_intern,
    "incremental": check_incremental,
    "lint": check_lint,
    "detect_hot": check_detect_hot,
    "prune": check_prune,
    "workload": check_workload,
    "merge": check_merge,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench", choices=sorted(CHECKS))
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="performance floor for the bench's speedup "
                             "number (ignored by 'batch')")
    args = parser.parse_args()
    CHECKS[args.bench](load(args.bench), args)


if __name__ == "__main__":
    main()
