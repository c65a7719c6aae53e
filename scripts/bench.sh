#!/usr/bin/env bash
# Hot-path benchmark smoke: runs the simulator's key benchmarks —
# warm/cold physical-memory scans, the Figure 4 fleet study, the
# cold/warm result-cache campaign pair, one warm-sweep cell filled into
# and served from an on-disk result cache, one cold contigd cell, buddy
# alloc/free (LIFO, and both PFN orders at 256 MiB and 8 GiB; runs of
# 512 4 KB pages as single calls and as bulk calls, per policy), a
# workload tick, the covering-head lookup, and the cycle-level hardware
# model (one `migbench -bench serve` exec, the §5.3 serving runs, a
# cache access and a TLB translation), and a write-then-verified-read of
# each sealed on-disk record format — and writes the parsed results
# (ns/op, B/op, allocs/op) as JSON. With COUNT > 1 each benchmark's
# fields are the medians across the repetitions.
#
# Usage: scripts/bench.sh [out.json]
#        scripts/bench.sh -compare baseline.test post.test [out.json]
# Env:   BENCHTIME (default 1s), COUNT (default 1), NOTE (compare note),
#        BENCH (a go test -bench regexp replacing the default set)
#
# -compare times two test binaries of this package, built with
# `go test -c` from the baseline tree and from this one, on the same
# host in one run. It runs each COUNT times, alternating them once per
# repetition (baseline first, then post first: A B B A ...), so drift
# on a shared host lands on both sides. The output has the BENCH_PR2.json
# before/after shape: every benchmark present in both gets a
# speedup_vs_baseline on its post entry. CI runs the plain mode as a
# smoke job; for PR-quality numbers use COUNT>=3 and -compare.
# The default BENCHTIME is time-based: a fixed few iterations of a
# microsecond row are too short for two runs to be comparable.
set -euo pipefail

benchtime="${BENCHTIME:-1s}"
count="${COUNT:-1}"
default_pattern='^(BenchmarkFullScan|BenchmarkFullScanCold|BenchmarkFig4ContiguityCDF|BenchmarkFleetCampaignCold|BenchmarkFleetCampaignWarm|BenchmarkFleetCampaignWarmDir|BenchmarkFleetCampaignColdDir|BenchmarkBuddyAllocFree4K|BenchmarkBuddyAllocFree4KLowestPFN|BenchmarkBuddyAllocFree4KHighestPFN|BenchmarkBuddyAllocFree4KBulk|BenchmarkColdCell|BenchmarkWorkloadTick|BenchmarkAllocHead|BenchmarkTickTelemetryOff|BenchmarkTickTelemetryOn|BenchmarkMetricsExposition|BenchmarkTickScrapeUnderLoad|BenchmarkServeExec|BenchmarkSec53MigrationImpact|BenchmarkCacheAccess|BenchmarkTLBTranslate|BenchmarkSealedRecords)$'
pattern="${BENCH:-$default_pattern}"

compare=0
if [ "${1:-}" = "-compare" ]; then
    if [ $# -lt 3 ] || [ ! -x "$2" ] || [ ! -x "$3" ]; then
        echo "usage: scripts/bench.sh -compare baseline.test post.test [out.json] (two go test -c binaries)" >&2
        exit 1
    fi
    compare=1
    base_bin="$(realpath "$2")" post_bin="$(realpath "$3")"
    out="$(realpath -m "${4:-BENCH_COMPARE.json}")"
else
    out="$(realpath -m "${1:-BENCH.json}")"
fi
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# A renamed or deleted benchmark makes go test exit 0 with nothing to
# run; an empty JSON would sail through CI looking green. Require every
# name in the pattern to have produced at least one result line. grep
# reads a file, not a pipe: under pipefail, grep -q exiting at its first
# match can SIGPIPE the writer and read as a miss.
require_all() {
    local missing=0 name
    for name in $(printf '%s' "$pattern" | tr -d '^()$' | tr '|' ' '); do
        if ! grep -q "^${name}\b" "$1"; then
            echo "bench.sh: benchmark $name matched nothing — renamed or deleted?" >&2
            missing=1
        fi
    done
    if [ "$missing" -ne 0 ]; then
        echo "bench.sh: refusing to write $out from an incomplete run" >&2
        exit 1
    fi
}

if [ "$compare" -eq 1 ]; then
    # The test binaries run in the package directory, as go test would.
    for ((i = 0; i < count; i++)); do
        order="base post"
        if ((i % 2)); then order="post base"; fi
        for side in $order; do
            bin="$base_bin"
            [ "$side" = post ] && bin="$post_bin"
            echo "bench.sh: repetition $((i + 1))/$count: $side" >&2
            "$bin" -test.run '^$' -test.bench "$pattern" -test.benchmem \
                -test.benchtime "$benchtime" -test.count 1 | tee -a "$tmp/$side.txt"
        done
    done
    require_all "$tmp/post.txt"
    set -- compare "$out" "$tmp/base.txt" "$tmp/post.txt"
else
    go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" -count "$count" . | tee "$tmp/raw.txt"
    require_all "$tmp/raw.txt"
    set -- plain "$out" "$tmp/raw.txt"
fi

BENCHTIME="$benchtime" COUNT="$count" NOTE="${NOTE:-}" python3 - "$@" <<'PYEOF'
import json, os, re, sys
from statistics import median

def parse(path):
    """Per-benchmark medians of ns/op, B/op and allocs/op in one raw log."""
    rows = {}       # name -> {"iters": [...], "ns": [...], "bytes": [...], "allocs": [...]}
    order = []
    for line in open(path):
        if not line.startswith("Benchmark"):
            continue
        fields = line.split()
        name = re.sub(r"-\d+$", "", fields[0])
        rec = rows.setdefault(name, {"iters": [], "ns": [], "bytes": [], "allocs": []})
        if name not in order:
            order.append(name)
        rec["iters"].append(int(fields[1]))
        for value, unit in zip(fields[2:], fields[3:]):
            if unit == "ns/op":
                rec["ns"].append(float(value))
            elif unit == "B/op":
                rec["bytes"].append(int(value))
            elif unit == "allocs/op":
                rec["allocs"].append(int(value))

    def agg(values, integral):
        if not values:
            return None
        m = median(values)
        return int(m) if integral or m == int(m) else m

    return [{
        "name": name,
        "iters": agg(rows[name]["iters"], True),
        "ns_per_op": agg(rows[name]["ns"], False),
        "bytes_per_op": agg(rows[name]["bytes"], True),
        "allocs_per_op": agg(rows[name]["allocs"], True),
    } for name in order]

mode, out_path = sys.argv[1:3]
head = {"benchtime": os.environ["BENCHTIME"], "count": int(os.environ["COUNT"]), "aggregation": "median"}
if mode == "plain":
    doc = dict(head, benchmarks=parse(sys.argv[3]))
else:
    base, post = parse(sys.argv[3]), parse(sys.argv[4])
    by_name = {b["name"]: b for b in base}
    for row in post:
        ref = by_name.get(row["name"])
        if ref and ref["ns_per_op"] and row["ns_per_op"]:
            row["speedup_vs_baseline"] = round(ref["ns_per_op"] / row["ns_per_op"], 2)
    doc = dict({"note": os.environ["NOTE"]}, **head,
               baseline={"benchmarks": base}, post={"benchmarks": post})
json.dump(doc, open(out_path, "w"), indent=2)
open(out_path, "a").write("\n")
PYEOF
echo "wrote $out" >&2
