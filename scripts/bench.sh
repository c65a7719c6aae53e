#!/usr/bin/env bash
# Hot-path benchmark smoke: runs the simulator's key benchmarks —
# warm/cold physical-memory scans, the Figure 4 fleet study, the
# cold/warm result-cache campaign pair, one warm-sweep cell served from
# an on-disk result cache, one cold contigd cell, buddy
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
#        scripts/bench.sh -compare baseline.json post.json [out.json]
# Env:   BENCHTIME (default 1s), COUNT (default 1), NOTE (compare note)
#
# -compare merges two runs of this script into the BENCH_PR2.json
# before/after shape: every benchmark present in both files gets a
# speedup_vs_baseline on its post entry. CI runs the plain mode as a
# smoke job; for PR-quality numbers use COUNT=3 (medians) and -compare.
# The default BENCHTIME is time-based: a fixed few iterations of a
# microsecond row are too short for two runs to be comparable.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" = "-compare" ]; then
    if [ $# -lt 3 ]; then
        echo "usage: scripts/bench.sh -compare baseline.json post.json [out.json]" >&2
        exit 1
    fi
    baseline="$2" post="$3" out="${4:-BENCH_COMPARE.json}"
    NOTE="${NOTE:-}" python3 - "$baseline" "$post" "$out" <<'PYEOF'
import json, os, sys

base_path, post_path, out_path = sys.argv[1:4]
base = json.load(open(base_path))
post = json.load(open(post_path))
by_name = {b["name"]: b for b in base["benchmarks"]}

merged_post = []
for b in post["benchmarks"]:
    row = dict(b)
    ref = by_name.get(b["name"])
    if ref and b["ns_per_op"]:
        row["speedup_vs_baseline"] = round(ref["ns_per_op"] / b["ns_per_op"], 2)
    merged_post.append(row)

doc = {
    "note": os.environ.get("NOTE", ""),
    "benchtime": post.get("benchtime", base.get("benchtime", "")),
    "count": post.get("count", 1),
    "aggregation": post.get("aggregation", "median"),
    "baseline": {k: base[k] for k in ("commit", "benchmarks") if k in base},
    "post": {"benchmarks": merged_post},
}
json.dump(doc, open(out_path, "w"), indent=2)
open(out_path, "a").write("\n")
print(f"wrote {out_path}", file=sys.stderr)
PYEOF
    exit 0
fi

out="${1:-BENCH.json}"
benchtime="${BENCHTIME:-1s}"
count="${COUNT:-1}"
pattern='^(BenchmarkFullScan|BenchmarkFullScanCold|BenchmarkFig4ContiguityCDF|BenchmarkFleetCampaignCold|BenchmarkFleetCampaignWarm|BenchmarkFleetCampaignWarmDir|BenchmarkBuddyAllocFree4K|BenchmarkBuddyAllocFree4KLowestPFN|BenchmarkBuddyAllocFree4KHighestPFN|BenchmarkBuddyAllocFree4KBulk|BenchmarkColdCell|BenchmarkWorkloadTick|BenchmarkAllocHead|BenchmarkTickTelemetryOff|BenchmarkTickTelemetryOn|BenchmarkMetricsExposition|BenchmarkTickScrapeUnderLoad|BenchmarkServeExec|BenchmarkSec53MigrationImpact|BenchmarkCacheAccess|BenchmarkTLBTranslate|BenchmarkSealedRecords)$'

raw="$(go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" -count "$count" .)"
printf '%s\n' "$raw"

# A renamed or deleted benchmark makes go test exit 0 with nothing to
# run; an empty JSON would sail through CI looking green. Require every
# name in the pattern to have produced at least one result line. grep
# reads a here-string, not a pipe: under pipefail, grep -q exiting at
# its first match can SIGPIPE the writer and read as a miss.
missing=0
for name in $(printf '%s' "$pattern" | tr -d '^()$' | tr '|' ' '); do
    if ! grep -q "^${name}\b" <<<"$raw"; then
        echo "bench.sh: benchmark $name matched nothing — renamed or deleted?" >&2
        missing=1
    fi
done
if [ "$missing" -ne 0 ]; then
    echo "bench.sh: refusing to write $out from an incomplete run" >&2
    exit 1
fi

rawfile="$(mktemp)"
trap 'rm -f "$rawfile"' EXIT
printf '%s\n' "$raw" > "$rawfile"
BENCHTIME="$benchtime" COUNT="$count" python3 - "$out" "$rawfile" <<'PYEOF'
import json, os, re, sys
from statistics import median

rows = {}       # name -> {"iters": [...], "ns": [...], "bytes": [...], "allocs": [...]}
order = []
for line in open(sys.argv[2]):
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

benchmarks = []
for name in order:
    rec = rows[name]
    benchmarks.append({
        "name": name,
        "iters": agg(rec["iters"], True),
        "ns_per_op": agg(rec["ns"], False),
        "bytes_per_op": agg(rec["bytes"], True),
        "allocs_per_op": agg(rec["allocs"], True),
    })

doc = {
    "benchtime": os.environ["BENCHTIME"],
    "count": int(os.environ["COUNT"]),
    "aggregation": "median",
    "benchmarks": benchmarks,
}
json.dump(doc, open(sys.argv[1], "w"), indent=2)
open(sys.argv[1], "a").write("\n")
PYEOF
echo "wrote $out" >&2
