#!/usr/bin/env bash
# Allocation ledger: the bytes and allocations per operation of the
# benchmarks on the simulator's allocation-heavy paths (the cold contigd
# cell, the two warm campaigns, the cold fill of a warm-sweep cell, the
# bulk and single 4 KB buddy runs, and a write-then-read of every sealed
# record format), kept in results/alloc_ledger.txt. Time stays out of
# it: allocation counts are a property of the code, while a timing is
# one of the host as much.
#
# Usage: scripts/alloc-ledger.sh          fail when a row's B/op or
#                                          allocs/op grew by more than 2%
#        scripts/alloc-ledger.sh -write   rewrite the ledger from this tree
set -euo pipefail
cd "$(dirname "$0")/.."

ledger=results/alloc_ledger.txt
pattern='^(BenchmarkColdCell|BenchmarkFleetCampaignWarm|BenchmarkFleetCampaignWarmDir|BenchmarkFleetCampaignColdDir|BenchmarkBuddyAllocFree4KBulk|BenchmarkSealedRecords)$'
mode=check
if [ "${1:-}" = "-write" ]; then
    mode=write
elif [ $# -gt 0 ]; then
    echo "usage: scripts/alloc-ledger.sh [-write]" >&2
    exit 1
fi

# A 1 s benchtime gives the fast rows enough iterations that their
# per-op figures no longer carry one-off growth (at 10 iterations the
# warm LRU row moves by 8% between runs; at 1 s by none).
raw="$(go test -run '^$' -bench "$pattern" -benchmem -benchtime 1s .)"
printf '%s\n' "$raw"

rawfile="$(mktemp)"
trap 'rm -f "$rawfile"' EXIT
printf '%s\n' "$raw" > "$rawfile"
# Allocation sizes move between Go releases (map layouts, size
# classes), so the ledger names the release it was taken with and is
# only compared under the same one.
toolchain="$(go env GOVERSION | grep -o '^go[0-9]*\.[0-9]*')"
python3 - "$mode" "$ledger" "$rawfile" "$toolchain" <<'PYEOF'
import re, sys

mode, ledger, rawfile, toolchain = sys.argv[1:5]
run = {}
for line in open(rawfile):
    f = line.split()
    if not line.startswith("Benchmark") or "B/op" not in f:
        continue
    name = re.sub(r"-\d+$", "", f[0])
    run[name] = (int(f[f.index("B/op") - 1]), int(f[f.index("allocs/op") - 1]))
if not run:
    sys.exit("alloc-ledger: the benchmark run produced no rows")

if mode == "write":
    with open(ledger, "w") as out:
        out.write("# Allocation ledger: B/op and allocs/op per benchmark, written by\n")
        out.write("# scripts/alloc-ledger.sh -write (go test -benchmem -benchtime 1s).\n")
        out.write("# The script fails when a row grows by more than 2%.\n")
        out.write(f"# toolchain: {toolchain}\n")
        out.write(f"# {'benchmark':<46} {'B/op':>12} {'allocs/op':>10}\n")
        for name, (b, a) in run.items():
            out.write(f"{name:<48} {b:>12} {a:>10}\n")
    print(f"wrote {ledger}")
    sys.exit(0)

want, taken = {}, None
for line in open(ledger):
    if line.startswith("# toolchain:"):
        taken = line.split(":", 1)[1].strip()
    elif line.strip() and not line.startswith("#"):
        name, b, a = line.split()
        want[name] = (int(b), int(a))
if taken != toolchain:
    sys.exit(f"alloc-ledger: {ledger} was taken with {taken}, this is {toolchain}; "
             "compare under the ledger's release or rewrite it with -write")
bad = []
for name, (b, a) in want.items():
    if name not in run:
        bad.append(f"{name}: in the ledger but not in the run")
        continue
    gb, ga = run[name]
    for what, old, new in (("B/op", b, gb), ("allocs/op", a, ga)):
        if new > old * 1.02:
            bad.append(f"{name}: {what} {old} -> {new} (+{100 * (new - old) / old:.1f}%)")
for name in run:
    if name not in want:
        bad.append(f"{name}: not in the ledger (rerun with -write)")
for line in bad:
    print("alloc-ledger:", line, file=sys.stderr)
if bad:
    sys.exit(1)
print(f"alloc-ledger: {len(want)} rows within 2% of {ledger}")
PYEOF
