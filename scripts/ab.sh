#!/bin/sh
# Per-op overhead A/B gate: arm B may cost no more than MAX_REGRESS
# (default 2%) cpu-ns/op over arm A. Each arm is a build-tag list (empty
# for the default build) and a benchmark regexp over the root package's
# go-test benchmarks (oplat_bench_test.go); arms with equal tags race one
# binary. scripts/verify.sh runs two gates:
#
#   sh scripts/ab.sh obsoff 'ObsMixed4Way$' '' 'ObsMixed4Way$'
#   sh scripts/ab.sh '' 'PoolKey0Alternating$' '' 'RelaxedStrictAlternating$'
#
# Measurement discipline, learned the hard way on a noisy shared box
# where a null A/B of one binary against itself swings >10% and machine
# speed drifts 30% on ten-second scales:
#   * paired go-test benchmarks of one fixed single-handle workload, not
#     wall-clock throughput windows;
#   * the cpu-ns/op metric (process CPU time via getrusage), which
#     competing load cannot inflate the way wall time can;
#   * co-scheduled racing: each race launches the A and B binaries
#     SIMULTANEOUSLY on ONE CPU, so the scheduler interleaves them
#     through the identical seconds of machine state — co-tenant bursts,
#     frequency drift, and cache pollution hit both sides symmetrically
#     instead of whichever ran during the bad window. Sequential A/B
#     (even ABBA with pollution filtering) leaves per-round ratios with
#     +-7% scatter; racing on one CPU brings a null A/B inside +-2%.
#     Racers left on two vCPUs of a shared host see different machine
#     state, and the same null A/B spread 0.70-1.33, so both are pinned
#     with taskset to the last CPU this process may use;
#   * per race: min over COUNT in-process repetitions per side (noise
#     is strictly additive, so each side's minimum estimates its floor
#     under the conditions both sides experienced), then the A/B ratio
#     of the two minima. Pairing windows by index instead would be
#     wrong: the faster binary finishes its windows sooner, so
#     same-index windows drift out of the shared machine state;
#   * CODE-LAYOUT CONTROL, the step that makes 2% resolvable at all: on
#     a ~35ns/op hot loop the linker's function placement alone moves
#     cpu-ns/op by 1.5-2% (adding one cold-path struct field — zero hot
#     instructions — shifted a ratio from ~1.00 to ~0.97;
#     `-ldflags=-randlayout` seeds span 4.7%). That bias is constant
#     per binary, so no amount of racing or medianing removes it. The
#     gate therefore builds one binary pair per layout seed
#     (`-randlayout=$seed`, plus the default layout as seed 0), races
#     each pair, and gates on the BEST per-seed ratio: a genuine
#     instruction-stream regression is present in every layout, while
#     layout luck cannot penalize arm B in all seeds at once.
#     (Max-over-seeds is a slightly optimistic estimator — E[max] of
#     the zero-mean layout draws is > 1 — so the per-seed table and
#     median are printed alongside for the honest spread.)
set -e
cd "$(dirname "$0")/.."

if [ "$#" -ne 4 ]; then
    echo "usage: $0 A_TAGS A_BENCH B_TAGS B_BENCH" >&2
    exit 2
fi
A_TAGS="$1" A_BENCH="$2" B_TAGS="$3" B_BENCH="$4"

BENCHTIME="${BENCHTIME:-5000000x}"
COUNT="${COUNT:-8}"
SEEDS="${SEEDS:-0 1 2 3 4 5}"
MAX_REGRESS="${MAX_REGRESS:-0.02}"

PIN=""
if command -v taskset >/dev/null 2>&1; then
    cpu=$(taskset -pc $$ | sed 's/.*: //' | tr ',' '\n' | sed 's/.*-//' | sort -n | tail -1)
    PIN="taskset -c $cpu"
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "== build test binaries (tags '$A_TAGS' and '$B_TAGS', per layout seed) =="
for s in $SEEDS; do
    if [ "$s" = "0" ]; then
        LDF=""
    else
        LDF="-ldflags=-randlayout=$s"
    fi
    go test $LDF -tags "$A_TAGS" -c -o "$TMP/a_$s.test" .
    if [ "$B_TAGS" = "$A_TAGS" ]; then
        ln -s "$TMP/a_$s.test" "$TMP/b_$s.test"
    else
        go test $LDF -tags "$B_TAGS" -c -o "$TMP/b_$s.test" .
    fi
done

for s in $SEEDS; do
    echo "== race layout seed $s: A ($A_BENCH) and B ($B_BENCH) co-scheduled${PIN:+ ($PIN)} =="
    # Fixed iteration count (-test.benchtime Nx) skips go-test's
    # calibration runs so both racers spend their whole lifetime in
    # measured windows.
    $PIN "$TMP/a_$s.test" -test.run '^$' -test.bench "$A_BENCH" \
        -test.benchtime "$BENCHTIME" -test.count "$COUNT" -test.cpu 1 \
        >"$TMP/a_$s.txt" 2>&1 &
    pid_a=$!
    $PIN "$TMP/b_$s.test" -test.run '^$' -test.bench "$B_BENCH" \
        -test.benchtime "$BENCHTIME" -test.count "$COUNT" -test.cpu 1 \
        >"$TMP/b_$s.txt" 2>&1 &
    pid_b=$!
    wait "$pid_a"
    wait "$pid_b"
done

python3 - "$TMP" "$MAX_REGRESS" $SEEDS <<'EOF'
import re, statistics, sys

tmp, max_regress = sys.argv[1], float(sys.argv[2])
seeds = sys.argv[3:]
threshold = 1 - max_regress

def min_cpu(path):
    with open(path) as f:
        vals = [float(m.group(1))
                for m in re.finditer(r"([\d.]+) cpu-ns/op", f.read())]
    if not vals:
        sys.exit(f"no cpu-ns/op samples in {path}")
    return min(vals)

ratios = []
for s in seeds:
    a = min_cpu(f"{tmp}/a_{s}.txt")
    b = min_cpu(f"{tmp}/b_{s}.txt")
    ratios.append(a / b)
    print(f"  layout seed {s}: min cpu-ns/op A {a:.2f}  B {b:.2f}"
          f"  ratio {a / b:.4f}")

best = max(ratios)
print(f"  best A/B ratio over {len(seeds)} layout seeds = {best:.4f}"
      f"  (gate; threshold {threshold:.4f})")
print(f"  median A/B ratio = {statistics.median(ratios):.4f}"
      f" (layout spread, informational)")
if best < threshold:
    print(f"ab: FAIL — arm B costs {100 * (1 - best):.1f}% per op more "
          f"than arm A in every code layout "
          f"(> {100 * max_regress:.0f}% allowed)")
    sys.exit(1)
print("ab: PASS")
EOF
