#!/bin/sh
# Tier-1 verification gate: build, vet, the full test suite, and a -race
# pass over the packages with lock-free hot paths (including the slab
# freelist stress test). Run before every commit; CI runs the same steps.
# The concurrent suites run with -cpu 2, so even a 1-CPU runner schedules
# two Ps and interleaves operations mid-transition.
set -e
cd "$(dirname "$0")/.."

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

# The core's single-op sampler costs an unsampled op one decrement and one
# never-taken branch only while opStart and opEnd inline into every push and
# pop (internal/core/metrics.go), and the one set of transitions, oracle walk
# and batch runs reaches each slot of either side through sideCoords.at
# (internal/core/left.go) at the cost of an index transform only while it
# inlines; fail when the compiler stops inlining any of them.
echo "== inline gate (core opStart/opEnd, sideCoords.at) =="
inlined=$(go build -gcflags=-m ./internal/core 2>&1)
for fn in Deque.opStart Deque.opEnd sideCoords.at; do
    recv=${fn%%.*} name=${fn#*.}
    if ! printf '%s\n' "$inlined" | grep -q "can inline (\*$recv)\.$name\$"; then
        echo "inline gate: (*$recv).$name no longer inlines" >&2
        exit 1
    fi
done

# Every tracked .go file must be gofmt-clean; gofmt -l names the ones
# that are not.
echo "== gofmt =="
unformatted=$(gofmt -l $(git ls-files '*.go'))
if [ -n "$unformatted" ]; then
    echo "gofmt: these files need gofmt -w:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# staticcheck runs beside go vet on every tag set when the binary is
# present (CI installs it; the gate degrades to vet-only elsewhere rather
# than failing on a missing tool).
run_staticcheck() {
    if command -v staticcheck >/dev/null 2>&1; then
        echo "== staticcheck $* =="
        staticcheck "$@" ./...
    else
        echo "== staticcheck $* skipped (not installed) =="
    fi
}
run_staticcheck

echo "== go test (full) =="
go test ./... -count=1 -cpu 2

echo "== go test -race -short (core, arena, obs, root) =="
go test -race -short -count=1 -cpu 2 ./internal/core/ ./internal/arena/ ./internal/obs/ .

echo "== go test -race -short (shard, wire, server, dequed, schedd) =="
go test -race -short -count=1 -cpu 2 ./internal/shard/ ./internal/wire/ ./internal/server/ ./cmd/dequed/ ./cmd/schedd/

# The -short race pass above trims the recycling suites; run them in full
# once, so node reuse through the hazard domain (retire, scan, pool,
# reinstall) races on two Ps at full trial counts.
echo "== go test -race (hazard recycling suites, full length) =="
go test -race -count=1 -cpu 2 -run '^(TestConformanceReclaimHazard|TestLinearizabilityReclaimHazardTinyPool|TestRecyclingRoundTrip|TestMemoryLimitSustainedChurn|TestMaxLiveNodesErrFull|TestPendingRetiresVisibleBeforeDrain|TestRetireClearsRegistryImmediately|TestRetireExactlyOnce|TestReinitCountersDefeatCrossLifeCAS|TestHazardGuardsAdvertiseReads|TestDrainReleasesCachedSpares|TestRecyclingThroughGenericAPI|TestMemoryLimitErrFullAndRecovery)$' \
    ./internal/core/ .

echo "== go test -race -count=10 (relaxed, DEPQ and steal pops: one shared certify loop) =="
go test -race -count=10 -cpu 2 -run 'Relaxed|DEPQ|Steal' .

echo "== service loopback smoke (dequed + dqload) =="
sh scripts/smoke_service.sh

echo "== scheduler loopback smoke (schedd + dqload -deadline: conservation + inversion) =="
sh scripts/smoke_sched.sh

echo "== perfbench selftest (every workload 1 s, traced and untraced: metrics present, ledgers closed) =="
bash perfbench/run.sh --selftest

echo "== go vet (obsoff build) =="
go vet -tags obsoff ./...
run_staticcheck -tags obsoff

echo "== go test -tags obsoff (counters compiled out) =="
go test -tags obsoff -count=1 . ./internal/core/ ./internal/obs/

echo "== observability-overhead A/B gate (counters + histograms + flight recorder vs -tags obsoff) =="
sh scripts/ab.sh obsoff 'ObsMixed4Way$' '' 'ObsMixed4Way$'

echo "== node-recycling allocs/op gate (default pool, steady state <= 0.018 allocs/op) =="
go test -count=1 -run 'TestRecyclingSteadyStateAllocs' -v .

echo "== go vet (chaos build) =="
go vet -tags chaos ./...
run_staticcheck -tags chaos

echo "== go test -tags chaos (fault-injection suites) =="
go test -tags chaos -count=1 -cpu 2 ./internal/chaos/ ./internal/chaostest/ ./internal/core/

echo "== go test -tags chaos -race -short (chaostest) =="
go test -tags chaos -race -short -count=1 -cpu 2 ./internal/chaostest/

echo "== flight-recorder escalation gate (forced streak dumps + reconstructs) =="
# Fails if a watchdog escalation does not auto-dump the flight ring or if
# its records' transition masks cannot reconstruct the stalled op's path;
# see internal/chaostest/flight_test.go.
go test -tags chaos -count=1 -run 'TestFlightRecorderOnEscalation' ./internal/chaostest/

# The fault-free rank- and inversion-bound gates are the full suite's
# TestRelaxedConservationConcurrent and TestDEPQConservationConcurrent.
echo "== relaxed chaos gates (conservation + rank bound under fault schedules) =="
go test -tags chaos -count=1 -run 'TestRelaxedConservationChaos|TestRelaxedRankBoundChaos' \
    ./internal/chaostest/

echo "== relaxed strict-overhead A/B gate (Relaxed d=0 vs plain pool) =="
sh scripts/ab.sh '' 'PoolKey0Alternating$' '' 'RelaxedStrictAlternating$'

echo "== depq chaos gates (conservation + inversion bound under fault schedules) =="
go test -tags chaos -count=1 -run 'TestDEPQConservationChaos|TestDEPQInversionBoundChaos' \
    ./internal/chaostest/

echo "verify: all gates green"
