#!/bin/sh
# Loopback smoke gate for the scheduler service: boots schedd on an
# ephemeral port with small per-band capacity (so admission control
# actually sheds), drives the deadline workload over 64 connections, and
# requires the conservation ledger to close exactly — every admitted job
# served, dropped, or drained; every refused job explicitly StatusFull —
# plus the observed priority inversion to respect the configured bound.
# Then exercises the graceful drain (SIGTERM -> final metrics snapshot
# on stderr, exit 0).
set -e
cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

BOUND=2

go build -o "$TMP/schedd" ./cmd/schedd
go build -o "$TMP/dqload" ./cmd/dqload

"$TMP/schedd" -addr 127.0.0.1:0 -addr-file "$TMP/addr" \
    -bands 8 -band-bound "$BOUND" -capacity 64 -maxconns 64 \
    2>"$TMP/schedd.err" &
SCHEDD=$!

# The server writes its bound address once listening.
i=0
while [ ! -s "$TMP/addr" ] && [ $i -lt 50 ]; do
    sleep 0.1
    i=$((i + 1))
done
[ -s "$TMP/addr" ] || {
    echo "smoke_sched: schedd never published its address" >&2
    cat "$TMP/schedd.err" >&2
    exit 1
}
ADDR="$(cat "$TMP/addr")"

# -check-conserve makes dqload itself drain the queue afterwards and exit
# non-zero unless admitted = served + dropped + drained held exactly.
"$TMP/dqload" -addr "$ADDR" -deadline -conns 64 -duration 1s -pipeline 2 \
    -shed 4 -check-conserve -json >"$TMP/load.json"

kill -TERM "$SCHEDD"
wait "$SCHEDD" || {
    echo "smoke_sched: schedd exited non-zero after SIGTERM" >&2
    cat "$TMP/schedd.err" >&2
    exit 1
}
grep -q '^schedd_depq_pops_total' "$TMP/schedd.err" || {
    echo "smoke_sched: no final DEPQ metrics snapshot on stderr" >&2
    cat "$TMP/schedd.err" >&2
    exit 1
}
grep -q '^schedd_op_latency_ns_count' "$TMP/schedd.err" || {
    echo "smoke_sched: final snapshot lacks the op-latency histograms /metrics serves" >&2
    cat "$TMP/schedd.err" >&2
    exit 1
}

python3 - "$TMP/load.json" "$BOUND" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
bound = int(sys.argv[2])
assert r["ops"] > 0, "dqload completed no requests"
assert r["admitted"] > 0, "no jobs were admitted"
assert r["pop_min"] > 0, "no jobs were served from the urgent end"
assert r["pop_max"] > 0, "the shed end (PopMax drops) was never exercised"
assert r["conserved"], "conservation ledger did not close"
assert r["inv_max"] <= bound, \
    "observed inversion %d exceeds bound %d" % (r["inv_max"], bound)
print("smoke_sched: admitted %d, served %d, dropped %d, shed %d, drained %d, inv_max %d (bound %d)"
      % (r["admitted"], r["pop_min"], r["pop_max"], r["shed_full"],
         r["drained"], r["inv_max"], bound))
EOF
echo "smoke_sched: green"
