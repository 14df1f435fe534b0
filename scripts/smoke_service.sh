#!/bin/sh
# Loopback smoke gate for the deque service: boots dequed on an ephemeral
# port, pushes real traffic through dqload, then exercises the graceful
# drain (SIGTERM -> final metrics snapshot on stderr, exit 0). Fails on
# any broken link in the chain: listen, serve, load, drain, snapshot.
set -e
cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

go build -o "$TMP/dequed" ./cmd/dequed
go build -o "$TMP/dqload" ./cmd/dqload

"$TMP/dequed" -addr 127.0.0.1:0 -addr-file "$TMP/addr" -shards 4 -route least \
    2>"$TMP/dequed.err" &
DEQUED=$!

# The server writes its bound address once listening.
i=0
while [ ! -s "$TMP/addr" ] && [ $i -lt 50 ]; do
    sleep 0.1
    i=$((i + 1))
done
[ -s "$TMP/addr" ] || {
    echo "smoke_service: dequed never published its address" >&2
    cat "$TMP/dequed.err" >&2
    exit 1
}
ADDR="$(cat "$TMP/addr")"

"$TMP/dqload" -addr "$ADDR" -conns 4 -duration 1s -batch 8 -pipeline 4 -json \
    >"$TMP/load.json"

kill -TERM "$DEQUED"
wait "$DEQUED" || {
    echo "smoke_service: dequed exited non-zero after SIGTERM" >&2
    cat "$TMP/dequed.err" >&2
    exit 1
}
grep -q '^dequed_ops_total' "$TMP/dequed.err" || {
    echo "smoke_service: no final metrics snapshot on stderr" >&2
    cat "$TMP/dequed.err" >&2
    exit 1
}
grep -q '^dequed_op_latency_ns_count' "$TMP/dequed.err" || {
    echo "smoke_service: final snapshot lacks the op-latency histograms /metrics serves" >&2
    cat "$TMP/dequed.err" >&2
    exit 1
}

python3 - "$TMP/load.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["ops"] > 0, "dqload completed no requests"
assert r["values"] > 0, "dqload moved no values"
print("smoke_service: %d requests, %d values, p99 %dns"
      % (r["ops"], r["values"], r["p99_ns"]))
EOF
echo "smoke_service: green"
