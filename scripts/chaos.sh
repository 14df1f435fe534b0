#!/bin/sh
# Chaos sweep: run the fault-injection suites (internal/chaostest) across a
# set of schedule seeds, plain and under -race. Schedules are deterministic
# per seed, so a failing seed reported here reproduces with exactly
#
#   go test -tags chaos ./internal/chaostest/ -chaos.seeds=<seed>
#
# Usage: scripts/chaos.sh [seed ...]   (default: a fixed five-seed set)
set -e
cd "$(dirname "$0")/.."

SEEDS="${*:-1 7 42 1337 3735928559}"
list=$(echo "$SEEDS" | tr ' ' ,)

echo "== chaos sweep: seeds $list =="
go test -tags chaos -count=1 -cpu 2 ./internal/chaostest/ -chaos.seeds="$list"

echo "== chaos sweep under -race (short) =="
go test -tags chaos -race -short -count=1 -cpu 2 ./internal/chaostest/ -chaos.seeds="$list"

echo "chaos: all seeds green"
