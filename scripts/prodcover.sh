#!/usr/bin/env bash
# prodcover.sh — production coverage: which non-test functions does no
# production run reach?
#
# Builds modad and the bench with -cover -coverpkg=./..., runs them the way
# an operator or the benchmark does (never under go test), merges the
# coverage profiles with `go tool covdata`, and prints every function still
# at 0.0%, one "file:line: name 0.0%" line each. internal/chaos is left out:
# only tests use it, by design.
#
# The runs, each kept short:
#   - the four bench workloads, 3 s each, traced;
#   - modad experiment run all -quick;
#   - modad scenario run on the small, midsize and stress10k presets;
#   - a durable single-process modad with -wal-dir and -http (a query and a
#     /metrics scrape while it runs), then a restart that recovers it;
#   - a coordinator with two workers over loopback.
#
# Usage: scripts/prodcover.sh [workdir]
# Run from the repository root. workdir (default: a new temporary directory)
# keeps the binaries, the raw profiles, every process log, func.txt (the
# whole per-function table) and zero.txt (the list printed on stdout).
# Report-only: the exit status is 0 whatever the list holds, and non-zero
# only when a build or a run fails.
set -euo pipefail

work="${1:-$(mktemp -d)}"
mkdir -p "$work"
work="$(cd "$work" && pwd)"
cov="$work/covdata"
logs="$work/logs"
rm -rf "$cov" "$logs"
mkdir -p "$cov" "$logs"
export GOCOVERDIR="$cov"

echo "prodcover: building into $work" >&2
go build -cover -coverpkg=./... -o "$work/modad" ./cmd/modad
go build -cover -coverpkg=./... -o "$work/bench" ./bench
modad="$work/modad"

# addr_from LOG PATTERN waits up to 15 s for a log line matching the sed
# pattern and prints the address it captures.
addr_from() {
	local addr=""
	for _ in $(seq 150); do
		addr="$(sed -n "$2" "$1" | head -n 1)"
		if [ -n "$addr" ]; then
			echo "$addr"
			return 0
		fi
		sleep 0.1
	done
	echo "prodcover: no address in $1" >&2
	return 1
}

# scrape fetches a gateway URL when curl is at hand; the runs still cover
# everything else without it.
scrape() {
	if command -v curl >/dev/null; then
		curl -fsS -o /dev/null "$1" || echo "prodcover: GET $1 failed" >&2
	fi
}

echo "prodcover: bench, four workloads (3 s each, traced)" >&2
(cd "$work" && ./bench --seconds 3 --trace 1 --out "$work/bench.json") >"$logs/bench.log" 2>&1

echo "prodcover: experiments" >&2
"$modad" experiment run all -quick >"$logs/experiments.log" 2>&1

echo "prodcover: scenarios" >&2
for preset in small midsize stress10k; do
	"$modad" scenario gen -preset "$preset" -seed 1 >"$work/$preset.json"
	"$modad" scenario run "$work/$preset.json" >"$logs/scenario-$preset.log" 2>&1
done

echo "prodcover: durable single process, then its recovery" >&2
rm -rf "$work/wal"
"$modad" -addr 127.0.0.1:0 -http 127.0.0.1:0 -wal-dir "$work/wal" -snapshot-every 5m \
	-speed 240 -duration 6s >"$logs/single.log" 2>&1 &
single=$!
gw="$(addr_from "$logs/single.log" 's|.*http gateway on http://\([^ ]*\) .*|\1|p')"
sleep 2
scrape "http://$gw/v1/query?metric=facility.pue&latest=true"
scrape "http://$gw/metrics"
wait "$single"
"$modad" -addr 127.0.0.1:0 -wal-dir "$work/wal" -speed 240 -duration 2s >"$logs/recover.log" 2>&1
grep -q 'recovered from' "$logs/recover.log" || echo "prodcover: the restart did not recover" >&2

echo "prodcover: coordinator and two workers" >&2
"$modad" -role=coordinator -cluster-addr 127.0.0.1:0 -addr 127.0.0.1:0 -http 127.0.0.1:0 \
	-lease 2s -lease-grace 2s -speed 120 -duration 12s >"$logs/coordinator.log" 2>&1 &
coord=$!
join="$(addr_from "$logs/coordinator.log" 's|.*, cluster on \([^ ]*\) .*|\1|p')"
cgw="$(addr_from "$logs/coordinator.log" 's|.*http gateway on http://\([^ ]*\) .*|\1|p')"
workers=()
for w in w1 w2; do
	"$modad" -role=worker -node "$w" -join "$join" -heartbeat 500ms -speed 120 \
		-duration 8s >"$logs/worker-$w.log" 2>&1 &
	workers+=($!)
done
sleep 5
scrape "http://$cgw/v1/query?metric=node.cpu.util&latest=1"
scrape "http://$cgw/metrics"
wait "${workers[@]}" "$coord"

unset GOCOVERDIR
go tool covdata func -i="$cov" >"$work/func.txt"
grep -v '/internal/chaos/' "$work/func.txt" | awk '$NF == "0.0%"' >"$work/zero.txt" || true
total="$(grep -vc '/internal/chaos/\|^total' "$work/func.txt" || true)"
echo "prodcover: $(wc -l <"$work/zero.txt") of $total functions outside chaos are at 0.0%; table in $work/func.txt" >&2
cat "$work/zero.txt"
