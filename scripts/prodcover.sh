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
#   - a durable single-process modad running a power and an ioqos group
#     with -wal-dir and -http (a query and a /metrics scrape while it
#     runs, and through /v1/control a set-mode that puts the power loop in
#     human-in-the-loop mode, a spawn of a second power loop in that mode,
#     an approval of the first action queued, and the second loop's
#     pause), killed with SIGKILL before any snapshot, so nothing that
#     process alone ran is counted; a restart that folds the whole log,
#     the knowledge base's learn envelopes and the control plane's ops and
#     approvals among it, lists the fleet to check the ops came back, lists
#     the cases, and snapshots; and a restart from that snapshot;
#   - a coordinator with -wal-dir and two workers over loopback, the second
#     started once the first holds every group, so the rebalance revokes
#     from it; then a coordinator restart that folds its ledger.
#
# Usage: scripts/prodcover.sh [workdir]
# Run from the repository root. workdir (default: a new temporary directory)
# keeps the binaries, the raw profiles, every process log, func.txt (the
# whole per-function table) and zero.txt (the list printed on stdout).
# The exit status is 1 when zero.txt names a function that
# scripts/prodcover_zero.txt, the checked-in list (one "file name" line per
# function, no line numbers), does not; a function that leaves the list is
# only reported. It is non-zero too when a build or a run fails.
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

# control GATEWAY OP BODY sends one /v1/control op and prints the reply.
control() {
	if command -v curl >/dev/null; then
		curl -sS -X POST -d "$3" "http://$1/v1/control/$2" || echo "prodcover: control $2 failed" >&2
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

echo "prodcover: durable single process, killed, then two restarts" >&2
rm -rf "$work/wal"
echo '[{"case":"power","period":"1m"},{"case":"ioqos"}]' >"$work/specs.json"
"$modad" -addr 127.0.0.1:0 -http 127.0.0.1:0 -wal-dir "$work/wal" -specs "$work/specs.json" \
	-snapshot-every 1h -speed 240 -duration 0 >"$logs/single.log" 2>&1 &
single=$!
gw="$(addr_from "$logs/single.log" 's|.*http gateway on http://\([^ ]*\) .*|\1|p')"
control "$gw" set-mode '{"loop":"power-case","mode":"human-in-the-loop"}' >/dev/null
control "$gw" spawn '{"spec":{"case":"power","name":"gate","mode":"human-in-the-loop","period":"1m"}}' >/dev/null
sleep 2 # power-case queues approvals, which the journal records
scrape "http://$gw/v1/query?metric=facility.pue&latest=true"
scrape "http://$gw/metrics"
seq="$(control "$gw" pending '' | grep -o '"seq":[0-9]*' | head -n 1 | cut -d: -f2 || true)"
[ -n "$seq" ] && control "$gw" approve "{\"seq\":$seq}" >/dev/null || echo "prodcover: no action pending approval" >&2
control "$gw" pause '{"loop":"gate"}' >/dev/null
sleep 2
kill -9 "$single"
wait "$single" || true
for life in recover restore; do
	"$modad" -addr 127.0.0.1:0 -http 127.0.0.1:0 -wal-dir "$work/wal" -specs "$work/specs.json" \
		-snapshot-every 5m -speed 240 -duration 3s >"$logs/$life.log" 2>&1 &
	pid=$!
	if [ "$life" = recover ] && command -v curl >/dev/null; then
		rgw="$(addr_from "$logs/$life.log" 's|.*http gateway on http://\([^ ]*\) .*|\1|p')"
		list="$(control "$rgw" list '')"
		control "$rgw" cases '' >/dev/null
		for want in '"name":"gate","case":"power","group":"gate","state":"paused","mode":"human-in-the-loop"' \
			'"name":"power-case","case":"power","group":"power-case","state":"[a-z]*","mode":"human-in-the-loop"'; do
			grep -q "$want" <<<"$list" || echo "prodcover: the recover restart lost an acknowledged op: no $want in $list" >&2
		done
	fi
	wait "$pid"
	grep -q 'recovered from' "$logs/$life.log" || echo "prodcover: the $life restart did not recover" >&2
done

echo "prodcover: coordinator and two workers" >&2
rm -rf "$work/cwal"
"$modad" -role=coordinator -cluster-addr 127.0.0.1:0 -addr 127.0.0.1:0 -http 127.0.0.1:0 -wal-dir "$work/cwal" \
	-lease 2s -lease-grace 2s -speed 120 -duration 14s >"$logs/coordinator.log" 2>&1 &
coord=$!
join="$(addr_from "$logs/coordinator.log" 's|.*, cluster on \([^ ]*\) .*|\1|p')"
cgw="$(addr_from "$logs/coordinator.log" 's|.*http gateway on http://\([^ ]*\) .*|\1|p')"
workers=()
for w in w1 w2; do
	"$modad" -role=worker -node "$w" -join "$join" -heartbeat 500ms -speed 120 \
		-duration 8s >"$logs/worker-$w.log" 2>&1 &
	workers+=($!)
	# Whether a join finds the groups placed decides whether the rebalance
	# revokes any, so w2 joins only once w1 holds them all.
	if [ "$w" = w1 ]; then
		placed=""
		for _ in $(seq 100); do
			placed="$(curl -fsS "http://$cgw/metrics" | awk '$1 == "cluster_specs" { n = $2 } $1 == "cluster_specs_placed" { p = $2 } END { if (n > 0 && p == n) print "yes" }')"
			[ -n "$placed" ] && break
			sleep 0.1
		done
		[ -n "$placed" ] || echo "prodcover: w1 never held every group" >&2
	fi
done
sleep 5
scrape "http://$cgw/v1/query?metric=node.cpu.util&latest=1"
scrape "http://$cgw/metrics"
wait "${workers[@]}" "$coord"
"$modad" -role=coordinator -cluster-addr 127.0.0.1:0 -addr 127.0.0.1:0 -wal-dir "$work/cwal" \
	-duration 1s >"$logs/coordinator-restart.log" 2>&1
grep -q 'coordinator recovered' "$logs/coordinator-restart.log" || echo "prodcover: the coordinator restart did not recover" >&2

unset GOCOVERDIR
go tool covdata func -i="$cov" >"$work/func.txt"
grep -v '/internal/chaos/' "$work/func.txt" | awk '$NF == "0.0%"' >"$work/zero.txt" || true
total="$(grep -vc '/internal/chaos/\|^total' "$work/func.txt" || true)"
echo "prodcover: $(wc -l <"$work/zero.txt") of $total functions outside chaos are at 0.0%; table in $work/func.txt" >&2
cat "$work/zero.txt"

# The gate: compare by file and name, since line numbers move with edits.
list="$(dirname "$0")/prodcover_zero.txt"
awk '{ sub(/:[0-9]+:$/, "", $1); print $1, $2 }' "$work/zero.txt" | sort >"$work/zero.list"
added="$(sort "$list" | comm -13 - "$work/zero.list")"
gone="$(sort "$list" | comm -23 - "$work/zero.list")"
if [ -n "$gone" ]; then
	echo "prodcover: now reached, drop from $list:" >&2
	echo "$gone" >&2
fi
if [ -n "$added" ]; then
	echo "prodcover: no production run reaches these any more; give each a run that does, or delete it:" >&2
	echo "$added" >&2
	exit 1
fi
