#!/bin/sh
# Usage: scripts/stress.sh COUNT [GO]
#
# Re-runs the concurrency-sensitive suites under the race detector across a
# scheduling matrix: the serving stack (internal/serve/..., cmd/wbload,
# cmd/wbserved), the eval worker-invariance properties, the parallel
# trial engine and lane split (internal/parallel), the frame close's
# core-count invariance (internal/uplink) and the streaming determinism
# claims (a StreamTo system against its series-keeping twin in
# internal/core, and the stream experiment's online-equals-batch table in
# internal/eval), each under -race at GOMAXPROCS
# 1, 2 and 8, with -v off and on (-v changes output buffering and with it
# goroutine timing). Each suite runs at -count=COUNT or at its own floor,
# whichever is larger: the cheap suites whose timing bugs took hundreds of
# runs to show (a ForEach that skipped a job within 300) run that often
# even in a one-pass gate. Every run executes even after an earlier one
# fails; the failing runs are reported together at the end, and the exit
# status is 1 if there were any.
set -u

count=${1:?usage: scripts/stress.sh COUNT [GO]}
go=${2:-go}

logs=$(mktemp -d)
trap 'rm -rf "$logs"' EXIT

# One suite a line: its count floor, then its go test arguments.
suites='5 ./internal/serve/... ./cmd/wbload/ ./cmd/wbserved/
1 -run WorkerInvariance ./internal/eval/
300 ./internal/parallel/
1 -run ProcsInvariant ./internal/uplink/
1 -run StreamToMatchesSeriesTwin|StreamsMatchSeriesTwin ./internal/core/
1 -run StreamEquivalence ./internal/eval/'

runs=0
failed=0
for procs in 1 2 8; do
	for v in "" -v; do
		while read -r floor pkgs; do
			n=$count
			if [ "$floor" -gt "$n" ]; then
				n=$floor
			fi
			runs=$((runs + 1))
			desc="GOMAXPROCS=$procs go test -race -count=$n${v:+ $v} $pkgs"
			# $v and $pkgs are word-split on purpose: each is zero or more arguments.
			if GOMAXPROCS=$procs "$go" test -race -count="$n" $v $pkgs >"$logs/$runs.log" 2>&1 </dev/null; then
				echo "ok    $desc"
			else
				echo "FAIL  $desc"
				echo "$desc" >"$logs/$runs.failed"
				failed=$((failed + 1))
			fi
		done <<EOF
$suites
EOF
	done
done

if [ "$failed" -eq 0 ]; then
	echo "stress: all $runs runs passed"
	exit 0
fi
echo
echo "stress: $failed of $runs runs failed"
i=1
while [ "$i" -le "$runs" ]; do
	if [ -f "$logs/$i.failed" ]; then
		echo "=== $(cat "$logs/$i.failed")"
		grep -E -e '--- FAIL|^FAIL|^panic:|DATA RACE' "$logs/$i.log" | head -40
	fi
	i=$((i + 1))
done
exit 1
