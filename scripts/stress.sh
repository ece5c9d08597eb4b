#!/bin/sh
# Usage: scripts/stress.sh COUNT [GO]
#
# Re-runs the concurrency-sensitive suites under the race detector across a
# scheduling matrix: the serving stack (internal/serve/..., cmd/wbload,
# cmd/wbserved) and the eval worker-invariance properties, each with
# -race -count=COUNT at GOMAXPROCS 1, 2 and 8, with -v off and on (-v
# changes output buffering and with it goroutine timing). Every run
# executes even after an earlier one fails; the failing runs are reported
# together at the end, and the exit status is 1 if there were any.
set -u

count=${1:?usage: scripts/stress.sh COUNT [GO]}
go=${2:-go}

logs=$(mktemp -d)
trap 'rm -rf "$logs"' EXIT

runs=0
failed=0
for procs in 1 2 8; do
	for v in "" -v; do
		for pkgs in "./internal/serve/... ./cmd/wbload/ ./cmd/wbserved/" "-run WorkerInvariance ./internal/eval/"; do
			runs=$((runs + 1))
			desc="GOMAXPROCS=$procs go test -race -count=$count${v:+ $v} $pkgs"
			# $v and $pkgs are word-split on purpose: each is zero or more arguments.
			if GOMAXPROCS=$procs "$go" test -race -count="$count" $v $pkgs >"$logs/$runs.log" 2>&1; then
				echo "ok    $desc"
			else
				echo "FAIL  $desc"
				echo "$desc" >"$logs/$runs.failed"
				failed=$((failed + 1))
			fi
		done
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
