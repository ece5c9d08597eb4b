#!/bin/sh
# Usage: scripts/examples.sh [GO]
#
# Runs every program under examples/ and compares its standard output with
# the examples/<name>/stdout.golden checked in beside it, byte for byte.
# The examples are seeded, so a difference means a change moved a draw or
# a result, not noise. The binaries are built into a temporary directory,
# which is removed on exit. Every example runs; the exit status is 1 if
# any differed or failed. After an intended change to an example's output,
# regenerate its golden with
#
#	go run ./examples/<name> > examples/<name>/stdout.golden
set -u

go=${1:-go}

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

failed=0
for main in examples/*/main.go; do
	ex=$(dirname "$main")
	name=$(basename "$ex")
	if ! "$go" build -o "$dir/$name" "./$ex"; then
		echo "FAIL  $ex (build)"
		failed=$((failed + 1))
		continue
	fi
	"$dir/$name" >"$dir/$name.out"
	status=$?
	if [ "$status" -eq 0 ] && cmp -s "$ex/stdout.golden" "$dir/$name.out"; then
		echo "ok    $ex"
	else
		echo "FAIL  $ex (exit status $status)"
		diff "$ex/stdout.golden" "$dir/$name.out"
		failed=$((failed + 1))
	fi
done

if [ "$failed" -gt 0 ]; then
	echo "$failed example(s) failed"
	exit 1
fi
