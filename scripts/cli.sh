#!/bin/sh
# Usage: scripts/cli.sh [GO]
#
# Runs the command-line tools end to end on a real pipe: wbtrace's default
# trace (a 300-bit alternating payload at 100 bps from t=1 s) into
# wbdecode, decoding the CSI half, the RSSI half and the CSI half with
# -follow, and into wbload's 8 self-hosted sessions. Each decode must print
# the payload as its bits line and a clean ground-truth BER; wbload must
# report every session byte-identical to its batch decode. The binaries
# are built into a temporary directory, which is removed on exit. Every
# check runs; the exit status is 1 if any failed.
set -u

go=${1:-go}

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

"$go" build -o "$dir/" ./cmd/wbtrace ./cmd/wbdecode ./cmd/wbload || exit 1

payload=$(printf '10%.0s' $(seq 150))
failed=0

# check DESC WANT... runs "wbtrace | DESC" and requires a line of its
# output to match each WANT, a basic regular expression, in full. DESC is
# word-split on purpose: a command and its flags.
check() {
	desc=$1
	shift
	"$dir/wbtrace" | "$dir"/$desc >"$dir/out" 2>&1
	status=$?
	for want in "$@"; do
		if ! grep -qx -- "$want" "$dir/out"; then
			status=1
		fi
	done
	if [ "$status" -eq 0 ]; then
		echo "ok    wbtrace | $desc"
	else
		echo "FAIL  wbtrace | $desc"
		cat "$dir/out"
		failed=$((failed + 1))
	fi
}

ber='ground truth BER:    0/300 = 0.00e+00'
check "wbdecode -payload 300" "bits: $payload" "$ber"
check "wbdecode -mode rssi -payload 300" "bits: $payload" "$ber"
check "wbdecode -payload 300 -follow" "bits: $payload" "$ber" "bit 299 = 0  (.* measurements)"
check "wbload -n 8 -payload 300" \
	"wbload: 8/8 sessions byte-identical to batch (300 payload bits, .* measurements each)"

if [ "$failed" -gt 0 ]; then
	echo "$failed CLI check(s) failed"
	exit 1
fi
