#!/usr/bin/env bash
# Print where the linker placed perfbench's calibration loop
# (main.refProduct) and its offset mod 64.
#
# Every *_cal benchmark metric is a time divided by that loop's time, and
# the loop runs about 35% slower at 0 mod 64 than at 32 mod 64. A change to
# library code linked ahead of it can therefore move every *_cal metric while
# raw milliseconds stay level. Run this on both commits before reading a
# *_cal difference as a speed change. Needs bash and the go toolchain.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

(cd "$ROOT/perfbench" && go build -o "$WORKDIR/perfbench" .)
addr="$(go tool nm "$WORKDIR/perfbench" | awk '$3 == "main.refProduct" { print $1 }')"
if [ -z "$addr" ]; then
    echo "refalign: main.refProduct not found in the perfbench binary" >&2
    exit 1
fi
echo "main.refProduct 0x$addr offset mod 64: $((16#$addr % 64))"
