#!/usr/bin/env bash
# Print where the linker placed perfbench's calibration loop
# (main.refProduct) and its offset mod 64.
#
#   bash scripts/refalign.sh        # the working tree
#   bash scripts/refalign.sh REV    # commit REV, labelled with REV
#
# Every *_cal benchmark metric is a time divided by that loop's time, and
# the loop runs about 35% slower at 0 mod 64 than at 32 mod 64. A change to
# library code linked ahead of it can therefore move every *_cal metric while
# raw milliseconds stay level. Run this on both commits before reading a
# *_cal difference as a speed change. REV is checked out in a temporary git
# worktree, removed on exit. Needs bash, git and the go toolchain.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
REV="${1:-}"
WORKDIR="$(mktemp -d)"
cleanup() {
    if [ -d "$WORKDIR/src" ]; then
        git -C "$ROOT" worktree remove --force "$WORKDIR/src"
    fi
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

SRC="$ROOT"
if [ -n "$REV" ]; then
    SRC="$WORKDIR/src"
    git -C "$ROOT" worktree add --quiet --detach "$SRC" "$REV"
fi

(cd "$SRC/perfbench" && go build -o "$WORKDIR/perfbench" .)
addr="$(go tool nm "$WORKDIR/perfbench" | awk '$3 == "main.refProduct" { print $1 }')"
if [ -z "$addr" ]; then
    echo "refalign: main.refProduct not found in the perfbench binary" >&2
    exit 1
fi
echo "${REV:+$REV: }main.refProduct 0x$addr offset mod 64: $((16#$addr % 64))"
