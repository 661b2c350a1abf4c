#!/usr/bin/env bash
# Prints the repo's code size the way ROADMAP counts it: non-blank,
# non-comment lines of non-test Go, then the same count for assembly.
# It measures only; nothing gates on the numbers.
#
#   bash scripts/loc.sh
set -eu
cd "$(dirname "$0")/.."

count() {
	find . -path ./.git -prune -o -type f "$@" -print0 |
		xargs -0 cat | grep -v -e '^[[:space:]]*$' -e '^[[:space:]]*//' | wc -l
}

echo "go  $(count -name '*.go' ! -name '*_test.go')"
echo "asm $(count -name '*.s')"
