#!/usr/bin/env bash
# size: the two code-size numbers ROADMAP aim 2 tracks, printed by
# `make size` and the CI docs job. The expected direction is down.
#
#   1. Non-test Go lines outside bench/ (the benchmark is a measuring
#      instrument, not the program).
#   2. Exported identifiers: top-level funcs, methods and types whose
#      name starts with a capital, over non-test files in internal/ and
#      vna.go.
set -euo pipefail
cd "$(dirname "$0")/.."

lines=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 |
    xargs -0 cat | wc -l)
exported=$( { find internal -name '*.go' ! -name '*_test.go' -print0; printf 'vna.go\0'; } |
    xargs -0 grep -hE '^(func (\([a-z]+ \*?[A-Za-z]+\) )?[A-Z]|type [A-Z])' | wc -l)

echo "non-test Go lines outside bench/: $lines"
echo "exported identifiers:             $exported"
