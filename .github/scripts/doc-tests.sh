#!/usr/bin/env bash
# Fails when DESIGN.md, README.md or the verify skill cites a Test…,
# Fuzz… or Benchmark… name that no test function in the repository has.
# A cited name may be a prefix of one: the docs quote ci.yml's
# HOT_PATH_BENCH, whose BenchmarkEngine selects every BenchmarkEngine…
# function.
#
#   bash .github/scripts/doc-tests.sh
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

docs=(DESIGN.md README.md .claude/skills/verify/SKILL.md)
defined=$(git ls-files -z '*_test.go' | xargs -0 grep -ohE '^func (Test|Fuzz|Benchmark)[A-Za-z0-9_]*' |
	sed 's/^func //' | sort -u)
cited=$(grep -ohE '\b(Test|Fuzz|Benchmark)[A-Z][A-Za-z0-9_]*' "${docs[@]}" | sort -u)

missing=0
for name in $cited; do
	if ! grep -q "^$name" <<<"$defined"; then
		echo "$name: cited in ${docs[*]}, but no test function has that name or starts with it" >&2
		missing=1
	fi
done
if [[ $missing == 0 ]]; then
	echo "$(wc -w <<<"$cited") cited test names, each a test function or a prefix of one"
fi
exit $missing
