#!/usr/bin/env bash
# Fails when a `go test -run` selection in the Makefile or the CI
# workflow has an alternative that names no test: each alternative of
# each selection is listed (`go test -list`) on the packages its line
# names, and must match at least one test there. A renamed or deleted
# test otherwise turns its selection into a silent no-op.
#
#   scripts/check-run-selections.sh      (or: make run-selections)
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
declare -A seen
while IFS= read -r line; do
	sel=$(sed -nE "s/.*-run[= ]+('([^']*)'|\"([^\"]*)\"|([^ ]+)).*/\2\3\4/p" <<<"$line")
	# -run='^$' deliberately selects nothing (benchmark-only steps).
	if [ -z "$sel" ] || [ "$sel" = '^$' ]; then
		continue
	fi
	pkgs=$(tr ' ' '\n' <<<"$line" | grep -E '^\.(/|$)' | tr '\n' ' ')
	IFS='|' read -ra alts <<<"$sel"
	for alt in "${alts[@]}"; do
		key="$alt @ $pkgs"
		if [ -n "${seen[$key]:-}" ]; then
			continue
		fi
		seen[$key]=1
		# shellcheck disable=SC2086 # pkgs is a word list
		listed=$(go test -list "$alt" $pkgs)
		if ! grep -qvE '^(ok|\?)[[:space:]]' <<<"$listed"; then
			echo "no test matches -run alternative '$alt' in $pkgs(from: $line)" >&2
			status=1
		fi
	done
done < <(grep -hE '(go|\$\(GO\)) test .*-run' Makefile .github/workflows/ci.yml)
echo "${#seen[@]} -run alternatives checked"
exit $status
