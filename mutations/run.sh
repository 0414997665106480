#!/usr/bin/env bash
# Proves every gate trips. Each mutations/*.patch plants one violation;
# its first line, "expect: <command>", names the gate that must catch
# it. For each patch this script copies the tree to a scratch directory,
# applies the patch with `git apply` (a patch that no longer applies
# fails), runs the command there with every `go test` limited to 60 s,
# and requires a non-zero exit. One PASS or FAIL line per patch; the
# exit status is non-zero if any patch failed.
#
# Usage: bash mutations/run.sh [patch ...]   (default: every patch)
set -uo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
patches=("$@")
if [ ${#patches[@]} -eq 0 ]; then
	patches=("$root"/mutations/*.patch)
fi

# One scratch path for every patch, so the Go build cache (keyed in
# part on source paths) reuses what the previous patch compiled.
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
work="$scratch/tree"
export GOFLAGS=-timeout=60s

failed=0
for patch in "${patches[@]}"; do
	name=$(basename "$patch" .patch)
	cmd=$(sed -n '1s/^expect: //p' "$patch")
	if [ -z "$cmd" ]; then
		echo "FAIL $name: first line is not an expect: header"
		failed=1
		continue
	fi
	rm -rf "$work"
	mkdir -p "$work"
	(cd "$root" && git ls-files -z --cached --others --exclude-standard |
		tar --null -T - --ignore-failed-read -cf - 2>/dev/null) | tar -C "$work" -xf -
	if ! (cd "$work" && git apply "$patch") 2>"$scratch/apply.log"; then
		echo "FAIL $name: patch does not apply: $(head -1 "$scratch/apply.log")"
		failed=1
		continue
	fi
	# A plant that no longer compiles would fail any command for the
	# wrong reason. `go list -export` compiles every package, cmd/*
	# included, without linking the binaries: a plant only has to
	# compile, and linking all of them cost more than most gates.
	if ! (cd "$work" && go list -export ./... >/dev/null) 2>"$scratch/out.log"; then
		echo "FAIL $name: the planted tree does not build: $(head -1 "$scratch/out.log")"
		failed=1
		continue
	fi
	start=$SECONDS
	if (cd "$work" && bash -c "$cmd") >"$scratch/out.log" 2>&1; then
		echo "FAIL $name: \`$cmd\` passed with the plant in place"
		tail -20 "$scratch/out.log" | sed 's/^/    /'
		failed=1
	else
		echo "PASS $name ($((SECONDS - start)) s): \`$cmd\` fails"
	fi
done
exit $failed
