#!/usr/bin/env bash
# Checks that the working tree writes the same outputs as a git revision: it
# runs perfbench's three workloads at seeds 0 and 9973 in an archived copy of
# REV and in the working tree, and compares their sorted `digest` lines (the
# SHA-256 of every tree, manifest and pruned manifest and of the bench
# quality columns). It exits 1 and prints the difference when they differ.
# Run it from anywhere, as `bash ci/same_outputs.sh [REV]` (default HEAD).
# CI runs it as `bash ci/same_outputs.sh HEAD^1` after ci/check.sh, on a
# checkout that fetches two commits, so a change that moves an output byte
# shows it against its first parent.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
rev="${1:-HEAD}"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/rev"
git -C "$root" archive "$rev" | tar -x -C "$work/rev"

digests() {  # the sorted digest lines of perfbench in checkout $1 at seed $2, into $3
    if ! (cd "$1" && python3 perfbench/run.py --workload all --seed "$2" --seconds 1) \
        > "$3.log" 2>&1; then
        echo "perfbench failed in $1 at seed $2:"
        tail -n 20 "$3.log"
        exit 1
    fi
    grep '^digest ' "$3.log" | sort > "$3"
    if [[ ! -s "$3" ]]; then
        echo "perfbench printed no digest lines in $1 at seed $2"
        exit 1
    fi
}

status=0
for seed in 0 9973; do
    digests "$work/rev" "$seed" "$work/rev-$seed"
    digests "$root" "$seed" "$work/tree-$seed"
    if diff "$work/rev-$seed" "$work/tree-$seed"; then
        echo "seed $seed: $(wc -l < "$work/tree-$seed") digest lines equal $rev's"
    else
        echo "seed $seed: outputs differ from $rev's (< $rev, > working tree)"
        status=1
    fi
done
exit "$status"
