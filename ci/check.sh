#!/usr/bin/env bash
# Every check after the install, in one script: the tier-1 tests, the
# benchmark's checks at seeds 0 and 9973, and the README quick start, also
# with a CSV target and a CSV server in place of the binary ones, and with a
# copy of both whose ids have mixed widths and UTF-8 characters, as binary
# files and as CSV, so the string-by-string id read runs end to end; and a
# 20,480x32 server's J=128 tree built, its 2,000-row target matched (L=12)
# and the selection evaluated at two BLAS thread counts. It also prints the
# src/ line count, the CLI's option count summed over its subcommands and the
# number of public names in bmm.__all__, which ROADMAP.md tracks as metrics.
# Run it from anywhere, as `bash ci/check.sh`. The quick start uses the
# installed `bmm` script; outside CI, without one, it runs `python3 -m bmm.cli`
# from src/. `bash ci/same_outputs.sh [REV]` checks that the working tree writes
# the same trees, manifests and bench quality as a git revision; CI runs it
# against the first parent after this script.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

echo "== src/ line count"
cat src/bmm/*.py | wc -l
echo "== CLI option count (summed over the subcommands) and public names (bmm.__all__)"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 - <<'PY'
import argparse

import bmm
from bmm import cli

sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
print(sum(not isinstance(a, argparse._HelpAction)
          for command in sub.choices.values() for a in command._actions))
print(len(bmm.__all__))
PY

echo "== tier-1 tests"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors

echo "== benchmark checks (repeat and traced byte-identity, prune budget, manifest ids)"
python3 perfbench/run.py --workload all --seed 0 --seconds 1
echo "== benchmark checks at the held-out seed"
python3 perfbench/run.py --workload all --seed 9973 --seconds 1

echo "== README quick start"
if command -v bmm >/dev/null || [[ -n "${CI:-}" ]]; then  # CI must use the installed script
    bmm=(bmm)
else
    echo "no installed bmm script: running python3 -m bmm.cli from src/"
    export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
    bmm=(python3 -m bmm.cli)
fi
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"
python3 - <<'PY'
from bmm import FeatureMatrix, generate, save_world, write_features
from bmm.synth import granularity_probe_world

world = granularity_probe_world(seed=0)
server, target, _ = generate(world)
write_features(server, "server.bmmf")
write_features(target, "target.bmmf")
write_features(server, "server.csv", "csv")
write_features(target, "target.csv", "csv")
save_world(world, "world.json")

# the same rows under ids of mixed byte widths, with non-ASCII characters and
# pairs that differ only by a trailing NUL, and labels that include an empty one
def mixed(m, stem):
    ids = [f"{['', 'é', '日本', 'row-'][i % 4]}{stem}{i // 8}" + "\0" * (i // 4 % 2)
           for i in range(m.n)]
    labels = ["" if i % 5 == 0 else label + "ü" * (i % 2)
              for i, label in enumerate(m.dataset_labels)]
    return FeatureMatrix(m.values, ids, labels)

for m, name in ((mixed(server, "s"), "mixed"), (mixed(target, "t"), "mixed_target")):
    write_features(m, f"{name}.bmmf")
    write_features(m, f"{name}.csv", "csv")
PY
"${bmm[@]}" build-server --server-features server.bmmf --leaves 16 --seed 0 --tree tree.bmmt
"${bmm[@]}" match --tree tree.bmmt --server-features server.bmmf \
    --target-features target.bmmf --target-clusters 6 --seed 0 --out selection.manifest
echo "== build-server and match again with OpenBLAS on one thread: the same bytes"
OPENBLAS_NUM_THREADS=1 "${bmm[@]}" build-server --server-features server.bmmf --leaves 16 \
    --seed 0 --tree tree1.bmmt > /dev/null
OPENBLAS_NUM_THREADS=1 "${bmm[@]}" match --tree tree1.bmmt --server-features server.bmmf \
    --target-features target.bmmf --target-clusters 6 --seed 0 --out selection1.manifest \
    > /dev/null
cmp tree.bmmt tree1.bmmt
cmp selection.manifest selection1.manifest
cmp selection.manifest.report.txt selection1.manifest.report.txt
cmp selection.manifest.report.json selection1.manifest.report.json
"${bmm[@]}" evaluate --manifest selection.manifest --server-features server.bmmf \
    --target-features target.bmmf --out gap.json
"${bmm[@]}" prune --manifest selection.manifest --budget-frac 0.2 --strategy stratified \
    --tree tree.bmmt --server-features server.bmmf --out pruned.manifest
echo "== evaluate and the stratified prune again with OpenBLAS on one thread: the same bytes"
OPENBLAS_NUM_THREADS=1 "${bmm[@]}" evaluate --manifest selection1.manifest \
    --server-features server.bmmf --target-features target.bmmf --out gap1.json > /dev/null
OPENBLAS_NUM_THREADS=1 "${bmm[@]}" prune --manifest selection1.manifest --budget-frac 0.2 \
    --strategy stratified --tree tree1.bmmt --server-features server.bmmf \
    --out pruned1.manifest > /dev/null
cmp gap.json gap1.json
cmp pruned.manifest pruned1.manifest
echo "== match with a CSV target and evaluate with a CSV server: the same bytes"
"${bmm[@]}" match --tree tree.bmmt --server-features server.bmmf \
    --target-features target.csv --target-clusters 6 --seed 0 --out selection2.manifest \
    > /dev/null
cmp selection.manifest selection2.manifest
cmp selection.manifest.report.txt selection2.manifest.report.txt
cmp selection.manifest.report.json selection2.manifest.report.json
"${bmm[@]}" evaluate --manifest selection.manifest --server-features server.csv \
    --target-features target.bmmf --out gap2.json > /dev/null
cmp gap.json gap2.json
"${bmm[@]}" prune --manifest selection.manifest --budget-frac 0.2 --strategy uniform \
    --out uniform.manifest
echo "== mixed-width UTF-8 ids: match, evaluate and the stratified prune, from binary files"
echo "== and from CSV: the same bytes"
"${bmm[@]}" build-server --server-features mixed.bmmf --leaves 16 --seed 0 --tree mixed.bmmt \
    > /dev/null
for format in bmmf csv; do
    "${bmm[@]}" match --tree mixed.bmmt --server-features "mixed.$format" \
        --target-features "mixed_target.$format" --target-clusters 6 --seed 0 \
        --out "mixed-$format.manifest" > /dev/null
    "${bmm[@]}" evaluate --manifest "mixed-$format.manifest" --server-features "mixed.$format" \
        --target-features "mixed_target.$format" --out "mixed-$format.gap.json" > /dev/null
    "${bmm[@]}" prune --manifest "mixed-$format.manifest" --budget-frac 0.2 \
        --strategy stratified --tree mixed.bmmt --server-features "mixed.$format" \
        --out "mixed-$format.pruned.manifest" > /dev/null
done
for output in manifest manifest.report.txt manifest.report.json gap.json pruned.manifest; do
    cmp "mixed-bmmf.$output" "mixed-csv.$output"
done
"${bmm[@]}" bench --world world.json --leaves 16,32,64,128 --target-clusters 6 --out bench.csv
echo "== bench again with OpenBLAS on one thread: the same bytes"
OPENBLAS_NUM_THREADS=1 "${bmm[@]}" bench --world world.json --leaves 16,32,64,128 \
    --target-clusters 6 --out bench1.csv > /dev/null
cmp bench.csv bench1.csv

echo "== a 20,480x32 server's J=128 tree, and its 2,000-row target's match and evaluate,"
echo "== with OpenBLAS on one thread and at its default: the same bytes"
python3 - <<'PY'
from bmm import generate, write_features
from bmm.synth import random_subset_world

world = random_subset_world(0, d=32, n_supers=8, subs_per_super=8, per_sub=320,
                            n_target_modes=3, per_target=200)
server, target, _ = generate(world)
write_features(server, "large.bmmf")
write_features(target, "large_target.bmmf")
PY
for threads in default 1; do
    if [[ "$threads" == 1 ]]; then blas=(env OPENBLAS_NUM_THREADS=1); else blas=(env); fi
    "${blas[@]}" "${bmm[@]}" build-server --server-features large.bmmf --leaves 128 --seed 0 \
        --tree "large-$threads.bmmt" > /dev/null
    "${blas[@]}" "${bmm[@]}" match --tree "large-$threads.bmmt" --server-features large.bmmf \
        --target-features large_target.bmmf --target-clusters 12 --seed 0 \
        --out "large-$threads.manifest" > /dev/null
    "${blas[@]}" "${bmm[@]}" evaluate --manifest "large-$threads.manifest" \
        --server-features large.bmmf --target-features large_target.bmmf \
        --out "large-$threads.gap.json" > /dev/null
done
cmp large-default.bmmt large-1.bmmt
cmp large-default.manifest large-1.manifest
cmp large-default.manifest.report.txt large-1.manifest.report.txt
cmp large-default.manifest.report.json large-1.manifest.report.json
cmp large-default.gap.json large-1.gap.json
echo "== all checks passed"
