#!/usr/bin/env bash
# Every check after the install, in one script: the tier-1 tests, the
# benchmark's checks at seeds 0 and 9973, and the README quick start. It also
# prints the src/ line count, which ROADMAP.md tracks as a metric.
# Run it from anywhere, as `bash ci/check.sh`. The quick start uses the
# installed `bmm` script; outside CI, without one, it runs `python3 -m bmm.cli`
# from src/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

echo "== src/ line count"
cat src/bmm/*.py | wc -l

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
from bmm import generate, save_world, write_features
from bmm.synth import granularity_probe_world

world = granularity_probe_world(seed=0)
server, target, _ = generate(world)
write_features(server, "server.bmmf")
write_features(target, "target.bmmf")
save_world(world, "world.json")
PY
"${bmm[@]}" build-server --server-features server.bmmf --leaves 16 --seed 0 --tree tree.bmmt
"${bmm[@]}" match --tree tree.bmmt --server-features server.bmmf \
    --target-features target.bmmf --target-clusters 6 --seed 0 --out selection.manifest
"${bmm[@]}" evaluate --manifest selection.manifest --server-features server.bmmf \
    --target-features target.bmmf
"${bmm[@]}" prune --manifest selection.manifest --budget-frac 0.2 --strategy stratified \
    --tree tree.bmmt --server-features server.bmmf --out pruned.manifest
"${bmm[@]}" prune --manifest selection.manifest --budget-frac 0.2 --strategy uniform \
    --out uniform.manifest
"${bmm[@]}" bench --world world.json --leaves 16,32,64,128 --target-clusters 6 --out bench.csv
echo "== all checks passed"
