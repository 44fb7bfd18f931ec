#!/usr/bin/env bash
# Fails if BENCHMARK.json and the runner's --list disagree on a workload, a
# metric, its unit, its direction or its bound, or if a name uses a character
# outside [A-Za-z0-9_.-].
set -euo pipefail
cd "$(dirname "$0")/.."
listed=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --list)
LISTED="$listed" python3 - <<'PY'
import json, os, re, sys

spec = json.load(open("BENCHMARK.json"))
want = set()
for w in spec["workloads"]:
    want.add(("workload", w["name"], w["why"]))
for m in spec["end_to_end"]:
    want.add(("end_to_end", m["name"], m["unit"], m["better"], repr(float(m["bound"]))))
for m in spec["per_layer"]:
    want.add(("per_layer", m["name"], m["unit"], m["better"], "-"))

have = set()
for line in os.environ["LISTED"].splitlines():
    f = line.split("\t")
    if f[0] == "end_to_end":
        f[4] = repr(float(f[4]))
    have.add(tuple(f))

bad = [n for _, n, *_ in want | have if not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)]
for n in bad:
    print(f"bad name: {n!r}")
for x in sorted(want - have):
    print("only in BENCHMARK.json:", *x)
for x in sorted(have - want):
    print("only in --list:        ", *x)
sys.exit(1 if bad or want != have else 0)
PY
echo "BENCHMARK.json and --list agree"
