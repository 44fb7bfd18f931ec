#!/usr/bin/env bash
# repeat.sh N [seconds] — the benchmark's own acceptance test.
#
# Runs two interleaved sets of N runs of every workload (a different
# --seed per run, the same seeds in both sets) and prints, per end-to-end
# metric and set, the median, the quartiles and the spread (the distance
# between the quartiles as a share of the median). Fails when a metric's two
# medians differ by more than its bound in the worse direction, or when a
# spread (setup_s excepted) exceeds the bound. Its output for the commit that
# froze the rates is results/baseline.txt.
set -euo pipefail
cd "$(dirname "$0")/.."
n=${1:?usage: repeat.sh N [seconds]}
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
N="$n" SECONDS_PER_RUN="${2:-}" python3 - <<'PY'
import json, os, statistics, subprocess, sys

spec = json.load(open("BENCHMARK.json"))
n = int(os.environ["N"])
seconds = os.environ["SECONDS_PER_RUN"] or str(spec["run_seconds"])
print(f"# {n} runs a set, {seconds} s a run, nproc {os.cpu_count()}, kernel {os.uname().release}")

def run(workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", seconds, "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {p.returncode}:\n{p.stderr[-2000:]}")
    r = json.loads(p.stdout.strip().splitlines()[-1])
    if not r["correct"] or r["failed"]:
        sys.exit(f"{workload} seed {seed}: {r['failed']} of {r['attempted']} failed")
    return {k: v["value"] for k, v in r["metrics"].items()}

failed = False
for w in spec["workloads"]:
    sets = ([], [])
    for seed in range(1, n + 1):        # interleaved: A1 B1 A2 B2 ...
        for s in sets:
            s.append(run(w["name"], seed))
    print(f"\n## {w['name']}")
    print(f"{'metric':<22}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        medians = []
        for label, s in zip("AB", sets):
            values = [r[name] for r in s]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med
            medians.append(med)
            flag = ""
            if spread > bound and name != "setup_s":
                flag, failed = "  SPREAD > BOUND", True
            print(f"{name:<22}{label:>4}{med:>14.4f}{q[0]:>14.4f}{q[2]:>14.4f}{spread:>9.3f}{bound:>7.2f}{flag}")
            print(f"{'':<26}runs: " + " ".join(f"{v:.4g}" for v in values))
        worse = (medians[1] - medians[0]) / medians[0]
        if m["better"] == "higher":
            worse = -worse
        if worse > bound:
            print(f"{name:<22}  B is {worse:.3f} worse than A: MEDIANS DIFFER BY MORE THAN THE BOUND")
            failed = True
sys.exit(1 if failed else 0)
PY
