"""Steadiness check: two separate sets of timed runs of the same code.

Usage, from the root of a checkout:

    python3 benchmark/steadiness.py

Set A runs every workload of BENCHMARK.json once per seed for seeds 1-10,
then set B does the same for seeds 11-20.  For each workload and end-to-end
metric it prints both medians, both quartile pairs, each set's spread
(distance between the quartiles as a share of the median), the shift of
B's median from A's, and the bound from BENCHMARK.json.  A metric passes
when both spreads and the size of the shift, either way, stay within the
bound; the failed share of jobs must be equal in both sets.  The figures
are also written to .bench-out/steadiness.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def one_run(config, workload, seed):
    argv = config["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values)


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in config["workloads"]]

    sets = []
    for s in range(2):
        results = {w: [] for w in workloads}
        for seed in range(1 + s * RUNS, 1 + (s + 1) * RUNS):
            for w in workloads:
                results[w].append(one_run(config, w, seed))
                m = results[w][-1]["metrics"]
                print(f"set {'AB'[s]} seed {seed} {w}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in m.items()), flush=True)
        sets.append(results)

    ok = True
    summary = {}
    print(f"\n{'workload':14s} {'metric':13s} {'median A':>11s} {'median B':>11s}"
          f" {'q1..q3 A':>23s} {'q1..q3 B':>23s} {'sprA':>6s} {'sprB':>6s}"
          f" {'shift':>7s} {'bound':>6s}")
    for w in workloads:
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = ([r["metrics"][name]["value"] for r in res[w]] for res in sets)
            qa, qb = spread(a), spread(b)
            ma, mb = statistics.median(a), statistics.median(b)
            shift = mb / ma - 1
            good = abs(shift) <= bound and max(qa[2], qb[2]) <= bound
            ok = ok and good
            summary.setdefault(w, {})[name] = {
                "median": [ma, mb], "quartiles": [qa[:2], qb[:2]],
                "spread": [qa[2], qb[2]], "shift": shift, "bound": bound}
            print(f"{w:14s} {name:13s} {ma:11.4g} {mb:11.4g}"
                  f" {qa[0]:11.4g}..{qa[1]:<11.4g}{qb[0]:11.4g}..{qb[1]:<11.4g}"
                  f" {qa[2]:6.3f} {qb[2]:6.3f} {shift:+7.3f} {bound:6.3f}"
                  f"{'' if good else '  OUT OF BOUND'}")
        shares = [sum(r["failed"] for r in res[w]) / sum(r["attempted"] for r in res[w])
                  for res in sets]
        correct = all(r["correct"] for res in sets for r in res[w])
        ok = ok and shares[0] == shares[1] and correct
        summary[w]["failed_share"] = shares
        print(f"{w:14s} failed share A {shares[0]:.4f}, B {shares[1]:.4f}; "
              f"all correct: {correct}")
    (ROOT / ".bench-out").mkdir(exist_ok=True)
    (ROOT / ".bench-out" / "steadiness.json").write_text(
        json.dumps({"runs": RUNS, "sets": sets, "summary": summary}, indent=1))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
