"""Steadiness record: two interleaved ten-seed sets per workload.

Usage (from the root of a checkout)::

    python3 perfbench/steadiness.py [--workloads paper,sweep] [--runs 10]

Runs ``run.py --trace 0`` on every workload, set 1 on seeds 1..N and
set 2 on seeds N+1..2N, alternating between the sets seed by seed so
that a slow spell of the shared host falls on both alike.  Beside
each run's metrics it records the host's CPU steal and iowait shares
over the run (``/proc/stat``).  Writes ``perfbench/steadiness.json``:
every run, and for each workload and end-to-end metric both sets'
medians and spreads (quartile distance over median, as
``statistics.quantiles(n=4)`` gives them), the ratio of the medians
and the metric's bound from ``BENCHMARK.json``.  Exits 1 when a spread
(other than ``setup_s``'s) or a median ratio exceeds its bound.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def cpu_ticks() -> list:
    """Host-wide CPU ticks: user, nice, system, idle, iowait, ..."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def one_run(workload: str, seed: int) -> dict:
    before, t0 = cpu_ticks(), time.perf_counter()
    proc = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=True)
    elapsed = time.perf_counter() - t0
    delta = [b - a for a, b in zip(before, cpu_ticks())]
    total = sum(delta) or 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"workload": workload, "seed": seed,
            "correct": result["correct"], "elapsed_s": round(elapsed, 2),
            "steal": round(delta[7] / total, 4),
            "iowait": round(delta[4] / total, 4),
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def spread(values: list) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def summary(runs: list, n: int) -> tuple:
    table, ok = {}, True
    for wl in {r["workload"] for r in runs}:
        sets = [[r for r in runs if r["workload"] == wl and
                 (r["seed"] <= n) == first] for first in (True, False)]
        table[f"{wl}/steal"] = {
            "median": [statistics.median(r["steal"] for r in s)
                       for s in sets],
            "max": [max(r["steal"] for r in s) for s in sets]}
        for m in SPEC["end_to_end"]:
            name = m["name"]
            vals = [[r["metrics"][name] for r in s] for s in sets]
            meds = [statistics.median(v) for v in vals]
            worse = meds[1] / meds[0] if m["better"] == "lower" \
                else meds[0] / meds[1]
            row = {"median": [round(x, 6) for x in meds],
                   "spread": [round(spread(v), 4) for v in vals],
                   "ratio": round(worse, 4), "bound": m["bound"]}
            row["within"] = worse - 1 <= m["bound"] and (
                name == "setup_s" or max(row["spread"]) <= m["bound"])
            ok = ok and row["within"]
            table[f"{wl}/{name}"] = row
    return dict(sorted(table.items())), ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    n = args.runs
    runs = []
    for wl in args.workloads.split(","):
        for seed in range(1, n + 1):
            for s in (seed, seed + n):
                runs.append(one_run(wl, s))
                print(json.dumps(runs[-1]), flush=True)
    table, ok = summary(runs, n)
    record = {"runs_per_set": n, "all_within": ok, "summary": table,
              "runs": runs}
    (HERE / "steadiness.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for key, row in table.items():
        print(key, row)
    return 0 if ok and all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
