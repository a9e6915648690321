"""Layer-dominance record: does each workload's target layer do most
of its work?

Usage (from the root of a checkout)::

    python3 perfbench/dominance.py [--seed 0] [--seconds 10]

Runs every workload traced, one after another in this process
(through ``run.execute``, as ``run.py --trace 1`` does), and writes
``perfbench/dominance.json``: every span's inclusive share of the
traced wall time (outermost spans of a name only), each workload's
target share with its threshold, and the number of service calls made
outside the service workload.
"""

import argparse
import json
import pathlib
import sys

import run

HERE = pathlib.Path(__file__).resolve().parent

#: workload -> (target layer spans, denominator, minimum share).
TARGETS = {
    "paper": (["experiments.fig4", "experiments.table2"], "wall", 0.70),
    "service": (["service.claim_next"], "drain", 0.40),
    "sweep": (["runtime.app_run", "perf.cache_get", "perf.cache_put"],
              "wall", 0.70),
    "analyze": (["analysis.crash_report", "analysis.lint"], "wall", 0.90),
}


def one(workload: str, seed: int, seconds: float,
        root: pathlib.Path) -> dict:
    out = run.execute(workload, seed, seconds, root, trace=True)
    tph, shares = out.traced, out.shares
    names, denominator, minimum = TARGETS[workload]
    wall = tph.busy_s
    if denominator == "drain":
        wall -= shares.get("service.submit", 0.0) * tph.busy_s
    share = sum(shares.get(n, 0.0) for n in names) * tph.busy_s / wall
    service_calls = sum(1 for rec in out.tracer.spans
                        if rec[0].startswith("service."))
    return {
        "traced_busy_s": round(tph.busy_s, 3),
        "target": {"layers": names, "of": denominator,
                   "share": round(share, 3), "minimum": minimum,
                   "met": share >= minimum},
        "service_calls": service_calls,
        "shares": {k: round(v, 3) for k, v in shares.items()},
        "errors": out.errors + [f"op {op}: {why}" for ph in out.phases
                                for op, why in sorted(ph.failed.items())],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    args = ap.parse_args()
    root = pathlib.Path.cwd()
    if not run.enter_checkout(root):
        return 2
    record = {"seed": args.seed, "seconds": args.seconds, "workloads": {
        workload: one(workload, args.seed, args.seconds, root)
        for workload in TARGETS}}
    ok = all(w["target"]["met"] and not w["errors"] and
             (name == "service" or w["service_calls"] == 0)
             for name, w in record["workloads"].items())
    record["all_met"] = ok
    (HERE / "dominance.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({k: v["target"] for k, v in
                      record["workloads"].items()}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
