"""Seeded input generators for the paper, sweep and service workloads.

Every generator here is a pure function of its seed and size: it
imports nothing from the program under test and reads no file, so the
same seed yields the same input bytes at every commit.  Inputs are
plain JSON-able data (the schema of ``RunSpec``/``JobSpec`` documents);
the workloads turn them into program objects only after generation.

The seed changes *which* cells and model seeds a run uses, never how
much work it holds: each generator cycles through a fixed catalogue
(platform x app combinations, cell counts, experiment ids) in a
seed-shuffled order, so runs at different seeds cost the same.
"""

from __future__ import annotations

import json
import random

#: The 13 experiments one paper regeneration runs, in registry order.
PAPER_EXPERIMENTS = (
    "table1", "eq1", "table2", "fig1", "fig2", "fig3", "fig4",
    "fig5", "fig6", "fig7", "summary", "exascale", "faults",
)

#: Platforms the sweep and service workloads draw from (RunSpec
#: ``platform`` documents).
PLATFORMS = (
    {"name": "bench-fugaku-linux", "machine": "fugaku",
     "os_kind": "linux", "tuning": "fugaku-production"},
    {"name": "bench-fugaku-mckernel", "machine": "fugaku",
     "os_kind": "mckernel", "tuning": "fugaku-production"},
    {"name": "bench-ofp-linux", "machine": "oakforest-pacs",
     "os_kind": "linux", "tuning": "ofp-default"},
    {"name": "bench-ofp-mckernel", "machine": "oakforest-pacs",
     "os_kind": "mckernel", "tuning": "ofp-default"},
)

APPS = ("AMG2013", "GAMERA", "GeoFEM", "LQCD", "Lulesh", "Milc")

#: The six node counts of one sweep batch.
NODE_COUNTS = (16, 64, 256, 1024, 2048, 4096)

#: Trials per sweep-batch cell, and per service-sweep cell.
SWEEP_RUNS = 8
SERVICE_RUNS = 4

#: Cheap fast-mode experiments for service experiment jobs; each
#: publishes a JSON and a text rendering, fig7 also per-app CSVs.
SERVICE_EXPERIMENTS = ("table1", "eq1", "fig1", "fig2", "fig7",
                       "exascale", "faults")

#: Every ``REPEAT_EVERY``-th sweep batch repeats an earlier batch.
REPEAT_EVERY = 4
#: One service job in ``RESUBMIT_EVERY`` resubmits an earlier spec.
RESUBMIT_EVERY = 5
#: One service job in ``EXPERIMENT_EVERY`` is an experiment job.
EXPERIMENT_EVERY = 5


def _model_seed(rng: random.Random) -> int:
    return rng.randrange(1 << 31)


def paper_inputs(seed: int) -> dict:
    """One paper regeneration: every experiment, full scale, at
    ``seed``."""
    return {"experiments": list(PAPER_EXPERIMENTS), "fast": False,
            "seed": seed}


def _combos(rng: random.Random):
    """Endless seed-shuffled rounds over every platform x app pair."""
    pairs = [(p, a) for p in range(len(PLATFORMS)) for a in APPS]
    while True:
        order = list(pairs)
        rng.shuffle(order)
        yield from order


def sweep_inputs(seed: int, n_batches: int) -> "list[dict]":
    """``n_batches`` sweep batches.

    A batch is one platform x app x model seed across the six
    :data:`NODE_COUNTS`.  Every :data:`REPEAT_EVERY`-th batch repeats
    an earlier fresh batch (``repeat_of`` names it), so about a
    quarter of batches are cache hits.
    """
    rng = random.Random(f"sweep/{seed}")
    combos = _combos(rng)
    batches: list[dict] = []
    fresh: list[int] = []
    for i in range(n_batches):
        if i % REPEAT_EVERY == REPEAT_EVERY - 1 and fresh:
            src = batches[rng.choice(fresh)]
            batches.append({**src, "repeat_of": src["index"], "index": i})
            continue
        plat, app = next(combos)
        batches.append({
            "index": i,
            "repeat_of": None,
            "platform": PLATFORMS[plat],
            "app": app,
            "seed": _model_seed(rng),
            "nodes": list(NODE_COUNTS),
            "n_runs": SWEEP_RUNS,
        })
        fresh.append(i)
    return batches


def batch_specs(batch: dict) -> "list[dict]":
    """The RunSpec documents of one sweep batch."""
    return [{"platform": batch["platform"], "app": batch["app"],
             "n_nodes": n, "n_runs": batch["n_runs"],
             "seed": batch["seed"]} for n in batch["nodes"]]


def service_inputs(seed: int, n_jobs: int) -> "list[dict]":
    """``n_jobs`` JobSpec documents, in submission order.

    Every :data:`EXPERIMENT_EVERY`-th job is a fast experiment job;
    the rest are sweep jobs of 2, 3 or 4 cells (cycling).  In each
    group of :data:`RESUBMIT_EVERY` jobs one position (rotating)
    resubmits an earlier job of the same kind verbatim, so the
    worker's run cache sees hits.
    """
    rng = random.Random(f"service/{seed}")
    combos = _combos(rng)
    experiments = list(SERVICE_EXPERIMENTS)
    rng.shuffle(experiments)
    jobs: list[dict] = []
    earlier: dict[str, list[dict]] = {"sweep": [], "experiment": []}
    n_sweep = n_exp = 0
    for i in range(n_jobs):
        kind = "experiment" if i % EXPERIMENT_EVERY == \
            EXPERIMENT_EVERY - 1 else "sweep"
        group = i // RESUBMIT_EVERY
        if i % RESUBMIT_EVERY == (group + 1) % RESUBMIT_EVERY \
                and earlier[kind]:
            jobs.append(rng.choice(earlier[kind]))
            continue
        if kind == "experiment":
            job = {"kind": "experiment",
                   "experiment": experiments[n_exp % len(experiments)],
                   "fast": True, "seed": _model_seed(rng)}
            n_exp += 1
        else:
            plat, app = next(combos)
            n_cells = 2 + n_sweep % 3
            nodes = sorted(rng.sample(NODE_COUNTS, n_cells))
            model_seed = _model_seed(rng)
            job = {"kind": "sweep", "specs": [
                {"platform": PLATFORMS[plat], "app": app, "n_nodes": n,
                 "n_runs": SERVICE_RUNS, "seed": model_seed}
                for n in nodes]}
            n_sweep += 1
        earlier[kind].append(job)
        jobs.append(job)
    return jobs


def input_bytes(obj: object) -> bytes:
    """Canonical bytes of a generated input (for determinism checks)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
