"""Opt-in wall-clock benchmarks behind the CI speed budget.

Excluded from the default run (see ``-m "not perfsmoke"`` in
pyproject.toml); run with ``pytest -m perfsmoke``.  Every test records
its timings into ``benchmarks/out/BENCH_perfsmoke.json`` in the plain
``{name: seconds}`` format ``tools/bench_compare.py`` consumes; the CI
``perf`` job then enforces ``benchmarks/budgets.json`` against the
committed baseline in ``benchmarks/baselines/``.

Two kinds of entries land in the file:

* absolute seconds (``perfsmoke_serial_uncached``,
  ``sweep_multitrial_32trials``, ...) — machine-dependent, guarded only
  by generous ``max_regression_pct`` budgets;
* same-run pairs (``apprunner_64trials_loop`` vs
  ``..._batched``) — their ratio is machine-independent, so the budget
  ``min_speedup``/``vs`` rules on them are the hard CI gates.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import numpy as np
import pytest

from repro.apps import ALL_PROFILES
from repro.experiments import run_experiment
from repro.noise.sampler import BarrierDelaySampler
from repro.perf import RunCache, perf_context
from repro.platform import get_platform
from repro.platform.resolve import build, sweep_platform_apps
from repro.runtime.runner import AppRunner

FIGURES = ["fig5", "fig6", "fig7"]
ROUNDS = 4  # regeneration rounds: an edit-render-inspect loop
APPS = ["AMG2013", "Milc", "Lulesh"]
NODE_COUNTS = [16, 64, 256, 1024, 4096, 8192]
OUT = pathlib.Path(__file__).parent.parent / "benchmarks" / "out"

#: Accumulated timings of this pytest invocation; re-written on every
#: record so a partial run still leaves a parseable file.
_TIMINGS: dict[str, float] = {}


def _record(**entries: float) -> None:
    _TIMINGS.update(entries)
    OUT.mkdir(exist_ok=True)
    (OUT / "BENCH_perfsmoke.json").write_text(
        json.dumps(_TIMINGS, indent=2, sort_keys=True) + "\n")


def _best_of(k: int, fn) -> float:
    ts = []
    for _ in range(k):
        t0 = time.perf_counter()
        fn()
        ts.append(time.perf_counter() - t0)
    return min(ts)


def _auto_jobs() -> int:
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def _regenerate() -> list[str]:
    return [run_experiment(f, fast=False, seed=0).render()
            for f in FIGURES]


@pytest.mark.perfsmoke
def test_parallel_plus_cache_speedup(tmp_path):
    # Baseline: ROUNDS serial, uncached regenerations.
    t0 = time.perf_counter()
    baseline_renders = [_regenerate() for _ in range(ROUNDS)]
    serial_s = time.perf_counter() - t0

    # Optimized: same rounds under one context — parallel fan-out on
    # the cold round, cache replay on the warm ones.
    jobs = _auto_jobs()
    t0 = time.perf_counter()
    with perf_context(jobs=jobs, cache=RunCache(tmp_path)):
        optimized_renders = [_regenerate() for _ in range(ROUNDS)]
    optimized_s = time.perf_counter() - t0

    assert optimized_renders == baseline_renders  # byte-identical
    speedup = serial_s / optimized_s
    _record(perfsmoke_serial_uncached=serial_s,
            perfsmoke_optimized=optimized_s)
    print(f"\n{ROUNDS} rounds of {'+'.join(FIGURES)} (full mode, "
          f"jobs={jobs}): serial/uncached {serial_s:.3f} s, "
          f"parallel+cached {optimized_s:.3f} s -> {speedup:.1f}x")
    assert speedup >= 2.0, (
        f"expected >= 2x, got {speedup:.2f}x "
        f"({serial_s:.3f} s vs {optimized_s:.3f} s)"
    )


@pytest.mark.perfsmoke
def test_multitrial_sweep_wall_time():
    """The budget benchmark from the vectorization PR: a serial,
    uncached 32-trial sweep over the Figs. 5-7 grid.  Recorded as
    absolute seconds; ``benchmarks/budgets.json`` requires >= 2x over
    the committed pre-vectorization baseline."""
    # Warm platform resolution caches so we time the sweep, not the
    # build (same recipe as the committed baseline capture).
    run_experiment("fig5", fast=False, seed=0)
    platform = get_platform("ofp-default")

    def sweep32():
        sweep_platform_apps(platform, APPS, NODE_COUNTS, 32, 0)

    t = _best_of(3, sweep32)
    _record(sweep_multitrial_32trials=t)
    print(f"\n32-trial {len(APPS)}x{len(NODE_COUNTS)}x2 sweep "
          f"(serial, uncached): {t:.3f} s best-of-3")


@pytest.mark.perfsmoke
def test_trial_batching_bit_identical_and_faster(monkeypatch):
    """Same-run loop-vs-batched pair: AppRunner's batched noise
    sampling must return bit-identical trial times and beat the
    per-trial loop, which this test patches over ``sample_batch`` as
    its reference.  The ratio of the two entries is machine-free and
    is a hard ``vs`` budget gate."""
    resolved = build(get_platform("ofp-default"))
    runner = AppRunner(resolved.machine, ALL_PROFILES["AMG2013"](),
                       seed=0)
    os_instance, n = resolved.os_instance, 1024

    def run():
        return runner.run(os_instance, n, n_runs=64)

    with monkeypatch.context() as m:
        m.setattr(BarrierDelaySampler, "sample_batch",
                  lambda self, k, rngs: np.stack([self.sample(k, rng)
                                                  for rng in rngs]))
        looped = run()
        t_loop = _best_of(3, run)
    batched = run()
    t_batch = _best_of(3, run)
    assert batched.times == looped.times  # bitwise, not approx
    assert batched == looped
    _record(apprunner_64trials_loop=t_loop,
            apprunner_64trials_batched=t_batch)
    print(f"\nAppRunner 64 trials @ {n} nodes: loop {t_loop:.4f} s, "
          f"batched {t_batch:.4f} s -> {t_loop / t_batch:.1f}x")
