"""Benchmark entry point: one workload, one run, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep --seed 3 --seconds 10 --trace 0

Every run times ``REPS`` untraced phases of the workload.
``--trace 0`` prints their end-to-end metrics; every time among them
is scaled to reference speed (see ``refclock.py``), and the raw wall
times are printed on the human-readable lines.  ``--trace 1`` then
runs one more phase with spans around each layer's public calls,
checks that it produced the same output bytes, and prints the
per-layer metrics.  Human-readable lines come first; the last line of
stdout is the JSON result.

The program under test is imported from ``src/`` of the current
directory; without it the benchmark exits with code 2 and prints no
result.
"""

import os
import time

# Let the file system finish what earlier processes left (see
# ``workloads.Timer``) before the set-up clock starts.
os.sync()
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
#: Setup samples per run: this process plus ``SETUP_SAMPLES - 1``
#: child processes that only set up; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Untraced timed phases per run, each on fresh state; ``wall_s``,
#: ``cpu_s`` and ``ops_per_s`` are their medians and the latency
#: percentiles pool their ops, so one slow spell of a shared host
#: moves a run less.
REPS = 3
#: One BLAS/OpenMP thread: with the drain worker's heartbeat thread a
#: run then uses at most two threads, as many as the benchmark host.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1])."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print {'setup_s': ...} and exit")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def child_setup_s(args) -> "tuple[float, float]":
    """Set-up time of a fresh process on the same inputs, at
    reference speed and raw."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc["setup_s"], doc["raw_setup_s"]


def end_to_end(out: "Outcome", setups) -> dict:
    phases = out.phases
    lat = [x for ph in phases for x in ph.latencies]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(ph.wall_s for ph in phases), "s"),
        "cpu_s": (statistics.median(ph.cpu_s for ph in phases), "s"),
        "ops_per_s": (statistics.median(
            (ph.attempted - len(ph.failed)) / ph.wall_s for ph in phases),
            "1/s"),
        "latency_p50_ms": (percentile(lat, 0.5) * 1e3 if lat else 0.0, "ms"),
        "latency_p90_ms": (percentile(lat, 0.9) * 1e3 if lat else 0.0, "ms"),
        "peak_rss_mb": (out.peak_rss_mb, "MB"),
    }


@dataclass
class Outcome:
    """What one run measured, before it is turned into metrics."""

    #: Set-up time at reference speed, and raw.
    setup_s: float
    raw_setup_s: float = 0.0
    #: The untraced timed phases, checked.
    phases: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: Phase-level check failures, untraced and traced.
    errors: list = field(default_factory=list)
    #: Traced run only: the traced phase, its tracer, and the root
    #: share of each span name (see :func:`spans.root_shares`).
    traced: object = None
    tracer: object = None
    shares: dict = field(default_factory=dict)
    #: Every timed reference slice of the run, seconds.
    ref_samples: list = field(default_factory=list)


def execute(workload: str, seed: int, seconds: float, root: pathlib.Path,
            trace: bool, setup_only: bool = False) -> Outcome:
    """Set up ``workload`` in a scratch directory under ``root``, run
    and check its :data:`REPS` untraced timed phases and, if ``trace``,
    one more phase under spans whose outputs must be byte-identical."""
    import spans
    from workloads import WORKLOADS

    workdir = scratch_dir(root, workload)
    try:
        wl = WORKLOADS[workload](seed, seconds, workdir)
        wl.ref.tick(force=True)
        wl.prepare()
        t_setup = time.perf_counter()
        wl.ref.tick(force=True)
        out = Outcome(setup_s=wl.ref.scaled(T0, t_setup),
                      raw_setup_s=t_setup - T0)
        if setup_only:
            return out
        out.phases = [wl.phase(f"untraced{i}") for i in range(REPS)]
        out.peak_rss_mb = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for i, ph in enumerate(out.phases):
            wl.check(ph, full=i == 0)
            out.errors += ph.errors
            if ph.digest != out.phases[0].digest:
                out.errors.append(f"untraced phase {i} outputs differ "
                                  "from phase 0")
        if trace:
            tracer = spans.Tracer()
            wl.tracer = tracer
            with spans.Installer(tracer):
                tph = wl.phase("traced")
            wl.tracer = None
            wl.check(tph, full=False)
            out.errors += tph.errors
            out.errors += [f"traced op {op}: {why}"
                           for op, why in sorted(tph.failed.items())]
            if tph.digest != out.phases[0].digest:
                out.errors.append("traced outputs differ from untraced "
                                  "outputs")
            out.traced, out.tracer = tph, tracer
            out.shares = spans.root_shares(tracer, tph.busy_s)
        out.ref_samples = wl.ref.samples
        return out
    finally:
        remove_scratch(workdir)


def run(args, root: pathlib.Path) -> dict:
    import spans

    out = execute(args.workload, args.seed, args.seconds, root,
                  bool(args.trace), args.setup_only)
    if args.setup_only:
        return {"setup_s": out.setup_s, "raw_setup_s": out.raw_setup_s}
    phases = out.phases
    lines = [f"workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace} reps={REPS}"]
    if args.trace:
        wall = statistics.median(ph.wall_s for ph in phases)
        extra = dict(out.traced.extra,
                     overhead_frac=out.traced.wall_s / wall - 1.0)
        values = spans.layer_metrics(out.tracer, extra)
        units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
        metrics = {k: (v, units[k]) for k, v in values.items()}
        lines += [f"  share {name} = {share:.3f}"
                  for name, share in out.shares.items() if share >= 0.01]
    else:
        samples = [(out.setup_s, out.raw_setup_s)] + [
            child_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]
        metrics = end_to_end(out, [s for s, _ in samples])
        lines.append("  setup samples, scaled/raw (s): " + ", ".join(
            f"{s:.3f}/{raw:.3f}" for s, raw in samples))
    lines.append(f"  reference slice median: "
                 f"{statistics.median(out.ref_samples) * 1e3:.3f} ms "
                 f"(n={len(out.ref_samples)})")
    lines.append("  untraced phase walls, scaled/raw (s): " + ", ".join(
        f"{ph.wall_s:.3f}/{ph.raw_wall_s:.3f}" for ph in phases))
    attempted = sum(ph.attempted for ph in phases)
    failed = sum(len(ph.failed) for ph in phases)
    errors = out.errors
    lines.append(f"  failed_frac = {failed / attempted:.4g} "
                 f"({failed}/{attempted})")
    lines += [f"  phase {i} op {op} failed: {why}"
              for i, ph in enumerate(phases)
              for op, why in sorted(ph.failed.items())][:10]
    lines += [f"  error: {e}" for e in errors]
    n = sum(len(ph.latencies) for ph in phases)
    for name, (value, unit) in metrics.items():
        note = f" (n={n})" if name.startswith("latency") else ""
        lines.append(f"  {name} = {value:.6g} {unit}{note}")
    print("\n".join(lines))
    return {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed + (1 if errors and not failed else 0),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def _spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def enter_checkout(root: pathlib.Path) -> bool:
    """Point imports at ``root/src`` and keep the process to at most
    two threads; False when ``root`` holds no program."""
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout "
              "(no src/repro here)", file=sys.stderr)
        return False
    for name in THREAD_ENV:
        os.environ.setdefault(name, "1")
    sys.path[:0] = [str(HERE), str(root / "src")]
    return True


def scratch_dir(root: pathlib.Path, name: str) -> pathlib.Path:
    """A fresh per-process directory inside the checkout, also holding
    the program's default cache and service locations."""
    workdir = root / ".perfbench_tmp" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "default-cache")
    os.environ["REPRO_SERVICE_DIR"] = str(workdir / "default-service")
    return workdir


def remove_scratch(workdir: pathlib.Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:
        pass
    # Write the deletions back now, so the next run does not start in
    # their wake.
    os.sync()


def main(argv=None) -> int:
    root = pathlib.Path.cwd()
    if not enter_checkout(root):
        return 2
    args = parse_args(argv)
    result = run(args, root)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
