"""The four workloads: paper, sweep, service and analyze.

Each workload is a closed loop with one client in one process: the
next op starts when the previous one returned.  Inputs come from the
seeded generators in :mod:`inputs` and :mod:`corpus`; sizes scale with
``--seconds`` so a run holds a fixed amount of work (wall time is then
a measurement of that work, not of how many ops fit in a window).

A workload is built in three steps: ``__init__`` generates inputs,
``prepare`` imports the program, makes temporary directories and runs
one untimed warm-up op (all of which is set-up time), and ``phase``
runs the timed ops on fresh state.  ``check`` verifies a phase's
outputs after its clock stopped.

Every time a phase reports is scaled to reference speed by the
workload's :class:`refclock.RefClock`, which ticks before an op
whenever ``refclock.INTERVAL_S`` has passed since the last tick (and,
on ``paper``, whose ops last seconds, also at the entry of the
program's experiment, noise and runtime calls).
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import functools
import hashlib
import json
import os
import pathlib
import resource
import shutil
import time
from dataclasses import dataclass, field

import corpus as corpus_gen
import inputs
import refclock
import spans

clock = time.perf_counter

#: Size of one timed phase at ``--seconds 10``; sizes scale linearly
#: with ``--seconds`` and are the same for every commit.  A run times
#: three phases (``run.REPS``).
PAPER_OPS = 2
SWEEP_BATCHES = 200
SERVICE_JOBS = 400
ANALYZE_MODULES = 40
SWEEP_SEGMENTS = 8

_FIG4_OFP = ("OFP Linux (1,024 nodes)", "OFP McKernel (1,024 nodes)")
_FIG4_RACKS = ("Fugaku Linux (24 racks)", "Fugaku McKernel (24 racks)")


def _plain(value):
    """JSON-able form of program outputs (numpy, dataclasses, enums)."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _plain(dataclasses.asdict(value))
    if isinstance(value, enum.Enum):
        return _plain(value.value)
    tolist = getattr(value, "tolist", None)
    if tolist is not None:
        return _plain(tolist())
    return value


def digest(value) -> str:
    blob = json.dumps(_plain(value), sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


@dataclass
class Phase:
    """Outcome of one timed phase."""

    #: Wall and CPU time at reference speed (see :mod:`refclock`).
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: Raw wall time, and raw wall time outside reference ticks.
    raw_wall_s: float = 0.0
    busy_s: float = 0.0
    #: Per-op (start, end) clock readings, and the per-op latency at
    #: reference speed, seconds.
    op_times: "list[tuple[float, float]]" = field(default_factory=list)
    latencies: "list[float]" = field(default_factory=list)
    attempted: int = 0
    #: Op index -> reason, for ops that raised or failed their check.
    failed: "dict[int, str]" = field(default_factory=dict)
    #: Whole-phase check failures (not attributable to one op).
    errors: "list[str]" = field(default_factory=list)
    #: Digest of every output, compared between untraced and traced.
    digest: str = ""
    #: Workload-specific data for checks and per-layer metrics.
    extra: dict = field(default_factory=dict)

    def finish(self, timer: "Timer", ref: refclock.RefClock) -> None:
        """Fill in the phase's times from ``timer`` and ``ref``."""
        t0, t1 = timer.t0, timer.t1
        self.raw_wall_s = t1 - t0
        self.busy_s = ref.busy(t0, t1)
        self.wall_s = ref.scaled(t0, t1)
        # CPU time has no local speed record of its own; it takes the
        # phase's mean speed factor.
        cpu = timer.cpu_s - ref.slice_cpu(t0, t1)
        self.cpu_s = cpu * self.wall_s / self.busy_s
        self.latencies = [ref.scaled(a, b) for a, b in self.op_times]


class Timer:
    """Wall and CPU clock around the timed part of a phase, with a
    reference tick just before and just after it."""

    def __init__(self, ref: refclock.RefClock) -> None:
        self.ref = ref

    def __enter__(self) -> "Timer":
        # Write back what earlier phases and processes left dirty.  On
        # the tuning host's ext4 (mounted with ``discard``), file
        # creates and unlinks took 1.5 ms instead of 0.09 ms until the
        # next sync after a few thousand files had been deleted.
        os.sync()
        self.ref.tick(force=True)
        self.cpu0, self.t0 = _cpu_s(), clock()
        return self

    def __exit__(self, *exc) -> None:
        self.t1 = clock()
        self.cpu_s = _cpu_s() - self.cpu0
        self.ref.tick(force=True)


class Workload:
    name = ""
    #: The reference slice that tracks this workload's speed.
    reference = refclock.MIXED

    def __init__(self, seed: int, seconds: float,
                 workdir: pathlib.Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tracer = None
        self.ref = refclock.RefClock(self.reference)

    def begin_op(self, op: int, group: str = "") -> None:
        self.ref.tick()
        if self.tracer is not None:
            self.tracer.begin_op(op, group)

    def prepare(self) -> None:
        raise NotImplementedError

    def phase(self, tag: str) -> Phase:
        raise NotImplementedError

    def check(self, phase: Phase, full: bool = True) -> None:
        """Record failed ops and phase errors on ``phase``."""


# -- paper -------------------------------------------------------------


class Ticking(spans.Patcher):
    """Runs the reference clock's ``tick`` at the entry of the program
    calls a paper regeneration makes most often, so that its
    seconds-long op is sampled inside as well as at its ends."""

    def __init__(self, ref: refclock.RefClock) -> None:
        super().__init__()
        self.ref = ref

    def _wrap(self, fn):
        tick = self.ref.tick

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        from repro.apps import fwq
        from repro.engine import ExecutionEngine
        from repro.noise import sampler
        from repro.noise.analytic import IterationMixture
        from repro.runtime.runner import AppRunner

        for cls, attr in ((ExecutionEngine, "run_experiment"),
                          (AppRunner, "run"),
                          (IterationMixture, "quantile"),
                          (IterationMixture, "cdf_curve"),
                          (IterationMixture, "expected_max")):
            self._set(cls, attr, self._wrap(cls.__dict__[attr]))
        for fn in (fwq.run_mpi_fwq, sampler.multi_core_fwq,
                   sampler.worst_nodes):
            self.rebind(fn, self._wrap(fn))



class Paper(Workload):
    """One op regenerates all 13 experiments at paper scale."""

    name = "paper"
    reference = refclock.ARRAYS

    def __init__(self, seed, seconds, workdir):
        super().__init__(seed, seconds, workdir)
        self.inputs = inputs.paper_inputs(seed)
        self.n_ops = max(1, round(seconds / 10 * PAPER_OPS))

    def prepare(self) -> None:
        from repro.engine import ExecutionEngine
        from repro.experiments.registry import EXPERIMENTS

        missing = sorted(set(self.inputs["experiments"]) - set(EXPERIMENTS))
        if missing:
            raise RuntimeError(f"experiments not registered: {missing}")
        self.engine = ExecutionEngine()
        # Warm-up: one full regeneration.  The first one in a process
        # also grows the heap to its ~1 GB peak, which later ones reuse.
        with Ticking(self.ref):
            self.engine.run_experiments(self.inputs["experiments"],
                                        fast=False, seed=self.seed)

    def phase(self, tag: str) -> Phase:
        ph = Phase(attempted=self.n_ops)
        results = []
        # Traced, ticks stay at op boundaries: inside the op they
        # would add to the spans that enclose them.
        ticking = Ticking(self.ref) if self.tracer is None \
            else contextlib.nullcontext()
        with ticking, Timer(self.ref) as timer:
            for op in range(self.n_ops):
                self.begin_op(op)
                t0 = clock()
                try:
                    results.append(self.engine.run_experiments(
                        self.inputs["experiments"], fast=False,
                        seed=self.seed))
                except Exception as exc:  # counted, never fatal
                    results.append(None)
                    ph.failed[op] = f"{type(exc).__name__}: {exc}"
                ph.op_times.append((t0, clock()))
        ph.finish(timer, self.ref)
        ph.extra["results"] = results
        return ph

    def check(self, ph: Phase, full: bool = True) -> None:
        digests = []
        for op, res in enumerate(ph.extra.pop("results")):
            if res is None:
                continue
            if list(res) != self.inputs["experiments"]:
                ph.failed[op] = f"results for {sorted(res)}"
                continue
            d = digest([{"id": eid, "title": r.title, "text": r.render(),
                         "data": r.data,
                         "paper_reference": r.paper_reference}
                        for eid, r in res.items()])
            digests.append(d)
            if d != digests[0]:
                ph.failed[op] = "regeneration differs from the first op"
                continue
            q = {k: v["quantiles_ms"]["expected_max"]
                 for k, v in res["fig4"].data.items()}
            if not q[_FIG4_OFP[1]] < q[_FIG4_OFP[0]]:
                ph.failed[op] = "fig4: OFP McKernel max not below Linux"
            elif not q[_FIG4_RACKS[1]] <= q[_FIG4_RACKS[0]]:
                ph.failed[op] = "fig4: 24-rack McKernel worse than Linux"
        ph.digest = digests[0] if digests else ""


# -- sweep -------------------------------------------------------------


class Sweep(Workload):
    """One op runs a six-cell batch through ``run_specs`` with a
    persistent run cache; a quarter of batches repeat earlier ones."""

    name = "sweep"

    def __init__(self, seed, seconds, workdir):
        super().__init__(seed, seconds, workdir)
        n = max(8, round(seconds / 10 * SWEEP_BATCHES))
        self.batches = inputs.sweep_inputs(seed, n)
        self.specs = [inputs.batch_specs(b) for b in self.batches]

    def prepare(self) -> None:
        from repro.engine import ExecutionEngine
        from repro.perf.cache import RunCache
        from repro.platform.spec import RunSpec

        self.ExecutionEngine, self.RunCache = ExecutionEngine, RunCache
        self.RunSpec = RunSpec
        warm = inputs.sweep_inputs(self.seed + 1_000_003, 1)[0]
        self._run(self._engine(self.workdir / "warmup-cache"),
                  inputs.batch_specs(warm))

    def _engine(self, cache_dir: pathlib.Path):
        return self.ExecutionEngine.from_options(
            cache=self.RunCache(cache_dir))

    def _run(self, engine, spec_docs):
        return engine.run_specs([self.RunSpec.from_dict(d)
                                 for d in spec_docs])

    def phase(self, tag: str) -> Phase:
        cache_dir = self.workdir / tag / "cache"
        n = len(self.batches)
        ph = Phase(attempted=n)
        results: list = [None] * n
        segment = -(-n // SWEEP_SEGMENTS)
        with Timer(self.ref) as timer:
            for op in range(n):
                if op % segment == 0:
                    # A new CLI invocation: fresh cache object, same dir.
                    engine = self._engine(cache_dir)
                self.begin_op(op)
                t0 = clock()
                try:
                    results[op] = self._run(engine, self.specs[op])
                except Exception as exc:  # counted, never fatal
                    ph.failed[op] = f"{type(exc).__name__}: {exc}"
                ph.op_times.append((t0, clock()))
        ph.finish(timer, self.ref)
        ph.extra["results"] = results
        return ph

    def check(self, ph: Phase, full: bool = True) -> None:
        digests = {}
        for op, res in enumerate(ph.extra.pop("results")):
            if res is None:
                continue
            batch = self.batches[op]
            d = digests[op] = digest(res)
            if len(res) != len(self.specs[op]):
                ph.failed[op] = "wrong number of results"
            first = batch["repeat_of"]
            if first is not None and digests.get(first) != d:
                ph.failed[op] = f"repeat of batch {first} differs"
        ph.digest = digest([digests.get(i) for i in range(len(self.batches))])


# -- service -----------------------------------------------------------


def _timed_queue(JobQueue):
    """A JobQueue that records each job's (start, end) clock readings,
    from its ``claim_next`` call to its ``complete`` return."""

    class TimedQueue(JobQueue):
        workload = None

        def claim_next(self, worker_id):
            wl = self.workload
            op = len(self.claimed)
            wl.begin_op(op, "job")
            t0 = clock()
            out = super().claim_next(worker_id)
            if out is not None:
                self.claimed.append((out[0], t0))
            return out

        def complete(self, job_id, worker_id, attempt):
            super().complete(job_id, worker_id, attempt)
            op = len(self.claimed) - 1
            if self.claimed[op][0] == job_id:
                self.latency[op] = (self.claimed[op][1], clock())

    return TimedQueue


class Service(Workload):
    """One submitter enqueues the backlog into a durable queue, then
    one in-process drain worker executes it; one op is one job."""

    name = "service"

    def __init__(self, seed, seconds, workdir):
        super().__init__(seed, seconds, workdir)
        n = max(10, round(seconds / 10 * SERVICE_JOBS))
        self.jobs = inputs.service_inputs(seed, n)

    def prepare(self) -> None:
        from repro.engine import ExecutionEngine
        from repro.perf.cache import result_to_dict
        from repro.service.fsck import verify_service
        from repro.service.jobs import JobSpec
        from repro.service.queue import JobQueue, JobState
        from repro.service.worker import Worker

        self.Queue = _timed_queue(JobQueue)
        self.Worker, self.JobState = Worker, JobState
        self.ExecutionEngine, self.result_to_dict = ExecutionEngine, \
            result_to_dict
        self.verify_service = verify_service
        self.jobspecs = [JobSpec.from_dict(j) for j in self.jobs]
        # Warm-up: one sweep job and one experiment job, drained from a
        # scratch queue (the timed phase starts on an empty one).
        warm = inputs.service_inputs(self.seed + 1_000_003, 5)
        self._drain(self.workdir / "warmup-svc",
                    [JobSpec.from_dict(warm[0]), JobSpec.from_dict(warm[4])])

    def _drain(self, root: pathlib.Path, jobspecs):
        queue = self.Queue(root, durable=True)
        queue.workload, queue.claimed, queue.latency = self, [], {}
        self.begin_op(-1, "submit")
        ids = [queue.submit(js) for js in jobspecs]
        self.Worker(queue, worker_id="bench-worker", drain=True).run()
        return queue, ids

    def phase(self, tag: str) -> Phase:
        ph = Phase(attempted=len(self.jobs))
        with Timer(self.ref) as timer:
            queue, ids = self._drain(self.workdir / tag / "svc",
                                     self.jobspecs)
        ph.op_times = [queue.latency[op] for op in sorted(queue.latency)]
        ph.finish(timer, self.ref)
        # Raw, as the spans it is compared with.
        ph.extra.update(queue=queue, ids=ids,
                        job_latency_s={op: b - a for op, (a, b)
                                       in queue.latency.items()})
        return ph

    def check(self, ph: Phase, full: bool = True) -> None:
        queue, ids = ph.extra.pop("queue"), ph.extra.pop("ids")
        table = queue.table()
        order = {job_id: op for op, (job_id, _) in enumerate(queue.claimed)}
        files: dict = {}
        for i, job_id in enumerate(ids):
            view = table.get(job_id)
            if view is None or view.state is not self.JobState.DONE:
                ph.failed[i] = f"job {job_id} not done"
                continue
            if order.get(job_id) not in queue.latency:
                ph.failed[i] = f"job {job_id} has no latency"
            rdir = queue.result_dir(job_id)
            files[i] = {p.relative_to(rdir).as_posix(): p.read_bytes()
                        for p in sorted(rdir.rglob("*")) if p.is_file()}
        # Resubmitted jobs publish the same bytes as the first one.
        first: dict = {}
        for i, job in enumerate(self.jobs):
            key = inputs.input_bytes(job)
            if i not in files:
                continue
            if key in first and files[first[key]] != files[i]:
                ph.failed[i] = f"resubmit differs from job {first[key]}"
            first.setdefault(key, i)
        report = self.verify_service(queue.root)
        if not report["clean"]:
            ph.errors.append(f"fsck: {report['violations'][:3]}")
        if full:
            engine = self.ExecutionEngine()
            for key, i in sorted(first.items(), key=lambda kv: kv[1]):
                if self.jobs[i]["kind"] != "sweep" or i not in files:
                    continue
                got = json.loads(files[i]["results.json"])["results"]
                want = [self.result_to_dict(r) for r in
                        engine.run_specs(self.jobspecs[i].specs)]
                if got != json.loads(json.dumps(want)):
                    ph.failed[i] = "results.json differs from serial run"
        ph.digest = digest([sorted((k, hashlib.sha256(v).hexdigest())
                                   for k, v in files.get(i, {}).items())
                            for i in range(len(ids))])


# -- analyze -----------------------------------------------------------


class Analyze(Workload):
    """One op is ``crash_report`` plus ``lint_paths`` on one module of
    a synthetic corpus; two passes with edits between them, each pass
    closed by one whole-corpus ``crash_report``."""

    name = "analyze"

    def __init__(self, seed, seconds, workdir):
        super().__init__(seed, seconds, workdir)
        n = max(8, round(seconds / 10 * ANALYZE_MODULES))
        self.corpus = corpus_gen.generate(seed, n)
        self.texts = [m.text() for m in self.corpus.modules]
        self.edit_texts = {i: m.text() for i, m in self.corpus.edits.items()}

    def prepare(self) -> None:
        from repro.analysis import crashsafe, linter

        self.crashsafe, self.linter = crashsafe, linter
        cat = self.corpus.catalogue()
        self.catalogue = crashsafe.ChaosCatalogue(
            points=tuple(cat["points"]),
            write_sites=frozenset(cat["write_sites"]),
            registry={k: tuple(v) for k, v in cat["registry"].items()})
        root = self._write(self.workdir / "warmup")
        self._op(root / self.corpus.modules[0].relpath, root)

    def _write(self, root: pathlib.Path) -> pathlib.Path:
        for mod, text in zip(self.corpus.modules, self.texts):
            path = root / mod.relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        (root / "docs").mkdir(parents=True, exist_ok=True)
        (root / "docs" / "CHAOS.md").write_text(self.corpus.docs())
        return root

    def _op(self, path: pathlib.Path, root: pathlib.Path):
        # Called through the modules so traced wrappers apply.
        report = self.crashsafe.crash_report(
            [path], catalogue=self.catalogue,
            docs_path=root / "docs" / "CHAOS.md")
        lint = self.linter.lint_paths([path]) if path.is_file() else None
        return report, lint

    def phase(self, tag: str) -> Phase:
        root = self._write(self.workdir / tag)
        mods = self.corpus.modules
        n = len(mods)
        ph = Phase(attempted=2 * (n + 1))
        outputs: list = []
        pass_s = {}
        with Timer(self.ref) as timer:
            for p in (1, 2):
                t_pass = clock()
                if p == 2:
                    for i, text in self.edit_texts.items():
                        (root / mods[i].relpath).write_text(text)
                for i in range(n + 1):
                    op = (p - 1) * (n + 1) + i
                    self.begin_op(op, f"pass{p}")
                    path = root / "repro" if i == n else \
                        root / mods[i].relpath
                    t0 = clock()
                    try:
                        outputs.append(self._op(path, root))
                    except Exception as exc:  # counted, never fatal
                        outputs.append(None)
                        ph.failed[op] = f"{type(exc).__name__}: {exc}"
                    ph.op_times.append((t0, clock()))
                pass_s[f"pass{p}"] = self.ref.busy(t_pass, clock())
        ph.finish(timer, self.ref)
        ph.extra.update(outputs=outputs, pass_s=pass_s)
        shutil.rmtree(root, ignore_errors=True)
        return ph

    def check(self, ph: Phase, full: bool = True) -> None:
        outputs = ph.extra.pop("outputs")
        mods = self.corpus.modules
        n = len(mods)
        catalogue_path = self.crashsafe.CATALOGUE_PATH
        seen: list = []
        wholes: list = []
        total = 0
        for p in (1, 2):
            version = [self.corpus.edits.get(i, m) if p == 2 else m
                       for i, m in enumerate(mods)]
            for i in range(n + 1):
                op = (p - 1) * (n + 1) + i
                out = outputs[op]
                if out is None:
                    seen.append(None)
                    continue
                report, lint = out
                if i == n:
                    got = sorted((f.rule_id, f.path, f.scope)
                                 for f in report.findings)
                    want = sorted((r, m.relpath, s) for m in version
                                  for r, s in m.expected()
                                  if not r.startswith("DET"))
                    total += len(got)
                    wholes.append(got)
                    if got != want:
                        ph.failed[op] = "whole-corpus findings differ"
                    continue
                rel = version[i].relpath
                mine = [f for f in report.findings if f.path == rel] + \
                    list(lint.findings)
                stray = [f for f in report.findings if f.path != rel and
                         not (f.path == catalogue_path
                              and f.rule_id == "CC004")]
                total += len(mine)
                full_findings = sorted(
                    (f.rule_id, f.path, f.line, f.col, f.scope, f.snippet,
                     f.message) for f in mine)
                seen.append(full_findings)
                if sorted((f.rule_id, f.scope) for f in mine) \
                        != version[i].expected() or stray:
                    ph.failed[op] = f"{rel}: findings differ"
                elif p == 2 and i not in self.corpus.edits \
                        and full_findings != seen[i]:
                    ph.failed[op] = f"{rel}: pass 2 differs from pass 1"
        ph.extra["findings"] = total
        ph.digest = digest([seen, wholes])


WORKLOADS = {w.name: w for w in (Paper, Sweep, Service, Analyze)}
