"""The traced run: spans around each layer's public calls.

Wrappers live here only; nothing in the program is edited.  Installing
them rebinds each wrapped callable wherever the program holds it (the
class attribute for methods; every ``repro.*`` module global that is
the function object, for functions imported by name), and uninstalling
restores the originals.

Spans are kept in memory and summarised when the run ends.  Each span
records its name, start, end, parent span, op id and op group.  A
layer's self time is its span's duration minus the time its child
spans cover; a span's children are the wrapped calls it made on the
same thread.
"""

from __future__ import annotations

import ast
import functools
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

#: Experiment id -> span name of its ``ExecutionEngine.run_experiment``.
_EXPERIMENT_SPANS = {"fig4": "experiments.fig4",
                     "table2": "experiments.table2",
                     "fig5": "experiments.apps", "fig6": "experiments.apps",
                     "fig7": "experiments.apps"}


class Tracer:
    """In-memory span recorder (one per traced run)."""

    def __init__(self) -> None:
        #: [name, start, end, parent span or None, op, group]
        self.spans: list[list] = []
        #: (counter, group) -> value, for counts taken at span exits.
        self.counts: Counter = Counter()
        self.op = -1
        self.group = ""
        self._local = threading.local()

    def begin_op(self, op: int, group: str) -> None:
        self.op = op
        self.group = group

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: "str | Callable", fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``name`` may be a
        function of the call's arguments."""
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            stack = tracer._stack()
            rec = [label, clock(), 0.0, stack[-1] if stack else None,
                   tracer.op, tracer.group]
            tracer.spans.append(rec)
            stack.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    def count(self, key: str, fn: Callable) -> Callable:
        """``fn`` counted (no span): for calls made off the main
        thread, such as the worker's heartbeat."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[(key, tracer.group)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- summaries ----------------------------------------------------

    def self_times(self) -> "list[tuple[list, float]]":
        """(span, self seconds) for every span."""
        child = defaultdict(float)
        for rec in self.spans:
            if rec[3] is not None:
                child[id(rec[3])] += rec[2] - rec[1]
        return [(rec, rec[2] - rec[1] - child[id(rec)])
                for rec in self.spans]

    def summary(self) -> dict:
        """name -> {"calls", "self_s", "incl_s"}; plus per-group
        entries under ``(name, group)`` keys."""
        out: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0,
                                         "incl_s": 0.0})
        for rec, self_s in self.self_times():
            for key in (rec[0], (rec[0], rec[5])):
                row = out[key]
                row["calls"] += 1
                row["self_s"] += self_s
                row["incl_s"] += rec[2] - rec[1]
        return out


class Patcher:
    """Rebinds program callables and restores the originals."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else
                           getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind(self, fn: Callable, wrapped: Callable) -> None:
        """Rebind ``fn`` in every loaded ``repro`` module holding it."""
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapped)

    def install(self) -> None:
        raise NotImplementedError

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Patcher":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


class Installer(Patcher):
    """Installs a tracer's wrappers and restores the originals."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer

    def method(self, cls: type, attr: str, name, on_result=None) -> None:
        self._set(cls, attr, self.tracer.wrap(name, getattr(cls, attr),
                                              on_result))

    def function(self, fn: Callable, name: str) -> None:
        self.rebind(fn, self.tracer.wrap(name, fn))

    def install(self) -> None:
        import repro.experiments.registry  # noqa: F401  (loads all)
        from repro.analysis import cfg, crashsafe, linter
        from repro.apps import fwq
        from repro.engine import ExecutionEngine
        from repro.noise import sampler
        from repro.noise.analytic import IterationMixture
        from repro.perf.cache import RunCache
        from repro.platform import resolve
        from repro.runtime.runner import AppRunner
        from repro.service.journal import Journal
        from repro.service.queue import JobQueue

        t = self.tracer
        counts = t.counts

        def experiment_span(engine, experiment_id, *a, **k):
            return _EXPERIMENT_SPANS.get(experiment_id, "experiments.other")

        def cache_result(result):
            counts[("cache.lookups", t.group)] += 1
            counts[("cache.hits", t.group)] += result is not None

        def records_parsed(records):
            counts[("journal.records_parsed", t.group)] += len(records)

        self.method(ExecutionEngine, "run_experiment", experiment_span)
        self.function(fwq.run_mpi_fwq, "apps.run_mpi_fwq")
        self.function(sampler.multi_core_fwq, "noise.multi_core_fwq")
        self.function(sampler.worst_nodes, "noise.worst_nodes")
        for attr in ("quantile", "cdf_curve", "expected_max"):
            self.method(IterationMixture, attr, "noise.mixture")
        self.method(ExecutionEngine, "run_specs", "engine.run_specs")
        self.method(ExecutionEngine, "export_experiments",
                    "engine.export_experiments")
        self.function(resolve.build, "platform.build")
        self.method(AppRunner, "run", "runtime.app_run")
        self.method(RunCache, "get", "perf.cache_get", cache_result)
        self.method(RunCache, "put", "perf.cache_put")
        self._set(os, "fsync", t.wrap("fs.fsync", os.fsync))
        self.method(JobQueue, "submit", "service.submit")
        self.method(JobQueue, "claim_next", "service.claim_next")
        self.method(JobQueue, "table", "service.table")
        self.method(JobQueue, "mark_running", "service.mark_running")
        self.method(JobQueue, "complete", "service.complete")
        self._set(JobQueue, "heartbeat",
                  t.count("service.heartbeat", JobQueue.heartbeat))
        self.method(Journal, "records", "service.journal_records",
                    records_parsed)
        self.method(Journal, "append", "service.journal_append")
        self._set(ast, "parse", t.wrap("analysis.parse", ast.parse))
        self.function(cfg.build_cfg, "analysis.cfg")
        self.function(cfg.function_cfgs, "analysis.cfg")
        self.function(crashsafe.collect_scan, "analysis.crash_scan")
        self.function(crashsafe.crash_report, "analysis.crash_report")
        self.function(linter.lint_paths, "analysis.lint")


def _ms(seconds: float) -> float:
    return seconds * 1e3


def layer_metrics(tracer: Tracer, extra: dict) -> dict:
    """Every per-layer metric of one traced run.

    ``extra`` carries what the workload measured itself:
    ``job_latency_s`` (op -> seconds, service jobs), ``pass_s``
    (pass -> seconds, analyze), ``findings`` and ``overhead_frac``.
    """
    s = tracer.summary()
    c = tracer.counts

    def self_ms(*names: str) -> float:
        return _ms(sum(s[n]["self_s"] for n in names if n in s))

    def calls(*names: str) -> int:
        return sum(s[n]["calls"] for n in names if n in s)

    def counted(key: str, group: Optional[str] = None) -> int:
        return sum(v for (k, g), v in c.items()
                   if k == key and (group is None or g == group))

    def ratio(hits: int, lookups: int) -> float:
        return hits / lookups if lookups else 0.0

    # Job latency minus the wrapped calls made inside the job: publish
    # rename, heartbeat thread start/join, jobspec read, worker loop.
    latency = extra.get("job_latency_s", {})
    covered = defaultdict(float)
    for rec, _ in tracer.self_times():
        if rec[3] is None and rec[4] in latency:
            covered[rec[4]] += rec[2] - rec[1]
    residual = sum(latency[op] - covered[op] for op in latency)
    engine_in_jobs = sum(
        s[(n, "job")]["incl_s"] for n in ("engine.run_specs",
                                          "engine.export_experiments")
        if (n, "job") in s)
    pass_s = extra.get("pass_s", {})

    metrics = {
        "experiments.fig4_ms": self_ms("experiments.fig4"),
        "experiments.table2_ms": self_ms("experiments.table2"),
        "experiments.apps_ms": self_ms("experiments.apps"),
        "experiments.other_ms": self_ms("experiments.other"),
        "apps.run_mpi_fwq_ms": self_ms("apps.run_mpi_fwq"),
        "apps.run_mpi_fwq_calls": calls("apps.run_mpi_fwq"),
        "noise.multi_core_fwq_ms": self_ms("noise.multi_core_fwq"),
        "noise.multi_core_fwq_calls": calls("noise.multi_core_fwq"),
        "noise.worst_nodes_ms": self_ms("noise.worst_nodes"),
        "noise.worst_nodes_calls": calls("noise.worst_nodes"),
        "noise.mixture_ms": self_ms("noise.mixture"),
        "noise.mixture_calls": calls("noise.mixture"),
        "engine.run_specs_ms": self_ms("engine.run_specs"),
        "platform.build_ms": self_ms("platform.build"),
        "platform.build_calls": calls("platform.build"),
        "runtime.app_run_ms": self_ms("runtime.app_run"),
        "runtime.app_run_calls": calls("runtime.app_run"),
        "perf.cache_get_ms": self_ms("perf.cache_get"),
        "perf.cache_get_calls": calls("perf.cache_get"),
        "perf.cache_hit_ratio": ratio(counted("cache.hits"),
                                      counted("cache.lookups")),
        "perf.cache_put_ms": self_ms("perf.cache_put"),
        "perf.cache_put_calls": calls("perf.cache_put"),
        "fs.fsync_ms": self_ms("fs.fsync"),
        "fs.fsync_calls": calls("fs.fsync"),
        "service.submit_ms": self_ms("service.submit"),
        "service.submit_calls": calls("service.submit"),
        "service.claim_next_ms": self_ms("service.claim_next"),
        "service.claim_next_calls": calls("service.claim_next"),
        "service.table_ms": self_ms("service.table"),
        "service.table_calls": calls("service.table"),
        "service.journal_records_ms": self_ms("service.journal_records"),
        "service.journal_records_calls": calls("service.journal_records"),
        "service.journal_records_parsed":
            counted("journal.records_parsed"),
        "service.journal_append_ms": self_ms("service.journal_append"),
        "service.journal_append_calls": calls("service.journal_append"),
        "service.mark_running_ms": self_ms("service.mark_running"),
        "service.complete_ms": self_ms("service.complete"),
        "service.heartbeat_calls": counted("service.heartbeat"),
        "service.engine_ms": _ms(engine_in_jobs),
        "service.cache_hit_ratio": ratio(counted("cache.hits", "job"),
                                         counted("cache.lookups", "job")),
        "service.worker_residual_ms": _ms(residual),
        "analysis.parse_ms": self_ms("analysis.parse"),
        "analysis.parse_calls": calls("analysis.parse"),
        "analysis.pass2_parse_calls":
            s[("analysis.parse", "pass2")]["calls"]
            if ("analysis.parse", "pass2") in s else 0,
        "analysis.cfg_ms": self_ms("analysis.cfg"),
        "analysis.cfg_calls": calls("analysis.cfg"),
        "analysis.pass1_ms": _ms(pass_s.get("pass1", 0.0)),
        "analysis.pass2_ms": _ms(pass_s.get("pass2", 0.0)),
        "analysis.crash_scan_ms": self_ms("analysis.crash_scan"),
        "analysis.crash_report_ms": self_ms("analysis.crash_report"),
        "analysis.lint_ms": self_ms("analysis.lint"),
        "analysis.findings": extra.get("findings", 0),
        "trace.overhead_frac": extra.get("overhead_frac", 0.0),
    }
    return metrics


def root_shares(tracer: Tracer, wall_s: float) -> dict:
    """Inclusive time of each span name, counting only outermost
    spans of that name, as a share of ``wall_s`` (the dominance
    record's view: a layer's whole cost, children included)."""
    totals: dict = defaultdict(float)
    for rec in tracer.spans:
        parent = rec[3]
        nested = False
        while parent is not None:
            if parent[0] == rec[0]:
                nested = True
                break
            parent = parent[3]
        if not nested:
            totals[rec[0]] += rec[2] - rec[1]
    return {name: total / wall_s for name, total in sorted(totals.items())}
