"""Crash-consistency static analyzer: the CC-rule family.

PRs 7-9 accumulated a durability protocol the same way the paper's
kernels accumulate on-disk/IPC invariants: ``O_EXCL`` claim creates,
``O_APPEND`` single-write appends, tmp→fsync→``os.replace``
publication, a hand-maintained crash-point catalogue
(:mod:`repro.chaos.hooks`), fsck repairs keyed to each crash window.
Until now those protocols were enforced by convention and by the chaos
soak actually hitting them.  This module machine-checks them the way
``DET001``–``DET010`` machine-check determinism — an AST pass plus the
per-function CFG/dataflow layer in :mod:`repro.analysis.cfg`:

``CC001``
    every raw ``os.write``/``cz.write`` in durability-critical code
    (``repro/service/``, ``repro/obs/spool.py``, ``repro/perf/cache.py``)
    uses a sanctioned idiom: ``O_APPEND`` single-write, ``O_EXCL``
    create, or mkstemp→write→``os.replace``.
``CC002``
    in the tmp-publish idiom, an ``os.fsync(fd)`` must dominate the
    ``os.replace``/``os.rename`` on **all** CFG paths (``durable``
    gates are assumed true — the rule checks the durable
    configuration).
``CC003``–``CC006``
    catalogue coherence: every hook names a registered crash point
    (CC003); ``CRASH_SITE_REGISTRY`` matches the live call sites
    exactly, so a deleted hook or unregistered new hook fails the gate
    (CC004); torn-write capability matches ``WRITE_SITES`` exactly
    (CC005); the ``docs/CHAOS.md`` catalogue table matches
    ``CRASH_POINTS`` including the ``(write site)`` markers (CC006).
``CC007``
    no bare-``except`` / ``except Exception`` / ``except
    BaseException`` frame enclosing a crash point may absorb
    :class:`~repro.errors.CrashInjected` (or silently eat an injected
    io-error) unless it re-raises or names ``CrashInjected``
    explicitly.
``CC008``
    ``os.open`` descriptors and heartbeat threads are released on
    every path out of the function, exceptional exits included.

CLI: ``repro analyze crash [paths...]`` — canonical-JSON report with
``--json``, shared suppression-baseline mechanism
(``analysis/crash_baseline.json``), exit 0 clean / 1 findings / 2
usage error.  See ``docs/ANALYSIS.md`` for the catalogue and the
sanctioned idioms.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..errors import ConfigurationError
from .baseline import Baseline
from .cfg import CFG, build_cfg
from .linter import LintReport, canonical_path, iter_python_files
from .rules import Finding, LintRule, register_rules

__all__ = [
    "CC_RULES",
    "ChaosCatalogue",
    "ChaosUsage",
    "CrashReport",
    "DEFAULT_CRASH_BASELINE_PATH",
    "DEFAULT_DURABILITY_PREFIXES",
    "chaos_coherence_findings",
    "collect_scan",
    "crash_findings",
    "crash_report",
    "default_catalogue",
    "discover_docs",
    "docs_catalogue_findings",
    "run_crash",
]

CC_RULES: tuple[LintRule, ...] = (
    LintRule(
        "CC001",
        "raw filesystem write outside the sanctioned durability idioms",
        "write through one of the sanctioned idioms: a single os.write "
        "on an O_APPEND descriptor, an O_CREAT|O_EXCL create, or "
        "tempfile.mkstemp -> write -> fsync -> os.replace; anything "
        "else needs a justified crash_baseline.json entry",
    ),
    LintRule(
        "CC002",
        "tmp-publish rename not dominated by fsync on every path",
        "call os.fsync(fd) after the last write and before "
        "os.replace/os.rename on every CFG path (an 'if durable:' "
        "gate is fine — the rule assumes durable=True)",
    ),
    LintRule(
        "CC003",
        "chaos hook names an unregistered crash point",
        "pass a string literal naming an entry of CRASH_POINTS "
        "(repro/chaos/hooks.py), or register the new point there and "
        "in docs/CHAOS.md",
    ),
    LintRule(
        "CC004",
        "crash-point catalogue / call-site registry drift",
        "keep CRASH_SITE_REGISTRY (repro/chaos/hooks.py) exactly "
        "matching the get_chaos() call sites: every registered point "
        "needs its call site live at the registered scope, and every "
        "call site must be registered",
    ),
    LintRule(
        "CC005",
        "crash-point capability mismatch with WRITE_SITES",
        "wrap in-flight write(2)s with cz.write(fd, data, site) "
        "exactly at WRITE_SITES and use cz.on(site) everywhere else; "
        "update WRITE_SITES when a site changes shape",
    ),
    LintRule(
        "CC006",
        "docs/CHAOS.md catalogue table out of sync with CRASH_POINTS",
        "keep one table row per CRASH_POINTS entry, write sites "
        "annotated '(write site)' in the window column",
    ),
    LintRule(
        "CC007",
        "broad exception handler can absorb an injected crash",
        "catch the narrowest type (a ReproError subclass / OSError), "
        "name CrashInjected explicitly when the handler must see "
        "crashes, or re-raise with a bare 'raise'; a swallowing "
        "'except Exception' also hides injected io-errors",
    ),
    LintRule(
        "CC008",
        "os.open descriptor or worker thread not released on every path",
        "close the fd / join the thread in a 'finally' so exceptional "
        "exits release it too",
    ),
)

register_rules(CC_RULES)

#: The packaged crash-consistency baseline covering src/repro itself.
DEFAULT_CRASH_BASELINE_PATH = pathlib.Path(__file__).with_name(
    "crash_baseline.json")

#: Canonical-path prefixes holding durability-critical code: CC001 and
#: CC002 apply only here (the rest of the rules scan everything).
DEFAULT_DURABILITY_PREFIXES = (
    "repro/service/",
    "repro/obs/spool.py",
    "repro/perf/cache.py",
)

#: Names assumed true when checking CFG dominance (the rules check the
#: durable configuration; ``durable=False`` is a sanctioned escape
#: hatch for tests).
ASSUME_TRUE = ("durable",)

#: Canonical path the catalogue-level findings anchor on.
CATALOGUE_PATH = "repro/chaos/hooks.py"

#: Method attr -> receiver-name hints marking calls that reach a crash
#: point in another module (CC007's "crash-point frame" test when the
#: hook itself is out of view).
_DURABLE_CALLS: dict[str, tuple[str, ...]] = {
    "append": ("journal",),
    "put": ("cache",),
    "submit": ("queue",),
    "claim_next": ("queue",),
    "heartbeat": ("queue",),
    "complete": ("queue",),
    "break_lease": ("queue",),
    "mark_running": ("queue",),
    "fail_attempt": ("queue",),
    "requeue": ("queue",),
    "run_specs": ("engine",),
    "export_experiments": ("engine",),
    "emit": ("spool", "telemetry"),
    "event": ("spool", "telemetry"),
    "segment": ("spool", "telemetry"),
}

_BROAD_HANDLERS = frozenset({"Exception", "BaseException"})


@dataclass(frozen=True)
class ChaosCatalogue:
    """The registered chaos surface the coherence rules check against
    (defaults to the live :mod:`repro.chaos.hooks` catalogue)."""

    points: tuple[str, ...]
    write_sites: frozenset[str]
    #: site -> sorted ``path::scope`` strings of its call sites.
    registry: dict[str, tuple[str, ...]]


def default_catalogue() -> ChaosCatalogue:
    from ..chaos.hooks import (CRASH_POINTS, CRASH_SITE_REGISTRY,
                               WRITE_SITES)
    return ChaosCatalogue(points=tuple(CRASH_POINTS),
                          write_sites=frozenset(WRITE_SITES),
                          registry=dict(CRASH_SITE_REGISTRY))


@dataclass(frozen=True)
class ChaosUsage:
    """One ``cz.on(...)`` / ``cz.write(...)`` call site."""

    site: str
    kind: str  # "on" | "write"
    literal: bool
    path: str
    scope: str
    line: int
    col: int
    snippet: str

    def key(self) -> tuple[str, str]:
        return (self.site, f"{self.path}::{self.scope}")


@dataclass
class ScanData:
    """Everything one pass over a tree collects."""

    findings: list[Finding] = field(default_factory=list)
    usages: list[ChaosUsage] = field(default_factory=list)
    files_checked: int = 0


# -- per-file analysis -------------------------------------------------


class _FileScan:
    """One file's crash-consistency pass: local rules (CC001, CC002,
    CC007, CC008) plus the raw material for the tree-level rules."""

    def __init__(self, path: str, source: str, tree: ast.Module,
                 durability_prefixes: Sequence[str]) -> None:
        self.path = path
        self.tree = tree
        self._lines = source.splitlines()
        self.durable_scope = any(
            path.startswith(p) or p == "" for p in durability_prefixes)
        self.findings: list[Finding] = []
        self.usages: list[ChaosUsage] = []
        self._aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    self._aliases[local] = (
                        alias.name if alias.asname
                        else alias.name.split(".", 1)[0])
            elif isinstance(node, ast.ImportFrom):
                module = ("." * node.level) + (node.module or "")
                for alias in node.names:
                    local = alias.asname or alias.name
                    self._aliases[local] = f"{module}.{alias.name}"
        #: function name -> its body directly evaluates a chaos hook
        #: (for CC007's one-level same-file transitive test).
        self._direct_chaos: dict[str, bool] = {}

    # -- plumbing ------------------------------------------------------

    def _qual(self, node: ast.AST) -> str:
        if isinstance(node, ast.Name):
            return self._aliases.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            base = self._qual(node.value)
            return f"{base}.{node.attr}" if base else ""
        return ""

    def _raw(self, node: ast.AST) -> str:
        """Dotted receiver text without alias resolution (``self.queue``
        stays ``self.queue``)."""
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            base = self._raw(node.value)
            return f"{base}.{node.attr}" if base else ""
        return ""

    def _snippet(self, node: ast.AST) -> str:
        line = getattr(node, "lineno", 1)
        if 1 <= line <= len(self._lines):
            return self._lines[line - 1].strip()
        return ""

    def _emit(self, rule_id: str, node: ast.AST, scope: str,
              message: str) -> None:
        self.findings.append(Finding(
            rule_id=rule_id, path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            scope=scope, snippet=self._snippet(node), message=message))

    # -- traversal -----------------------------------------------------

    def run(self) -> None:
        for func, scope in self._functions(self.tree):
            self._direct_chaos[func.name] = False
        for func, scope in self._functions(self.tree):
            self._scan_function_collections(func, scope)
        for func, scope in self._functions(self.tree):
            self._scan_function_rules(func, scope)

    def _functions(self, tree: ast.Module
                   ) -> "list[tuple[ast.AST, str]]":
        out: list[tuple[ast.AST, str]] = []

        def walk(node: ast.AST, scope: "list[str]") -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    name = scope + [child.name]
                    out.append((child, ".".join(name)))
                    walk(child, name)
                elif isinstance(child, ast.ClassDef):
                    walk(child, scope + [child.name])
                else:
                    walk(child, scope)

        walk(tree, [])
        return out

    def _own_statements(self, func: ast.AST) -> "list[ast.stmt]":
        """Every statement of ``func`` excluding nested def bodies."""
        out: list[ast.stmt] = []

        def walk(node: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    continue
                if isinstance(child, ast.stmt):
                    out.append(child)
                walk(child)

        walk(func)
        return out

    def _own_calls(self, func: ast.AST) -> "list[ast.Call]":
        # _own_statements lists nested statements too, so dedupe: a
        # call inside `if` inside `try` is reachable from three stmts.
        # AST nodes are identity-hashable, so they key the set directly.
        seen: "set[ast.AST]" = set()
        out: list[ast.Call] = []
        for stmt in self._own_statements(func):
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and node not in seen:
                    seen.add(node)
                    out.append(node)
        return out

    def _chaos_vars(self, func: ast.AST) -> "set[str]":
        names: set[str] = set()
        for stmt in self._own_statements(func):
            if isinstance(stmt, ast.Assign) and \
                    isinstance(stmt.value, ast.Call):
                q = self._qual(stmt.value.func)
                if q.endswith("get_chaos"):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
        return names

    # -- collection pass (chaos usages) --------------------------------

    def _scan_function_collections(self, func: ast.AST,
                                   scope: str) -> None:
        chaos_vars = self._chaos_vars(func)
        for call in self._own_calls(func):
            fn = call.func
            if isinstance(fn, ast.Attribute) and \
                    isinstance(fn.value, ast.Name) and \
                    fn.value.id in chaos_vars and \
                    fn.attr in ("on", "write"):
                site_arg: Optional[ast.expr] = None
                if fn.attr == "on" and call.args:
                    site_arg = call.args[0]
                elif fn.attr == "write":
                    if len(call.args) >= 3:
                        site_arg = call.args[2]
                    else:
                        site_arg = next(
                            (kw.value for kw in call.keywords
                             if kw.arg == "site"), None)
                literal = (isinstance(site_arg, ast.Constant)
                           and isinstance(site_arg.value, str))
                self.usages.append(ChaosUsage(
                    site=site_arg.value if literal else "<non-literal>",
                    kind=fn.attr, literal=literal, path=self.path,
                    scope=scope, line=call.lineno, col=call.col_offset,
                    snippet=self._snippet(call)))
                self._direct_chaos[getattr(func, "name", "")] = True

    # -- rule pass (CC001/CC002/CC007/CC008) ---------------------------

    def _scan_function_rules(self, func: ast.AST, scope: str) -> None:
        stmts = self._own_statements(func)
        parent_stmt = self._stmt_map(func, stmts)
        cfg = build_cfg(func, assume_true=ASSUME_TRUE)
        if self.durable_scope:
            self._check_durability(func, scope, stmts, parent_stmt, cfg)
        self._check_handlers(func, scope)
        self._check_releases(func, scope, stmts, parent_stmt, cfg)

    def _stmt_map(self, func: ast.AST, stmts: "list[ast.stmt]"
                  ) -> "dict[ast.AST, ast.stmt]":
        """expr node (identity-keyed) -> the innermost statement
        carrying it."""
        owner: "dict[ast.AST, ast.stmt]" = {}

        def claim(stmt: ast.stmt, node: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    continue  # the child statement claims its own
                owner[child] = stmt
                claim(stmt, child)

        for stmt in stmts:
            owner[stmt] = stmt
            claim(stmt, stmt)
        return owner

    def _call_stmt_nodes(self, calls: "Iterable[ast.Call]",
                         parent_stmt: "dict[ast.AST, ast.stmt]",
                         cfg: CFG) -> "list[int]":
        nodes: list[int] = []
        for call in calls:
            stmt = parent_stmt.get(call)
            if stmt is not None:
                nodes.extend(cfg.nodes_for(stmt))
        return nodes

    def _check_durability(self, func: ast.AST, scope: str,
                          stmts: "list[ast.stmt]",
                          parent_stmt: "dict[ast.AST, ast.stmt]",
                          cfg: CFG) -> None:
        calls = self._own_calls(func)
        chaos_vars = self._chaos_vars(func)
        origins = self._fd_origins(stmts)
        replaces = [c for c in calls
                    if self._qual(c.func) in ("os.replace", "os.rename")]
        fsyncs = [c for c in calls if self._qual(c.func) == "os.fsync"]
        tmp_published = False
        for call in calls:
            fd_name = self._fd_write_target(call, chaos_vars)
            if fd_name is None:
                continue
            origin = origins.get(fd_name)
            if origin == "append" or origin == "excl":
                continue
            if origin == "mkstemp":
                if replaces:
                    tmp_published = True
                    continue
                self._emit("CC001", call, scope,
                           f"write to mkstemp fd {fd_name!r} is never "
                           "published with os.replace — the tmp file "
                           "is the final artifact")
                continue
            self._emit("CC001", call, scope,
                       f"raw write to fd {fd_name!r} uses no sanctioned "
                       "durability idiom (O_APPEND single-write, "
                       "O_EXCL create, or mkstemp→fsync→replace)")
        if tmp_published:
            fsync_nodes = self._call_stmt_nodes(fsyncs, parent_stmt, cfg)
            for replace in replaces:
                for node in self._call_stmt_nodes([replace],
                                                  parent_stmt, cfg):
                    if not cfg.cut_dominates(fsync_nodes, node):
                        self._emit(
                            "CC002", replace, scope,
                            "os.replace publishes a tmp file on a path "
                            "with no dominating os.fsync — a crash "
                            "after the rename can surface an empty or "
                            "torn entry")

    def _fd_origins(self, stmts: "list[ast.stmt]") -> "dict[str, str]":
        """fd variable name -> 'append' | 'excl' | 'open' | 'mkstemp'."""
        origins: dict[str, str] = {}
        for stmt in stmts:
            if not isinstance(stmt, ast.Assign) or \
                    not isinstance(stmt.value, ast.Call):
                continue
            q = self._qual(stmt.value.func)
            if q == "os.open":
                flags = stmt.value.args[1] if len(stmt.value.args) > 1 \
                    else None
                flag_names = {n.attr for n in ast.walk(flags)
                              if isinstance(n, ast.Attribute)} \
                    if flags is not None else set()
                kind = "open"
                if "O_APPEND" in flag_names:
                    kind = "append"
                elif "O_EXCL" in flag_names:
                    kind = "excl"
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        origins[target.id] = kind
            elif q == "tempfile.mkstemp":
                for target in stmt.targets:
                    if isinstance(target, ast.Tuple) and target.elts \
                            and isinstance(target.elts[0], ast.Name):
                        origins[target.elts[0].id] = "mkstemp"
        return origins

    def _fd_write_target(self, call: ast.Call,
                         chaos_vars: "set[str]") -> Optional[str]:
        """The fd variable a write call targets, or None when the call
        is not an fd write (``os.write(fd, ...)`` or the chaos wrapper
        ``cz.write(fd, data, site)``)."""
        fn = call.func
        if self._qual(fn) == "os.write" and call.args and \
                isinstance(call.args[0], ast.Name):
            return call.args[0].id
        if isinstance(fn, ast.Attribute) and fn.attr == "write" and \
                isinstance(fn.value, ast.Name) and \
                fn.value.id in chaos_vars and call.args and \
                isinstance(call.args[0], ast.Name):
            return call.args[0].id
        return None

    # -- CC007 ---------------------------------------------------------

    def _check_handlers(self, func: ast.AST, scope: str) -> None:
        chaos_vars = self._chaos_vars(func)
        for stmt in self._own_statements(func):
            if not isinstance(stmt, ast.Try):
                continue
            region = stmt.body + stmt.orelse
            if not self._region_reaches_crash_point(region, chaos_vars):
                continue
            for handler in stmt.handlers:
                broad = self._broad_handler(handler)
                if broad is None:
                    continue
                if self._names_crash_injected(handler):
                    continue
                if any(isinstance(n, ast.Raise) and n.exc is None
                       for body in handler.body
                       for n in ast.walk(body)):
                    continue
                self._emit(
                    "CC007", handler, scope,
                    f"{broad} handler encloses a crash-point frame: it "
                    "absorbs CrashInjected (bare/BaseException) or "
                    "eats an injected io-error without attribution")

    def _region_reaches_crash_point(self, region: "list[ast.stmt]",
                                    chaos_vars: "set[str]") -> bool:
        for stmt in region:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                fn = node.func
                if isinstance(fn, ast.Attribute):
                    if isinstance(fn.value, ast.Name) and \
                            fn.value.id in chaos_vars and \
                            fn.attr in ("on", "write"):
                        return True
                    hints = _DURABLE_CALLS.get(fn.attr)
                    if hints is not None:
                        recv = self._raw(fn.value).lower()
                        if any(h in recv for h in hints):
                            return True
                    # same-file method call one level deep
                    if self._direct_chaos.get(fn.attr):
                        return True
                elif isinstance(fn, ast.Name) and \
                        self._direct_chaos.get(fn.id):
                    return True
        return False

    def _broad_handler(self, handler: ast.ExceptHandler
                       ) -> Optional[str]:
        if handler.type is None:
            return "bare 'except:'"
        names = []
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) \
            else [handler.type]
        for t in types:
            names.append(self._qual(t).rsplit(".", 1)[-1])
        broad = sorted(set(names) & _BROAD_HANDLERS)
        if broad:
            return f"'except {broad[0]}'"
        return None

    def _names_crash_injected(self, handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return False
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) \
            else [handler.type]
        return any(self._qual(t).rsplit(".", 1)[-1] == "CrashInjected"
                   for t in types)

    # -- CC008 ---------------------------------------------------------

    def _check_releases(self, func: ast.AST, scope: str,
                        stmts: "list[ast.stmt]",
                        parent_stmt: "dict[ast.AST, ast.stmt]",
                        cfg: CFG) -> None:
        calls = self._own_calls(func)
        # descriptors
        for stmt in stmts:
            if not isinstance(stmt, ast.Assign) or \
                    not isinstance(stmt.value, ast.Call) or \
                    self._qual(stmt.value.func) != "os.open":
                continue
            targets = [t for t in stmt.targets
                       if isinstance(t, ast.Name)]
            if not targets:
                continue
            fd_name = targets[0].id
            closes = [c for c in calls
                      if self._qual(c.func) == "os.close" and c.args
                      and isinstance(c.args[0], ast.Name)
                      and c.args[0].id == fd_name]
            self._require_release(
                "fd", fd_name, stmt, closes, parent_stmt, cfg, scope,
                missing=f"os.open fd {fd_name!r} is never closed in "
                        "this function",
                leaky=f"os.open fd {fd_name!r} is not closed on every "
                      "path (an exceptional exit leaks it); close in "
                      "a 'finally'")
        # worker threads
        for stmt in stmts:
            if not isinstance(stmt, ast.Assign) or \
                    not isinstance(stmt.value, ast.Call):
                continue
            q = self._qual(stmt.value.func)
            if not q.endswith("threading.Thread") and q != "Thread":
                continue
            targets = [t for t in stmt.targets
                       if isinstance(t, ast.Name)]
            if not targets:
                continue
            tname = targets[0].id
            starts = [c for c in calls
                      if isinstance(c.func, ast.Attribute)
                      and c.func.attr == "start"
                      and isinstance(c.func.value, ast.Name)
                      and c.func.value.id == tname]
            if not starts:
                continue
            joins = [c for c in calls
                     if isinstance(c.func, ast.Attribute)
                     and c.func.attr == "join"
                     and isinstance(c.func.value, ast.Name)
                     and c.func.value.id == tname]
            anchor_stmt = parent_stmt.get(starts[0])
            self._require_release(
                "thread", tname, anchor_stmt or stmt, joins,
                parent_stmt, cfg, scope,
                missing=f"thread {tname!r} is started but never "
                        "joined — a crash leaves the beater running",
                leaky=f"thread {tname!r} is not joined on every path "
                      "out of the function; join in a 'finally'")

    def _require_release(self, kind: str, name: str,
                         acquire_stmt: ast.stmt,
                         releases: "list[ast.Call]",
                         parent_stmt: "dict[ast.AST, ast.stmt]",
                         cfg: CFG, scope: str, missing: str,
                         leaky: str) -> None:
        if not releases:
            self._emit("CC008", acquire_stmt, scope, missing)
            return
        release_nodes = self._call_stmt_nodes(releases, parent_stmt, cfg)
        starts: set[int] = set()
        for node in cfg.nodes_for(acquire_stmt):
            starts |= cfg.normal_successors(node)
        if not cfg.always_passes_through(starts, release_nodes,
                                         ignore_cleanup_exc=True):
            self._emit("CC008", acquire_stmt, scope, leaky)


# -- tree-level rules --------------------------------------------------


def chaos_coherence_findings(usages: Sequence[ChaosUsage],
                             catalogue: ChaosCatalogue
                             ) -> "list[Finding]":
    """CC003/CC004/CC005 over the collected call sites.  Pure function
    of its inputs, so tests can replay it minus one usage or with a
    mutated catalogue."""
    findings: list[Finding] = []
    points = set(catalogue.points)

    def catalogue_finding(rule: str, site: str, message: str) -> Finding:
        return Finding(rule_id=rule, path=CATALOGUE_PATH, line=1, col=0,
                       scope="CRASH_POINTS", snippet=site,
                       message=message)

    known: list[ChaosUsage] = []
    for usage in usages:
        if not usage.literal:
            findings.append(Finding(
                rule_id="CC003", path=usage.path, line=usage.line,
                col=usage.col, scope=usage.scope, snippet=usage.snippet,
                message="chaos hook site must be a string literal so "
                        "the catalogue stays statically checkable"))
        elif usage.site not in points:
            findings.append(Finding(
                rule_id="CC003", path=usage.path, line=usage.line,
                col=usage.col, scope=usage.scope, snippet=usage.snippet,
                message=f"chaos hook names {usage.site!r}, which is "
                        "not a registered crash point"))
        else:
            known.append(usage)

    used_sites = {u.site for u in known}
    used_pairs = {u.key() for u in known}
    registered_pairs = {(site, where)
                        for site, wheres in catalogue.registry.items()
                        for where in wheres}

    for site in sorted(points - used_sites):
        findings.append(catalogue_finding(
            "CC004", site,
            f"registered crash point {site!r} has no live call site — "
            "the chaos surface silently shrank"))
    for site, where in sorted(registered_pairs - used_pairs):
        if site in points - used_sites:
            continue  # already reported as fully dead above
        findings.append(catalogue_finding(
            "CC004", site,
            f"CRASH_SITE_REGISTRY expects {site!r} at {where}, but no "
            "hook is there"))
    for usage in known:
        if usage.key() not in registered_pairs:
            findings.append(Finding(
                rule_id="CC004", path=usage.path, line=usage.line,
                col=usage.col, scope=usage.scope, snippet=usage.snippet,
                message=f"chaos hook for {usage.site!r} at "
                        f"{usage.key()[1]} is not in "
                        "CRASH_SITE_REGISTRY"))

    for usage in known:
        is_write_site = usage.site in catalogue.write_sites
        if usage.kind == "write" and not is_write_site:
            findings.append(Finding(
                rule_id="CC005", path=usage.path, line=usage.line,
                col=usage.col, scope=usage.scope, snippet=usage.snippet,
                message=f"{usage.site!r} is wrapped as a write site "
                        "but is not in WRITE_SITES (torn-write "
                        "capability mismatch)"))
        elif usage.kind == "on" and is_write_site:
            findings.append(Finding(
                rule_id="CC005", path=usage.path, line=usage.line,
                col=usage.col, scope=usage.scope, snippet=usage.snippet,
                message=f"{usage.site!r} is in WRITE_SITES but hooked "
                        "with cz.on() — the in-flight write(2) is not "
                        "wrapped, so torn-write schedules can never "
                        "fire"))
    return findings


_DOC_ROW = re.compile(r"^\|\s*`([a-z_.]+\.[a-z_.]+)`\s*\|(.*)$")


def docs_catalogue_findings(docs_path: "str | pathlib.Path",
                            catalogue: ChaosCatalogue
                            ) -> "list[Finding]":
    """CC006: the ``docs/CHAOS.md`` catalogue table must list exactly
    ``CRASH_POINTS``, write sites annotated ``(write site)``."""
    docs_path = pathlib.Path(docs_path)
    try:
        text = docs_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read chaos docs {docs_path}: {exc}")
    label = docs_path.name
    rows: dict[str, str] = {}
    for line in text.splitlines():
        match = _DOC_ROW.match(line.strip())
        if match:
            rows.setdefault(match.group(1), match.group(2))
    findings: list[Finding] = []
    points = set(catalogue.points)

    def doc_finding(site: str, message: str) -> Finding:
        return Finding(rule_id="CC006", path=f"docs/{label}", line=1,
                       col=0, scope="catalogue-table", snippet=site,
                       message=message)

    for site in sorted(points - set(rows)):
        findings.append(doc_finding(
            site, f"crash point {site!r} is missing from the {label} "
                  "catalogue table"))
    for site in sorted(set(rows) - points):
        findings.append(doc_finding(
            site, f"{label} documents {site!r}, which is not a "
                  "registered crash point"))
    for site in sorted(points & set(rows)):
        documented_write = "write site" in rows[site]
        if documented_write != (site in catalogue.write_sites):
            expect = ("a write site" if site in catalogue.write_sites
                      else "a control-flow site")
            findings.append(doc_finding(
                site, f"{label} write-site marker for {site!r} is "
                      f"wrong — the catalogue registers it as {expect}"))
    return findings


# -- driver ------------------------------------------------------------


def collect_scan(paths: Sequence["str | pathlib.Path"],
                 durability_prefixes: Sequence[str]
                 = DEFAULT_DURABILITY_PREFIXES) -> ScanData:
    """Run the per-file pass over every ``.py`` under ``paths``."""
    data = ScanData()
    for path in iter_python_files(paths):
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            raise ConfigurationError(f"{path}: not parseable: {exc}")
        scan = _FileScan(canonical_path(path), source, tree,
                         durability_prefixes)
        scan.run()
        data.files_checked += 1
        data.findings.extend(scan.findings)
        data.usages.extend(scan.usages)
    return data


def discover_docs(paths: Sequence["str | pathlib.Path"]
                  ) -> Optional[pathlib.Path]:
    """``docs/CHAOS.md`` next to (or above) the scan targets, if any."""
    for raw in paths:
        base = pathlib.Path(raw).resolve()
        if base.is_file():
            base = base.parent
        for candidate in [base, *list(base.parents)[:5]]:
            docs = candidate / "docs" / "CHAOS.md"
            if docs.is_file():
                return docs
    return None


def crash_findings(paths: Sequence["str | pathlib.Path"],
                   catalogue: Optional[ChaosCatalogue] = None,
                   docs_path: "str | pathlib.Path | None" = None,
                   durability_prefixes: Sequence[str]
                   = DEFAULT_DURABILITY_PREFIXES,
                   only_rules: Optional[Sequence[str]] = None,
                   notes: Optional[list] = None
                   ) -> "tuple[list[Finding], int]":
    """All CC findings over ``paths``; returns ``(findings,
    files_checked)``.  ``only_rules`` restricts to a rule subset (the
    per-rule fixtures use this); ``notes`` (a list, appended in place)
    collects non-finding diagnostics such as a skipped docs check."""
    cat = catalogue if catalogue is not None else default_catalogue()
    data = collect_scan(paths, durability_prefixes=durability_prefixes)
    findings = list(data.findings)
    findings += chaos_coherence_findings(data.usages, cat)
    if docs_path is None:
        docs_path = discover_docs(paths)
    if docs_path is not None:
        findings += docs_catalogue_findings(docs_path, cat)
    elif notes is not None:
        notes.append("docs/CHAOS.md not found near the scan targets; "
                     "catalogue-table check (CC006) skipped")
    if only_rules is not None:
        wanted = set(only_rules)
        findings = [f for f in findings if f.rule_id in wanted]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id,
                                 f.message))
    return findings, data.files_checked


@dataclass
class CrashReport(LintReport):
    """A lint report plus the crash analyzer's skip notes."""

    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [super().render()]
        lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        payload = super().to_dict()
        payload["notes"] = list(self.notes)
        return payload


def crash_report(paths: Sequence["str | pathlib.Path"],
                 baseline: Optional[Baseline] = None,
                 catalogue: Optional[ChaosCatalogue] = None,
                 docs_path: "str | pathlib.Path | None" = None,
                 durability_prefixes: Sequence[str]
                 = DEFAULT_DURABILITY_PREFIXES) -> CrashReport:
    """The full analyzer run: findings minus the baseline."""
    report = CrashReport()
    findings, report.files_checked = crash_findings(
        paths, catalogue=catalogue, docs_path=docs_path,
        durability_prefixes=durability_prefixes, notes=report.notes)
    for finding in findings:
        if baseline is not None and baseline.suppresses(finding):
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)
    if baseline is not None:
        report.stale_baseline = baseline.stale_entries()
    return report


def run_crash(paths: Optional[Sequence[str]] = None,
              baseline_path: Optional[str] = None,
              no_baseline: bool = False,
              output_format: str = "text",
              docs: Optional[str] = None,
              prune_baseline: bool = False,
              out=None) -> int:
    """Shared body of ``repro analyze crash``.

    Exit codes: 0 clean, 1 unsuppressed findings (or baseline entries
    pruned), 2 usage error (argparse).  The JSON report is canonical —
    sorted keys, fixed separators — so CI can byte-compare it.
    """
    from ..obs.export import canonical_json
    from .linter import default_lint_paths

    if out is None:  # bind at call time so stream capture works
        out = sys.stdout
    baseline = None
    if not no_baseline:
        source = pathlib.Path(baseline_path) if baseline_path \
            else DEFAULT_CRASH_BASELINE_PATH
        if source.exists():
            baseline = Baseline.load(source)
        elif baseline_path:
            raise ConfigurationError(
                f"baseline {baseline_path!r} not found")
    targets = list(paths) if paths else default_lint_paths()
    report = crash_report(targets, baseline=baseline, docs_path=docs)
    pruned = 0
    if prune_baseline and baseline is not None \
            and report.stale_baseline:
        pruned = baseline.write_pruned()
        report.notes.append(
            f"pruned {pruned} stale baseline entr"
            f"{'y' if pruned == 1 else 'ies'} from {baseline.source}")
    if output_format == "json":
        print(canonical_json(report.to_dict()), file=out)
    else:
        print(report.render(), file=out)
    return 0 if report.clean and not pruned else 1
