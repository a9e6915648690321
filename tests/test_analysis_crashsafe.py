"""Crash-consistency analyzer: CFG layer, CC-rule fixtures, catalogue
coherence (the gate must fail when the chaos surface shrinks), the
merged-tree zero-unjustified-findings assertion, baseline pruning and
the CLI surface."""

import ast
import io
import json
import pathlib
import textwrap

import pytest

import repro
from repro.analysis.baseline import Baseline
from repro.analysis.cfg import build_cfg
from repro.analysis.crashsafe import (
    CC_RULES,
    DEFAULT_CRASH_BASELINE_PATH,
    ChaosCatalogue,
    chaos_coherence_findings,
    collect_scan,
    crash_findings,
    crash_report,
    default_catalogue,
    docs_catalogue_findings,
    run_crash,
)
from repro.analysis.linter import all_rules, canonical_path, run_lint, run_rules
from repro.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "crashsafe"
PACKAGE_DIR = pathlib.Path(repro.__file__).resolve().parent


def _build(source, name, assume_true=()):
    tree = ast.parse(textwrap.dedent(source))
    func = next(n for n in ast.walk(tree)
                if isinstance(n, ast.FunctionDef) and n.name == name)
    return func, build_cfg(func, assume_true=assume_true)


def _stmt_nodes(func, cfg, match):
    # Only simple statements: a compound statement (If/Try) "contains"
    # every call in its body and would poison the cut.
    nodes = []
    for stmt in ast.walk(func):
        if isinstance(stmt, (ast.Expr, ast.Assign, ast.Return)) and \
                match(stmt):
            nodes.extend(cfg.nodes_for(stmt))
    return nodes


def _call_named(stmt, dotted):
    for node in ast.walk(stmt):
        if isinstance(node, ast.Call):
            parts = []
            f = node.func
            while isinstance(f, ast.Attribute):
                parts.append(f.attr)
                f = f.value
            if isinstance(f, ast.Name):
                parts.append(f.id)
            if ".".join(reversed(parts)) == dotted:
                return True
    return False


# -- CFG layer ---------------------------------------------------------

PUBLISH = """
import os, tempfile

def publish(directory, path, data, durable):
    fd, tmp = tempfile.mkstemp(dir=directory)
    try:
        os.write(fd, data)
        if durable:
            os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
"""

PUBLISH_NO_FSYNC = PUBLISH.replace("        if durable:\n"
                                   "            os.fsync(fd)\n", "")


def test_cfg_fsync_cut_dominates_replace_under_assumed_durable():
    func, cfg = _build(PUBLISH, "publish", assume_true=("durable",))
    fsyncs = _stmt_nodes(func, cfg, lambda s: _call_named(s, "os.fsync"))
    replaces = _stmt_nodes(func, cfg,
                           lambda s: _call_named(s, "os.replace"))
    assert fsyncs and replaces
    for node in replaces:
        assert cfg.cut_dominates(fsyncs, node)


def test_cfg_fsync_not_dominating_without_assumption():
    # Without assuming `durable`, the False branch skips the fsync.
    func, cfg = _build(PUBLISH, "publish")
    fsyncs = _stmt_nodes(func, cfg, lambda s: _call_named(s, "os.fsync"))
    replaces = _stmt_nodes(func, cfg,
                           lambda s: _call_named(s, "os.replace"))
    assert any(not cfg.cut_dominates(fsyncs, node) for node in replaces)


def test_cfg_missing_fsync_detected():
    func, cfg = _build(PUBLISH_NO_FSYNC, "publish",
                       assume_true=("durable",))
    replaces = _stmt_nodes(func, cfg,
                           lambda s: _call_named(s, "os.replace"))
    assert replaces
    for node in replaces:
        assert not cfg.cut_dominates([], node)


def test_cfg_finally_close_guards_every_path():
    source = """
    import os, json

    def read(path):
        fd = os.open(path, os.O_RDONLY)
        try:
            return json.loads(os.read(fd, 1 << 20))
        finally:
            os.close(fd)
    """
    func, cfg = _build(source, "read")
    closes = _stmt_nodes(func, cfg, lambda s: _call_named(s, "os.close"))
    opens = _stmt_nodes(func, cfg, lambda s: _call_named(s, "os.open"))
    starts = set()
    for node in opens:
        starts |= cfg.normal_successors(node)
    # A two-statement finally: the exception edge out of the cleanup's
    # own first statement must not count as an escape.
    assert cfg.always_passes_through(starts, closes,
                                    ignore_cleanup_exc=True)


def test_cfg_unprotected_close_leaks():
    source = """
    import os, json

    def read(path):
        fd = os.open(path, os.O_RDONLY)
        payload = json.loads(os.read(fd, 1 << 20))
        os.close(fd)
        return payload
    """
    func, cfg = _build(source, "read")
    closes = _stmt_nodes(func, cfg, lambda s: _call_named(s, "os.close"))
    opens = _stmt_nodes(func, cfg, lambda s: _call_named(s, "os.open"))
    starts = set()
    for node in opens:
        starts |= cfg.normal_successors(node)
    assert not cfg.always_passes_through(starts, closes,
                                        ignore_cleanup_exc=True)


# -- per-rule fixtures -------------------------------------------------

#: rule id -> extra crash_findings kwargs its fixtures need (CC001 and
#: CC002 apply only under the durability prefixes, so fixture paths
#: opt in with a match-everything prefix).
_FIXTURE_KW = {
    "CC001": {"durability_prefixes": ("",)},
    "CC002": {"durability_prefixes": ("",)},
    "CC003": {},
    "CC005": {},
    "CC007": {},
    "CC008": {},
}


def _rule_hits(rule_id, fixture, **kw):
    findings, files = crash_findings([FIXTURES / fixture],
                                     only_rules=[rule_id], **kw)
    assert files == 1
    return findings


@pytest.mark.parametrize("rule_id", sorted(_FIXTURE_KW))
def test_rule_fires_on_positive_fixture(rule_id):
    findings = _rule_hits(rule_id, f"{rule_id.lower()}_pos.py",
                          **_FIXTURE_KW[rule_id])
    assert findings, f"{rule_id} did not fire on its positive fixture"
    assert {f.rule_id for f in findings} == {rule_id}


@pytest.mark.parametrize("rule_id", sorted(_FIXTURE_KW))
def test_rule_quiet_on_negative_fixture(rule_id):
    findings = _rule_hits(rule_id, f"{rule_id.lower()}_neg.py",
                          **_FIXTURE_KW[rule_id])
    assert findings == [], [f.render() for f in findings]


def _two_point_catalogue(fixture):
    cp = canonical_path(FIXTURES / fixture)
    return ChaosCatalogue(
        points=("queue.claim", "queue.submit"),
        write_sites=frozenset(),
        registry={"queue.claim": (f"{cp}::claim",),
                  "queue.submit": (f"{cp}::submit",)})


def test_cc004_fires_on_positive_fixture():
    findings = _rule_hits(
        "CC004", "cc004_pos.py",
        catalogue=_two_point_catalogue("cc004_pos.py"))
    assert findings and {f.rule_id for f in findings} == {"CC004"}
    assert any("queue.submit" in f.snippet or "queue.submit"
               in f.message for f in findings)


def test_cc004_quiet_on_negative_fixture():
    findings = _rule_hits(
        "CC004", "cc004_neg.py",
        catalogue=_two_point_catalogue("cc004_neg.py"))
    assert findings == [], [f.render() for f in findings]


def test_cc006_docs_table_fixtures():
    catalogue = ChaosCatalogue(
        points=("journal.append", "queue.claim"),
        write_sites=frozenset({"journal.append"}),
        registry={})
    pos = docs_catalogue_findings(FIXTURES / "cc006_pos.md", catalogue)
    assert {f.rule_id for f in pos} == {"CC006"}
    messages = " ".join(f.message for f in pos)
    assert "queue.claim" in messages      # missing row
    assert "queue.ghost" in messages      # extra row
    assert "write-site marker" in messages
    neg = docs_catalogue_findings(FIXTURES / "cc006_neg.md", catalogue)
    assert neg == [], [f.render() for f in neg]


# -- catalogue coherence on the real tree ------------------------------


@pytest.fixture(scope="module")
def package_scan():
    return collect_scan([PACKAGE_DIR])


def test_every_registered_point_has_a_live_call_site(package_scan):
    assert chaos_coherence_findings(package_scan.usages,
                                    default_catalogue()) == []


def test_removing_any_single_call_site_fails_the_gate(package_scan):
    catalogue = default_catalogue()
    assert package_scan.usages
    for removed in package_scan.usages:
        remaining = [u for u in package_scan.usages if u is not removed]
        findings = chaos_coherence_findings(remaining, catalogue)
        assert findings, (f"dropping the {removed.site} hook at "
                          f"{removed.path}::{removed.scope} went "
                          "unnoticed")


def test_phantom_crash_point_fails_the_gate(package_scan, monkeypatch):
    from repro.chaos import hooks

    catalogue = ChaosCatalogue(
        points=tuple(hooks.CRASH_POINTS) + ("queue.ghost",),
        write_sites=frozenset(hooks.WRITE_SITES),
        registry={**hooks.CRASH_SITE_REGISTRY,
                  "queue.ghost": ("repro/service/queue.py::ghost",)})
    findings = chaos_coherence_findings(package_scan.usages, catalogue)
    assert any(f.rule_id == "CC004" and "queue.ghost" in f.snippet
               for f in findings)


def test_unregistered_call_site_fails_the_gate(package_scan):
    catalogue = default_catalogue()
    registry = dict(catalogue.registry)
    del registry["queue.submit"]
    mutated = ChaosCatalogue(points=catalogue.points,
                             write_sites=catalogue.write_sites,
                             registry=registry)
    findings = chaos_coherence_findings(package_scan.usages, mutated)
    assert any(f.rule_id == "CC004" and "queue.submit" in f.message
               for f in findings)


def test_removed_crash_point_fails_repro_analyze_crash(monkeypatch):
    # End-to-end: shrink CRASH_POINTS under the real analyzer and the
    # CLI gate must exit 1 (the live submit hook is now unregistered).
    from repro.chaos import hooks

    monkeypatch.setattr(hooks, "CRASH_POINTS", tuple(
        p for p in hooks.CRASH_POINTS if p != "queue.submit"))
    buf = io.StringIO()
    assert run_crash([str(PACKAGE_DIR)], out=buf) == 1
    assert "CC003" in buf.getvalue()


def test_added_crash_point_fails_repro_analyze_crash(monkeypatch):
    from repro.chaos import hooks

    monkeypatch.setattr(hooks, "CRASH_POINTS",
                        tuple(hooks.CRASH_POINTS) + ("queue.ghost",))
    buf = io.StringIO()
    assert run_crash([str(PACKAGE_DIR)], out=buf) == 1
    assert "queue.ghost" in buf.getvalue()


# -- the merged-tree gate ----------------------------------------------


def test_repro_package_is_crash_clean_under_checked_in_baseline():
    baseline = Baseline.load(DEFAULT_CRASH_BASELINE_PATH)
    report = crash_report([PACKAGE_DIR], baseline=baseline)
    assert report.clean, "\n" + report.render()
    assert not report.stale_baseline, [
        e.key() for e in report.stale_baseline]
    # The justified in-place lease rewrite is really being suppressed
    # (the baseline is load-bearing, not decorative).
    assert {f.rule_id for f in report.suppressed} == {"CC001"}
    assert {f.scope for f in report.suppressed} == {
        "JobQueue.heartbeat"}


def test_crash_cli_clean_and_json(capsys):
    assert main(["analyze", "crash", str(PACKAGE_DIR), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"] == []
    assert payload["files_checked"] > 100
    assert "notes" in payload


def test_crash_cli_reports_findings(capsys):
    rc = main(["analyze", "crash", str(FIXTURES / "cc003_pos.py")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "CC003" in out and "queue.clam" in out


# -- analyze rules -----------------------------------------------------


def test_rules_listing_covers_both_families(capsys):
    assert main(["analyze", "rules", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    ids = {entry["rule"] for entry in payload}
    assert {r.rule_id for r in CC_RULES} <= ids
    assert "DET001" in ids
    families = {entry["family"] for entry in payload}
    assert families == {"crash-consistency", "determinism"}
    for entry in payload:
        assert entry["title"] and entry["fixit"]


def test_rules_text_output():
    buf = io.StringIO()
    assert run_rules(out=buf) == 0
    text = buf.getvalue()
    for rule in all_rules():
        assert rule.rule_id in text


def test_docs_rule_tables_cannot_drift():
    # Satellite: docs/ANALYSIS.md (hand-written tables) and docs/API.md
    # (generated by tools/gen_api.py from the same registry the CLI
    # prints) must mention every registered rule.
    root = pathlib.Path(__file__).resolve().parent.parent
    analysis_md = (root / "docs" / "ANALYSIS.md").read_text()
    api_md = (root / "docs" / "API.md").read_text()
    for rule in all_rules():
        assert rule.rule_id in analysis_md, (
            f"{rule.rule_id} missing from docs/ANALYSIS.md")
        assert rule.rule_id in api_md, (
            f"{rule.rule_id} missing from docs/API.md")


# -- baseline pruning --------------------------------------------------


def test_lint_prune_baseline_rewrites_and_is_idempotent(tmp_path):
    target = tmp_path / "clean.py"
    target.write_text("VALUE = 1\n")
    bl = tmp_path / "baseline.json"
    bl.write_text(json.dumps({
        "comment": "keep me",
        "entries": [{"rule": "DET001", "path": "gone.py", "scope": "f",
                     "snippet": "time.time()",
                     "justification": "code was deleted"}]}))
    buf = io.StringIO()
    rc = run_lint([str(target)], baseline_path=str(bl),
                  prune_baseline=True, out=buf)
    assert rc == 1
    assert "pruned 1 stale baseline entry" in buf.getvalue()
    payload = json.loads(bl.read_text())
    assert payload["entries"] == []
    assert payload["comment"] == "keep me"
    # Idempotent re-run: nothing left to prune, gate is green.
    rc = run_lint([str(target)], baseline_path=str(bl),
                  prune_baseline=True, out=io.StringIO())
    assert rc == 0


def test_crash_prune_baseline_drops_only_stale_entries(tmp_path):
    payload = json.loads(DEFAULT_CRASH_BASELINE_PATH.read_text())
    payload["entries"].append({
        "rule": "CC002", "path": "repro/perf/cache.py",
        "scope": "RunCache.put", "snippet": "os.replace(tmp, path)",
        "justification": "stale: the fsync fix landed"})
    bl = tmp_path / "crash_baseline.json"
    bl.write_text(json.dumps(payload))
    buf = io.StringIO()
    rc = run_crash([str(PACKAGE_DIR)], baseline_path=str(bl),
                   prune_baseline=True, out=buf)
    assert rc == 1
    assert "pruned 1 stale baseline entr" in buf.getvalue()
    kept = json.loads(bl.read_text())["entries"]
    assert len(kept) == len(json.loads(
        DEFAULT_CRASH_BASELINE_PATH.read_text())["entries"])
    assert all(e["rule"] == "CC001" for e in kept)
    rc = run_crash([str(PACKAGE_DIR)], baseline_path=str(bl),
                   prune_baseline=True, out=io.StringIO())
    assert rc == 0
