"""Tests of the benchmark itself (run: python -m pytest perfbench/tests).

The end-to-end cases run every workload at its smallest size through
the same command the benchmark contract names, once untraced and once
traced, and share those runs through a module-scoped cache.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _generate_all(seed: int) -> bytes:
    c = corpus.generate(seed, 12)
    return inputs.input_bytes({
        "paper": inputs.paper_inputs(seed),
        "sweep": inputs.sweep_inputs(seed, 40),
        "service": inputs.service_inputs(seed, 40),
        "corpus": [m.text() for m in c.modules],
        "edits": {str(i): m.text() for i, m in c.edits.items()},
        "expected": [m.expected() for m in c.modules],
        "docs": c.docs(),
        "catalogue": c.catalogue(),
    })


def test_generators_are_deterministic_per_seed():
    assert _generate_all(7) == _generate_all(7)
    assert _generate_all(7) != _generate_all(8)


def test_generators_read_no_program_file():
    """Generation imports nothing from the program and opens no file."""
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "import corpus, inputs\n"
        "opened = []\n"
        "sys.addaudithook(lambda ev, args: opened.append(args[0])"
        " if ev == 'open' else None)\n"
        "corpus.generate(3, 12); inputs.sweep_inputs(3, 40)\n"
        "inputs.service_inputs(3, 40); inputs.paper_inputs(3)\n"
        "assert not opened, opened\n"
        "assert not any(m == 'repro' or m.startswith('repro.')"
        " for m in sys.modules)\n")
    subprocess.run([sys.executable, "-c", code], check=True, cwd=BENCH)


def test_workload_mixes_match_their_stated_shares():
    batches = inputs.sweep_inputs(5, 400)
    assert sum(b["repeat_of"] is not None for b in batches) == 100
    jobs = inputs.service_inputs(5, 500)
    kinds = [j["kind"] for j in jobs]
    assert kinds.count("experiment") == 100
    keys = [inputs.input_bytes(j) for j in jobs]
    assert len(keys) - len(set(keys)) == 100
    assert all(2 <= len(j["specs"]) <= 4 for j in jobs
               if j["kind"] == "sweep")


def test_corpus_plants_only_stable_rules_and_edits_a_tenth():
    c = corpus.generate(11, 130)
    rules = {r for m in c.modules for r, _ in m.expected()}
    assert "CC009" not in rules
    assert {"CC001", "CC002", "CC007", "CC008", "DET001"} <= rules
    assert len(c.edits) == 13
    clean = [m for m in c.modules if not m.expected()]
    assert 0.3 < len(clean) / len(c.modules) < 0.5
    lines = sorted(m.text().count("\n") for m in c.modules)
    assert 120 <= lines[len(lines) // 2] <= 200
    assert lines[-1] > 1000


def test_install_restores_every_wrapped_callable():
    sys.path.insert(0, str(ROOT / "src"))
    import spans

    tracer = spans.Tracer()
    installer = spans.Installer(tracer)
    installer.install()
    patched = [(owner, attr) for owner, attr, _ in installer._undo]
    originals = [value for _, _, value in installer._undo]
    installer.uninstall()
    for (owner, attr), value in zip(patched, originals):
        current = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        assert current is value


_RUNS: dict = {}


def _run(workload: str, trace: int) -> dict:
    key = (workload, trace)
    if key not in _RUNS:
        proc = subprocess.run(
            [*SPEC["command"], "--workload", workload, "--seed", "5",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-3000:]
        _RUNS[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _RUNS[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_checks_and_emits_declared_metrics(workload, trace):
    """A tiny run passes every output check (for ``--trace 1`` this
    includes traced outputs byte-identical to untraced ones) and emits
    exactly the metrics BENCHMARK.json declares, with their units."""
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_service_calls_only_on_the_service_workload():
    for workload in WORKLOADS:
        metrics = _run(workload, 1)["metrics"]
        calls = metrics["service.claim_next_calls"]["value"]
        assert (calls > 0) == (workload == "service"), workload


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_steadiness_summary_applies_the_bounds():
    import steadiness

    def runs(wall):
        return [{"workload": "sweep", "seed": seed, "steal": 0.0,
                 "metrics": {m["name"]: wall(seed) if m["name"] == "wall_s"
                             else 1.0 for m in SPEC["end_to_end"]}}
                for seed in range(1, 9)]

    table, ok = steadiness.summary(runs(lambda seed: 1.0 + seed / 100), 4)
    assert ok and table["sweep/wall_s"]["within"]
    table, ok = steadiness.summary(runs(lambda seed: seed), 4)
    assert not ok and not table["sweep/wall_s"]["within"]
    assert table["sweep/setup_s"]["within"]


def test_refclock_scales_by_the_local_slice_time():
    import refclock

    ref = refclock.RefClock()
    # Ticks at t = 0, 1, 2, 3 (each 0.01 s long); the slice ran at half
    # speed around the first two gaps and at reference speed later.
    for k, sample in enumerate((2, 2, 2, 1, 1, 1, 1)):
        ref.starts.append(float(k))
        ref.ends.append(k + 0.01)
        ref.samples.append(sample * refclock.MIXED.seconds)
        ref.cpu.append(0.01)
    assert ref.busy(0.0, 6.01) == pytest.approx(6.01 - 7 * 0.01)
    # Gap 1 (0.01 .. 1.0): median of ticks 0-3 is 2x -> half.
    assert ref.scaled(0.5, 0.9) == pytest.approx(0.2)
    # Gap 5 (4.01 .. 5.0): median of ticks 3-6 is 1x -> unchanged.
    assert ref.scaled(4.5, 4.9) == pytest.approx(0.4)
    # A stretch holding a tick leaves the tick out.
    assert ref.scaled(4.5, 5.5) == pytest.approx(0.5 + 0.49)
    assert ref.slice_cpu(0.0, 2.5) == pytest.approx(0.03)
