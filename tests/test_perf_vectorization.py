"""Bit-identity of the vectorized hot paths vs their loop references.

Every vectorization in this PR claims *exact* equivalence with the
historical per-item loop it replaced.  These tests hold each claim to
the bit: the reference loops below are transcriptions of the
pre-vectorization implementations (see git history of the modules under
test), and every comparison is ``==`` on floats — never ``approx``.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.apps.base import WorkloadProfile
from repro.apps.fwq import FwqConfig, FtqResult, run_fwq, run_mpi_fwq
from repro.errors import ConfigurationError
from repro.noise.catalog import noise_sources_for
from repro.noise.sampler import (
    BarrierDelaySampler,
    fwq_iteration_lengths,
    worst_nodes,
)
from repro.noise.source import NoiseSource, Occurrence
from repro.noise.spectral import SpectralPeak, find_periodic_noise, noise_spectrum
from repro.runtime import runner as runner_mod
from repro.runtime.nodesim import NoisyCore
from repro.runtime.runner import AppRunner, t_critical
from repro.sim.distributions import Fixed, TruncatedExponential
from repro.units import us


def _toy_profile(**kw):
    defaults = dict(
        name="toy", description="", scaling="weak", reference_nodes=16,
        sync_interval=5e-3, iterations=50, variability=0.1,
    )
    defaults.update(kw)
    return WorkloadProfile(**defaults)


def _mixed_sources():
    return [
        NoiseSource("tick", interval=1e-3, duration=Fixed(us(2)),
                    occurrence=Occurrence.PERIODIC),
        NoiseSource("daemon", interval=0.5,
                    duration=TruncatedExponential(scale=us(200),
                                                  cap=us(900))),
        NoiseSource("rare", interval=50.0, duration=Fixed(us(500))),
    ]


def _rngs(n, tag=0):
    return [np.random.default_rng((tag, t)) for t in range(n)]


def _sample_loop(self, n_intervals, rngs):
    """The per-trial loop ``sample_batch`` replaced: patched over it,
    it makes :meth:`AppRunner.run` draw trial by trial."""
    return np.stack([self.sample(n_intervals, rng) for rng in rngs])


# -- BarrierDelaySampler.sample_batch ---------------------------------


@pytest.mark.parametrize("sources", [
    pytest.param(_mixed_sources(), id="mixed-catalogue"),
    pytest.param(_mixed_sources()[:1], id="single-source"),
], )
def test_sample_batch_bitwise_matches_sample_loop(sources):
    sampler = BarrierDelaySampler(sources, sync_interval=5e-3,
                                  n_threads=4096)
    batch = sampler.sample_batch(64, _rngs(8))
    looped = np.stack([sampler.sample(64, rng) for rng in _rngs(8)])
    assert batch.shape == (8, 64)
    assert batch.tobytes() == looped.tobytes()


def test_sample_batch_matches_on_linux_catalogue(fugaku_linux):
    sources = noise_sources_for(fugaku_linux)
    assert len(sources) > 1  # the interesting multi-source case
    sampler = BarrierDelaySampler(sources, sync_interval=5e-3,
                                  n_threads=48 * 256)
    batch = sampler.sample_batch(32, _rngs(5, tag=7))
    looped = np.stack([sampler.sample(32, rng) for rng in _rngs(5, tag=7)])
    assert batch.tobytes() == looped.tobytes()


def test_sample_batch_leaves_rng_streams_untouched():
    """Each trial generator ends in the exact state the serial path
    leaves it in — the property that makes batches composable."""
    sampler = BarrierDelaySampler(_mixed_sources(), sync_interval=5e-3,
                                  n_threads=1024)
    batch_rngs, loop_rngs = _rngs(6), _rngs(6)
    sampler.sample_batch(48, batch_rngs)
    for rng in loop_rngs:
        sampler.sample(48, rng)
    for a, b in zip(batch_rngs, loop_rngs):
        assert a.bit_generator.state == b.bit_generator.state


def test_sample_batch_edge_cases():
    sampler = BarrierDelaySampler(_mixed_sources(), sync_interval=5e-3,
                                  n_threads=16)
    assert sampler.sample_batch(10, []).shape == (0, 10)
    with pytest.raises(ConfigurationError):
        sampler.sample_batch(0, _rngs(2))


# -- AppRunner trial batching -----------------------------------------


@pytest.mark.parametrize("os_fixture", ["fugaku_linux", "fugaku_mckernel"])
def test_run_batched_equals_run_looped(request, monkeypatch,
                                       fugaku_machine, os_fixture):
    os_instance = request.getfixturevalue(os_fixture)
    runner = AppRunner(fugaku_machine, _toy_profile(), seed=3)
    batched = runner.run(os_instance, 256, n_runs=6)
    monkeypatch.setattr(BarrierDelaySampler, "sample_batch", _sample_loop)
    looped = runner.run(os_instance, 256, n_runs=6)
    assert batched.times == looped.times
    assert batched == looped  # full dataclass, breakdown included


def test_trial_batches_compose(fugaku_machine, fugaku_linux):
    """Trial k depends only on coordinate k, so a 6-trial run is a
    bitwise superset of the 3-trial run."""
    runner = AppRunner(fugaku_machine, _toy_profile(), seed=1)
    small = runner.run(fugaku_linux, 128, n_runs=3)
    big = runner.run(fugaku_linux, 128, n_runs=6)
    assert big.times[:3] == small.times


# -- t_critical -------------------------------------------------------


def test_t_critical_memoizes(monkeypatch):
    monkeypatch.setattr(runner_mod, "_T_CRIT_MEMO", {})
    first = t_critical(7)
    assert runner_mod._T_CRIT_MEMO == {7: first}
    # Second call must come from the memo: poison the import path.
    monkeypatch.setitem(sys.modules, "scipy", None)
    assert t_critical(7) == first


def test_t_critical_scipy_free_fallback(monkeypatch):
    monkeypatch.setattr(runner_mod, "_T_CRIT_MEMO", {})
    monkeypatch.setitem(sys.modules, "scipy", None)
    assert t_critical(5) == runner_mod._T_TABLE[5]
    assert t_critical(30) == runner_mod._T_TABLE[30]
    assert t_critical(200) == runner_mod._T_NORMAL_LIMIT


def test_t_critical_table_matches_scipy_when_available():
    scipy = pytest.importorskip("scipy")
    for df in (1, 5, 30):
        assert runner_mod._T_TABLE[df] == pytest.approx(
            float(scipy.stats.t.ppf(0.975, df)), abs=5e-4)


def test_t_critical_rejects_bad_df():
    with pytest.raises(ConfigurationError):
        t_critical(0)


# -- FWQ batching -----------------------------------------------------


def test_run_fwq_bitwise_matches_per_repeat_loop():
    sources = _mixed_sources()
    config = FwqConfig(quantum=6.5e-3, duration=2.0, repeats=4)
    batched = run_fwq(sources, config, np.random.default_rng(11))
    # Historical implementation: one fwq_iteration_lengths call per
    # repeat on the shared stream, pooled with concatenate.
    rng = np.random.default_rng(11)
    runs = [fwq_iteration_lengths(sources, config.quantum,
                                  config.iterations_per_run, rng)
            for _ in range(config.repeats)]
    assert batched.iteration_lengths.tobytes() == \
        np.concatenate(runs).tobytes()


def test_run_mpi_fwq_bitwise_matches_per_node_loop(fugaku_linux):
    config = FwqConfig(quantum=6.5e-3, duration=1.0, repeats=2)
    batched = run_mpi_fwq(fugaku_linux, 512, config,
                          np.random.default_rng(4), keep_worst=3,
                          max_explicit_nodes=8)
    # Historical implementation: per-node fwq_iteration_lengths into a
    # preallocated (explicit, n_iter) array, then worst-node selection.
    sources = noise_sources_for(fugaku_linux, include_stragglers=True)
    rng = np.random.default_rng(4)
    n_iter = config.iterations_per_run * config.repeats
    per_node = np.empty((8, n_iter), dtype=float)
    for node in range(8):
        per_node[node] = fwq_iteration_lengths(sources, config.quantum,
                                               n_iter, rng)
    kept = worst_nodes(per_node, 3)
    assert batched.node_lengths.tobytes() == kept.tobytes()


# -- spectral comb suppression ----------------------------------------


def _find_periodic_noise_loop(result, threshold=12.0, max_peaks=5):
    """Transcription of the pre-vectorization per-bin scan."""
    freqs, power = noise_spectrum(result)
    peak_power = float(power.max())
    if peak_power <= 0.0:
        return []
    floor = max(float(np.median(power)), peak_power * 1e-9)
    peaks = []
    suppressed = np.zeros(len(power), dtype=bool)
    for idx in range(len(power)):
        if len(peaks) >= max_peaks:
            break
        if suppressed[idx]:
            continue
        if power[idx] / floor < threshold:
            continue
        lo = max(0, idx - 2)
        hi = min(len(power), idx + 3)
        best = lo + int(np.argmax(power[lo:hi]))
        fundamental = freqs[best]
        peaks.append(SpectralPeak(
            frequency_hz=float(fundamental),
            period_s=float(1.0 / fundamental),
            power_ratio=float(power[best] / floor),
        ))
        k = 1
        while k * fundamental <= freqs[-1] + 1e-12:
            h = int(np.argmin(np.abs(freqs - k * fundamental)))
            suppressed[max(0, h - 2):h + 3] = True
            k += 1
    return peaks


def _comb_trace(rng):
    """An FTQ trace with two interleaved harmonic combs + rough floor."""
    n = 4096
    work = np.full(n, 1000.0)
    work[::40] -= 120.0   # 25 Hz comb at window=1ms
    work[::17] -= 60.0    # ~58.8 Hz comb, not bin-aligned
    work += rng.normal(0.0, 0.5, n)
    return FtqResult(window=1e-3, work_units=work)


def test_find_periodic_noise_matches_loop_reference():
    rng = np.random.default_rng(99)
    for trial in range(5):
        trace = _comb_trace(rng)
        assert find_periodic_noise(trace) == \
            _find_periodic_noise_loop(trace)


def test_find_periodic_noise_matches_loop_on_pure_comb():
    # No stochastic floor: exercises the peak_power*1e-9 floor bound
    # and full-comb suppression.
    n = 2048
    work = np.full(n, 1000.0)
    work[::32] -= 100.0
    trace = FtqResult(window=1e-3, work_units=work)
    vec = find_periodic_noise(trace)
    assert vec == _find_periodic_noise_loop(trace)
    assert len(vec) >= 1


# -- NoisyCore chunked event charging ---------------------------------


class _FixedEvents:
    """A NoiseSource stand-in with a pre-scripted event timeline."""

    def __init__(self, starts, durs):
        self._events = (np.asarray(starts, float), np.asarray(durs, float))

    def sample_events(self, horizon, rng):
        return self._events


def _loop_reference(starts, durs, calls):
    """Transcription of the pre-vectorization one-event-at-a-time walk."""
    cursor = 0
    out = []
    for t, work in calls:
        while cursor < len(starts) and starts[cursor] < t:
            cursor += 1
        wall_end = t + work
        i = cursor
        while i < len(starts) and starts[i] < wall_end:
            wall_end += durs[i]
            i += 1
        cursor = i
        out.append(wall_end - t)
    return out


@pytest.mark.parametrize("chunk", [2, 64])
def test_noisy_core_matches_event_loop(chunk, monkeypatch):
    # Dense, cascading events: charging one event pulls in the next.
    rng = np.random.default_rng(8)
    starts = np.sort(rng.uniform(0.0, 10.0, 400))
    durs = rng.uniform(0.005, 0.05, 400)
    core = NoisyCore([_FixedEvents(starts, durs)], horizon=10.0,
                     rng=np.random.default_rng(0))
    monkeypatch.setattr(NoisyCore, "_CHUNK", chunk)
    calls = [(0.0, 0.3), (0.5, 0.01), (0.9, 1.4), (4.0, 0.0),
             (4.2, 2.5), (8.0, 0.6), (9.5, 3.0)]
    expected = _loop_reference(core._starts, core._durs, calls)
    got = [core.work_duration(t, w) for t, w in calls]
    assert got == expected  # exact float equality, chunking included


def test_noisy_core_clean_timeline():
    core = NoisyCore([], horizon=1.0, rng=np.random.default_rng(0))
    assert core.work_duration(0.0, 0.25) == 0.25
    with pytest.raises(ConfigurationError):
        core.work_duration(0.5, -1.0)
