"""The lab corpus on a thread pool, and the in-place trial generator it runs.

`gen_lab_feature_vectors` draws profiles and task orders on the calling
thread and generates and featurizes each trial on a pool of
`available_cpus()` workers.  The rows must not depend on that count, so the
tests force it by replacing `simkit.available_cpus`.  The per-trial path
computes its temporaries in place, and on the pool in one `Workspace` per
thread; the out-of-place `pink_noise`, `gen_trial` and `hann_psd` it replaced
are kept below, bodies verbatim and under their original names, as oracles.
Every comparison is exact.
"""

from __future__ import annotations

import json
import os
import threading
import tracemalloc
from dataclasses import replace
from typing import Sequence

import numpy as np
import pytest

from mindkit import cli, features, simkit
from mindkit.features import FeatureError, FeatureVector, TrialWindow
from mindkit.simkit import (
    ARTIFACT_DURATION_S,
    ARTIFACT_GAIN,
    N_CHANNELS,
    SAMPLE_RATE,
    ProfileDistribution,
    SimulatorError,
    SyntheticSubjectProfile,
    _raised_cosine,
    _seed_list,
)
from mindkit.streamkit import Workspace, _hann_window
from mindkit.streamkit import hann_psd as shipped_hann_psd


# --- the out-of-place generator and Welch kernel, verbatim ----------------------------

def pink_noise(size: int | tuple[int, ...], sigma: float, rng: np.random.Generator) -> np.ndarray:
    """1/f-shaped Gaussian noise of shape `size` (int or shape), each row scaled to std sigma."""
    white = rng.standard_normal(size)
    n = white.shape[-1]
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n)
    scale = np.zeros_like(freqs)
    scale[1:] = 1.0 / np.sqrt(freqs[1:])  # drop DC entirely
    shaped = np.fft.irfft(spectrum * scale, n)
    std = shaped.std(axis=-1, keepdims=True)
    if np.any(std == 0):
        raise SimulatorError("degenerate noise draw")
    return shaped * (sigma / std)


def gen_trial(profile: SyntheticSubjectProfile, task: str, duration_s: float,
              sample_rate: int = SAMPLE_RATE,
              seed: int | Sequence[int] | None = None) -> TrialWindow:
    """One synthetic trial for `task`, deterministic in (profile, seed)."""
    if duration_s <= 0:
        raise SimulatorError("duration must be positive")
    # a profile with an explicit task vocabulary rejects tasks outside it;
    # an empty table means the profile is task-agnostic on purpose
    if profile.task_modulation and task not in profile.task_modulation:
        raise SimulatorError(f"unknown task {task!r} for this profile")
    rng = np.random.default_rng([profile.seed] + _seed_list(seed))
    n = int(round(duration_s * sample_rate))
    t = np.arange(n) / sample_rate
    data = pink_noise((N_CHANNELS, n), profile.baseline_sigma, rng)

    amps = np.full(N_CHANNELS, profile.alpha_amp)
    amps[list(profile.alpha_channels)] = profile.alpha_amp * profile.multiplier(task)
    phases = rng.uniform(0, 2 * np.pi, N_CHANNELS)
    data += amps[:, None] * np.sin(2 * np.pi * profile.alpha_freq * t + phases[:, None])

    if profile.line_noise_amp > 0:
        phase = rng.uniform(0, 2 * np.pi)
        data += profile.line_noise_amp * np.sin(2 * np.pi * profile.line_freq * t + phase)

    burst_len = int(ARTIFACT_DURATION_S * sample_rate)
    n_bursts = rng.poisson(profile.artifact_rate_per_min * duration_s / 60.0)
    envelope = _raised_cosine(burst_len) * ARTIFACT_GAIN * profile.baseline_sigma
    for _ in range(n_bursts):
        start = int(rng.integers(0, max(n - burst_len, 1)))
        span = min(burst_len, n - start)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        data[:, start:start + span] += sign * envelope[:span]

    return TrialWindow(samples=data, sample_rate=sample_rate, task=task)


def hann_psd(x: np.ndarray, sample_rate: int, nperseg: int,
             noverlap: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """One-sided PSD (density, uV^2/Hz) along the last axis by Welch's method.

    The signal is cut into periodic-Hann segments of `nperseg` samples,
    `noverlap` of them shared by neighbours, trailing samples that fill no
    segment dropped; each segment's mean is removed before the FFT and the
    segment periodograms are averaged.  One segment spanning the signal is
    the Hann periodogram.  Every step follows scipy.signal.welch, so the
    result equals it to the last bit.  Returns (frequency grid, PSD shaped
    x.shape[:-1] + (F,)); the signal must cover one segment.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)  # so the bits do not depend on x's layout
    hop = nperseg - noverlap
    n_segments = (x.shape[-1] - noverlap) // hop
    segments = np.lib.stride_tricks.sliding_window_view(x, nperseg, axis=-1)[
        ..., ::hop, :][..., :n_segments, :]
    segments = segments - np.mean(segments, axis=-1, keepdims=True)
    segments *= _hann_window(nperseg, sample_rate)
    spectra = np.fft.rfft(segments, axis=-1)
    del segments
    # (..., F, P) and contiguous, so the mean over segments adds in scipy's order;
    # the squares go straight into it, the imaginary ones over the spent spectra
    power = np.empty((*spectra.shape[:-2], spectra.shape[-1], n_segments))
    power_t = np.swapaxes(power, -1, -2)
    np.square(spectra.real, out=power_t)
    power_t += np.square(spectra.imag, out=spectra.imag)
    power[..., 1:-1 if nperseg % 2 == 0 else None, :] *= 2  # fold in the negative bins
    return np.fft.rfftfreq(nperseg, 1 / sample_rate), power.mean(axis=-1)



def _stock(name: str, seed: int, **changes) -> SyntheticSubjectProfile:
    return replace(simkit.STOCK_PROFILES[name](seed), **changes)


# A burst is clipped only in a trial shorter than one burst (128 samples): its
# start is drawn below n - 128.  At 6,000 bursts a minute a 0.3 s trial holds
# 30 of them on average, and none with probability e**-30.
PROFILES = [
    *(_stock(name, seed) for name in ("strong", "weak", "zero") for seed in (0, 7)),
    _stock("strong", 3, line_noise_amp=0.0),
    _stock("weak", 4, artifact_rate_per_min=300.0),
    _stock("zero", 5, artifact_rate_per_min=6_000.0),
]
DURATIONS = [30.0, 2.0, 513 / SAMPLE_RATE, 0.3]  # the last two: odd sample counts


@pytest.mark.parametrize("profile", PROFILES)
def test_gen_trial_equals_out_of_place_form(profile):
    tasks = sorted(profile.task_modulation) or ["memory"]
    for i, duration in enumerate(DURATIONS):
        for task in tasks:
            for seed in ([i, 3], i, None):
                got = simkit.gen_trial(profile, task, duration, seed=seed)
                want = gen_trial(profile, task, duration, seed=seed)
                assert got.samples.tobytes() == want.samples.tobytes()
                assert (got.sample_rate, got.task) == (want.sample_rate, want.task)


# --- one workspace through the trial chain --------------------------------------------

def test_gen_trial_in_one_workspace_equals_out_of_place_form():
    """30 s and 60 s trials in turn: the buffers grow once and are reused smaller."""
    workspace = Workspace()
    for i, duration in enumerate([30.0, 60.0, 30.0, 60.0]):
        for profile in PROFILES[::2]:
            tasks = sorted(profile.task_modulation) or ["memory"]
            task = tasks[i % len(tasks)]
            got = simkit.gen_trial(profile, task, duration, seed=[i, 3], workspace=workspace)
            want = gen_trial(profile, task, duration, seed=[i, 3])
            assert got.samples.tobytes() == want.samples.tobytes()
            # the trial lives in the workspace, so the Welch estimate runs on it in place
            got_features = features.extract_trial_features(got, workspace)
            want_features = features.extract_trial_features(want)
            assert got_features.values.tobytes() == want_features.values.tobytes()


def test_pink_noise_in_one_workspace_equals_out_of_place_form():
    workspace = Workspace()
    for size in [(4, 7680), 1001, (2, 3, 512), (4, 15360), (4, 7680)]:
        got = simkit.pink_noise(size, 12.0, np.random.default_rng(size), workspace)
        assert got.tobytes() == pink_noise(size, 12.0, np.random.default_rng(size)).tobytes()


# (signal shape, nperseg, noverlap): the 30 s and 60 s trials, an odd segment
# length, and the one-second window of the line-noise check
WELCH_CASES = [((4, 30 * SAMPLE_RATE), 512, 256), ((4, 60 * SAMPLE_RATE), 512, 256),
               ((3, 1000), 255, 127), ((4, SAMPLE_RATE), SAMPLE_RATE, 0)]


def test_hann_psd_in_one_workspace_equals_out_of_place_form():
    workspace, rng = Workspace(), np.random.default_rng(8)
    results = []
    for shape, nperseg, noverlap in WELCH_CASES + WELCH_CASES[::-1]:
        x = rng.normal(0.0, 10.0, shape)
        want_freqs, want = hann_psd(x, SAMPLE_RATE, nperseg, noverlap)
        for ws in (None, workspace):
            freqs, got = shipped_hann_psd(x, SAMPLE_RATE, nperseg, noverlap, ws)
            assert freqs.tobytes() == want_freqs.tobytes()
            assert got.tobytes() == want.tobytes()
            results.append((got, want))
    # the returned PSD is never a workspace buffer: later calls left each one alone
    assert all(got.tobytes() == want.tobytes() for got, want in results)


def test_without_a_workspace_every_trial_is_a_fresh_array():
    profile = PROFILES[0]
    first = simkit.gen_trial(profile, "memory", 2.0, seed=1)
    second = simkit.gen_trial(profile, "memory", 2.0, seed=2)
    assert not np.shares_memory(first.samples, second.samples)
    workspace = Workspace()
    first = simkit.gen_trial(profile, "memory", 2.0, seed=1, workspace=workspace)
    second = simkit.gen_trial(profile, "memory", 2.0, seed=2, workspace=workspace)
    assert np.shares_memory(first.samples, second.samples)


def test_lab_trials_in_one_workspace_allocate_no_trial_sized_arrays():
    """Each lab trial after the first raises the traced heap peak by at most 512 KiB.

    One 30 s trial's working arrays (draw, spectra, de-meaned Welch segments)
    come to more than twice that, and a trial without a workspace allocates
    them afresh.
    """
    dist = ProfileDistribution()
    profile = dist.draw(np.random.default_rng([3, 101]), seed=11)

    def traced_rise(idx: int, workspace: Workspace | None) -> int:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        simkit._trial_features(profile, dist.tasks, dist.tasks[idx % 2], idx, "lab00", 3,
                               simkit.LAB_TRIAL_DURATION_S, 0, "positive_memories",
                               workspace=workspace)
        return tracemalloc.get_traced_memory()[1] - before

    workspace = Workspace()
    tracemalloc.start()
    try:
        traced_rise(0, workspace)  # the workspace's buffers, and numpy's FFT plans
        rises = [traced_rise(idx, workspace) for idx in range(1, 5)]
        fresh = traced_rise(5, None)
    finally:
        tracemalloc.stop()
    assert max(rises) <= 512 * 1024, rises
    assert fresh > 1024 * 1024, fresh


# --- the corpus on 1, 2 and 3 workers -------------------------------------------------

@pytest.fixture(params=[1, 2, 3])
def workers(request, monkeypatch) -> int:
    monkeypatch.setattr(simkit, "available_cpus", lambda: request.param)
    return request.param


def sequential_corpus(n_subjects: int, trials: int, seed: int,
                      dist: ProfileDistribution, strategy: str) -> list[FeatureVector]:
    """The corpus as one gen_subject_feature_vectors call per subject, in order."""
    rng = np.random.default_rng([seed, 101])
    vectors = []
    for s in range(n_subjects):
        profile = dist.draw(rng, seed=int(rng.integers(2 ** 31)))
        vectors += simkit.gen_subject_feature_vectors(profile, dist.tasks, trials,
                                                      f"lab{s:02d}", seed + s,
                                                      strategy=strategy)
    return vectors


def assert_same_rows(got: list[FeatureVector], want: list[FeatureVector]) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.values.tobytes() == b.values.tobytes()
        assert (a.label, a.subject, a.day, a.strategy, a.trial_index) == \
            (b.label, b.subject, b.day, b.strategy, b.trial_index)


@pytest.mark.parametrize("shape", [(2, 2), (3, 8)])
@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("strategy", ["positive_memories", "music_imagery"])
def test_corpus_rows_do_not_depend_on_the_worker_count(workers, monkeypatch,
                                                       shape, seed, strategy):
    dist = ProfileDistribution(tasks=cli.STRATEGY_TASKS[strategy])
    want = sequential_corpus(*shape, seed, dist, strategy)
    ran_on, generate = set(), simkit.gen_trial

    def recording(*args, **kwargs):
        ran_on.add(threading.current_thread().name)
        return generate(*args, **kwargs)

    monkeypatch.setattr(simkit, "gen_trial", recording)
    got = simkit.gen_lab_feature_vectors(*shape, seed, distribution=dist, strategy=strategy)
    assert_same_rows(got, want)
    assert {row.label for row in got} == {1, -1}
    pool = min(workers, shape[0] * shape[1])
    assert ran_on and ran_on <= {f"lab-trial_{i}" for i in range(pool)}


def test_more_cpus_than_trials_gets_one_worker_per_trial(monkeypatch):
    monkeypatch.setattr(simkit, "available_cpus", lambda: 64)
    assert simkit.trial_workers(4) == 4
    assert simkit.trial_workers(0) == 1
    assert_same_rows(simkit.gen_lab_feature_vectors(2, 2, 5),
                     sequential_corpus(2, 2, 5, ProfileDistribution(), "positive_memories"))


def test_first_failed_trial_in_order_raises_its_own_exception(workers, monkeypatch):
    """Trial 5 fails with a SimulatorError and trial 6 with a FeatureError, as
    the serial loop would meet them: the pool raises the first, whichever ran first."""
    generate = simkit.gen_trial

    def failing(profile, task, duration_s, seed=None, **kwargs):
        if seed[-1] == 5:
            raise SimulatorError("trial 5 failed")
        if seed[-1] == 6:
            raise FeatureError("trial 6 failed")
        return generate(profile, task, duration_s, seed=seed, **kwargs)

    monkeypatch.setattr(simkit, "gen_trial", failing)
    with pytest.raises(SimulatorError, match="trial 5"):
        sequential_corpus(3, 8, 2, ProfileDistribution(), "positive_memories")
    with pytest.raises(SimulatorError, match="trial 5"):
        simkit.gen_lab_feature_vectors(3, 8, 2)


def test_odd_trial_count_fails_before_any_trial_runs(monkeypatch):
    monkeypatch.setattr(simkit, "gen_trial", lambda *a, **k: pytest.fail("a trial ran"))
    with pytest.raises(SimulatorError, match="split evenly"):
        simkit.gen_lab_feature_vectors(2, 3, 0)


@pytest.mark.parametrize("trials, seed, message", [(0, 0, "positive"), (-2, 0, "positive"),
                                                   (4, -1, "non-negative")],
                         ids=["no-trials", "negative-trials", "negative-seed"])
def test_bad_corpus_arguments_fail_before_any_trial_runs(monkeypatch, trials, seed, message):
    monkeypatch.setattr(simkit, "gen_trial", lambda *a, **k: pytest.fail("a trial ran"))
    with pytest.raises(SimulatorError, match=message):
        simkit.gen_lab_feature_vectors(2, trials, seed)


# --- the CPU count -------------------------------------------------------------------

def test_available_cpus_reads_the_affinity_mask():
    if hasattr(os, "sched_getaffinity"):
        assert simkit.available_cpus() == len(os.sched_getaffinity(0))
    assert simkit.available_cpus() >= 1


@pytest.mark.parametrize("count,expected", [(6, 6), (None, 1)])
def test_available_cpus_falls_back_to_the_cpu_count(monkeypatch, count, expected):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert simkit.available_cpus() == expected


def test_gen_lab_corpus_manifest_records_the_thread_count(tmp_path, monkeypatch):
    monkeypatch.setattr(simkit, "available_cpus", lambda: 3)
    out = tmp_path / "corpus.csv"
    assert cli.main(["gen-lab-corpus", "--subjects", "2", "--trials", "2", "--seed", "1",
                     "--out", str(out)]) == 0
    assert json.loads((tmp_path / "corpus.csv.manifest.json").read_text())["threads"] == 3
