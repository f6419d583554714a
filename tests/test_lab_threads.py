"""The lab corpus on a thread pool, and the in-place trial generator it runs.

`gen_lab_feature_vectors` draws profiles and task orders on the calling
thread and generates and featurizes each trial on a pool of
`available_cpus()` workers.  The rows must not depend on that count, so the
tests force it by replacing `simkit.available_cpus`.  The per-trial path
computes its temporaries in place; the out-of-place `pink_noise` and
`gen_trial` it replaced are kept below, bodies verbatim and under their
original names, as oracles.  Every comparison is exact.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import replace
from typing import Sequence

import numpy as np
import pytest

from mindkit import cli, simkit
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


# --- the out-of-place generator, verbatim -------------------------------------------

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
        assert (a.label, a.subject, a.day, a.strategy, a.trial_index, a.normalized) == \
            (b.label, b.subject, b.day, b.strategy, b.trial_index, b.normalized)


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

    def failing(profile, task, duration_s, sample_rate=SAMPLE_RATE, seed=None):
        if seed[-1] == 5:
            raise SimulatorError("trial 5 failed")
        if seed[-1] == 6:
            raise FeatureError("trial 6 failed")
        return generate(profile, task, duration_s, sample_rate, seed)

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
    assert json.loads((tmp_path / "manifest.json").read_text())["threads"] == 3
