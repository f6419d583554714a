"""Deterministic synthetic EEG for exercising the pipeline end to end.

A synthetic subject is a small parametric model: pink background noise
(inverse-FFT spectral shaping), an alpha-band sinusoid whose amplitude
is modulated multiplicatively per task on selected channels, a mains
sinusoid, and occasional raised-cosine artifact bursts at ten times
the baseline amplitude.  Everything is driven by numpy Generators
seeded explicitly, so identical seeds reproduce identical microvolts.
Channels are drawn in one call, in the order channel by channel would draw.

A laboratory corpus generates and featurizes its trials in threads, up to
one per CPU the process may run on; each trial has its own seed and the
rows come back in trial order, so the output bytes do not depend on that
count.  Each thread generates and featurizes its trials in the buffers of
one `Workspace`, so a trial allocates no large array of its own.
"""

from __future__ import annotations

import logging
import os
import threading
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import features as feat
from .datastore import read_json_file, write_json_file
from .decoder import TaskDataset, augment_bias
from .features import FeatureVector, TrialWindow, extract_trial_features, normalize_features
from .streamkit import N_CHANNELS, SAMPLE_RATE, Workspace, workspace_array

logger = logging.getLogger(__name__)

ARTIFACT_DURATION_S = 0.5
ARTIFACT_GAIN = 10.0  # burst amplitude relative to baseline sigma

LAB_SUBJECTS_MEMORIES = 11
LAB_TRIALS_MEMORIES = 40
LAB_TRIAL_DURATION_S = 30.0


class SimulatorError(ValueError):
    pass


@dataclass(frozen=True)
class FittingBehavior:
    """How quickly a simulated subject converges while adjusting the fit."""

    sigma_initial: float = 45.0
    sigma_final: float = 7.0
    time_constant_s: float = 20.0

    def sigma_at(self, elapsed_s: float) -> float:
        decay = np.exp(-elapsed_s / self.time_constant_s)
        return self.sigma_final + (self.sigma_initial - self.sigma_final) * decay


@dataclass(frozen=True)
class SyntheticSubjectProfile:
    """Generative parameters for one synthetic subject."""

    baseline_sigma: float = 12.0  # pink-noise std, uV
    alpha_amp: float = 8.0  # resting alpha amplitude, uV
    alpha_freq: float = 10.0  # Hz
    task_modulation: dict = field(default_factory=dict)  # task -> amplitude multiplier
    alpha_channels: tuple[int, ...] = (0, 1, 2, 3)  # channels carrying the modulation
    line_noise_amp: float = 1.0  # uV
    line_freq: float = 50.0
    artifact_rate_per_min: float = 1.0
    fitting: FittingBehavior = field(default_factory=FittingBehavior)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.baseline_sigma <= 0:
            raise SimulatorError("baseline_sigma must be positive")
        if self.alpha_amp < 0 or self.line_noise_amp < 0:
            raise SimulatorError("amplitudes must be non-negative")
        if not 7.0 <= self.alpha_freq <= 14.0:
            raise SimulatorError("alpha_freq must lie in 7..14 Hz")
        if any(not 0 <= ch < N_CHANNELS for ch in self.alpha_channels):
            raise SimulatorError("alpha_channels outside the channel range")
        for task, mult in self.task_modulation.items():
            if mult < 0:
                raise SimulatorError(f"negative modulation for task {task!r}")

    def multiplier(self, task: str) -> float:
        return float(self.task_modulation.get(task, 1.0))


def save_profile(profile: SyntheticSubjectProfile, path: str | Path) -> None:
    doc = asdict(profile)
    doc["alpha_channels"] = list(profile.alpha_channels)
    write_json_file(path, doc)


def load_profile(path: str | Path) -> SyntheticSubjectProfile:
    doc = read_json_file(path, SimulatorError, "profile")
    if not isinstance(doc, dict):
        raise SimulatorError("malformed profile: the top level must be an object")
    try:
        fitting = FittingBehavior(**doc.pop("fitting", {}))
        doc["alpha_channels"] = tuple(doc.get("alpha_channels", (0, 1, 2, 3)))
        return SyntheticSubjectProfile(fitting=fitting, **doc)
    except TypeError as exc:
        raise SimulatorError(f"malformed profile: {exc}") from exc


# Stock profiles for simulations: modulation depths above/below 1 make the
# two tasks of each strategy separable; 1.0 everywhere removes the signal.
def strong_profile(seed: int = 0) -> SyntheticSubjectProfile:
    return SyntheticSubjectProfile(
        task_modulation={"eyes_open": 0.25, "eyes_closed": 2.2,
                         "memory": 2.0, "subtraction": 0.35, "song": 1.9},
        seed=seed)


def weak_profile(seed: int = 0) -> SyntheticSubjectProfile:
    return SyntheticSubjectProfile(
        task_modulation={"eyes_open": 0.8, "eyes_closed": 1.25,
                         "memory": 1.2, "subtraction": 0.85, "song": 1.15},
        seed=seed)


def zero_profile(seed: int = 0) -> SyntheticSubjectProfile:
    return SyntheticSubjectProfile(task_modulation={}, seed=seed)


STOCK_PROFILES = {"strong": strong_profile, "weak": weak_profile, "zero": zero_profile}


def pink_noise(size: int | tuple[int, ...], sigma: float, rng: np.random.Generator,
               workspace: Workspace | None = None) -> np.ndarray:
    """1/f-shaped Gaussian noise of shape `size` (int or shape), each row scaled to std sigma.

    With a `workspace`, the white draw and its spectrum are written into the
    workspace's "scratch" and "spectrum" buffers and the noise into its
    "trial" buffer, which the next call overwrites; without one, every array
    is fresh.
    """
    # Every step writes through out= or in place: given a workspace, this call
    # allocates no array of the noise's size.
    shape = (size,) if isinstance(size, (int, np.integer)) else tuple(size)
    white = rng.standard_normal(out=workspace_array(workspace, "scratch", shape))
    n = shape[-1]
    spectrum = np.fft.rfft(white, out=workspace_array(
        workspace, "spectrum", (*shape[:-1], n // 2 + 1), np.complex128))
    del white
    freqs = np.fft.rfftfreq(n)
    scale = np.zeros_like(freqs)
    scale[1:] = 1.0 / np.sqrt(freqs[1:])  # drop DC entirely
    spectrum *= scale
    shaped = np.fft.irfft(spectrum, n, out=workspace_array(workspace, "trial", shape))
    del spectrum
    std = shaped.std(axis=-1, keepdims=True)
    if np.any(std == 0):
        raise SimulatorError("degenerate noise draw")
    shaped *= sigma / std
    return shaped


def _raised_cosine(n: int) -> np.ndarray:
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / max(n - 1, 1)))


def frame_count(duration_s: float) -> int:
    """Frames in a generated block or trial of `duration_s` seconds."""
    return int(round(duration_s * SAMPLE_RATE))


def gen_noise_block(profile: SyntheticSubjectProfile, duration_s: float,
                    sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Background-only block (pink noise + mains), shape (channels, samples)."""
    n = frame_count(duration_s)
    t = np.arange(n) / SAMPLE_RATE
    data = pink_noise((N_CHANNELS, n), sigma, rng)
    if profile.line_noise_amp > 0:
        phase = rng.uniform(0, 2 * np.pi)
        data += profile.line_noise_amp * np.sin(2 * np.pi * profile.line_freq * t + phase)
    return data


def gen_trial(profile: SyntheticSubjectProfile, task: str, duration_s: float,
              seed: int | Sequence[int] | None = None,
              workspace: Workspace | None = None) -> TrialWindow:
    """One synthetic trial for `task`, deterministic in (profile, seed).

    With a `workspace`, the trial's samples live in its "trial" buffer (see
    `pink_noise`) and are overwritten by the next trial generated in it; the
    bytes are the same as without one.
    """
    if duration_s <= 0:
        raise SimulatorError("duration must be positive")
    # a profile with an explicit task vocabulary rejects tasks outside it;
    # an empty table means the profile is task-agnostic on purpose
    if profile.task_modulation and task not in profile.task_modulation:
        raise SimulatorError(f"unknown task {task!r} for this profile")
    rng = np.random.default_rng([profile.seed] + _seed_list(seed))
    n = frame_count(duration_s)
    t = np.arange(n) / SAMPLE_RATE
    data = pink_noise((N_CHANNELS, n), profile.baseline_sigma, rng, workspace)

    amps = np.full(N_CHANNELS, profile.alpha_amp)
    amps[list(profile.alpha_channels)] = profile.alpha_amp * profile.multiplier(task)
    phases = rng.uniform(0, 2 * np.pi, N_CHANNELS)
    # the white draw is spent: the alpha term takes its buffer
    alpha = np.add(2 * np.pi * profile.alpha_freq * t, phases[:, None],
                   out=workspace_array(workspace, "scratch", data.shape))
    np.sin(alpha, out=alpha)
    alpha *= amps[:, None]
    data += alpha

    if profile.line_noise_amp > 0:
        phase = rng.uniform(0, 2 * np.pi)
        data += profile.line_noise_amp * np.sin(2 * np.pi * profile.line_freq * t + phase)

    burst_len = int(ARTIFACT_DURATION_S * SAMPLE_RATE)
    n_bursts = rng.poisson(profile.artifact_rate_per_min * duration_s / 60.0)
    envelope = _raised_cosine(burst_len) * ARTIFACT_GAIN * profile.baseline_sigma
    for _ in range(n_bursts):
        start = int(rng.integers(0, max(n - burst_len, 1)))
        span = min(burst_len, n - start)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        data[:, start:start + span] += sign * envelope[:span]

    return TrialWindow(samples=data, sample_rate=SAMPLE_RATE, task=task)


def _seed_list(seed: int | Sequence[int] | None) -> list[int]:
    if seed is None:
        return [0]
    if isinstance(seed, (int, np.integer)):
        return [int(seed)]
    return [int(s) for s in seed]


# --- corpora ---------------------------------------------------------------

@dataclass(frozen=True)
class ProfileDistribution:
    """Uniform ranges the per-subject profiles are drawn from."""

    tasks: tuple[str, str] = ("memory", "subtraction")
    baseline_sigma: tuple[float, float] = (9.0, 15.0)
    alpha_amp: tuple[float, float] = (2.0, 3.5)
    alpha_freq: tuple[float, float] = (9.0, 11.0)
    modulation_pos: tuple[float, float] = (1.03, 1.22)  # first task of the pair
    modulation_neg: tuple[float, float] = (0.80, 0.97)  # second task
    line_noise_amp: tuple[float, float] = (0.5, 2.0)
    artifact_rate_per_min: tuple[float, float] = (0.5, 2.0)

    def draw(self, rng: np.random.Generator, seed: int) -> SyntheticSubjectProfile:
        u = lambda lohi: float(rng.uniform(*lohi))
        return SyntheticSubjectProfile(
            baseline_sigma=u(self.baseline_sigma),
            alpha_amp=u(self.alpha_amp),
            alpha_freq=u(self.alpha_freq),
            task_modulation={self.tasks[0]: u(self.modulation_pos),
                             self.tasks[1]: u(self.modulation_neg)},
            line_noise_amp=u(self.line_noise_amp),
            artifact_rate_per_min=u(self.artifact_rate_per_min),
            seed=seed)


def _trial_order(profile: SyntheticSubjectProfile, tasks: tuple[str, str],
                 n_trials: int, seed: int) -> list[str]:
    """The balanced task sequence of one subject, shuffled by [seed, profile.seed]."""
    if n_trials <= 0 or n_trials % 2 != 0:
        raise SimulatorError(f"trial count must be positive and split evenly, got {n_trials}")
    rng = np.random.default_rng([seed, profile.seed])
    order = [tasks[0]] * (n_trials // 2) + [tasks[1]] * (n_trials // 2)
    return [order[i] for i in rng.permutation(n_trials)]


def _trial_features(profile: SyntheticSubjectProfile, tasks: tuple[str, str], task: str,
                    idx: int, subject: str, seed: int, trial_duration_s: float,
                    day: int, strategy: str,
                    workspace: Workspace | None = None) -> FeatureVector:
    """Trial `idx` of a subject, generated from [seed, profile.seed, idx] and featurized,
    in the buffers of `workspace` when one is given."""
    trial = gen_trial(profile, task, trial_duration_s, seed=[seed, profile.seed, idx],
                      workspace=workspace)
    return extract_trial_features(replace(
        trial, label=1 if task == tasks[0] else -1, subject=subject, day=day,
        strategy=strategy, trial_index=idx), workspace)


def gen_subject_feature_vectors(profile: SyntheticSubjectProfile,
                                tasks: tuple[str, str], n_trials: int,
                                subject: str, seed: int,
                                trial_duration_s: float = LAB_TRIAL_DURATION_S,
                                day: int = 0, strategy: str = "") -> list[FeatureVector]:
    """Balanced, shuffled, featurized trials for one subject (unnormalized)."""
    return [_trial_features(profile, tasks, task, idx, subject, seed, trial_duration_s,
                            day, strategy)
            for idx, task in enumerate(_trial_order(profile, tasks, n_trials, seed))]


def gen_task_dataset(profile: SyntheticSubjectProfile, tasks: tuple[str, str],
                     n_trials: int, subject: str, seed: int,
                     trial_duration_s: float = LAB_TRIAL_DURATION_S,
                     day: int = 0, strategy: str = "") -> TaskDataset:
    """One subject's trials as a normalized, bias-augmented task dataset."""
    vectors = gen_subject_feature_vectors(profile, tasks, n_trials, subject, seed,
                                          trial_duration_s, day, strategy)
    return tasks_from_feature_vectors(vectors, feat.GROUPING_LAB_SESSION)[0]


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this OS (macOS, Windows)
        return os.cpu_count() or 1


def trial_workers(n_trials: int) -> int:
    """Threads a corpus of n_trials gets: one per available CPU, at most one per trial."""
    return max(1, min(available_cpus(), n_trials))


def gen_lab_feature_vectors(n_subjects: int, trials_per_subject: int, seed: int,
                            distribution: ProfileDistribution | None = None,
                            strategy: str = "positive_memories") -> list[FeatureVector]:
    """Laboratory-style corpus as raw (unnormalized) feature rows.

    Profiles and task orders are drawn here, in subject order; the trials,
    each generated from its own seed, run on a thread pool of up to
    `available_cpus()` workers and come back in submission order, so the
    rows do not depend on the worker count.  Each worker thread runs its
    trials in one `Workspace` of its own, made here and dropped on return.
    """
    if n_subjects < 2:
        raise SimulatorError("a corpus needs at least two subjects")
    if seed < 0:
        raise SimulatorError(f"seed must be non-negative, got {seed}")
    dist = distribution or ProfileDistribution()
    rng = np.random.default_rng([seed, 101])
    trials = []
    for s in range(n_subjects):
        profile = dist.draw(rng, seed=int(rng.integers(2 ** 31)))
        order = _trial_order(profile, dist.tasks, trials_per_subject, seed + s)
        trials.extend((profile, dist.tasks, task, idx, f"lab{s:02d}", seed + s,
                       LAB_TRIAL_DURATION_S, 0, strategy)
                      for idx, task in enumerate(order))
    workspaces: dict[int, Workspace] = {}  # by thread id: one per worker thread

    def featurize(args: tuple) -> FeatureVector:
        workspace = workspaces.setdefault(threading.get_ident(), Workspace())
        return _trial_features(*args, workspace=workspace)

    # imported here, where the pool is: no other command pays for the import
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=trial_workers(len(trials)),
                            thread_name_prefix="lab-trial") as pool:
        # map reads the results in order: the first failed trial raises, and
        # the trials not yet started are cancelled
        return list(pool.map(featurize, trials))


def gen_lab_corpus(n_subjects: int, trials_per_subject: int, seed: int,
                   distribution: ProfileDistribution | None = None,
                   strategy: str = "positive_memories") -> list[TaskDataset]:
    """Laboratory-style corpus: one balanced task dataset per subject.

    The stock shapes are 11 subjects x 40 trials for the memories
    strategy and 10 subjects x 20 trials for music imagery.
    """
    vectors = gen_lab_feature_vectors(n_subjects, trials_per_subject, seed,
                                      distribution, strategy)
    return tasks_from_feature_vectors(vectors, feat.GROUPING_LAB_SESSION)


def tasks_from_feature_vectors(vectors: Sequence[FeatureVector],
                               grouping: str = feat.GROUPING_LAB_SESSION) -> list[TaskDataset]:
    """Normalize rows and regroup them into per-task datasets: one per normalization
    group and strategy."""
    normed = normalize_features(vectors, grouping)
    key = feat.group_key(grouping)
    groups: dict[tuple, list[FeatureVector]] = {}  # insertion-ordered: first row first
    for v in normed:
        groups.setdefault(key(v) + (v.strategy,), []).append(v)
    out = []
    for vs in groups.values():
        X = augment_bias(np.stack([v.values for v in vs]))
        y = np.array([v.label for v in vs], dtype=np.float64)
        out.append(TaskDataset(X=X, y=y, subject=vs[0].subject,
                               day=vs[0].day, strategy=vs[0].strategy))
    return out
