"""Deterministic synthetic EEG for exercising the pipeline end to end.

A synthetic subject is a small parametric model: pink background noise
(inverse-FFT spectral shaping), an alpha-band sinusoid whose amplitude
is modulated multiplicatively per task on selected channels, a mains
sinusoid, and occasional raised-cosine artifact bursts at ten times
the baseline amplitude.  Everything is driven by numpy Generators
seeded explicitly, so identical seeds reproduce identical microvolts.
Channels are drawn in one call, in the order channel by channel would draw.

Independent jobs (a laboratory corpus's trials, a study day's scenarios) run
through `run_forked`, up to one forked child per CPU, and come back in job
order: each has its own seed, so the bytes do not depend on the CPU count.
"""

from __future__ import annotations

import functools
import logging
import os
import pickle
import signal
from dataclasses import dataclass, field, fields, asdict, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import features as feat
from .datastore import read_field, read_json_file, write_json_file
from .decoder import TaskDataset, augment_bias
from .features import FeatureVector, TrialWindow, extract_trial_features
from .streamkit import MAX_ABS_SAMPLE_UV, N_CHANNELS, SAMPLE_RATE, Workspace

logger = logging.getLogger(__name__)

ARTIFACT_DURATION_S = 0.5
ARTIFACT_GAIN = 10.0  # burst amplitude relative to baseline sigma
# The largest amplitude, in uV, a profile may give any of its signals.  An artifact
# burst peaks at ARTIFACT_GAIN times the baseline sigma, and streamkit drops every
# frame beyond MAX_ABS_SAMPLE_UV: past this bound no burst could stay inside it.  The
# pink noise, alpha and mains terms are held to the same bound, so every term of a
# generated sample is far from overflow and the samples stay finite.
MAX_AMPLITUDE_UV = MAX_ABS_SAMPLE_UV / ARTIFACT_GAIN
# One burst starting per frame on average.  Each burst is one step of a Python loop,
# and numpy refuses a Poisson draw past about 1e19, so a rate needs some bound.
MAX_ARTIFACT_RATE_PER_MIN = 60.0 * SAMPLE_RATE

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

    def __post_init__(self) -> None:
        named = {f"fitting.{f.name}": getattr(self, f.name) for f in fields(self)}
        for name in named:
            read_field(named, name, "positive", SimulatorError)

    def sigma_at(self, elapsed_s: float) -> float:
        decay = np.exp(-elapsed_s / self.time_constant_s)
        return self.sigma_final + (self.sigma_initial - self.sigma_final) * decay


@dataclass(frozen=True)
class SyntheticSubjectProfile:
    """Generative parameters for one synthetic subject.

    Each amplitude is at most MAX_AMPLITUDE_UV and the artifact rate at most
    MAX_ARTIFACT_RATE_PER_MIN, so every profile that constructs generates
    finite samples (see both constants).
    """

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
        modulations = {f"task_modulation[{t!r}]": m for t, m in self.task_modulation.items()}
        named = {**vars(self), **modulations, **{f"fitting.{f.name}": getattr(self.fitting, f.name)
                                                 for f in fields(self.fitting)}}
        # the fitting's fields are positive (FittingBehavior); every amplitude is bounded
        for key, kind, lo, hi in (
                ("baseline_sigma", "positive", None, MAX_AMPLITUDE_UV),
                ("alpha_amp", "number", 0, MAX_AMPLITUDE_UV),
                ("alpha_freq", "number", 7.0, 14.0),
                ("line_noise_amp", "number", 0, MAX_AMPLITUDE_UV),
                ("line_freq", "positive", None, SAMPLE_RATE / 2),  # 1e308 Hz: an inf phase
                ("artifact_rate_per_min", "number", 0, MAX_ARTIFACT_RATE_PER_MIN),
                ("seed", "int", 0, None),
                *((name, "number", 0, None) for name in modulations),
                ("fitting.sigma_initial", "number", None, MAX_AMPLITUDE_UV),
                ("fitting.sigma_final", "number", None, MAX_AMPLITUDE_UV)):
            read_field(named, key, kind, SimulatorError, lo, hi)
        name = "alpha_amp times its largest task_modulation"
        read_field({name: self.alpha_amp * max([1.0, *self.task_modulation.values()])}, name,
                   "number", SimulatorError, hi=MAX_AMPLITUDE_UV)
        channels = self.alpha_channels
        if (any(type(ch) is not int or not 0 <= ch < N_CHANNELS for ch in channels)
                or len(set(channels)) != len(channels)):
            raise SimulatorError(f"field 'alpha_channels' must be distinct channel indices in "
                                 f"0..{N_CHANNELS - 1}, got {list(channels)!r}")

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
    except (AttributeError, OverflowError, TypeError) as exc:
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

    The white draw and its spectrum are written into the `workspace`'s
    "scratch" and "spectrum" buffers and the noise into its "trial" buffer,
    which the next call overwrites; without a workspace, a new one serves
    this call.
    """
    # Every step writes through out= or in place: in a workspace that has served
    # a call of this size, this call allocates no array of the noise's size.
    workspace = Workspace() if workspace is None else workspace
    shape = (size,) if isinstance(size, (int, np.integer)) else tuple(size)
    white = rng.standard_normal(out=workspace.array("scratch", shape))
    n = shape[-1]
    spectrum = np.fft.rfft(white, out=workspace.array(
        "spectrum", (*shape[:-1], n // 2 + 1), np.complex128))
    del white
    freqs = np.fft.rfftfreq(n)
    scale = np.zeros_like(freqs)
    scale[1:] = 1.0 / np.sqrt(freqs[1:])  # drop DC entirely
    spectrum *= scale
    shaped = np.fft.irfft(spectrum, n, out=workspace.array("trial", shape))
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

    The trial's samples live in the `workspace`'s "trial" buffer (see
    `pink_noise`) and are overwritten by the next trial generated in it;
    without a workspace, a new one serves this trial.
    """
    if duration_s <= 0:
        raise SimulatorError("duration must be positive")
    # a profile with an explicit task vocabulary rejects tasks outside it;
    # an empty table means the profile is task-agnostic on purpose
    if profile.task_modulation and task not in profile.task_modulation:
        raise SimulatorError(f"unknown task {task!r} for this profile")
    workspace = Workspace() if workspace is None else workspace
    rng = np.random.default_rng([profile.seed] + _seed_list(seed))
    n = frame_count(duration_s)
    t = np.arange(n) / SAMPLE_RATE
    data = pink_noise((N_CHANNELS, n), profile.baseline_sigma, rng, workspace)

    amps = np.full(N_CHANNELS, profile.alpha_amp)
    amps[list(profile.alpha_channels)] = profile.alpha_amp * profile.multiplier(task)
    phases = rng.uniform(0, 2 * np.pi, N_CHANNELS)
    # the white draw is spent: the alpha term takes its buffer
    alpha = np.add(2 * np.pi * profile.alpha_freq * t, phases[:, None],
                   out=workspace.array("scratch", data.shape))
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


def trial_workers(n_jobs: int) -> int:
    """Workers for n_jobs independent jobs (see `run_forked`): one per available CPU, at
    most one per job, and one where the platform has no `os.fork`."""
    return max(1, min(available_cpus(), n_jobs)) if hasattr(os, "fork") else 1


class _Forked:
    """A call run in a child process made by `os.fork`, its outcome read back through
    a pipe: calling it returns the call's value or raises its exception, with its type
    and message, and `stop()` ends the child unread.  Either one reaps the child.

    Python 3.12 warns about forking beside numpy's OpenBLAS threads, which quiesce
    around a fork (`pthread_atfork`); the child needs no lock another thread could
    hold.  It ends with `os._exit`, so it neither flushes the parent's buffered output
    nor returns into the parent's stack.
    """

    def __init__(self, call: Callable[[], object]) -> None:
        read_fd, write_fd = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            try:
                os.close(read_fd)
                try:
                    outcome = (True, call())
                except BaseException as exc:
                    outcome = (False, exc)
                with open(write_fd, "wb") as pipe:
                    pickle.dump(outcome, pipe, protocol=5)
            finally:
                os._exit(0)
        os.close(write_fd)
        self._pipe = open(read_fd, "rb")

    def __call__(self) -> object:
        try:
            ok, value = pickle.load(self._pipe)
        except (EOFError, pickle.UnpicklingError) as exc:
            raise ChildProcessError("a worker process ended without a result") from exc
        finally:
            self.stop()
        if not ok:
            raise value
        return value

    def stop(self) -> None:
        os.kill(self.pid, signal.SIGKILL)  # a child that has written is done anyway
        os.waitpid(self.pid, 0)
        self._pipe.close()


def run_forked(calls: Iterable[Callable[[], object]], workers: int,
               consume: Callable[[object], object]) -> None:
    """Run each call, in a child forked for it when `workers` > 1 and here otherwise,
    and hand each value to `consume` in call order.

    Once `workers` calls are waiting, the oldest is consumed, so this process and its
    children compute on at most `workers` CPUs.  An exception from a call or from
    `consume` stops the later calls, which in-process would not have run; an
    `Exception` from the `calls` iterator itself is raised once the calls before it
    are consumed, as in-process.  No child outlives this function.
    """
    waiting: list = []  # oldest first: each a `_Forked`, or with one worker a call
    calls = iter(calls)
    try:
        while True:
            try:
                call = next(calls)
            except Exception as exc:  # the last call made, or a failed step after it
                while waiting:
                    consume(waiting.pop(0)())
                if isinstance(exc, StopIteration):
                    return
                raise
            waiting.append(_Forked(call) if workers > 1 else call)
            if len(waiting) == workers:
                consume(waiting.pop(0)())
    finally:  # left waiting only by an exception: the later calls are never consumed
        for forked in waiting:
            forked.stop()


def gen_lab_feature_vectors(n_subjects: int, trials_per_subject: int, seed: int,
                            distribution: ProfileDistribution | None = None,
                            strategy: str = "positive_memories") -> list[FeatureVector]:
    """Laboratory-style corpus as raw (unnormalized) feature rows.

    Profiles and task orders are drawn here, in subject order; the trials run in
    `trial_workers` contiguous chunks through `run_forked`, each in one `Workspace`.
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
    def featurize(chunk: list[tuple]) -> list[FeatureVector]:
        workspace = Workspace()
        return [_trial_features(*args, workspace=workspace) for args in chunk]

    workers, rows = trial_workers(len(trials)), []
    bounds = [len(trials) * i // workers for i in range(workers + 1)]
    run_forked((functools.partial(featurize, trials[lo:hi])
                for lo, hi in zip(bounds, bounds[1:])), workers, rows.extend)
    return rows


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
    """Normalize rows and split them into per-task datasets, in one pass over the rows.

    Each normalization group of `features.group_key` (per subject for
    `lab-session`, per (subject, day) for `home-day`) is z-normalized with
    `features.normalize_matrix`, and each group and strategy becomes one
    `TaskDataset`; both groupings keep first-row order.  A group of fewer
    than two rows raises `GroupTooSmallError`, a non-finite normalized value
    `FeatureError` naming a row; no rows give no tasks.
    """
    key = feat.group_key(grouping)
    groups: dict[tuple, list[int]] = {}  # insertion-ordered: first row first
    tasks: dict[tuple, list[int]] = {}
    for i, v in enumerate(vectors):
        group = key(v)
        groups.setdefault(group, []).append(i)
        tasks.setdefault(group + (v.strategy,), []).append(i)
    raw = np.array([v.values for v in vectors], dtype=np.float64).reshape(-1, feat.N_FEATURES)
    matrix = np.empty_like(raw)
    for group, rows in groups.items():
        if len(rows) < 2:
            raise feat.GroupTooSmallError(f"group {group} has {len(rows)} vector(s); need >= 2")
        matrix[rows] = feat.normalize_matrix(raw[rows])
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():  # of the rows that did not normalize, name the one farthest out
        row = vectors[np.flatnonzero(~finite)[np.argmax(np.abs(raw[~finite]).max(axis=1))]]
        raise feat.FeatureError(f"feature values must be finite when normalized: the row of "
                                f"subject {row.subject}, trial {row.trial_index} overflows")
    return [TaskDataset(X=augment_bias(matrix[rows]),
                        y=np.array([vectors[i].label for i in rows], dtype=np.float64),
                        subject=vectors[rows[0]].subject, day=vectors[rows[0]].day,
                        strategy=vectors[rows[0]].strategy)
            for rows in tasks.values()]
