"""The channel axis as an array axis: batched code against per-channel oracles.

Welch features, the line-noise check and the synthetic EEG generators run
over all channels in one call.  The per-channel implementations they
replaced are kept below, bodies verbatim and under their original names, as
oracles; the code under test is reached through the module prefixes
`feat.`, `sk.` and `simkit.`.  Every comparison is exact (`==`), not approximate.
"""

from __future__ import annotations

import warnings
from dataclasses import replace
from typing import Sequence

import numpy as np
import pytest
from scipy.signal import periodogram, welch

from mindkit import features as feat
from mindkit import simkit
from mindkit import streamkit as sk
from mindkit.features import (
    BAND_FEATURES,
    DOMINANT_BAND,
    SEGMENT_OVERLAP,
    SEGMENT_SECONDS,
    FeatureError,
    FeatureVector,
    ShortSignalError,
    SpectralEstimate,
    TrialWindow,
)
from mindkit.simkit import (
    ARTIFACT_DURATION_S,
    ARTIFACT_GAIN,
    SimulatorError,
    SyntheticSubjectProfile,
    _raised_cosine,
    _seed_list,
)
from mindkit.streamkit import (
    DEFAULT_LINE_FREQ,
    EM_BAND_HALF_WIDTH_HZ,
    EM_LOG_POWER_BAD,
    EM_LOG_POWER_GOOD,
    N_CHANNELS,
    SAMPLE_RATE,
    NoiseReport,
)


# --- per-channel references, verbatim ----------------------------------------

def psd_welch(x: np.ndarray, sample_rate: int = SAMPLE_RATE) -> SpectralEstimate:
    """Welch PSD with 2 s Hann segments, 50% overlap, density scaling."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise FeatureError("psd_welch expects a 1-D signal")
    nperseg = int(round(SEGMENT_SECONDS * sample_rate))
    if x.size < nperseg:
        raise ShortSignalError(f"need at least {nperseg} samples "
                               f"({SEGMENT_SECONDS:g} s), got {x.size}")
    freqs, psd = welch(x, fs=sample_rate, window="hann", nperseg=nperseg,
                       noverlap=int(nperseg * SEGMENT_OVERLAP), scaling="density")
    return SpectralEstimate(freqs=freqs, psd=psd)


def band_power(estimate: SpectralEstimate, band: tuple[float, float]) -> float:
    """Integrated power (uV^2) in `band`: sum of PSD bins times bin width."""
    lo, hi = band
    mask = (estimate.freqs >= lo) & (estimate.freqs <= hi)
    return float(np.sum(estimate.psd[mask]) * estimate.resolution)


def log_band_power(estimate: SpectralEstimate, band: tuple[float, float]) -> float:
    """log10 of the mean PSD across the bins inside `band` (inclusive)."""
    lo, hi = band
    mask = (estimate.freqs >= lo) & (estimate.freqs <= hi)
    if not mask.any():
        raise FeatureError(f"band {band} contains no PSD bins")
    mean_power = float(np.mean(estimate.psd[mask]))
    if mean_power <= 0.0:
        return -np.inf
    return float(np.log10(mean_power))


def dominant_frequency(estimate: SpectralEstimate,
                       band: tuple[float, float] = DOMINANT_BAND) -> float:
    """Frequency of the largest PSD bin inside `band`; ties pick the lower bin."""
    lo, hi = band
    mask = (estimate.freqs >= lo) & (estimate.freqs <= hi)
    if not mask.any():
        raise FeatureError(f"band {band} contains no PSD bins")
    freqs = estimate.freqs[mask]
    psd = estimate.psd[mask]
    return float(freqs[int(np.argmax(psd))])


def extract_trial_features(trial: TrialWindow) -> FeatureVector:
    """Reduce one trial to its sixteen-feature vector (see FEATURE_NAMES)."""
    data = trial.samples
    if data.shape[0] != N_CHANNELS:
        raise FeatureError(f"expected {N_CHANNELS} channels, got {data.shape[0]}")
    values: list[float] = []
    for ch in range(N_CHANNELS):
        est = psd_welch(data[ch], trial.sample_rate)
        for _, band in BAND_FEATURES:
            values.append(log_band_power(est, band))
        values.append(dominant_frequency(est))
    return FeatureVector(values=np.array(values), label=trial.label,
                         subject=trial.subject, day=trial.day,
                         strategy=trial.strategy, trial_index=trial.trial_index)


def env_quality_from_log_power(log_band_power: float) -> float:
    """Map log10 line-band power onto the 0..1 environment score."""
    span = EM_LOG_POWER_BAD - EM_LOG_POWER_GOOD
    return min(max((EM_LOG_POWER_BAD - log_band_power) / span, 0.0), 1.0)


def line_noise_log_power(window: np.ndarray, sample_rate: int = SAMPLE_RATE,
                         line_freq: float = DEFAULT_LINE_FREQ) -> float:
    """log10 mean power spectral density in a +/-1 Hz band at line_freq."""
    x = np.asarray(window, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("expected a 1-D window")
    if x.size != sample_rate:
        raise ValueError(f"line-noise check needs exactly {sample_rate} samples "
                         f"(1 s), got {x.size}")
    freqs, psd = periodogram(x, fs=sample_rate, window="hann", scaling="density")
    band = (freqs >= line_freq - EM_BAND_HALF_WIDTH_HZ) & (freqs <= line_freq + EM_BAND_HALF_WIDTH_HZ)
    power = float(np.mean(psd[band]))
    if power <= 0.0:
        return -np.inf
    return float(np.log10(power))


def em_noise_quality(window: np.ndarray, sample_rate: int = SAMPLE_RATE,
                     line_freq: float = DEFAULT_LINE_FREQ) -> NoiseReport:
    """Environment quality per channel from one second of raw data."""
    data = np.atleast_2d(np.asarray(window, dtype=np.float64))
    log_powers = tuple(line_noise_log_power(ch, sample_rate, line_freq) for ch in data)
    env = tuple(env_quality_from_log_power(p) for p in log_powers)
    return NoiseReport(per_channel=env, log_band_power=log_powers, line_freq=line_freq)


def pink_noise(n_samples: int, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """1/f-shaped Gaussian noise scaled to the requested std."""
    white = rng.standard_normal(n_samples)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n_samples)
    scale = np.zeros_like(freqs)
    scale[1:] = 1.0 / np.sqrt(freqs[1:])  # drop DC entirely
    shaped = np.fft.irfft(spectrum * scale, n_samples)
    std = shaped.std()
    if std == 0:
        raise SimulatorError("degenerate noise draw")
    return shaped * (sigma / std)


def gen_noise_block(profile: SyntheticSubjectProfile, duration_s: float,
                    sigma: float, rng: np.random.Generator,
                    sample_rate: int = SAMPLE_RATE) -> np.ndarray:
    """Background-only block (pink noise + mains), shape (channels, samples)."""
    n = int(round(duration_s * sample_rate))
    t = np.arange(n) / sample_rate
    data = np.stack([pink_noise(n, sigma, rng) for _ in range(N_CHANNELS)])
    if profile.line_noise_amp > 0:
        phase = rng.uniform(0, 2 * np.pi)
        data += profile.line_noise_amp * np.sin(2 * np.pi * profile.line_freq * t + phase)
    return data


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
    data = np.stack([pink_noise(n, profile.baseline_sigma, rng)
                     for _ in range(N_CHANNELS)])

    alpha_amp = profile.alpha_amp * profile.multiplier(task)
    for ch in range(N_CHANNELS):
        amp = alpha_amp if ch in profile.alpha_channels else profile.alpha_amp
        phase = rng.uniform(0, 2 * np.pi)
        data[ch] += amp * np.sin(2 * np.pi * profile.alpha_freq * t + phase)

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


# --- inputs ----------------------------------------------------------------------

N_CASES = 200
TASKS = ("eyes_open", "eyes_closed", "memory", "subtraction", "song")


def random_profile(rng: np.random.Generator, seed: int) -> SyntheticSubjectProfile:
    """Any alpha_channels subset (empty included), 50 or 60 Hz mains or none,
    and every fifth profile task-agnostic like the stock zero profile."""
    channels = rng.permutation(N_CHANNELS)[:int(rng.integers(0, N_CHANNELS + 1))]
    modulation = {} if seed % 5 == 0 else dict(zip(TASKS, rng.uniform(0.0, 3.0, 5).tolist()))
    return SyntheticSubjectProfile(
        baseline_sigma=float(rng.uniform(2.0, 25.0)), alpha_amp=float(rng.uniform(0.0, 12.0)),
        alpha_freq=float(rng.uniform(7.0, 14.0)), task_modulation=modulation,
        alpha_channels=tuple(sorted(channels.tolist())),
        line_noise_amp=float(rng.uniform(0.0, 4.0)) if seed % 3 else 0.0,
        line_freq=(50.0, 60.0)[seed % 2],
        artifact_rate_per_min=float(rng.uniform(0.0, 12.0)), seed=seed)


def trial_signals(source: str) -> list[np.ndarray]:
    """(4, n) signals of odd and even lengths; random ones have silent channels."""
    rng = np.random.default_rng(["random", "simulated"].index(source))
    signals = []
    for i in range(N_CASES):
        n = int(rng.integers(512, 4097))
        if source == "random":
            x = rng.normal(0.0, rng.uniform(0.1, 40.0), (N_CHANNELS, n))
            x[rng.random(N_CHANNELS) < 0.15] = 0.0
        else:
            x = simkit.gen_trial(random_profile(rng, i), TASKS[i % 5], n / SAMPLE_RATE,
                                 seed=i).samples
        signals.append(x)
    return signals


# --- Welch features ----------------------------------------------------------------

@pytest.mark.parametrize("source", ["random", "simulated"])
def test_welch_features_match_per_channel_oracle(source):
    rng = np.random.default_rng(7)
    silent_seen = 0
    for x in trial_signals(source):
        est = feat.psd_welch(x, SAMPLE_RATE)
        refs = [psd_welch(ch, SAMPLE_RATE) for ch in x]
        assert np.array_equal(est.freqs, refs[0].freqs)
        assert np.array_equal(est.psd, np.stack([r.psd for r in refs]))
        assert np.array_equal(feat.psd_welch(x[0], SAMPLE_RATE).psd, refs[0].psd)

        lo = float(rng.uniform(0.0, 100.0))
        bands = [band for _, band in BAND_FEATURES] + [(lo, lo + rng.uniform(0.5, 28.0))]
        for band in bands:
            assert np.array_equal(feat.band_power(est, band),
                                  [band_power(r, band) for r in refs])
            assert np.array_equal(feat.log_band_power(est, band),
                                  [log_band_power(r, band) for r in refs])
            assert np.array_equal(feat.dominant_frequency(est, band),
                                  [dominant_frequency(r, band) for r in refs])
        assert np.array_equal(feat.dominant_frequency(est),
                              [dominant_frequency(r) for r in refs])

        trial = TrialWindow(samples=x, sample_rate=SAMPLE_RATE, label=1, subject="s",
                            day=2, strategy="resting", trial_index=5)
        if np.all(np.any(x != 0.0, axis=1)):
            got, want = feat.extract_trial_features(trial), extract_trial_features(trial)
            assert np.array_equal(got.values, want.values)
            assert replace(got, values=want.values) == replace(want, values=want.values)
        else:  # a silent channel: -inf features are rejected either way
            silent_seen += 1
            with pytest.raises(FeatureError):
                extract_trial_features(trial)
            with pytest.raises(FeatureError):
                feat.extract_trial_features(trial)
    assert source == "simulated" or silent_seen > 0


def test_band_reducers_return_float64_for_one_channel():
    x = np.random.default_rng(3).normal(0.0, 5.0, 3001)
    est = feat.psd_welch(x, SAMPLE_RATE)
    ref = psd_welch(x, SAMPLE_RATE)
    for got, want in ((feat.band_power(est, feat.ALPHA_BAND), band_power(ref, feat.ALPHA_BAND)),
                      (feat.log_band_power(est, feat.BETA_BAND),
                       log_band_power(ref, feat.BETA_BAND)),
                      (feat.dominant_frequency(est), dominant_frequency(ref))):
        assert type(got) is np.float64
        assert got == want


def test_silent_channel_gives_minus_inf_without_warning():
    x = np.random.default_rng(4).normal(0.0, 5.0, (N_CHANNELS, 2048))
    x[2] = 0.0
    est = feat.psd_welch(x, SAMPLE_RATE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        powers = feat.log_band_power(est, feat.ALPHA_BAND)
        log_powers = sk.line_noise_log_power(x[:, :SAMPLE_RATE], SAMPLE_RATE)
    assert powers[2] == -np.inf and np.all(np.isfinite(np.delete(powers, 2)))
    assert log_powers[2] == -np.inf and np.all(np.isfinite(np.delete(log_powers, 2)))


def test_dominant_tie_picks_lower_bin_on_every_channel():
    freqs = np.arange(0.0, 20.5, 0.5)
    psd = np.zeros((3, freqs.size))
    psd[:, freqs == 9.0] = 5.0
    psd[:, freqs == 12.0] = 5.0
    psd[1, freqs == 6.0] = 5.0
    est = feat.SpectralEstimate(freqs=freqs, psd=psd)
    assert feat.dominant_frequency(est).tolist() == [9.0, 6.0, 9.0]


def test_band_power_rejects_empty_band():
    est = feat.SpectralEstimate(freqs=np.array([0.0, 50.0]), psd=np.array([1.0, 1.0]))
    with pytest.raises(FeatureError):
        feat.band_power(est, (8.0, 13.0))


def test_spectral_estimate_checks_last_axis():
    with pytest.raises(FeatureError):
        feat.SpectralEstimate(freqs=np.arange(5.0), psd=np.ones((5, 4)))
    assert feat.SpectralEstimate(freqs=np.arange(5.0), psd=np.ones((4, 5))).psd.shape == (4, 5)


def test_extract_trial_features_makes_one_welch_call(monkeypatch):
    calls = []
    original = feat.psd_welch

    def counted(x, sample_rate, **kwargs):
        calls.append(np.shape(x))
        return original(x, sample_rate, **kwargs)

    monkeypatch.setattr(feat, "psd_welch", counted)
    x = np.random.default_rng(5).normal(0.0, 5.0, (N_CHANNELS, 30 * SAMPLE_RATE))
    feat.extract_trial_features(TrialWindow(samples=x, sample_rate=SAMPLE_RATE))
    assert calls == [(N_CHANNELS, 30 * SAMPLE_RATE)]


# --- line noise ----------------------------------------------------------------------

def noise_windows() -> list[np.ndarray]:
    """One-second windows of 1 to 5 channels: mains tones from below the
    good anchor to above the bad one, off-line tones, noise, silent channels."""
    rng = np.random.default_rng(11)
    t = np.arange(SAMPLE_RATE) / SAMPLE_RATE
    windows = []
    for i in range(N_CASES):
        c = int(rng.integers(1, 6))
        freq = (50.0, 60.0, 50.0, 60.0, float(rng.uniform(1.0, 127.0)))[i % 5]
        amp = np.exp(rng.uniform(np.log(0.05), np.log(200.0), c))
        x = amp[:, None] * np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi, c)[:, None])
        x += rng.normal(0.0, rng.uniform(0.0, 5.0), (c, SAMPLE_RATE))
        x[rng.random(c) < 0.2] = 0.0
        windows.append(x)
    return windows


@pytest.mark.parametrize("line_freq", [50.0, 60.0])
def test_line_noise_matches_per_channel_oracle(line_freq):
    for x in noise_windows():
        report = sk.em_noise_quality(x, SAMPLE_RATE, line_freq=line_freq)
        assert report == em_noise_quality(x, SAMPLE_RATE, line_freq=line_freq)
        assert all(type(v) is float for v in report.per_channel + report.log_band_power)
        assert sk.em_noise_quality(x[0], SAMPLE_RATE, line_freq) == \
            em_noise_quality(x[0], SAMPLE_RATE, line_freq)
        assert np.array_equal(sk.line_noise_log_power(x, SAMPLE_RATE, line_freq),
                              [line_noise_log_power(ch, SAMPLE_RATE, line_freq) for ch in x])
        assert sk.line_noise_log_power(x[-1], SAMPLE_RATE, line_freq) == \
            line_noise_log_power(x[-1], SAMPLE_RATE, line_freq)


def test_env_quality_accepts_arrays():
    log_powers = np.array([-np.inf, -5.0, -1.0, 0.0, 1.0, 3.0, 7.0])
    assert np.array_equal(sk.env_quality_from_log_power(log_powers),
                          [env_quality_from_log_power(p) for p in log_powers])


# --- synthetic EEG -----------------------------------------------------------------

def test_pink_noise_matches_sequential_oracle():
    rng = np.random.default_rng(13)
    for seed in range(N_CASES):
        n = int(rng.integers(2, 3000))
        sigma = float(rng.uniform(0.1, 40.0))
        batched, sequential = np.random.default_rng(seed), np.random.default_rng(seed)
        got = simkit.pink_noise((N_CHANNELS, n), sigma, batched)
        want = np.stack([pink_noise(n, sigma, sequential) for _ in range(N_CHANNELS)])
        assert np.array_equal(got, want)
        assert np.array_equal(simkit.pink_noise(n, sigma, batched),
                              pink_noise(n, sigma, sequential))
        assert batched.random() == sequential.random()
    with pytest.raises(SimulatorError):
        simkit.pink_noise((N_CHANNELS, 1), 1.0, np.random.default_rng(0))


def test_gen_trial_matches_oracle():
    rng = np.random.default_rng(17)
    for seed in range(N_CASES + 100):
        profile = (simkit.zero_profile(seed) if seed % 50 == 0
                   else random_profile(rng, seed))
        task = TASKS[seed % 5]
        duration = float(rng.uniform(0.05, 12.0))  # odd and even sample counts
        got = simkit.gen_trial(profile, task, duration, seed=[seed, 3])
        want = gen_trial(profile, task, duration, seed=[seed, 3])
        assert np.array_equal(got.samples, want.samples)
        assert (got.sample_rate, got.task) == (want.sample_rate, want.task)


def test_gen_noise_block_matches_oracle():
    rng = np.random.default_rng(19)
    for seed in range(N_CASES + 100):
        profile = random_profile(rng, seed)
        duration = float(rng.uniform(0.05, 8.0))
        sigma = float(rng.uniform(1.0, 45.0))
        batched, sequential = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(simkit.gen_noise_block(profile, duration, sigma, batched),
                              gen_noise_block(profile, duration, sigma, sequential))
        assert batched.random() == sequential.random()
