from __future__ import annotations

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mindkit import streamkit as sk


# --- variance -> quality mapping -----------------------------------------

def test_quality_from_variance_anchors():
    assert sk.quality_from_variance(0.0) == 1.0
    assert sk.quality_from_variance(150.0) == 1.0  # criterion boundary
    assert sk.quality_from_variance(300.0) == 0.5
    assert sk.quality_from_variance(600.0) == 0.25
    assert sk.quality_from_variance(75.0) == 1.0  # clamped above


def test_quality_from_variance_monotone_above_threshold():
    grid = np.linspace(150.0, 5000.0, 50)
    qs = [sk.quality_from_variance(v) for v in grid]
    assert all(a >= b for a, b in zip(qs, qs[1:]))
    assert all(0.0 <= q <= 1.0 for q in qs)


def test_env_quality_anchors():
    assert sk.env_quality_from_log_power(-1.0) == 1.0
    assert sk.env_quality_from_log_power(3.0) == 0.0
    assert sk.env_quality_from_log_power(1.0) == 0.5
    assert sk.env_quality_from_log_power(0.0) == 0.75
    assert sk.env_quality_from_log_power(-5.0) == 1.0  # clamped
    assert sk.env_quality_from_log_power(7.0) == 0.0  # clamped
    assert sk.env_quality_from_log_power(float("-inf")) == 1.0


# --- per-sample adaptive filter -------------------------------------------

def test_ingest_sample_contract_triples():
    # x_f = avg_quality * raw + (1 - avg_quality) * prev_filtered
    tracker = sk.ChannelQualityTracker()
    tracker.prev_filtered = 3.0
    tracker.avg_quality = 1.0
    tracker.ingest_sample(10.0)
    assert tracker.prev_filtered == 10.0

    tracker = sk.ChannelQualityTracker()
    tracker.prev_filtered = 3.0
    tracker.avg_quality = 0.0
    tracker.ingest_sample(10.0)
    assert tracker.prev_filtered == 3.0

    tracker = sk.ChannelQualityTracker()
    tracker.prev_filtered = 4.0
    tracker.avg_quality = 0.5
    tracker.ingest_sample(10.0)
    assert tracker.prev_filtered == 7.0


def test_first_sample_passes_unfiltered():
    tracker = sk.ChannelQualityTracker()
    tracker.ingest_sample(42.5)
    assert tracker.prev_filtered == 42.5
    assert tracker._window[0, :tracker._filled].tolist() == [42.5]


def test_initial_avg_quality_is_half():
    tracker = sk.ChannelQualityTracker()
    assert tracker.avg_quality == 0.5


def test_nonfinite_samples_rejected_without_state_change():
    tracker = sk.ChannelQualityTracker()
    tracker.ingest_sample(1.0)
    before = (tracker.prev_filtered, tracker._window[0, :tracker._filled].tolist())
    assert tracker.ingest_sample(float("nan")) is None
    assert tracker.ingest_sample(float("inf")) is None
    assert tracker.rejected_samples == 2
    assert (tracker.prev_filtered, tracker._window[0, :tracker._filled].tolist()) == before


def test_window_fires_every_128_samples():
    tracker = sk.ChannelQualityTracker()
    fired = [tracker.ingest_sample(0.0) for _ in range(300)]
    hits = [i for i, q in enumerate(fired) if q is not None]
    assert hits == [127, 255]
    assert tracker.windows_evaluated == 2
    assert tracker._filled == 300 - 256


def test_window_quality_from_known_variance():
    # alternating +-a has ddof=1 variance a^2 * n/(n-1); solve for 600
    a = math.sqrt(600.0 * 127.0 / 128.0)
    tracker = sk.ChannelQualityTracker()
    tracker.avg_quality = 1.0  # pass-through filter
    tracker._history = np.array([[1.0]])
    samples = [a if i % 2 == 0 else -a for i in range(128)]
    tracker.prev_filtered = samples[0]
    qualities = [q for q in (tracker.ingest_sample(x) for x in samples)
                 if q is not None]
    assert len(qualities) == 1
    assert qualities[0] == pytest.approx(0.25, abs=1e-12)
    assert tracker.last_filtered_variance == pytest.approx(600.0, abs=1e-9)


def test_flat_window_scores_perfect():
    tracker = sk.ChannelQualityTracker()
    q = [tracker.ingest_sample(5.0) for _ in range(128)][-1]
    assert q == 1.0
    assert tracker.avg_quality == 1.0


def test_quality_history_ring_holds_four():
    tracker = sk.ChannelQualityTracker()
    rng = np.random.default_rng(0)
    for _ in range(6 * 128):
        tracker.ingest_sample(float(rng.normal(0, 30)))
    assert tracker.windows_evaluated == 6
    assert tracker._history.shape == (1, 4)
    assert tracker.avg_quality == pytest.approx(
        float(np.mean(tracker._history[0])), abs=1e-15)


def test_block_ingest_matches_scalar_ingest():
    rng = np.random.default_rng(11)
    samples = rng.normal(0.0, 25.0, 1000)
    scalar = sk.ChannelQualityTracker()
    qs_scalar = [q for q in (scalar.ingest_sample(float(x)) for x in samples)
                 if q is not None]
    block = sk.ChannelQualityTracker()
    qs_block = []
    pos = 0
    for size in (1, 7, 128, 300, 64, 500):
        qs_block.extend(block.ingest_block(samples[pos:pos + size]))
        pos += size
    assert pos == samples.size
    assert qs_block == pytest.approx(qs_scalar, abs=1e-12)
    assert block.prev_filtered == pytest.approx(scalar.prev_filtered, abs=1e-12)
    assert block.avg_quality == pytest.approx(scalar.avg_quality, abs=1e-12)
    assert block.windows_evaluated == scalar.windows_evaluated


def test_block_ingest_rejects_2d():
    tracker = sk.ChannelQualityTracker()
    with pytest.raises(ValueError):
        tracker.ingest_block(np.zeros((2, 2)))


# --- multi-channel estimator ----------------------------------------------

def test_estimator_report_timestamps():
    est = sk.QualityEstimator()
    reports = est.ingest_array(np.zeros((256, 4)), start_index=0)
    assert [r.timestamp for r in reports] == [127, 255]
    reports = est.ingest_array(np.zeros((128, 4)), start_index=1000)
    assert [r.timestamp for r in reports] == [1127]
    assert est.last_report is reports[-1]


def test_estimator_shape_validation():
    est = sk.QualityEstimator()
    with pytest.raises(ValueError):
        est.ingest_array(np.zeros((10, 3)))


def test_nonfinite_frame_rejected_on_every_channel():
    # one NaN on channel 2 drops the whole frame, so every channel keeps
    # the same window boundaries, fed as one block or one frame at a time
    rng = np.random.default_rng(5)
    block = rng.normal(0, 20, (1024, 4))
    block[10, 2] = np.nan
    by_array = sk.QualityEstimator()
    reports_a = by_array.ingest_array(block)
    by_frame = sk.QualityEstimator()
    reports_f = [rep for i, row in enumerate(block)
                 for rep in by_frame.ingest_array(row[None], start_index=i)]
    assert reports_a == reports_f
    assert [r.timestamp for r in reports_a] == [128 * k for k in range(1, 8)]
    assert by_array.rejected_samples == by_frame.rejected_samples == 1
    assert by_array.windows_evaluated == by_frame.windows_evaluated == 7
    clean = sk.QualityEstimator().ingest_array(np.delete(block, 10, axis=0))
    assert [r.per_channel for r in clean] == [r.per_channel for r in reports_a]


def test_huge_window_is_rejected_and_the_channel_recovers():
    # finite samples of both signs near the float max used to make a window
    # sum inf - inf: the channel then read NaN for the rest of its life
    rng = np.random.default_rng(6)
    est = sk.QualityEstimator()
    huge = np.full((128, 4), 1.5e308)
    huge[::2] *= -1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est.ingest_array(rng.normal(0, 3, (1024, 4)))
        assert est.last_report.per_channel == (1.0,) * 4
        assert est.ingest_array(huge) == []
        assert est.rejected_samples == 128
        reports = est.ingest_array(rng.normal(0, 3, (1024, 4)))
    assert all(r.per_channel == (1.0,) * 4 for r in reports)


@pytest.mark.parametrize("n_channels", [1, 4])
def test_samples_at_the_bound_are_kept_and_the_channel_recovers(n_channels):
    bound = sk.MAX_ABS_SAMPLE_UV
    est = sk.QualityEstimator() if n_channels == 4 else sk.ChannelQualityTracker()
    rng = np.random.default_rng(7)
    frames = np.full((129, n_channels), bound)  # one window of kept frames
    frames[::2] *= -1.0
    frames[5, 0] = np.nextafter(bound, np.inf)  # just above: the frame is dropped
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est.ingest_array(rng.normal(0, 3, (512, n_channels)))
        est.ingest_array(frames)
        assert est.rejected_samples == 1
        assert np.isfinite(est.last_filtered_variance).all()
        assert est.last_filtered_variance.max() > bound ** 2 / 10
        reports = est.ingest_array(rng.normal(0, 3, (256 * 20, n_channels)))
    qualities = np.array([r.per_channel for r in reports])
    assert (qualities > 0.0).all() and (qualities[-1] == 1.0).all()


@pytest.mark.parametrize("amplitude", [sk.MAX_ABS_SAMPLE_UV, 1e30])
def test_two_huge_seconds_do_not_lock_the_quality(amplitude):
    """Two seconds of +-1e30 uV once held every channel near quality 5e-26 for good."""
    rng = np.random.default_rng(8)
    est = sk.QualityEstimator()
    est.ingest_array(rng.normal(0, 3, (512, 4)))
    burst = np.full((512, 4), amplitude)
    burst[::2] *= -1.0
    est.ingest_array(burst)
    assert est.rejected_samples == (512 if amplitude > sk.MAX_ABS_SAMPLE_UV else 0)
    reports = est.ingest_array(rng.normal(0, 3, (256 * 60, 4)))
    qualities = np.array([r.per_channel for r in reports])
    assert (qualities[5:] == 1.0).all()  # every channel at 1 within five windows


# --- fitting gate -----------------------------------------------------------

def test_fitting_gate_examples():
    perfect = sk.QualityReport(per_channel=(1.0, 1.0, 1.0, 1.0), timestamp=0)
    one_low = sk.QualityReport(per_channel=(1.0, 0.9, 1.0, 1.0), timestamp=0)
    late = sk.QualityReport(per_channel=(0.8, 0.76, 0.9, 1.0), timestamp=0)

    d = sk.fitting_gate(60.0, perfect)
    assert d.target == 1.0 and d.met

    d = sk.fitting_gate(60.0, one_low)
    assert d.target == 1.0 and not d.met

    d = sk.fitting_gate(200.0, late)
    assert d.target == 0.75 and d.met


def test_fitting_gate_relaxes_at_exactly_180s():
    report = sk.QualityReport(per_channel=(0.8, 0.8, 0.8, 0.8), timestamp=0)
    assert sk.fitting_gate(179.999, report).target == 1.0
    assert not sk.fitting_gate(179.999, report).met
    assert sk.fitting_gate(180.0, report).target == 0.75
    assert sk.fitting_gate(180.0, report).met
    # never times out entirely
    assert sk.fitting_gate(1e9, report).target == 0.75


# --- line-noise detector ----------------------------------------------------

def _sine_window(amp: float, freq: float = 50.0, n: int = 256,
                 fs: int = 256) -> np.ndarray:
    t = np.arange(n) / fs
    return amp * np.sin(2 * np.pi * freq * t)


def test_line_noise_log_power_anchor():
    # Hann periodogram of a 50 Hz tone: mean 49..51 Hz density = amp^2 / 6,
    # so amp = sqrt(0.6) lands exactly on the -1 log-power anchor.
    p = sk.line_noise_log_power(_sine_window(math.sqrt(0.6)), 256)
    assert p == pytest.approx(-1.0, abs=1e-9)
    assert sk.env_quality_from_log_power(p) == pytest.approx(1.0, abs=1e-9)


def test_line_noise_requires_one_second():
    with pytest.raises(ValueError):
        sk.line_noise_log_power(np.zeros(255), 256)


def test_line_noise_silent_window_is_minus_inf():
    assert sk.line_noise_log_power(np.zeros(256), 256) == float("-inf")


@pytest.mark.parametrize("line_freq", [130.0, 200.0, -5.0])
def test_line_noise_band_without_bins_raises(line_freq):
    window = np.ones((2, 256))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no frequency bin"):
            sk.line_noise_log_power(window, 256, line_freq)
        with pytest.raises(ValueError, match="no frequency bin"):
            sk.em_noise_quality(window, 256, line_freq)


def test_line_noise_band_at_the_grid_edges_has_bins():
    # 129 Hz reaches the Nyquist bin (128 Hz), -1 Hz the DC bin
    for line_freq in (129.0, -1.0):
        assert np.isfinite(sk.line_noise_log_power(np.ones(256) + _sine_window(1.0), 256,
                                                   line_freq))


def test_em_quality_amplitude_sweep():
    # env(A) = (3 - log10(A^2 / 6)) / 4, computed independently
    expected = {1.0: 0.9445378125959109, 5.0: 0.5950528104279015,
                20.0: 0.2940228147639203, 60.0: 0.05546218740408899}
    got = []
    for amp, env in expected.items():
        window = np.tile(_sine_window(amp), (4, 1))
        report = sk.em_noise_quality(window, 256)
        assert report.per_channel == pytest.approx((env,) * 4, abs=1e-12)
        got.append(report.per_channel[0])
    assert all(a > b for a, b in zip(got, got[1:]))


def test_em_quality_60hz_band():
    window = np.tile(_sine_window(2.0, freq=60.0), (4, 1))
    at_50 = sk.em_noise_quality(window, 256, line_freq=50.0)
    at_60 = sk.em_noise_quality(window, 256, line_freq=60.0)
    assert at_60.line_freq == 60.0
    assert at_60.per_channel[0] < at_50.per_channel[0]
    assert at_60.per_channel[0] == pytest.approx(
        (3.0 - math.log10(4.0 / 6.0)) / 4.0, abs=1e-12)


def test_em_quality_is_per_channel():
    window = np.vstack([_sine_window(1.0), _sine_window(60.0), np.zeros(256)])
    report = sk.em_noise_quality(window, 256)
    assert len(report.per_channel) == 3
    assert report.per_channel[0] > report.per_channel[1]
    assert report.per_channel[2] == 1.0  # silent channel: no interference
    with pytest.raises(ValueError):
        sk.em_noise_quality(np.zeros((4, 255)), 256)  # needs one full second


# --- steady-state behaviour over streams ------------------------------------

def equilibrium_quality(sigma: float) -> float:
    # fixed point of the feedback loop under stationary white noise: the
    # filter passes variance q^2 sigma^2 / (1 - (1-q)^2), which meets the
    # 150 criterion exactly when q^2 sigma^2 = 150 (2 - q)
    root = (-150.0 + math.sqrt(150.0 ** 2 + 1200.0 * sigma * sigma)) / (2 * sigma * sigma)
    return min(root, 1.0)


def test_steady_state_quality_tracks_noise_level():
    measured = []
    for sigma in (5.0, 15.0, 50.0, 150.0):
        rng = np.random.default_rng(42)
        tracker = sk.ChannelQualityTracker()
        tracker.ingest_block(rng.normal(0.0, sigma, 60 * 256))
        measured.append(tracker.avg_quality)
    assert all(a > b for a, b in zip(measured, measured[1:]))
    assert measured[0] >= 0.99
    for sigma, got in zip((15.0, 50.0, 150.0), measured[1:]):
        assert got == pytest.approx(equilibrium_quality(sigma), abs=0.08)


def test_clean_signal_scores_near_perfect():
    t = np.arange(60 * 256) / 256.0
    tracker = sk.ChannelQualityTracker()
    tracker.ingest_block(10.0 * np.sin(2 * np.pi * 10.0 * t))
    assert tracker.avg_quality >= 0.99


# --- bit-exact oracle -----------------------------------------------------------

def reference_quality_stream(data: np.ndarray):
    """Per-sample reference: x_f = q*raw + (1-q)*prev per channel, the ddof=1
    variance of each 128-sample window, and the time-ordered mean of the last
    four window qualities.  Yields (row, window qualities, smoothed qualities)
    per completed window."""
    n_channels = data.shape[1]
    prev = [None] * n_channels
    avg = [sk.INITIAL_AVG_QUALITY] * n_channels
    history = [[] for _ in range(n_channels)]
    window = [[] for _ in range(n_channels)]
    for row, frame in enumerate(data.tolist()):
        for ch, raw in enumerate(frame):
            q = avg[ch]
            prev[ch] = raw if prev[ch] is None else q * raw + (1.0 - q) * prev[ch]
            window[ch].append(prev[ch])
        if len(window[0]) == sk.WINDOW_SAMPLES:
            fresh = []
            for ch in range(n_channels):
                variance = max(float(np.var(window[ch], ddof=1)), sk.VARIANCE_FLOOR_UV2)
                fresh.append(min(max(sk.VARIANCE_THRESHOLD_UV2 / variance, 0.0), 1.0))
                history[ch] = (history[ch] + [fresh[ch]])[-sk.QUALITY_HISTORY:]
                avg[ch] = float(np.mean(history[ch]))
                window[ch] = []
            yield row, fresh, list(avg)


def random_chunks(rng: np.random.Generator, n: int) -> list[int]:
    sizes = []
    while sum(sizes) < n:
        sizes.append(int(rng.choice([1, 128, int(rng.integers(2, 700))])))
    sizes[-1] -= sum(sizes) - n
    return sizes


@pytest.mark.parametrize("seed", range(6))
def test_estimator_reproduces_reference_exactly(seed):
    rng = np.random.default_rng(seed)
    sigmas = np.array([4.0, 14.0, 45.0, 160.0]) * rng.uniform(0.5, 2.0, 4)
    data = rng.normal(0.0, 1.0, (int(rng.integers(1500, 3000)), 4)) * sigmas
    expected = list(reference_quality_stream(data))
    est = sk.QualityEstimator()
    reports = []
    pos = 0
    for size in random_chunks(rng, data.shape[0]):
        reports += est.ingest_array(data[pos:pos + size], start_index=pos)
        pos += size
    assert [r.timestamp for r in reports] == [row for row, _, _ in expected]
    assert [list(r.per_channel) for r in reports] == [avg for _, _, avg in expected]
    # the single-channel tracker is the same computation on one column
    tracker = sk.ChannelQualityTracker()
    qualities = []
    pos = 0
    for size in random_chunks(rng, data.shape[0]):
        qualities += tracker.ingest_block(data[pos:pos + size, 3])
        pos += size
    assert qualities == [fresh[0] for _, fresh, _ in reference_quality_stream(data[:, 3:])]


def test_signal_quality_demo_runs():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(root / "demos" / "01_signal_quality.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "gate met after" in proc.stdout


def test_line_noise_demo_runs():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(root / "demos" / "02_line_noise.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "env quality 1.000" in proc.stdout
    assert "pink noise + 4 uV mains, per channel:" in proc.stdout
