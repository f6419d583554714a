from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mindkit import features as feat
from mindkit import simkit
from mindkit import streamkit as sk


def sine_trial(amp: float = 20.0, freq: float = 10.0, seconds: float = 30.0,
               fs: int = 256) -> np.ndarray:
    t = np.arange(int(seconds * fs)) / fs
    return amp * np.sin(2 * np.pi * freq * t)


def make_trial(samples: np.ndarray, label: float = 1.0) -> feat.TrialWindow:
    return feat.TrialWindow(samples=samples, sample_rate=256, task="memory",
                            label=label, subject="s0", day=1,
                            strategy="positive_memories", trial_index=0)


# --- spectra -------------------------------------------------------------------

def test_welch_grid_resolution():
    est = feat.psd_welch(sine_trial(), 256)
    assert est.resolution == pytest.approx(0.5)
    assert est.freqs[0] == 0.0
    assert est.freqs[-1] == 128.0


def test_sinusoid_band_power_oracle():
    # a 20 uV sine carries amp^2/2 = 200 uV^2, all inside the alpha band
    est = feat.psd_welch(sine_trial(), 256)
    power = feat.band_power(est, feat.ALPHA_BAND)
    assert power == pytest.approx(200.0, rel=0.05)
    assert power == pytest.approx(199.99999999999997, abs=1e-6)


def test_dominant_frequency_oracle():
    est = feat.psd_welch(sine_trial(), 256)
    assert feat.dominant_frequency(est) == pytest.approx(10.0, abs=0.5)


def test_scaling_law():
    x = sine_trial() + np.random.default_rng(0).normal(0, 3, 30 * 256)
    for c in (3.0, 0.25):
        est1 = feat.psd_welch(x, 256)
        est2 = feat.psd_welch(c * x, 256)
        shift = feat.log_band_power(est2, feat.ALPHA_BAND) \
            - feat.log_band_power(est1, feat.ALPHA_BAND)
        assert shift == pytest.approx(2.0 * math.log10(c), abs=1e-9)
        assert feat.dominant_frequency(est2) == feat.dominant_frequency(est1)


def test_white_noise_total_power_matches_variance():
    rng = np.random.default_rng(1)
    x = rng.normal(0.0, 10.0, 60 * 256)
    est = feat.psd_welch(x, 256)
    total = feat.band_power(est, (0.0, 128.0))
    assert total == pytest.approx(float(np.var(x)), rel=0.10)


def test_short_signal_rejected():
    with pytest.raises(feat.ShortSignalError):
        feat.psd_welch(np.zeros(511), 256)
    feat.psd_welch(np.zeros(512), 256)  # exactly one segment is enough


def test_band_edges_inclusive():
    freqs = np.arange(0.0, 20.5, 0.5)
    psd = np.zeros_like(freqs)
    psd[freqs == 8.0] = 4.0
    psd[freqs == 13.0] = 2.0
    est = feat.SpectralEstimate(freqs=freqs, psd=psd)
    assert feat.band_power(est, (8.0, 13.0)) == pytest.approx((4.0 + 2.0) * 0.5)
    # mean over the 11 bins of 8..13 Hz inclusive
    assert feat.log_band_power(est, (8.0, 13.0)) == pytest.approx(
        math.log10(6.0 / 11.0), abs=1e-12)


def test_log_band_power_silent_is_minus_inf():
    est = feat.SpectralEstimate(freqs=np.arange(0, 20, 0.5),
                                psd=np.zeros(40))
    assert feat.log_band_power(est, feat.ALPHA_BAND) == -np.inf


def test_dominant_tie_picks_lower_frequency():
    freqs = np.arange(0.0, 20.5, 0.5)
    psd = np.zeros_like(freqs)
    psd[freqs == 9.0] = 5.0
    psd[freqs == 12.0] = 5.0
    est = feat.SpectralEstimate(freqs=freqs, psd=psd)
    assert feat.dominant_frequency(est) == 9.0


def test_empty_band_rejected():
    est = feat.SpectralEstimate(freqs=np.array([0.0, 50.0]),
                                psd=np.array([1.0, 1.0]))
    with pytest.raises(feat.FeatureError):
        feat.log_band_power(est, (8.0, 13.0))
    with pytest.raises(feat.FeatureError):
        feat.dominant_frequency(est)


def test_one_bin_band_gives_the_full_estimates_band_power():
    x = sine_trial() + np.random.default_rng(2).normal(0, 3, 30 * 256)
    full = feat.psd_welch(x, 256)
    one = feat.psd_welch(x, 256, band=(10.0, 10.0))
    assert one.freqs.tolist() == [10.0] and one.resolution == full.resolution
    assert feat.band_power(one, (10.0, 10.0)) == feat.band_power(full, (10.0, 10.0))
    assert feat.band_power(one, (9.8, 10.2)) == feat.band_power(full, (10.0, 10.0))


def test_a_grid_of_one_bin_needs_its_resolution():
    with pytest.raises(feat.FeatureError, match="resolution"):
        feat.SpectralEstimate(freqs=np.array([10.0]), psd=np.array([1.0]))
    est = feat.SpectralEstimate(freqs=np.array([10.0]), psd=np.array([1.0]), resolution=0.5)
    assert feat.band_power(est, (10.0, 10.0)) == 0.5


@pytest.mark.parametrize("band", [(0.1, 0.4), (129.0, 140.0), (20.0, 10.0)])
def test_psd_welch_refuses_a_band_with_no_bin(band):
    with pytest.raises(feat.FeatureError, match="no frequency bin"):
        feat.psd_welch(sine_trial(), 256, band=band)


def test_feature_span_covers_every_band_the_features_read():
    bands = [band for _, band in feat.BAND_FEATURES] + [feat.DOMINANT_BAND]
    assert feat.FEATURE_SPAN == (3.0, 30.0)
    assert all(feat.FEATURE_SPAN[0] <= lo and hi <= feat.FEATURE_SPAN[1] for lo, hi in bands)



@pytest.mark.parametrize("seed", range(3))
def test_welch_bits_do_not_depend_on_memory_layout(seed):
    # a time-major recording's .T view is strided, and numpy sums a strided
    # segment sequentially but a contiguous one pairwise
    x = np.random.default_rng(seed).normal(0.0, 10.0, (9140, 4))
    view, copy = x.T, np.ascontiguousarray(x.T)
    assert not view.flags.c_contiguous
    assert np.array_equal(feat.psd_welch(view).psd, feat.psd_welch(copy).psd)
    second = np.random.default_rng([seed, 1]).normal(0.0, 10.0, (256, 4))
    assert np.array_equal(sk.line_noise_log_power(second.T), sk.line_noise_log_power(
        np.ascontiguousarray(second.T)))
    assert sk.em_noise_quality(second.T) == sk.em_noise_quality(np.ascontiguousarray(second.T))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_trial_window_stores_channel_major_float64(dtype):
    recording = np.random.default_rng(0).normal(0.0, 10.0, (1024, 4)).astype(dtype)
    trial = make_trial(recording.T)
    assert trial.samples.dtype == np.float64 and trial.samples.flags.c_contiguous
    assert np.array_equal(trial.samples, recording.T)


def test_trial_window_keeps_channel_major_float64_without_a_copy():
    samples = np.random.default_rng(0).normal(0.0, 10.0, (4, 1024))
    assert np.shares_memory(make_trial(samples).samples, samples)

# --- per-trial features -----------------------------------------------------------

def test_feature_vector_layout():
    assert feat.N_FEATURES == 16
    assert feat.FEATURE_NAMES[:4] == ("AF7_theta", "AF7_alpha", "AF7_beta",
                                      "AF7_domfreq")
    assert feat.FEATURE_NAMES[12:] == ("TP10_theta", "TP10_alpha", "TP10_beta",
                                       "TP10_domfreq")


def test_extract_trial_features_channel_major():
    rng = np.random.default_rng(4)
    samples = rng.normal(0, 5, (4, 30 * 256))
    samples[2] = sine_trial(amp=30.0)  # strong alpha only on channel 2
    vec = feat.extract_trial_features(make_trial(samples))
    assert vec.values.shape == (16,)
    alpha_cols = [1, 5, 9, 13]
    assert int(np.argmax(vec.values[alpha_cols])) == 2
    assert vec.values[2 * 4 + 3] == pytest.approx(10.0, abs=0.5)  # tp9 domfreq


def test_extract_requires_four_channels():
    with pytest.raises(feat.FeatureError):
        feat.extract_trial_features(make_trial(np.zeros((2, 512))))


# --- normalization ------------------------------------------------------------------

def test_two_vector_normalization_is_exact():
    out = feat.normalize_matrix(np.array([[3.0, 7.0], [5.0, 1.0]]))
    assert np.array_equal(out, np.array([[-1.0, 1.0], [1.0, -1.0]]))


def test_normalize_matrix_population_std():
    out = feat.normalize_matrix(np.array([[0.0], [1.0], [5.0]]))
    sigma = math.sqrt(14.0 / 3.0)  # ddof=0
    expected = [(-2.0) / sigma, (-1.0) / sigma, 3.0 / sigma]
    assert out[:, 0] == pytest.approx(expected, abs=1e-12)


def test_normalize_matrix_zero_variance_column():
    out = feat.normalize_matrix(np.array([[2.0, 1.0], [2.0, 3.0]]))
    assert np.array_equal(out[:, 0], np.zeros(2))
    assert np.array_equal(out[:, 1], np.array([-1.0, 1.0]))


def test_normalize_matrix_needs_two_rows():
    with pytest.raises(feat.GroupTooSmallError):
        feat.normalize_matrix(np.ones((1, 3)))


def vec(subject: str, day: int, values, label: float = 1.0) -> feat.FeatureVector:
    return feat.FeatureVector(values=np.full(16, float(values)), label=label,
                              subject=subject, day=day, strategy="s",
                              trial_index=0)


def test_normalize_features_groups_by_subject_for_lab():
    vectors = [vec("a", 1, 0.0), vec("a", 2, 2.0), vec("b", 1, 10.0),
               vec("b", 2, 30.0)]
    tasks = simkit.tasks_from_feature_vectors(vectors, feat.GROUPING_LAB_SESSION)
    assert [(t.subject, t.X[:, 0].tolist()) for t in tasks] == \
        [("a", [-1.0, 1.0]), ("b", [-1.0, 1.0])]
    # home-day grouping splits those same vectors into singleton groups
    with pytest.raises(feat.GroupTooSmallError,
                       match=r"^group \('a', 1\) has 1 vector\(s\); need >= 2$"):
        simkit.tasks_from_feature_vectors(vectors, feat.GROUPING_HOME_DAY)


def test_normalize_features_rejects_a_group_of_one_row():
    vectors = [vec("a", 1, 0.0), vec("b", 1, 1.0), vec("a", 2, 2.0)]
    with pytest.raises(feat.GroupTooSmallError, match=r"group \('b',\) has 1 vector\(s\)"):
        simkit.tasks_from_feature_vectors(vectors, feat.GROUPING_LAB_SESSION)


def test_normalize_features_home_day_grouping():
    vectors = [vec("a", 1, 0.0), vec("a", 1, 4.0), vec("a", 2, -3.0),
               vec("a", 2, 5.0)]
    tasks = simkit.tasks_from_feature_vectors(vectors, feat.GROUPING_HOME_DAY)
    assert [(t.subject, t.day, t.X[:, 0].tolist()) for t in tasks] == \
        [("a", 1, [-1.0, 1.0]), ("a", 2, [-1.0, 1.0])]


def test_normalize_features_unknown_grouping():
    with pytest.raises(feat.FeatureError, match="unknown grouping 'week'"):
        simkit.tasks_from_feature_vectors([vec("a", 1, 0.0), vec("a", 1, 1.0)], "week")


def test_normalize_features_preserves_order():
    vectors = [vec("b", 1, 1.0), vec("a", 1, 0.0), vec("b", 1, 3.0),
               vec("a", 1, 2.0)]
    tasks = simkit.tasks_from_feature_vectors(vectors, feat.GROUPING_LAB_SESSION)
    assert [(t.subject, t.X[:, 0].tolist()) for t in tasks] == \
        [("b", [-1.0, 1.0]), ("a", [-1.0, 1.0])]


def test_normalize_features_splits_a_group_by_strategy_after_normalizing():
    vectors = [replace(vec("a", 1, x), strategy=s, label=lbl)
               for x, s, lbl in [(0.0, "s", 1.0), (1.0, "t", 1.0), (2.0, "s", -1.0),
                                 (3.0, "t", -1.0)]]
    tasks = simkit.tasks_from_feature_vectors(vectors, feat.GROUPING_LAB_SESSION)
    z = feat.normalize_matrix(np.array([[0.0], [1.0], [2.0], [3.0]]))[:, 0]
    assert [(t.strategy, t.X[:, 0].tolist(), t.y.tolist()) for t in tasks] == \
        [("s", [z[0], z[2]], [1.0, -1.0]), ("t", [z[1], z[3]], [1.0, -1.0])]
    assert all(np.array_equal(t.X[:, -1], np.ones(2)) for t in tasks)  # the bias column


def test_normalize_features_rejects_a_non_finite_normalized_value():
    # each row is finite, but their sum overflows the group's mean
    vectors = [vec("a", 1, 1.5e308), vec("a", 1, 1.7e308)]
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(feat.FeatureError, match="feature values must be finite"):
        simkit.tasks_from_feature_vectors(vectors, feat.GROUPING_LAB_SESSION)


def test_normalize_features_of_no_rows_gives_no_tasks():
    assert simkit.tasks_from_feature_vectors([], feat.GROUPING_HOME_DAY) == []


# --- discriminability maps ------------------------------------------------------------

def test_r2_map_hand_computed():
    X = np.array([[1.0, 9.0], [2.0, 9.0], [3.0, 9.0], [4.0, 9.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    r2 = feat.r2_map(X, y)
    assert r2[0] == pytest.approx(0.8, abs=1e-12)  # r = -4/sqrt(20)
    assert r2[1] == 0.0  # constant feature carries no signal


def test_r2_map_perfect_predictor():
    X = np.array([[1.0], [1.0], [-1.0], [-1.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    assert feat.r2_map(X, y)[0] == pytest.approx(1.0, abs=1e-12)


def test_r2_map_matches_columnwise_pearson():
    rng = np.random.default_rng(8)
    X = rng.normal(0, 1, (40, 16))
    y = np.where(rng.normal(0, 1, 40) >= 0, 1.0, -1.0)
    r2 = feat.r2_map(X, y)
    for col in range(16):
        r = np.corrcoef(X[:, col], y)[0, 1]
        assert r2[col] == pytest.approx(r * r, abs=1e-12)


def test_r2_map_single_class_rejected():
    X = np.ones((4, 2))
    with pytest.raises(feat.SingleClassError):
        feat.r2_map(X, np.ones(4))


# --- feature tables -------------------------------------------------------------------

def test_feature_table_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    vectors = [
        feat.FeatureVector(values=rng.normal(0, 1, 16), label=lbl,
                           subject="s1", day=d, strategy="positive_memories",
                           trial_index=i)
        for i, (lbl, d) in enumerate([(1.0, 1), (-1.0, 1), (1.0, 2)])
    ]
    path = tmp_path / "features.csv"
    feat.write_feature_table(vectors, path)
    loaded = feat.read_feature_table(path)
    assert len(loaded) == 3
    for a, b in zip(vectors, loaded):
        assert np.array_equal(a.values, b.values)  # repr round-trip is exact
        assert (a.label, a.subject, a.day, a.strategy, a.trial_index) == \
               (b.label, b.subject, b.day, b.strategy, b.trial_index)


def test_feature_table_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(feat.FeatureError):
        feat.read_feature_table(path)


def _feature_row(subject="s1", day="1", values=None) -> list[str]:
    return [subject, day, "resting", "0", "1.0"] + (values or ["0.5"] * feat.N_FEATURES)


@pytest.mark.parametrize("content", [
    b"",
    [_feature_row(values=["x"] + ["0.5"] * (feat.N_FEATURES - 1))],
    [_feature_row(day="1.5")],
    [["s1", "1", "resting", "0"]],
    b"\xff\xfe",
    [_feature_row(subject="\u00e9")],
], ids=["empty", "feature-not-number", "day-not-int", "short-row", "not-utf8",
        "not-utf8-cell"])
def test_feature_table_malformations_raise_feature_error(tmp_path, content):
    path = tmp_path / "table.csv"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        lines = [",".join(feat.FEATURE_TABLE_HEADER)] + [",".join(row) for row in content]
        path.write_bytes("\n".join(lines).encode("latin-1"))
    with pytest.raises(feat.FeatureError):
        feat.read_feature_table(path)


def test_spectra_features_demo_runs():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(root / "demos" / "04_spectra_features.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "alpha band power 200.0 uV^2, dominant frequency 10.0 Hz" in proc.stdout
    assert "R^2 map (feature vs task label)" in proc.stdout
