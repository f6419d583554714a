"""The quality estimator's block walk against its former per-window form.

`QualityEstimator._advance` carries each channel's filter state through a
block as Python floats, and `_score` runs the ufunc steps of `np.var` and
`.mean` itself and shifts the history in place.  The per-window form they
replaced, which rebuilt that state and called those wrappers on every window,
is kept below with its bodies verbatim, together with the `np.clip` form of
`quality_from_variance` it called, except the frame rule: it rejects a frame
with a non-finite value or one beyond `MAX_ABS_SAMPLE_UV`, written as its own
two checks.  Every comparison is bitwise.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from mindkit import cli
from mindkit import streamkit as sk
from mindkit.streamkit import (
    N_CHANNELS,
    QUALITY_HISTORY,
    VARIANCE_FLOOR_UV2,
    VARIANCE_THRESHOLD_UV2,
    WINDOW_SAMPLES,
)


# --- the per-window form, verbatim ------------------------------------------------

def quality_from_variance(variance: float | np.ndarray,
                          threshold: float = VARIANCE_THRESHOLD_UV2) -> float | np.ndarray:
    """Map filtered-window variances (uV^2) onto 0..1 quality scores.

    Windows at or below the threshold count as fully clean (1.0); above
    it the score decays as threshold / variance.  Accepts a scalar or an
    array of per-channel variances.
    """
    return np.clip(threshold / np.maximum(variance, VARIANCE_FLOOR_UV2), 0.0, 1.0)


def _advance(self, raw: np.ndarray) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Filter the finite frames of an (n, C) block into the window.

    Returns (row of the last frame, window quality, smoothed quality)
    for every window that completed inside the block.
    """
    keep = np.flatnonzero(np.isfinite(raw).all(axis=1)
                          & (np.abs(raw) <= sk.MAX_ABS_SAMPLE_UV).all(axis=1))
    self.rejected_samples += raw.shape[0] - keep.size
    raw = raw[keep]
    done = []
    pos = 0
    if self._prev is None and raw.shape[0]:
        self._prev = raw[0].copy()  # the first frame passes unfiltered
        self._window[:, 0] = raw[0]
        self._filled = pos = 1
    while pos < raw.shape[0]:
        take = min(WINDOW_SAMPLES - self._filled, raw.shape[0] - pos)
        end = self._filled + take
        for ch, (q, y) in enumerate(zip(self._avg.tolist(), self._prev.tolist())):
            x = raw[pos:pos + take, ch]
            if q == 1.0:  # y = v exactly: the filter is the identity
                self._window[ch, self._filled:end] = x
                continue
            r, out = 1.0 - q, []
            for v in x.tolist():
                y = q * v + r * y
                out.append(y)
            self._window[ch, self._filled:end] = out
        self._prev = self._window[:, end - 1].copy()
        self._filled = end
        pos += take
        if end == WINDOW_SAMPLES:
            done.append((int(keep[pos - 1]), self._score(), self._avg))
    return done


def _score(self) -> np.ndarray:
    variance = np.var(self._window, axis=1, ddof=1)
    quality = quality_from_variance(variance)
    # Kept oldest first: the mean adds scores in time order, and the
    # recorded quality traces depend on that order to the last bit.
    self._history = np.concatenate(
        (self._history[:, 1 - QUALITY_HISTORY:], quality[:, None]), axis=1)
    self._avg = self._history.mean(axis=1)
    self.last_filtered_variance = variance
    self._filled = 0
    self.windows_evaluated += 1
    return quality


class PerWindowEstimator(sk.QualityEstimator):
    _advance = _advance
    _score = _score


class PerWindowTracker(sk.ChannelQualityTracker):
    _advance = _advance
    _score = _score


# --- helpers ----------------------------------------------------------------------

def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _report_bits(reports: list[sk.QualityReport]) -> list[tuple[int, bytes]]:
    return [(r.timestamp, _bits(r.per_channel)) for r in reports]


def assert_same_state(ours: sk.QualityEstimator, oracle: sk.QualityEstimator) -> None:
    assert type(ours._window) is type(ours._avg) is type(ours._history) is np.ndarray
    assert ours._filled == oracle._filled
    assert _bits(ours._window[:, :ours._filled]) == _bits(oracle._window[:, :oracle._filled])
    assert (ours._prev is None) == (oracle._prev is None)
    if ours._prev is not None:
        assert type(ours._prev) is np.ndarray and _bits(ours._prev) == _bits(oracle._prev)
    assert _bits(ours._avg) == _bits(oracle._avg)
    assert ours._history.shape == oracle._history.shape
    assert _bits(ours._history) == _bits(oracle._history)
    assert ours.windows_evaluated == oracle.windows_evaluated
    assert ours.rejected_samples == oracle.rejected_samples
    assert (ours.last_filtered_variance is None) == (oracle.last_filtered_variance is None)
    if ours.last_filtered_variance is not None:
        assert _bits(ours.last_filtered_variance) == _bits(oracle.last_filtered_variance)


def random_scales(rng: np.random.Generator, n_channels: int) -> np.ndarray:
    """Per-channel noise scales; below about 12 uV a channel reaches quality 1.0."""
    return rng.choice([0.5, 3.0, 12.0, 40.0, 400.0], size=n_channels)


HUGE = (sk.MAX_ABS_SAMPLE_UV, np.nextafter(sk.MAX_ABS_SAMPLE_UV, np.inf), 1.7e308)


def random_block(rng: np.random.Generator, n: int, scales: np.ndarray, kind: str) -> np.ndarray:
    """Gaussian channels of the given scales; some constant, some with bad frames.

    A channel at quality 1.0 is copied rather than filtered; `huge` puts runs of
    finite values of either sign into some frames: at the bound on sample
    magnitude, which are kept and give variances near its square, or just above it
    or near the float max, whose frames are rejected.
    """
    n_channels = scales.size
    x = rng.standard_normal((n, n_channels)) * scales + rng.uniform(-50.0, 50.0, n_channels)
    if rng.uniform() < 0.1:
        x[:, rng.integers(0, n_channels)] = 7.25
    if kind in ("nonfinite", "huge"):
        for _ in range(int(rng.integers(1, 4))):
            x[rng.integers(0, n), rng.integers(0, n_channels)] = rng.choice(
                [np.nan, np.inf, -np.inf])
        if rng.uniform() < 0.05:
            x[:] = np.nan
    if kind == "huge":  # nearby runs of either sign: kept ones reach variances near the bound squared
        row = rng.integers(0, n)
        for sign in (1.0, -1.0):
            x[row:row + rng.integers(1, 10)] = sign * rng.choice(HUGE)
            row += rng.integers(1, 12)
    return x


# --- the estimator ----------------------------------------------------------------

KINDS = ("clean", "nonfinite", "huge")


def test_block_walk_equals_per_window_estimator():
    rng = np.random.default_rng(40)
    smoothed, variances, windows = [], [], 0
    with np.errstate(over="raise", invalid="raise"):  # no window variance overflows
        for episode in range(60):
            ours, oracle = sk.QualityEstimator(), PerWindowEstimator()
            # a huge block is rare: a kept one drives a channel's quality near 0
            weights = [0.6, 0.3, 0.1] if episode % 5 == 4 else [0.7, 0.3, 0.0]
            start, scales = 0, random_scales(rng, N_CHANNELS)
            for _ in range(25):
                variances.append(ours.last_filtered_variance)
                n = int(rng.integers(1, 401))
                if rng.uniform() < 0.2:
                    scales = random_scales(rng, N_CHANNELS)
                block = random_block(rng, n, scales, str(rng.choice(KINDS, p=weights)))
                if rng.uniform() < 0.5:  # the simulator hands over channel-major blocks
                    block = np.asfortranarray(block)
                got = ours.ingest_array(block, start)
                want = oracle.ingest_array(block, start)
                assert _report_bits(got) == _report_bits(want)
                assert_same_state(ours, oracle)
                smoothed.extend(q for report in got for q in report.per_channel)
                start += n
            windows += ours.windows_evaluated
            assert ours.last_report == oracle.last_report or (
                _report_bits([ours.last_report]) == _report_bits([oracle.last_report]))
    qualities = np.array(smoothed)
    assert windows > 2_000
    assert (qualities == 1.0).sum() > 500 and (qualities < 0.5).sum() > 1_000
    assert not np.isnan(qualities).any() and (qualities > 0.0).all()
    variances = np.concatenate([v for v in variances if v is not None])
    assert np.isfinite(variances).all() and variances.max() > sk.MAX_ABS_SAMPLE_UV ** 2 / 1e10


def test_block_walk_single_frames_and_empty_blocks():
    rng = np.random.default_rng(41)
    ours, oracle = sk.QualityEstimator(), PerWindowEstimator()
    scales = random_scales(rng, N_CHANNELS)
    for i in range(700):
        n = [0, 1, 1, 2, 127, 128, 129][i % 7]
        if i % 50 == 0:
            scales = random_scales(rng, N_CHANNELS)
        block = random_block(rng, n, scales, "nonfinite" if i % 11 == 0 else "clean") \
            if n else np.empty((0, N_CHANNELS))
        assert _report_bits(ours.ingest_array(block, i)) == \
            _report_bits(oracle.ingest_array(block, i))
        assert_same_state(ours, oracle)
    assert ours.rejected_samples > 0 and ours.windows_evaluated > 250


@pytest.mark.parametrize("depth", range(7))
def test_tracker_with_a_set_history_equals_per_window_tracker(depth):
    """Histories of 0 to 6 entries set from outside, with set quality and filter state."""
    rng = np.random.default_rng(50 + depth)
    with np.errstate(over="raise", invalid="raise"):
        for trial in range(40):
            history = rng.choice([rng.uniform(), 1.0, 0.0], size=depth).tolist()
            avg, prev = float(rng.choice([1.0, rng.uniform()])), float(rng.normal(0.0, 20.0))
            scales = random_scales(rng, 1)
            ours, oracle = sk.ChannelQualityTracker(), PerWindowTracker()
            for tracker in (ours, oracle):
                tracker._history = np.array([history])
                if trial % 2:
                    tracker.avg_quality, tracker.prev_filtered = avg, prev
            for _ in range(6):
                n = int(rng.integers(1, 401))
                kind = str(rng.choice(KINDS, p=[0.6, 0.3, 0.1] if trial % 8 == 7
                                      else [0.7, 0.3, 0.0]))
                block = random_block(rng, n, scales, kind)[:, 0]
                assert _bits(ours.ingest_block(block)) == _bits(oracle.ingest_block(block))
                assert_same_state(ours, oracle)
            if ours.windows_evaluated:
                assert ours._history.shape[1] == min(depth + ours.windows_evaluated,
                                                     QUALITY_HISTORY)


def test_quality_from_variance_equals_clip_form_for_positive_thresholds():
    rng = np.random.default_rng(42)
    special = np.array([0.0, -0.0, 5e-324, 1e-7, VARIANCE_FLOOR_UV2, 1.0, 149.0, 150.0,
                        151.0, 1e300, 1.7e308, np.inf, -np.inf, np.nan, -3.0])
    variances = np.concatenate([special, rng.uniform(0.0, 1_000.0, 2_000),
                                10.0 ** rng.uniform(-320, 308, 2_000)])
    assert _bits(sk.quality_from_variance(variances)) == _bits(quality_from_variance(variances))
    for v in special:
        assert _bits(sk.quality_from_variance(float(v))) == \
            _bits(quality_from_variance(float(v)))


# --- the simulator's per-trial quality --------------------------------------------

def test_trial_quality_equals_per_report_mean():
    rng = np.random.default_rng(43)
    for i in range(3_000):
        m, n_channels = int(rng.integers(1, 130)), (4, 4, 4, 1)[i % 4]
        values = rng.uniform(0.0, 1.0, (m, n_channels))
        if i % 3 == 0:
            values[rng.uniform(size=values.shape) < 0.5] = 1.0
        if i % 7 == 0:
            values *= 10.0 ** rng.uniform(-300, 0, values.shape)
        if i % 50 == 0:
            values[rng.integers(0, m), rng.integers(0, n_channels)] = np.nan
        reports = [sk.QualityReport(per_channel=tuple(row), timestamp=k)
                   for k, row in enumerate(values.tolist())]
        want = float(np.mean([np.mean(r.per_channel) for r in reports]))
        assert _bits(cli._trial_quality(reports)) == _bits(want)
    assert math.isnan(cli._trial_quality([]))
