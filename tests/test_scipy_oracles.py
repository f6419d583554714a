"""scipy out of the runtime: the numpy and Python replacements against scipy itself.

mindkit computes its spectra, its quality filter and its correlation p-value
without `scipy.signal` or `scipy.stats`, so that importing the CLI stays cheap.
Those scipy calls remain here, in the tests only, as oracles, together with
the quality estimator's former `lfilter` step verbatim.  Every comparison is
exact (`==`), not approximate.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.signal import lfilter, periodogram, welch

import mindkit
from mindkit import decoder
from mindkit import features as feat
from mindkit import streamkit as sk
from mindkit.streamkit import WINDOW_SAMPLES


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)


def _random_channels(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Gaussian channels of mixed scale and offset, with silent and constant ones."""
    x = rng.standard_normal(shape) * rng.uniform(0.01, 300.0, shape[:-1] + (1,))
    x += rng.uniform(-100.0, 100.0, shape[:-1] + (1,))
    kind = rng.integers(0, 6)
    if kind == 0:
        x[..., 0, :] = 0.0
    elif kind == 1:
        x[..., -1, :] = 12.5
    return x


# --- spectra ------------------------------------------------------------------------

def test_hann_psd_equals_welch_on_random_inputs():
    rng = np.random.default_rng(20)
    for _ in range(200):
        n = int(rng.integers(512, 9001))  # odd and even lengths, partial trailing segments
        x = _random_channels(rng, (4, n))
        freqs, psd = welch(x, fs=256, window="hann", nperseg=512, noverlap=256,
                           scaling="density")
        got_freqs, got_psd = sk.hann_psd(x, 256, 512, 256)
        assert _same(got_freqs, freqs) and _same(got_psd, psd)
        est = feat.psd_welch(x, 256)
        assert _same(est.freqs, freqs) and _same(est.psd, psd)


def test_hann_psd_equals_periodogram_on_one_second_windows():
    rng = np.random.default_rng(21)
    for _ in range(300):
        x = _random_channels(rng, (int(rng.integers(1, 5)), 256))
        freqs, psd = periodogram(x, fs=256, window="hann", scaling="density")
        got_freqs, got_psd = sk.hann_psd(x, 256, 256)
        assert _same(got_freqs, freqs) and _same(got_psd, psd)


@pytest.mark.parametrize("sample_rate", [250, 255, 257])
def test_hann_psd_equals_scipy_for_other_rates_and_odd_segments(sample_rate):
    rng = np.random.default_rng(sample_rate)
    for _ in range(20):
        x = _random_channels(rng, (3, int(rng.integers(sample_rate, 6 * sample_rate))))
        nperseg = sample_rate  # odd for 255 and 257: no unpaired Nyquist bin
        noverlap = int(rng.integers(0, nperseg))
        freqs, psd = welch(x, fs=sample_rate, window="hann", nperseg=nperseg,
                           noverlap=noverlap, scaling="density")
        got_freqs, got_psd = sk.hann_psd(x, sample_rate, nperseg, noverlap)
        assert _same(got_freqs, freqs) and _same(got_psd, psd)
        one = x[:, :sample_rate]
        freqs, psd = periodogram(one, fs=sample_rate, window="hann", scaling="density")
        got_freqs, got_psd = sk.hann_psd(one, sample_rate, sample_rate)
        assert _same(got_freqs, freqs) and _same(got_psd, psd)


def test_hann_psd_on_one_dimensional_signals():
    rng = np.random.default_rng(22)
    x = rng.standard_normal(1000)
    assert _same(sk.hann_psd(x, 256, 512, 256)[1],
                 welch(x, fs=256, window="hann", nperseg=512, noverlap=256)[1])
    assert _same(feat.psd_welch(x).psd, welch(x, fs=256, window="hann", nperseg=512)[1])
    assert _same(sk.hann_psd(x[:256], 256, 256)[1],
                 periodogram(x[:256], fs=256, window="hann")[1])


def _random_band(rng: np.random.Generator, freqs: np.ndarray) -> tuple[float, float]:
    """Edges on and off the grid, some past DC or Nyquist; some bands are one point."""
    while True:
        edges = [float(rng.choice(freqs)) if rng.integers(0, 3) == 0
                 else rng.uniform(-3.0, freqs[-1] + 3.0) for _ in range(2)]
        if rng.integers(0, 4) == 0:
            edges[1] = edges[0]
        lo, hi = sorted(edges)
        if np.any((freqs >= lo) & (freqs <= hi)):
            return lo, hi


@pytest.mark.parametrize("sample_rate, nperseg, noverlap", [
    (256, 512, 256), (256, 256, 0), (255, 255, 0), (257, 257, 100), (250, 500, 250)],
    ids=["welch", "line-noise", "odd", "odd-overlap", "250hz"])
def test_banded_hann_psd_equals_the_same_bins_of_the_full_estimate(sample_rate, nperseg,
                                                                   noverlap):
    rng = np.random.default_rng(nperseg + noverlap)
    ws = sk.Workspace()
    for i in range(60):
        x = _random_channels(rng, (int(rng.integers(1, 5)),
                                   int(rng.integers(nperseg, 4 * nperseg))))
        freqs, full = sk.hann_psd(x, sample_rate, nperseg, noverlap)
        band = _random_band(rng, freqs)
        if i < 3:  # DC alone, Nyquist (the last bin) alone, the whole grid
            band = ((0.0, 0.0), (freqs[-1], freqs[-1]), (-1.0, freqs[-1] + 1.0))[i]
        inside = (freqs >= band[0]) & (freqs <= band[1])
        got_freqs, got = sk.hann_psd(x, sample_rate, nperseg, noverlap,
                                     ws if i % 2 else None, band)
        assert _same(got_freqs, freqs[inside]), band
        assert _same(got, full[..., inside]), band


@pytest.mark.parametrize("band", [(130.0, 131.0), (-5.0, -1.0), (10.2, 10.4), (20.0, 10.0)])
def test_hann_psd_refuses_a_band_with_no_bin(band):
    with pytest.raises(ValueError, match="no frequency bin"):
        sk.hann_psd(np.ones((2, 512)), 256, 512, 256, band=band)


def test_banded_psd_welch_equals_the_same_bins_of_scipy_welch():
    rng = np.random.default_rng(23)
    for _ in range(50):
        x = _random_channels(rng, (4, int(rng.integers(512, 9001))))
        freqs, psd = welch(x, fs=256, window="hann", nperseg=512, noverlap=256)
        for band in (feat.FEATURE_SPAN, feat.ALPHA_BAND, (0.0, 128.0)):
            inside = (freqs >= band[0]) & (freqs <= band[1])
            est = feat.psd_welch(x, 256, band=band)
            assert _same(est.freqs, freqs[inside]) and _same(est.psd, psd[..., inside])
            assert est.resolution == feat.psd_welch(x, 256).resolution == freqs[1] - freqs[0]


# --- quality filter -----------------------------------------------------------------

def _lfilter_advance(self, raw: np.ndarray) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """QualityEstimator._advance as it was with scipy.signal.lfilter (verbatim body)."""
    keep = np.flatnonzero(np.isfinite(raw).all(axis=1))
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
        for ch, (q, prev) in enumerate(zip(self._avg.tolist(), self._prev.tolist())):
            self._window[ch, self._filled:end] = lfilter(
                [q], [1.0, -(1.0 - q)], raw[pos:pos + take, ch], zi=[(1.0 - q) * prev])[0]
        self._prev = self._window[:, end - 1].copy()
        self._filled = end
        pos += take
        if end == WINDOW_SAMPLES:
            done.append((int(keep[pos - 1]), self._score(), self._avg))
    return done


class LfilterEstimator(sk.QualityEstimator):
    _advance = _lfilter_advance


def test_filter_equals_lfilter_on_random_windows():
    rng = np.random.default_rng(23)
    for i in range(20_000):
        kind = i % 4
        q = (1.0 if kind == 0 else 0.0 if i % 400 == 1 else
             float(rng.uniform(0.0, 1e-6)) if kind == 1 else float(rng.uniform()))
        prev = float(rng.standard_normal() * rng.uniform(0.1, 200.0))
        x = rng.standard_normal(int(rng.integers(1, WINDOW_SAMPLES))) * rng.uniform(0.1, 300.0)
        tracker = sk.ChannelQualityTracker()
        tracker.prev_filtered, tracker.avg_quality = prev, q
        assert tracker.ingest_block(x) == []
        want = lfilter([q], [1.0, -(1.0 - q)], x, zi=[(1.0 - q) * prev])[0]
        assert np.array_equal(tracker._window[0, :tracker._filled], want)


def test_estimator_replay_equals_lfilter_estimator():
    """Blocks of every size, clean and noisy stretches, non-finite frames."""
    rng = np.random.default_rng(24)
    ours, oracle = sk.QualityEstimator(), LfilterEstimator()
    start, smoothed = 0, set()
    for block in range(400):
        n = int(rng.integers(1, 400))
        scale = [1.0, 5.0, 40.0, 400.0][block // 25 % 4]  # runs at quality 1.0 and below
        samples = rng.standard_normal((n, sk.N_CHANNELS)) * scale
        if block % 7 == 3:
            samples[rng.integers(0, n), rng.integers(0, sk.N_CHANNELS)] = np.nan
        got, want = ours.ingest_array(samples, start), oracle.ingest_array(samples, start)
        assert got == want
        smoothed.update(q for report in got for q in report.per_channel)
        start += n
    assert 1.0 in smoothed and min(smoothed) < 0.1
    assert ours.windows_evaluated == oracle.windows_evaluated > 500
    assert ours.rejected_samples == oracle.rejected_samples > 0
    assert np.array_equal(ours._window, oracle._window) and ours._filled == oracle._filled
    assert np.array_equal(ours._prev, oracle._prev)


# --- p-value ------------------------------------------------------------------------

def test_pearson_p_equals_t_distribution_survival():
    rng = np.random.default_rng(25)
    rs, ps, ns = [], [], []
    for _ in range(20_000):
        n = int(rng.integers(3, 300))
        a = rng.standard_normal(n)
        b = rng.uniform(-2.0, 2.0) * a + rng.standard_normal(n) * rng.uniform(0.01, 3.0)
        r, p = decoder.pearson(a, b)
        rs.append(r), ps.append(p), ns.append(n)
    r, n = np.array(rs), np.array(ns)
    t = r * np.sqrt((n - 2) / (1.0 - r * r))
    assert np.array_equal(np.array(ps), 2.0 * stats.t.sf(np.abs(t), n - 2))


# --- start-up -----------------------------------------------------------------------

def test_cli_import_loads_no_scipy_signal_stats_special_or_http_client():
    # urllib.request and http.client are the HTTP transport's; the directory one needs neither
    heavy = ("scipy.signal", "scipy.stats", "scipy.special", "urllib.request", "http.client")
    code = (f"import sys, mindkit.cli; "
            f"print(sorted(m for m in {heavy!r} if m in sys.modules))")
    src = str(Path(mindkit.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
