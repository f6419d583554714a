"""Streaming per-channel signal quality and line-noise estimation.

Raw EEG arrives sample by sample from a 4-channel headband (AF7, AF8,
TP9, TP10 at 256 Hz).  Each channel is smoothed with an adaptive
single-pole filter whose coefficient is the channel's own smoothed
quality: clean channels pass almost unfiltered, noisy channels are
damped until the electrode is re-seated.  Quality itself is derived
from the variance of consecutive 500 ms windows of the filtered
signal against a fixed variance threshold.

Unusable input is rejected per frame: a frame (one multiplexed sample)
with a NaN, an infinity or a magnitude above MAX_ABS_SAMPLE_UV on any
channel is dropped from every channel and counted in `rejected_samples`,
so all channels stay on the same window boundaries whichever entry point
fed them.  The bound keeps a channel from locking: one held at quality 0,
NaN or near 0 keeps its filtered value, and so its quality, for the rest
of the session (see MAX_ABS_SAMPLE_UV).  No headset comes near it
(artifacts of 1e2..1e6 uV recover to quality 1 within seconds).

A separate, non-adaptive check estimates mains interference from the
log band power around the line frequency of a one-second window and
maps it onto a 0..1 environment score, for all channels in one call.

`hann_psd` is the spectral kernel behind that check and behind the Welch
features: Welch's (1967) averaged Hann periodogram in numpy alone.  Given a
`Workspace`, it writes its working arrays into that workspace's buffers
instead of fresh ones, the arithmetic unchanged.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

logger = logging.getLogger(__name__)

SAMPLE_RATE = 256  # headband sampling rate, Hz
N_CHANNELS = 4
CHANNEL_LABELS = ("AF7", "AF8", "TP9", "TP10")

WINDOW_SAMPLES = 128  # 500 ms at 256 Hz; quality is re-evaluated per window
QUALITY_HISTORY = 4  # windows averaged into the smoothed quality
VARIANCE_THRESHOLD_UV2 = 150.0  # filtered-window variance treated as fully clean
VARIANCE_FLOOR_UV2 = 1e-6  # guards the division for near-constant windows
# Frames beyond this are rejected.  Filtered values y are blends of accepted
# samples, so |y| <= 1e15 and a window's 128 squared deviations sum to at most
# 5.2e32: the variance stays finite.  Huge samples drive q toward 0; there
# 1 - q rounds to 1, the filter holds y, and the variance of that constant
# window is the rounding error of its mean, about (y * 2**-52)**2.  That holds
# q near 0 for good only while it exceeds the 150 uV^2 threshold, which needs
# |y| above about 5.5e16.  At 1e15 it is about 0.05 uV^2: the channel scores 1.
MAX_ABS_SAMPLE_UV = 1e15
INITIAL_AVG_QUALITY = 0.5

# Line-noise calibration: log10 band power (uV^2) at the line frequency
# mapping linearly onto environment quality, 1.0 at or below the good
# anchor and 0.0 at or above the bad one.
EM_LOG_POWER_GOOD = -1.0
EM_LOG_POWER_BAD = 3.0
EM_BAND_HALF_WIDTH_HZ = 1.0
DEFAULT_LINE_FREQ = 50.0

# Fitting target: start from a perfect-quality requirement and relax it
# after three minutes so a session cannot stall on a hard-to-fit subject.
# There is deliberately no upper bound on the fitting duration.
FITTING_INITIAL_TARGET = 1.0
FITTING_RELAXED_TARGET = 0.75
FITTING_RELAX_AFTER_S = 180.0


def quality_from_variance(variance: float | np.ndarray) -> float | np.ndarray:
    """Map filtered-window variances (uV^2) onto 0..1 quality scores.

    Windows at or below VARIANCE_THRESHOLD_UV2 count as fully clean (1.0);
    above it the score decays as threshold / variance.  Accepts a scalar or
    an array of per-channel variances.
    """
    # np.clip(ratio, 0.0, 1.0) as the one ufunc it needs, without its wrapper:
    # this runs on every window, and the floored variance is positive, so the
    # ratio is never below 0.
    return np.minimum(VARIANCE_THRESHOLD_UV2 / np.maximum(variance, VARIANCE_FLOOR_UV2), 1.0)


def env_quality_from_log_power(log_band_power: float | np.ndarray) -> float | np.ndarray:
    """Map log10 line-band powers (a scalar or an array) onto 0..1 environment scores."""
    span = EM_LOG_POWER_BAD - EM_LOG_POWER_GOOD
    return np.clip((EM_LOG_POWER_BAD - log_band_power) / span, 0.0, 1.0)


@dataclass(frozen=True)
class QualityReport:
    """Smoothed per-channel quality, emitted once per completed window."""

    per_channel: tuple[float, ...]
    timestamp: int  # sample index of the last sample in the window


@dataclass(frozen=True)
class NoiseReport:
    """Per-channel line-noise environment quality from one 1 s window."""

    per_channel: tuple[float, ...]
    log_band_power: tuple[float, ...]
    line_freq: float


@dataclass(frozen=True)
class GateDecision:
    target: float
    met: bool


@lru_cache(maxsize=WINDOW_SAMPLES + 1)
def _pack_floats(n: int):
    """`pack_into` for a run of n native float64s, built on first use.

    struct writes a run of Python floats into the window's buffer in about half
    the time numpy takes to convert a list.
    """
    return struct.Struct(f"{n}d").pack_into


class QualityEstimator:
    """Adaptive filter plus windowed quality for every channel of a headset.

    State is held per channel as arrays and advanced one window step at
    a time across all channels.  Each incoming frame is blended with the
    previous filtered value, weighted by the channel's current smoothed
    quality; the coefficient only changes at window boundaries, so each
    partial window runs through a first-order IIR in Python floats, and a
    channel at quality 1.0, where the filter is the identity, is copied.  When 128
    filtered frames have accumulated, each channel's sample variance is
    mapped onto a window quality, appended to a short time-ordered
    history, and the smoothed quality becomes the history mean.
    """

    n_channels = N_CHANNELS

    def __init__(self) -> None:
        self._prev: np.ndarray | None = None  # last filtered value per channel
        self._avg = np.full(self.n_channels, INITIAL_AVG_QUALITY)
        self._history = np.empty((self.n_channels, 0))  # window qualities, oldest first
        # C order: _advance packs filtered runs into it at byte offsets
        self._window = np.empty((self.n_channels, WINDOW_SAMPLES))
        self._filled = 0
        self.windows_evaluated = 0
        self.rejected_samples = 0  # frames dropped for a non-finite or out-of-range channel
        self.last_filtered_variance: np.ndarray | None = None
        self.last_report: QualityReport | None = None

    def _advance(self, raw: np.ndarray) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """Filter the usable frames of an (n, C) block into the window.

        Returns (row of the last frame, window quality, smoothed quality)
        for every window that completed inside the block.
        """
        keep = np.flatnonzero((np.abs(raw) <= MAX_ABS_SAMPLE_UV).all(axis=1))  # NaN fails too
        self.rejected_samples += raw.shape[0] - keep.size
        if keep.size < raw.shape[0]:
            raw = raw[keep]
        done = []
        if not raw.shape[0]:
            return done
        window, pos = self._window, 0
        if self._prev is None:
            self._prev = raw[0].copy()  # the first frame passes unfiltered
            window[:, 0] = raw[0]
            self._filled = pos = 1
        # Each channel's last filtered value and its quality ride through the
        # block as Python floats; a window's channel run is a view of raw.T.
        prev, avg, filled = self._prev.tolist(), self._avg.tolist(), self._filled
        columns = raw.T
        while pos < raw.shape[0]:
            stop = min(pos + WINDOW_SAMPLES - filled, raw.shape[0])
            end = filled + stop - pos
            pack_run = _pack_floats(end - filled)
            for ch, q in enumerate(avg):
                x = columns[ch, pos:stop]
                if q == 1.0:  # y = v exactly: the filter is the identity
                    window[ch, filled:end] = x
                    prev[ch] = float(x[-1])
                    continue
                r, y = 1.0 - q, prev[ch]
                pack_run(window, (ch * WINDOW_SAMPLES + filled) * window.itemsize,
                         *[y := q * v + r * y for v in x.tolist()])
                prev[ch] = y
            pos, filled = stop, end
            if filled == WINDOW_SAMPLES:
                done.append((int(keep[pos - 1]), self._score(), self._avg))
                avg, filled = self._avg.tolist(), 0
        self._prev = np.array(prev)
        self._filled = filled
        return done

    def _score(self) -> np.ndarray:
        # np.var(ddof=1) and .mean(axis=1) as the ufunc steps they run, in their
        # order: the recorded quality traces depend on both to the last bit.
        window = self._window
        mean = np.add.reduce(window, axis=1, keepdims=True)
        np.true_divide(mean, WINDOW_SAMPLES, out=mean)
        deviation = np.subtract(window, mean)
        np.square(deviation, out=deviation)
        variance = np.add.reduce(deviation, axis=1)
        np.true_divide(variance, WINDOW_SAMPLES - 1, out=variance)
        quality = quality_from_variance(variance)
        # Kept oldest first: the mean adds scores in time order.  A full
        # history shifts in place; a shorter one (the first windows) or one of
        # another length set from outside is rebuilt at QUALITY_HISTORY or less.
        history = self._history
        if history.shape[1] == QUALITY_HISTORY:
            history[:, :-1] = history[:, 1:]
            history[:, -1] = quality
        else:
            history = self._history = np.concatenate(
                (history[:, 1 - QUALITY_HISTORY:], quality[:, None]), axis=1)
        self._avg = np.add.reduce(history, axis=1)
        np.true_divide(self._avg, history.shape[1], out=self._avg)
        self.last_filtered_variance = variance
        self._filled = 0
        self.windows_evaluated += 1
        return quality

    def ingest_array(self, samples: np.ndarray, start_index: int = 0) -> list[QualityReport]:
        """Feed a (n_samples, n_channels) block; returns completed reports."""
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != 2 or samples.shape[1] != self.n_channels:
            raise ValueError(f"expected shape (n, {self.n_channels}), got {samples.shape}")
        reports = [QualityReport(per_channel=tuple(avg.tolist()), timestamp=start_index + row)
                   for row, _, avg in self._advance(samples)]
        if reports:
            self.last_report = reports[-1]
        return reports


class ChannelQualityTracker(QualityEstimator):
    """A single channel: the one-channel case of QualityEstimator."""

    n_channels = 1

    @property
    def prev_filtered(self) -> float | None:
        return None if self._prev is None else float(self._prev[0])

    @prev_filtered.setter
    def prev_filtered(self, value: float) -> None:
        self._prev = np.array([value], dtype=np.float64)

    @property
    def avg_quality(self) -> float:
        return float(self._avg[0])

    @avg_quality.setter
    def avg_quality(self, value: float) -> None:
        self._avg = np.array([value], dtype=np.float64)

    def ingest_sample(self, raw: float) -> float | None:
        """Filter one raw sample; returns the window quality if one completed."""
        qualities = self.ingest_block(np.array([raw], dtype=np.float64))
        return qualities[0] if qualities else None

    def ingest_block(self, raw: np.ndarray) -> list[float]:
        """Filter a 1-D sample run; returns the window qualities that completed."""
        raw = np.asarray(raw, dtype=np.float64)
        if raw.ndim != 1:
            raise ValueError("ingest_block expects a 1-D sample array")
        return [float(quality[0]) for _, quality, _ in self._advance(raw[:, None])]


def fitting_gate(elapsed_s: float, report: QualityReport) -> GateDecision:
    """Decide whether the current fit is good enough to start recording.

    The target starts at a perfect-quality requirement and relaxes once
    the subject has spent three minutes adjusting the headband; it never
    times out entirely.
    """
    target = (FITTING_INITIAL_TARGET if elapsed_s < FITTING_RELAX_AFTER_S
              else FITTING_RELAXED_TARGET)
    met = all(q >= target for q in report.per_channel)
    return GateDecision(target=target, met=met)


@lru_cache(maxsize=8)
def _hann_window(nperseg: int, sample_rate: int) -> np.ndarray:
    """Periodic Hann window scaled to unit energy density (read-only)."""
    # scipy.signal.windows.general_cosine's grid and term order, one point dropped
    window = (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, nperseg + 1)))[:-1]
    # the built-in sum, not np.sum: its sequential order fixes the last bit of the scale
    window = window * (1 / np.sqrt(sum(window ** 2) / (1 / sample_rate)))
    window.flags.writeable = False
    return window


class Workspace:
    """Reusable working arrays for a chain of calls, numpy's `out=` idiom by name.

    `array(name, shape, dtype)` hands back an array over the buffer held
    under `name`, grown when a larger one is asked for and reused otherwise;
    its contents are whatever the buffer last held.  Arrays asked for under
    one name share memory, so a caller gives one name only to arrays whose
    lifetimes do not overlap, and an array from a workspace is overwritten by
    the next call that asks for its name.  One thread at a time may use it.

    The trial chain (`simkit.gen_trial`, then `features.extract_trial_features`
    and this module's `hann_psd`) shares one workspace: its functions keep
    only arrays that are spent before they return under "scratch" (float64)
    and "spectrum" (complex), and the generated trial under "trial".
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def array(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < nbytes:
            buffer = self._buffers[name] = np.empty(nbytes, np.uint8)
        return buffer[:nbytes].view(dtype).reshape(shape)


def hann_psd(x: np.ndarray, sample_rate: int, nperseg: int, noverlap: int = 0,
             workspace: Workspace | None = None,
             band: tuple[float, float] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One-sided PSD (density, uV^2/Hz) along the last axis by Welch's method.

    The signal is cut into periodic-Hann segments of `nperseg` samples,
    `noverlap` of them shared by neighbours, trailing samples that fill no
    segment dropped; each segment's mean is removed before the FFT and the
    segment periodograms are averaged.  One segment spanning the signal is
    the Hann periodogram.  Every step follows scipy.signal.welch, so the
    result equals it to the last bit.  Returns (frequency grid, PSD shaped
    x.shape[:-1] + (F,)); the signal must cover one segment.

    With a `band` (lo, hi) in Hz, the power, the fold of the negative bins
    and the mean over segments are computed only for the bins from lo to hi,
    both edges inclusive, and only that part of the grid is returned; each of
    its bins has the bits it has in the full estimate.  A band with no bin
    raises ValueError, before any work is done.

    The segments and the power array are written into the `workspace`'s
    "scratch" buffer and the spectra into its "spectrum" buffer, in a new
    workspace when none is given; the returned PSD is always a fresh array.
    """
    freqs = np.fft.rfftfreq(nperseg, 1 / sample_rate)
    n_bins = freqs.size
    lo, hi = 0, n_bins
    if band is not None:
        # the grid is sorted, so the band is one contiguous run of bins
        lo, hi = freqs.searchsorted(band[0]), freqs.searchsorted(band[1], "right")
        if lo >= hi:
            raise ValueError(f"no frequency bin in the band {band[0]:g} to {band[1]:g} Hz "
                             f"at {sample_rate} Hz sampling")
    workspace = Workspace() if workspace is None else workspace
    x = np.ascontiguousarray(x, dtype=np.float64)  # so the bits do not depend on x's layout
    hop = nperseg - noverlap
    n_segments = (x.shape[-1] - noverlap) // hop
    windows = np.lib.stride_tricks.sliding_window_view(x, nperseg, axis=-1)[
        ..., ::hop, :][..., :n_segments, :]
    # the de-meaned segments and the power array never live at once: one buffer
    segments = np.subtract(windows, np.mean(windows, axis=-1, keepdims=True),
                           out=workspace.array("scratch", windows.shape))
    segments *= _hann_window(nperseg, sample_rate)
    spectra = np.fft.rfft(segments, axis=-1, out=workspace.array(
        "spectrum", (*windows.shape[:-1], n_bins), np.complex128))[..., lo:hi]
    del segments
    # (..., F, P) and contiguous, so the mean over segments adds in scipy's order;
    # the squares go straight into it, the imaginary ones over the spent spectra
    power = workspace.array("scratch", (*spectra.shape[:-2], hi - lo, n_segments))
    power_t = np.swapaxes(power, -1, -2)
    np.square(spectra.real, out=power_t)
    power_t += np.square(spectra.imag, out=spectra.imag)
    # fold in the negative bins: every bin but DC and, for an even nperseg, Nyquist
    folded = n_bins - 1 if nperseg % 2 == 0 else n_bins
    power[..., max(1 - lo, 0):min(hi, folded) - lo, :] *= 2
    return freqs[lo:hi], power.mean(axis=-1)


def line_noise_log_power(window: np.ndarray, sample_rate: int = SAMPLE_RATE,
                         line_freq: float = DEFAULT_LINE_FREQ) -> float | np.ndarray:
    """log10 mean power spectral density in a +/-1 Hz band at line_freq.

    Works along the last axis, one value per channel; a silent channel
    gives -inf.  Expects exactly one second of data so the periodogram
    grid has 1 Hz resolution and the band covers three bins; a band with
    no bin (line_freq off the 0 to Nyquist grid) raises ValueError.
    """
    x = np.atleast_1d(np.asarray(window, dtype=np.float64))
    if x.shape[-1] != sample_rate:
        raise ValueError(f"line-noise check needs exactly {sample_rate} samples "
                         f"(1 s), got shape {x.shape}")
    _, psd = hann_psd(x, sample_rate, sample_rate, band=(
        line_freq - EM_BAND_HALF_WIDTH_HZ, line_freq + EM_BAND_HALF_WIDTH_HZ))
    with np.errstate(divide="ignore"):
        return np.log10(np.mean(psd, axis=-1))


def em_noise_quality(window: np.ndarray, sample_rate: int = SAMPLE_RATE,
                     line_freq: float = DEFAULT_LINE_FREQ) -> NoiseReport:
    """Environment quality per channel from one second of raw data.

    `window` is channel-major, shape (n_channels, sample_rate).  Grids
    with 60 Hz mains are handled by passing line_freq=60.
    """
    data = np.atleast_2d(np.asarray(window, dtype=np.float64))
    log_powers = line_noise_log_power(data, sample_rate, line_freq)
    return NoiseReport(per_channel=tuple(env_quality_from_log_power(log_powers).tolist()),
                       log_band_power=tuple(log_powers.tolist()), line_freq=line_freq)
