"""Trial-level spectral features for the decoding pipeline.

Every trial is reduced to sixteen numbers: for each of the four
channels, the log band power in the theta, alpha, and beta bands plus
the dominant frequency between 5 and 15 Hz.  Band powers come from a
Welch estimate with two-second Hann segments at 50% overlap and
density scaling, so a unit-amplitude sinusoid at a bin center
integrates to 0.5 uV^2 of band power.

The estimate and the band reducers work along the last axis: a (4, n)
trial takes one Welch call, and each reducer gives one value per channel.
A caller that featurizes many trials in turn may pass one
`streamkit.Workspace` to each call, so that the Welch working arrays are
reused instead of allocated per trial.

Feature vectors are z-normalized per subject across a laboratory
session or within each day of the at-home study before they reach the
decoder; discriminability is summarized with squared Pearson
correlations against the binary task label.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .datastore import write_csv_file
from .streamkit import CHANNEL_LABELS, N_CHANNELS, SAMPLE_RATE, Workspace, hann_psd

THETA_BAND = (3.0, 7.0)
ALPHA_BAND = (8.0, 13.0)
BETA_BAND = (17.0, 30.0)
BAND_FEATURES = (("theta", THETA_BAND), ("alpha", ALPHA_BAND), ("beta", BETA_BAND))
DOMINANT_BAND = (5.0, 15.0)

SEGMENT_SECONDS = 2.0
SEGMENT_OVERLAP = 0.5

# Channel-major feature layout; serialized priors depend on this order.
FEATURE_NAMES: tuple[str, ...] = tuple(
    f"{ch}_{name}"
    for ch in CHANNEL_LABELS
    for name in ("theta", "alpha", "beta", "domfreq")
)
N_FEATURES = len(FEATURE_NAMES)

GROUPING_LAB_SESSION = "lab-session"
GROUPING_HOME_DAY = "home-day"


class FeatureError(ValueError):
    pass


class ShortSignalError(FeatureError):
    """Signal shorter than one Welch segment."""


class GroupTooSmallError(FeatureError):
    """Normalization group with fewer than two vectors."""


class SingleClassError(FeatureError):
    """Correlation against a label vector with only one class."""


@dataclass(frozen=True)
class TrialWindow:
    """Raw samples for one trial, channel-major (n_channels, n_samples)."""

    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE
    task: str = ""
    label: int = 0  # +1 / -1 task label; 0 when unlabeled
    subject: str = ""
    day: int = 0
    strategy: str = ""
    trial_index: int = 0

    def __post_init__(self) -> None:
        data = np.ascontiguousarray(self.samples, dtype=np.float64)
        if data.ndim != 2:
            raise FeatureError("trial samples must be 2-D (channels x samples)")
        object.__setattr__(self, "samples", data)


@dataclass(frozen=True)
class SpectralEstimate:
    """One-sided Welch estimate: (F,) frequencies in Hz, (..., F) density in uV^2/Hz."""

    freqs: np.ndarray
    psd: np.ndarray

    def __post_init__(self) -> None:
        if self.psd.shape[-1:] != self.freqs.shape:
            raise FeatureError("frequency grid and PSD must align")
        if np.any(self.psd < 0):
            raise FeatureError("PSD must be non-negative")

    @property
    def resolution(self) -> float:
        return float(self.freqs[1] - self.freqs[0])


@dataclass(frozen=True)
class FeatureVector:
    """Sixteen features for one trial plus its provenance."""

    values: np.ndarray
    label: int = 0
    subject: str = ""
    day: int = 0
    strategy: str = ""
    trial_index: int = 0
    normalized: bool = False

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (N_FEATURES,):
            raise FeatureError(f"expected {N_FEATURES} features, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise FeatureError("feature values must be finite")
        object.__setattr__(self, "values", vals)


def psd_welch(x: np.ndarray, sample_rate: int = SAMPLE_RATE,
              workspace: Workspace | None = None) -> SpectralEstimate:
    """Welch PSD with 2 s Hann segments, 50% overlap, density scaling.

    Parameters
    ----------
    x : array_like
        Signal in uV, time along the last axis, e.g. (channels, n).
    sample_rate : int
        Samples per second.
    workspace : Workspace, optional
        Buffers for the Welch working arrays (see `hann_psd`).

    Returns
    -------
    SpectralEstimate
        PSD shaped x.shape[:-1] + (F,).  Grid resolution is 1 / segment-length = 0.5 Hz.

    Raises
    ------
    ShortSignalError
        If the signal does not cover one full segment.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    nperseg = int(round(SEGMENT_SECONDS * sample_rate))
    if x.shape[-1] < nperseg:
        raise ShortSignalError(f"need at least {nperseg} samples "
                               f"({SEGMENT_SECONDS:g} s), got {x.shape[-1]}")
    freqs, psd = hann_psd(x, sample_rate, nperseg, int(nperseg * SEGMENT_OVERLAP), workspace)
    return SpectralEstimate(freqs=freqs, psd=psd)


def _band(estimate: SpectralEstimate, band: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Grid and PSD bins inside `band`, edges inclusive, as slices: sums run in grid order."""
    lo, hi = estimate.freqs.searchsorted(band[0]), estimate.freqs.searchsorted(band[1], "right")
    if lo >= hi:
        raise FeatureError(f"band {band} contains no PSD bins")
    return estimate.freqs[lo:hi], estimate.psd[..., lo:hi]


def band_power(estimate: SpectralEstimate, band: tuple[float, float]) -> float | np.ndarray:
    """Integrated power (uV^2) in `band`: sum of PSD bins times bin width."""
    return np.sum(_band(estimate, band)[1], axis=-1) * estimate.resolution


def log_band_power(estimate: SpectralEstimate, band: tuple[float, float]) -> float | np.ndarray:
    """log10 of the mean PSD across the bins inside `band` (inclusive); -inf if silent."""
    with np.errstate(divide="ignore"):
        return np.log10(np.mean(_band(estimate, band)[1], axis=-1))


def dominant_frequency(estimate: SpectralEstimate,
                       band: tuple[float, float] = DOMINANT_BAND) -> float | np.ndarray:
    """Frequency of the largest PSD bin inside `band`; ties pick the lower bin."""
    freqs, psd = _band(estimate, band)
    return freqs[np.argmax(psd, axis=-1)]


def extract_trial_features(trial: TrialWindow,
                           workspace: Workspace | None = None) -> FeatureVector:
    """Reduce one trial to its sixteen-feature vector (see FEATURE_NAMES).

    With a `workspace`, the Welch estimate works in its buffers (see `hann_psd`).
    """
    data = trial.samples
    if data.shape[0] != N_CHANNELS:
        raise FeatureError(f"expected {N_CHANNELS} channels, got {data.shape[0]}")
    est = psd_welch(data, trial.sample_rate, workspace=workspace)
    kinds = [log_band_power(est, band) for _, band in BAND_FEATURES] + [dominant_frequency(est)]
    # (channels, kinds) flattened row by row: the channel-major FEATURE_NAMES order
    return FeatureVector(values=np.stack(kinds, axis=-1).ravel(), label=trial.label,
                         subject=trial.subject, day=trial.day,
                         strategy=trial.strategy, trial_index=trial.trial_index)


def normalize_matrix(matrix: np.ndarray) -> np.ndarray:
    """z-normalize each column; zero-variance columns map to zero."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise FeatureError("expected a 2-D feature matrix")
    if matrix.shape[0] < 2:
        raise GroupTooSmallError("normalization needs at least two vectors")
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    out = np.zeros_like(matrix)
    nonzero = std > 0
    out[:, nonzero] = (matrix[:, nonzero] - mean[nonzero]) / std[nonzero]
    return out


def group_key(grouping: str) -> Callable[[FeatureVector], tuple]:
    """The normalization group of a vector: (subject,) for `lab-session` and
    (subject, day) for `home-day`."""
    if grouping == GROUPING_LAB_SESSION:
        return lambda v: (v.subject,)
    if grouping == GROUPING_HOME_DAY:
        return lambda v: (v.subject, v.day)
    raise FeatureError(f"unknown grouping {grouping!r}; "
                       f"use {GROUPING_LAB_SESSION!r} or {GROUPING_HOME_DAY!r}")


def normalize_features(vectors: Sequence[FeatureVector], grouping: str) -> list[FeatureVector]:
    """z-normalize feature vectors within subject sessions or subject days.

    Grouping is per subject for `lab-session` and per (subject, day) for
    `home-day`.  Groups smaller than two vectors are rejected.  Order is
    preserved.
    """
    key = group_key(grouping)
    groups: dict[tuple, list[int]] = {}
    for i, vec in enumerate(vectors):
        groups.setdefault(key(vec), []).append(i)
    out: list[FeatureVector | None] = [None] * len(vectors)
    for group, idx in groups.items():
        if len(idx) < 2:
            raise GroupTooSmallError(f"group {group} has {len(idx)} vector(s); need >= 2")
        matrix = np.stack([vectors[i].values for i in idx])
        normed = normalize_matrix(matrix)
        for row, i in enumerate(idx):
            out[i] = replace(vectors[i], values=normed[row], normalized=True)
    return [v for v in out if v is not None]


def r2_map(features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Squared Pearson correlation of each feature column with the labels.

    Zero-variance feature columns contribute 0.  A label vector with a
    single class is rejected.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if features.ndim != 2 or labels.ndim != 1 or features.shape[0] != labels.size:
        raise FeatureError("features must be (n, k) aligned with n labels")
    if np.unique(labels).size < 2:
        raise SingleClassError("labels contain a single class")
    fc = features - features.mean(axis=0)
    lc = labels - labels.mean()
    denom = np.sqrt(np.sum(fc ** 2, axis=0) * np.sum(lc ** 2))
    out = np.zeros(features.shape[1])
    nonzero = denom > 0
    out[nonzero] = (fc[:, nonzero].T @ lc / denom[nonzero]) ** 2
    return out


FEATURE_TABLE_HEADER = ("subject", "day", "strategy", "trial", "label") + FEATURE_NAMES


def write_feature_table(vectors: Sequence[FeatureVector], path: str | Path) -> None:
    """Export feature vectors as delimited text with a header row."""
    write_csv_file(path, FEATURE_TABLE_HEADER,
                   ([vec.subject, vec.day, vec.strategy, vec.trial_index, float(vec.label),
                     *vec.values.tolist()] for vec in vectors))


def read_feature_table(path: str | Path) -> list[FeatureVector]:
    """Parse a table written by `write_feature_table`; any malformation is a FeatureError."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if tuple(next(reader, ())) != FEATURE_TABLE_HEADER:
                raise FeatureError("unexpected header")
            out = []
            for row in reader:
                subject, day, strategy, trial, label, *values = row
                out.append(FeatureVector(values=np.array([float(v) for v in values]),
                                         label=float(label), subject=subject, day=int(day),
                                         strategy=strategy, trial_index=int(trial)))
    except (OSError, ValueError, csv.Error) as exc:  # ValueError covers FeatureError, UTF-8
        raise FeatureError(f"malformed feature table {path}: {exc}") from exc
    return out
