"""Transfer-learning decoder: MAP ridge regression under a shared prior.

Each task (one subject/day/strategy) supplies a matrix of normalized
feature vectors, bias-augmented to 17 dimensions, with +/-1 labels.
Decoding weights are the MAP estimate under a Gaussian prior N(mu,
Sigma):

    w = (X'X + lambda * inv(Sigma))^-1 (X'y + lambda * inv(Sigma) mu)

The prior itself is learned from a corpus of laboratory tasks by
alternating (a) MAP fits of every task under the current prior, one
stacked solve over the tasks' precomputed Gram matrices per round, with
(b) moment updates of the prior: mu becomes the mean weight vector and
Sigma the trace-normalized matrix square root of the mean outer
product of the centered weights, floored by a small ridge so it stays
invertible.  The update is iterated until Sigma moves less than 1e-8, with
a cap of 10,000 rounds.  Its fixed point minimises the convex objective
J(mu, V) = sum_t ||X_t (mu + v_t) - y_t||^2 + lambda ||V||_*^2 (Argyriou,
Evgeniou & Pontil, 2008), which plain alternation approaches only
sublinearly on rank-deficient corpora.  So a fit still running after
SOLVE_AFTER_ROUNDS (100) rounds minimises J once by FISTA with adaptive
restart, warm-started from the next round's weights, and then alternates
on from the minimiser until the residual falls below 1e-8.  A fit that
stops within 100 rounds never solves.

Accuracy is evaluated by leave-one-trial-out cross-validation with the
sign rule; a prediction of exactly zero counts as incorrect.  By
default lambda is chosen per fold by an inner leave-one-out grid
search on the remaining trials.  Held-out predictions come from the
exact closed form (PRESS, a Sherman-Morrison downdate), never from refits.
A learned prior is a MYNP file: the datastore's frame around a float64 payload.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .datastore import ContainerFormatError, pack_frame, unpack_frame, write_csv_file
from .features import FEATURE_NAMES

logger = logging.getLogger(__name__)

N_WEIGHTS = len(FEATURE_NAMES) + 1  # 16 features + bias
LAMBDA_GRID = (1e-2, 1e-1, 1.0, 10.0, 1e2)
EPS_RIDGE = 1e-6
MAX_PRIOR_ITERATIONS = 10_000
PRIOR_CONVERGENCE_TOL = 1e-8
SOLVE_AFTER_ROUNDS = 100  # plain rounds learn_prior runs before the convex solve
SOLVE_TOL = 1e-7  # gradient-mapping stop, relative to the gradient norm at the origin
SOLVE_MAX_STEPS = 5_000
DEFAULT_PRIOR_LAMBDA = 1.0
MIN_GRID_TRIALS = 3  # inner grid search needs enough trials to cross-validate

PRIOR_MAGIC = b"MYNP"
PRIOR_VERSION = 1


class DecoderError(ValueError):
    pass


class SingularSystemError(DecoderError):
    """Unregularized fit on a rank-deficient design."""


class ZeroVarianceError(DecoderError):
    """Correlation input without variance."""


@dataclass(frozen=True)
class TaskDataset:
    """Bias-augmented features and labels for one decodable task.

    Labels are +1/-1 for accuracy evaluation; continuous targets are
    accepted for prior fitting.
    """

    X: np.ndarray
    y: np.ndarray
    subject: str = ""
    day: int = 0
    strategy: str = ""

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
            raise DecoderError("X must be (n, d) aligned with n targets")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n_trials(self) -> int:
        return int(self.y.size)


def augment_bias(features: np.ndarray) -> np.ndarray:
    """Append the constant bias column (last dimension of the weights)."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    return np.hstack([features, np.ones((features.shape[0], 1))])


class GaussianPrior:
    """N(mu, Sigma) over decoding weights; Sigma kept symmetric PD."""

    def __init__(self, mean: np.ndarray, cov: np.ndarray) -> None:
        mean = np.asarray(mean, dtype=np.float64)
        cov = np.asarray(cov, dtype=np.float64)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise DecoderError("prior needs mean (d,) and covariance (d, d)")
        if mean.size == 0:
            raise DecoderError("prior needs at least one dimension")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise DecoderError("prior mean and covariance must be finite")
        # Entries near the float max overflow to inf in both checks below,
        # which then reject the covariance; numpy need not warn first.
        with np.errstate(over="ignore"):
            # np.allclose(cov, cov.T, atol=1e-10) on finite entries, without its
            # wrapper: this runs on every learn_prior iterate
            if not (np.abs(cov - cov.T) <= 1e-10 + 1e-5 * np.abs(cov.T)).all():
                raise DecoderError("prior covariance must be symmetric")
            cov = 0.5 * (cov + cov.T)
        if not np.isfinite(cov).all():
            raise DecoderError("prior covariance overflows when symmetrized")
        min_eig = float(np.linalg.eigvalsh(cov).min())
        if min_eig < 0.5 * EPS_RIDGE:
            raise DecoderError(f"prior covariance not positive definite "
                               f"(min eigenvalue {min_eig:.3g})")
        self.mean = mean
        self.cov = cov
        self._precision: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return int(self.mean.size)

    @property
    def precision(self) -> np.ndarray:
        if self._precision is None:
            self._precision = np.linalg.inv(self.cov)
        return self._precision

    @classmethod
    def uninformative(cls, dim: int = N_WEIGHTS) -> "GaussianPrior":
        return cls(np.zeros(dim), np.eye(dim))


def _normal_equations(gram: np.ndarray, xty: np.ndarray, prior: GaussianPrior,
                      lam: float) -> tuple[np.ndarray, np.ndarray]:
    """The one MAP system: A = X'X + lam inv(Sigma), b = X'y + lam inv(Sigma) mu.

    Takes the Gram matrix X'X and X'y, or stacks of them, (T, d, d) and (T, d).
    """
    if not (np.isfinite(lam) and lam >= 0):
        raise DecoderError(f"lambda must be finite and non-negative, got {lam!r}")
    if gram.shape[-1] != prior.dim:
        raise DecoderError(f"design has {gram.shape[-1]} columns, prior has {prior.dim}")
    return gram + lam * prior.precision, xty + lam * (prior.precision @ prior.mean)


def _solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    try:
        sol = np.linalg.solve(A, B)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"normal equations singular: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise SingularSystemError("normal equations produced non-finite weights")
    return sol


def fit_map(X: np.ndarray, y: np.ndarray, prior: GaussianPrior, lam: float) -> np.ndarray:
    """MAP weights under the Gaussian prior; lam=0 is the unregularized fit."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return _solve(*_normal_equations(X.T @ X, X.T @ y, prior, lam))


@dataclass
class PriorSolveInfo:
    """The convex solve that replaced one round's weights and mean."""

    round: int
    iterations: int
    restarts: int
    objective_start: float
    objective: float
    # J after the start and after every accepted step: it never rises
    objectives: list[float] = field(default_factory=list, repr=False)

    def summary(self) -> dict:
        return {"round": self.round, "iterations": self.iterations,
                "restarts": self.restarts, "objective_start": self.objective_start,
                "objective": self.objective}


@dataclass
class PriorFitInfo:
    iterations_run: int
    converged: bool
    residual: float
    clipped_eigenvalues: int = 0
    # (iteration, residual) at iterations 1, 10, 100, ... and at the last one
    trajectory: list[tuple[int, float]] = field(default_factory=list)
    solve: PriorSolveInfo | None = None


def _psd_sqrt(matrix: np.ndarray) -> tuple[np.ndarray, int]:
    """Symmetric matrix square root with negative eigenvalues clipped."""
    vals, vecs = np.linalg.eigh(0.5 * (matrix + matrix.T))
    clipped = int(np.count_nonzero(vals < 0))
    vals = np.maximum(vals, 0.0)
    root = (vecs * np.sqrt(vals)) @ vecs.T
    return 0.5 * (root + root.T), clipped


def _shrink_singular_values(Z: np.ndarray, c: float) -> tuple[np.ndarray, float]:
    """Prox of c * ||.||_*^2 at Z, and the nuclear norm of the result.

    Each singular value s_i becomes max(s_i - 2cS, 0), where S, the sum of
    the shrunk values, is sum_{i<=k} s_i / (1 + 2ck) for the largest k with
    s_k > 2cS_k; the k satisfying that form a prefix of the sorted values.
    """
    u, s, vt = np.linalg.svd(Z, full_matrices=False)
    sums = np.cumsum(s) / (1.0 + 2.0 * c * np.arange(1, s.size + 1))
    k = int(np.count_nonzero(s > 2.0 * c * sums))
    shrunk = np.maximum(s - 2.0 * c * sums[k - 1], 0.0) if k else np.zeros_like(s)
    return (u * shrunk) @ vt, float(shrunk.sum())


def _solve_prior_objective(grams: np.ndarray, xty: np.ndarray, yty: float,
                           mean: np.ndarray, offsets: np.ndarray, lam: float,
                           zero_mean: bool, round_: int
                           ) -> tuple[np.ndarray, np.ndarray, PriorSolveInfo]:
    """Minimise J(mu, V) = sum_t ||X_t (mu + v_t) - y_t||^2 + lam ||V||_*^2 from (mean, offsets).

    J is the objective whose fixed point the alternation seeks: the moment
    update is the closed-form covariance step of convex multi-task feature
    learning (Argyriou, Evgeniou & Pontil, 2008).  FISTA with step 1/L,
    L = 2(T+1) max_t lambda_max(X_t'X_t), restarts its momentum whenever J
    would rise (O'Donoghue & Candes, 2015) and drops that step, so J never
    rises.  It stops when the gradient mapping falls to SOLVE_TOL times the
    gradient norm at the origin, or after SOLVE_MAX_STEPS steps.  Rows of
    the iterate are mu then v_1..v_T; with `zero_mean` mu stays at zero.
    """
    lipschitz = 2.0 * (len(grams) + 1) * float(np.linalg.eigvalsh(grams)[:, -1].max())

    def gram_products(x: np.ndarray) -> np.ndarray:
        return np.einsum("tij,tj->ti", grams, x[0] + x[1:])

    def objective(x: np.ndarray, gw: np.ndarray, nuclear: float) -> float:
        w = x[0] + x[1:]
        return float(np.vdot(w, gw) - 2.0 * np.vdot(w, xty) + yty + lam * nuclear * nuclear)

    def gradient(gw: np.ndarray) -> np.ndarray:
        g = 2.0 * (gw - xty)
        return np.vstack([np.zeros_like(g[0]) if zero_mean else g.sum(axis=0), g])

    x = np.vstack([mean, offsets])
    gw = gram_products(x)
    value = objective(x, gw, float(np.linalg.svd(offsets, compute_uv=False).sum()))
    info = PriorSolveInfo(round=round_, iterations=0, restarts=0,
                          objective_start=value, objective=value, objectives=[value])
    if lipschitz == 0.0:  # every design is zero: J does not depend on the weights
        return mean, offsets, info
    eta = 1.0 / lipschitz
    c = eta * lam
    tol = SOLVE_TOL * float(np.linalg.norm(gradient(np.zeros_like(gw))))
    x_prev, gw_prev, t = x, gw, 1.0
    for step in range(1, SOLVE_MAX_STEPS + 1):
        info.iterations = step
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        # the products X_t'X_t w are linear, so the extrapolated point's come free
        y = x + beta * (x - x_prev)
        gw_y = gw + beta * (gw - gw_prev)
        z = y - eta * gradient(gw_y)
        offsets, nuclear = _shrink_singular_values(z[1:], c)
        x_new = np.vstack([z[0], offsets])
        gw_new = gram_products(x_new)
        value_new = objective(x_new, gw_new, nuclear)
        if value_new > value:
            if beta == 0.0:
                break  # a plain proximal step cannot lower J at this precision
            info.restarts += 1
            x_prev, gw_prev, t = x, gw, 1.0
            continue
        x_prev, gw_prev, x, gw, value, t = x, gw, x_new, gw_new, value_new, t_next
        info.objectives.append(value)
        if np.linalg.norm(y - x_new) <= tol * eta:
            break
    info.objective = value
    return x[0], x[1:], info


def learn_prior(tasks: Sequence[TaskDataset],
                iterations: int = MAX_PRIOR_ITERATIONS,
                lam: float = DEFAULT_PRIOR_LAMBDA,
                eps_ridge: float = EPS_RIDGE,
                zero_mean: bool = False) -> tuple[GaussianPrior, PriorFitInfo]:
    """Alternate MAP fits and moment updates until Sigma stops moving.

    With `zero_mean` the prior mean is pinned at zero and only the
    feature covariance is learned, for sensitivity checks.  Every
    iterate is validated as a GaussianPrior; the returned info carries
    a decimated residual trajectory.

    A loop still running after SOLVE_AFTER_ROUNDS rounds replaces the next
    round's weights and mean by the minimiser of the convex objective J
    (see `_solve_prior_objective`), warm-started from them, and then
    alternates on from there: plain alternation stalls on rank-deficient
    corpora, and the solve lands next to the fixed point.
    """
    if len(tasks) < 2:
        raise DecoderError("learning a prior needs at least two tasks")
    if iterations < 1:
        raise DecoderError(f"learning a prior needs at least one iteration, got {iterations}")
    dim = tasks[0].X.shape[1]
    for t in tasks:
        if t.X.shape[1] != dim:
            raise DecoderError("all tasks must share the feature dimension")
    # X'X and X'y never change, so every round is one stacked solve over the tasks
    grams = np.stack([t.X.T @ t.X for t in tasks])
    xty = np.stack([t.X.T @ t.y for t in tasks])
    zeros = np.zeros(dim)
    floor = eps_ridge * np.eye(dim)
    mean = zeros
    cov = np.eye(dim)
    info = PriorFitInfo(iterations_run=0, converged=False, residual=np.inf)
    mark = 1
    for it in range(1, iterations + 1):
        A, b = _normal_equations(grams, xty, GaussianPrior(mean, cov), lam)
        weights = _solve(A, b[..., None])[..., 0]
        mean = zeros if zero_mean else weights.mean(axis=0)
        centered = weights - mean
        if it == SOLVE_AFTER_ROUNDS + 1:
            mean, centered, info.solve = _solve_prior_objective(
                grams, xty, float(sum(t.y @ t.y for t in tasks)), mean, centered, lam,
                zero_mean, it)
        moment = centered.T @ centered / len(tasks)
        root, clipped = _psd_sqrt(moment)
        info.clipped_eigenvalues += clipped
        if clipped:
            logger.debug("iteration %d clipped %d negative eigenvalue(s)", it, clipped)
        trace = float(np.trace(root))
        if trace > 0:
            new_cov = root / trace + floor
        else:
            # Degenerate corpus (all weights identical): collapse to the floor.
            new_cov = floor
        info.residual = float(np.linalg.norm(new_cov - cov, ord="fro"))
        cov = new_cov
        info.iterations_run = it
        if it == mark:
            info.trajectory.append((it, info.residual))
            mark *= 10
        if info.residual < PRIOR_CONVERGENCE_TOL:
            info.converged = True
            break
    if info.trajectory[-1][0] != info.iterations_run:
        info.trajectory.append((info.iterations_run, info.residual))
    return GaussianPrior(mean, cov), info


def _loo_predictions(X: np.ndarray, y: np.ndarray, prior: GaussianPrior,
                     lam: float) -> np.ndarray:
    """Every held-out prediction x_i' w_-i from one solve of the full system.

    Dropping trial i is a rank-1 downdate of A (Sherman-Morrison), so for any
    prior mean x_i' w_-i = (yhat_i - h_ii y_i) / (1 - h_ii), h_ii = x_i' inv(A) x_i.
    """
    A, b = _normal_equations(X.T @ X, X.T @ y, prior, lam)
    if lam == 0 and X.shape[0] <= X.shape[1]:
        raise SingularSystemError("unregularized folds have fewer trials than weights")
    sol = _solve(A, np.column_stack([b, X.T]))
    leverage = np.einsum("ij,ji->i", X, sol[:, 1:])
    preds = (X @ sol[:, 0] - leverage * y) / (1.0 - leverage)
    if not np.all(np.isfinite(preds)):
        raise SingularSystemError("a leave-one-out fold is singular")
    return preds


def _correct(preds: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The sign rule: a prediction of exactly zero is never correct."""
    return (np.sign(preds) == np.sign(y)) & (preds != 0)


def _select_lambda(task: TaskDataset, prior: GaussianPrior,
                   grid: Sequence[float]) -> float:
    """Inner leave-one-out accuracy over the grid; ties pick the smaller lambda."""
    if task.n_trials < MIN_GRID_TRIALS or np.unique(np.sign(task.y)).size < 2:
        return DEFAULT_PRIOR_LAMBDA
    accuracies = [np.mean(_correct(_loo_predictions(task.X, task.y, prior, lam), task.y))
                  for lam in grid]
    return float(grid[int(np.argmax(accuracies))])


def loo_accuracy(task: TaskDataset, prior: GaussianPrior,
                 lam: float | None = None,
                 lambda_grid: Sequence[float] = LAMBDA_GRID) -> float:
    """Leave-one-trial-out accuracy with the sign rule; ties are incorrect.

    With lam=None every outer fold picks its own lambda by an inner
    leave-one-out grid search on the training trials.  Outer fold i at
    lambda is entry i of the task's held-out predictions at lambda.
    """
    if np.unique(np.sign(task.y)).size < 2:
        raise DecoderError("accuracy evaluation needs both labels present")
    n = task.n_trials
    fold_lams = [lam] * n if lam is not None else [
        _select_lambda(TaskDataset(np.delete(task.X, i, axis=0), np.delete(task.y, i)),
                       prior, lambda_grid) for i in range(n)]
    table = {fl: _loo_predictions(task.X, task.y, prior, fl) for fl in set(fold_lams)}
    preds = np.array([table[fl][i] for i, fl in enumerate(fold_lams)])
    return float(np.mean(_correct(preds, task.y)))


def pearson(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Pearson r with a two-sided p from the t distribution (n-2 df)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise DecoderError("inputs must be 1-D and equally long")
    n = a.size
    if n < 3:
        raise DecoderError("need at least 3 pairs")
    ac = a - a.mean()
    bc = b - b.mean()
    denom = float(np.sqrt(np.sum(ac ** 2) * np.sum(bc ** 2)))
    if denom == 0.0:
        raise ZeroVarianceError("correlation undefined for constant input")
    r = float(np.clip(np.dot(ac, bc) / denom, -1.0, 1.0))
    if abs(r) == 1.0:
        return r, 0.0
    from scipy.special import stdtr  # imported here: only a p-value needs scipy

    t = r * np.sqrt((n - 2) / (1.0 - r * r))
    p = 2.0 * float(stdtr(n - 2, -abs(t)))
    return r, p


# --- prior serialization --------------------------------------------------

def write_prior(prior: GaussianPrior, info: PriorFitInfo | None = None,
                lambda_grid: Sequence[float] = LAMBDA_GRID) -> bytes:
    """Versioned prior file: JSON header plus float64 mean and covariance.

    Layout: the MYND frame with magic b"MYNP", then the mean (d float64 LE)
    and the covariance (d*d float64 LE, row-major) as its payload.
    """
    header = {
        "dim": prior.dim,
        "feature_order": list(FEATURE_NAMES) + ["bias"],
        "lambda_grid": list(lambda_grid),
        "eps_ridge": EPS_RIDGE,
        "iterations_run": info.iterations_run if info else None,
        "converged": info.converged if info else None,
        "residual": info.residual if info else None,
    }
    return pack_frame(PRIOR_MAGIC, PRIOR_VERSION, header,
                      np.concatenate([prior.mean, prior.cov.ravel()]).astype("<f8").tobytes())


def read_prior(blob: bytes) -> tuple[GaussianPrior, dict]:
    try:
        header, payload = unpack_frame(blob, PRIOR_MAGIC, PRIOR_VERSION)
    except ContainerFormatError as exc:
        raise DecoderError(f"unreadable prior file: {exc}") from exc
    dim = header.get("dim") if isinstance(header, dict) else None
    if type(dim) is not int or dim < 1:
        raise DecoderError(f"prior header needs a positive integer dim, got {dim!r}")
    if len(payload) != (dim + dim * dim) * 8:
        raise DecoderError("prior payload length mismatch")
    values = np.frombuffer(payload, dtype="<f8")
    return GaussianPrior(values[:dim].copy(), values[dim:].reshape(dim, dim).copy()), header


# --- decoding results and mediators ----------------------------------------

@dataclass(frozen=True)
class DecodingResult:
    subject: str
    day: int
    strategy: str
    accuracy: float
    n_trials: int
    mean_quality: float = np.nan
    motivation: float = np.nan
    meditation: float = np.nan


MEDIATOR_COLUMNS = ("mean_quality", "day", "motivation", "meditation")


@dataclass
class MediatorReport:
    """Correlates decoding accuracy with session-level mediators."""

    correlations: dict[str, tuple[float, float] | None] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)
    per_strategy_mean: dict[str, float] = field(default_factory=dict)
    per_day_median: dict[int, float] = field(default_factory=dict)
    n_results: int = 0

    def rows(self) -> list[tuple[str, float, float]]:
        return [(name, rp[0], rp[1]) for name, rp in self.correlations.items()
                if rp is not None]


def mediator_report(results: Sequence[DecodingResult]) -> MediatorReport:
    """Accuracy-vs-mediator correlations plus per-strategy and per-day summaries.

    Mediators without variance (or with missing values) are skipped with
    a note instead of failing the whole report.
    """
    if not results:
        raise DecoderError("results table is empty")
    report = MediatorReport(n_results=len(results))
    acc = np.array([r.accuracy for r in results])
    columns = {
        "mean_quality": np.array([r.mean_quality for r in results]),
        "day": np.array([float(r.day) for r in results]),
        "motivation": np.array([r.motivation for r in results]),
        "meditation": np.array([r.meditation for r in results]),
    }
    for name, values in columns.items():
        ok = np.isfinite(values) & np.isfinite(acc)
        if ok.sum() < 3:
            report.correlations[name] = None
            report.notes[name] = "fewer than 3 usable pairs"
            continue
        try:
            report.correlations[name] = pearson(acc[ok], values[ok])
        except ZeroVarianceError:
            report.correlations[name] = None
            report.notes[name] = "zero variance"
    for s in sorted({r.strategy for r in results}):
        vals = [r.accuracy for r in results if r.strategy == s]
        report.per_strategy_mean[s] = float(np.mean(vals))
    for d in sorted({r.day for r in results}):
        vals = [r.accuracy for r in results if r.day == d]
        report.per_day_median[d] = float(np.median(vals))
    return report


def write_results_table(results: Sequence[DecodingResult], path: str | Path) -> None:
    """Delimited accuracy table, one row per (subject, day, strategy)."""
    write_csv_file(path, ("subject", "day", "strategy", "accuracy", "n_trials",
                          "mean_quality", "motivation", "meditation"),
                   ((r.subject, r.day, r.strategy, r.accuracy, r.n_trials, r.mean_quality,
                     r.motivation, r.meditation)
                    for r in sorted(results, key=lambda r: (r.subject, r.day, r.strategy))))
