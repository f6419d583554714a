"""Transfer-learning decoder: MAP ridge regression under a shared prior.

Each task (one subject/day/strategy) supplies a matrix of normalized
feature vectors, bias-augmented to 17 dimensions, with +/-1 labels.
Decoding weights are the MAP estimate under a Gaussian prior N(mu,
Sigma):

    w = (X'X + lambda * inv(Sigma))^-1 (X'y + lambda * inv(Sigma) mu)

The prior itself is learned from a corpus of laboratory tasks, at lambda = 1,
by alternating (a) MAP fits of every task
under the current prior, one stacked solve over the tasks' precomputed Gram
matrices per round, with (b) moment updates of the prior: mu becomes the mean
weight vector and Sigma the trace-normalized matrix square root of the mean
outer product of the centered weights, floored by a small ridge so it stays
invertible.  The update's fixed point minimises the convex objective
J(mu, V) = sum_t ||X_t (mu + v_t) - y_t||^2 + lambda ||V||_*^2 (Argyriou,
Evgeniou & Pontil, 2008), which plain alternation approaches only
sublinearly on rank-deficient corpora.  So round 1 fits every task under
the identity prior, J is minimised from those weights by FISTA with
adaptive restart, and the alternation runs on from the minimiser until
Sigma moves less than 1e-8, with a cap of 10,000 rounds.

Accuracy is evaluated by leave-one-trial-out cross-validation with the
sign rule; a prediction of exactly zero counts as incorrect.  Each fold
chooses lambda by an inner leave-one-out search over LAMBDA_GRID (0.01, 0.1,
1, 10, 100) on the remaining trials.  Predictions come from closed forms,
never from refits: one solve per task and lambda gives every leave-one-out
(PRESS, a Sherman-Morrison downdate) and every leave-two-out prediction
(Woodbury), so the fold search's solves also give the outer held-out ones.
A learned prior is a MYNP file: the datastore's frame around a float64 payload.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .datastore import ContainerFormatError, pack_frame, read_field, unpack_frame, write_csv_file
from .features import FEATURE_NAMES, has_two_classes

logger = logging.getLogger(__name__)

N_WEIGHTS = len(FEATURE_NAMES) + 1  # 16 features + bias
LAMBDA_GRID = (1e-2, 1e-1, 1.0, 10.0, 1e2)
EPS_RIDGE = 1e-6
MAX_PRIOR_ITERATIONS = 10_000
PRIOR_CONVERGENCE_TOL = 1e-8
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
    """The convex solve that replaced round 1's weights and mean."""

    iterations: int
    restarts: int
    objective_start: float
    objective: float
    # J after the start and after every accepted step: it never rises
    objectives: list[float] = field(default_factory=list, repr=False)

    def summary(self) -> dict:
        return {"iterations": self.iterations,
                "restarts": self.restarts, "objective_start": self.objective_start,
                "objective": self.objective}


@dataclass
class PriorFitInfo:
    iterations_run: int
    converged: bool
    residual: float
    clipped_eigenvalues: int
    # (iteration, residual) at iterations 1, 10, 100, ... and at the last one
    trajectory: list[tuple[int, float]]
    solve: PriorSolveInfo


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
                           mean: np.ndarray, offsets: np.ndarray, lam: float
                           ) -> tuple[np.ndarray, np.ndarray, PriorSolveInfo]:
    """Minimise J(mu, V) = sum_t ||X_t (mu + v_t) - y_t||^2 + lam ||V||_*^2 from (mean, offsets).

    J is the objective whose minimiser the alternation approaches: the moment
    update is the closed-form covariance step of convex multi-task feature
    learning (Argyriou, Evgeniou & Pontil, 2008).  FISTA with step 1/L,
    L = 2(T+1) max_t lambda_max(X_t'X_t), restarts its momentum whenever J
    would rise (O'Donoghue & Candes, 2015) and drops that step, so J never
    rises.  It stops when the gradient mapping falls to SOLVE_TOL times the
    gradient norm at the origin, or after SOLVE_MAX_STEPS steps.  Rows of
    the iterate are mu then v_1..v_T.
    """
    lipschitz = 2.0 * (len(grams) + 1) * float(np.linalg.eigvalsh(grams)[:, -1].max())

    def gram_products(x: np.ndarray) -> np.ndarray:
        return np.einsum("tij,tj->ti", grams, x[0] + x[1:])

    def objective(x: np.ndarray, gw: np.ndarray, nuclear: float) -> float:
        w = x[0] + x[1:]
        return float(np.vdot(w, gw) - 2.0 * np.vdot(w, xty) + yty + lam * nuclear * nuclear)

    def gradient(gw: np.ndarray) -> np.ndarray:
        g = 2.0 * (gw - xty)
        return np.vstack([g.sum(axis=0), g])

    x = np.vstack([mean, offsets])
    gw = gram_products(x)
    value = objective(x, gw, float(np.linalg.svd(offsets, compute_uv=False).sum()))
    info = PriorSolveInfo(iterations=0, restarts=0,
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


def learn_prior(tasks: Sequence[TaskDataset]) -> tuple[GaussianPrior, PriorFitInfo]:
    """Alternate MAP fits and moment updates until Sigma stops moving.

    mu is the mean of the tasks' weights and Sigma the floored moment of
    their offsets from it; every per-task fit weighs the prior at
    DEFAULT_PRIOR_LAMBDA.  Every iterate is validated as a GaussianPrior;
    the returned info carries a decimated residual trajectory.

    Round 1's weights and mean, fitted under the identity prior, are replaced
    by the minimiser of the convex objective J (see `_solve_prior_objective`),
    warm-started from them, and the alternation runs on from there: plain
    alternation stalls on rank-deficient corpora.
    """
    if len(tasks) < 2:
        raise DecoderError("learning a prior needs at least two tasks")
    dim = tasks[0].X.shape[1]
    for t in tasks:
        if t.X.shape[1] != dim:
            raise DecoderError("all tasks must share the feature dimension")
    # X'X and X'y never change, so every round is one stacked solve over the tasks
    grams = np.stack([t.X.T @ t.X for t in tasks])
    xty = np.stack([t.X.T @ t.y for t in tasks])
    floor = EPS_RIDGE * np.eye(dim)
    mean = np.zeros(dim)
    cov = np.eye(dim)
    clipped_total, trajectory, mark = 0, [], 1
    for it in range(1, MAX_PRIOR_ITERATIONS + 1):
        A, b = _normal_equations(grams, xty, GaussianPrior(mean, cov), DEFAULT_PRIOR_LAMBDA)
        weights = _solve(A, b[..., None])[..., 0]
        mean = weights.mean(axis=0)
        centered = weights - mean
        if it == 1:
            mean, centered, solve = _solve_prior_objective(
                grams, xty, float(sum(t.y @ t.y for t in tasks)), mean, centered,
                DEFAULT_PRIOR_LAMBDA)
        moment = centered.T @ centered / len(tasks)
        root, clipped = _psd_sqrt(moment)
        clipped_total += clipped
        if clipped:
            logger.debug("iteration %d clipped %d negative eigenvalue(s)", it, clipped)
        trace = float(np.trace(root))
        if trace > 0:
            new_cov = root / trace + floor
        else:
            # Degenerate corpus (all weights identical): collapse to the floor.
            new_cov = floor
        residual = float(np.linalg.norm(new_cov - cov, ord="fro"))
        cov = new_cov
        if it == mark:
            trajectory.append((it, residual))
            mark *= 10
        if residual < PRIOR_CONVERGENCE_TOL:
            break
    if trajectory[-1][0] != it:
        trajectory.append((it, residual))
    return GaussianPrior(mean, cov), PriorFitInfo(
        it, residual < PRIOR_CONVERGENCE_TOL, residual, clipped_total, trajectory, solve)


def _press(X: np.ndarray, y: np.ndarray, sol: np.ndarray) -> np.ndarray:
    """Every held-out prediction x_i' w_-i from the full system's solve [w, inv(A) X'].

    Dropping trial i is a rank-1 downdate of A (Sherman-Morrison), so for any
    prior mean x_i' w_-i = (yhat_i - h_ii y_i) / (1 - h_ii), h_ii = x_i' inv(A) x_i.
    """
    leverage = np.einsum("ij,ji->i", X, sol[:, 1:])
    preds = (X @ sol[:, 0] - leverage * y) / (1.0 - leverage)
    if not np.all(np.isfinite(preds)):
        raise SingularSystemError("a leave-one-out fold is singular")
    return preds


def _correct(preds: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The sign rule: a prediction of exactly zero is never correct."""
    return (np.sign(preds) == np.sign(y)) & (preds != 0)


def _fold_lambdas(task: TaskDataset, prior: GaussianPrior
                  ) -> tuple[list[float], dict[float, np.ndarray]]:
    """Each outer fold's lambda by inner leave-one-out accuracy; ties pick the smaller.

    Fold i scores a lambda by how many of its trials j are predicted correctly
    without trials i and j.  With H = X inv(A) X' and e = y - X inv(A) b, a 2x2
    Woodbury downdate gives that prediction for any prior mean (Belsley, Kuh &
    Welsch, 1980), so one solve per lambda serves every fold:
    p_ij = y_j - (h_ij e_i + (1 - h_ii) e_j) / ((1 - h_ii)(1 - h_jj) - h_ij^2).
    A fold with fewer than MIN_GRID_TRIALS others, or one sign, takes the default.
    Each solve also gives the task's held-out predictions (`_press`), returned
    by lambda: for every lambda of LAMBDA_GRID when any fold searches, else for
    the default alone.
    """
    X, y, n = task.X, task.y, task.n_trials
    _, sign_of, sign_counts = np.unique(np.sign(y), return_inverse=True, return_counts=True)
    searched = (n - 1 >= MIN_GRID_TRIALS) & (sign_counts.size - (sign_counts[sign_of] == 1) > 1)
    fold_lams = np.full(n, DEFAULT_PRIOR_LAMBDA)
    lams = LAMBDA_GRID if searched.any() else (DEFAULT_PRIOR_LAMBDA,)
    others = ~np.eye(n, dtype=bool)[searched]
    scores, held_out = [], {}
    for lam in lams:
        A, b = _normal_equations(X.T @ X, X.T @ y, prior, lam)
        sol = _solve(A, np.column_stack([b, X.T]))
        H, e = X @ sol[:, 1:], y - X @ sol[:, 0]
        r = 1.0 - np.diag(H)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            preds = (y - (H * e[:, None] + np.outer(r, e)) / (np.outer(r, r) - H * H))[searched]
        if not np.all(np.isfinite(preds[others])):
            raise SingularSystemError("a leave-two-out fold is singular")
        scores.append(np.count_nonzero(_correct(preds, y) & others, axis=1))
        held_out[lam] = _press(X, y, sol)
    fold_lams[searched] = np.array(lams, dtype=np.float64)[np.argmax(scores, axis=0)]
    return fold_lams.tolist(), held_out


def loo_accuracy(task: TaskDataset, prior: GaussianPrior) -> float:
    """Leave-one-trial-out accuracy with the sign rule; ties are incorrect.

    Every outer fold picks its own lambda by an inner leave-one-out search on
    the training trials (`_fold_lambdas`); outer fold i at lambda is entry i of
    the task's held-out predictions at lambda, from that search's solves.
    """
    if not has_two_classes(np.sign(task.y)):
        raise DecoderError("accuracy evaluation needs both labels present")
    fold_lams, table = _fold_lambdas(task, prior)
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

def write_prior(prior: GaussianPrior, info: PriorFitInfo | None = None) -> bytes:
    """Versioned prior file: JSON header plus float64 mean and covariance.

    Layout: the MYND frame with magic b"MYNP", then the mean (d float64 LE)
    and the covariance (d*d float64 LE, row-major) as its payload.
    """
    header = {
        "dim": prior.dim,
        "feature_order": list(FEATURE_NAMES) + ["bias"],
        "lambda_grid": list(LAMBDA_GRID),
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
    dim = read_field(header if isinstance(header, dict) else {}, "dim", "int", DecoderError, 1)
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


def mediator_report(results: Sequence[DecodingResult]) -> MediatorReport:
    """Pearson correlation of accuracy with each of MEDIATOR_COLUMNS, keyed by name.

    Mediators without variance (or with fewer than 3 finite pairs) get None
    and a note instead of failing the whole report.
    """
    if not results:
        raise DecoderError("results table is empty")
    report = MediatorReport()
    acc = np.array([r.accuracy for r in results])
    for name in MEDIATOR_COLUMNS:
        values = np.array([float(getattr(r, name)) for r in results])
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
    return report


def write_results_table(results: Sequence[DecodingResult], path: str | Path) -> None:
    """Delimited accuracy table, one row per (subject, day, strategy)."""
    write_csv_file(path, ("subject", "day", "strategy", "accuracy", "n_trials",
                          "mean_quality", "motivation", "meditation"),
                   ((r.subject, r.day, r.strategy, r.accuracy, r.n_trials, r.mean_quality,
                     r.motivation, r.meditation)
                    for r in sorted(results, key=lambda r: (r.subject, r.day, r.strategy))))
