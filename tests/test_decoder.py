from __future__ import annotations

import json
import logging
import struct
import warnings
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mindkit import decoder as dec
from mindkit import simkit
from mindkit.decoder import (DEFAULT_PRIOR_LAMBDA, EPS_RIDGE, LAMBDA_GRID,
                             MIN_GRID_TRIALS, PRIOR_CONVERGENCE_TOL,
                             DecoderError, GaussianPrior, PriorFitInfo, TaskDataset,
                             _psd_sqrt, fit_map)


def random_task(rng: np.random.Generator, n: int = 24, dim: int = 17,
                informative: bool = True) -> dec.TaskDataset:
    X = rng.normal(0.0, 1.0, (n, dim - 1))
    y = np.repeat([1.0, -1.0], n // 2)
    rng.shuffle(y)
    if informative:
        X[:, 0] += 1.5 * y
    return dec.TaskDataset(dec.augment_bias(X), y, subject="r")


# --- task container -------------------------------------------------------------

def test_task_dataset_alignment_checked():
    with pytest.raises(dec.DecoderError):
        dec.TaskDataset(np.zeros((4, 17)), np.zeros(3))
    task = dec.TaskDataset(np.zeros((4, 17)), np.array([1.0, -1.0, 1.0, -1.0]))
    assert task.n_trials == 4


def test_augment_bias_appends_ones():
    X = np.arange(6.0).reshape(2, 3)
    out = dec.augment_bias(X)
    assert out.shape == (2, 4)
    assert np.array_equal(out[:, 3], np.ones(2))
    assert np.array_equal(out[:, :3], X)


# --- prior container --------------------------------------------------------------

def test_prior_validation():
    with pytest.raises(dec.DecoderError):
        dec.GaussianPrior(np.zeros(3), np.eye(2))
    asym = np.eye(3)
    asym[0, 1] = 0.5
    with pytest.raises(dec.DecoderError):
        dec.GaussianPrior(np.zeros(3), asym)
    with pytest.raises(dec.DecoderError):
        dec.GaussianPrior(np.zeros(2), np.diag([1.0, -0.5]))


def _with(array: np.ndarray, index: tuple, value: float) -> np.ndarray:
    array = array.copy()
    array[index] = value
    return array


@pytest.mark.parametrize("mean, cov", [
    (_with(np.zeros(3), (1,), np.nan), np.eye(3)),
    (_with(np.zeros(3), (0,), -np.inf), np.eye(3)),
    (np.zeros(3), _with(np.eye(3), (0, 0), np.inf)),
    (np.zeros(3), _with(_with(np.eye(3), (0, 2), np.nan), (2, 0), np.nan)),
    (np.zeros(2), np.full((2, 2), np.inf)),
], ids=["nan-mean", "inf-mean", "inf-diagonal", "nan-off-diagonal", "all-inf"])
def test_prior_rejects_non_finite_mean_and_covariance(mean, cov):
    with pytest.raises(dec.DecoderError, match="finite"):
        dec.GaussianPrior(mean, cov)


def test_prior_rejects_empty_dimension():
    with pytest.raises(dec.DecoderError, match="at least one dimension"):
        dec.GaussianPrior(np.zeros(0), np.zeros((0, 0)))


def _symmetry_accepted(cov: np.ndarray) -> bool:
    try:
        dec.GaussianPrior(np.zeros(cov.shape[0]), cov)
    except dec.DecoderError as exc:
        if "symmetric" in str(exc):
            return False
        assert "positive definite" in str(exc)
    return True


def test_prior_symmetry_check_decides_as_allclose():
    """On finite matrices the constructor's symmetry check decides as np.allclose(cov,
    cov.T, atol=1e-10).  Entries span 1e-200 to 1e200 (the rtol term rules), 1e-8 to
    1e-3 (both terms count), or lie below 1e-12 (the atol term rules).  One to four
    mirrored entries are moved onto the limit, a few ulps either side of it, or at
    random, or kept as exact mirrors; thousands of the matrices hold an entry exactly
    on the limit or within a few ulps of it."""
    n, moves = 20_000, 4
    rng = np.random.default_rng(2026)
    dims = rng.integers(2, 7, n)
    exponents = np.array([(-100, 100), (-4, -1.5), (-100, -6)])[np.arange(n) % 3]
    scales = 10.0 ** rng.uniform(exponents[:, :1], exponents[:, 1:], (n, 6))
    normals = rng.normal(size=(n, 6, 6))
    n_moves = rng.integers(1, moves + 1, n)
    rows, offsets = rng.integers(0, 6, (n, moves)), rng.integers(1, 6, (n, moves))
    kinds, ulps = rng.integers(0, 5, (n, moves)), rng.integers(-4, 5, (n, moves))
    signs = rng.choice([-1.0, 1.0], (n, moves))
    factors = rng.uniform(-2.0, 2.0, (n, moves))
    steps = rng.integers(-2, 3, (n, moves))  # ulps to walk after the move
    decided = {True: 0, False: 0}
    for c in range(n):
        d = dims[c]
        cov = normals[c, :d, :d] * np.outer(scales[c, :d], scales[c, :d])
        cov = np.triu(cov) + np.triu(cov, 1).T
        for m in range(n_moves[c]):
            i = rows[c, m] % d
            j = (i + offsets[c, m] % (d - 1) + 1) % d
            x = cov[i, j]
            limit = 1e-10 + 1e-5 * abs(x)
            y = [x,  # exact mirror
                 x + signs[c, m] * limit,  # on the limit, as rounded
                 x + limit * (1.0 + ulps[c, m] * 2.0 ** -52),
                 x - limit * (1.0 + ulps[c, m] * 2.0 ** -52),
                 x + limit * factors[c, m]][kinds[c, m]]
            for _ in range(abs(steps[c, m])):
                y = np.nextafter(y, steps[c, m] * np.inf)
            cov[j, i] = y
        want = bool(np.allclose(cov, cov.T, atol=1e-10))
        assert _symmetry_accepted(cov) == want, cov
        decided[want] += 1
    assert min(decided.values()) > 4_000, decided


def test_prior_symmetry_check_overflowing_difference():
    cov = np.eye(2)
    cov[0, 1], cov[1, 0] = 1.5e308, -1.5e308  # cov - cov.T overflows to inf
    with np.errstate(over="ignore"):
        assert not np.allclose(cov, cov.T, atol=1e-10)
        assert not _symmetry_accepted(cov)


def test_uninformative_prior():
    prior = dec.GaussianPrior.uninformative()
    assert prior.dim == 17
    assert np.array_equal(prior.mean, np.zeros(17))
    assert np.array_equal(prior.cov, np.eye(17))
    assert np.array_equal(prior.precision, np.eye(17))


# --- MAP estimation ----------------------------------------------------------------

def test_fit_map_matches_ridge():
    rng = np.random.default_rng(0)
    X = rng.normal(0, 1, (40, 17))
    y = rng.normal(0, 1, 40)
    prior = dec.GaussianPrior.uninformative()
    for lam in (1e-2, 1.0, 50.0):
        w = dec.fit_map(X, y, prior, lam)
        direct = np.linalg.solve(X.T @ X + lam * np.eye(17), X.T @ y)
        rel = np.linalg.norm(w - direct) / np.linalg.norm(direct)
        assert rel <= 1e-8


def test_fit_map_prior_dominated_limit():
    rng = np.random.default_rng(1)
    X = rng.normal(0, 1, (30, 17))
    y = rng.normal(0, 1, 30)
    mu = rng.normal(0, 1, 17)
    prior = dec.GaussianPrior(mu, np.eye(17))
    w = dec.fit_map(X, y, prior, 1e8)
    assert np.linalg.norm(w - mu) / np.linalg.norm(mu) <= 1e-4


def test_fit_map_unregularized_square_system():
    rng = np.random.default_rng(2)
    X = rng.normal(0, 1, (17, 17))
    y = rng.normal(0, 1, 17)
    w = dec.fit_map(X, y, dec.GaussianPrior.uninformative(), 0.0)
    assert np.allclose(w, np.linalg.solve(X, y), atol=1e-8)


def test_fit_map_satisfies_normal_equations():
    rng = np.random.default_rng(3)
    for _ in range(5):
        X = rng.normal(0, 1, (25, 17))
        y = rng.normal(0, 1, 25)
        mu = rng.normal(0, 0.5, 17)
        cov = np.eye(17) * rng.uniform(0.5, 2.0)
        prior = dec.GaussianPrior(mu, cov)
        lam = float(rng.uniform(0.1, 10.0))
        w = dec.fit_map(X, y, prior, lam)
        lhs = (X.T @ X + lam * prior.precision) @ w
        rhs = X.T @ y + lam * prior.precision @ mu
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) <= 1e-8


def test_fit_map_rejects_negative_lambda_and_bad_shape():
    prior = dec.GaussianPrior.uninformative()
    with pytest.raises(dec.DecoderError):
        dec.fit_map(np.zeros((4, 17)), np.zeros(4), prior, -1.0)
    with pytest.raises(dec.DecoderError):
        dec.fit_map(np.zeros((4, 5)), np.zeros(4), prior, 1.0)


def test_fit_map_singular_unregularized():
    X = np.zeros((4, 17))
    y = np.zeros(4)
    with pytest.raises(dec.SingularSystemError):
        dec.fit_map(X, y, dec.GaussianPrior.uninformative(), 0.0)


# --- prior learning ----------------------------------------------------------------

def test_learn_prior_duplicate_tasks_collapse():
    base = simkit.gen_task_dataset(simkit.strong_profile(3), ("memory", "subtraction"),
                                   20, "s0", seed=5)
    dup = [dec.TaskDataset(base.X, base.y, subject=f"s{i}") for i in range(4)]
    prior, info = dec.learn_prior(dup)
    assert info.converged
    # the solve leaves offsets at rounding level: Sigma takes their direction at
    # round 1, collapses to the floor at round 2 and stops moving at round 3
    assert info.iterations_run == 3
    assert info.residual == 0.0
    assert np.array_equal(prior.cov, dec.EPS_RIDGE * np.eye(17))
    # J's minimiser over identical tasks has no offsets and a least-squares mean
    X, y = base.X, base.y
    assert np.linalg.norm(X.T @ (X @ prior.mean - y)) <= 1e-6 * np.linalg.norm(X.T @ y)


def test_learn_prior_mirrored_labels_give_a_zero_mean():
    base = simkit.gen_task_dataset(simkit.strong_profile(3), ("memory", "subtraction"),
                                   20, "s0", seed=5)
    mirrored = [base, dec.TaskDataset(base.X, -base.y, subject="s1")]
    prior, info = dec.learn_prior(mirrored)
    assert np.abs(prior.mean).max() == 0.0
    assert info.converged


def test_learn_prior_recovers_generative_mean():
    rng = np.random.default_rng(2024)
    true_mu = rng.normal(0.0, 1.0, 17)
    tasks = []
    for s in range(20):
        w = true_mu + rng.normal(0.0, 0.15, 17)
        X = dec.augment_bias(rng.normal(0.0, 1.0, (200, 16)))
        y = X @ w + rng.normal(0.0, 0.5, 200)
        tasks.append(dec.TaskDataset(X, y, subject=f"g{s:02d}"))
    prior, _ = dec.learn_prior(tasks)
    assert np.abs(prior.mean - true_mu).max() < 0.1


def test_learn_prior_covariance_invariants():
    rng = np.random.default_rng(7)
    tasks = [random_task(rng) for _ in range(6)]
    prior, info = dec.learn_prior(tasks)
    cov = prior.cov
    assert np.allclose(cov, cov.T, atol=1e-12)
    assert np.linalg.eigvalsh(cov).min() >= 0.5 * dec.EPS_RIDGE
    # trace normalization: trace(Sigma - eps I) == 1 after each update
    assert np.trace(cov) - 17 * dec.EPS_RIDGE == pytest.approx(1.0, abs=1e-9)


def test_learn_prior_needs_two_tasks():
    with pytest.raises(dec.DecoderError):
        dec.learn_prior([])
    with pytest.raises(dec.DecoderError):
        dec.learn_prior([random_task(np.random.default_rng(0))])


def test_learn_prior_converges_on_lab_corpus():
    corpus = simkit.gen_lab_corpus(11, 40, seed=101)
    _, info = dec.learn_prior(corpus)
    assert info.converged
    assert info.residual < 1e-8


# --- stacked prior fit against the per-task loop -------------------------------------------
# The per-task `fit_map` loop that the stacked solve replaced, kept as an oracle
# with the convex solve at round 1 added: `learn_prior` below is the reference,
# `dec.learn_prior` the implementation under test.  Both stop at
# `dec.MAX_PRIOR_ITERATIONS`, so a test caps them by setting it.

logger = logging.getLogger(__name__)


def learn_prior(tasks: Sequence[TaskDataset],
                lam: float = DEFAULT_PRIOR_LAMBDA,
                eps_ridge: float = EPS_RIDGE,
                tol: float = PRIOR_CONVERGENCE_TOL) -> tuple[GaussianPrior, PriorFitInfo]:
    """Alternate MAP fits and moment updates until Sigma stops moving."""
    if len(tasks) < 2:
        raise DecoderError("learning a prior needs at least two tasks")
    dim = tasks[0].X.shape[1]
    for t in tasks:
        if t.X.shape[1] != dim:
            raise DecoderError("all tasks must share the feature dimension")
    mean = np.zeros(dim)
    cov = np.eye(dim)
    info = PriorFitInfo(iterations_run=0, converged=False, residual=np.inf,
                        clipped_eigenvalues=0, trajectory=[], solve=None)
    for it in range(1, dec.MAX_PRIOR_ITERATIONS + 1):
        prior = GaussianPrior(mean, cov)
        weights = np.stack([fit_map(t.X, t.y, prior, lam) for t in tasks])
        mean = weights.mean(axis=0)
        centered = weights - mean
        if it == 1:
            mean, centered, info.solve = dec._solve_prior_objective(
                np.stack([t.X.T @ t.X for t in tasks]), np.stack([t.X.T @ t.y for t in tasks]),
                float(sum(t.y @ t.y for t in tasks)), mean, centered, lam)
        moment = centered.T @ centered / len(tasks)
        root, clipped = _psd_sqrt(moment)
        info.clipped_eigenvalues += clipped
        if clipped:
            logger.debug("iteration %d clipped %d negative eigenvalue(s)", it, clipped)
        trace = float(np.trace(root))
        if trace > 0:
            new_cov = root / trace + eps_ridge * np.eye(dim)
        else:
            # Degenerate corpus (all weights identical): collapse to the floor.
            new_cov = eps_ridge * np.eye(dim)
        info.residual = float(np.linalg.norm(new_cov - cov, ord="fro"))
        cov = new_cov
        info.iterations_run = it
        if info.residual < tol:
            info.converged = True
            break
    return GaussianPrior(mean, cov), info


def assert_same_fit(tasks: Sequence[TaskDataset]) -> dec.PriorFitInfo:
    """The stacked fit equals the per-task loop bit for bit, file bytes included."""
    want_prior, want = learn_prior(tasks)
    prior, info = dec.learn_prior(tasks)
    assert np.array_equal(prior.mean, want_prior.mean)
    assert np.array_equal(prior.cov, want_prior.cov)
    assert (info.residual, info.iterations_run, info.converged, info.clipped_eigenvalues) \
        == (want.residual, want.iterations_run, want.converged, want.clipped_eigenvalues)
    assert dec.write_prior(prior, info) == dec.write_prior(want_prior, want)
    return info


@pytest.fixture(scope="module")
def lab_corpora() -> dict[int, list[TaskDataset]]:
    return {seed: simkit.gen_lab_corpus(11, 20, seed=seed) for seed in (0, 1, 5, 31)}


@pytest.mark.parametrize("seed", [0, 5, 31])
def test_learn_prior_matches_per_task_loop_on_lab_corpora(monkeypatch, lab_corpora, seed):
    monkeypatch.setattr(dec, "MAX_PRIOR_ITERATIONS", 150)
    info = assert_same_fit(lab_corpora[seed])
    assert info.solve.iterations > 0 and info.converged and info.clipped_eigenvalues > 0


def test_learn_prior_matches_per_task_loop_unequal_trial_counts(monkeypatch):
    monkeypatch.setattr(dec, "MAX_PRIOR_ITERATIONS", 200)
    rng = np.random.default_rng(41)
    tasks = [random_task(rng, n=n) for n in (6, 12, 24, 40, 18, 90)]
    assert_same_fit(tasks)


def test_learn_prior_matches_per_task_loop_two_tasks(monkeypatch):
    monkeypatch.setattr(dec, "MAX_PRIOR_ITERATIONS", 200)
    rng = np.random.default_rng(42)
    assert_same_fit([random_task(rng, n=30), random_task(rng, n=12)])


def test_learn_prior_matches_per_task_loop_on_fixtures():
    base = simkit.gen_task_dataset(simkit.strong_profile(3), ("memory", "subtraction"),
                                   20, "s0", seed=5)
    dup = [dec.TaskDataset(base.X, base.y, subject=f"s{i}") for i in range(4)]
    assert assert_same_fit(dup).residual == 0.0  # the trace <= 0 collapse
    mirrored = [base, dec.TaskDataset(base.X, -base.y, subject="s1")]
    assert assert_same_fit(mirrored).converged


def test_learn_prior_makes_no_per_task_fit(monkeypatch, lab_corpora):
    def refuse(*args):
        raise AssertionError("learn_prior called fit_map")

    monkeypatch.setattr(dec, "MAX_PRIOR_ITERATIONS", 20)
    want_prior, want = learn_prior(lab_corpora[0])
    monkeypatch.setattr(dec, "fit_map", refuse)
    prior, info = dec.learn_prior(lab_corpora[0])
    assert dec.write_prior(prior, info) == dec.write_prior(want_prior, want)


def test_learn_prior_validates_every_iterate(monkeypatch):
    built = []

    class Counting(dec.GaussianPrior):
        def __init__(self, mean, cov):
            built.append(1)
            super().__init__(mean, cov)

    monkeypatch.setattr(dec, "GaussianPrior", Counting)
    monkeypatch.setattr(dec, "MAX_PRIOR_ITERATIONS", 5)  # the fit runs 6 rounds uncapped
    rng = np.random.default_rng(43)
    _, info = dec.learn_prior([random_task(rng) for _ in range(3)])
    assert info.iterations_run == 5
    assert len(built) == 5 + 1  # one per iterate, one for the result


def test_learn_prior_iterate_validation_fires(monkeypatch):
    # with no ridge floor the collapsed covariance is not positive definite
    base = random_task(np.random.default_rng(44))
    dup = [dec.TaskDataset(base.X, base.y, subject=f"s{i}") for i in range(3)]
    with pytest.raises(dec.DecoderError, match="positive definite"):
        learn_prior(dup, eps_ridge=0.0)
    monkeypatch.setattr(dec, "EPS_RIDGE", 0.0)  # the floor is a constant, not an argument
    with pytest.raises(dec.DecoderError, match="positive definite"):
        dec.learn_prior(dup)


@pytest.mark.parametrize("bad", [np.inf], ids=["infinite-entry"])
def test_learn_prior_singular_system_raises(bad):
    rng = np.random.default_rng(45)
    tasks = [random_task(rng) for _ in range(3)]
    X = tasks[1].X.copy()
    X[:, 3] = 0.0
    X[0, 3] = bad
    tasks[1] = dec.TaskDataset(X, tasks[1].y)
    with pytest.raises(dec.SingularSystemError):
        learn_prior(tasks)
    with pytest.raises(dec.SingularSystemError):
        dec.learn_prior(tasks)


def test_learn_prior_dimension_mismatch_raises():
    rng = np.random.default_rng(46)
    tasks = [random_task(rng), random_task(rng, dim=9)]
    with pytest.raises(dec.DecoderError, match="feature dimension"):
        dec.learn_prior(tasks)


def test_learn_prior_residual_trajectory(monkeypatch, lab_corpora):
    tasks = lab_corpora[1]
    _, info = dec.learn_prior(tasks)
    assert [it for it, _ in info.trajectory] == [1, 10, 100, 201]
    for it, residual in info.trajectory:
        monkeypatch.setattr(dec, "MAX_PRIOR_ITERATIONS", it)
        assert dec.learn_prior(tasks)[1].residual == residual
    assert info.trajectory[-1] == (info.iterations_run, info.residual)
    monkeypatch.setattr(dec, "MAX_PRIOR_ITERATIONS", 100)
    _, info = dec.learn_prior(tasks)
    assert [it for it, _ in info.trajectory] == [1, 10, 100]
    base = simkit.gen_task_dataset(simkit.strong_profile(3), ("memory", "subtraction"),
                                   20, "s0", seed=5)
    dup = [dec.TaskDataset(base.X, base.y, subject=f"s{i}") for i in range(4)]
    _, info = dec.learn_prior(dup)  # converges at iteration 3
    assert [it for it, _ in info.trajectory] == [1, 3]
    assert info.trajectory[-1] == (3, 0.0)


# --- lambda selection and LOO evaluation ----------------------------------------------

def lambda_tie_task() -> dec.TaskDataset:
    """Duplicate separable data: every lambda classifies every inner fold perfectly."""
    X = dec.augment_bias(np.vstack([np.eye(2)[0] * 5, -np.eye(2)[0] * 5] * 3
                                   ).repeat(8, axis=1)[:, :16])
    return dec.TaskDataset(X, np.array([1.0, -1.0] * 3))


def test_select_lambda_tie_prefers_smaller():
    task, prior = lambda_tie_task(), dec.GaussianPrior.uninformative()
    assert dec._fold_lambdas(task, prior)[0] == [min(LAMBDA_GRID)] * task.n_trials


def test_select_lambda_degenerate_guards():
    prior = dec.GaussianPrior.uninformative()
    rng = np.random.default_rng(9)
    # fewer than three other trials, or a single class: no fold searches, and
    # only the default is solved
    tiny = dec.TaskDataset(rng.normal(0, 1, (3, 17)), np.array([1.0, -1.0, 1.0]))
    flat = dec.TaskDataset(rng.normal(0, 1, (6, 17)), np.ones(6))
    for task in (tiny, flat):
        lams, held_out = dec._fold_lambdas(task, prior)
        assert lams == [DEFAULT_PRIOR_LAMBDA] * task.n_trials
        assert list(held_out) == [DEFAULT_PRIOR_LAMBDA]
    # one trial of one class: only the fold that holds it out sees one sign
    lone = dec.TaskDataset(lambda_tie_task().X, np.array([-1.0] + [1.0] * 5))
    lams, held_out = dec._fold_lambdas(lone, prior)
    assert lams[0] == DEFAULT_PRIOR_LAMBDA and set(lams[1:]) <= set(LAMBDA_GRID)
    assert list(held_out) == list(LAMBDA_GRID)


def test_loo_separable_task_is_perfect():
    rng = np.random.default_rng(7)
    y = np.array([1.0, -1.0] * 9)
    X = rng.normal(0.0, 0.3, (18, 16))
    X[:, 0] += 3.0 * y
    task = dec.TaskDataset(dec.augment_bias(X), y, subject="sep")
    assert dec.loo_accuracy(task, dec.GaussianPrior.uninformative()) == 1.0


def test_loo_chance_level_aggregate():
    # 20 label-shuffled tasks x 50 trials = 1000 LOO decisions
    rng = np.random.default_rng(99)
    prior = dec.GaussianPrior.uninformative()
    correct = 0.0
    for s in range(20):
        X = rng.normal(0.0, 1.0, (50, 16))
        y = np.repeat([1.0, -1.0], 25)
        rng.shuffle(y)
        task = dec.TaskDataset(dec.augment_bias(X), y, subject=f"c{s}")
        correct += dec.loo_accuracy(task, prior) * 50
    assert correct / 1000 == pytest.approx(0.5, abs=0.05)


def test_loo_degenerate_tie_counts_incorrect():
    # identical feature vectors, one trial per class: the held-out trial is
    # always predicted from the opposite-label twin, never correctly
    X = np.ones((2, 17))
    y = np.array([1.0, -1.0])
    task = dec.TaskDataset(X, y)
    assert dec.loo_accuracy(task, dec.GaussianPrior.uninformative()) == 0.0


def test_loo_single_class_rejected():
    task = dec.TaskDataset(np.random.default_rng(0).normal(0, 1, (6, 17)),
                           np.ones(6))
    with pytest.raises(dec.DecoderError):
        dec.loo_accuracy(task, dec.GaussianPrior.uninformative())


def test_loo_permutation_invariance():
    rng = np.random.default_rng(10)
    task = random_task(rng, n=12)
    prior = dec.GaussianPrior.uninformative()
    base = dec.loo_accuracy(task, prior)
    perm = rng.permutation(12)
    shuffled = dec.TaskDataset(task.X[perm], task.y[perm])
    assert dec.loo_accuracy(shuffled, prior) == base


def test_loo_scaling_invariance_with_matched_lambda():
    # features scaled by c = 10 and lambda by c^2 = 100 predict the same: the
    # grid pairs 0.01 with 1, 0.1 with 10 and 1 with 100
    rng = np.random.default_rng(11)
    task = random_task(rng, n=10)
    prior = dec.GaussianPrior.uninformative()
    c = 10.0
    held_out = dec._fold_lambdas(task, prior)[1]
    scaled = dec._fold_lambdas(dec.TaskDataset(c * task.X, task.y), prior)[1]
    for lam in LAMBDA_GRID[:3]:
        assert np.allclose(held_out[lam], scaled[lam * c * c], rtol=1e-9, atol=0.0)
        assert np.array_equal(dec._correct(held_out[lam], task.y),
                              dec._correct(scaled[lam * c * c], task.y))


# --- brute-force leave-one-out reference ------------------------------------------------
# The refit-per-fold implementation that the closed form replaced, kept verbatim
# as an oracle: `loo_accuracy` below is the reference, `dec.loo_accuracy` the
# implementation under test.

def _loo_predictions(task: TaskDataset, prior: GaussianPrior, lam: float) -> np.ndarray:
    preds = np.empty(task.n_trials)
    for i in range(task.n_trials):
        keep = np.arange(task.n_trials) != i
        w = fit_map(task.X[keep], task.y[keep], prior, lam)
        preds[i] = task.X[i] @ w
    return preds


def _select_lambda(task: TaskDataset, prior: GaussianPrior,
                   grid: Sequence[float]) -> float:
    """Inner leave-one-out accuracy over the grid; ties pick the smaller lambda."""
    if task.n_trials < MIN_GRID_TRIALS or np.unique(np.sign(task.y)).size < 2:
        return DEFAULT_PRIOR_LAMBDA
    best_lam = grid[0]
    best_acc = -1.0
    for lam in grid:
        preds = _loo_predictions(task, prior, lam)
        acc = float(np.mean((np.sign(preds) == np.sign(task.y)) & (preds != 0)))
        if acc > best_acc:
            best_acc = acc
            best_lam = lam
    return float(best_lam)


def loo_accuracy(task: TaskDataset, prior: GaussianPrior,
                 lam: float | None = None,
                 lambda_grid: Sequence[float] = LAMBDA_GRID) -> float:
    """Leave-one-trial-out accuracy with the sign rule; ties are incorrect.

    With lam=None every outer fold picks its own lambda by an inner
    leave-one-out grid search on the training trials.
    """
    labels = np.sign(task.y)
    if np.unique(labels).size < 2:
        raise DecoderError("accuracy evaluation needs both labels present")
    correct = 0
    for i in range(task.n_trials):
        keep = np.arange(task.n_trials) != i
        train = TaskDataset(task.X[keep], task.y[keep], task.subject,
                            task.day, task.strategy)
        fold_lam = lam if lam is not None else _select_lambda(train, prior, lambda_grid)
        w = fit_map(train.X, train.y, prior, fold_lam)
        pred = float(task.X[i] @ w)
        if pred != 0.0 and np.sign(pred) == labels[i]:
            correct += 1
    return correct / task.n_trials


def oracle_task(rng: np.random.Generator) -> dec.TaskDataset:
    """3 to 40 trials, both classes, signal strength anywhere from none to clear."""
    n = int(rng.integers(3, 41))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    y[:2] = (1.0, -1.0)
    X = rng.normal(0.0, 1.0, (n, 16))
    X[:, 0] += rng.uniform(0.0, 1.5) * y
    return dec.TaskDataset(dec.augment_bias(X), y)


def oracle_priors() -> tuple[dec.GaussianPrior, dec.GaussianPrior]:
    """The uninformative prior and a correlated one with a nonzero mean."""
    rng = np.random.default_rng(2002)
    root = rng.normal(0.0, 1.0, (17, 17))
    return (dec.GaussianPrior.uninformative(),
            dec.GaussianPrior(rng.normal(0.0, 0.5, 17), root @ root.T / 17 + 0.1 * np.eye(17)))


def assert_held_out_match_brute_force(task: TaskDataset, prior: GaussianPrior) -> list[float]:
    """`_fold_lambdas`' held-out predictions score as the refits do, at every
    lambda they hold; returns those lambdas."""
    held_out = dec._fold_lambdas(task, prior)[1]
    for lam, preds in held_out.items():
        assert np.mean(dec._correct(preds, task.y)) == loo_accuracy(task, prior, lam=lam), lam
    return list(held_out)


def test_loo_matches_brute_force_at_fixed_lambda():
    rng = np.random.default_rng(31)
    priors = oracle_priors()
    sizes = set()
    for k in range(2000):
        task = oracle_task(rng)
        sizes.add(task.n_trials)
        for prior in priors:
            lams = assert_held_out_match_brute_force(task, prior)
            assert lams == (list(LAMBDA_GRID) if task.n_trials > MIN_GRID_TRIALS
                            else [DEFAULT_PRIOR_LAMBDA]), k
    assert sizes == set(range(3, 41))


@pytest.mark.parametrize("seed", range(2))
def test_loo_matches_brute_force_with_nested_lambda(seed):
    # 15 tasks per seed: the nested brute force costs ~0.15 s per task and prior
    rng = np.random.default_rng([seed, 37])
    priors = oracle_priors()
    for k in range(15):
        task = oracle_task(rng)
        for prior in priors:
            assert dec.loo_accuracy(task, prior) == loo_accuracy(task, prior), (k, task.n_trials)


@pytest.mark.parametrize("seed", range(2))
def test_fold_lambdas_match_brute_force_per_fold(seed):
    # every third task holds a single trial of one class, whose fold takes the default
    rng = np.random.default_rng([seed, 41])
    priors = oracle_priors()
    for k in range(12):
        task = oracle_task(rng)
        if k % 3 == 0:
            y = np.ones(task.n_trials)
            y[rng.integers(task.n_trials)] = -1.0
            task = dec.TaskDataset(task.X, y)
        for prior in priors:
            got = dec._fold_lambdas(task, prior)[0]
            for i in range(task.n_trials):
                keep = np.arange(task.n_trials) != i
                want = _select_lambda(TaskDataset(task.X[keep], task.y[keep]), prior,
                                      LAMBDA_GRID)
                assert got[i] == want, (k, i, task.n_trials)


def test_loo_accuracy_solves_each_lambda_once(monkeypatch):
    # the fold search's solves also give the outer held-out predictions: a task
    # where a fold searches costs one solve per lambda of the grid, and one
    # where none does (three trials or fewer) one solve at the default
    rng = np.random.default_rng(43)
    priors = oracle_priors()
    tasks = [oracle_task(rng) for _ in range(8)]
    tasks += [dec.TaskDataset(task.X[:n], task.y[:n]) for task, n in zip(tasks, (2, 3))]
    searched = [task.n_trials > MIN_GRID_TRIALS for task in tasks]
    assert any(searched) and not all(searched)
    calls = []
    solve = dec._solve
    monkeypatch.setattr(dec, "_solve", lambda A, B: calls.append(A) or solve(A, B))
    for task, search in zip(tasks, searched):
        lams = list(LAMBDA_GRID) if search else [DEFAULT_PRIOR_LAMBDA]
        for prior in priors:
            calls.clear()
            dec.loo_accuracy(task, prior)
            assert len(calls) == len(lams)
            calls.clear()
            _, held_out = dec._fold_lambdas(task, prior)
            assert list(held_out) == lams and len(calls) == len(lams)
            for lam, preds in held_out.items():
                assert np.allclose(preds, _loo_predictions(task, prior, lam), rtol=1e-8,
                                   atol=1e-10)


def test_loo_matches_brute_force_on_fixtures():
    prior = dec.GaussianPrior.uninformative()
    degenerate_tie = dec.TaskDataset(np.ones((2, 17)), np.array([1.0, -1.0]))
    lambda_tie = dec.TaskDataset(
        dec.augment_bias(np.vstack([np.eye(2)[0] * 5, -np.eye(2)[0] * 5] * 3
                                   ).repeat(8, axis=1)[:, :16]),
        np.array([1.0, -1.0] * 3))
    rng = np.random.default_rng(7)
    y18 = np.array([1.0, -1.0] * 9)
    X18 = rng.normal(0.0, 0.3, (18, 16))
    X18[:, 0] += 3.0 * y18
    separable = dec.TaskDataset(dec.augment_bias(X18), y18)
    for task in (degenerate_tie, lambda_tie, separable):
        assert dec.loo_accuracy(task, prior) == loo_accuracy(task, prior)
        assert_held_out_match_brute_force(task, prior)


# --- pearson ---------------------------------------------------------------------------

def test_pearson_trivia():
    a = np.array([1.0, 2.0, 4.0, 9.0])
    r, p = dec.pearson(a, a)
    assert r == 1.0
    assert p == 0.0
    r, p = dec.pearson(a, -a)
    assert r == -1.0
    assert p == 0.0


def test_pearson_published_fixture():
    # r = 0.13 at n = 226 built by construction: b = r*zx + sqrt(1-r^2)*zq
    # with zq orthonormalized against zx
    rng = np.random.default_rng(226)
    x = rng.normal(0, 1, 226)
    q = rng.normal(0, 1, 226)
    zx = (x - x.mean()) / x.std()
    q = q - q.mean()
    q -= (q @ zx) / (zx @ zx) * zx
    zq = q / q.std()
    b = 0.13 * zx + np.sqrt(1 - 0.13 ** 2) * zq
    r, p = dec.pearson(zx, b)
    assert r == pytest.approx(0.13, abs=1e-12)
    assert p == pytest.approx(0.050964098407566744, abs=1e-12)
    assert 0.045 <= p <= 0.06


def test_pearson_validation():
    with pytest.raises(dec.DecoderError):
        dec.pearson(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(dec.ZeroVarianceError):
        dec.pearson(np.array([1.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0]))


# --- prior serialization ------------------------------------------------------------------

def test_prior_file_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    tasks = [random_task(rng) for _ in range(4)]
    prior, info = dec.learn_prior(tasks)
    blob = dec.write_prior(prior, info)
    loaded, meta = dec.read_prior(blob)
    assert np.array_equal(loaded.mean, prior.mean)
    assert np.array_equal(loaded.cov, prior.cov)
    assert meta["feature_order"][-1] == "bias"
    assert len(meta["feature_order"]) == 17
    assert tuple(meta["lambda_grid"]) == dec.LAMBDA_GRID
    assert meta["converged"] == info.converged
    # canonical bytes: rewrites are identical
    assert dec.write_prior(loaded, info) == blob
    assert blob[:4] == b"MYNP"


def test_prior_file_error_taxonomy():
    rng = np.random.default_rng(14)
    tasks = [random_task(rng) for _ in range(3)]
    prior, info = dec.learn_prior(tasks)
    blob = dec.write_prior(prior, info)
    with pytest.raises(dec.DecoderError):
        dec.read_prior(b"XXXX" + blob[4:])
    with pytest.raises(dec.DecoderError):
        dec.read_prior(blob[:-8])


def prior_blob(header: object, payload: bytes) -> bytes:
    head = json.dumps(header).encode("utf-8") if not isinstance(header, bytes) else header
    return struct.pack("<4sHI", dec.PRIOR_MAGIC, dec.PRIOR_VERSION, len(head)) + head + payload


@pytest.mark.parametrize("header", [
    b"{}", b"\xff\xfe{}", b"{x}", b"[]", b'"dim"', b'{"dim": "17"}', b'{"dim": 17.0}',
    b'{"dim": -1}', b'{"dim": 0}', b'{"dim": true}', b'{"dim": null}',
], ids=["empty-object", "not-utf8", "not-json", "array", "string", "dim-string",
        "dim-float", "dim-negative", "dim-zero", "dim-bool", "dim-null"])
def test_prior_header_malformations_raise_decoder_error(header):
    payload = np.zeros(17 + 17 * 17).tobytes()
    with pytest.raises(dec.DecoderError):
        dec.read_prior(prior_blob(header, payload))


@pytest.mark.parametrize("index", [0, 2], ids=["mean", "covariance-diagonal"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_prior_non_finite_payload_rejected(index, bad):
    values = np.concatenate([np.zeros(2), np.eye(2).ravel()])  # dim 2: mean, then covariance
    values[index] = bad
    with pytest.raises(dec.DecoderError):
        dec.read_prior(prior_blob({"dim": 2}, values.tobytes()))


OVERFLOWING_COVARIANCES = pytest.mark.parametrize("cov", [
    np.diag([1.5e308, 1.0]), np.diag([-1.5e308, 1.0]), np.array([[1.0, 1e308], [1e308, 1.0]]),
], ids=["huge-diagonal", "huge-negative-diagonal", "huge-off-diagonal"])


@OVERFLOWING_COVARIANCES
def test_prior_rejects_covariance_overflowing_when_symmetrized(cov):
    with np.errstate(over="ignore"), pytest.raises(dec.DecoderError, match="overflow"):
        dec.GaussianPrior(np.zeros(2), cov)
    assert dec.GaussianPrior(np.zeros(2), np.diag([8e307, 1.0])).cov[0, 0] == 8e307


@pytest.mark.parametrize("cov", [
    np.diag([1.5e308, 1.0]), np.diag([-1.5e308, 1.0]), np.array([[1.0, 1e308], [1e308, 1.0]]),
    np.array([[1.0, 1.5e308], [-1.5e308, 1.0]]), np.array([[1.0, 1.7e308], [-1.7e308, 1.0]]),
], ids=["huge-diagonal", "huge-negative-diagonal", "huge-off-diagonal",
        "difference-overflows", "difference-overflows-at-the-max"])
def test_prior_overflow_raises_decoder_error_without_a_numpy_warning(cov):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(dec.DecoderError, match="overflow|symmetric"):
            dec.GaussianPrior(np.zeros(2), cov)
        values = np.concatenate([np.zeros(2), cov.ravel()])
        with pytest.raises(dec.DecoderError, match="overflow|symmetric"):
            dec.read_prior(prior_blob({"dim": 2}, values.astype("<f8").tobytes()))


@OVERFLOWING_COVARIANCES
def test_read_prior_rejects_covariance_overflowing_when_symmetrized(cov):
    values = np.concatenate([np.zeros(2), cov.ravel()])
    with np.errstate(over="ignore"), pytest.raises(dec.DecoderError, match="overflow"):
        dec.read_prior(prior_blob({"dim": 2}, values.astype("<f8").tobytes()))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(tail=st.binary(max_size=400))
def test_read_prior_any_bytes_after_magic_and_version(tail):
    blob = struct.pack("<4sH", dec.PRIOR_MAGIC, dec.PRIOR_VERSION) + tail
    try:
        prior, _ = dec.read_prior(blob)
    except dec.DecoderError:
        return
    assert isinstance(prior, dec.GaussianPrior)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_read_prior_any_json_header_and_payload(data):
    header = data.draw(JSON_VALUES | st.fixed_dictionaries(
        {"dim": st.integers(-1, 3) | JSON_VALUES}))
    dim = header.get("dim") if isinstance(header, dict) else None
    size = (dim + dim * dim) * 8 if type(dim) is int and 0 <= dim <= 3 else None
    payload = data.draw(st.binary(min_size=size or 0, max_size=size or 64))
    try:
        prior, meta = dec.read_prior(prior_blob(header, payload))
    except dec.DecoderError:
        return
    assert prior.dim == dim
    assert meta == header


# --- mediator report -------------------------------------------------------------------------

def result(accuracy: float, day: int = 1, strategy: str = "positive_memories",
           motivation: float = 3.0, meditation: float = np.nan,
           quality: float = 0.9) -> dec.DecodingResult:
    return dec.DecodingResult(subject="s", day=day, strategy=strategy,
                              accuracy=accuracy, n_trials=18,
                              mean_quality=quality, motivation=motivation,
                              meditation=meditation)


def test_mediator_report_empty_rejected():
    with pytest.raises(dec.DecoderError):
        dec.mediator_report([])


def test_mediator_exact_linear_relation():
    results = [result(0.1 * m, motivation=float(m)) for m in range(1, 6)]
    report = dec.mediator_report(results)
    r, p = report.correlations["motivation"]
    assert r == pytest.approx(1.0, abs=1e-12)


def test_mediator_constant_accuracy_noted():
    results = [result(0.8, strategy=s, day=d)
               for d in (1, 2) for s in ("a", "b")]
    report = dec.mediator_report(results)
    assert report.correlations["motivation"] is None
    assert report.notes["motivation"] == "zero variance"


def test_mediator_planted_correlation_recovered():
    rng = np.random.default_rng(314)
    motivation = rng.integers(1, 6, 200).astype(float)
    acc = 0.5 + 0.05 * (motivation - 3.0) + rng.normal(0.0, np.sqrt(0.015), 200)
    acc = np.clip(acc, 0.0, 1.0)
    results = [result(float(a), motivation=float(m))
               for a, m in zip(acc, motivation)]
    report = dec.mediator_report(results)
    r, _ = report.correlations["motivation"]
    assert r == pytest.approx(0.5, abs=0.1)


def test_mediator_missing_values_skipped():
    # meditation is NaN everywhere: fewer than 3 usable pairs
    results = [result(0.5 + 0.01 * i) for i in range(10)]
    report = dec.mediator_report(results)
    assert report.correlations["meditation"] is None
    assert "fewer than 3" in report.notes["meditation"]
    assert list(report.correlations) == list(dec.MEDIATOR_COLUMNS)


def test_write_results_table(tmp_path):
    import csv

    path = tmp_path / "results.csv"
    dec.write_results_table([result(0.75)], path)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:5] == ["subject", "day", "strategy", "accuracy", "n_trials"]
    assert rows[1][0] == "s"
    assert float(rows[1][3]) == 0.75
