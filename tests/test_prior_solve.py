"""The convex solve inside learn_prior: J(mu, V) = sum_t ||X_t(mu + v_t) - y_t||^2 + lam ||V||_*^2."""

import json

import numpy as np
import pytest

from mindkit import decoder as dec
from mindkit import features, simkit
from mindkit.cli import main


def objective(tasks, mean, offsets, lam):
    """J computed straight from the tasks, as the independent reference."""
    fit = sum(float(np.sum((t.X @ (mean + v) - t.y) ** 2)) for t, v in zip(tasks, offsets))
    nuclear = float(np.linalg.svd(offsets, compute_uv=False).sum())
    return fit + lam * nuclear ** 2


def round_weights(tasks, prior, lam):
    """The weights the next round would fit under `prior`."""
    return np.stack([dec.fit_map(t.X, t.y, prior, lam) for t in tasks])


@pytest.fixture(scope="module")
def corpora():
    return {seed: simkit.gen_lab_corpus(11, 40, seed=seed) for seed in (101, 0, 5)}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed, kwargs", [
    (101, {}), (0, {}), (5, {}), (0, {"lam": 0.1}), (5, {"lam": 10.0}),
    (101, {"zero_mean": True}),
], ids=["seed-101", "seed-0", "seed-5", "seed-0-lam-0.1", "seed-5-lam-10",
        "seed-101-zero-mean"])
def test_solve_converges_on_lab_corpora(corpora, seed, kwargs):
    prior, info = dec.learn_prior(corpora[seed], **kwargs)
    assert info.converged
    assert info.residual < dec.PRIOR_CONVERGENCE_TOL
    assert info.iterations_run < dec.MAX_PRIOR_ITERATIONS
    assert info.solve is not None and info.solve.round == dec.SOLVE_AFTER_ROUNDS + 1
    assert 0 < info.solve.iterations < dec.SOLVE_MAX_STEPS
    assert info.solve.objective < info.solve.objective_start
    if kwargs.get("zero_mean"):
        assert np.array_equal(prior.mean, np.zeros(17))


def test_solve_objective_never_rises(corpora):
    _, info = dec.learn_prior(corpora[101], iterations=101)
    values = info.solve.objectives
    assert values[0] == info.solve.objective_start and values[-1] == info.solve.objective
    assert len(values) >= 2
    assert all(later <= earlier for earlier, later in zip(values, values[1:]))


def test_solve_reaches_lower_objective_than_plain_rounds(corpora):
    # than the plain rounds before it, and than the fit that alternates on from it to 1e-8
    tasks, lam = corpora[101], dec.DEFAULT_PRIOR_LAMBDA
    _, info = dec.learn_prior(tasks, iterations=101)
    for iterations in (dec.SOLVE_AFTER_ROUNDS, dec.MAX_PRIOR_ITERATIONS):
        prior, _ = dec.learn_prior(tasks, iterations=iterations)
        weights = round_weights(tasks, prior, lam)
        mean = weights.mean(axis=0)
        assert info.solve.objective <= objective(tasks, mean, weights - mean, lam)


def test_solve_reports_the_objective_of_what_it_returns(corpora):
    tasks, lam = corpora[5], 0.5
    grams = np.stack([t.X.T @ t.X for t in tasks])
    xty = np.stack([t.X.T @ t.y for t in tasks])
    yty = float(sum(t.y @ t.y for t in tasks))
    weights = round_weights(tasks, dec.GaussianPrior.uninformative(), lam)
    mean = weights.mean(axis=0)
    got_mean, offsets, info = dec._solve_prior_objective(
        grams, xty, yty, mean, weights - mean, lam, False, 1)
    assert info.objective_start == pytest.approx(objective(tasks, mean, weights - mean, lam),
                                                 rel=1e-12)
    assert info.objective == pytest.approx(objective(tasks, got_mean, offsets, lam), rel=1e-12)
    # the minimiser's offsets are centered: the mean absorbs any shared part
    assert np.abs(offsets.sum(axis=0)).max() <= 1e-4 * np.abs(offsets).max()


@pytest.mark.filterwarnings("error")
def test_solve_on_all_zero_designs_keeps_the_start():
    # every design is zero, so each task's MAP weights equal the prior mean
    mean, offsets = np.linspace(-1.0, 1.0, 17), np.zeros((3, 17))
    got_mean, got_offsets, info = dec._solve_prior_objective(
        np.zeros((3, 17, 17)), np.zeros((3, 17)), 18.0, mean, offsets, 1.0, False, 1)
    assert np.array_equal(got_mean, mean) and np.array_equal(got_offsets, offsets)
    assert info.iterations == 0 and info.objective == info.objective_start == 18.0


def test_shrink_singular_values_is_the_prox():
    rng = np.random.default_rng(12)
    Z = rng.normal(size=(6, 17))
    for c in (0.0, 0.01, 0.3, 50.0):
        V, nuclear = dec._shrink_singular_values(Z, c)
        assert nuclear == pytest.approx(np.linalg.svd(V, compute_uv=False).sum(), abs=1e-12)

        def prox_objective(M):
            return 0.5 * np.sum((M - Z) ** 2) + c * np.linalg.svd(M, compute_uv=False).sum() ** 2

        best = prox_objective(V)
        for _ in range(200):  # convex, so no nearby point may do better
            assert prox_objective(V + 1e-3 * rng.normal(size=V.shape)) >= best - 1e-12
    V, nuclear = dec._shrink_singular_values(np.zeros((4, 17)), 1.0)
    assert nuclear == 0.0 and not V.any()


# --- learn-prior ----------------------------------------------------------------

@pytest.fixture(scope="module")
def lab_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("solve") / "corpus.csv"
    assert main(["gen-lab-corpus", "--subjects", "11", "--trials", "40", "--seed", "3",
                 "--out", str(out)]) == 0
    return out


def test_learn_prior_records_the_solve(lab_corpus, capsys):
    out = lab_corpus.parent / "first" / "prior.mynp"
    assert main(["learn-prior", "--corpus", str(lab_corpus), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "converged after" in stdout
    assert "convex solve: round 101, " in stdout
    fit = json.loads((out.parent / "manifest.json").read_text())["prior_fit"]
    solve = fit["solve"]
    assert set(solve) == {"round", "iterations", "restarts", "objective_start", "objective"}
    assert solve["round"] == 101 and solve["objective"] < solve["objective_start"]
    prior, header = dec.read_prior(out.read_bytes())
    assert set(header) == {"dim", "feature_order", "lambda_grid", "eps_ridge",
                           "iterations_run", "converged", "residual"}
    assert header["converged"] and header["residual"] < dec.PRIOR_CONVERGENCE_TOL
    again = lab_corpus.parent / "again" / "prior.mynp"
    assert main(["learn-prior", "--corpus", str(lab_corpus), "--out", str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()


def test_library_defaults_write_the_cli_prior(lab_corpus):
    out = lab_corpus.parent / "cli" / "prior.mynp"
    assert main(["learn-prior", "--corpus", str(lab_corpus), "--out", str(out)]) == 0
    tasks = simkit.tasks_from_feature_vectors(features.read_feature_table(lab_corpus),
                                              features.GROUPING_LAB_SESSION)
    assert dec.write_prior(*dec.learn_prior(tasks)) == out.read_bytes()


def test_learn_prior_within_solve_rounds_records_no_solve(lab_corpus, capsys):
    out = lab_corpus.parent / "short" / "prior.mynp"
    assert main(["learn-prior", "--corpus", str(lab_corpus), "--out", str(out),
                 "--iterations", "40"]) == 0
    assert "convex solve: not run" in capsys.readouterr().out
    assert json.loads((out.parent / "manifest.json").read_text())["prior_fit"]["solve"] is None
