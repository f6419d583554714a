"""
Transfer learning for tiny task datasets
========================================

A Gaussian prior learned across many lab subjects regularizes each new
subject's decoder. With only six trials per day, that prior is the
difference between decoding and guessing.
"""

import numpy as np

from mindkit import decoder as dec
from mindkit import simkit as sim

# Corpus shaped like the lab studies: 11 subjects x 40 trials.
print("generating lab corpus (11 subjects x 40 trials) ...")
corpus = sim.gen_lab_corpus(11, 40, seed=101)

print("learning prior (one convex solve from the identity prior's fits, then "
      "alternating mean/covariance updates) ...")
prior, info = dec.learn_prior(corpus)
print(f"  {info.iterations_run} iterations, residual {info.residual:.2e}, "
      f"converged={info.converged}")

names = list(dec.FEATURE_NAMES) + ["bias"]
top = np.argsort(np.abs(prior.mean))[::-1][:5]
print("  largest prior-mean weights:")
for idx in top:
    print(f"    {names[idx]:12s} {prior.mean[idx]:+.3f}")

# Held-out subjects from the same population, six trials each: exactly the
# amount of data one home-study day produces per strategy.
dist = sim.ProfileDistribution()
rng = np.random.default_rng([0, 7])
baseline = dec.GaussianPrior.uninformative()

print("\nleave-one-out accuracy on 6-trial held-out tasks")
print("  subject   with prior   uninformative")
with_prior, without = [], []
for i in range(10):
    profile = dist.draw(rng, seed=int(rng.integers(2 ** 31)))
    task = sim.gen_task_dataset(profile, dist.tasks, 6, f"h{i}", seed=i)
    a = dec.loo_accuracy(task, prior)
    b = dec.loo_accuracy(task, baseline)
    with_prior.append(a)
    without.append(b)
    print(f"  h{i:<8d} {a:10.3f} {b:14.3f}")

gain = np.mean(with_prior) - np.mean(without)
print(f"\nmean {np.mean(with_prior):.3f} vs {np.mean(without):.3f} "
      f"-> transfer gain {gain * 100:+.1f} percentage points")

# The regularization path: as lambda grows, the per-task fit collapses
# onto the prior mean.
task = sim.gen_task_dataset(dist.draw(rng, seed=123), dist.tasks, 6, "path", seed=99)
print("\ndistance of the MAP weights from the prior mean along lambda")
for lam in (0.01, 0.1, 1.0, 10.0, 100.0, 1e6):
    w = dec.fit_map(task.X, task.y, prior, lam)
    print(f"  lambda {lam:>9.2f}  |w - mu| = {np.linalg.norm(w - prior.mean):.4f}")
