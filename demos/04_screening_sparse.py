"""Variance screening in high dimension: few relevant coordinates.

A coordinate whose component means differ inflates its marginal variance, so
thresholding the covariance diagonal finds the relevant set. This script
compares dense PCA (hurt by the 246 noise coordinates), screening + PCA, and
the oracle that knows the true support.
"""

import numpy as np

from mixbench import (
    MixtureParams,
    loss_exact_linear,
    oracle_support_pca,
    pca_classifier,
    sample,
    screening,
    sparse_pca_classifier,
    stream_seed,
    support_truth,
)

d, n = 256, 4000
h = np.zeros(d)
h[:4] = 1.0  # four relevant coordinates, lambda = 4
theta = MixtureParams(-h, h, 1.0)

ds = sample(theta, n, seed=11)
res = screening(ds)
truth = support_truth(theta, n)
print(f"alpha(n={n}, d={d}) = {res.alpha:.4f} (guarantee needs <= 0.25)")
print(f"true support - {truth.S}; strong subset - {truth.S_tilde}")
print(f"selected     - {res.selected}")
print(f"threshold tau = {res.tau_hat:.4f}; top-5 variances = {np.round(np.sort(res.diag_variances)[-5:], 3)}")

print("\nmean exact loss over 50 replicates:")
losses = {"dense": [], "screened": [], "oracle": []}
for r in range(50):
    ds = sample(theta, n, stream_seed(77, r))
    losses["dense"].append(loss_exact_linear(theta, pca_classifier(ds)))
    clf, _ = sparse_pca_classifier(ds)
    losses["screened"].append(loss_exact_linear(theta, clf))
    losses["oracle"].append(loss_exact_linear(theta, oracle_support_pca(ds, theta)))
for name, vals in losses.items():
    print(f"  {name:9s} {np.mean(vals):.5f} +- {np.std(vals, ddof=1) / np.sqrt(len(vals)):.5f}")

print("\nwith a much weaker signal the screened estimator can select nothing")
print("and falls back to a flagged degenerate rule:")
h = np.zeros(d)
h[:4] = 0.05
theta_weak = MixtureParams(-h, h, 1.0)
flags = 0
for r in range(20):
    clf, scr = sparse_pca_classifier(sample(theta_weak, n, stream_seed(88, r)))
    flags += clf.degenerate
print(f"  degenerate in {flags}/20 replicates")
