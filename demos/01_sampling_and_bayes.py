"""Sampling from the mixture and scoring rules against the optimal one.

Builds a two-component isotropic mixture, draws a dataset, and shows how the
clustering loss of a linear rule responds to tilting its direction away from
the optimal separator and to shifting its threshold.
"""

import math

import numpy as np

from mixbench import (
    LinearClassifier,
    MixtureParams,
    bayes_classifier,
    loss_exact_linear,
    loss_monte_carlo,
    sample,
)

h = np.array([0.6, 0.8, 0.0])  # half-separation; lambda = 2||h|| = 2
theta = MixtureParams(mu1=-h, mu2=h, sigma=1.0)
print(f"mixture: d={theta.d}, lambda={theta.separation:.3f}, snr={theta.snr:.3f}")

ds = sample(theta, n=2000, seed=42)
print(f"sampled {ds.n} points; component-1 fraction = {np.mean(ds.labels == 1):.3f}")

opt = bayes_classifier(theta)
print(f"optimal rule: v = {np.round(opt.v, 3)}, t = {opt.t:.3f}")
print(f"its loss (quadrature): {loss_exact_linear(theta, opt):.2e}")

print("\ntilting the direction by an angle beta (threshold kept optimal):")
for beta_deg in (5, 15, 30, 60):
    beta = math.radians(beta_deg)
    v = math.cos(beta) * opt.v + math.sin(beta) * np.array([-0.8, 0.6, 0.0])
    clf = LinearClassifier(v, float(theta.center @ v))
    exact = loss_exact_linear(theta, clf)
    mc, se = loss_monte_carlo(theta, clf.predict, n_samples=200_000, seed=7)
    print(f"  beta = {beta_deg:2d} deg   exact = {exact:.5f}   monte-carlo = {mc:.5f} +- {se:.5f}")

print("\nshifting the threshold (direction kept optimal):")
for shift in (0.25, 0.5, 1.0, 2.0):
    clf = LinearClassifier(opt.v, opt.t + shift)
    print(f"  shift = {shift:4.2f}   exact loss = {loss_exact_linear(theta, clf):.5f}")

orth = LinearClassifier(np.array([0.0, 0.0, 1.0]), 0.0)
print(f"\na direction orthogonal to the signal is useless: loss = {loss_exact_linear(theta, orth)}")
