"""Constructing and certifying the minimax lower-bound machinery.

Packing codes with guaranteed Hamming distance induce families of mixtures on
the sphere of radius lambda. For the testing reduction to yield a lower bound,
pairwise KL must stay inside the Fano budget while pairwise losses stay large;
both are checked numerically here, together with the local triangle window
that substitutes for the loss's missing triangle inequality.
"""

import numpy as np

from mixbench import (
    bayes_classifier,
    fano_check,
    kl_bound,
    kl_monte_carlo,
    local_triangle_check,
    lower_bound_family,
    sparse_code,
    theorem_bound,
    vg_code,
)

code = vg_code(16)
print(f"greedy binary code: length 16, {code.count} words, min distance {code.min_distance}, verified = {code.verify()}")
sc = sparse_code(24, 6, seed=1)
print(f"constant-weight code: length 24, weight 6, {sc.count} words, min distance {sc.min_distance}")

for regime, kwargs in (("dense", dict(d=9)), ("sparse", dict(d=17, s=4))):
    fam = lower_bound_family(regime, n=10_000, lam=0.2, **kwargs)
    print(f"\n{regime} family: {fam.size} hypotheses, eps = {fam.epsilon:.6f}, lambda0 = {fam.lambda0:.6f}")
    rep = fano_check(fam)
    print(f"  fano budget: alpha = {rep.alpha_fano:.4f} (< 1/8: {rep.holds})")
    print(f"  loss window [{rep.window_low:.5f}, {rep.window_high:.5f}] contains all pairs: {rep.window_holds}")
    print(f"  implied minimax lower bound: {rep.implied_lower_bound:.3e}")

fam = lower_bound_family("dense", n=10_000, d=9, lam=0.2)
t1, t2 = fam.thetas[1], fam.thetas[2]
est, se = kl_monte_carlo(t1, t2, n_samples=500_000, seed=5)
mu1 = t1.mu2 - t1.mu1
mu2 = t2.mu2 - t2.mu1
cos_beta = abs(float(mu1 @ mu2)) / (np.linalg.norm(mu1) * np.linalg.norm(mu2))
print(f"\nKL check on one pair: monte-carlo = {est:.3e} +- {se:.3e}, closed-form bound = {kl_bound(0.1, cos_beta):.3e}")

tri = local_triangle_check(t1, t2, bayes_classifier(fam.thetas[0]))
print(f"triangle window: [{tri.lower:.5f}, {tri.upper:.5f}], observed = {tri.observed:.5f}, holds = {tri.holds}")

print("\nheadline bounds at these parameters (constants are loose by design):")
print(f"  lower (d=9):  {theorem_bound('thm2_lower', n=10_000, d=9, lam=0.2):.3e}")
print(f"  upper (d=9):  {theorem_bound('thm1_upper', n=10_000, d=9, lam=0.2):.3e}  (vacuous at desk scale)")
