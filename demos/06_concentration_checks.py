"""Spot-checking the concentration tails behind the estimator analysis."""

import numpy as np

from mixbench import concentration_bound, davis_kahan_check
from mixbench.verify import suite_concentration, suite_davis_kahan

print("chi-square and product-normal tails vs empirical frequencies (1e5 trials):")
for e in suite_concentration():
    name = e["check"]
    params = {k: e[k] for k in ("d", "n", "eps") if k in e}
    print(f"  {name:12s} {params}  freq = {e['frequency']:.5f}  bound = {min(e['bound'], 1.0):.5f}  ok = {e['holds']}")

print("\na single eigenvector perturbation check:")
a = np.diag([3.0, 1.5, 1.0])
e = np.array([[0.0, 0.1, 0.0], [0.1, 0.0, 0.05], [0.0, 0.05, 0.0]])
rep = davis_kahan_check(a, e)
print(f"  sin(angle) = {rep.sin_angle:.4f} <= bound {rep.bound:.4f}: {rep.holds}")

print("\n1000 random admissible instances:")
summary = suite_davis_kahan(instances=1000)[0]
print(f"  failures = {summary['failures']}, worst sin/bound ratio = {summary['worst_ratio']:.3f}")

print("\nbound values are reported verbatim even when vacuous:")
print(f"  prodnormal(n=50, eps=0.1) = {concentration_bound('prodnormal', n=50, eps=0.1):.3f} (> 1)")
