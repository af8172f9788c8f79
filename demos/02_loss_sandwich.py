"""The closed-form sandwich around the loss between two rotated mixtures.

For two equal-SNR mixtures whose signal directions differ by an angle beta,
the loss of one's optimal rule under the other is bracketed by

    2 g(xi) sin(beta) cos(beta)   <=   loss   <=   tan(beta) / pi

with xi the half-separation in noise units. This script evaluates the exact
loss by quadrature across a grid and prints it inside its bracket.
"""

import math

import numpy as np

from mixbench import (
    LinearClassifier,
    MixtureParams,
    bayes_classifier,
    g_function,
    loss_bounds_symmetric,
    loss_exact_linear,
)

print(f"g(0) = {g_function(0.0):.6f} (= 1/(2 pi)); g decreases to 0: g(1) = {g_function(1.0):.6f}")
print()
print(f"{'xi':>5} {'beta':>6} {'lower':>10} {'exact':>10} {'upper':>10}")
for xi in (0.1, 0.5, 1.0):
    for beta in (0.05, 0.2, 0.6, 1.0):
        h = np.array([xi, 0.0])
        hp = xi * np.array([math.cos(beta), math.sin(beta)])
        theta = MixtureParams(-h, h, 1.0)
        theta_rot = MixtureParams(-hp, hp, 1.0)
        exact = loss_exact_linear(theta, bayes_classifier(theta_rot), tol=1e-9)
        lower, upper = loss_bounds_symmetric(xi, beta)
        inside = lower <= exact <= upper
        print(f"{xi:5.2f} {beta:6.2f} {lower:10.6f} {exact:10.6f} {upper:10.6f}   {'ok' if inside else 'VIOLATION'}")

print("\nin the weak-signal limit the loss approaches beta / pi (pure angle geometry):")
theta = MixtureParams([-1e-6, 0.0], [1e-6, 0.0], 1.0)
for beta in (0.3, 0.7853981633974483, 1.2):
    v = np.array([math.cos(beta), math.sin(beta)])
    val = loss_exact_linear(theta, LinearClassifier(v, 0.0))
    print(f"  beta = {beta:.4f}: loss = {val:.6f}, beta/pi = {beta / math.pi:.6f}")
