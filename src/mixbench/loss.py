"""Clustering loss: exact quadrature for linear rules, Monte Carlo for the rest.

The loss of a clustering F under parameter theta is the probability that F
disagrees with the optimal rule for theta, minimized over the two label
permutations; it always lies in [0, 1/2].

For a linear rule the disagreement probability reduces to a one-dimensional
integral. Writing a = ||h||/sigma for the SNR, beta for the angle between the
classifier direction and h, and c for the standardized threshold offset, the
disagreement probability for the aligned labelling is

    p = integral phi(y) * 0.5 * [Phi(a + |B(y)|) - Phi(a - |B(y)|)] dy,
    B(y) = c - y * tan(beta),

which this module evaluates by adaptive Gauss-Kronrod quadrature on [-9, 9]
(the normal mass outside is < 2e-19, below any permitted tolerance).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfcx, ndtr

from .errors import DomainError, NumericalError
from .model import LinearClassifier, MixtureParams, _count, _real_number, bayes_classifier, sample

__all__ = [
    "g_function",
    "loss_bounds_symmetric",
    "loss_exact_linear",
    "loss_monte_carlo",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_TRUNC = 9.0  # standardized integration window; mass outside < 2e-19

# 15-point Kronrod nodes on [-1, 1] and weights, with the embedded 7-point
# Gauss weights on the odd-indexed nodes (QUADPACK dqk15 constants).
_XK_HALF = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144838258730,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.000000000000000000000000000000000,
    ]
)
_WK_HALF = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
    ]
)
_WG_HALF = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
    ]
)

_XK = np.concatenate([-_XK_HALF[:-1], _XK_HALF[::-1]])  # 15 sorted nodes
_WK = np.concatenate([_WK_HALF[:-1], _WK_HALF[::-1]])
_WG = np.zeros(15)
_WG[1:15:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])


def g_function(x: float) -> float:
    """phi(x) * (phi(x) - x * Phi(-x)), strictly positive for x >= 0.

    Evaluated as phi(x)^2 * (1 - x * sqrt(pi/2) * erfcx(x / sqrt(2))) to
    avoid the catastrophic cancellation of the naive form in the far tail.
    """
    x = _real_number("x", x)
    if x < 0.0:
        raise DomainError(f"g is defined for x >= 0, got {x}")
    phi_sq = math.exp(-x * x) / (2.0 * math.pi)
    mills_part = 1.0 - x * math.sqrt(math.pi / 2.0) * float(erfcx(x / math.sqrt(2.0)))
    return phi_sq * mills_part


def loss_bounds_symmetric(xi: float, beta: float) -> tuple[float, float]:
    """Closed-form sandwich for the loss between two equal-SNR mixtures whose
    signal directions differ by angle beta:

        2 g(xi) sin(beta) cos(beta)  <=  loss  <=  tan(beta) / pi.

    ``xi`` is the half-separation in noise units (||h||/sigma).
    """
    xi = _real_number("xi", xi)
    beta = _real_number("beta", beta)
    if xi <= 0.0:
        raise DomainError(f"xi must be positive, got {xi}")
    if beta < 0.0 or beta >= math.pi / 2.0:
        raise DomainError(f"beta must lie in [0, pi/2), got {beta}")
    lower = 2.0 * g_function(xi) * math.sin(beta) * math.cos(beta)
    upper = math.tan(beta) / math.pi
    return lower, upper


def _integrand_factory(a: float, c: float, tan_beta: float):
    def f(y: np.ndarray) -> np.ndarray:
        b = np.abs(c - y * tan_beta)
        return np.exp(-0.5 * y * y) / _SQRT_2PI * 0.5 * (ndtr(a + b) - ndtr(a - b))

    return f


def _gk15_batch(f, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Gauss-Kronrod 15 on a batch of panels; returns (value, err)."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    ys = mid[:, None] + half[:, None] * _XK[None, :]
    fy = f(ys.ravel()).reshape(ys.shape)
    vk = half * (fy @ _WK)
    vg = half * (fy @ _WG)
    return vk, np.abs(vk - vg)


def _adaptive_quad(f, breakpoints: np.ndarray, tol: float) -> float:
    """Adaptive panel refinement until the summed Kronrod error estimate
    drops below ``tol``. Panels over their equal share of the budget are
    bisected each round."""
    lo = np.asarray(breakpoints[:-1], dtype=np.float64)
    hi = np.asarray(breakpoints[1:], dtype=np.float64)
    val, err = _gk15_batch(f, lo, hi)
    for _ in range(200):
        total_err = float(err.sum())
        if total_err <= tol:
            return float(val.sum())
        if lo.size > 16384:
            raise NumericalError("quadrature failed to reach the requested tolerance")
        share = tol / lo.size
        bad = err > share
        if not np.any(bad):
            bad = err >= err.max()
        mids = 0.5 * (lo[bad] + hi[bad])
        new_lo = np.concatenate([lo[bad], mids])
        new_hi = np.concatenate([mids, hi[bad]])
        new_val, new_err = _gk15_batch(f, new_lo, new_hi)
        lo = np.concatenate([lo[~bad], new_lo])
        hi = np.concatenate([hi[~bad], new_hi])
        val = np.concatenate([val[~bad], new_val])
        err = np.concatenate([err[~bad], new_err])
    raise NumericalError("quadrature failed to converge")


def loss_exact_linear(theta: MixtureParams, clf: LinearClassifier, tol: float = 1e-8) -> float:
    """Exact loss of a linear rule, to within ``tol``.

    Reduces to the plane spanned by h and v and integrates the disagreement
    probability; the result is min over the two label permutations (the
    aligned-orientation integral is already <= 1/2). A direction exactly
    orthogonal to h gives 1/2 by symmetry. A value outside [0, 1/2] (NaN
    included) is a fault of the quadrature and raises NumericalError.
    """
    tol = _real_number("tol", tol)
    if not (0.0 < tol <= 1e-4):
        raise DomainError(f"tol must lie in (0, 1e-4], got {tol}")
    nh = theta.half_separation_norm
    if nh == 0.0:
        raise DomainError("mu1 == mu2: loss relative to the optimal rule is undefined")
    if clf.d != theta.d:
        raise DomainError(f"classifier dimension {clf.d} != mixture dimension {theta.d}")
    cos_beta = float(abs(clf.v @ theta.half_separation) / nh)
    # Values within a couple of ulps of 1 are rounding noise from the unit
    # normalization; snapping keeps the aligned case exact.
    if cos_beta >= 1.0 - 1e-15:
        cos_beta = 1.0
    if cos_beta == 0.0:
        return 0.5
    a = nh / theta.sigma
    # The threshold's offset from the center along h, in noise units.
    c = abs(float(clf.t - theta.center @ clf.v) / cos_beta) / theta.sigma
    sin_beta = math.sqrt(max(0.0, 1.0 - cos_beta**2))
    tan_beta = sin_beta / cos_beta
    if tan_beta == 0.0:
        # B(y) is the constant c: the integral collapses.
        p = 0.5 * float(ndtr(a + c) - ndtr(a - c))
    else:
        # Seed panel edges where the integrand changes regime: the kink of |B|
        # and the points where the Phi arguments cross zero / leave the tails.
        crit = [(c + s * w) / tan_beta for s in (-1.0, 1.0) for w in (0.0, a, a + 8.0)]
        pts = sorted({-_TRUNC, _TRUNC, *(float(p) for p in crit if -_TRUNC < p < _TRUNC), 0.0})
        p = _adaptive_quad(_integrand_factory(a, c, tan_beta), np.asarray(pts), 0.5 * tol)
        p = min(p, 1.0 - p)
    if not 0.0 <= p <= 0.5:
        raise NumericalError(f"loss value must lie in [0, 1/2], got {p}")
    return p


def loss_monte_carlo(theta: MixtureParams, classify, n_samples: int, seed: int) -> tuple[float, float]:
    """Empirical loss of an arbitrary clustering rule, as (estimate, std_err).

    ``classify`` maps an (n, d) array to labels in {1, 2}. Draws n_samples
    points from the mixture, measures disagreement with the optimal rule and
    returns min(p, 1-p) with the binomial standard error. Deterministic for a
    fixed seed.
    """
    n_samples = _count("n_samples", n_samples)
    if n_samples < 100:
        raise DomainError(f"need at least 100 samples, got {n_samples}")
    oracle = bayes_classifier(theta)
    ds = sample(theta, n_samples, seed)
    predicted = np.asarray(classify(ds.points), dtype=np.int64).reshape(-1)
    if predicted.shape[0] != n_samples:
        raise DomainError("classify must return one label per row")
    reference = oracle.predict(ds.points)
    p_hat = float(np.mean(predicted != reference))
    se = math.sqrt(p_hat * (1.0 - p_hat) / n_samples)
    return min(p_hat, 1.0 - p_hat), se
