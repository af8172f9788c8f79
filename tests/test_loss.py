"""Tests for exact and Monte-Carlo clustering loss."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixbench import loss as loss_module
from mixbench.errors import DomainError, NumericalError
from mixbench.loss import (
    g_function,
    loss_bounds_symmetric,
    loss_exact_linear,
    loss_monte_carlo,
)
from mixbench.model import LinearClassifier, MixtureParams, bayes_classifier, sample


def symmetric_pair(xi, beta, sigma=1.0):
    """theta and a rotated copy with the same SNR, both centered at 0."""
    h = np.array([xi * sigma, 0.0])
    hp = xi * sigma * np.array([math.cos(beta), math.sin(beta)])
    return MixtureParams(-h, h, sigma), MixtureParams(-hp, hp, sigma)


class TestGFunction:
    def test_value_at_zero(self):
        assert g_function(0.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)

    def test_value_at_one(self):
        # phi(1) * (phi(1) - Phi(-1)), evaluated at 30 digits externally
        assert g_function(1.0) == pytest.approx(0.020159904781755832, rel=1e-12)

    def test_tail(self):
        assert 0.0 < g_function(10.0) < 1e-20

    def test_strictly_positive_and_decreasing(self):
        xs = np.linspace(0.0, 25.0, 400)
        vals = [g_function(x) for x in xs]
        assert all(v > 0.0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            g_function(-0.1)

    @pytest.mark.parametrize("bad", ["1", True, None])
    def test_x_not_coerced(self, bad):
        with pytest.raises(DomainError, match="^x "):
            g_function(bad)

    def test_matches_naive_form(self):
        from scipy.stats import norm

        for x in (0.1, 0.7, 1.3, 2.5, 4.0):
            naive = norm.pdf(x) * (norm.pdf(x) - x * norm.cdf(-x))
            assert g_function(x) == pytest.approx(naive, rel=1e-10)


class TestLossBoundsSymmetric:
    def test_beta_zero(self):
        assert loss_bounds_symmetric(0.5, 0.0) == (0.0, 0.0)

    def test_frozen_example(self):
        lower, upper = loss_bounds_symmetric(0.5, math.pi / 6.0)
        assert lower == pytest.approx(0.060307679177224516, rel=1e-10)
        assert upper == pytest.approx(0.18377629847393068, rel=1e-10)

    def test_quadrature_inside_bounds(self):
        theta, theta_p = symmetric_pair(0.5, math.pi / 6.0)
        value = loss_exact_linear(theta, bayes_classifier(theta_p), tol=1e-9)
        lower, upper = loss_bounds_symmetric(0.5, math.pi / 6.0)
        assert lower - 1e-8 <= value <= upper + 1e-8

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            loss_bounds_symmetric(0.0, 0.1)
        with pytest.raises(DomainError):
            loss_bounds_symmetric(0.5, math.pi / 2.0)
        with pytest.raises(DomainError):
            loss_bounds_symmetric(0.5, -0.01)

    @pytest.mark.parametrize("bad", ["0.1", True, None])
    def test_reals_not_coerced(self, bad):
        with pytest.raises(DomainError, match="^xi "):
            loss_bounds_symmetric(bad, 0.1)
        with pytest.raises(DomainError, match="^beta "):
            loss_bounds_symmetric(0.5, bad)


class TestLossExactLinear:
    def test_bayes_classifier_has_zero_loss(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            d = int(rng.integers(1, 6))
            mu1 = rng.normal(size=d)
            mu2 = mu1 + rng.normal(size=d)
            theta = MixtureParams(mu1, mu2, float(rng.uniform(0.3, 2.0)))
            assert loss_exact_linear(theta, bayes_classifier(theta), tol=1e-8) <= 1e-8

    def test_orthogonal_direction_is_half(self):
        theta = MixtureParams([-1.0, 0.0], [1.0, 0.0], 1.0)
        for t in (-2.0, 0.0, 1.3):
            clf = LinearClassifier(np.array([0.0, 1.0]), t)
            assert loss_exact_linear(theta, clf, tol=1e-8) == 0.5

    def test_zero_snr_limit_is_beta_over_pi(self):
        # rotational symmetry: disagreement wedge has angle fraction beta/pi
        theta = MixtureParams([-1e-6, 0.0], [1e-6, 0.0], 1.0)
        beta = math.pi / 4.0
        clf = LinearClassifier(np.array([math.cos(beta), math.sin(beta)]), 0.0)
        assert loss_exact_linear(theta, clf, tol=1e-8) == pytest.approx(0.25, abs=1e-4)

    def test_zero_snr_cross_checked_by_monte_carlo(self):
        theta = MixtureParams([-1e-6, 0.0], [1e-6, 0.0], 1.0)
        beta = math.pi / 4.0
        clf = LinearClassifier(np.array([math.cos(beta), math.sin(beta)]), 0.0)
        q = loss_exact_linear(theta, clf, tol=1e-8)
        m, se = loss_monte_carlo(theta, clf.predict, 10**6, seed=77)
        assert abs(q - m) <= 3.0 * se

    def test_tolerance_domain(self):
        theta = MixtureParams([-1.0], [1.0], 1.0)
        clf = bayes_classifier(theta)
        with pytest.raises(DomainError, match=r"^tol must lie in \(0, 1e-4\], got 0\.001$"):
            loss_exact_linear(theta, clf, tol=1e-3)
        with pytest.raises(DomainError, match=r"^tol must lie in \(0, 1e-4\], got 0\.0$"):
            loss_exact_linear(theta, clf, tol=0.0)

    @pytest.mark.parametrize("bad", ["1e-9", True, None])
    def test_tolerance_not_coerced(self, bad):
        theta = MixtureParams([-1.0], [1.0], 1.0)
        with pytest.raises(DomainError, match="^tol "):
            loss_exact_linear(theta, bayes_classifier(theta), tol=bad)

    def test_permutation_symmetry_exact(self):
        theta = MixtureParams([-0.7, 0.2, 0.0], [0.7, -0.2, 0.3], 1.1)
        rng = np.random.default_rng(3)
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        t = 0.4
        a = loss_exact_linear(theta, LinearClassifier(v, t), tol=1e-9)
        b = loss_exact_linear(theta, LinearClassifier(-v, -t), tol=1e-9)
        assert a == b

    def test_monotone_in_beta_at_zero_offset(self):
        for xi in (0.1, 0.5, 1.0):
            theta = MixtureParams([-xi, 0.0], [xi, 0.0], 1.0)
            losses = []
            for beta in np.linspace(0.0, math.pi / 2.0 * 0.999, 25):
                v = np.array([math.cos(beta), math.sin(beta)])
                losses.append(loss_exact_linear(theta, LinearClassifier(v, 0.0), tol=1e-10))
            diffs = np.diff(losses)
            assert np.all(diffs >= -1e-9)

    def test_pure_offset_closed_form(self):
        # beta = 0: loss = 0.5 * (Phi(a + c) - Phi(a - c))
        from scipy.stats import norm

        theta = MixtureParams([-0.8, 0.0], [0.8, 0.0], 1.0)
        clf = LinearClassifier(np.array([1.0, 0.0]), 0.3)
        expected = 0.5 * (norm.cdf(0.8 + 0.3) - norm.cdf(0.8 - 0.3))
        assert loss_exact_linear(theta, clf, tol=1e-10) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize(
        "v",
        [[0.0, 1.0], [1.0, 0.0], [math.cos(0.3), math.sin(0.3)]],
        ids=["orthogonal", "aligned", "tilted"],
    )
    def test_value_is_a_float(self, v):
        theta = MixtureParams([-1.0, 0.0], [1.0, 0.0], 1.0)
        assert type(loss_exact_linear(theta, LinearClassifier(np.array(v), 0.2))) is float

    def test_out_of_range_value_raises(self, monkeypatch):
        # A quadrature that returns a value outside [0, 1/2], or NaN, is a fault.
        theta = MixtureParams([-1.0, 0.0], [1.0, 0.0], 1.0)
        clf = LinearClassifier(np.array([math.cos(0.3), math.sin(0.3)]), 0.2)
        for bad in (1.5, math.nan):
            monkeypatch.setattr(loss_module, "_adaptive_quad", lambda f, pts, tol, bad=bad: bad)
            with pytest.raises(NumericalError, match=r"\[0, 1/2\]"):
                loss_exact_linear(theta, clf)

    def test_dimension_mismatch(self):
        theta = MixtureParams([-1.0, 0.0], [1.0, 0.0], 1.0)
        with pytest.raises(DomainError, match="^classifier dimension 1 != mixture dimension 2$"):
            loss_exact_linear(theta, LinearClassifier(np.array([1.0]), 0.0), tol=1e-8)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_value_always_in_range(self, k):
        rng = np.random.default_rng(k)
        d = int(rng.integers(2, 5))
        h = rng.normal(size=d)
        h *= rng.uniform(0.01, 3.0) / np.linalg.norm(h)
        mu0 = rng.normal(size=d)
        theta = MixtureParams(mu0 - h, mu0 + h, float(rng.uniform(0.2, 3.0)))
        v = rng.normal(size=d)
        v /= np.linalg.norm(v)
        assert 0.0 <= loss_exact_linear(theta, LinearClassifier(v, float(rng.normal())), tol=1e-8) <= 0.5


def random_case(k, snr=(0.05, 3.0)):
    """A mixture in d = 2..5 with a random center and noise level, and a
    random linear rule, both drawn from seed k."""
    rng = np.random.default_rng(k)
    d = int(rng.integers(2, 6))
    sigma = float(rng.uniform(0.2, 3.0))
    h = rng.normal(size=d)
    h *= sigma * rng.uniform(*snr) / np.linalg.norm(h)
    mu0 = rng.normal(size=d)
    v = rng.normal(size=d)
    v /= np.linalg.norm(v)
    t = float(mu0 @ v + sigma * rng.normal())
    return rng, MixtureParams(mu0 - h, mu0 + h, sigma), LinearClassifier(v, t)


class TestLossProperties:
    """Invariances of the exact loss, its zero at the optimal rule, and its
    agreement with the Monte-Carlo estimate."""

    TOL = 1e-10

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50, deadline=None)
    def test_joint_translation(self, k):
        rng, theta, clf = random_case(k)
        c = 5.0 * rng.normal(size=theta.d)
        moved = MixtureParams(theta.mu1 + c, theta.mu2 + c, theta.sigma)
        clf_moved = LinearClassifier(clf.v, clf.t + float(clf.v @ c))
        before = loss_exact_linear(theta, clf, tol=self.TOL)
        assert loss_exact_linear(moved, clf_moved, tol=self.TOL) == pytest.approx(before, abs=1e-9)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50, deadline=None)
    def test_joint_rotation(self, k):
        rng, theta, clf = random_case(k)
        q, _ = np.linalg.qr(rng.normal(size=(theta.d, theta.d)))
        turned = MixtureParams(q @ theta.mu1, q @ theta.mu2, theta.sigma)
        before = loss_exact_linear(theta, clf, tol=self.TOL)
        after = loss_exact_linear(turned, LinearClassifier(q @ clf.v, clf.t), tol=self.TOL)
        assert after == pytest.approx(before, abs=1e-9)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50, deadline=None)
    def test_flipped_rule(self, k):
        _, theta, clf = random_case(k)
        before = loss_exact_linear(theta, clf, tol=self.TOL)
        flipped = loss_exact_linear(theta, LinearClassifier(-clf.v, -clf.t), tol=self.TOL)
        assert flipped == pytest.approx(before, abs=1e-9)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50, deadline=None)
    def test_optimal_rule_has_zero_loss(self, k):
        _, theta, _ = random_case(k)
        assert loss_exact_linear(theta, bayes_classifier(theta), tol=self.TOL) == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_monte_carlo_within_4_se(self, k):
        """|MC - exact| <= 4 SE, with SE = sqrt(p (1 - p) / N) at the exact p;
        losses under 1% are skipped, where the normal approximation to the
        binomial count is poor at N = 20000."""
        _, theta, clf = random_case(k, snr=(0.05, 2.0))
        exact = loss_exact_linear(theta, clf, tol=self.TOL)
        assume(exact >= 0.01)
        n_samples = 20_000
        mc, _ = loss_monte_carlo(theta, clf.predict, n_samples, seed=k)
        assert abs(mc - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / n_samples)


class TestLossMonteCarlo:
    def test_bayes_rule_exactly_zero(self):
        theta = MixtureParams([-0.4, 0.1], [0.4, -0.1], 1.0)
        clf = bayes_classifier(theta)
        assert loss_monte_carlo(theta, clf.predict, 10**4, seed=5) == (0.0, 0.0)

    def test_determinism(self):
        theta, theta_p = symmetric_pair(0.5, 0.3)
        clf = bayes_classifier(theta_p)
        assert loss_monte_carlo(theta, clf.predict, 10**4, seed=9) == loss_monte_carlo(theta, clf.predict, 10**4, seed=9)

    def test_agrees_with_quadrature(self):
        theta, theta_p = symmetric_pair(0.5, 0.3)
        clf = bayes_classifier(theta_p)
        q = loss_exact_linear(theta, clf, tol=1e-9)
        m, se = loss_monte_carlo(theta, clf.predict, 10**6, seed=21)
        assert abs(q - m) <= 3.0 * se

    def test_returns_estimate_and_std_err(self):
        theta, theta_p = symmetric_pair(0.5, 0.3)
        clf = bayes_classifier(theta_p)

        def swapped(points):  # labels opposite to clf's: p_hat > 1/2
            return 3 - clf.predict(points)

        n = 10**4
        out = loss_monte_carlo(theta, swapped, n, seed=9)
        ds = sample(theta, n, 9)
        p_hat = float(np.mean(swapped(ds.points) != bayes_classifier(theta).predict(ds.points)))
        assert p_hat > 0.5
        assert type(out) is tuple and len(out) == 2
        assert out == (1.0 - p_hat, math.sqrt(p_hat * (1.0 - p_hat) / n))

    def test_too_few_samples(self):
        theta = MixtureParams([-1.0], [1.0], 1.0)
        with pytest.raises(DomainError, match="^need at least 100 samples, got 99$"):
            loss_monte_carlo(theta, bayes_classifier(theta).predict, 99, seed=0)

    @pytest.mark.parametrize("n_samples", [150.9, True, float("nan")])
    def test_sample_count_must_be_whole(self, n_samples):
        theta = MixtureParams([-1.0], [1.0], 1.0)
        with pytest.raises(DomainError, match="^n_samples "):
            loss_monte_carlo(theta, bayes_classifier(theta).predict, n_samples, seed=0)
        clf = bayes_classifier(theta)
        assert loss_monte_carlo(theta, clf.predict, 150.0, seed=0) == loss_monte_carlo(theta, clf.predict, 150, seed=0)

    def test_nonlinear_rule(self):
        # quadrant rule in 2-D: still a valid clustering for the MC path
        theta = MixtureParams([-1.0, 0.0], [1.0, 0.0], 1.0)

        def classify(points):
            return np.where(points[:, 0] * points[:, 1] >= 0.0, 1, 2)

        est, se = loss_monte_carlo(theta, classify, 10**5, seed=3)
        assert 0.0 <= est <= 0.5
        assert se > 0.0

    def test_mc_quadrature_agreement_sweep(self):
        # 1000 random linear configurations, 4-sigma agreement in >= 99%
        rng = np.random.default_rng(12)
        disagree = 0
        for k in range(1000):
            d = int(rng.integers(2, 5))
            h = rng.normal(size=d)
            h *= rng.uniform(0.05, 1.5) / np.linalg.norm(h)
            mu0 = rng.normal(size=d)
            theta = MixtureParams(mu0 - h, mu0 + h, float(rng.uniform(0.5, 2.0)))
            v = rng.normal(size=d)
            v /= np.linalg.norm(v)
            t = float(mu0 @ v + rng.normal() * theta.sigma)
            clf = LinearClassifier(v, t)
            q = loss_exact_linear(theta, clf, tol=1e-9)
            m, se = loss_monte_carlo(theta, clf.predict, 10**4, seed=int(rng.integers(2**62)))
            if abs(q - m) > 4.0 * max(se, 1e-12):
                disagree += 1
        assert disagree <= 10


class TestGeometryDecomposition:
    def test_sandwich_grid_property(self):
        # quadrature loss sits inside the closed-form sandwich across the grid
        for xi in (0.05, 0.1, 0.2, 0.5, 1.0):
            for beta in (0.05, 0.1, 0.3, 0.6):
                theta, theta_p = symmetric_pair(xi, beta)
                value = loss_exact_linear(theta, bayes_classifier(theta_p), tol=1e-8)
                lower, upper = loss_bounds_symmetric(xi, beta)
                assert lower - 1e-7 <= value <= upper + 1e-7
