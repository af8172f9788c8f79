"""Tests for exact and Monte-Carlo clustering loss."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixbench.errors import DomainError, InvalidTolerance, TooFewSamples
from mixbench.loss import (
    LossEstimate,
    g_function,
    geometry_decomposition,
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
        value = loss_exact_linear(theta, bayes_classifier(theta_p), tol=1e-9).value
        lower, upper = loss_bounds_symmetric(0.5, math.pi / 6.0)
        assert lower - 1e-8 <= value <= upper + 1e-8

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            loss_bounds_symmetric(0.0, 0.1)
        with pytest.raises(DomainError):
            loss_bounds_symmetric(0.5, math.pi / 2.0)
        with pytest.raises(DomainError):
            loss_bounds_symmetric(0.5, -0.01)


class TestLossEstimate:
    def test_out_of_range_rejected_and_fields(self):
        for value in (0.6, -0.1, float("nan")):
            with pytest.raises(DomainError, match="1/2"):
                LossEstimate(value=value, method="quadrature")
        est = LossEstimate(value=0.5, method="quadrature")
        assert est.value == 0.5
        assert est.std_err == 0.0

    def test_bad_method(self):
        with pytest.raises(DomainError):
            LossEstimate(value=0.1, method="guess")

    def test_json(self):
        est = LossEstimate(value=0.25, method="monte_carlo", std_err=0.01, n_samples=100)
        obj = est.to_json_dict()
        assert obj == {"value": 0.25, "method": "monte_carlo", "std_err": 0.01, "n_samples": 100}


class TestLossExactLinear:
    def test_bayes_classifier_has_zero_loss(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            d = int(rng.integers(1, 6))
            mu1 = rng.normal(size=d)
            mu2 = mu1 + rng.normal(size=d)
            theta = MixtureParams(mu1, mu2, float(rng.uniform(0.3, 2.0)))
            est = loss_exact_linear(theta, bayes_classifier(theta), tol=1e-8)
            assert est.value <= 1e-8

    def test_orthogonal_direction_is_half(self):
        theta = MixtureParams([-1.0, 0.0], [1.0, 0.0], 1.0)
        for t in (-2.0, 0.0, 1.3):
            clf = LinearClassifier(np.array([0.0, 1.0]), t)
            assert loss_exact_linear(theta, clf, tol=1e-8).value == 0.5

    def test_zero_snr_limit_is_beta_over_pi(self):
        # rotational symmetry: disagreement wedge has angle fraction beta/pi
        theta = MixtureParams([-1e-6, 0.0], [1e-6, 0.0], 1.0)
        beta = math.pi / 4.0
        clf = LinearClassifier(np.array([math.cos(beta), math.sin(beta)]), 0.0)
        est = loss_exact_linear(theta, clf, tol=1e-8)
        assert est.value == pytest.approx(0.25, abs=1e-4)

    def test_zero_snr_cross_checked_by_monte_carlo(self):
        theta = MixtureParams([-1e-6, 0.0], [1e-6, 0.0], 1.0)
        beta = math.pi / 4.0
        clf = LinearClassifier(np.array([math.cos(beta), math.sin(beta)]), 0.0)
        q = loss_exact_linear(theta, clf, tol=1e-8)
        m = loss_monte_carlo(theta, clf.predict, 10**6, seed=77)
        assert abs(q.value - m.value) <= 3.0 * m.std_err

    def test_tolerance_domain(self):
        theta = MixtureParams([-1.0], [1.0], 1.0)
        clf = bayes_classifier(theta)
        with pytest.raises(InvalidTolerance):
            loss_exact_linear(theta, clf, tol=1e-3)
        with pytest.raises(InvalidTolerance):
            loss_exact_linear(theta, clf, tol=0.0)

    def test_permutation_symmetry_exact(self):
        theta = MixtureParams([-0.7, 0.2, 0.0], [0.7, -0.2, 0.3], 1.1)
        rng = np.random.default_rng(3)
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        t = 0.4
        a = loss_exact_linear(theta, LinearClassifier(v, t), tol=1e-9)
        b = loss_exact_linear(theta, LinearClassifier(-v, -t), tol=1e-9)
        assert a.value == b.value

    def test_monotone_in_beta_at_zero_offset(self):
        for xi in (0.1, 0.5, 1.0):
            theta = MixtureParams([-xi, 0.0], [xi, 0.0], 1.0)
            losses = []
            for beta in np.linspace(0.0, math.pi / 2.0 * 0.999, 25):
                v = np.array([math.cos(beta), math.sin(beta)])
                losses.append(loss_exact_linear(theta, LinearClassifier(v, 0.0), tol=1e-10).value)
            diffs = np.diff(losses)
            assert np.all(diffs >= -1e-9)

    def test_pure_offset_closed_form(self):
        # beta = 0: loss = 0.5 * (Phi(a + c) - Phi(a - c))
        from scipy.stats import norm

        theta = MixtureParams([-0.8, 0.0], [0.8, 0.0], 1.0)
        clf = LinearClassifier(np.array([1.0, 0.0]), 0.3)
        expected = 0.5 * (norm.cdf(0.8 + 0.3) - norm.cdf(0.8 - 0.3))
        assert loss_exact_linear(theta, clf, tol=1e-10).value == pytest.approx(expected, rel=1e-10)

    def test_dimension_mismatch(self):
        theta = MixtureParams([-1.0, 0.0], [1.0, 0.0], 1.0)
        from mixbench.errors import InvalidClassifier

        with pytest.raises(InvalidClassifier):
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
        est = loss_exact_linear(theta, LinearClassifier(v, float(rng.normal())), tol=1e-8)
        assert 0.0 <= est.value <= 0.5


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
        before = loss_exact_linear(theta, clf, tol=self.TOL).value
        assert loss_exact_linear(moved, clf_moved, tol=self.TOL).value == pytest.approx(before, abs=1e-9)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50, deadline=None)
    def test_joint_rotation(self, k):
        rng, theta, clf = random_case(k)
        q, _ = np.linalg.qr(rng.normal(size=(theta.d, theta.d)))
        turned = MixtureParams(q @ theta.mu1, q @ theta.mu2, theta.sigma)
        before = loss_exact_linear(theta, clf, tol=self.TOL).value
        after = loss_exact_linear(turned, LinearClassifier(q @ clf.v, clf.t), tol=self.TOL).value
        assert after == pytest.approx(before, abs=1e-9)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50, deadline=None)
    def test_flipped_rule(self, k):
        _, theta, clf = random_case(k)
        before = loss_exact_linear(theta, clf, tol=self.TOL).value
        flipped = loss_exact_linear(theta, LinearClassifier(-clf.v, -clf.t), tol=self.TOL).value
        assert flipped == pytest.approx(before, abs=1e-9)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50, deadline=None)
    def test_optimal_rule_has_zero_loss(self, k):
        _, theta, _ = random_case(k)
        assert loss_exact_linear(theta, bayes_classifier(theta), tol=self.TOL).value == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_monte_carlo_within_4_se(self, k):
        """|MC - exact| <= 4 SE, with SE = sqrt(p (1 - p) / N) at the exact p;
        losses under 1% are skipped, where the normal approximation to the
        binomial count is poor at N = 20000."""
        _, theta, clf = random_case(k, snr=(0.05, 2.0))
        exact = loss_exact_linear(theta, clf, tol=self.TOL).value
        assume(exact >= 0.01)
        n_samples = 20_000
        mc = loss_monte_carlo(theta, clf.predict, n_samples, seed=k).value
        assert abs(mc - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / n_samples)


class TestLossMonteCarlo:
    def test_bayes_rule_exactly_zero(self):
        theta = MixtureParams([-0.4, 0.1], [0.4, -0.1], 1.0)
        clf = bayes_classifier(theta)
        est = loss_monte_carlo(theta, clf.predict, 10**4, seed=5)
        assert est.value == 0.0
        assert est.std_err == 0.0

    def test_determinism(self):
        theta, theta_p = symmetric_pair(0.5, 0.3)
        clf = bayes_classifier(theta_p)
        a = loss_monte_carlo(theta, clf.predict, 10**4, seed=9)
        b = loss_monte_carlo(theta, clf.predict, 10**4, seed=9)
        assert a.value == b.value and a.std_err == b.std_err

    def test_agrees_with_quadrature(self):
        theta, theta_p = symmetric_pair(0.5, 0.3)
        clf = bayes_classifier(theta_p)
        q = loss_exact_linear(theta, clf, tol=1e-9)
        m = loss_monte_carlo(theta, clf.predict, 10**6, seed=21)
        assert abs(q.value - m.value) <= 3.0 * m.std_err

    def test_too_few_samples(self):
        theta = MixtureParams([-1.0], [1.0], 1.0)
        with pytest.raises(TooFewSamples):
            loss_monte_carlo(theta, bayes_classifier(theta).predict, 99, seed=0)

    @pytest.mark.parametrize("n_samples", [150.9, True, float("nan")])
    def test_sample_count_must_be_whole(self, n_samples):
        theta = MixtureParams([-1.0], [1.0], 1.0)
        with pytest.raises(DomainError, match="^n_samples "):
            loss_monte_carlo(theta, bayes_classifier(theta).predict, n_samples, seed=0)
        assert loss_monte_carlo(theta, bayes_classifier(theta).predict, 150.0, seed=0).n_samples == 150

    def test_nonlinear_rule(self):
        # quadrant rule in 2-D: still a valid clustering for the MC path
        theta = MixtureParams([-1.0, 0.0], [1.0, 0.0], 1.0)

        def classify(points):
            return np.where(points[:, 0] * points[:, 1] >= 0.0, 1, 2)

        est = loss_monte_carlo(theta, classify, 10**5, seed=3)
        assert 0.0 <= est.value <= 0.5
        assert est.std_err > 0.0

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
            m = loss_monte_carlo(theta, clf.predict, 10**4, seed=int(rng.integers(2**62)))
            if abs(q.value - m.value) > 4.0 * max(m.std_err, 1e-12):
                disagree += 1
        assert disagree <= 10


class TestGeometryDecomposition:
    def test_fields(self):
        theta = MixtureParams([-1.0, 0.0], [1.0, 0.0], 2.0)
        beta = 0.3
        v = np.array([math.cos(beta), math.sin(beta)])
        clf = LinearClassifier(v, float(0.5))
        geo = geometry_decomposition(theta, clf)
        assert geo.cos_beta == pytest.approx(math.cos(beta), rel=1e-12)
        assert geo.r == pytest.approx(0.5 / math.cos(beta), rel=1e-12)
        assert geo.snr == pytest.approx(0.5, rel=1e-12)

    def test_sandwich_grid_property(self):
        # quadrature loss sits inside the closed-form sandwich across the grid
        for xi in (0.05, 0.1, 0.2, 0.5, 1.0):
            for beta in (0.05, 0.1, 0.3, 0.6):
                theta, theta_p = symmetric_pair(xi, beta)
                value = loss_exact_linear(theta, bayes_classifier(theta_p), tol=1e-8).value
                lower, upper = loss_bounds_symmetric(xi, beta)
                assert lower - 1e-7 <= value <= upper + 1e-7
