"""Tests for the mixture model types and sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixbench import model
from mixbench.errors import (
    DegenerateSeparation,
    DomainError,
    EmptySample,
    InvalidClassifier,
    InvalidParams,
    ShapeError,
)
from mixbench.model import (
    Dataset,
    LinearClassifier,
    MixtureParams,
    bayes_classifier,
    mixture_log_density,
    sample,
    stream_seed,
)


class TestMixtureParams:
    def test_derived_quantities(self):
        theta = MixtureParams([0.0, 0.0], [2.0, 2.0], 1.5)
        assert np.allclose(theta.center, [1.0, 1.0])
        assert np.allclose(theta.half_separation, [1.0, 1.0])
        assert theta.separation == pytest.approx(2.0 * math.sqrt(2.0))
        assert theta.snr == pytest.approx(math.sqrt(2.0) / 1.5)

    def test_half_norm_squared_is_quarter_lambda_squared(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            mu1 = rng.normal(size=4)
            mu2 = rng.normal(size=4)
            theta = MixtureParams(mu1, mu2, 0.7)
            h2 = float(np.linalg.norm(theta.half_separation) ** 2)
            assert h2 == pytest.approx(theta.separation**2 / 4.0, rel=1e-12)

    def test_support_matches_nonzero_pattern(self):
        theta = MixtureParams([0.0, 1.0, 0.0, 2.0], [0.0, 1.0, 3.0, -2.0], 1.0)
        assert theta.support == (2, 3)
        assert theta.sparsity == 2

    def test_invalid_sigma(self):
        with pytest.raises(InvalidParams):
            MixtureParams([0.0], [1.0], 0.0)
        with pytest.raises(InvalidParams):
            MixtureParams([0.0], [1.0], -1.0)

    def test_non_finite_means(self):
        with pytest.raises(InvalidParams):
            MixtureParams([np.nan], [1.0], 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            MixtureParams([0.0, 1.0], [1.0], 1.0)

    def test_immutability(self):
        theta = MixtureParams([0.0], [1.0], 1.0)
        with pytest.raises(ValueError):
            theta.mu1[0] = 5.0


class TestLinearClassifier:
    def test_canonical_sign(self):
        a = LinearClassifier(np.array([-1.0, 0.0]), 0.5)
        b = LinearClassifier(np.array([1.0, 0.0]), -0.5)
        assert np.array_equal(a.v, b.v)
        assert a.t == b.t

    def test_non_unit_direction_rejected(self):
        with pytest.raises(InvalidClassifier):
            LinearClassifier(np.array([1.0, 1.0]), 0.0)

    def test_ties_classify_as_label_one(self):
        clf = LinearClassifier(np.array([1.0, 0.0]), 0.25)
        assert clf.predict(np.array([[0.25, 3.0]]))[0] == 1

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_canonicalization_preserves_partition(self, k):
        rng = np.random.default_rng(k)
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v)
        t = float(rng.normal())
        a = LinearClassifier(v, t)
        b = LinearClassifier(-v, -t)
        pts = rng.normal(size=(50, 3))
        assert np.array_equal(a.predict(pts), b.predict(pts))


class TestSample:
    def test_determinism(self):
        theta = MixtureParams([-1.0, 0.0], [1.0, 0.0], 1.0)
        a = sample(theta, 5, seed=7)
        b = sample(theta, 5, seed=7)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        theta = MixtureParams([-1.0, 0.0], [1.0, 0.0], 1.0)
        a = sample(theta, 100, seed=1)
        b = sample(theta, 100, seed=2)
        assert not np.array_equal(a.points, b.points)

    def test_law_of_large_numbers(self):
        theta = MixtureParams([-1.0, 0.0], [1.0, 0.0], 1.0)
        ds = sample(theta, 10**6, seed=3)
        assert np.linalg.norm(ds.points.mean(axis=0) - theta.center) <= 0.01

    def test_empty_sample(self):
        theta = MixtureParams([-1.0], [1.0], 1.0)
        with pytest.raises(EmptySample):
            sample(theta, 0, seed=0)

    @pytest.mark.parametrize("n", [2.7, True, float("inf")])
    def test_count_must_be_whole(self, n):
        theta = MixtureParams([-1.0], [1.0], 1.0)
        with pytest.raises(DomainError, match="^n "):
            sample(theta, n, seed=1)
        assert sample(theta, 3.0, seed=1).n == 3

    def test_points_read_only_and_taken_without_copy(self, monkeypatch):
        handed = []

        class Recording(Dataset):
            def __post_init__(self):
                handed.append((self.points, self.labels))
                super().__post_init__()

        monkeypatch.setattr(model, "Dataset", Recording)
        theta = MixtureParams([-1.0, 0.0], [1.0, 0.0], 1.0)
        ds = sample(theta, 50, seed=4)
        assert ds.points is handed[0][0] and ds.labels is handed[0][1]
        assert not ds.points.flags.writeable and not ds.labels.flags.writeable
        with pytest.raises(ValueError):
            ds.points[0, 0] = 1.0

    def test_label_frequencies(self):
        theta = MixtureParams([-1.0, 0.0], [1.0, 0.0], 2.0)
        n = 10**5
        ds = sample(theta, n, seed=11)
        freq = np.mean(ds.labels == 1)
        assert abs(freq - 0.5) <= 4.0 / math.sqrt(n)

    def test_shift_equivariance_exact(self):
        # dyadic h and c keep the shifted-parameter arithmetic exact, so the
        # sampled points must match bit for bit after translation
        h = np.array([0.25, -0.5, 0.125])
        theta = MixtureParams(-h, h, 1.3)
        c = np.array([2.5, -1.25, 0.5])
        a = sample(theta, 200, seed=5)
        b = sample(theta.shifted(c), 200, seed=5)
        assert np.array_equal(b.points, a.points + c)
        assert np.array_equal(a.labels, b.labels)

    def test_shift_equivariance_generic(self):
        rng = np.random.default_rng(8)
        h = rng.normal(size=3)
        theta = MixtureParams(-h, h, 0.9)
        c = rng.normal(size=3)
        a = sample(theta, 200, seed=5)
        b = sample(theta.shifted(c), 200, seed=5)
        np.testing.assert_allclose(b.points, a.points + c, rtol=0, atol=1e-12)

    def test_labels_match_components(self):
        h = np.array([10.0, 0.0])
        theta = MixtureParams(-h, h, 0.1)
        ds = sample(theta, 500, seed=9)
        # with snr 100, the drawn component is identifiable from the sign
        assert np.array_equal(ds.labels, np.where(ds.points[:, 0] < 0, 1, 2))


class TestBayesClassifier:
    def test_symmetric_pair(self):
        theta = MixtureParams([-1.0, 0.0], [1.0, 0.0], 1.0)
        clf = bayes_classifier(theta)
        assert np.allclose(clf.v, [1.0, 0.0])
        assert clf.t == pytest.approx(0.0, abs=1e-15)

    def test_midpoint_hyperplane(self):
        theta = MixtureParams([0.0, 0.0], [2.0, 2.0], 1.0)
        clf = bayes_classifier(theta)
        assert np.allclose(clf.v, [1.0 / math.sqrt(2.0)] * 2)
        assert clf.t == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_degenerate(self):
        theta = MixtureParams([1.0, 1.0], [1.0, 1.0], 1.0)
        with pytest.raises(DegenerateSeparation):
            bayes_classifier(theta)

    def test_agrees_with_likelihood_comparison(self):
        rng = np.random.default_rng(4)
        theta = MixtureParams(rng.normal(size=3), rng.normal(size=3), 0.8)
        clf = bayes_classifier(theta)
        pts = rng.normal(size=(200, 3), scale=2.0)
        d1 = np.sum((pts - theta.mu1) ** 2, axis=1)
        d2 = np.sum((pts - theta.mu2) ** 2, axis=1)
        by_distance = np.where(d1 <= d2, 1, 2)
        predicted = clf.predict(pts)
        # equal up to the global label swap; ties are measure zero
        agree = float(np.mean(by_distance == predicted))
        assert agree in (0.0, 1.0)


class TestMixtureLogDensity:
    def test_midpoint_value(self):
        h = np.array([0.6, 0.8])
        theta = MixtureParams(-h, h, 1.4)
        d = theta.d
        expected = -0.5 * d * math.log(2 * math.pi * 1.4**2) - 1.0 / (2 * 1.4**2)
        assert mixture_log_density(theta, np.zeros(2)) == pytest.approx(expected, rel=1e-12)

    def test_one_dimensional_value(self):
        theta = MixtureParams([-1.0], [1.0], 1.0)
        # p(0) = phi(1), so log p = log phi(1)
        assert mixture_log_density(theta, np.array([0.0])) == pytest.approx(-1.4189385332046727, rel=1e-12)

    def test_extreme_point_is_finite(self):
        theta = MixtureParams([-1.0, 0.0], [1.0, 0.0], 1.0)
        x = np.zeros(2)
        x[0] = 100.0
        assert np.isfinite(mixture_log_density(theta, x))
        x[0] = -500.0
        assert np.isfinite(mixture_log_density(theta, x))

    def test_batch_matches_single(self):
        theta = MixtureParams([-0.5, 0.1], [0.5, -0.1], 0.9)
        pts = np.random.default_rng(2).normal(size=(10, 2))
        batch = mixture_log_density(theta, pts)
        singles = [mixture_log_density(theta, p) for p in pts]
        assert np.allclose(batch, singles, rtol=0, atol=0)

    def test_dimension_mismatch(self):
        theta = MixtureParams([-1.0, 0.0], [1.0, 0.0], 1.0)
        with pytest.raises(ShapeError):
            mixture_log_density(theta, np.zeros(3))

    def test_integrates_to_one(self):
        # 1-D Riemann check as an independent oracle
        theta = MixtureParams([-1.0], [1.0], 0.7)
        xs = np.linspace(-8, 8, 20001)
        dens = np.exp([mixture_log_density(theta, np.array([x])) for x in xs])
        assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-6)


class TestStreamSeed:
    def test_deterministic(self):
        assert stream_seed(42, 3) == stream_seed(42, 3)

    def test_distinct_across_indices(self):
        seeds = {stream_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_nested_paths(self):
        assert stream_seed(42, 1, 0) != stream_seed(42, 1, 1)


class TestDatasetCopies:
    """Dataset takes a read-only float64 array that owns its data as it is and
    copies anything else, so no caller can change a dataset after the fact."""

    def test_read_only_owner_taken_as_is(self):
        pts = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        pts.setflags(write=False)
        assert Dataset(points=pts).points is pts

    def test_writeable_input_copied(self):
        pts = np.arange(6.0).reshape(3, 2)
        ds = Dataset(points=pts)
        pts[0, 0] = 99.0
        assert ds.points is not pts
        assert ds.points[0, 0] == 0.0
        assert not ds.points.flags.writeable

    def test_read_only_view_of_writeable_base_copied(self):
        base = np.arange(8.0).reshape(4, 2)
        view = base[:3]
        view.setflags(write=False)
        ds = Dataset(points=view)
        base[0, 0] = 99.0
        assert ds.points is not view
        assert ds.points[0, 0] == 0.0

    @pytest.mark.parametrize(
        "pts", [[[0.0, 1.0], [2.0, 3.0]], np.arange(4, dtype=np.float32).reshape(2, 2), np.arange(4).reshape(2, 2)]
    )
    def test_lists_and_other_dtypes_copied(self, pts):
        if isinstance(pts, np.ndarray):
            pts.setflags(write=False)
        ds = Dataset(points=pts)
        assert ds.points.dtype == np.float64 and ds.points is not pts
        assert np.array_equal(ds.points, np.asarray(pts, dtype=np.float64))

    def test_checks_still_run_on_taken_arrays(self):
        pts = np.array([[0.0, np.nan]])
        pts.setflags(write=False)
        with pytest.raises(InvalidParams):
            Dataset(points=pts)
        labels = np.array([1, 3])
        labels.setflags(write=False)
        with pytest.raises(InvalidParams):
            Dataset(points=np.zeros((2, 2)), labels=labels)


class TestDatasetSerialization:
    @pytest.mark.parametrize("labels", [np.array([1.7, 2.2]), [1.0, 2.5], np.array([1.0, 2.0000001])])
    def test_fractional_labels_rejected(self, labels):
        with pytest.raises(InvalidParams):
            Dataset(points=np.zeros((2, 2)), labels=labels)

    @pytest.mark.parametrize("labels", [np.array([1.0, 2.0]), [2.0, 1.0], np.array([1, 2], dtype=np.int8)])
    def test_whole_valued_labels_accepted(self, labels):
        ds = Dataset(points=np.zeros((2, 2)), labels=labels)
        assert ds.labels.dtype == np.int64
        assert np.array_equal(ds.labels, np.asarray(labels))

    def test_bad_labels_rejected(self):
        with pytest.raises(InvalidParams):
            Dataset(points=np.zeros((2, 2)), labels=np.array([1, 3]))
        with pytest.raises(ShapeError):
            Dataset(points=np.zeros((2, 2)), labels=np.array([1, 2, 1]))
