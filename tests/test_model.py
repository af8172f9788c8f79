"""Tests for the mixture model types and sampling."""

import math
import re
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixbench import model
from mixbench.errors import DomainError
from mixbench.loss import loss_exact_linear
from mixbench.model import (
    _LOG_2PI,
    Dataset,
    LinearClassifier,
    MixtureParams,
    _block_rows,
    _count,
    _row_sums,
    bayes_classifier,
    make_rng,
    mixture_log_density,
    sample,
    stream_seed,
)


def _reference_sample(theta: MixtureParams, n: int, seed: int) -> Dataset:
    """sample as it was written before its passes walked row blocks: masked
    whole-array +/- h passes, then the center."""
    if not isinstance(theta, MixtureParams):
        raise DomainError("theta must be a MixtureParams")
    n = _count("n", n)
    rng = make_rng(seed)
    labels = rng.integers(0, 2, size=n) + 1  # label 1 is Y = -1, label 2 is Y = +1
    up = (labels == 2)[:, None]
    # In place, with no (n, d) temporary. Each step rounds, so the order
    # sigma*z, +/- h, + center fixes the bits of every report.
    points = rng.standard_normal((n, theta.d))
    points *= theta.sigma
    h = theta.half_separation
    np.add(points, h, out=points, where=up)
    np.subtract(points, h, out=points, where=~up)
    points += theta.center
    points.setflags(write=False)
    labels.setflags(write=False)
    return Dataset(points=points, labels=labels)


def _reference_mixture_log_density(theta: MixtureParams, x: np.ndarray) -> float | np.ndarray:
    """mixture_log_density as it was written before it walked row blocks:
    whole-array broadcasts, one (n, d) temporary per component."""
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    pts = np.atleast_2d(arr)
    if pts.shape[1] != theta.d:
        raise DomainError(f"x has dimension {pts.shape[1]}, theta has {theta.d}")
    s2 = theta.sigma**2
    norm_const = -0.5 * theta.d * (_LOG_2PI + np.log(s2))
    q1 = np.sum((pts - theta.mu1) ** 2, axis=1) / (2.0 * s2)
    q2 = np.sum((pts - theta.mu2) ** 2, axis=1) / (2.0 * s2)
    out = norm_const + np.logaddexp(-q1, -q2) - np.log(2.0)
    return float(out[0]) if single else out


# Around the block edges of every dimension: one row, a block short of one
# row, one block, one row over, and a ragged last block.
_BLOCK_EDGE_DIMS = (1, 2, 3, 7, 8, 9, 31, 32, 33, 256)


def _block_edge_counts(d: int) -> tuple[int, ...]:
    step = _block_rows(10**9, d)
    return (1, step - 1, step, step + 1, 3 * step + 5)


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
        with pytest.raises(DomainError, match=r"^sigma must lie between 2\^-510 and 2\^510, got 0\.0$"):
            MixtureParams([0.0], [1.0], 0.0)
        with pytest.raises(DomainError, match=r"^sigma must lie between 2\^-510 and 2\^510, got -1\.0$"):
            MixtureParams([0.0], [1.0], -1.0)

    def test_non_finite_means(self):
        with pytest.raises(DomainError, match="^component means must be finite$"):
            MixtureParams([np.nan], [1.0], 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(DomainError, match=r"^mean shapes differ: \(2,\) vs \(1,\)$"):
            MixtureParams([0.0, 1.0], [1.0], 1.0)

    def test_zero_dimension_rejected(self):
        # It built a d = 0 mixture, whose (n, 0) sample failed only in pca_classifier.
        with pytest.raises(DomainError, match=r"^component means need d >= 1 entries, got shape \(0,\)$"):
            MixtureParams([], [], 1.0)

    @pytest.mark.parametrize("sigma", ["2.0", True, float("nan"), float("inf")])
    def test_sigma_must_be_a_finite_number(self, sigma):
        with pytest.raises(DomainError, match="^sigma must be (a number|finite)"):
            MixtureParams([0.0], [1.0], sigma)

    # mixture_log_density squares sigma: 1e200 squared was an OverflowError,
    # and 1e-200 squared is 0, which made the density nan.
    @pytest.mark.parametrize("sigma", [1e200, 1e-200, 2.0**511, 2.0**-511])
    def test_sigma_whose_square_leaves_the_float_range_rejected(self, sigma):
        with pytest.raises(DomainError, match="^sigma must lie between 2\\^-510 and 2\\^510, got "):
            MixtureParams([0.0], [1.0], sigma)

    @pytest.mark.parametrize("sigma", [2.0**-510, 2.0**510])
    def test_sigma_at_the_edges_of_the_float_range_accepted(self, sigma):
        theta = MixtureParams([0.0], [1.0], sigma)
        assert math.isfinite(mixture_log_density(theta, np.zeros(1)))

    # The loss and the bounds square h: at +-1e200 ||h|| was inf and the
    # aligned rule scored 0.5, at +-1e-200 ||h|| underflowed to 0 (a false
    # "mu1 == mu2"), and (mu1 + mu2)/2 overflowed at 1.7e308.
    @pytest.mark.parametrize(
        "mu1, mu2, message",
        [
            ([-1e200, 0.0], [1e200, 0.0], "each nonzero entry of h"),
            ([-1e-200, 0.0], [1e-200, 0.0], "each nonzero entry of h"),
            ([1.7e308], [1.7e308], "the center"),
            ([-1.7e308], [1.7e308], "each nonzero entry of h"),
            (np.zeros(16), np.full(16, 2.0**511), "\\|\\|h\\|\\| "),
        ],
        ids=["h-1e200", "h-1e-200", "center-overflow", "h-overflow", "norm-overflow"],
    )
    def test_derived_vectors_outside_the_float_range_rejected(self, mu1, mu2, message):
        with pytest.raises(DomainError, match=f"^{message}"):
            MixtureParams(mu1, mu2, 1.0)

    @pytest.mark.parametrize("scale", [2.0**-510, 2.0**510])
    def test_derived_vectors_at_the_edges_of_the_float_range_accepted(self, scale):
        theta = MixtureParams([-scale, 0.0], [scale, 0.0], 1.0)
        assert theta.half_separation_norm == scale
        assert loss_exact_linear(theta, LinearClassifier([1.0, 0.0], 0.0)) == 0.0

    def test_immutability(self):
        theta = MixtureParams([0.0], [1.0], 1.0)
        with pytest.raises(ValueError):
            theta.mu1[0] = 5.0

    def test_derived_vectors_read_only_and_computed_once(self):
        theta = MixtureParams([0.0, 1.0, -3.0], [2.0, 5.0, 1.0], 1.5)
        for name, expected in [("center", [1.0, 3.0, -1.0]), ("half_separation", [1.0, 2.0, 2.0])]:
            v = getattr(theta, name)
            assert v is getattr(theta, name)
            assert not v.flags.writeable and np.array_equal(v, expected)
            with pytest.raises(ValueError):
                v[0] = 7.0
            with pytest.raises(FrozenInstanceError):
                setattr(theta, name, np.zeros(3))
        assert theta.half_separation_norm == 3.0 and theta.snr == 2.0
        # Not fields: the JSON record and equality see only mu1, mu2 and sigma.
        assert set(theta.to_json_dict()) == {"mu1", "mu2", "sigma"}


class TestLinearClassifier:
    def test_canonical_sign(self):
        a = LinearClassifier(np.array([-1.0, 0.0]), 0.5)
        b = LinearClassifier(np.array([1.0, 0.0]), -0.5)
        assert np.array_equal(a.v, b.v)
        assert a.t == b.t

    def test_non_unit_direction_rejected(self):
        with pytest.raises(DomainError, match=r"^direction must be a unit vector, \|v\| = "):
            LinearClassifier(np.array([1.0, 1.0]), 0.0)

    @pytest.mark.parametrize("t", [float("nan"), float("-inf"), "0.5", True])
    def test_threshold_must_be_a_finite_number(self, t):
        with pytest.raises(DomainError, match="^t must be (a number|finite)"):
            LinearClassifier(np.array([1.0, 0.0]), t)

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
        with pytest.raises(DomainError, match="^n must be >= 1, got 0$"):
            sample(theta, 0, seed=0)

    def test_count_too_long_to_print_named_by_bit_length(self):
        # Formatting the integer itself was a ValueError: Python prints no
        # integer of more than 4300 digits.
        theta = MixtureParams([-1.0], [1.0], 1.0)
        with pytest.raises(DomainError, match="^n must be >= 1, got an integer of 16610 bits$"):
            sample(theta, -(10**5000), 0)

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
        b = sample(MixtureParams(theta.mu1 + c, theta.mu2 + c, theta.sigma), 200, seed=5)
        assert np.array_equal(b.points, a.points + c)
        assert np.array_equal(a.labels, b.labels)

    def test_shift_equivariance_generic(self):
        rng = np.random.default_rng(8)
        h = rng.normal(size=3)
        theta = MixtureParams(-h, h, 0.9)
        c = rng.normal(size=3)
        a = sample(theta, 200, seed=5)
        b = sample(MixtureParams(theta.mu1 + c, theta.mu2 + c, theta.sigma), 200, seed=5)
        np.testing.assert_allclose(b.points, a.points + c, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", _BLOCK_EDGE_DIMS)
    def test_bits_equal_whole_array_reference(self, d):
        rng = np.random.default_rng(d)
        theta = MixtureParams(rng.normal(size=d) + 2.0, rng.normal(size=d) - 1.0, 1.7)
        for n in _block_edge_counts(d):
            ds = sample(theta, n, seed=n)
            ref = _reference_sample(theta, n, seed=n)
            assert ds.points.tobytes() == ref.points.tobytes()
            assert ds.labels.tobytes() == ref.labels.tobytes()

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
        with pytest.raises(DomainError, match="^mu1 == mu2: no separating hyperplane$"):
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
        with pytest.raises(DomainError, match="^x has dimension 3, theta has 2$"):
            mixture_log_density(theta, np.zeros(3))

    # 4, 5, 6, 10, 15 and 16: each of _row_sums's column orders and its np.sum edge.
    @pytest.mark.parametrize("d", _BLOCK_EDGE_DIMS + (161, 4, 5, 6, 10, 15, 16))
    def test_bits_equal_whole_array_reference(self, d):
        rng = np.random.default_rng(100 + d)
        theta = MixtureParams(rng.normal(size=d) + 2.0, rng.normal(size=d) - 1.0, 1.7)
        other = MixtureParams(rng.normal(size=d), rng.normal(size=d), 1.7)
        for n in _block_edge_counts(d):
            pts = sample(theta, n, seed=n).points
            for t in (theta, other):
                got = mixture_log_density(t, pts)
                assert got.tobytes() == _reference_mixture_log_density(t, pts).tobytes()
                single = mixture_log_density(t, pts[-1])
                assert type(single) is float and single == _reference_mixture_log_density(t, pts[-1])

    # Pins numpy's order for a short row: a numpy that sums rows otherwise fails here.
    @pytest.mark.parametrize("d", range(17))
    def test_row_sums_equal_np_sum(self, d):
        rng = np.random.default_rng(d)
        for m in (1, 7, 2048, 2049):
            rows = rng.choice([-1.0, 1.0], size=(m, d)) * rng.uniform(0.5, 1.5, size=(m, d))
            rows *= 10.0 ** rng.choice([-300, -5, 0, 5, 300], size=(m, d))
            rows[rng.random((m, d)) < 0.2] = 0.0
            rows[rng.random((m, d)) < 0.1] = -0.0
            rows[-1] = -0.0  # numpy starts a row's sum at +0.0
            out = np.empty(m)
            assert _row_sums(rows.copy(), out) is out
            assert out.tobytes() == np.sum(rows, axis=1).tobytes()

    def test_holds_its_output_and_one_block(self):
        theta = MixtureParams(np.full(8, -0.5), np.full(8, 0.5), 1.3)
        pts = sample(theta, 100_000, seed=3).points
        step = _block_rows(100_000, 8)
        block_buffers = 3 * 8 * step * 8 + 2 * 8 * step  # two tiled means, one (step, d) buffer, q
        tracemalloc.start()
        try:
            out = mixture_log_density(theta, pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + block_buffers + 2**20

    def test_integrates_to_one(self):
        # 1-D Riemann check as an independent oracle
        theta = MixtureParams([-1.0], [1.0], 0.7)
        xs = np.linspace(-8, 8, 20001)
        dens = np.exp([mixture_log_density(theta, np.array([x])) for x in xs])
        assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-6)


class TestStreamSeed:
    def test_deterministic(self):
        assert stream_seed(42, 3) == stream_seed(42, 3)

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**63, 2**64 - 1, np.uint64(2**64 - 1), 7.0])
    def test_valid_seeds_keep_their_streams(self, seed):
        whole = int(seed)
        want = np.random.SeedSequence(entropy=whole, spawn_key=(3, 0)).generate_state(1, np.uint64)[0]
        assert stream_seed(seed, 3, 0) == int(want)
        draws = np.random.Generator(np.random.Philox(np.random.SeedSequence(whole))).standard_normal(4)
        assert make_rng(seed).standard_normal(4).tobytes() == draws.tobytes()

    @pytest.mark.parametrize("seed", [1.7, 2.9, -1, 2**64, pytest.param(10**400, id="10**400"), True, False, "1", None, math.nan, math.inf])
    def test_bad_seed_rejected_naming_it(self, seed):
        with pytest.raises(DomainError, match=r"^seed .*" + re.escape(repr(seed))):
            make_rng(seed)
        with pytest.raises(DomainError, match=r"^seed "):
            stream_seed(seed, 0)

    @pytest.mark.parametrize("seed", [-(10**5000), 10**5000], ids=["-10**5000", "10**5000"])
    def test_seed_too_long_to_print_named_by_bit_length(self, seed):
        for call in (make_rng, lambda s: stream_seed(s, 0)):
            with pytest.raises(DomainError, match=r"^seed must lie in \[0, 2\^64\), got an integer of 16610 bits$"):
                call(seed)

    @pytest.mark.parametrize("index", [1.5, -1, 2**64, True, "0"])
    def test_bad_path_index_rejected(self, index):
        with pytest.raises(DomainError, match=r"^seed path index "):
            stream_seed(0, index)
        with pytest.raises(DomainError, match=r"^seed path index "):
            stream_seed(0, 1, index)

    def test_sample_rejects_fractional_seed(self):
        theta = MixtureParams([-1.0, 0.0], [1.0, 0.0], 1.0)
        with pytest.raises(DomainError, match=r"^seed .*1\.7"):
            sample(theta, 5, 1.7)

    def test_distinct_across_indices(self):
        seeds = {stream_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_nested_paths(self):
        assert stream_seed(42, 1, 0) != stream_seed(42, 1, 1)


class TestDatasetShape:
    @pytest.mark.parametrize(
        "shape, shown",
        [((2, 2, 2), "(2, 2, 2)"), ((3, 0), "(3, 0)"), ((0,), "(1, 0)"), ((0, 0), "(0, 0)")],
        ids=["3d", "no-columns", "empty-vector", "empty-matrix"],
    )
    def test_points_must_be_2d_with_a_column(self, shape, shown):
        # A 3-D array failed as "a dataset needs at least one row"; (n, 0) was taken.
        with pytest.raises(DomainError, match="^" + re.escape(f"dataset points must be 2-D with at least one column, got shape {shown}") + "$"):
            Dataset(points=np.zeros(shape))

    def test_no_rows_rejected(self):
        with pytest.raises(DomainError, match="^a dataset needs at least one row$"):
            Dataset(points=np.zeros((0, 3)))


class TestDatasetCopies:
    """Dataset takes a read-only float64 array that owns its data as it is and
    copies anything else, so no caller can change a dataset after the fact."""

    def test_read_only_owner_taken_as_is(self):
        pts = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        pts.setflags(write=False)
        assert Dataset(points=pts).points is pts

    def test_finite_points_whose_sum_overflows_accepted(self):
        ds = Dataset(points=[[1e308, 1e308]])
        assert np.array_equal(ds.points, [[1e308, 1e308]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (2, 1), (4, 2)])
    def test_any_non_finite_entry_rejected(self, bad, where):
        pts = np.ones((5, 3))
        pts[where] = bad
        with pytest.raises(DomainError, match="^all data rows must be finite$"):
            Dataset(points=pts)

    def test_sample_makes_no_points_sized_temporary(self):
        tracemalloc.start()
        try:
            ds = sample(MixtureParams(np.zeros(256), np.ones(256), 1.0), 20000, seed=1)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.points.nbytes <= kept
        assert peak < kept + 2**20

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
        with pytest.raises(DomainError, match="^all data rows must be finite$"):
            Dataset(points=pts)
        labels = np.array([1, 3])
        labels.setflags(write=False)
        with pytest.raises(DomainError, match=r"^labels must take values in \{1, 2\}$"):
            Dataset(points=np.zeros((2, 2)), labels=labels)


class TestDatasetSerialization:
    @pytest.mark.parametrize("labels", [np.array([1.7, 2.2]), [1.0, 2.5], np.array([1.0, 2.0000001])])
    def test_fractional_labels_rejected(self, labels):
        with pytest.raises(DomainError, match=r"^labels must take values in \{1, 2\}$"):
            Dataset(points=np.zeros((2, 2)), labels=labels)

    @pytest.mark.parametrize("labels", [np.array([1.0, 2.0]), [2.0, 1.0], np.array([1, 2], dtype=np.int8)])
    def test_whole_valued_labels_accepted(self, labels):
        ds = Dataset(points=np.zeros((2, 2)), labels=labels)
        assert ds.labels.dtype == np.int64
        assert np.array_equal(ds.labels, np.asarray(labels))

    def test_bad_labels_rejected(self):
        with pytest.raises(DomainError, match=r"^labels must take values in \{1, 2\}$"):
            Dataset(points=np.zeros((2, 2)), labels=np.array([1, 3]))
        with pytest.raises(DomainError, match=r"^labels have shape \(3,\), expected \(2,\)$"):
            Dataset(points=np.zeros((2, 2)), labels=np.array([1, 2, 1]))
