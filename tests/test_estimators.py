"""Tests for PCA-split estimators, screening and the spectral checks."""

import inspect
import math
import tracemalloc

import numpy as np
import pytest

from mixbench.errors import DomainError, PreconditionViolated
from mixbench.estimators import (
    _RESTART_KEY,
    _check_symmetric,
    davis_kahan_check,
    oracle_support_pca,
    pca_classifier,
    sample_mean_cov,
    screening,
    screening_alpha,
    sparse_pca_classifier,
    support_recovery_check,
    support_truth,
    top_eigenvector,
)
from mixbench.loss import loss_exact_linear
from mixbench.harness import signal_vector
from mixbench.model import Dataset, MixtureParams, _canonical_direction, make_rng, sample, stream_seed
from mixbench.verify import suite_davis_kahan


def _reference_top_eigenvector(m):
    """The power iteration as it was written before its loop reused buffers:
    a new array per step and np.linalg.norm for every norm. Only its final
    test has since changed, to the eigvalsh tests that top_eigenvector runs:
    a gap to the second eigenvalue, and no eigenvalue beyond |rho|. Returns
    (v, ok, capped), capped when the loop used up its steps unconverged."""
    tol = 1e-10
    m = _check_symmetric(m)
    d = m.shape[0]
    if d == 1:
        return np.array([1.0]), True, False
    restart = np.random.Generator(np.random.Philox(_RESTART_KEY)).standard_normal(d)
    v = np.zeros(d)
    v[int(np.argmax(np.diag(m)))] = 1.0
    norm_est = 0.0
    restarted = False
    ok = capped = False
    for _ in range(int(10 * d * math.log(d)) + 500):
        w = m @ v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            if restarted:
                break
            v = restart / np.linalg.norm(restart)
            restarted = True
            continue
        norm_est = max(norm_est, nw)
        rho = float(v @ w)
        if float(np.linalg.norm(w - rho * v)) <= tol * max(norm_est, 1e-300):
            ok = True
            break
        v = w / nw
    else:
        capped = True
    if ok:
        # A tie: a second eigenvalue within the residual bound of rho; or an
        # eigenvalue beyond |rho| + bound: v is not the top eigenvector.
        ev = np.linalg.eigvalsh(m)
        bound = tol * max(norm_est, 1e-300)
        ok = bool(np.partition(np.abs(ev - rho), 1)[1] > bound and np.max(np.abs(ev)) <= abs(rho) + bound)
    v, _ = _canonical_direction(v / np.linalg.norm(v), 0.0)
    return v, ok, capped


@pytest.fixture(scope="module")
def eigen_corpus():
    """Matrices on which the power iteration must keep every bit."""
    rng = np.random.default_rng(2013)
    corpus = []
    # Sample covariances at the benchmark sweeps' shapes: d = 32 with
    # n = 256, 512, 1024 (three estimators' sweep), and n = 20000 with d up to 256.
    for n in (256, 512, 1024):
        for estimator_s in (4, 32):
            h = signal_vector(32, 1.6, s=estimator_s)
            for seed in range(3):
                corpus.append(sample_mean_cov(sample(MixtureParams(-h, h, 1.0), n, seed))[1])
    for d in (8, 32, 128, 256):
        h = signal_vector(d, 1.0)
        corpus.append(sample_mean_cov(sample(MixtureParams(-h, h, 1.0), 20_000, d))[1])
    for d in (2, 3, 5, 8, 16, 32):
        a = rng.standard_normal((d, d))
        corpus.append((a + a.T) / 2.0)  # indefinite
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        for gap in (0.0, 1e-12, 1e-9, 1e-6, 1e-3):  # tied and near-tied
            ev = np.sort(rng.uniform(0.1, 1.0, d))[::-1]
            ev[1] = ev[0] * (1.0 - gap)
            b = q @ np.diag(ev) @ q.T
            corpus.append((b + b.T) / 2.0)
        corpus.append(np.zeros((d, d)))
        corpus.append(2.5 * np.eye(d))
    # Eigenvalues 1 +/- 1e-6, and the start e1 lies equally on both
    # eigenvectors: the solve uses up its steps unconverged.
    corpus.append(np.array([[1.0, 1e-6], [1e-6, 1.0]]))
    # The same answer whatever the memory layout of the matrix.
    corpus.append(np.asfortranarray(corpus[0]))
    wide = np.zeros((64, 64))
    wide[::2, ::2] = corpus[0]
    corpus.append(wide[::2, ::2])
    # Scales at which ||m v||^2 overflows, underflows or loses precision, so
    # the loop must form the exact residual rather than read it off ||w||^2.
    spike = np.eye(4) + np.outer([1.0, -2.0, 0.5, 1.5], [1.0, -2.0, 0.5, 1.5])
    for scale in (1e-300, 1e-160, 1e154, 1e300):
        corpus.append(scale * spike)
        corpus.append(scale * corpus[0])
    # The eigenvalue of largest magnitude is negative.
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    b = q @ np.diag([1.0, 0.5, 0.2, -0.1, -0.7, -3.0]) @ q.T
    corpus.append((b + b.T) / 2.0)
    # Column 0 is 1e-155 times u (eigenvalue 1) and the largest diagonal
    # entry, so the first step's ||w||^2 is subnormal and the unit vector
    # made from it is off by more than rounding: the second step, in range,
    # must still form the exact residual. The start is orthogonal to z,
    # whose eigenvalue -1.5 is larger in magnitude, so the solve is flagged.
    z = np.array([0.0, 1.0, -1.0]) / math.sqrt(2.0)
    for u0 in (1e-155, 1e-156):
        u = np.array([u0, 1.0, 1.0]) / math.sqrt(2.0 + u0 * u0)
        corpus.append(np.outer(u, u) - 1.5 * np.outer(z, z))
    return corpus


class TestSampleMeanCov:
    def test_identical_points(self):
        ds = Dataset(points=np.tile([1.0, -2.0], (5, 1)))
        mean, cov = sample_mean_cov(ds)
        assert np.allclose(mean, [1.0, -2.0])
        assert np.allclose(cov, 0.0)

    def test_two_point_example(self):
        ds = Dataset(points=np.array([[1.0, 0.0], [-1.0, 0.0]]))
        mean, cov = sample_mean_cov(ds)
        assert np.allclose(mean, 0.0)
        assert np.allclose(cov, np.diag([1.0, 0.0]))  # 1/n normalization

    def test_population_covariance(self):
        h = np.zeros(5)
        h[0] = 0.6
        h[1] = 0.8
        theta = MixtureParams(-h, h, 1.0)
        ds = sample(theta, 10**6, seed=17)
        _, cov = sample_mean_cov(ds)
        pop = np.eye(5) + np.outer(h, h)
        assert np.linalg.norm(cov - pop, 2) <= 0.02

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(0)
        ds = Dataset(points=rng.normal(size=(50, 4)))
        _, cov = sample_mean_cov(ds)
        assert np.array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= -1e-10

    @pytest.mark.parametrize("d, ns", [(1, (7, 100)), (2, (7, 1000)), (5, (8, 2000)), (17, (9, 500)), (64, (100, 2000)), (256, (300, 20_000))])
    def test_exactly_symmetric_on_full_and_restricted_columns(self, d, ns):
        """numpy's A.T @ A is symmetric bit for bit, so the covariance needs no
        (cov + cov.T) / 2; restricted fits take copied columns, as here."""
        h = np.linspace(1.0, 0.1, d)
        theta = MixtureParams(-h, h, 1.0)
        for n in ns:
            ds = sample(theta, n, seed=n + d)
            for points in (ds.points, ds.points[:, np.arange(0, d, 3)], ds.points[:, np.arange(d // 2, d)]):
                _, cov = sample_mean_cov(Dataset(points=points))
                assert np.array_equal(cov, cov.T), (d, n, points.shape)


class TestTopEigenvector:
    def test_diagonal(self):
        v, ok = top_eigenvector(np.diag([3.0, 1.0]))
        assert ok
        assert np.allclose(v, [1.0, 0.0])

    def test_rank_one_spike(self):
        h = np.array([3.0, 4.0])
        m = np.eye(2) + np.outer(h, h)
        v, ok = top_eigenvector(m)
        assert ok
        assert np.allclose(v, [0.6, 0.8], atol=1e-9)

    def test_identity_degenerate(self):
        v, ok = top_eigenvector(np.eye(4))
        assert not ok
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)

    def test_zero_matrix_degenerate(self):
        v, ok = top_eigenvector(np.zeros((3, 3)))
        assert not ok
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)

    def test_non_symmetric_rejected(self):
        with pytest.raises(DomainError, match=r"^matrix is not symmetric within 1e-10$"):
            top_eigenvector(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(DomainError, match=r"^matrix must be square and non-empty, got shape \(2, 3\)$"):
            top_eigenvector(np.zeros((2, 3)))

    @pytest.mark.parametrize(
        "m",
        [
            np.diag([1.0, math.nan, 1.0]),
            np.full((3, 3), math.inf),
            np.zeros((0, 0)),
            np.array([[2.0, 1j], [-1j, 1.0]]),
            np.eye(2, dtype=bool),
            np.array([["2", "1"], ["1", "2"]]),
        ],
        ids=["nan-entry", "inf", "empty", "complex", "bool", "string"],
    )
    def test_non_finite_or_empty_rejected(self, m):
        with pytest.raises(DomainError, match="^matrix "):
            top_eigenvector(m)

    def test_one_dimensional(self):
        v, ok = top_eigenvector(np.array([[2.5]]))
        assert ok
        assert np.array_equal(v, [1.0])

    def test_population_spike_recovery(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            d = int(rng.integers(2, 8))
            h = rng.normal(size=d)
            h *= rng.uniform(0.3, 3.0) / np.linalg.norm(h)
            sigma2 = float(rng.uniform(0.25, 4.0))
            m = sigma2 * np.eye(d) + np.outer(h, h)
            v, ok = top_eigenvector(m)
            assert ok
            assert abs(float(v @ (h / np.linalg.norm(h)))) == pytest.approx(1.0, abs=1e-9)

    def test_canonical_output(self):
        m = np.eye(2) + np.outer([-3.0, -4.0], [-3.0, -4.0])
        v, _ = top_eigenvector(m)
        assert v[np.argmax(np.abs(v))] >= 0.0

    def test_bits_equal_reference_loop(self, eigen_corpus):
        flags, capped = [], []
        for i, m in enumerate(eigen_corpus):
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                v, ok = top_eigenvector(m)
                v_ref, ok_ref, capped_ref = _reference_top_eigenvector(m)
            assert (v.tobytes(), ok) == (v_ref.tobytes(), ok_ref), f"corpus entry {i}"
            flags.append(ok)
            capped.append(capped_ref)
        # Converged and flagged solves are both in the corpus, and so are
        # solves that use up the step cap.
        assert any(flags) and not all(flags) and any(capped)

    def test_takes_only_the_matrix(self):
        # Its tolerance and step cap are fixed; only tests ever set them.
        assert list(inspect.signature(top_eigenvector).parameters) == ["m"]

    def test_tied_top_eigenvalue_flagged_d4(self):
        assert not top_eigenvector(np.diag([2.0, 2.0, 1.0, 0.5]))[1]

    def test_tied_top_eigenvalue_flagged_d32(self):
        rng = np.random.default_rng(32)
        q, _ = np.linalg.qr(rng.standard_normal((32, 32)))
        ev = np.concatenate([[3.0, 3.0], np.linspace(2.0, 0.5, 30)])
        b = q @ np.diag(ev) @ q.T
        assert not top_eigenvector((b + b.T) / 2.0)[1]

    def test_start_on_a_lower_eigenvector_flagged(self):
        # The start e1 is an exact eigenvector (eigenvalue 2) orthogonal to
        # the top one (eigenvalue 2.5): the iteration stops at once on e1.
        m = np.array([[2.0, 0.0, 0.0], [0.0, 1.5, 1.0], [0.0, 1.0, 1.5]])
        v, ok = top_eigenvector(m)
        v_ref, ok_ref, _ = _reference_top_eigenvector(m)
        assert v.tobytes() == v_ref.tobytes() == np.array([1.0, 0.0, 0.0]).tobytes()
        assert not ok and not ok_ref

    def test_matches_eigh_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            d = int(rng.integers(2, 7))
            m = rng.normal(size=(d, d))
            m = m @ m.T  # PSD with generic spectrum
            v, ok = top_eigenvector(m)
            w, q = np.linalg.eigh(m)
            assert ok
            assert abs(float(v @ q[:, -1])) == pytest.approx(1.0, abs=1e-8)


class TestPcaClassifier:
    def test_two_cluster_data(self):
        pts = np.vstack([np.tile([1.0, 0.0, 0.0], (50, 1)), np.tile([-1.0, 0.0, 0.0], (50, 1))])
        clf = pca_classifier(Dataset(points=pts))
        assert np.allclose(clf.v, [1.0, 0.0, 0.0])
        assert clf.t == pytest.approx(0.0, abs=1e-15)

    def test_translation_equivariance(self):
        theta = MixtureParams([-1.0, 0.2], [1.0, -0.2], 1.0)
        ds = sample(theta, 500, seed=2)
        clf = pca_classifier(ds)
        c = np.array([3.0, -4.0])
        clf_shift = pca_classifier(Dataset(points=ds.points + c))
        assert np.allclose(clf.v, clf_shift.v, atol=1e-9)
        assert clf_shift.t == pytest.approx(clf.t + float(clf.v @ c), rel=1e-9, abs=1e-9)

    def test_too_few_samples(self):
        with pytest.raises(DomainError, match="^need n >= 2, got 1$"):
            pca_classifier(Dataset(points=np.zeros((1, 3))))

    def test_tied_eigensolve_flags_degenerate(self):
        # covariance diag(1/2, 1/2): the top eigenvalue is not unique
        pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        assert pca_classifier(Dataset(points=pts)).degenerate
        assert not pca_classifier(Dataset(points=pts * [1.0, 0.5])).degenerate
        # the restricted fit carries the flag into R^d
        embedded = np.hstack([pts, np.zeros((4, 1))])
        theta = MixtureParams([-1.0, -1.0, 0.0], [1.0, 1.0, 0.0], 1.0)
        assert oracle_support_pca(Dataset(points=embedded), theta).degenerate
        # covariance diag(1/3, 1/3, 1/12): a tie above a third eigenvalue
        pts3 = np.vstack([np.eye(3), -np.eye(3)]) * [1.0, 1.0, 0.5]
        assert pca_classifier(Dataset(points=pts3)).degenerate
        embedded3 = np.hstack([pts3, np.zeros((6, 2))])
        theta3 = MixtureParams([-1.0, -1.0, -1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0, 0.0], 1.0)
        assert oracle_support_pca(Dataset(points=embedded3), theta3).degenerate

    def test_lower_eigenvector_flags_degenerate(self):
        # Covariance diag(2; [[1.5, 1], [1, 1.5]]), up to cross terms of 4e-17:
        # the power iteration's start e1 has eigenvalue 2, the top one is 2.5.
        y, z = math.sqrt(2.5), math.sqrt(0.5)
        yz = [(y, y), (-y, -y), (z, -z), (-z, z)]
        pts = np.array([(sx * math.sqrt(2.0), a, b) for sx in (1.0, -1.0) for a, b in yz])
        clf = pca_classifier(Dataset(points=pts))
        assert clf.v.tobytes() == np.array([1.0, 0.0, 0.0]).tobytes()
        assert clf.degenerate

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(7)
        theta = MixtureParams([-1.5, 0.0, 0.0], [1.5, 0.0, 0.0], 1.0)
        ds = sample(theta, 2000, seed=4)
        clf = pca_classifier(ds)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        clf_rot = pca_classifier(Dataset(points=ds.points @ q.T))
        assert abs(float(clf_rot.v @ (q @ clf.v))) == pytest.approx(1.0, abs=1e-7)


class TestScreening:
    def test_alpha_frozen_value(self):
        assert screening_alpha(1000, 100) == pytest.approx(0.2858519394177870, rel=1e-12)

    def test_alpha_monotone_in_n(self):
        assert screening_alpha(4000, 100) < screening_alpha(1000, 100)

    @pytest.mark.parametrize("n, d, name", [(1000.9, 10, "n"), (1000, True, "d"), (1000, 10.5, "d")])
    def test_alpha_counts_must_be_whole(self, n, d, name):
        with pytest.raises(DomainError, match=f"^{name} "):
            screening_alpha(n, d)
        assert screening_alpha(1000.0, 10.0) == screening_alpha(1000, 10)

    def test_dimension_and_sample_guards(self):
        with pytest.raises(DomainError, match="^screening needs d >= 2, got d = 1$"):
            screening(Dataset(points=np.zeros((10, 1))))
        with pytest.raises(DomainError, match="^need n >= 2, got 1$"):
            screening(Dataset(points=np.zeros((1, 3))))

    def test_tau_hat_formula_exact(self):
        theta = MixtureParams([-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], 1.0)
        ds = sample(theta, 500, seed=6)
        res = screening(ds)
        alpha = screening_alpha(500, 3)
        assert res.alpha == alpha
        assert res.tau_hat == (1.0 + alpha) / (1.0 - alpha) * float(res.diag_variances.min())
        expected = tuple(int(i) for i in np.nonzero(res.diag_variances > res.tau_hat)[0])
        assert res.selected == expected

    def test_strong_signal_selected(self):
        h = np.zeros(6)
        h[2] = 3.0
        theta = MixtureParams(-h, h, 1.0)
        ds = sample(theta, 4000, seed=8)
        res = screening(ds)
        assert res.selected == (2,)

    def test_order_invariance(self):
        theta = MixtureParams([-1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], 1.0)
        ds = sample(theta, 300, seed=10)
        res = screening(ds)
        perm = np.random.default_rng(0).permutation(300)
        res_p = screening(Dataset(points=ds.points[perm]))
        assert res.selected == res_p.selected

    def test_null_signal_selects_nothing(self):
        # with no relevant coordinate the event {S_hat = empty} should hold
        # with frequency at least 1 - 6/n up to binomial noise
        theta = MixtureParams(np.zeros(8), np.zeros(8), 1.0)
        n, reps = 2000, 500
        empty = 0
        for r in range(reps):
            ds = sample(theta, n, stream_seed(14, r))
            if not screening(ds).selected:
                empty += 1
        floor = 1.0 - 6.0 / n
        se = math.sqrt(floor * (1.0 - floor) / reps)
        assert empty / reps >= floor - 3.0 * se

    def test_warn_alpha_flag(self):
        theta = MixtureParams([-1.0, 0.0], [1.0, 0.0], 1.0)
        ds = sample(theta, 50, seed=1)
        assert screening(ds).alpha > 0.25
        ds = sample(theta, 50000, seed=1)
        assert screening(ds).alpha <= 0.25


class TestSparsePcaClassifier:
    def test_full_selection_matches_dense(self):
        # with alpha > 1 the threshold goes negative and everything is
        # selected; restriction to all coordinates is then the identity
        h = np.full(3, 2.0)
        theta = MixtureParams(-h, h, 1.0)
        ds = sample(theta, 12, seed=3)
        clf, res = sparse_pca_classifier(ds)
        assert res.alpha > 0.25
        assert res.selected == (0, 1, 2)
        dense = pca_classifier(ds)
        assert np.array_equal(clf.v, dense.v)
        assert clf.t == dense.t

    def test_single_strong_coordinate(self):
        h = np.zeros(10)
        h[0] = 5.0
        theta = MixtureParams(-h, h, 1.0)
        good = 0
        for r in range(200):
            ds = sample(theta, 4000, stream_seed(22, r))
            clf, _ = sparse_pca_classifier(ds)
            if loss_exact_linear(theta, clf, tol=1e-8) < 0.01:
                good += 1
        assert good >= 190  # >= 95%

    def test_null_signal_degenerates(self):
        theta = MixtureParams(np.zeros(12), np.zeros(12), 1.0)
        flagged = 0
        for r in range(200):
            ds = sample(theta, 2000, stream_seed(23, r))
            clf, res = sparse_pca_classifier(ds)
            if clf.degenerate:
                flagged += 1
                assert res.selected == ()
                assert clf.v[0] == 1.0
        assert flagged >= 180  # >= 90%

    def test_support_restriction(self):
        h = np.zeros(20)
        h[3] = 2.0
        h[7] = 2.0
        theta = MixtureParams(-h, h, 1.0)
        ds = sample(theta, 4000, seed=9)
        clf, res = sparse_pca_classifier(ds)
        off_support = [i for i in range(20) if i not in res.selected]
        assert np.all(clf.v[off_support] == 0.0)


class TestOracleSupportPca:
    def test_uses_true_support(self):
        h = np.zeros(30)
        h[4] = 1.0
        h[5] = -1.0
        theta = MixtureParams(-h, h, 1.0)
        ds = sample(theta, 1000, seed=12)
        clf = oracle_support_pca(ds, theta)
        mask = np.ones(30, dtype=bool)
        mask[[4, 5]] = False
        assert np.all(clf.v[mask] == 0.0)
        assert np.any(clf.v[[4, 5]] != 0.0)

    def test_dimension_mismatch(self):
        theta = MixtureParams([-1.0, 0.0], [1.0, 0.0], 1.0)
        ds = Dataset(points=np.zeros((5, 3)))
        with pytest.raises(DomainError, match="^data dimension 3 != theta dimension 2$"):
            oracle_support_pca(ds, theta)


class TestSupportRecovery:
    def test_truth_sets(self):
        h = np.zeros(64)
        h[0] = 3.0
        h[1] = 0.01
        theta = MixtureParams(-h, h, 1.0)
        truth = support_truth(theta, 4000)
        assert truth.S == (0, 1)
        assert truth.S_tilde == (0,)
        assert set(truth.S_tilde) <= set(truth.S)

    def test_alpha_gate(self):
        h = np.zeros(16)
        h[0] = 1.0
        theta = MixtureParams(-h, h, 1.0)
        with pytest.raises(PreconditionViolated):
            support_recovery_check(theta, 100, 10, seed=0)

    def test_zero_replicates(self):
        h = np.zeros(16)
        h[0] = 1.0
        theta = MixtureParams(-h, h, 1.0)
        with pytest.raises(DomainError, match="^replicates must be >= 1, got 0$"):
            support_recovery_check(theta, 4000, 0, seed=0)

    @pytest.mark.parametrize("n, replicates, name", [(4000, 2.9, "replicates"), (4000, True, "replicates"), (4000.5, 2, "n")])
    def test_counts_must_be_whole(self, n, replicates, name):
        h = np.zeros(16)
        h[0] = 1.0
        theta = MixtureParams(-h, h, 1.0)
        with pytest.raises(DomainError, match=f"^{name} "):
            support_recovery_check(theta, n, replicates, seed=0)

    def test_null_case_frequency(self):
        theta = MixtureParams(np.zeros(8), np.zeros(8), 1.0)
        rep = support_recovery_check(theta, 2000, 200, seed=15)
        assert rep.S == () and rep.S_tilde == ()
        se = math.sqrt(rep.floor * (1.0 - rep.floor) / 200)
        assert rep.frequency >= rep.floor - 3.0 * se

    def test_strong_signal_frequency(self):
        h = np.zeros(64)
        h[:3] = 2.0
        theta = MixtureParams(-h, h, 1.0)
        rep = support_recovery_check(theta, 4000, 200, seed=16)
        se = math.sqrt(rep.floor * (1.0 - rep.floor) / 200)
        assert rep.frequency >= rep.floor - 3.0 * se
        assert rep.S_tilde == (0, 1, 2)


class TestDavisKahan:
    def test_zero_perturbation(self):
        rep = davis_kahan_check(np.diag([2.0, 1.0]), np.zeros((2, 2)))
        assert rep.sin_angle == 0.0
        assert rep.bound == 0.0
        assert rep.holds

    def test_two_by_two_frozen(self):
        rep = davis_kahan_check(np.diag([2.0, 1.0]), np.array([[0.0, 0.1], [0.1, 0.0]]))
        # closed form: angle = atan(0.2)/2
        assert rep.sin_angle == pytest.approx(math.sin(math.atan(0.2) / 2.0), rel=1e-10)
        assert rep.bound == pytest.approx(0.4, rel=1e-12)
        assert rep.holds

    def test_perturbation_too_large(self):
        with pytest.raises(PreconditionViolated):
            davis_kahan_check(np.diag([2.0, 1.0]), np.array([[0.0, 0.3], [0.3, 0.0]]))

    def test_zero_gap(self):
        with pytest.raises(PreconditionViolated):
            davis_kahan_check(np.eye(2), np.zeros((2, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError, match="^a has a non-finite entry"):
            davis_kahan_check(np.array([[2.0, math.nan], [math.nan, 1.0]]), np.zeros((2, 2)))

    def test_complex_rejected(self):
        # A Hermitian e once passed as holds with sin_angle 0 after a cast.
        with pytest.raises(DomainError, match="^e must have a real numeric dtype, got complex128$"):
            davis_kahan_check(np.diag([2.0, 1.0]), np.array([[0.0, 0.1j], [-0.1j, 0.0]]))

    def test_one_dimensional_rejected(self):
        with pytest.raises(DomainError, match="^the check needs d >= 2, got d = 1$"):
            davis_kahan_check(np.array([[2.0]]), np.array([[0.1]]))

    def test_stack_and_pair_shapes_differ(self):
        with pytest.raises(DomainError, match="^shapes differ"):
            davis_kahan_check(np.diag([2.0, 1.0]), np.zeros((1, 2, 2)))

    @pytest.mark.parametrize(
        "member, a, e, error, match",
        [
            (3, np.array([[2.0, math.nan], [math.nan, 1.0]]), np.zeros((2, 2)), DomainError, r"^a\[3\] has a non-finite entry$"),
            (1, np.diag([2.0, 1.0]), np.array([[0.0, 0.1], [0.0, 0.0]]), DomainError, r"^e\[1\] is not symmetric"),
            (2, np.eye(2), np.zeros((2, 2)), PreconditionViolated, r"^lambda_1\(a\[2\]\) - lambda_2\(a\[2\]\) must be"),
            (4, np.diag([2.0, 1.0]), np.array([[0.0, 0.3], [0.3, 0.0]]), PreconditionViolated, r"^\|\|e\[4\]\|\|_2 = 0\.3 exceeds"),
        ],
        # A rejected matrix keeps its case label InvalidMatrix in the test id.
        ids=lambda v: "InvalidMatrix" if v is DomainError else None,
    )
    def test_stack_failure_names_member(self, member, a, e, error, match):
        a_stack = np.stack([np.diag([2.0, 1.0])] * 5)
        e_stack = np.zeros((5, 2, 2))
        a_stack[member], e_stack[member] = a, e
        with pytest.raises(error, match=match):
            davis_kahan_check(a_stack, e_stack)

    def test_random_instances(self):
        rng = np.random.default_rng(18)
        pairs = []
        for _ in range(100):
            d = int(rng.integers(2, 11))
            q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            evals = np.sort(rng.uniform(-1, 1, size=d))[::-1]
            evals[0] = evals[1] + rng.uniform(0.1, 2.0)
            a = (q * evals) @ q.T
            a = (a + a.T) / 2.0
            e = rng.normal(size=(d, d))
            e = (e + e.T) / 2.0
            e *= rng.uniform(0.05, 1.0) * ((evals[0] - evals[1]) / 5.0) / np.linalg.norm(e, 2)
            rep = davis_kahan_check(a, e)
            assert rep.holds
            assert type(rep.sin_angle) is float and type(rep.bound) is float and type(rep.holds) is bool
            assert (rep.sin_angle, rep.bound, rep.holds) == _reference_davis_kahan(a, e)
            pairs.append((a, e, rep))
        # A stack per dimension: each member has the bits of its own pair's check.
        for d in range(2, 11):
            group = [pair for pair in pairs if pair[0].shape[0] == d]
            stacked = davis_kahan_check(np.stack([a for a, _, _ in group]), np.stack([e for _, e, _ in group]))
            assert stacked.sin_angle.tobytes() == np.array([rep.sin_angle for _, _, rep in group]).tobytes()
            assert stacked.bound.tobytes() == np.array([rep.bound for _, _, rep in group]).tobytes()
            assert stacked.holds.tolist() == [rep.holds for _, _, rep in group]

    @pytest.mark.parametrize("instances", [1, 127, 128, 129, 1000])
    @pytest.mark.parametrize("seed", [4242, 0, 2**63])
    def test_suite_bits_equal_per_instance_loop(self, seed, instances):
        assert suite_davis_kahan(instances, seed) == _reference_suite_davis_kahan(instances, seed)

    def test_suite_memory_is_one_chunk(self):
        suite_davis_kahan(2)  # numpy's one-time set-up is not the suite's memory
        tracemalloc.start()
        try:
            suite_davis_kahan(1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One chunk of 128 instances is about 0.3 MB; a stack of all 1000 is 1.9 MB.
        assert peak <= 500_000


def _reference_davis_kahan(a, e):
    """The single-pair check as it was written before it took stacks:
    (sin_angle, bound, holds) of an admissible pair, by 2-D @ and np.linalg.norm."""
    evals, evecs = np.linalg.eigh(a)
    evals = evals[::-1]
    evecs = evecs[:, ::-1]
    gap = float(evals[0] - evals[1])
    u = evecs[:, 1:].T @ (e @ evecs[:, 0])
    bound = 4.0 * float(np.linalg.norm(u)) / gap
    _, pert_vecs = np.linalg.eigh(a + e)
    inner = float(np.clip(evecs[:, 0] @ pert_vecs[:, -1], -1.0, 1.0))
    sin_angle = math.sqrt(max(0.0, 1.0 - inner * inner))
    return sin_angle, bound, sin_angle <= bound + 1e-12


def _reference_suite_davis_kahan(instances, seed):
    """suite_davis_kahan as it was written before it checked stacks: one
    instance at a time, each drawn, built and checked in turn."""
    rng = make_rng(seed)
    failures = 0
    worst_ratio = 0.0
    for _ in range(instances):
        d = int(rng.integers(2, 11))
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        evals = np.sort(rng.uniform(-1.0, 1.0, size=d))[::-1]
        evals[0] = evals[1] + rng.uniform(0.1, 2.0)
        a = (q * evals) @ q.T
        a = (a + a.T) / 2.0
        gap = evals[0] - evals[1]
        e = rng.normal(size=(d, d))
        e = (e + e.T) / 2.0
        e *= rng.uniform(0.05, 1.0) * (gap / 5.0) / np.linalg.norm(e, 2)
        sin_angle, bound, holds = _reference_davis_kahan(a, e)
        if not holds:
            failures += 1
        if bound > 0:
            worst_ratio = max(worst_ratio, sin_angle / bound)
    return [{"check": "davis_kahan", "instances": instances, "failures": failures, "worst_ratio": worst_ratio, "holds": failures == 0}]
