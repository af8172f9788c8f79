"""Tests for the experiment harness: configs, sweeps, rate fits, reports."""

import dataclasses
import inspect
import json
import math
import re
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from mixbench import estimators, harness
from mixbench.errors import DomainError, MixbenchError
from mixbench.estimators import screening_alpha
from mixbench.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    SweepResult,
    SweepRow,
    emit_report,
    fit_rate,
    json_chunks,
    load_config,
    run_experiment,
    signal_vector,
    write_atomic,
)
from mixbench.model import stream_seed


def smoke_config(**overrides):
    base = dict(
        estimator="dense_pca",
        n=200,
        d=4,
        lam=2.0,
        replicates=3,
        master_seed=42,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSignalVector:
    def test_equal_coords(self):
        h = signal_vector(8, 1.0, s=4)
        assert np.count_nonzero(h) == 4
        assert 2.0 * np.linalg.norm(h) == pytest.approx(1.0, rel=1e-12)
        assert h[0] == pytest.approx(1.0 / 4.0)  # lam / (2 sqrt(s))

    def test_single_coordinate(self):
        """s = 1 puts the whole separation on the first coordinate; there is
        no signal profile to choose."""
        h = signal_vector(5, 0.8, s=1)
        assert np.count_nonzero(h) == 1
        assert h[0] == pytest.approx(0.4)

    # s is a count: True gave a 1-sparse vector, and 2.5 a TypeError.
    @pytest.mark.parametrize(
        "s, message", [(0, "s must be >= 1, got 0"), (9, "s must lie in [1, d], got s = 9, d = 8"), (True, "s must be a whole number, got True"), (2.5, "s must be a whole number, got 2.5")],
        ids=["0", "9", "True", "2.5"],
    )
    def test_s_outside_one_to_d_rejected(self, s, message):
        with pytest.raises(DomainError, match="^" + re.escape(message) + "$"):
            signal_vector(8, 1.0, s=s)


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(DomainError, match=r"^unknown config keys: \['typo_key'\]$"):
            load_config({"estimator": "dense_pca", "n": 100, "d": 4, "lambda": 1.0, "typo_key": 1})

    def test_missing_required(self):
        with pytest.raises(DomainError, match="^missing required config key 'lambda'$"):
            load_config({"estimator": "dense_pca", "n": 100, "d": 4})

    def test_bad_estimator(self):
        with pytest.raises(DomainError, match="^estimator must be one of "):
            smoke_config(estimator="em")

    def test_sweep_values_must_increase(self):
        with pytest.raises(DomainError, match=r"^sweep\.values must be strictly increasing$"):
            smoke_config(sweep_axis="n", sweep_values=(100, 100))
        with pytest.raises(DomainError, match=r"^sweep\.values must be strictly increasing$"):
            smoke_config(sweep_axis="n", sweep_values=(200, 100))
        with pytest.raises(DomainError, match=r"^sweep\.axis must be one of "):
            smoke_config(sweep_axis="q", sweep_values=(100, 200))

    @pytest.mark.parametrize("seed", [-1, 2**64, 10**30])
    def test_master_seed_out_of_range_rejected(self, seed):
        with pytest.raises(DomainError, match="^" + re.escape(f"master_seed must lie in [0, 2^64), got {seed}") + "$"):
            load_config({"estimator": "dense_pca", "n": 100, "d": 4, "lambda": 1.0, "master_seed": seed})

    @pytest.mark.parametrize("seed", [-(10**5000), 10**5000], ids=["-10**5000", "10**5000"])
    def test_master_seed_too_long_to_print_named_by_bit_length(self, seed):
        with pytest.raises(DomainError, match=r"^master_seed must lie in \[0, 2\^64\), got an integer of 16610 bits$"):
            load_config({"estimator": "dense_pca", "n": 100, "d": 4, "lambda": 1.0, "master_seed": seed})

    def test_largest_master_seed_accepted(self):
        assert smoke_config(master_seed=2**64 - 1).master_seed == 2**64 - 1

    def test_json_types_enforced(self):
        base = {"estimator": "dense_pca", "n": 100, "d": 4, "lambda": 1.0}
        for key, value in (("n", "1000"), ("d", True), ("replicates", 2.9), ("lambda", None)):
            with pytest.raises(DomainError, match=f"^{key} must be an? (whole number|number), got "):
                load_config({**base, key: value})
        # A whole float is a count, as it is everywhere else in the library.
        whole, integer = load_config({**base, "n": 1000.0}), load_config({**base, "n": 1000})
        assert whole == integer and type(whole.n) is int
        points = [[(p.value, p.n, p.s, p.theta.mu1.tolist(), p.theta.mu2.tolist()) for p in cfg.points] for cfg in (whole, integer)]
        assert points[0] == points[1] == [(1000.0, 1000, None, [-0.25] * 4, [0.25] * 4)]

    def test_integer_axes_need_whole_numbers(self):
        # A sweep value is read as its axis's key is: d is a count.
        with pytest.raises(DomainError, match=r"^d in sweep\.values must be a whole number, got 8\.2$"):
            smoke_config(sweep_axis="d", sweep_values=(8.2, 8.4))

    # The power iteration squares ||Sigma v||, about (lambda / 2)^2: at
    # lambda = 1e80 that overflowed and every replicate was flagged degenerate.
    @pytest.mark.parametrize(
        "lam, message",
        [
            (1e80, "lambda / 2 must be at most 2^255, as its fourth power must be a finite float, got 5e+79"),
            (2.0**256 * (1 + 2**-52), "lambda / 2 must be at most 2^255"),
            (2.0**-510, "lambda / 2 must lie between 2^-510 and 2^510, got "),
        ],
        ids=["1e+80", "above-2^256", "2^-510"],
    )
    def test_lambda_whose_half_is_out_of_range_rejected(self, lam, message):
        with pytest.raises(DomainError, match="^" + re.escape(message)):
            smoke_config(d=1, lam=lam)
        with pytest.raises(DomainError, match="^" + re.escape(message.replace("lambda", "lambda in sweep.values", 1))):
            smoke_config(d=1, sweep_axis="lambda", sweep_values=(1.0, lam) if lam > 1.0 else (lam, 1.0))

    def test_largest_lambda_fits_without_overflow(self):
        res = run_experiment(smoke_config(n=100, lam=2.0**256))
        assert len(res.rows) == 3 and not any(r.degenerate for r in res.rows)

    def test_sweep_point_with_bad_sparsity_fails_at_construction(self):
        with pytest.raises(DomainError, match=r"^s must lie in \[1, d\], got s = 100, d = 16$"):
            smoke_config(n=400, d=16, sweep_axis="s", sweep_values=(2, 4, 100))

    def test_sweep_point_outside_estimator_domain_fails_at_construction(self):
        with pytest.raises(DomainError, match="^sparse_pca needs d >= 2, got d = 1$"):
            smoke_config(estimator="sparse_pca", sweep_axis="d", sweep_values=(1, 8))

    def test_sweep_point_with_one_sample_fails_at_construction(self):
        with pytest.raises(DomainError, match="^n must be >= 2, got 1$"):
            smoke_config(sweep_axis="n", sweep_values=(1, 100))

    def test_config_file_must_hold_an_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps([{"estimator": "dense_pca", "n": 100, "d": 4, "lambda": 1.0}]))
        with pytest.raises(DomainError, match="^a config must be a JSON object$"):
            load_config(path)

    def test_sweep_block_needs_axis_and_values(self):
        base = {"estimator": "dense_pca", "n": 100, "d": 4, "lambda": 1.0}
        with pytest.raises(DomainError, match=r"^sweep\.values must be a nonempty list, got \[\]$"):
            load_config({**base, "sweep": {"axis": "n", "values": []}})
        with pytest.raises(DomainError, match="^sweep must be an object with keys 'axis' and 'values'$"):
            load_config({**base, "sweep": {"values": [100, 200]}})
        with pytest.raises(DomainError, match=r"^sweep\.axis must be one of \('n', 'd', 'lambda', 's'\), got None$"):
            load_config({**base, "sweep": {"axis": None, "values": [100, 200]}})

    def test_quad_tol_is_not_a_key(self):
        base = {"estimator": "dense_pca", "n": 100, "d": 4, "lambda": 1.0}
        with pytest.raises(DomainError, match=r"^unknown config keys: \['quad_tol'\]$"):
            load_config({**base, "quad_tol": 1e-3})

    def test_loss_method_and_mc_samples_are_not_keys(self):
        """Every estimator is a linear rule, scored by its exact loss."""
        base = {"estimator": "dense_pca", "n": 100, "d": 4, "lambda": 1.0}
        for key, value in (("loss_method", "monte_carlo"), ("mc_samples", 100_000)):
            with pytest.raises(DomainError, match=f"^unknown config keys: \\['{key}'\\]$"):
                load_config({**base, key: value})

    def test_signal_profile_and_custom_signal_are_not_keys(self):
        """Every sweep spreads the separation equally over the first s
        coordinates; a config cannot name another signal."""
        base = {"estimator": "dense_pca", "n": 100, "d": 3, "lambda": 1.0}
        for key, value in (("signal_profile", "custom"), ("custom_signal", [0.5, 0.0, 0.0])):
            with pytest.raises(DomainError, match=f"^unknown config keys: \\['{key}'\\]$"):
                load_config({**base, key: value})
        with pytest.raises(DomainError, match="^unknown config keys: \\['custom_signal', 'signal_profile'\\]$"):
            load_config({**base, "signal_profile": "custom", "custom_signal": [0.5, 0.0, 0.0]})

    def test_sigma_is_not_a_key(self):
        """Sweeps run at sigma = 1: lambda is read as lambda / sigma, and a
        report's sigma column reads each point's 1.0."""
        base = {"estimator": "dense_pca", "n": 100, "d": 4, "lambda": 1.0}
        with pytest.raises(DomainError, match="^unknown config keys: \\['sigma'\\]$"):
            load_config({**base, "sigma": 1.0})
        rows = run_experiment(load_config({**base, "sweep": {"axis": "lambda", "values": [0.5, 2.0]}})).rows
        assert [(r.lam, r.sigma) for r in rows] == [(0.5, 1.0), (2.0, 1.0)]

    def test_fields_are_the_config_keys(self):
        assert [f.name for f in dataclasses.fields(ExperimentConfig)] == [
            "estimator", "n", "d", "lam", "s", "replicates", "master_seed", "sweep_axis", "sweep_values",
        ]

    def test_readme_example_config_loads(self):
        """The example config in README.md uses only config keys, and loads."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"^```json\n(.*?)^```$", readme, flags=re.M | re.S)
        assert len(blocks) == 1
        cfg = load_config(json.loads(blocks[0]))
        assert (cfg.estimator, cfg.sweep_axis, cfg.sweep_values) == ("dense_pca", "n", (1000.0, 2000.0, 4000.0, 8000.0))

    def test_points_resolved_at_construction(self):
        cfg = smoke_config(sweep_axis="d", sweep_values=(4, 8))
        assert [(p.value, p.n, p.theta.d, p.s) for p in cfg.points] == [(4.0, 200, 4, None), (8.0, 200, 8, None)]
        assert smoke_config().points[0].value == 200.0
        assert "points" not in {f.name for f in dataclasses.fields(ExperimentConfig)}

    def test_load_config_round_trip(self, tmp_path):
        cfg = {
            "estimator": "sparse_pca",
            "n": 500,
            "d": 16,
            "s": 2,
            "lambda": 1.5,
            "replicates": 4,
            "master_seed": 9,
            "sweep": {"axis": "n", "values": [500, 1000]},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        loaded = load_config(path)
        assert loaded.estimator == "sparse_pca"
        assert loaded.sweep_axis == "n"
        assert loaded.sweep_values == (500.0, 1000.0)
        assert loaded.lam == 1.5


class TestRunExperiment:
    def test_smoke(self):
        res = run_experiment(smoke_config())
        assert len(res.rows) == 3
        assert all(0.0 <= r.loss <= 0.5 for r in res.rows)
        assert res.summary[0].replicates == 3

    def test_determinism(self):
        a = run_experiment(smoke_config())
        b = run_experiment(smoke_config())
        assert [(r.seed, r.loss) for r in a.rows] == [(r.seed, r.loss) for r in b.rows]

    def test_serial_vs_parallel(self):
        cfg = smoke_config(replicates=8, sweep_axis="n", sweep_values=(100, 200))
        serial = run_experiment(cfg, threads=1)
        parallel = run_experiment(cfg, threads=4)
        key = lambda res: [(r.axis_value, r.replicate, r.seed, r.loss) for r in res.rows]
        assert key(serial) == key(parallel)

    def test_sweep_shapes(self):
        cfg = smoke_config(replicates=2, sweep_axis="n", sweep_values=(100, 200, 400))
        res = run_experiment(cfg)
        assert len(res.rows) == 6
        assert len(res.summary) == 3
        assert res.fitted_slope is not None

    def test_oracle_estimator(self):
        cfg = smoke_config(estimator="oracle_support_pca", d=10, s=2, lam=2.0)
        res = run_experiment(cfg)
        assert all(0.0 <= r.loss <= 0.5 for r in res.rows)

    def test_degenerate_flag_only_for_empty_sparse_selection(self):
        # weak signal in many dimensions: screening finds nothing
        cfg = smoke_config(estimator="sparse_pca", n=2000, d=20, lam=0.05, replicates=4)
        res = run_experiment(cfg)
        assert any(r.degenerate for r in res.rows)
        dense = run_experiment(smoke_config(replicates=4))
        assert not any(r.degenerate for r in dense.rows)

    @pytest.mark.parametrize("threads", [0, -5, 2.5, True])
    def test_thread_count_must_be_a_whole_number_from_one(self, threads):
        with pytest.raises(DomainError, match="threads"):
            run_experiment(smoke_config(), threads=threads)

    def test_thread_count_too_long_to_print_named_by_bit_length(self):
        with pytest.raises(DomainError, match="^threads must be >= 1, got an integer of 16610 bits$"):
            run_experiment(smoke_config(), threads=-(10**5000))

    def test_dense_warns_below_4d(self):
        with pytest.warns(UserWarning, match="4d"):
            run_experiment(smoke_config(n=8, d=4))

    def test_sparse_warns_once_outside_the_screening_guarantee(self):
        # At n = 20, d = 8 the threshold (1 + alpha)/(1 - alpha) min var is
        # negative, so every coordinate is selected and the fit is dense PCA.
        cfg = smoke_config(estimator="sparse_pca", n=20, d=8, s=2, lam=0.4, sweep_axis="n", sweep_values=(20, 40, 2000))
        assert [screening_alpha(p.n, 8) > 0.25 for p in cfg.points] == [True, True, False]
        with pytest.warns(UserWarning) as record:
            run_experiment(cfg)
        assert [str(w.message) for w in record] == [
            f"sparse estimator with n = 20, d = 8: screening alpha = {screening_alpha(20, 8):.4f} > 1/4, outside the guarantee's range"
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_experiment(smoke_config(estimator="sparse_pca", n=2000, d=8, s=2, lam=0.4, replicates=1))

    def test_no_mixture_built_per_replicate(self, monkeypatch):
        cfg = smoke_config(replicates=3, sweep_axis="lambda", sweep_values=(1.0, 2.0))
        for name in ("MixtureParams", "signal_vector"):
            monkeypatch.setattr(harness, name, None)  # a call would raise TypeError
        res = run_experiment(cfg, threads=2)
        assert [r.lam for r in res.rows] == [1.0] * 3 + [2.0] * 3


class TestRebinding:
    """The names a tracer rebinds (``harness.sample``, the estimators and the
    losses, ``estimators.pca_classifier``) are looked up at call time, and
    ``sample`` gets the replicate seed as its third positional argument."""

    @pytest.mark.parametrize(
        "estimator, loss_method, fit, loss",
        [
            ("dense_pca", "quadrature", "pca_classifier", "loss_exact_linear"),
            ("sparse_pca", "quadrature", "sparse_pca_classifier", "loss_exact_linear"),
            ("oracle_support_pca", "quadrature", "oracle_support_pca", "loss_exact_linear"),
        ],
    )
    def test_wrappers_see_every_call(self, monkeypatch, estimator, loss_method, fit, loss):
        names = ("sample", "pca_classifier", "sparse_pca_classifier", "oracle_support_pca", "loss_exact_linear", "loss_monte_carlo")
        calls = {name: [] for name in (*names, "restricted_pca")}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name].append(args)
                return fn(*args, **kwargs)

            return wrapper

        for name in names:
            monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
        monkeypatch.setattr(estimators, "pca_classifier", counting("restricted_pca", estimators.pca_classifier))
        cfg = smoke_config(
            estimator=estimator,
            d=8,
            s=2,
            lam=3.0,
            sweep_axis="n",
            sweep_values=(400, 800),
        )
        res = run_experiment(cfg, threads=2)  # 2 points x 3 replicates
        assert {r.loss_method for r in res.rows} == {loss_method}
        expected = dict.fromkeys(names, 0) | {"sample": 6, fit: 6, loss: 6}
        assert {name: len(calls[name]) for name in names} == expected
        assert sorted(args[2] for args in calls["sample"]) == sorted(stream_seed(42, i) for i in range(6))
        if estimator == "oracle_support_pca":
            assert len(calls["restricted_pca"]) == 6


class TestFitRate:
    def test_exact_power_law(self):
        xs = [1.0, 2.0, 4.0, 8.0, 16.0]
        slope, intercept, ci = fit_rate([(x, x**-0.5) for x in xs])
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert intercept == pytest.approx(0.0, abs=1e-12)
        assert ci[0] <= slope <= ci[1]
        assert ci[1] - ci[0] < 1e-10  # exact line: interval collapses

    def test_noisy_power_law(self):
        rng = np.random.default_rng(3)
        xs = np.linspace(1.0, 20.0, 20)
        pts = [(float(x), float(2.0 * x**0.5 * (1.0 + 0.01 * rng.normal()))) for x in xs]
        slope, _, ci = fit_rate(pts)
        assert 0.45 <= slope <= 0.55
        assert ci[0] <= slope <= ci[1]

    def test_two_points_have_no_interval(self):
        # No residual degree of freedom: the slope's variance is undefined.
        slope, intercept, ci = fit_rate([(1.0, 2.0), (4.0, 1.0)])
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert ci is None

    def test_too_few_points(self):
        with pytest.raises(DomainError, match="^need at least 2 distinct x values$"):
            fit_rate([(1.0, 2.0)])
        with pytest.raises(DomainError, match="^need at least 2 distinct x values$"):
            fit_rate([(1.0, 2.0), (1.0, 3.0)])

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            fit_rate([(1.0, 0.0), (2.0, 1.0)])
        with pytest.raises(DomainError):
            fit_rate([(-1.0, 1.0), (2.0, 1.0)])

    # Each coordinate is read by model's checker of reals, which names it.
    @pytest.mark.parametrize(
        "pts, message",
        [
            ([(1, math.nan), (2, 1.0), (4, 0.5)], "y must be finite, got nan"),
            ([(math.inf, 1.0), (2, 1.0), (4, 0.5)], "x must be finite, got inf"),
            ([(1, 2.0), (2, math.inf)], "y must be finite, got inf"),
            ([(1, True), (2, 1.0)], "y must be a number, got True"),
            ([(10**400, 1.0), (2, 1.0)], "x must lie in the float range, got a number of 1329 bits"),
        ],
        ids=["nan-y", "inf-x", "inf-y", "True-y", "10**400-x"],
    )
    def test_each_coordinate_is_a_finite_real(self, pts, message):
        with pytest.raises(DomainError, match="^" + re.escape(message) + "$"):
            fit_rate(pts)

    def test_interval_bits_equal_scipy_stats(self, monkeypatch):
        rng = np.random.default_rng(8)
        pts = [(float(x), float(x**-0.5 * math.exp(0.1 * rng.normal()))) for x in range(1, 503)]
        fits = [fit_rate(pts[: dof + 2]) for dof in range(1, 501)]
        monkeypatch.setattr(harness, "stdtrit", lambda dof, p: stats.t.ppf(p, dof))
        for dof, fit in enumerate(fits, start=1):
            assert fit[2][0] < fit[2][1]
            assert fit_rate(pts[: dof + 2]) == fit, dof

    def test_x_rescaling_invariance(self):
        pts = [(1.0, 3.0), (2.0, 2.0), (4.0, 1.5), (8.0, 1.2)]
        slope1, int1, _ = fit_rate(pts)
        slope2, int2, _ = fit_rate([(10.0 * x, y) for x, y in pts])
        assert slope2 == pytest.approx(slope1, rel=1e-12)
        assert int2 == pytest.approx(int1 - slope1 * math.log(10.0), rel=1e-9)


class TestEmitReport:
    def test_failed_encoding_leaves_existing_file(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("kept\n")
        with pytest.raises(TypeError):
            write_atomic(path, json_chunks({"a": [1.0, 2.0], "b": object()}))
        assert path.read_text() == "kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_missing_directory_is_an_error_naming_the_path(self, tmp_path):
        path = tmp_path / "absent" / "out.json"
        with pytest.raises(MixbenchError, match=f"^cannot write {re.escape(str(path))}: "):
            write_atomic(path, json_chunks({"a": 1}))
        assert list(tmp_path.iterdir()) == []

    def test_directory_target_is_an_error_naming_the_path(self, tmp_path):
        path = tmp_path / "out.json"
        path.mkdir()
        with pytest.raises(MixbenchError, match=f"^cannot write {re.escape(str(path))}: "):
            write_atomic(path, json_chunks({"a": 1}))
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
        assert list(path.iterdir()) == []

    @pytest.mark.parametrize("obj", [[], {}, {"b": [1.5, None, True], "a": {"z": "x", "y": [[]]}}, 0.1, "s"])
    def test_json_chunks_join_to_dumps(self, obj):
        assert "".join(json_chunks(obj)) == json.dumps(obj, indent=2, sort_keys=True) + "\n"

    def test_csv_structure(self, tmp_path):
        cfg = smoke_config(replicates=2, sweep_axis="n", sweep_values=(100, 200))
        res = run_experiment(cfg)
        path = tmp_path / "out.csv"
        emit_report(res, path)
        lines = path.read_text().strip().split("\n")
        data_lines = [ln for ln in lines if not ln.startswith("#")]
        assert data_lines[0] == ",".join(CSV_COLUMNS)
        assert len(data_lines) == 2 * 2 + 1  # values * replicates + header
        summary_lines = [ln for ln in lines if ln.startswith("#")]
        assert len(summary_lines) == 2 + 1  # per-value summaries + slope line

    def test_empty_rows(self, tmp_path):
        res = SweepResult(rows=(), summary=())
        path = tmp_path / "empty.csv"
        emit_report(res, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert [ln for ln in lines[1:] if not ln.startswith("#")] == []

    def test_json_round_trip(self, tmp_path):
        cfg = smoke_config(replicates=2, sweep_axis="n", sweep_values=(100, 200, 400))
        res = run_experiment(cfg)
        path = tmp_path / "out.json"
        emit_report(res, path)
        back = json.loads(path.read_text())
        assert back["rows"] == [dict(zip(CSV_COLUMNS, dataclasses.astuple(r))) for r in res.rows]
        assert back["summary"] == [dataclasses.asdict(sm) for sm in res.summary]
        assert back["fitted_slope"] == res.fitted_slope
        assert back["slope_ci95"] == list(res.slope_ci95)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_undefined_slope_interval_is_written_empty(self, tmp_path, fmt):
        # Two points leave no residual degree of freedom for the interval.
        res = run_experiment(smoke_config(replicates=2, sweep_axis="n", sweep_values=(100, 200)))
        assert res.fitted_slope is not None and res.slope_ci95 is None
        path = tmp_path / f"out.{fmt}"
        emit_report(res, path)
        if fmt == "json":
            assert json.loads(path.read_text())["slope_ci95"] is None
        else:
            assert path.read_text().splitlines()[-1] == f"# fitted_slope,{res.fitted_slope!r},ci95,"

    def test_timing_zeroed_by_default(self, tmp_path):
        res = run_experiment(smoke_config())
        path = tmp_path / "out.json"
        emit_report(res, path)
        obj = json.loads(path.read_text())
        assert all(r["runtime_ms"] == 0.0 for r in obj["rows"])

    def test_failed_write_keeps_existing_report(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("previous report\n")
        row = run_experiment(smoke_config(replicates=1)).rows[0]
        unencodable = dataclasses.replace(row, estimator="\ud800")  # a lone surrogate fails to encode
        with pytest.raises(UnicodeEncodeError):
            emit_report(SweepResult(rows=(row, unencodable), summary=()), path)
        assert path.read_text() == "previous report\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_added_field_reaches_every_writer(self, tmp_path, monkeypatch):
        """A field added to SweepRow, with no other edit to the module, shows up
        in the CSV, in the JSON and in the rows read back."""
        source = inspect.getsource(harness)
        first_field = re.compile(r"^    \w+: ", re.M).search(source, source.index("class SweepRow:")).start()
        module = types.ModuleType("mixbench._harness_with_probe")
        module.__package__ = "mixbench"
        monkeypatch.setitem(sys.modules, module.__name__, module)
        exec(compile(source[:first_field] + "    probe: float\n" + source[first_field:], harness.__file__, "exec"), module.__dict__)
        row = run_experiment(smoke_config(replicates=1)).rows[0]
        fields = {f.name: getattr(row, f.name) for f in dataclasses.fields(SweepRow)}
        result = module.SweepResult(rows=(module.SweepRow(probe=0.125, **fields),), summary=())
        module.emit_report(result, tmp_path / "out.csv")
        header, cells = (tmp_path / "out.csv").read_text().splitlines()[:2]
        assert header.split(",")[0] == "probe" and cells.split(",")[0] == "0.125"
        module.emit_report(result, tmp_path / "out.json")
        assert json.loads((tmp_path / "out.json").read_text())["rows"][0]["probe"] == 0.125

    def test_unknown_format(self, tmp_path):
        res = run_experiment(smoke_config())
        path = tmp_path / "out.txt"
        with pytest.raises(DomainError, match=f"^cannot infer format from {re.escape(repr(str(path)))}; "):
            emit_report(res, path)
        assert list(tmp_path.iterdir()) == []

    def test_losses_in_range_and_sorted(self, tmp_path):
        cfg = smoke_config(replicates=3, sweep_axis="n", sweep_values=(100, 200))
        res = run_experiment(cfg)
        keys = [(r.axis_value, r.replicate) for r in res.rows]
        assert keys == sorted(keys)
        assert all(0.0 <= r.loss <= 0.5 for r in res.rows)
