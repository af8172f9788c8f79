"""Acceptance criteria, one test per criterion.

Each test exercises its criterion at the stated tolerance and prints a
single summary line like

    [criterion 03] rate-in-n: PASS in 14.2s (limit 300s)

so `pytest -s tests/test_acceptance.py` gives a per-criterion scoreboard.
The headline minimax constants are loose by design, so acceptance is
property-based (bounds hold, budgets certify) plus scaling-law slopes.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from mixbench.estimators import (
    oracle_support_pca,
    pca_classifier,
    screening_alpha,
    sparse_pca_classifier,
)
from mixbench.harness import ExperimentConfig, run_experiment
from mixbench.loss import loss_exact_linear
from mixbench.model import MixtureParams, sample, stream_seed
from mixbench.packing import fano_check, lower_bound_family, sparse_code, vg_code
from mixbench.verify import (
    KL_SAMPLES,
    SANDWICH_MARGIN,
    SANDWICH_TOL,
    suite_concentration,
    suite_davis_kahan,
    suite_kl,
    suite_loss_sandwich,
    suite_support_recovery,
)

THREADS = 4


class _Criterion:
    """Times a criterion and prints its pass/fail line on exit."""

    def __init__(self, num, name, limit_s):
        self.num = num
        self.name = name
        self.limit_s = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.limit_s else "FAIL"
        print(f"\n[criterion {self.num:02d}] {self.name}: {status} in {elapsed:.1f}s (limit {self.limit_s:.0f}s)")
        if exc_type is None and elapsed >= self.limit_s:
            raise AssertionError(f"criterion {self.num} exceeded its runtime limit: {elapsed:.1f}s")
        return False


def test_criterion_01_loss_sandwich():
    with _Criterion(1, "loss-sandwich", 5):
        assert (SANDWICH_TOL, SANDWICH_MARGIN) == (1e-8, 1e-7)
        entries = suite_loss_sandwich()
        assert len(entries) == 20
        for e in entries:
            assert e["holds"], e


def test_criterion_02_kl_dominance():
    with _Criterion(2, "kl-dominance", 120):
        assert KL_SAMPLES == 10**5
        entries = suite_kl(pairs=200)
        assert len(entries) == 200
        for e in entries:
            assert e["holds"], e


def test_criterion_03_rate_in_n():
    with _Criterion(3, "rate-in-n", 300):
        cfg = ExperimentConfig(
            estimator="dense_pca",
            n=1000,
            d=16,
            lam=0.8,
            replicates=200,
            master_seed=303,
            sweep_axis="n",
            sweep_values=(1000, 2000, 4000, 8000, 16000, 32000),
        )
        res = run_experiment(cfg, threads=THREADS)
        assert res.fitted_slope is not None
        assert -0.65 <= res.fitted_slope <= -0.35, res.fitted_slope


def test_criterion_04_rate_in_d():
    with _Criterion(4, "rate-in-d", 600):
        cfg = ExperimentConfig(
            estimator="dense_pca",
            n=20000,
            d=8,
            lam=0.8,
            replicates=200,
            master_seed=404,
            sweep_axis="d",
            sweep_values=(8, 16, 32, 64, 128),
        )
        res = run_experiment(cfg, threads=THREADS)
        assert res.fitted_slope is not None
        assert 0.35 <= res.fitted_slope <= 0.65, res.fitted_slope


def test_criterion_05_snr_dependence():
    with _Criterion(5, "snr-dependence", 300):
        cfg = ExperimentConfig(
            estimator="dense_pca",
            n=20000,
            d=16,
            lam=0.4,
            replicates=200,
            master_seed=505,
            sweep_axis="lambda",
            sweep_values=(0.4, 0.566, 0.8, 1.131),
        )
        res = run_experiment(cfg, threads=THREADS)
        assert res.fitted_slope is not None
        assert -2.6 <= res.fitted_slope <= -1.4, res.fitted_slope


def test_criterion_06_support_recovery():
    with _Criterion(6, "support-recovery", 180):
        (entry,) = suite_support_recovery()
        assert (entry["n"], entry["replicates"]) == (4000, 500)
        assert entry["alpha"] == screening_alpha(4000, 256) <= 0.25
        assert 4.0 * math.sqrt(entry["alpha"]) < 2.0  # 2-sigma signals exceed the strong threshold
        assert entry["S_tilde"] == entry["S"] == [0, 1, 2, 3]
        assert entry["holds"], entry


def test_criterion_07_sparse_oracle_advantage():
    with _Criterion(7, "sparse-oracle-advantage", 120):
        # few weak relevant coordinates: restricting to the true support wins
        d, n, s = 200, 1000, 4
        h = np.zeros(d)
        h[:s] = 0.25
        theta = MixtureParams(-h, h, 1.0)
        dense_losses, oracle_losses = [], []
        for r in range(300):
            ds = sample(theta, n, stream_seed(707, r))
            dense_losses.append(loss_exact_linear(theta, pca_classifier(ds), tol=1e-8))
            oracle_losses.append(loss_exact_linear(theta, oracle_support_pca(ds, theta), tol=1e-8))
        assert float(np.mean(oracle_losses)) + 0.05 < float(np.mean(dense_losses))

        # strong-signal regime: the screening estimator matches dense PCA
        d, n = 256, 4000
        h = np.zeros(d)
        h[:4] = 2.0
        theta = MixtureParams(-h, h, 1.0)
        dense_losses, sparse_losses = [], []
        for r in range(200):
            ds = sample(theta, n, stream_seed(708, r))
            dense_losses.append(loss_exact_linear(theta, pca_classifier(ds), tol=1e-8))
            clf, _ = sparse_pca_classifier(ds)
            sparse_losses.append(loss_exact_linear(theta, clf, tol=1e-8))
        dense_arr = np.asarray(dense_losses)
        se = float(dense_arr.std(ddof=1) / math.sqrt(dense_arr.size))
        assert float(np.mean(sparse_losses)) <= float(dense_arr.mean()) + 2.0 * se


def test_criterion_08_packing_certification():
    with _Criterion(8, "packing-certification", 30):
        code = vg_code(24)
        assert code.count >= 8 + 1  # 2^3 codewords plus the zero word
        assert code.min_distance >= 3
        assert code.verify()  # exhaustive pairwise check
        dists = code.pairwise_distances()
        assert int(dists[~np.eye(code.count, dtype=bool)].min()) >= 3

        sc = sparse_code(32, 8, seed=0)
        assert sc.count >= 10  # ceil(exp((8/5) log 4))
        off = sc.pairwise_distances()[~np.eye(sc.count, dtype=bool)]
        assert int(off.min()) >= 6  # > s/2 = 4 and even
        assert sc.verify()


def test_criterion_09_fano_budget():
    with _Criterion(9, "fano-budget", 60):
        dense = lower_bound_family("dense", 10**4, 9, lam=0.2)
        sparse = lower_bound_family("sparse", 10**4, 17, s=4, lam=0.2)
        for fam in (dense, sparse):
            rep = fano_check(fam)
            assert rep.alpha_fano <= 1.0 / 9.0 < 1.0 / 8.0, rep.alpha_fano
            assert rep.holds
            assert rep.window_holds, rep.pair_losses


def test_criterion_10_concentration_tails():
    with _Criterion(10, "concentration-tails", 120):
        for e in suite_concentration():
            assert e["trials"] == 10**5
            assert e["holds"], e
        dk = suite_davis_kahan(instances=1000)
        assert dk[0]["holds"], dk[0]


def test_criterion_11_cli_determinism(tmp_path):
    with _Criterion(11, "cli-determinism", 60):
        def run(*args):
            proc = subprocess.run(
                [sys.executable, "-m", "mixbench", *args], capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "estimator": "dense_pca",
                    "n": 200,
                    "d": 4,
                    "lambda": 2.0,
                    "replicates": 4,
                    "master_seed": 9,
                }
            )
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("simulate", "--config", str(cfg_path), "--out", str(a))
        run("simulate", "--config", str(cfg_path), "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

        ser, par = tmp_path / "ser.csv", tmp_path / "par.csv"
        run("simulate", "--config", str(cfg_path), "--out", str(ser), "--threads", "1")
        run("simulate", "--config", str(cfg_path), "--out", str(par), "--threads", "4")
        assert ser.read_bytes() == par.read_bytes()

        fam1, fam2 = tmp_path / "f1.json", tmp_path / "f2.json"
        run("packing", "--regime", "sparse", "--n", "10000", "--d", "17", "--s", "4",
            "--lambda", "0.2", "--seed", "3", "--out", str(fam1))
        run("packing", "--regime", "sparse", "--n", "10000", "--d", "17", "--s", "4",
            "--lambda", "0.2", "--seed", "3", "--out", str(fam2))
        assert fam1.read_bytes() == fam2.read_bytes()

        out1 = run("bounds", "--kind", "thm2_lower", "--n", "10000", "--d", "10", "--lambda", "0.2")
        out2 = run("bounds", "--kind", "thm2_lower", "--n", "10000", "--d", "10", "--lambda", "0.2")
        assert out1 == out2

        v1 = run("verify", "--suite", "loss-sandwich")
        v2 = run("verify", "--suite", "loss-sandwich")
        assert v1 == v2
