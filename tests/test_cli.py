"""End-to-end tests of the mixbench command line."""

import ast
import hashlib
import importlib
import inspect
import json
import pathlib
import re
import subprocess
import sys
import tracemalloc

import pytest

import mixbench
from mixbench import cli

from mixbench.harness import emit_report, load_config
from mixbench.packing import family_to_json_dict, fano_check, lower_bound_family
from mixbench.errors import ConfigError, DomainError
from mixbench.verify import SUITES, suite_davis_kahan, suite_fano, suite_kl

SMOKE_CONFIG = {
    "estimator": "dense_pca",
    "n": 200,
    "d": 4,
    "lambda": 2.0,
    "replicates": 3,
    "master_seed": 42,
}


# A family file holds the construction's inputs and its code, nothing derived.
FAMILY_KEYS = ("regime", "n", "d", "s", "lambda", "codewords", "code_min_distance", "code_weight")


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "mixbench", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


class TestBoundsCommand:
    def test_value_matches_library(self):
        from mixbench.bounds import theorem_bound

        proc = run_cli("bounds", "--kind", "thm1_upper", "--n", "10000", "--d", "10", "--lambda", "1.0")
        assert proc.returncode == 0
        obj = json.loads(proc.stdout)
        assert obj["bound_value"] == theorem_bound("thm1_upper", n=10000, d=10, lam=1.0)
        assert obj["vacuous"] is True
        assert sorted(obj) == ["bound_value", "d", "kind", "lambda", "n", "s", "vacuous"]

    def test_sigma_flag_exits_2(self):
        # Every kind reads lambda and sigma only through lambda / sigma.
        proc = run_cli("bounds", "--kind", "thm1_upper", "--n", "10000", "--d", "10", "--lambda", "1", "--sigma", "1")
        assert proc.returncode == 2
        assert "unrecognized arguments: --sigma" in proc.stderr
        assert proc.stdout == ""

    def test_hypothesis_violation_reports_error(self):
        proc = run_cli("bounds", "--kind", "thm2_lower", "--n", "10000", "--d", "5", "--lambda", "0.2")
        assert proc.returncode == 2
        assert "d >= 9" in proc.stderr

    def test_lambda_whose_square_underflows_exits_2(self):
        proc = run_cli("bounds", "--kind", "thm1_upper", "--n", "10000", "--d", "10", "--lambda", "1e-200")
        assert proc.returncode == 2
        assert proc.stderr == "error: lambda must be 0 or lie between 2^-510 and 2^510 in magnitude, got 1e-200\n"

    def test_lambda_is_required(self):
        # Its old default 0.0 failed every kind, as a domain error after parsing.
        proc = run_cli("bounds", "--kind", "thm1_upper", "--n", "10000", "--d", "10")
        assert proc.returncode == 2
        assert "required: --lambda" in proc.stderr

    def test_s_for_a_kind_that_does_not_read_it_exits_2(self):
        # thm1_upper does not read s: --s 5 printed "s": 5 beside a value that ignores it.
        proc = run_cli("bounds", "--kind", "thm1_upper", "--n", "10000", "--d", "10", "--lambda", "1", "--s", "5")
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: s is not read by thm1_upper\n")

    def test_s_prints_null_where_not_read(self):
        proc = run_cli("bounds", "--kind", "thm2_lower", "--n", "10000", "--d", "10", "--lambda", "0.2")
        assert proc.returncode == 0 and json.loads(proc.stdout)["s"] is None

    @pytest.mark.parametrize("kind, d", [("thm3_upper", "100"), ("thm4_lower", "41")])
    def test_sparse_kinds_need_s(self, kind, d):
        proc = run_cli("bounds", "--kind", kind, "--n", "10000", "--d", d, "--lambda", "0.2")
        assert (proc.returncode, proc.stderr) == (2, f"error: s is required by {kind}\n")

    def test_thm3_s_above_d_exits_2(self):
        # It printed 2757.87 for s = 50 > d = 10.
        proc = run_cli("bounds", "--kind", "thm3_upper", "--n", "10000", "--d", "10", "--s", "50", "--lambda", "1")
        assert (proc.returncode, proc.stderr) == (2, "error: requires 1 <= s <= d = 10, got s = 50\n")

    @pytest.mark.parametrize(
        "n_args, named", [([], "--n"), (["--n", "0"], "error: n must")], ids=["missing", "zero"]
    )
    def test_bad_n_exits_2(self, n_args, named):
        proc = run_cli("bounds", "--kind", "thm2_lower", *n_args, "--d", "10", "--lambda", "0.2")
        assert proc.returncode == 2
        assert "error:" in proc.stderr and named in proc.stderr


class TestPackingCommand:
    def test_writes_family_and_verify_reads_it(self, tmp_path):
        out = tmp_path / "family.json"
        proc = run_cli("packing", "--regime", "dense", "--n", "10000", "--d", "9", "--lambda", "0.2", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        obj = json.loads(out.read_text())
        assert obj["regime"] == "dense"
        assert sorted(obj) == sorted(FAMILY_KEYS)
        check = run_cli("verify", "--suite", "fano", "--family", str(out))
        assert check.returncode == 0, check.stdout + check.stderr
        entries = json.loads(check.stdout)
        assert len(entries) == 1 and entries[0]["holds"]

    # Past lambda/sigma of about 0.48, gamma and so the implied lower bound
    # are negative, while the KL budget and the loss window still hold.
    @pytest.mark.parametrize("lam", ["0.5", "1", "20"])
    def test_family_that_certifies_nothing_fails_verify(self, tmp_path, lam):
        out = tmp_path / "family.json"
        proc = run_cli("packing", "--regime", "dense", "--n", "10000", "--d", "9", "--lambda", lam, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        check = run_cli("verify", "--suite", "fano", "--family", str(out))
        assert check.returncode == 1, check.stdout + check.stderr
        (entry,) = json.loads(check.stdout)
        assert entry["implied_lower_bound"] < 0 and not entry["holds"]

    @pytest.mark.parametrize("flag, name", [("--lambda", "lambda")])
    def test_nan_parameter_exits_2_naming_it(self, tmp_path, flag, name):
        proc = run_cli("packing", "--regime", "dense", "--n", "10000", "--d", "9", flag, "nan", "--out", str(tmp_path / "family.json"))
        assert proc.returncode == 2
        assert proc.stderr == f"error: {name} must be finite, got nan\n"

    def test_sigma_flag_exits_2(self, tmp_path):
        # lambda is read in units of sigma: --sigma only rescaled it.
        out = tmp_path / "family.json"
        proc = run_cli("packing", "--regime", "dense", "--n", "10000", "--d", "9", "--lambda", "0.2", "--sigma", "1", "--out", str(out))
        assert proc.returncode == 2
        assert "unrecognized arguments: --sigma" in proc.stderr
        assert not out.exists()

    def test_lambda_beyond_float_square_exits_2(self, tmp_path):
        out = tmp_path / "family.json"
        proc = run_cli("packing", "--regime", "dense", "--n", "10000", "--d", "9", "--lambda", "1e200", "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr == "error: lambda must be 0 or lie between 2^-510 and 2^510 in magnitude, got 1e+200\n"
        assert not out.exists()

    def test_lambda_beyond_float_fourth_power_exits_2(self, tmp_path):
        # The family built, and verify --suite fano on it was an OverflowError.
        out = tmp_path / "family.json"
        proc = run_cli("packing", "--regime", "dense", "--n", "10000", "--d", "9", "--lambda", "2e100", "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: lambda / 2 must be at most 2^255")
        assert not out.exists()

    @pytest.mark.parametrize("regime", [["--regime", "dense", "--d", "9"], ["--regime", "sparse", "--d", "41", "--s", "8"]])
    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_out_of_range_exits_2(self, tmp_path, regime, seed):
        out = tmp_path / "family.json"
        proc = run_cli("packing", *regime, "--n", "10000", "--lambda", "0.2", "--seed", seed, "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr == f"error: seed must lie in [0, 2^64), got {seed}\n"
        assert not out.exists()

    def test_out_bytes_equal_dumps(self, tmp_path):
        out = tmp_path / "family.json"
        # d = 161: the encoder's 61k chunks reach the file in 15 writes.
        proc = run_cli("packing", "--regime", "sparse", "--n", "10000", "--d", "161", "--s", "8", "--lambda", "0.2",
                       "--seed", "3", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        family = lower_bound_family("sparse", 10_000, 161, s=8, lam=0.2, seed=3)
        text = json.dumps(family_to_json_dict(family), indent=2, sort_keys=True) + "\n"
        assert out.read_bytes() == text.encode()

    def test_write_holds_less_than_the_file(self, tmp_path, monkeypatch):
        # From the JSON-ready dict on, the command holds no copy of the text.
        marks = {}

        def to_json_dict(family):
            obj = family_to_json_dict(family)
            marks["held"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            return obj

        monkeypatch.setattr(cli, "family_to_json_dict", to_json_dict)
        out = tmp_path / "family.json"
        tracemalloc.start()
        try:
            code = cli.main(["packing", "--regime", "sparse", "--n", "10000", "--d", "161", "--s", "8",
                             "--lambda", "0.2", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak - marks["held"] < out.stat().st_size

    @pytest.mark.parametrize("seed", ["5", "0"])
    def test_dense_with_seed_exits_2(self, tmp_path, seed):
        # The dense code has no seed: --seed 5 wrote seed 0's family.
        out = tmp_path / "family.json"
        proc = run_cli("packing", "--regime", "dense", "--n", "10000", "--d", "9", "--lambda", "0.2", "--seed", seed, "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr == f"error: seed applies to the sparse regime only, got seed = {seed} in the dense regime\n"
        assert not out.exists()

    def test_dense_with_s_exits_2(self, tmp_path):
        out = tmp_path / "family.json"
        proc = run_cli(
            "packing", "--regime", "dense", "--n", "10000", "--d", "9", "--s", "4", "--lambda", "0.2",
            "--out", str(out),
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: s applies to the sparse regime only, got s = 4 in the dense regime\n"
        assert not out.exists()

    def test_sparse_needs_s(self, tmp_path):
        out = tmp_path / "family.json"
        proc = run_cli(
            "packing", "--regime", "sparse", "--n", "10000", "--d", "17", "--lambda", "0.2",
            "--out", str(out),
        )
        assert proc.returncode == 2


class TestSimulateCommand:
    def test_csv_output_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, SMOKE_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out1)).returncode == 0
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out2)).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_serial_parallel_identical(self, tmp_path):
        cfg = write_config(tmp_path, {**SMOKE_CONFIG, "replicates": 6})
        out1, out2 = tmp_path / "s.csv", tmp_path / "p.csv"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out1), "--threads", "1").returncode == 0
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out2), "--threads", "4").returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_config_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {**SMOKE_CONFIG, "mystery": 1})
        proc = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert "mystery" in proc.stderr

    def test_sigma_key_exits_2(self, tmp_path):
        # Sweeps run at sigma = 1, and lambda is read as lambda / sigma.
        out = tmp_path / "x.csv"
        proc = run_cli("simulate", "--config", str(write_config(tmp_path, {**SMOKE_CONFIG, "sigma": 1.0})), "--out", str(out))
        assert (proc.returncode, proc.stderr) == (2, "error: unknown config keys: ['sigma']\n")
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("signal_profile", "equal_coords"), ("custom_signal", [1.0, 0.0, 0.0, 0.0])])
    def test_removed_signal_keys_exit_2(self, tmp_path, key, value):
        out = tmp_path / "x.csv"
        proc = run_cli("simulate", "--config", str(write_config(tmp_path, {**SMOKE_CONFIG, key: value})), "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr == f"error: unknown config keys: ['{key}']\n"
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-5"])
    def test_thread_count_below_one_rejected(self, tmp_path, threads):
        cfg = write_config(tmp_path, SMOKE_CONFIG)
        out = tmp_path / "x.csv"
        proc = run_cli("simulate", "--config", str(cfg), "--out", str(out), "--threads", threads)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and "threads" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "rates"])
    def test_bad_extension_rejected_before_the_sweep(self, tmp_path, monkeypatch, capsys, command):
        from mixbench import cli

        calls = []
        monkeypatch.setattr(cli, "run_experiment", lambda *args, **kwargs: calls.append(args))
        cfg = write_config(tmp_path, {**SMOKE_CONFIG, "sweep": {"axis": "n", "values": [200, 400]}})
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "report.txt")]) == 2
        assert calls == []
        assert "report.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "rates"])
    def test_timing_flag_exits_2(self, tmp_path, command):
        # A report carries no timings, so no flag asks for them.
        out = tmp_path / "out.csv"
        proc = run_cli(command, "--config", str(write_config(tmp_path, SMOKE_CONFIG)), "--out", str(out), "--timing")
        assert proc.returncode == 2
        assert "unrecognized arguments: --timing" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("content", [None, "{not json"], ids=["missing", "malformed"])
    def test_unreadable_config_exits_2(self, tmp_path, content):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_text(content)
        proc = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and str(cfg) in proc.stderr

    # At 1e200 the run sampled and then failed on a non-finite matrix; at
    # 1e-200 it failed with a false "mu1 == mu2".
    @pytest.mark.parametrize("lam", [1e200, 1e-200])
    def test_lambda_that_cannot_build_its_mixture_exits_2_at_load(self, tmp_path, lam):
        obj = {"estimator": "dense_pca", "n": 100, "d": 4, "lambda": lam}
        with pytest.raises(ConfigError, match="^" + re.escape(f"lambda = {lam!r} cannot build its mixture")):
            load_config(obj)
        out = tmp_path / "x.csv"
        proc = run_cli("simulate", "--config", str(write_config(tmp_path, obj)), "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: lambda = {lam!r} cannot build its mixture")
        assert not out.exists()

    def test_json_output(self, tmp_path):
        cfg = write_config(tmp_path, SMOKE_CONFIG)
        out = tmp_path / "a.json"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)).returncode == 0
        obj = json.loads(out.read_text())
        assert len(obj["rows"]) == 3


class TestRatesCommand:
    def test_slope_report(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {**SMOKE_CONFIG, "n": 400, "replicates": 5, "sweep": {"axis": "n", "values": [400, 800, 1600]}},
        )
        proc = run_cli("rates", "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        obj = json.loads(proc.stdout)
        assert obj["axis"] == "n"
        assert len(obj["mean_losses"]) == 3
        assert obj["fitted_slope"] is not None

    def test_two_point_sweep_prints_null_interval(self, tmp_path):
        cfg = write_config(tmp_path, {**SMOKE_CONFIG, "replicates": 2, "sweep": {"axis": "n", "values": [200, 400]}})
        proc = run_cli("rates", "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["fitted_slope"] is not None
        assert '"slope_ci95": null' in proc.stdout

    def test_config_without_sweep_exits_2(self, tmp_path):
        proc = run_cli("rates", "--config", str(write_config(tmp_path, SMOKE_CONFIG)))
        assert proc.returncode == 2
        assert proc.stderr == "error: rates requires a config with a sweep block\n"

    def test_sparsity_axis(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "estimator": "oracle_support_pca",
                "n": 400,
                "d": 16,
                "lambda": 2.0,
                "replicates": 2,
                "sweep": {"axis": "s", "values": [1, 2, 4]},
            },
        )
        proc = run_cli("rates", "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        obj = json.loads(proc.stdout)
        assert obj["axis"] == "s"
        assert obj["values"] == [1.0, 2.0, 4.0]
        assert obj["fitted_slope"] is not None


class TestVerifyCommand:
    @pytest.mark.parametrize(
        "suite, kwargs, name",
        [
            (suite_kl, {"pairs": 2.9}, "pairs"),
            (suite_davis_kahan, {"instances": True}, "instances"),
            (suite_kl, {"pairs": 0}, "pairs"),
            (suite_davis_kahan, {"instances": 0}, "instances"),
            (suite_davis_kahan, {"instances": -5}, "instances"),
        ],
    )
    def test_suite_counts_must_be_whole(self, suite, kwargs, name):
        with pytest.raises(DomainError, match=f"^{name} "):
            suite(**kwargs)

    def test_suites_take_only_the_arguments_callers_set(self):
        """A gate's other inputs are fixed in mixbench.verify, not options."""
        params = {
            name: [(p.name, p.default) for p in inspect.signature(suite).parameters.values()]
            for name, suite in SUITES.items()
        }
        assert params == {
            "loss-sandwich": [],
            "kl": [("pairs", 200)],
            "concentration": [],
            "fano": [("families", None)],
            "triangle": [("seed", 0)],
            "davis-kahan": [("instances", 1000), ("seed", 4242)],
            "support-recovery": [],
        }

    def test_certificate_and_report_take_no_options(self):
        """The Fano certificate reads only the closed-form KL, and a report
        carries no timings."""
        assert list(inspect.signature(fano_check).parameters) == ["family"]
        assert list(inspect.signature(emit_report).parameters) == ["result", "fmt", "path"]

    def test_loss_sandwich_suite(self):
        proc = run_cli("verify", "--suite", "loss-sandwich")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        entries = json.loads(proc.stdout)
        assert len(entries) == 20
        assert all(e["holds"] for e in entries)

    def test_fano_suite_default(self):
        proc = run_cli("verify", "--suite", "fano")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        entries = json.loads(proc.stdout)
        assert {e["regime"] for e in entries} == {"dense", "sparse"}

    def test_triangle_suite(self):
        proc = run_cli("verify", "--suite", "triangle")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_missing_family_file_exits_2(self, tmp_path):
        path = tmp_path / "nowhere.json"
        proc = run_cli("verify", "--suite", "fano", "--family", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and str(path) in proc.stderr

    def test_family_without_codewords_exits_2(self, tmp_path):
        path = write_config(tmp_path, {"thetas": []}, name="family.json")
        proc = run_cli("verify", "--suite", "fano", "--family", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and "codewords" in proc.stderr

    @pytest.mark.parametrize("key, value", [("n", 10000.7), ("code_min_distance", 1.5), ("s", 2.5)])
    def test_family_fractional_count_exits_2(self, tmp_path, key, value):
        obj = family_to_json_dict(lower_bound_family("dense", 10**4, 9, lam=0.2))
        obj[key] = value
        path = write_config(tmp_path, obj, name="family.json")
        proc = run_cli("verify", "--suite", "fano", "--family", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: family file {path} is malformed")
        assert f"{key} must be a whole number, got {value}" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "key, value, named",
        [("d", 12, "codewords"), ("lambda", True, "lambda"), ("lambda", 2e100, "lambda / 2")],
        ids=["d-12", "lambda-True", "lambda-2e100"],
    )
    def test_family_header_not_matching_members_exits_2(self, tmp_path, key, value, named):
        obj = family_to_json_dict(lower_bound_family("dense", 10**4, 9, lam=0.2))
        obj[key] = value
        path = write_config(tmp_path, obj, name="family.json")
        proc = run_cli("verify", "--suite", "fano", "--family", str(path))
        assert proc.returncode == 2
        prefix = f"error: family file {path} is malformed: DomainError("
        assert proc.stderr.startswith(prefix)
        assert proc.stderr[len(prefix) + 1 :].startswith(f"{named} ")  # after the message's opening quote
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda obj, fam: obj.update(epsilon=3.0 * fam.epsilon),
            lambda obj, fam: obj.update(gamma=100.0 * fam.gamma),
            lambda obj, fam: obj.update(lambda0=fam.lambda0 * (1.0 - 1e-6)),
            lambda obj, fam: obj.update(regime="sparse", s=8),
            lambda obj, fam: obj.update(code_min_distance=2),
        ],
        ids=["epsilon-x3", "gamma-x100", "lambda0", "sparse-s8", "min-distance"],
    )
    def test_family_not_rebuilt_by_construction_exits_2(self, tmp_path, edit):
        fam = lower_bound_family("dense", 10**4, 9, lam=0.2)
        obj = family_to_json_dict(fam)
        edit(obj, fam)
        path = write_config(tmp_path, obj, name="family.json")
        proc = run_cli("verify", "--suite", "fano", "--family", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: family file {path} is malformed: ")
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "make, named",
        [
            (lambda old, new: old, "missing: none; unknown: epsilon, gamma, lambda0, thetas')"),
            *((lambda old, new, key=key: {**new, key: old[key]}, f"missing: none; unknown: {key}')")
              for key in ("epsilon", "gamma", "lambda0", "thetas")),
            (lambda old, new: [1, 2], "DomainError('a family file must be a JSON object')"),
            (lambda old, new: "x", "DomainError('a family file must be a JSON object')"),
        ],
        ids=["old-format", "epsilon", "gamma", "lambda0", "thetas", "list", "string"],
    )
    def test_family_file_holds_only_inputs_and_code(self, tmp_path, make, named):
        fam = lower_bound_family("dense", 10**4, 9, lam=0.2)
        new = family_to_json_dict(fam)
        # The file as packing once wrote it, with the derived values and every member.
        old = {**new, "epsilon": fam.epsilon, "gamma": fam.gamma, "lambda0": fam.lambda0,
               "thetas": [theta.to_json_dict() for theta in fam.thetas]}
        path = write_config(tmp_path, make(old, new), name="family.json")
        proc = run_cli("verify", "--suite", "fano", "--family", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: family file {path} is malformed: DomainError(")
        assert proc.stderr.endswith(named + "\n")
        assert proc.stdout == ""

    @pytest.mark.parametrize("key, value", [("n", 10**6)], ids=["n"])
    def test_family_of_edited_inputs_is_certified(self, tmp_path, key, value):
        # The file holds only inputs, so a file with an edited input holds the family of the edited inputs.
        obj = {**family_to_json_dict(lower_bound_family("dense", 10**4, 9, lam=0.2)), key: value}
        path = write_config(tmp_path, obj, name="family.json")
        proc = run_cli("verify", "--suite", "fano", "--family", str(path))
        entries = suite_fano([lower_bound_family("dense", value, 9, lam=0.2)])
        assert proc.stdout == json.dumps(entries, indent=2, sort_keys=True) + "\n"
        assert proc.returncode == (0 if all(e["holds"] for e in entries) else 1), proc.stderr

    def test_family_file_with_sigma_exits_2(self, tmp_path):
        # lambda is read in units of sigma, so a file written with a sigma key
        # no longer loads, and the error names the key.
        obj = {**family_to_json_dict(lower_bound_family("dense", 10**4, 9, lam=0.2)), "sigma": 1.0}
        path = write_config(tmp_path, obj, name="family.json")
        proc = run_cli("verify", "--suite", "fano", "--family", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: family file {path} is malformed: DomainError(")
        assert proc.stderr.endswith("missing: none; unknown: sigma')\n")
        assert proc.stdout == ""

    def test_missing_family_file_keeps_its_own_error(self, tmp_path):
        path = tmp_path / "absent.json"
        proc = run_cli("verify", "--suite", "fano", "--family", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: cannot read {path}")

    def test_family_outside_fano_suite_exits_2(self):
        proc = run_cli("verify", "--suite", "loss-sandwich", "--family", "/nonexistent.json")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and "--family" in proc.stderr
        assert proc.stdout == ""

    def test_output_file(self, tmp_path):
        out = tmp_path / "sandwich.json"
        proc = run_cli("verify", "--suite", "loss-sandwich", "--out", str(out))
        assert proc.returncode == 0
        assert len(json.loads(out.read_text())) == 20
        text = json.dumps(SUITES["loss-sandwich"](), indent=2, sort_keys=True) + "\n"
        assert out.read_bytes() == text.encode()
        assert run_cli("verify", "--suite", "loss-sandwich").stdout == text

    def test_fano_output_file_bytes_equal_dumps(self, tmp_path):
        family = tmp_path / "family.json"
        out = tmp_path / "fano.json"
        args = ["--regime", "dense", "--n", "10000", "--d", "9", "--lambda", "0.2", "--out", str(family)]
        assert run_cli("packing", *args).returncode == 0
        proc = run_cli("verify", "--suite", "fano", "--family", str(family), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        entries = suite_fano([lower_bound_family("dense", 10_000, 9, lam=0.2)])
        assert out.read_bytes() == (json.dumps(entries, indent=2, sort_keys=True) + "\n").encode()


class TestOutDirectory:
    """An --out file in a directory that does not exist, or an --out that is a
    directory, is a bad input: exit 2 with an error line naming it, before any
    compute."""

    OUT = "/nonexistent-dir/f.json"
    COMPUTE = [("simulate", "run_experiment"), ("rates", "run_experiment"), ("packing", "lower_bound_family"), ("verify", None)]

    def args(self, tmp_path, command, out=OUT):
        cfg = write_config(tmp_path, {**SMOKE_CONFIG, "sweep": {"axis": "n", "values": [200, 400]}})
        return {
            "simulate": ["simulate", "--config", str(cfg)],
            "rates": ["rates", "--config", str(cfg)],
            "packing": ["packing", "--regime", "dense", "--n", "10000", "--d", "9", "--lambda", "0.2"],
            "verify": ["verify", "--suite", "triangle"],
        }[command] + ["--out", str(out)]

    @pytest.mark.parametrize("command", ["simulate", "rates", "packing", "verify"])
    def test_exits_2_without_traceback(self, tmp_path, command):
        proc = run_cli(*self.args(tmp_path, command))
        assert proc.returncode == 2
        assert proc.stderr == f"error: cannot write {self.OUT}: its directory does not exist\n"
        assert proc.stdout == ""

    @staticmethod
    def fake_compute(monkeypatch, target) -> list:
        """Replace the command's compute with a recorder of its calls."""
        calls = []

        def fake(*args, **kwargs):
            calls.append(args)

        if target is None:
            monkeypatch.setitem(cli.SUITES, "triangle", fake)
        else:
            monkeypatch.setattr(cli, target, fake)
        return calls

    @pytest.mark.parametrize("command, target", COMPUTE)
    def test_nothing_is_computed(self, tmp_path, monkeypatch, capsys, command, target):
        calls = self.fake_compute(monkeypatch, target)
        assert cli.main(self.args(tmp_path, command)) == 2
        assert calls == []
        assert self.OUT in capsys.readouterr().err

    @pytest.mark.parametrize("command, target", COMPUTE)
    def test_directory_out_exits_2_before_any_compute(self, tmp_path, monkeypatch, capsys, command, target):
        out = tmp_path / "out.json"
        out.mkdir()
        calls = self.fake_compute(monkeypatch, target)
        assert cli.main(self.args(tmp_path, command, out)) == 2
        assert calls == []
        assert capsys.readouterr() == ("", f"error: cannot write {out}: it is a directory\n")
        assert list(out.iterdir()) == []


class TestPackageSource:
    def test_no_assert_statements(self):
        # python -O drops assert statements, so a check written as one is not a check.
        src = pathlib.Path(mixbench.__file__).parent
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assert)
        ]
        assert found == []


class TestBenchmarkBindings:
    """The benchmark's traced run rebinds each (module, name) in
    perfbench/tracing.py BINDINGS; one that no longer resolves would stop it."""

    def test_every_binding_resolves(self, monkeypatch):
        monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
        tracing = importlib.import_module("tracing")
        missing = [(module, name) for module, name, _ in tracing.BINDINGS if not hasattr(importlib.import_module(module), name)]
        assert missing == []


class TestImportPath:
    """A mixbench process loads numpy and scipy.special only: scipy.stats
    alone once took 0.5 s of a 0.8 s start-up and 46 MB of resident memory."""

    HEAVY = ("scipy.stats", "scipy.optimize", "scipy.integrate", "scipy.linalg", "scipy.sparse", "scipy.interpolate")

    def test_simulate_with_rate_fit_loads_no_heavy_scipy(self, tmp_path):
        cfg = write_config(tmp_path, {**SMOKE_CONFIG, "sweep": {"axis": "n", "values": [100, 200, 400]}})
        out = tmp_path / "report.json"
        script = (
            "import sys, mixbench, mixbench.cli\n"
            f"assert mixbench.cli.main(['simulate', '--config', {str(cfg)!r}, '--out', {str(out)!r}]) == 0\n"
            f"print(sorted(m for m in {self.HEAVY!r} if m in sys.modules))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        # The sweep reached fit_rate's t quantile: three points, a nonzero interval.
        low, high = json.loads(out.read_text())["slope_ci95"]
        assert low < high


class TestReportBytes:
    """Report bytes pinned by sha256. A change to the serializers that moves a
    byte of a report fails here; the digests were taken before the report
    writers were derived from the dataclass fields. CONFIG's two-point sweep
    has no slope interval, so its ci95 line and key read empty and null."""

    CONFIG = {
        "estimator": "oracle_support_pca",
        "n": 200,
        "d": 8,
        "s": 2,
        "lambda": 2.0,
        "replicates": 2,
        "master_seed": 7,
        "sweep": {"axis": "n", "values": [200, 400]},
    }
    DIGESTS = {
        "csv": "2d363c02b03118f50762e8a10afbb483bfee5afa6ad52a8cdade21a91cb17114",
        "json": "d1241338346038f2f9e7a57927f98c12acd8aedcffbfe24bd8f79a3ac497319d",
    }

    # sparse_pca inside the screening guarantee: screening selects the 4
    # signal coordinates in every replicate, so the restricted PCA fit runs.
    SCREENED_CONFIG = {
        "estimator": "sparse_pca",
        "n": 1000,
        "d": 32,
        "s": 4,
        "lambda": 6.4,
        "replicates": 4,
        "master_seed": 11,
        "sweep": {"axis": "n", "values": [1000, 2000, 4000]},
    }
    SCREENED_DIGESTS = {
        "csv": "95e5d921d66d5ef2ea32ac6ef1c7110445422809fcc7acd25759bd2c2fc6d1af",
        "json": "a6406dd74be62928ceab84db9c6a717ba2a3a6e96f43ff9c550aa429283dbffa",
    }

    # Dense PCA up to d = 256: the power iteration's longest solves.
    DENSE_CONFIG = {
        "estimator": "dense_pca",
        "n": 2000,
        "d": 8,
        "lambda": 1.0,
        "replicates": 3,
        "master_seed": 5,
        "sweep": {"axis": "d", "values": [8, 64, 256]},
    }
    DENSE_DIGESTS = {
        "csv": "931b11fd7c03fdece819ca4157e0e5576ce9324b200409c20cc793e3e63258ef",
        "json": "ca94021d103fb02c9d2ac855a7e4032d98fd314d49a1cbf92c04c58c703aaa8c",
    }

    @staticmethod
    def simulate(tmp_path, config, fmt):
        cfg = write_config(tmp_path, config)
        out = tmp_path / f"report.{fmt}"
        proc = run_cli("simulate", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        return out

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_simulate_report(self, tmp_path, fmt):
        out = self.simulate(tmp_path, self.CONFIG, fmt)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DIGESTS[fmt]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_screened_report(self, tmp_path, fmt):
        out = self.simulate(tmp_path, self.SCREENED_CONFIG, fmt)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.SCREENED_DIGESTS[fmt]
        if fmt == "json":
            # An empty selection would make the row degenerate.
            assert not any(row["degenerate"] for row in json.loads(out.read_text())["rows"])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_dense_report(self, tmp_path, fmt):
        out = self.simulate(tmp_path, self.DENSE_CONFIG, fmt)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DENSE_DIGESTS[fmt]

    def test_fano_entry(self):
        family = lower_bound_family("sparse", 10_000, 17, s=4, lam=0.2, seed=0)
        (entry,) = suite_fano([family])
        text = json.dumps(entry, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == "1d7ce71691fdc813a2d02d48ddc8d626c6bf9696ed57ed2b4cba1715d0689e91"

    def test_dense_fano_entry(self):
        family = lower_bound_family("dense", 10_000, 9, lam=0.2)
        (entry,) = suite_fano([family])
        text = json.dumps(entry, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == "f71f149dd1eef99ee3908594a47b047d396bb06f5ff46fde720d7c1518db98b8"

    def test_kl_suite(self):
        # 20 pairs over d = 2 to 8: the row-blocked sample and log-density passes.
        text = json.dumps(suite_kl(pairs=20), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == "afb819164e615567723ddb2621382a732882afc083be3fffb9e4d9727cb4b087"

    @pytest.mark.parametrize(
        "args, digest",
        [
            (["--regime", "dense", "--d", "9"], "91df67867681c30881cae52236a024834dbe6942aee698b28bfae73e865968f6"),
            (["--regime", "sparse", "--d", "41", "--s", "8", "--seed", "0"], "66106379f44cb310fbf09de21630b38d9de7c11f49438b73d545f49f88a1eb8c"),
        ],
        ids=["dense", "sparse"],
    )
    def test_packing_family(self, tmp_path, args, digest):
        out = tmp_path / "family.json"
        proc = run_cli("packing", *args, "--n", "10000", "--lambda", "0.2", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
