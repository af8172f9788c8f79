"""The exception hierarchy: one class per failure mode, every raise names one,
and every count is checked by one checker."""

import ast
import inspect
import json
import pathlib
import re

import numpy as np
import pytest

import mixbench
from mixbench import cli, errors
from mixbench.errors import BudgetExceeded, DomainError, MixbenchError, NumericalError, PreconditionViolated
from mixbench.packing import family_to_json_dict

MODES = (DomainError, PreconditionViolated, BudgetExceeded, NumericalError)


class TestHierarchy:
    def test_the_module_defines_the_base_and_four_modes(self):
        # Any other name, a per-check class of an earlier hierarchy included,
        # is not importable from mixbench.errors.
        public = sorted(name for name in vars(errors) if not name.startswith("_"))
        assert public == ["BudgetExceeded", "DomainError", "MixbenchError", "NumericalError", "PreconditionViolated"]
        assert all(inspect.isclass(getattr(errors, name)) for name in public)

    @pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.__name__)
    def test_each_mode_derives_from_the_base_only(self, mode):
        assert mode.__bases__ == (MixbenchError,)

    def test_every_raise_names_a_mode(self):
        # A bare re-raise and SystemExit (the entry points' exit code) are
        # the only raises that name no mode.
        allowed = {mode.__name__ for mode in MODES} | {"SystemExit"}
        src = pathlib.Path(mixbench.__file__).parent
        found = []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Raise) or node.exc is None:
                    continue
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if not (isinstance(exc, ast.Name) and exc.id in allowed):
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []


class TestCliExitCodes:
    """Each mode that a command can raise ends in one error line and exit 2."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["bounds", "--kind", "thm1_upper", "--n", "10000", "--d", "10", "--lambda", "1e-200"],
                "lambda must lie between 2^-510 and 2^510, got 1e-200",
            ),
            (
                ["bounds", "--kind", "thm2_lower", "--n", "10000", "--d", "5", "--lambda", "0.1"],
                "requires d >= 9, got d = 5",
            ),
            (
                ["packing", "--regime", "dense", "--n", "10000", "--d", "30", "--lambda", "0.2", "--out", "{out}"],
                "enumeration budget is m <= 24, got m = 29",
            ),
        ],
        ids=["domain", "precondition", "budget"],
    )
    def test_mode_exits_2_with_its_message(self, argv, message, tmp_path, capsys):
        out = tmp_path / "fam.json"
        assert cli.main([arg.format(out=out) for arg in argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "call, mode",
        [
            (lambda: mixbench.theorem_bound("thm1_upper", n=10000, d=10, lam=1e-200), DomainError),
            (lambda: mixbench.theorem_bound("thm2_lower", n=10000, d=5, lam=0.1), PreconditionViolated),
            (lambda: mixbench.lower_bound_family("dense", 10000, 30, lam=0.2), BudgetExceeded),
        ],
        ids=["domain", "precondition", "budget"],
    )
    def test_the_commands_raise_one_mode_each(self, call, mode):
        with pytest.raises(MixbenchError) as info:
            call()
        assert type(info.value) is mode


HUGE = 10**400  # a whole number beyond the float range
THETA_16 = mixbench.MixtureParams(np.r_[-1.0, np.zeros(15)], np.r_[1.0, np.zeros(15)], 1.0)
CONFIG = {"estimator": "dense_pca", "n": 100, "d": 4, "lambda": 1.0}


class TestCounts:
    """Every count goes through one checker: a count below 1, one that is not
    whole, a bool or one beyond the float range is a DomainError naming it."""

    @pytest.mark.parametrize(
        "value, message",
        [(0, ">= 1, got 0"), (2.5, "a whole number, got 2.5"), (True, "a whole number, got True"), (HUGE, "at most the largest float, ")],
        ids=["0", "2.5", "True", "10**400"],
    )
    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda v: mixbench.sample(THETA_16, v, seed=0), "n"),
            (lambda v: mixbench.screening_alpha(v, 10), "n"),
            (lambda v: mixbench.screening_alpha(1000, v), "d"),
            (lambda v: mixbench.support_recovery_check(THETA_16, v, 2, seed=0), "n"),
            (lambda v: mixbench.support_recovery_check(THETA_16, 4000, v, seed=0), "replicates"),
            (lambda v: mixbench.lower_bound_family("dense", v, 9, lam=0.2), "n"),
            (lambda v: mixbench.lower_bound_family("dense", 10**4, v, lam=0.2), "d"),
            (lambda v: mixbench.sparse_code(v, 4), "m"),
            (lambda v: mixbench.run_experiment(mixbench.load_config(CONFIG), threads=v), "threads"),
            (lambda v: mixbench.theorem_bound("thm1_upper", n=v, d=10, lam=1.0), "n"),
            (lambda v: mixbench.concentration_bound("wishart_spectral", n=v, d=10, delta=0.1), "n"),
            (lambda v: mixbench.load_config({**CONFIG, "n": v}), "n"),
            (lambda v: mixbench.load_config({**CONFIG, "d": v}), "d"),
            (lambda v: mixbench.load_config({**CONFIG, "replicates": v}), "replicates"),
        ],
        ids=[
            "sample-n",
            "screening_alpha-n",
            "screening_alpha-d",
            "support_recovery_check-n",
            "support_recovery_check-replicates",
            "lower_bound_family-n",
            "lower_bound_family-d",
            "sparse_code-m",
            "run_experiment-threads",
            "theorem_bound-n",
            "concentration_bound-n",
            "load_config-n",
            "load_config-d",
            "load_config-replicates",
        ],
    )
    def test_every_count_is_checked_by_name(self, call, name, value, message):
        with pytest.raises(DomainError, match="^" + re.escape(f"{name} must be {message}")):
            call(value)

    def test_inputs_are_checked_before_the_precondition(self):
        # alpha = 0.98 > 1/4 at n = 100, d = 256: the count is named first.
        theta = mixbench.MixtureParams(np.zeros(256), np.r_[np.ones(4), np.zeros(252)], 1.0)
        with pytest.raises(DomainError, match="^replicates must be >= 1, got 0$"):
            mixbench.support_recovery_check(theta, 100, 0, seed=0)

    @pytest.mark.parametrize(
        "argv",
        [
            ["packing", "--regime", "dense", "--n", str(10**320), "--d", "9", "--lambda", "0.2", "--out", "{out}"],
            ["bounds", "--kind", "thm1_upper", "--n", str(10**320), "--d", "10", "--lambda", "1"],
            ["verify", "--suite", "fano", "--family", "{family}"],
        ],
        ids=["packing", "bounds", "verify"],
    )
    def test_a_count_beyond_the_float_range_exits_2(self, argv, tmp_path, capsys):
        out, family = tmp_path / "fam.json", tmp_path / "edited.json"
        family.write_text(json.dumps({**family_to_json_dict(mixbench.lower_bound_family("dense", 10**4, 9, lam=0.2)), "n": 10**320}))
        assert cli.main([arg.format(out=out, family=family) for arg in argv]) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == "" and stderr.startswith("error: ") and "n must be at most the largest float" in stderr
        assert not out.exists()


def _theorem(kind, **kwargs):
    return lambda v: mixbench.theorem_bound(kind, lam=v, **kwargs)


def _sweep(axis, **base):
    return lambda v: mixbench.load_config({**CONFIG, **base, "sweep": {"axis": axis, "values": [v]}})


class TestQuantities:
    """Each named quantity has one checker wherever it arrives: lambda and
    sigma are positive reals whose squares are normal floats, and s and
    n_samples are counts. 0, -1, True and a number beyond the float range are
    each a DomainError whose message begins with the quantity's name."""

    @pytest.mark.parametrize("value", [0, -1, True, HUGE], ids=["0", "-1", "True", "10**400"])
    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda v: mixbench.load_config({**CONFIG, "lambda": v}), "lambda"),
            (_sweep("lambda"), "lambda in sweep.values"),
            (lambda v: mixbench.lower_bound_family("dense", 10**4, 9, lam=v), "lambda"),
            (_theorem("thm1_upper", n=10**4, d=10), "lambda"),
            (_theorem("thm1_upper_largesep", n=1000, d=10), "lambda"),
            (_theorem("thm2_lower", n=10**4, d=10), "lambda"),
            (_theorem("thm3_upper", n=10**4, d=100, s=4), "lambda"),
            (_theorem("thm4_lower", n=10**4, d=41, s=5), "lambda"),
            (lambda v: mixbench.MixtureParams([0.0], [1.0], v), "sigma"),
            (lambda v: mixbench.concentration_bound("mean_concentration", n=400, d=16, delta=0.01, mu_norm=0.5, sigma=v), "sigma"),
            (lambda v: mixbench.load_config({**CONFIG, "s": v}), "s"),
            (_sweep("s"), "s in sweep.values"),
            (lambda v: mixbench.theorem_bound("thm3_upper", n=10**4, d=100, s=v, lam=1.0), "s"),
            (lambda v: mixbench.theorem_bound("thm4_lower", n=10**4, d=41, s=v, lam=0.2), "s"),
            (lambda v: mixbench.lower_bound_family("sparse", 10**4, 41, s=v, lam=0.2), "s"),
            (lambda v: mixbench.sparse_code(16, v), "s"),
            (lambda v: mixbench.kl_monte_carlo(THETA_16, THETA_16, n_samples=v), "n_samples"),
            (lambda v: mixbench.loss_monte_carlo(THETA_16, mixbench.bayes_classifier(THETA_16).predict, v, seed=0), "n_samples"),
        ],
        ids=[
            "config-lambda",
            "sweep-lambda",
            "lower_bound_family-lambda",
            "thm1_upper-lambda",
            "thm1_upper_largesep-lambda",
            "thm2_lower-lambda",
            "thm3_upper-lambda",
            "thm4_lower-lambda",
            "MixtureParams-sigma",
            "mean_concentration-sigma",
            "config-s",
            "sweep-s",
            "thm3_upper-s",
            "thm4_lower-s",
            "sparse_family-s",
            "sparse_code-s",
            "kl_monte_carlo-n_samples",
            "loss_monte_carlo-n_samples",
        ],
    )
    def test_every_quantity_is_checked_by_name(self, call, name, value):
        with pytest.raises(DomainError, match="^" + re.escape(f"{name} must ")):
            call(value)
