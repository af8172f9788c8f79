"""The exception hierarchy: one class per failure mode, and every raise names one."""

import ast
import inspect
import pathlib

import pytest

import mixbench
from mixbench import cli, errors
from mixbench.errors import BudgetExceeded, DomainError, MixbenchError, NumericalError, PreconditionViolated

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
                "lambda must be 0 or lie between 2^-510 and 2^510 in magnitude, got 1e-200",
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
