"""The error policy of ``src/ivt``: three classes, one meaning each.

``ConfigError`` says a run's settings are wrong, and only the settings gate
raises it; ``ContractError`` says a call broke its op's contract; and
``NumericError`` says a non-finite value appeared. The first two exit with
code 2, the last with code 3.
"""

import ast
import builtins
from pathlib import Path

from ivt import tensor as T

SRC = Path(__file__).resolve().parent.parent / "src" / "ivt"

# The settings gate: per module, the top-level classes and functions that may
# raise ConfigError. Each of them does.
GATES = {
    "synth.py": {"SceneSpec"},
    "train.py": {"TrainConfig", "check_run", "_check_root_cells", "evaluate"},
    "video.py": {"VideoConfig"},
    "cli.py": {"cmd_gradcheck", "read_config", "_read_section", "_check_poses",
               "_check_out_dir", "_frame_counts"},
}
ERRORS = {"ConfigError", "ContractError", "NumericError"}
MODULES = sorted(SRC.glob("*.py"))


def _names(node: ast.AST) -> set[str]:
    """Every identifier a node spells: names, attributes, imports, definitions."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
        elif isinstance(sub, (ast.ClassDef, ast.FunctionDef)):
            out.add(sub.name)
    return out


def _config_raisers(tree: ast.Module) -> set[str]:
    """The top-level classes and functions holding a ``raise ConfigError``;
    "<module>" for one outside them."""
    found = set()
    for top in tree.body:
        for sub in ast.walk(top):
            if isinstance(sub, ast.Raise) and sub.exc is not None:
                exc = sub.exc.func if isinstance(sub.exc, ast.Call) else sub.exc
                if "ConfigError" in _names(exc):
                    found.add(getattr(top, "name", "<module>"))
    return found


def test_error_classes_are_three_and_usage_ones_exit_two():
    errors = {name for name, v in vars(T).items()
              if isinstance(v, type) and issubclass(v, Exception)}
    assert errors == ERRORS
    assert issubclass(T.ConfigError, ValueError) and issubclass(T.ContractError, ValueError)
    assert not issubclass(T.NumericError, ValueError)


def test_every_error_class_a_module_names_is_ivts_or_builtin():
    assert len(MODULES) > len(GATES)
    for path in MODULES:
        named = {name for name in _names(ast.parse(path.read_text()))
                 if name.endswith("Error") and name != "Error"} - ERRORS
        other = sorted(name for name in named if not isinstance(getattr(builtins, name, None), type))
        assert not other, f"{path.name} names {other}"


def test_only_the_settings_gate_raises_config_error():
    assert {path.name for path in MODULES} >= set(GATES)
    for path in MODULES:
        raisers = _config_raisers(ast.parse(path.read_text()))
        assert raisers == GATES.get(path.name, set()), path.name
