"""Every run setting has one definition: `SolverConfig`'s field, its
default and its check."""
import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import levelseg
from levelseg.cli import main
from levelseg.solver import SolverConfig


def _public_functions():
    """(qualified name, function) of every public function and public
    method of a public class defined in a levelseg module."""
    for info in pkgutil.iter_modules(levelseg.__path__):
        module = importlib.import_module(f"levelseg.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, method in vars(obj).items():
                    if inspect.isfunction(method) and not attr.startswith("_"):
                        yield f"{module.__name__}.{name}.{attr}", method


def test_run_settings_have_one_definition(tmp_path, capsys):
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    assert len(fields) == 10
    # no function repeats a setting with a default of its own
    second = [f"{qualified}({param.name}=...)"
              for qualified, function in _public_functions()
              for param in inspect.signature(function).parameters.values()
              if param.name in fields and param.default is not param.empty]
    assert second == []
    # the speed exponent is checked where it is configured ...
    with pytest.raises(ValueError, match="p must be >= 1"):
        SolverConfig(p=0)
    # ... so `segment` rejects it before it reads the volume
    rc = main([
        "segment", "--input", str(tmp_path / "missing.json"),
        "--seed-left", "22,40,20", "--seed-right", "57,40,20",
        "--model", "classical", "--nmax", "5", "--p", "0", "--out", str(tmp_path / "x"),
    ])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: p must be >= 1"]
