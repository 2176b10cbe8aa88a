"""The benchmark's tracer wraps library stages by name: every stage it
lists must name a public callable of annuharm, so renaming one fails here
rather than in a traced benchmark run."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _stages() -> dict:
    """The STAGES literal of perfbench/tracing.py, read without importing it."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "STAGES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no STAGES assignment in {TRACING}")


@pytest.mark.parametrize("stage, target", sorted(_stages().items()))
def test_stage_is_public_callable(stage, target):
    module_name, function = target
    assert module_name.split(".")[0] == "annuharm"
    module = importlib.import_module(module_name)
    assert not function.startswith("_")
    assert function in module.__all__, (stage, target)
    assert callable(getattr(module, function))
