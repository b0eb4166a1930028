"""The benchmark's tracer wraps package functions by name from outside the
package (`perfbench/tracer.py`, `TARGETS`); a renamed or deleted function
would show up there only as an absent metric. These tests read the list
and check that every name still resolves."""

import ast
import importlib
from pathlib import Path

import pytest

import rqtgap.functionals
import rqtgap.network

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets() -> list[tuple[str, str]]:
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(module, name) for module, names in ast.literal_eval(node.value)
                    for name in names]
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


@pytest.mark.parametrize("module, name", _targets(), ids=lambda v: v)
def test_tracer_target_resolves(module, name):
    owner = importlib.import_module(f"rqtgap.{module}")
    for part in name.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_functionals_binds_networks_conditional_state():
    # The tracer counts calls through every module binding of a function.
    assert rqtgap.functionals.conditional_state is rqtgap.network.conditional_state
