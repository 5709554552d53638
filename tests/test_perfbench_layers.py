"""The traced benchmark run finds its per-layer metrics by function name.

perfbench/traced_cli.py wraps only what a module or class defines in its own
namespace, so a metric source that moves into a base class or is renamed
would silently read 0.  This checks every name it relies on.
"""

import importlib
import inspect
import runpy
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _traced_functions():
    return sorted(runpy.run_path(str(LAYERS_PY))["traced_functions"]())


@pytest.mark.parametrize("name", _traced_functions())
def test_traced_function_is_defined_in_place(name):
    module, *path = name.split(".")
    owner = importlib.import_module(f"triscar.{module}")
    for attr in path:
        assert attr in vars(owner), f"{name}: {attr!r} not defined in {owner.__name__}"
        owner = vars(owner)[attr]
    assert inspect.isfunction(owner), f"{name} is not a function"
