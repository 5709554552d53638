"""The traced benchmark run finds its per-layer metrics by function name.

perfbench/traced_cli.py wraps only what a module or class defines in its own
namespace, so a metric source that moves into a base class or is renamed
would silently read 0.  This checks every name it relies on.
"""

import importlib
import inspect
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LAYERS_PY = ROOT / "perfbench" / "layers.py"


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


def test_traced_solve3d_counts_the_operator_nonzeros(tmp_path):
    """The launcher's observers run without error on a traced solve3d, and
    its nonzero counter holds the whole operator at cutoff_sq 2."""
    cfg = tmp_path / "c2.ini"
    cfg.write_text("[model]\ncutoff_sq = 2\n")
    spans = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "traced_cli.py"),
                           str(spans), "solve3d", "--config", str(cfg),
                           "--out", str(tmp_path / "run")],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    dump = json.loads(spans.read_text())
    assert dump["counters"]["hamiltonian3d.nnz"] == 4837
    assert dump["observer_errors"] == []
