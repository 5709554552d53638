"""The traced benchmark run finds its per-layer metrics by function name.

perfbench/traced_cli.py wraps only what a module or class defines in its own
namespace, so a metric source that moves into a base class or is renamed
would silently read 0.  This checks every name it relies on, and that each
workload still opens a span in every layer it claims to exercise.
"""

import importlib
import inspect
import json
import os
import random
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LAYERS_PY = ROOT / "perfbench" / "layers.py"
WORKLOADS = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["WORKLOADS"]


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


def _traced(spans: Path, argv: list[str]) -> dict:
    """Run the CLI with argv through the traced launcher; returns its dump."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "traced_cli.py"),
                           str(spans), *argv], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(spans.read_text())


def test_traced_solve3d_counts_the_operator_nonzeros(tmp_path):
    """The launcher's observers run without error on a traced solve3d, and
    its nonzero counter holds the whole operator at cutoff_sq 2."""
    cfg = tmp_path / "c2.ini"
    cfg.write_text("[model]\ncutoff_sq = 2\n")
    dump = _traced(tmp_path / "spans.json",
                   ["solve3d", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert dump["counters"]["hamiltonian3d.nnz"] == 4837
    assert dump["observer_errors"] == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_smoke_steps_reach_every_layer_of_their_workload(name, tmp_path):
    """Each workload's smoke steps, run through the traced launcher, pass
    their checks and open a span in every layer the workload names, with no
    observer error and no metric source missing."""
    inputs, runs = tmp_path / "inputs", tmp_path / "runs"
    inputs.mkdir()
    dumps = []
    for i, step in enumerate(WORKLOADS[name].make(random.Random(0), True, inputs, runs)):
        dumps.append(_traced(tmp_path / f"spans{i}.json", step.args))
        assert step.verify() == [], step.command
    metrics, missing = runpy.run_path(str(LAYERS_PY))["layer_metrics"](dumps)
    assert [layer for layer in WORKLOADS[name].layers if not metrics[f"{layer}.spans"]] == []
    assert missing == []
    assert [error for dump in dumps for error in dump["observer_errors"]] == []
