"""The benchmark's command lines, input files and output checks pass.

perfbench/workloads.py builds each workload's CLI arguments and INI files,
and the checks its runner applies to what each command writes.  A renamed
flag, a key removed from the config schema or a changed output layout would
otherwise only show up as failed benchmark runs.
"""

import random
import runpy
from pathlib import Path

import pytest

from triscar.cli import build_parser, main
from triscar.config import load_config

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
WORKLOADS = runpy.run_path(str(WORKLOADS_PY))["WORKLOADS"]


@pytest.mark.parametrize("smoke", [True, False], ids=["smoke", "full"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_steps_parse(name, smoke, tmp_path):
    inputs, runs = tmp_path / "inputs", tmp_path / "runs"
    inputs.mkdir()
    steps = WORKLOADS[name].make(random.Random(0), smoke, inputs, runs)
    assert steps
    parser = build_parser()
    for step in steps:
        args = parser.parse_args(step.args)
        assert args.command == step.command
        if args.config is not None:
            assert Path(args.config).parent == inputs
    written = sorted(inputs.glob("*.ini"))
    assert written
    for path in written:
        load_config(str(path))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_full_run_passes_its_checks(name, tmp_path):
    """Each full-size step, run in-process, exits 0 and passes the checks
    the benchmark applies (dimensions, energies, ordering, artifacts)."""
    inputs, runs = tmp_path / "inputs", tmp_path / "runs"
    inputs.mkdir()
    for step in WORKLOADS[name].make(random.Random(0), False, inputs, runs):
        assert main(step.args) == 0, step.command
        assert step.verify() == [], step.command
