"""The benchmark's command lines and input files stay valid for the CLI.

perfbench/workloads.py builds each workload's CLI arguments and INI files.
A renamed flag or a key removed from the config schema would otherwise only
show up as failed benchmark runs.
"""

import random
import runpy
from pathlib import Path

import pytest

from triscar.cli import build_parser
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
