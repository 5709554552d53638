"""The package namespace: `import triscar` loads no submodule, and each name
resolves from its module on first use."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import triscar

#: every name `triscar` exports, by the module that defines it
EXPORTS = {
    "params": ["LightCutoffMode", "ModelParams", "Scaling"],
    "basis": ["ResourceLimitError", "Sector", "SymmetryBlock",
              "basis_size_3d", "enumerate_basis_1d", "enumerate_vectors",
              "point_group", "sector_3d", "symmetrize_sector", "symmetry_blocks"],
    "hamiltonian1d": ["HamiltonianOperator1D", "MatrixElementRule1D"],
    "hamiltonian3d": ["RHO", "HamiltonianOperator3D", "MatrixElementRule3D",
                      "SymmetrizedOperator3D", "dense_from_elements", "f2",
                      "matrix_element_3d"],
    "eigensolve": ["Band", "IterationError", "Spectrum", "assemble_bands",
                   "band_id_per_state", "canonicalize", "merge_blocks",
                   "read_archive", "solve_dense", "solve_iterative"],
    "wavefunction": ["AutocorrelationSeries", "RadialDensity", "WavefunctionGrid",
                     "autocorrelation", "concentration_ratio", "heavy_overlap",
                     "integrated_probability_3d", "pair_projection_3d",
                     "position_wavefunction_1d", "analyze_1d", "analyze_3d"],
    "classical": ["CriticalPoint", "CriticalPointResult", "SaddleAnalysis",
                  "Trajectory", "effective_potential", "effective_potential_grad",
                  "effective_potential_hessian", "find_critical_points",
                  "hamiltonian_cm_1d", "hamiltonian_cm_3d",
                  "hessian_analysis", "integrate_orbit", "suggest_timestep",
                  "find_saddle", "run_orbits"],
    "scars": ["ScarComparison", "ScarEnergy", "compare_with_spectrum",
              "predicted_gap", "scar_energy", "scar_intensity", "stable_frequency",
              "compare_bands", "estimate"],
    "config": ["ConfigError", "load_config", "model_params"],
    "pipeline": ["load_archive", "solve_sector"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def _fresh(code: str) -> str:
    """The last stdout line of code run in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(triscar.__file__)),
         os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def test_every_name_resolves_to_its_home_object():
    """triscar.X, `from triscar import X` and dir(triscar) give every export,
    as the object its module defines."""
    for module, name in NAMES:
        home = getattr(importlib.import_module(f"triscar.{module}"), name)
        assert getattr(triscar, name) is home, name
        scope = {}
        exec(f"from triscar import {name} as value", scope)
        assert scope["value"] is home, name
    assert {name for _, name in NAMES} <= set(dir(triscar))
    assert sorted(triscar.__all__) == sorted(name for _, name in NAMES)


def test_fresh_names_resolve_and_load_only_their_modules():
    """In a fresh interpreter, `import triscar` loads no submodule and no
    numpy, and each `from triscar import X` is X's home object."""
    code = ("import importlib, json, sys\n"
            "import triscar\n"
            "bare = sorted(m for m in sys.modules\n"
            "              if m.partition('.')[0] in ('triscar', 'numpy'))\n"
            f"names = {NAMES!r}\n"
            "same = []\n"
            "for module, name in names:\n"
            "    scope = {}\n"
            "    exec(f'from triscar import {name} as value', scope)\n"
            "    home = importlib.import_module(f'triscar.{module}')\n"
            "    same.append(scope['value'] is getattr(home, name))\n"
            "print(json.dumps([bare, all(same), len(same)]))\n")
    bare, same, count = json.loads(_fresh(code))
    assert bare == ["triscar"]
    assert same and count == len(NAMES)


def test_from_import_still_loads_submodules():
    code = ("import sys\n"
            "from triscar import cli, eigensolve, pipeline\n"
            "print(cli.__name__, eigensolve.__name__, pipeline.__name__,\n"
            "      'triscar.pipeline' in sys.modules)\n")
    assert _fresh(code) == "triscar.cli triscar.eigensolve triscar.pipeline True"


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'eigensolver'"):
        triscar.eigensolver
    with pytest.raises(ImportError):
        exec("from triscar import no_such_name", {})
    assert "no_such_name" not in dir(triscar)
