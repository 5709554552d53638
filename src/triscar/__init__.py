"""Scarred collision states in periodic charged three-body systems.

Exact diagonalization of two heavy plus one light charge in a periodic box
(1D smooth interaction and 3D Coulomb variants), position-space collision
diagnostics, semiclassical scar estimates from the triple-collision saddle,
and symplectic center-of-mass orbit integration.

`import triscar` loads no submodule: each name below is imported from its
module on first use (PEP 562), so `triscar.X` and `from triscar import X`
load only the modules X needs.
"""

import importlib

__version__ = "0.1.0"

#: every name the package exports, by the module that defines it
_EXPORTS = {
    "params": ("LightCutoffMode", "ModelParams", "Scaling"),
    "basis": ("Sector1D", "Sector3D", "SymmetryBlock", "basis_size_3d",
              "enumerate_basis_1d", "enumerate_vectors", "point_group",
              "sector_3d", "symmetrize_sector", "symmetry_blocks"),
    "hamiltonian1d": ("HamiltonianOperator1D", "MatrixElementRule1D"),
    "hamiltonian3d": ("RHO", "HamiltonianOperator3D", "MatrixElementRule3D",
                      "SymmetrizedOperator3D", "dense_from_elements", "f2",
                      "matrix_element_3d"),
    "eigensolve": ("Band", "Spectrum", "assemble_bands", "band_id_per_state",
                   "canonicalize", "merge_blocks", "read_archive", "solve_dense",
                   "solve_iterative"),
    "wavefunction": ("AutocorrelationSeries", "RadialDensity",
                     "WavefunctionGrid", "autocorrelation",
                     "concentration_ratio", "heavy_overlap",
                     "integrated_probability_3d", "pair_projection_3d",
                     "position_wavefunction_1d", "analyze_1d", "analyze_3d"),
    "classical": ("CriticalPoint", "CriticalPointResult", "SaddleAnalysis",
                  "Trajectory", "effective_potential",
                  "effective_potential_grad", "effective_potential_hessian",
                  "find_critical_points", "hamiltonian_cm_1d",
                  "hamiltonian_cm_3d", "hessian_analysis", "integrate_orbit",
                  "suggest_timestep", "find_saddle", "run_orbits"),
    "scars": ("ScarComparison", "ScarEnergy", "compare_with_spectrum",
              "predicted_gap", "scar_energy", "scar_intensity",
              "stable_frequency", "compare_bands", "estimate"),
    "config": ("ConfigError", "IterationError", "ResourceLimitError",
               "load_config", "model_params"),
    "pipeline": ("load_archive", "solve_sector"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        # also what lets `from triscar import basis` import the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
