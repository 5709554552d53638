"""Scarred collision states in periodic charged three-body systems.

Exact diagonalization of two heavy plus one light charge in a periodic box
(1D smooth interaction and 3D Coulomb variants), position-space collision
diagnostics, semiclassical scar estimates from the triple-collision saddle,
and symplectic center-of-mass orbit integration.
"""

from .params import LightCutoffMode, ModelParams, Scaling
from .basis import (ResourceLimitError, Sector1D, Sector3D, SymmetryBlock,
                    basis_size_3d, enumerate_basis_1d, enumerate_vectors,
                    point_group, sector_3d, symmetrize_sector, symmetry_blocks)
from .hamiltonian1d import HamiltonianOperator1D, MatrixElementRule1D
from .hamiltonian3d import (RHO, HamiltonianOperator3D, MatrixElementRule3D,
                            SymmetrizedOperator3D, dense_from_elements, f2,
                            matrix_element_3d)
from .eigensolve import (Band, IterationError, Spectrum, assemble_bands,
                         band_id_per_state, canonicalize, merge_blocks,
                         solve_dense, solve_iterative)
from .wavefunction import (AutocorrelationSeries, RadialDensity,
                           WavefunctionGrid, autocorrelation,
                           concentration_ratio, heavy_overlap,
                           integrated_probability_3d, pair_projection_3d,
                           position_wavefunction_1d)
from .classical import (CriticalPoint, CriticalPointResult, SaddleAnalysis,
                        Trajectory, effective_potential,
                        effective_potential_grad, effective_potential_hessian,
                        find_critical_points, hamilton_rhs_1d, hamilton_rhs_3d,
                        hamiltonian_cm_1d, hamiltonian_cm_3d, hessian_analysis,
                        integrate_orbit, suggest_timestep)
from .scars import (ScarComparison, ScarEnergy, compare_with_spectrum,
                    predicted_gap, scar_energy, scar_intensity,
                    stable_frequency)
from .config import ConfigError, load_config, model_params
from .pipeline import solve_sector

__version__ = "0.1.0"
