"""Model parameters for the periodic charged three-body problem.

Two heavy particles of charge +1 and one light particle of charge -1 move
in a box of side L with periodic boundary conditions.  The light/heavy mass
ratio gamma and the coupling g fix the Hamiltonian; the cutoffs fix the
plane-wave basis used for diagonalization.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Scaling(enum.Enum):
    """Energy reporting convention."""

    RAW = "raw"
    TIMES_L = "multiplied-by-L"


class LightCutoffMode(enum.Enum):
    """How the light-particle momentum is bounded in the 1D basis."""

    DERIVED = "derived"                # fixed by total-momentum balance
    PRODUCT_FILTER = "product-filter"  # independently bounded by heavy_cutoff


@dataclass(frozen=True)
class ModelParams:
    """Physical constants and basis cutoffs.

    Defaults reproduce the reference parameter point: gamma = 2.7e-4,
    L = 13039, g = 6, heavy momentum cutoff 13 (1D), per-vector squared
    cutoff 10 (3D), energies reported multiplied by L.  Each field is a
    [model] key, and a value outside its domain in config.SETTINGS raises
    ConfigError.
    """

    gamma: float = 2.7e-4
    box_length: float = 13039.0
    coupling: float = 6.0
    heavy_cutoff: int = 13
    cutoff_sq: int = 10
    scaling: Scaling = Scaling.TIMES_L
    light_cutoff_mode: LightCutoffMode = LightCutoffMode.DERIVED

    def __post_init__(self):
        from .config import check  # config imports this module

        check("model", **vars(self))
        # an Enum field may be given by its value, as INI files and archives give it
        object.__setattr__(self, "scaling", Scaling(self.scaling))
        object.__setattr__(self, "light_cutoff_mode", LightCutoffMode(self.light_cutoff_mode))

    @property
    def energy_scale(self) -> float:
        """Factor applied to reported energies (L in the scaled convention)."""
        return self.box_length if self.scaling is Scaling.TIMES_L else 1.0
