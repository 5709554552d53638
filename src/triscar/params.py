"""Model parameters for the periodic charged three-body problem.

Two heavy particles of charge +1 and one light particle of charge -1 move
in a box of side L with periodic boundary conditions.  The light/heavy mass
ratio gamma and the coupling g fix the Hamiltonian; the cutoffs fix the
plane-wave basis used for diagonalization.
"""

from __future__ import annotations

import enum
import math
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
    cutoff 10 (3D), energies reported multiplied by L.
    """

    gamma: float = 2.7e-4
    box_length: float = 13039.0
    coupling: float = 6.0
    heavy_cutoff: int = 13
    cutoff_sq: int = 10
    scaling: Scaling = Scaling.TIMES_L
    light_cutoff_mode: LightCutoffMode = LightCutoffMode.DERIVED

    def __post_init__(self):
        # written so that nan fails each check
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if not 0 < self.box_length < math.inf:
            raise ValueError(f"box_length must be positive and finite, "
                             f"got {self.box_length}")
        # the models' kinetic coefficient and the classical force's, as
        # computed from L: a power that overflows raises, and so does one
        # over a power that underflows to 0, but a subnormal L^3 makes
        # 2 pi^2 / L^3 inf silently, so the values are tested too
        L = self.box_length
        try:
            coefficients = ((2 * math.pi / L) ** 2, math.pi / L ** 2,
                            2 * math.pi ** 2 / L ** 3)
        except (OverflowError, ZeroDivisionError):
            coefficients = (math.inf,)
        if not all(0 < c < math.inf for c in coefficients):
            raise ValueError(f"box_length {L} is out of range: (2 pi / L)^2, pi / L^2 "
                             f"and 2 pi^2 / L^3 must be finite and nonzero")
        if not 0 <= self.coupling < math.inf:
            raise ValueError(f"coupling must be nonnegative and finite, "
                             f"got {self.coupling}")
        if self.heavy_cutoff < 0:
            raise ValueError(f"heavy_cutoff must be nonnegative, got {self.heavy_cutoff}")
        if self.cutoff_sq < 0:
            raise ValueError(f"cutoff_sq must be nonnegative, got {self.cutoff_sq}")

    @property
    def energy_scale(self) -> float:
        """Factor applied to reported energies (L in the scaled convention)."""
        return self.box_length if self.scaling is Scaling.TIMES_L else 1.0
