"""Momentum-space Hamiltonian for the 1D periodic three-body model.

The center-of-mass-free Hamiltonian is

    H1 = -d^2/dx1^2 - d^2/dx2^2 - (1/gamma) d^2/dy^2
         + V(|x1 - x2|) - V(|x1 - y|) - V(|x2 - y|),

with the smooth periodic interaction V(x) = (g / 2L)(1 + cos(2 pi x / L)).
In the plane-wave basis the potential couples only momentum transfers of one
unit between a particle pair; the couplings are the exact rationals
f1(0) = 1/2, f1(+-2) = 1/4 (in units of g/L, after the transfer deltas).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import Sector1D, SectorOperator
from .params import ModelParams

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class MatrixElementRule1D:
    """Scaled coefficients entering 1D matrix elements."""

    params: ModelParams

    @property
    def kinetic_coeff(self) -> float:
        # (2 pi / L)^2 per unit squared momentum, times the reporting scale
        L = self.params.box_length
        return (TWO_PI / L) ** 2 * self.params.energy_scale

    @property
    def coupling_coeff(self) -> float:
        # g / L prefactor shared by all interaction terms
        return self.params.coupling / self.params.box_length * self.params.energy_scale


class HamiltonianOperator1D(SectorOperator):
    """H1 on a single momentum sector, assembled by SectorOperator.rows.

    The cosine potential moves one unit, |q|^2 = 1, at f1(+-2) = 1/4 in
    units of g/L, and its mean f1(0) = 1/2 enters the diagonal; so at most
    seven entries per row.
    """

    def __init__(self, sector: Sector1D, rule: MatrixElementRule1D):
        self.sector = sector
        self.rule = rule
        self.coupling = np.array([0.5, 0.25]) * rule.coupling_coeff
