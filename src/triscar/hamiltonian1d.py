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
from fractions import Fraction

import numpy as np

from .basis import BasisState1D, Sector1D, SectorOperator, assemble_triplets
from .params import ModelParams

TWO_PI = 2.0 * np.pi


def f1(alpha: int) -> Fraction:
    """Fourier weight of (1 + cos) against e^{i pi alpha u / L}: exact rational."""
    if alpha == 0:
        return Fraction(1, 2)
    if alpha == 2 or alpha == -2:
        return Fraction(1, 4)
    return Fraction(0)


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


def _unpack(state) -> tuple[int, int, int]:
    if isinstance(state, BasisState1D):
        return state.n1, state.n2, state.p
    a, b, c = state
    return int(a), int(b), int(c)


def matrix_element_1d(bra, ket, rule: MatrixElementRule1D) -> float:
    """<bra| H1 |ket> for plane-wave product states (n1, n2, p).

    Kinetic term on the diagonal; heavy-heavy attraction-free term with
    weight +f1, the two heavy-light terms with weight -f1.  Total momentum
    must be conserved or the element vanishes.
    """
    b1, b2, bp = _unpack(bra)
    k1, k2, kp = _unpack(ket)
    gamma = rule.params.gamma

    val = 0.0
    if (b1, b2, bp) == (k1, k2, kp):
        val += rule.kinetic_coeff * (k1 * k1 + k2 * k2 + kp * kp / gamma)

    g_over_l = rule.coupling_coeff
    # heavy-heavy: transfer between the two heavy particles
    if bp == kp and (k1 - b1) + (k2 - b2) == 0:
        val += g_over_l * float(f1((k1 - b1) - (k2 - b2)))
    # heavy 1 with light
    if b2 == k2 and (k1 - b1) + (kp - bp) == 0:
        val -= g_over_l * float(f1((k1 - b1) - (kp - bp)))
    # heavy 2 with light
    if b1 == k1 and (k2 - b2) + (kp - bp) == 0:
        val -= g_over_l * float(f1((k2 - b2) - (kp - bp)))
    return val


# momentum-transfer stencil: (dn1, dn2, sign) with dp = -(dn1 + dn2)
_HOPS = (
    (1, -1, +1), (-1, 1, +1),    # heavy-heavy
    (1, 0, -1), (-1, 0, -1),     # heavy 1 / light
    (0, 1, -1), (0, -1, -1),     # heavy 2 / light
)


class HamiltonianOperator1D(SectorOperator):
    """H1 on a single momentum sector, assembled as (rows, cols, values)
    triplets of the rows asked for.

    The diagonal plus the six one-unit transfers, so at most seven entries
    per row.
    """

    def __init__(self, sector: Sector1D, rule: MatrixElementRule1D):
        self.sector = sector
        self.rule = rule

    def rows(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The triplets in the rows `states` (ascending, unique).

        A hop moves (n1, n2) by (da, db), so row a holds the hop from the
        state labelled (n1[a] - da, n2[a] - db); a shift keeps the sector's
        lexicographic order, so each hop's entries ascend by row and by
        column alike.
        """
        sector, rule = self.sector, self.rule
        n1, n2, p = sector.n1[states], sector.n2[states], sector.p[states]
        gamma = rule.params.gamma
        kin = rule.kinetic_coeff * (n1 * n1 + n2 * n2 + p * p / gamma)
        quarter = 0.25 * rule.coupling_coeff
        transfers = []
        for da, db, sign in _HOPS:
            cols, at = sector.locate(n1 - da, n2 - db)
            transfers.append((states[at], cols, sign * quarter))
        # diagonal interaction: +f1(0) - 2 f1(0) = -1/2 in units of g/L
        return assemble_triplets(states, kin - 0.5 * rule.coupling_coeff, transfers)

    def nonzero_triplets(self):
        """Yield (row, col, value) for every structurally nonzero element, row by row."""
        rows, cols, values = self.triplets
        for k in np.lexsort((cols, rows)):
            yield int(rows[k]), int(cols[k]), float(values[k])
