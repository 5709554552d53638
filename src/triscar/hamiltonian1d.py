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

from .basis import BasisState1D, Sector1D, assemble_csr
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


class HamiltonianOperator1D:
    """H1 on a single momentum sector, held as one CSR matrix.

    The diagonal plus the six one-unit transfers; matvec cost is O(dim)
    per transfer.
    """

    def __init__(self, sector: Sector1D, rule: MatrixElementRule1D):
        self.sector = sector
        self.rule = rule
        n1, n2, p = sector.n1, sector.n2, sector.p
        gamma = rule.params.gamma
        kin = rule.kinetic_coeff * (n1 * n1 + n2 * n2 + p * p / gamma)
        quarter = 0.25 * rule.coupling_coeff
        transfers = []
        for da, db, sign in _HOPS:
            rows, cols = sector.locate(n1 + da, n2 + db)
            transfers.append((rows, cols, sign * quarter))
        # diagonal interaction: +f1(0) - 2 f1(0) = -1/2 in units of g/L
        self.matrix = assemble_csr(kin - 0.5 * rule.coupling_coeff, transfers)

    @property
    def dim(self) -> int:
        return self.sector.dim

    def matvec(self, vec: np.ndarray) -> np.ndarray:
        if len(vec) != self.dim:
            raise ValueError(f"vector length {len(vec)} != operator dim {self.dim}")
        return self.matrix @ vec

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def nonzero_triplets(self):
        """Yield (row, col, value) for every structurally nonzero element, row by row."""
        coo = self.matrix.tocoo()
        for i, j, v in zip(coo.row, coo.col, coo.data):
            yield int(i), int(j), float(v)
