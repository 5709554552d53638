"""Shared fixtures.

The expensive objects (the 729-state spectrum, the saddle analysis) are
session scoped so the suite pays for them once.
"""

import itertools

import numpy as np
import pytest

import triscar as ts


@pytest.fixture(scope="session")
def params():
    """Default parameter set, scaled reporting."""
    return ts.ModelParams()


@pytest.fixture(scope="session")
def raw_params():
    return ts.ModelParams(scaling=ts.Scaling.RAW)


@pytest.fixture(scope="session")
def sector729(params):
    return ts.enumerate_basis_1d(params, 0)


@pytest.fixture(scope="session")
def operator729(params, sector729):
    return ts.HamiltonianOperator1D(sector729, ts.MatrixElementRule1D(params))


@pytest.fixture(scope="session")
def spectrum729(operator729):
    return ts.solve_dense(operator729)


@pytest.fixture(scope="session")
def bands729(spectrum729):
    return ts.assemble_bands(spectrum729.eigenvalues, 2.0)


@pytest.fixture(scope="session")
def saddle(params):
    result = ts.find_critical_points(params)
    point = next(p for p in result.points if p.kind == "saddle")
    analysis = ts.hessian_analysis(point, ts.ModelParams(scaling=ts.Scaling.RAW))
    return analysis.scaled(params.box_length)


@pytest.fixture(scope="session")
def sector3d_c2(params):
    return ts.sector_3d(params, (0, 0, 0), cutoff_sq=2)


@pytest.fixture(scope="session")
def product_sectors():
    """The oracle of sector_3d: product_sectors(cutoff_sq) runs over all
    nvec^3 product states of vectors within the cutoff, one at a time, and
    partitions them into momentum sectors.  Returns {total momentum:
    Sector}, ascending."""

    def enumerate_sectors(cutoff_sq):
        vecs = ts.enumerate_vectors(cutoff_sq)
        sectors = {}
        for i1, i2, i3 in itertools.product(range(len(vecs)), repeat=3):
            total = tuple(int(v) for v in vecs[i1] + vecs[i2] + vecs[i3])
            sectors.setdefault(total, []).append((i1, i2, i3))
        out = {}
        for total, rows in sorted(sectors.items()):
            rows = np.array(rows, dtype=np.int64)
            out[total] = ts.Sector(total, vecs[rows[:, 0]], vecs[rows[:, 1]],
                                   vecs[rows[:, 2]])
        return out

    return enumerate_sectors


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)
