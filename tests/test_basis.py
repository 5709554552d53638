"""Basis enumeration, sector partition, and exchange symmetrization."""

import numpy as np
import pytest

import triscar as ts
from triscar.basis import _pairs_within_groups


# ---------------------------------------------------------------------------
# 1D enumeration


def test_reference_sector_count(sector729):
    assert sector729.dim == 729


def test_cutoff_zero_single_state():
    p = ts.ModelParams(heavy_cutoff=0)
    sec = ts.enumerate_basis_1d(p, 0)
    assert sec.dim == 1
    assert (sec.n1[0], sec.n2[0], sec.p[0]) == (0, 0, 0)


def test_cutoff_one_derived():
    p = ts.ModelParams(heavy_cutoff=1)
    sec = ts.enumerate_basis_1d(p, 0)
    assert sec.dim == 9
    assert sec.p.min() == -2 and sec.p.max() == 2


def test_momentum_conservation(sector729):
    assert np.all(sector729.n1 + sector729.n2 + sector729.p == 0)


def test_nonzero_total_momentum():
    p = ts.ModelParams(heavy_cutoff=2)
    sec = ts.enumerate_basis_1d(p, 3)
    assert sec.dim == 25
    assert np.all(sec.n1 + sec.n2 + sec.p == 3)
    assert sec.total_momentum == 3


def test_product_filter_mode():
    p = ts.ModelParams(heavy_cutoff=1,
                       light_cutoff_mode=ts.LightCutoffMode.PRODUCT_FILTER)
    sec = ts.enumerate_basis_1d(p, 0)
    # |p| <= cutoff drops the |n1+n2| = 2 corners
    assert sec.dim == 7
    assert np.abs(sec.p).max() <= 1


def test_enumeration_deterministic(params):
    a = ts.enumerate_basis_1d(params, 0)
    b = ts.enumerate_basis_1d(params, 0)
    assert np.array_equal(a.n1, b.n1)
    assert np.array_equal(a.n2, b.n2)
    assert np.array_equal(a.p, b.p)


def test_lexicographic_order(sector729):
    pairs = np.stack([sector729.n1, sector729.n2], axis=1)
    keys = [tuple(row) for row in pairs]
    assert keys == sorted(keys)


def test_exchange_closure(sector729):
    """locate finds every state's exchange image, an involution."""
    perm, cols = sector729.locate(sector729.n2, sector729.n1)
    assert np.array_equal(cols, np.arange(sector729.dim))
    assert np.array_equal(sector729.n1[perm], sector729.n2)
    assert np.array_equal(sector729.n2[perm], sector729.n1)
    # involution
    assert np.array_equal(perm[perm], np.arange(sector729.dim))


def test_index_map_roundtrip(sector729):
    """locate maps every state's own labels to its own row and skips labels
    outside the sector."""
    rows, cols = sector729.locate(sector729.n1, sector729.n2)
    assert np.array_equal(cols, np.arange(sector729.dim))
    assert np.array_equal(rows, np.arange(sector729.dim))
    # heavy momenta past the cutoff 13 are not in the sector
    n1 = np.array([0, 14, 13, -13, 1])
    n2 = np.array([0, 0, -14, 13, -1])
    rows, cols = sector729.locate(n1, n2)
    assert cols.tolist() == [0, 3, 4]
    assert [(sector729.n1[r], sector729.n2[r], sector729.p[r]) for r in rows] == [
        (0, 0, 0), (-13, 13, 0), (1, -1, 0)]


# ---------------------------------------------------------------------------
# 3D enumeration


@pytest.mark.parametrize("cutoff_sq,n_vectors", [(0, 1), (1, 7), (2, 19), (10, 147)])
def test_vector_counts(cutoff_sq, n_vectors):
    vecs = ts.enumerate_vectors(cutoff_sq)
    assert len(vecs) == n_vectors
    norms = np.sum(vecs * vecs, axis=1)
    assert norms.max() <= cutoff_sq


def test_vector_count_brute_force():
    # independent lattice count over an enclosing cube
    cutoff_sq = 10
    count = 0
    for x in range(-4, 5):
        for y in range(-4, 5):
            for z in range(-4, 5):
                if x * x + y * y + z * z <= cutoff_sq:
                    count += 1
    assert count == 147
    assert ts.basis_size_3d(cutoff_sq) == (147, 147 ** 3)


def test_reference_basis_size():
    assert ts.basis_size_3d(10)[1] == 3_176_523


def test_full_enumeration_partition(product_sectors):
    sectors = product_sectors(1)
    total = sum(sec.dim for sec in sectors.values())
    assert total == 7 ** 3
    # no duplicated state across sectors
    seen = set()
    for sec in sectors.values():
        for i in range(sec.dim):
            key = (tuple(sec.n1[i]), tuple(sec.n2[i]), tuple(sec.p[i]))
            assert key not in seen
            seen.add(key)
    assert len(seen) == 343


def test_sector_momentum_consistency(product_sectors):
    sectors = product_sectors(1)
    for total, sec in sectors.items():
        arr = sec.n1 + sec.n2 + sec.p
        assert np.all(arr == np.asarray(total))


def test_zero_sector_dimension(sector3d_c2):
    assert sector3d_c2.dim == 175


def test_sector_3d_matches_full_enumeration(sector3d_c2, product_sectors):
    sectors = product_sectors(2)
    full = sectors[(0, 0, 0)]
    assert full.dim == sector3d_c2.dim
    assert np.array_equal(full.n1, sector3d_c2.n1)
    assert np.array_equal(full.p, sector3d_c2.p)


@pytest.mark.parametrize("total, key", [
    (0, "P=0"), (-2, "P=-2"), ((0, 0, 0), "P=(0,0,0)"), ((1, -1, 0), "P=(1,-1,0)")],
    ids=["1d-P0", "1d-Pm2", "3d-P000", "3d-P1m10"])
def test_sector_key_names_its_total_momentum(params, total, key):
    """One Sector type holds either model; its key reads the momentum as
    an int in 1D and as a vector in 3D."""
    sec = (ts.sector_3d(params, total, cutoff_sq=2) if np.ndim(total)
           else ts.enumerate_basis_1d(params, total))
    assert type(sec) is ts.Sector
    assert sec.total_momentum == total
    assert sec.key == key


# ---------------------------------------------------------------------------
# symmetrization


def test_symmetrize_dimensions(sector3d_c2):
    sym, anti = ts.symmetrize_sector(sector3d_c2)
    assert sym.dim == 88
    assert anti.dim == 87
    assert sym.dim + anti.dim == sector3d_c2.dim


def test_symmetrize_normalization(sector3d_c2):
    sym, anti = ts.symmetrize_sector(sector3d_c2)
    assert (sym.label, anti.label) == ("sym", "anti")
    # diagonal states never appear in the antisymmetric sector: each of its
    # columns is a pair (|a> - |b>) / sqrt(2)
    a = anti.isometry.tocsc()
    assert np.array_equal(np.diff(a.indptr), np.full(anti.dim, 2))
    assert np.array_equal(np.abs(a.data), np.full(2 * anti.dim, 1.0 / np.sqrt(2.0)))
    diagonal = np.all(sector3d_c2.n1 == sector3d_c2.n2, axis=1)
    assert not np.any(diagonal[a.indices])


def test_embedding_isometry(sector3d_c2):
    sym, anti = ts.symmetrize_sector(sector3d_c2)
    s_mat = sym.isometry.toarray()
    a_mat = anti.isometry.toarray()
    np.testing.assert_allclose(s_mat.T @ s_mat, np.eye(sym.dim), atol=1e-14)
    np.testing.assert_allclose(a_mat.T @ a_mat, np.eye(anti.dim), atol=1e-14)
    # the two images are orthogonal and together span the parent sector
    np.testing.assert_allclose(s_mat.T @ a_mat, 0.0, atol=1e-14)
    full = s_mat @ s_mat.T + a_mat @ a_mat.T
    np.testing.assert_allclose(full, np.eye(sector3d_c2.dim), atol=1e-13)


def test_embed_project_roundtrip(sector3d_c2, rng):
    sym, _ = ts.symmetrize_sector(sector3d_c2)
    v = rng.standard_normal(sym.dim)
    # the projection back is the adjoint S^T
    np.testing.assert_allclose(sym.isometry.T @ sym.embed(v), v, atol=1e-14)


@pytest.mark.parametrize("cutoff_sq, total", [(2, (0, 0, 0)), (2, (1, -1, 0))])
def test_embed_is_the_sparse_product_bit_for_bit(params, rng, cutoff_sq, total):
    """embed forms S @ v with numpy alone, bit for bit, signed zeros
    included, for one vector and for a stack of columns; the isometry is
    built only when asked for, and a block unpacks as (label, isometry)."""
    sector = ts.sector_3d(params, total, cutoff_sq=cutoff_sq)
    for block in ts.symmetry_blocks(sector):
        assert "isometry" not in vars(block)
        vec = rng.standard_normal(block.dim)
        vec[::3] = -0.0
        stack = rng.standard_normal((block.dim, 4))
        stack[1::2] = -0.0
        got_vec, got_stack = block.embed(vec), block.embed(stack)
        label, iso = block
        assert label == block.label and iso is block.isometry
        assert iso.shape == block.shape == (sector.dim, block.dim)
        for got, want in ((got_vec, iso @ vec), (got_stack, iso @ stack)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            block.embed(vec[1:])
    blocks = ts.symmetry_blocks(sector)
    assert list(dict(blocks)) == [block.label for block in blocks]


def test_two_state_exchange_pair():
    p = ts.ModelParams(cutoff_sq=1)
    sec = ts.sector_3d(p, (1, 0, 0), cutoff_sq=1)
    sym, anti = ts.symmetrize_sector(sec)
    assert sym.dim + anti.dim == sec.dim
    # some symmetric column combines a state with a distinct exchange image
    assert np.any(np.diff(sym.isometry.tocsc().indptr) == 2)



# ---------------------------------------------------------------------------
# point-group blocks


def _reference_pair_isometry(n, idx_a, idx_b, signs):
    """Columns (|idx_a> + signs |idx_b>) / sqrt(2), or |idx_a> where equal."""
    from scipy import sparse

    pair = idx_a != idx_b
    w = 1.0 / np.sqrt(2.0)
    cols = np.arange(len(idx_a))
    rows = np.concatenate([idx_a, idx_b[pair]])
    vals = np.concatenate([np.where(pair, w, 1.0),
                           np.broadcast_to(signs, idx_a.shape)[pair] * w])
    return sparse.csr_array((vals, (rows, np.concatenate([cols, cols[pair]]))),
                            shape=(n, len(idx_a)))


def reference_exchange_halves(sector):
    """(tag, parity, idx_a, idx_b, S) of both exchange halves, built from the
    exchange map: each pair listed once from its lower index a, with image
    b, and diagonal states (a = b) in the symmetric half only."""
    xmap, cols = sector.locate(sector.n2, sector.n1)
    assert len(cols) == sector.dim
    idx = np.arange(sector.dim, dtype=np.int64)
    halves = []
    for tag, parity, keep in (("sym", 1, idx <= xmap), ("anti", -1, idx < xmap)):
        a, b = idx[keep], xmap[keep]
        halves.append((tag, parity, a, b,
                       _reference_pair_isometry(sector.dim, a, b, parity)))
    return halves


def reference_symmetry_blocks_1d(sector):
    """The former 1D-only builder: exchange halves, each split once more by
    inversion at P = 0 through a second pair isometry."""
    halves = reference_exchange_halves(sector)
    if sector.total_momentum != 0:
        return [(tag, s) for tag, _, _, _, s in halves]
    rows, cols = sector.locate(-sector.n1, -sector.n2)
    inverse = np.empty(sector.dim, dtype=np.int64)
    inverse[cols] = rows
    blocks = []
    for half_tag, half_parity, idx_a, idx_b, s in halves:
        a, b = inverse[idx_a], inverse[idx_b]
        image = np.searchsorted(idx_a, np.minimum(a, b))
        sign = np.where(a <= b, 1, half_parity)
        col = np.arange(len(idx_a))
        for parity, tag in ((1, "even"), (-1, "odd")):
            keep = (col < image) | ((col == image) & (sign == parity))
            t = _reference_pair_isometry(len(idx_a), col[keep], image[keep],
                                         parity * sign[keep])
            blocks.append((f"{half_tag} {tag}", (s @ t).tocsr()))
    return blocks


@pytest.mark.parametrize("heavy_cutoff, total_momentum, mode", [
    (5, 0, "derived"), (13, 0, "derived"), (5, 1, "derived"),
    (4, 0, "product-filter"), (4, -2, "product-filter")])
def test_symmetry_blocks_match_reference_1d(heavy_cutoff, total_momentum, mode):
    """Exchange x inversion through the orbit builder gives the former 1D
    blocks: same labels, dimensions, column order and entries, bit for bit."""
    p = ts.ModelParams(heavy_cutoff=heavy_cutoff,
                       light_cutoff_mode=ts.LightCutoffMode(mode))
    sector = ts.enumerate_basis_1d(p, total_momentum)
    got = ts.symmetry_blocks(sector)
    want = reference_symmetry_blocks_1d(sector)
    assert [label for label, _ in got] == [label for label, _ in want]
    for (_, s), (_, r) in zip(got, want):
        assert s.shape == r.shape
        assert np.array_equal(s.toarray(), r.toarray())


@pytest.mark.parametrize("sector", [
    pytest.param(("3d", 0, (0, 0, 0)), id="3d-c0"),
    pytest.param(("3d", 2, (0, 0, 0)), id="3d-c2"),
    pytest.param(("3d", 5, (1, 0, 0)), id="3d-c5-P100"),
    pytest.param(("1d", 5, 0), id="1d-h5"),
    pytest.param(("1d", 4, -2), id="1d-h4-P-2")])
def test_exchange_halves_match_pair_reference(sector):
    """symmetrize_sector's halves, orbit blocks of exchange alone, equal the
    pair isometries built from the exchange map, bit for bit; at cutoff_sq 0
    the one state is diagonal and the antisymmetric half has no columns."""
    kind, cutoff, total = sector
    if kind == "3d":
        sector = ts.sector_3d(ts.ModelParams(cutoff_sq=cutoff), total)
    else:
        sector = ts.enumerate_basis_1d(ts.ModelParams(heavy_cutoff=cutoff), total)
    got = ts.symmetrize_sector(sector)
    assert len(got) == 2
    for block, (tag, _, _, _, want) in zip(got, reference_exchange_halves(sector)):
        assert isinstance(block, ts.SymmetryBlock)
        assert block.label == tag
        assert block.isometry.shape == want.shape
        assert np.array_equal(block.isometry.indptr, want.indptr)
        assert np.array_equal(block.isometry.indices, want.indices)
        assert np.array_equal(block.isometry.data, want.data)
    if cutoff == 0:
        assert [block.dim for block in got] == [1, 0]


#: (label, dim) of the 16 P = 0 blocks at cutoff_sq 5 (733 sym + 726 anti)
BLOCKS_3D_C5 = [162, 102, 102, 73, 102, 73, 73, 46, 127, 111, 111, 74, 111, 74, 74, 44]


@pytest.mark.parametrize("cutoff_sq, total", [(2, (0, 0, 0)), (5, (0, 0, 0)),
                                             (2, (1, 0, 0)), (2, (1, -1, 0))])
def test_point_group_blocks_are_orthogonal(params, cutoff_sq, total):
    """Exchange times the axis flips that fix P: the stacked isometries form
    an orthogonal matrix, and each block keeps its exchange parity."""
    sector = ts.sector_3d(params, total, cutoff_sq=cutoff_sq)
    blocks = ts.symmetry_blocks(sector)
    flips = [f"+{axis}" for axis, component in zip("xyz", total) if component == 0]
    assert len(blocks) == 2 ** (1 + len(flips))
    assert blocks[0].label == " ".join(["sym", *flips])
    q = np.hstack([s.toarray() for _, s in blocks])
    np.testing.assert_allclose(q.T @ q, np.eye(sector.dim), rtol=0.0, atol=1e-15)
    xmap, _ = sector.locate(sector.n2, sector.n1)
    for label, s in blocks:
        parity = 1 if label.startswith("sym ") else -1
        dense = s.toarray()
        assert np.array_equal(dense[xmap], parity * dense)
    if (cutoff_sq, total) == (5, (0, 0, 0)):
        assert [s.shape[1] for _, s in blocks] == BLOCKS_3D_C5


def test_point_group_needs_zero_momentum_along_the_axis():
    p = ts.ModelParams(cutoff_sq=2)
    names = [m.names for m in ts.point_group(ts.sector_3d(p, (0, 1, 0)))]
    assert names == [("sym", "anti"), ("+x", "-x"), ("+z", "-z")]
    names = [m.names for m in ts.point_group(ts.enumerate_basis_1d(p, 0))]
    assert names == [("sym", "anti"), ("even", "odd")]
    assert len(ts.point_group(ts.enumerate_basis_1d(p, 3))) == 1


# ---------------------------------------------------------------------------
# pairing within label groups


def _labels(columns, high, rows, seed):
    return np.random.default_rng(seed).integers(0, high, size=(rows, columns))


@pytest.mark.parametrize("labels", [
    pytest.param(_labels(1, 5, 40, seed=0), id="1-column"),
    pytest.param(_labels(3, 3, 60, seed=1), id="3-column"),
    pytest.param(_labels(4, 2, 50, seed=2), id="4-column"),
    pytest.param(_labels(3, 5, 60, seed=4) - 2, id="negative-components"),
    pytest.param(np.array([[0, 1, 0], [2, 2, 2], [0, 1, 0], [0, 1, 0], [1, 0, 0]]),
                 id="singleton-groups"),
    pytest.param(np.array([[7, 7, 7, 7]]), id="one-row"),
    pytest.param(np.zeros((0, 4), dtype=np.int64), id="zero-rows"),
    pytest.param(_labels(1, 5, 40, seed=5)[:, 0], id="1d-labels"),
    pytest.param(np.zeros(0, dtype=np.int64), id="1d-zero-rows"),
])
def test_pairs_within_groups_match_brute_force(labels):
    """Every ordered pair (i, j), i != j, of equal label rows, each once,
    ordered by ascending lexicographic label, then by i and j; given
    ascending states, the pairs whose row is in them, in the same order.
    (N,) labels act as one column."""
    rows, cols = _pairs_within_groups(labels)
    want = sorted((tuple(np.atleast_1d(labels[i])), i, j) for i in range(len(labels))
                  for j in range(len(labels))
                  if i != j and np.array_equal(labels[i], labels[j]))
    assert list(zip(rows.tolist(), cols.tolist())) == [(i, j) for _, i, j in want]
    states = np.flatnonzero(np.random.default_rng(3).random(len(labels)) < 0.5)
    keep = np.isin(rows, states)
    got = _pairs_within_groups(labels, states)
    assert np.array_equal(got[0], rows[keep]) and np.array_equal(got[1], cols[keep])
