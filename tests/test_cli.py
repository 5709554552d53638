"""Command line interface: runs, artifacts, determinism, exit codes."""

import collections
import csv
import itertools
import json
import os
import re
import subprocess
import sys
import time
from enum import Enum

import numpy as np
import pytest

from triscar.basis import Sector, SectorOperator
from triscar import classical, cli, eigensolve, pipeline
from triscar.cli import main
from triscar.config import DEFAULTS, ConfigError, load_config, model_params
from triscar.manifest import read_manifest
from triscar.params import ModelParams


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SMALL_1D = "[model]\nheavy_cutoff = 4\n"

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")

#: a small [model] section for each solve command
SMALL_MODEL = {"solve1d": "heavy_cutoff = 4", "solve3d": "cutoff_sq = 2"}


# ---------------------------------------------------------------------------
# config layer


def test_load_config_roundtrip(tmp_path):
    path = write_config(tmp_path, "[model]\ngamma = 1e-3\ncoupling = 2.5\n")
    cfg = load_config(path)
    p = model_params(cfg)
    assert p.gamma == 1e-3
    assert p.coupling == 2.5
    assert p.box_length == 13039.0


def test_config_unknown_key(tmp_path):
    path = write_config(tmp_path, "[model]\ngama = 1e-3\n")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert "gama" in str(exc.value)
    assert "model" in str(exc.value)


def test_config_unknown_section(tmp_path):
    path = write_config(tmp_path, "[modle]\ngamma = 1e-3\n")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert "modle" in str(exc.value)


def test_config_bad_value(tmp_path):
    path = write_config(tmp_path, "[model]\ngamma = fast\n")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert "gamma" in str(exc.value)


def test_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.ini")


def _ini_text(value) -> str:
    """A default as an INI file spells it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return " ".join(map(str, value))
    return value.value if isinstance(value, Enum) else str(value)


@pytest.mark.parametrize("name", sorted(DEFAULTS))
def test_defaults_load_back_from_their_text(tmp_path, name):
    """Every key of a DEFAULTS section, given its default's text, loads back
    to that default with its type (an Enum to its value); the [model]
    section then builds ModelParams()."""
    given = {key: value for key, value in DEFAULTS[name].items() if value is not None}
    text = "".join(f"{key} = {_ini_text(value)}\n" for key, value in given.items())
    cfg = load_config(write_config(tmp_path, f"[{name}]\n{text}"))
    want = {key: value.value if isinstance(value, Enum) else value
            for key, value in given.items()}
    assert cfg[name] == want
    assert {key: type(v) for key, v in cfg[name].items()} == \
        {key: type(v) for key, v in want.items()}
    if name == "model":
        assert model_params(cfg) == ModelParams()


def test_orbit_initial_loads_as_floats(tmp_path):
    """[orbit] initial has no default text; its numbers load as floats."""
    cfg = load_config(write_config(tmp_path, "[orbit]\ninitial = 0.2 0 0 0\n"))
    assert cfg["orbit"]["initial"] == [0.2, 0.0, 0.0, 0.0]


def test_readme_names_every_setting():
    """README's configuration reference names every key of DEFAULTS."""
    with open(README) as fh:
        reference = fh.read().split("## Configuration reference")[1].split("\n## ")[0]
    missing = [f"[{name}] {key}" for name, keys in DEFAULTS.items() for key in keys
               if not re.search(rf"\b{key}\b", reference)]
    assert missing == []


# ---------------------------------------------------------------------------
# solve1d


@pytest.fixture(scope="module")
def solve1d_run(tmp_path_factory):
    """One full-parameter solve shared by the dependent-command tests."""
    out = str(tmp_path_factory.mktemp("solve1d"))
    code = main(["solve1d", "--out", out])
    assert code == 0
    return out


def assert_rises_fit_the_peak(man):
    """Each timed step has its peak RSS rise, none negative, and the rises
    of all steps but solve, which encloses the block solvers' steps, are
    disjoint, so they sum to no more than the peak itself."""
    rises = man["peak_rss_rise_mb"]
    assert set(rises) == set(man["timings"])
    assert all(v >= 0.0 for v in rises.values())
    assert sum(v for step, v in rises.items() if step != "solve") <= man["peak_rss_mb"]


def test_solve1d_small(tmp_path):
    cfg = write_config(tmp_path, SMALL_1D)
    out = str(tmp_path / "run")
    assert main(["solve1d", "--config", cfg, "--out", out]) == 0
    for name in ("spectrum.csv", "bands.json", "scar_comparison.json",
                 "eigenvectors.npz", "manifest.json"):
        assert os.path.exists(os.path.join(out, name)), name


def test_solve1d_manifest_lists_artifacts(solve1d_run):
    man = read_manifest(solve1d_run)
    assert man["command"] == "solve1d"
    listed = set(man["artifacts"])
    actual = {n for n in os.listdir(solve1d_run) if n != "manifest.json"}
    assert listed == actual
    assert man["statistics"]["dimension"] == 729
    assert man["statistics"]["dense_lapack"] == eigensolve._dsyevd()[1]
    assert "solve" in man["timings"]


def test_solve1d_spectrum_content(solve1d_run):
    with open(os.path.join(solve1d_run, "spectrum.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 729
    assert float(rows[0]["eigenvalue"]) == pytest.approx(-5.9186, abs=1e-3)
    assert rows[0]["band"] == "1"
    vals = np.array([float(r["eigenvalue"]) for r in rows])
    assert np.all(np.diff(vals) >= 0.0)


def test_solve1d_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path, SMALL_1D)
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["solve1d", "--config", cfg, "--out", out_a]) == 0
    assert main(["solve1d", "--config", cfg, "--out", out_b]) == 0
    for name in ("spectrum.csv", "bands.json", "scar_comparison.json"):
        with open(os.path.join(out_a, name), "rb") as fa, \
                open(os.path.join(out_b, name), "rb") as fb:
            assert fa.read() == fb.read(), name


def _embedded(run, indices=None):
    """Eigenvalues, sector and plain-sector eigenvectors (as columns) of a
    solve1d archive, embedded from block coordinates."""
    import triscar as ts

    with np.load(os.path.join(run, "eigenvectors.npz")) as npz:
        evals, flat = npz["eigenvalues"], npz["eigenvectors"]
        labels, offsets = npz["block"], npz["offset"]
        sector = Sector(int(npz["total_momentum"][0]), npz["n1"], npz["n2"], npz["p"])
    blocks = dict(ts.symmetry_blocks(sector))
    if indices is None:
        indices = range(len(evals))
    isometries = [blocks[str(labels[i])] for i in indices]
    vecs = np.column_stack([s @ flat[offsets[i]:offsets[i] + s.shape[1]]
                            for i, s in zip(indices, isometries)])
    return evals, sector, vecs


def test_solve1d_npz_reconstructs(solve1d_run):
    """The archive holds each block's vectors in its own coordinates, sum(m^2)
    floats, and embeds to an orthonormal eigenbasis of the sector."""
    stats = read_manifest(solve1d_run)["statistics"]
    dims = stats["block_dimensions"]
    assert sum(dims.values()) == 729
    with np.load(os.path.join(solve1d_run, "eigenvectors.npz")) as npz:
        assert npz["eigenvalues"].shape == (729,)
        assert npz["eigenvectors"].shape == (sum(m * m for m in dims.values()),)
        assert collections.Counter(map(str, npz["block"])) == dims
        params = json.loads(str(npz["params"]))
        assert params["gamma"] == 2.7e-4
        assert npz["n1"].shape == (729,)
        assert npz["band_ids"].shape == (729,)
    _, _, vecs = _embedded(solve1d_run)
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(729), rtol=0.0, atol=1e-12)


def test_solve1d_isolated_vectors_keep_exact_symmetry(solve1d_run):
    """Block vectors are orbit sums, so every isolated eigenvector, embedded,
    is exchange and inversion (anti)symmetric bit for bit, whatever its sign."""
    with np.load(os.path.join(solve1d_run, "eigenvectors.npz")) as npz:
        evals = npz["eigenvalues"]
    # canonicalize's degeneracy tolerance
    tol = eigensolve._DEGEN_TOL * np.maximum(1.0, np.abs(evals))
    apart = np.diff(evals) > np.maximum(tol[1:], tol[:-1])
    isolated = np.nonzero(np.append(True, apart) & np.append(apart, True))[0]
    assert len(isolated) > 100
    _, sector, vecs = _embedded(solve1d_run, isolated)
    xmap, _ = sector.locate(sector.n2, sector.n1)
    imap, _ = sector.locate(-sector.n1, -sector.n2)
    for c, v in zip(isolated, vecs.T):
        for perm in (xmap, imap):
            assert np.array_equal(v[perm], v) or np.array_equal(v[perm], -v), c


def test_solve1d_auto_routes_by_largest_block(tmp_path):
    # the sector (121) is solved densely as four symmetry blocks
    cfg = write_config(tmp_path, "[model]\nheavy_cutoff = 5\n")
    out = str(tmp_path / "run")
    assert main(["solve1d", "--config", cfg, "--out", out]) == 0
    stats = read_manifest(out)["statistics"]
    assert stats["method"] == "dense"
    assert stats["dimension"] == 121
    assert stats["block_dimensions"] == {"sym even": 36, "sym odd": 30,
                                         "anti even": 25, "anti odd": 30}


def test_solve1d_auto_routes_by_output_size(tmp_path, monkeypatch):
    # the four blocks' vectors do not fit the budget, so auto falls back to
    # the iterative solver, block by block
    monkeypatch.setattr(eigensolve, "DENSE_OUTPUT_BYTES",
                        8 * (36 ** 2 + 30 ** 2 + 25 ** 2 + 30 ** 2) - 1)
    cfg = write_config(tmp_path, "[model]\nheavy_cutoff = 5\n")
    out = str(tmp_path / "run")
    assert main(["solve1d", "--config", cfg, "--out", out]) == 0
    stats = read_manifest(out)["statistics"]
    assert stats["method"] == "lanczos"
    assert stats["block_dimensions"] == {"sym even": 36, "sym odd": 30,
                                         "anti even": 25, "anti odd": 30}
    # an explicit dense solve over the budget is refused as a resource limit
    cfg = write_config(tmp_path, "[model]\nheavy_cutoff = 5\n"
                                 "[solve1d]\nmethod = dense\n", name="dense.ini")
    assert main(["solve1d", "--config", cfg, "--out", str(tmp_path / "d")]) == 3


@pytest.mark.parametrize("seed", [0, 3])
def test_solve1d_dense_and_iterative_routes_agree(solve1d_run, tmp_path, seed):
    """The iterative route returns the dense route's lowest 8 pairs, the
    same blocks and the same block vectors, sign included."""
    cfg = write_config(tmp_path, f"[solve1d]\nmethod = iterative\nseed = {seed}\n")
    out = str(tmp_path / "iterative")
    assert main(["solve1d", "--config", cfg, "--out", out]) == 0
    assert read_manifest(out)["statistics"]["method"] == "lanczos"
    dims = read_manifest(solve1d_run)["statistics"]["block_dimensions"]
    with np.load(os.path.join(solve1d_run, "eigenvectors.npz")) as dense, \
            np.load(os.path.join(out, "eigenvectors.npz")) as iterative:
        assert len(iterative["eigenvalues"]) == 8
        np.testing.assert_allclose(iterative["eigenvalues"], dense["eigenvalues"][:8],
                                   rtol=0.0, atol=1e-10)
        assert list(iterative["block"]) == list(dense["block"][:8])
        for label, a, b in zip(iterative["block"], iterative["offset"], dense["offset"]):
            m = dims[str(label)]
            np.testing.assert_allclose(iterative["eigenvectors"][a:a + m],
                                       dense["eigenvectors"][b:b + m],
                                       rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("command", ["solve1d", "solve3d"])
@pytest.mark.parametrize("method", ["dense", "iterative"])
def test_solve_manifests_record_the_same_timings(tmp_path, command, method):
    """Both solve commands run one block pipeline and time the same steps,
    summed over the blocks as each solver reports them: the eigensolve
    (eigh on the dense route, eigsh on the iterative one), canonicalize and
    residuals, which together fit inside the solve.  By how much each step
    raised the peak RSS is recorded with it, and no more than the peak
    itself."""
    cfg = write_config(tmp_path, f"[model]\n{SMALL_MODEL[command]}\n"
                                 f"[{command}]\nmethod = {method}\n")
    out = str(tmp_path / "run")
    assert main([command, "--config", cfg, "--out", out]) == 0
    man = read_manifest(out)
    timings = man["timings"]
    steps = {"eigh" if method == "dense" else "eigsh", "canonicalize", "residuals"}
    assert set(timings) == {"build", "assemble", "blocks", "solve", "write"} | steps
    assert sum(timings[key] for key in steps) <= timings["solve"]
    assert all(v > 0.0 for v in timings.values())
    assert_rises_fit_the_peak(man)


@pytest.mark.parametrize("command, model",
                         [("solve1d", ""), ("solve3d", "cutoff_sq = 2")])
def test_solves_assemble_only_the_rows_their_blocks_read(tmp_path, monkeypatch,
                                                         command, model):
    """A solve assembles H at its blocks' orbit representatives alone, so
    it finishes with the assembly of every row (`triplets`) made to fail;
    solve1d at the default heavy_cutoff 13."""
    def every_row(self):
        raise AssertionError("the solve assembled every row of H")

    monkeypatch.setattr(SectorOperator, "triplets", property(every_row))
    cfg = write_config(tmp_path, f"[model]\n{model}\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 0


@pytest.mark.parametrize("command", ["solve1d", "solve3d"])
def test_long_solves_report_each_block_on_stderr(tmp_path, capsys, monkeypatch,
                                                 command):
    """Past PROGRESS_AFTER_S a solve prints one stderr line per finished
    block; the small default runs stay silent."""
    cfg = write_config(tmp_path, f"[model]\n{SMALL_MODEL[command]}\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "quiet")]) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setattr(pipeline, "PROGRESS_AFTER_S", 0.0)
    out = str(tmp_path / "loud")
    assert main([command, "--config", cfg, "--out", out]) == 0
    lines = capsys.readouterr().err.splitlines()
    dims = read_manifest(out)["statistics"]["block_dimensions"]
    assert len(lines) == len(dims)
    for line, (label, dim) in zip(sorted(lines), sorted(dims.items())):
        assert line.startswith(f"{command}: block {label!r} (dim {dim}) solved at ")
        assert line.endswith(" s")


@pytest.mark.parametrize("command, config, key", [
    ("solve1d", "[model]\nheavy_cutoff = 2\nlight_cutoff_mode = product-filter\n"
                "[solve1d]\ntotal_momentum = 99\n", "P=99"),
    ("solve3d", "[model]\ncutoff_sq = 2\n[solve3d]\ntotal_momentum = 9 9 9\n",
     "P=(9,9,9)")], ids=["solve1d-P99", "solve3d-P999"])
def test_solves_refuse_an_empty_sector(tmp_path, capsys, command, config, key):
    """A total momentum no state carries is a configuration error (exit 2)
    that names the sector, in either dimension, and writes nothing."""
    out = tmp_path / "run"
    cfg = write_config(tmp_path, config)
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: sector {key} holds no states\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve1d", "solve3d"])
@pytest.mark.parametrize("method", ["dense", "iterative"])
@pytest.mark.parametrize("setting, reason", [
    ("tol = 0", "tol: 0.0 (must be positive)"),
    ("tol = nan", "tol: nan (must be positive)"),
    ("k = 0", "k: 0 (must be an integer, at least 1)")],
    ids=["tol-0", "tol-nan", "k-0"])
def test_solves_refuse_bad_iterative_settings(tmp_path, capsys, monkeypatch,
                                              command, method, setting, reason):
    """A tol that is not positive or a k below 1 exits 2 naming the section,
    on either route, before the sector is built."""
    def never(*args, **kwargs):
        raise AssertionError("built before the settings were checked")

    monkeypatch.setattr(pipeline, "enumerate_basis_1d", never)
    monkeypatch.setattr(pipeline, "sector_3d", never)
    cfg = write_config(tmp_path, f"[model]\n{SMALL_MODEL[command]}\n"
                                 f"[{command}]\nmethod = {method}\n{setting}\n")
    out = tmp_path / "run"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: bad value for [{command}] {reason}\n"
    assert not out.exists()


def test_solve1d_config_error_exit(tmp_path, capsys):
    cfg = write_config(tmp_path, "[model]\ngama = 1\n")
    code = main(["solve1d", "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 2
    assert "gama" in capsys.readouterr().err


def test_solve1d_iterative_method(tmp_path):
    cfg = write_config(tmp_path,
                       "[model]\nheavy_cutoff = 4\n"
                       "[solve1d]\nmethod = iterative\nk = 5\n")
    out = str(tmp_path / "run")
    assert main(["solve1d", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "spectrum.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    man = read_manifest(out)
    assert man["statistics"]["method"].startswith("lanczos")


def test_solve1d_dump_matrix(tmp_path):
    cfg = write_config(tmp_path,
                       "[model]\nheavy_cutoff = 2\n"
                       "[solve1d]\ndump_matrix = true\n")
    out = str(tmp_path / "run")
    assert main(["solve1d", "--config", cfg, "--out", out]) == 0
    path = os.path.join(out, "hamiltonian_nonzeros.csv")
    assert os.path.exists(path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert all(float(r["value"]) != 0.0 for r in rows)


# ---------------------------------------------------------------------------
# solve3d


def test_solve3d_budget_refusal(tmp_path, capsys):
    """cutoff_sq 20 (70885 states, 41514433 nonzeros) needs 3331 MB for its
    labels and operator assembly, over the 1024 MB operator budget; the gate
    refuses it before the operator exists and records why."""
    cfg = write_config(tmp_path, "[model]\ncutoff_sq = 20\n")
    out = str(tmp_path / "big")
    code = main(["solve3d", "--config", cfg, "--out", out])
    assert code == 3
    err = capsys.readouterr().err
    assert "70885 states and 41514433 operator nonzeros" in err
    assert "3331 MB, over the operator budget of 1024 MB" in err
    assert "--allow-large" in err
    man = read_manifest(out)
    assert (man["status"], man["exit_code"]) == ("refused", 3)
    assert "3331 MB" in man["message"]
    assert not man["artifacts"]


def test_solve3d_gate_builds_nothing(tmp_path, capsys, monkeypatch):
    """At cutoff_sq 100 (8145031 states) the gate refuses from the counts
    alone: neither the sector nor its operator is built."""
    def never(*args, **kwargs):
        raise AssertionError("built before the operator budget was checked")

    monkeypatch.setattr(pipeline, "sector_3d", never)
    monkeypatch.setattr(pipeline, "HamiltonianOperator3D", never)
    cfg = write_config(tmp_path, "[model]\ncutoff_sq = 100\n")
    out = str(tmp_path / "huge")
    assert main(["solve3d", "--config", cfg, "--out", out]) == 3
    err = capsys.readouterr().err
    assert "8145031 states and 51288334123 operator nonzeros" in err
    assert "over the operator budget of 1024 MB" in err
    assert read_manifest(out)["status"] == "refused"


def test_solve3d_refuses_before_the_counting_grid(tmp_path, capsys, monkeypatch):
    """At cutoff_sq 10^4 counting the states alone would take a 1.7 GB FFT
    grid, over the operator budget: the refusal comes before any transform
    runs, unless --allow-large asks for it."""
    def never(*args, **kwargs):
        raise AssertionError("the counting grid was transformed")

    monkeypatch.setattr(np.fft, "rfftn", never)
    cfg = write_config(tmp_path, "[model]\ncutoff_sq = 10000\n")
    out = str(tmp_path / "huge")
    assert main(["solve3d", "--config", cfg, "--out", out]) == 3
    err = capsys.readouterr().err
    assert "cutoff_sq=10000 needs 1722 MB just to count its states" in err
    assert "over the operator budget of 1024 MB; rerun with --allow-large" in err
    assert read_manifest(out)["status"] == "refused"
    with pytest.raises(AssertionError, match="counting grid was transformed"):
        main(["solve3d", "--config", cfg, "--out", out, "--allow-large"])


def test_solve3d_large_refusal_is_fast(tmp_path, capsys):
    """The gate counts cutoff_sq 400 (522950569 states) from one FFT of the
    cutoff ball, so the refusal comes well inside 5 s (the pairwise count
    took about 19 s)."""
    cfg = write_config(tmp_path, "[model]\ncutoff_sq = 400\n")
    t0 = time.perf_counter()
    code = main(["solve3d", "--config", cfg, "--out", str(tmp_path / "huge")])
    elapsed = time.perf_counter() - t0
    assert code == 3
    assert "522950569 states" in capsys.readouterr().err
    assert elapsed < 5.0


def test_solve3d_small(tmp_path):
    cfg = write_config(tmp_path, "[model]\ncutoff_sq = 2\n")
    out = str(tmp_path / "run3d")
    assert main(["solve3d", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "sectors.json")) as fh:
        sectors = json.load(fh)
    assert sectors["symmetric_dimension"] == 88
    assert sectors["antisymmetric_dimension"] == 87
    assert sectors["sector_dimension"] == 175
    assert sectors["nonzeros_per_row"] == 4837 / 175
    with open(os.path.join(out, "spectrum.csv")) as fh:
        rows = list(csv.DictReader(fh))
    parities = {r["parity"] for r in rows}
    assert parities == {"sym", "anti"}
    man = read_manifest(out)
    assert man["statistics"]["symmetric_ground_below_antisymmetric"] is False
    assert man["statistics"]["max_residual_ratio"] <= 1e-8


def test_solve3d_analyze_radial(tmp_path):
    cfg = write_config(tmp_path, "[model]\ncutoff_sq = 2\n")
    run = str(tmp_path / "run3d")
    assert main(["solve3d", "--config", cfg, "--out", run]) == 0
    out = str(tmp_path / "an")
    assert main(["analyze", "--from", run, "--parity", "sym", "--index", "0",
                 "--out", out]) == 0
    sidecar = os.path.join(out, "radial_sym_state0000.json")
    with open(sidecar) as fh:
        d = json.load(fh)
    assert d["mass_small_r"] > 0.0
    assert os.path.exists(os.path.join(out, "projection_like_sym_state0000.csv"))
    assert os.path.exists(os.path.join(out, "radial_sym_state0000.csv"))


def test_analyze_3d_manifest_records_timings_and_peak_rss(tmp_path, capsys):
    cfg = write_config(tmp_path, "[model]\ncutoff_sq = 2\n")
    run = str(tmp_path / "run3d")
    assert main(["solve3d", "--config", cfg, "--out", run]) == 0
    out = str(tmp_path / "an")
    assert main(["analyze", "--from", run, "--parity", "anti", "--index", "1",
                 "--out", out]) == 0
    man = read_manifest(out)
    assert set(man["timings"]) == {"load", "radial", "projections", "write"}
    assert all(t > 0.0 for t in man["timings"].values())
    assert man["peak_rss_mb"] > 0.0
    assert_rises_fit_the_peak(man)
    capsys.readouterr()
    assert main(["report", "--from", out, "--out", str(tmp_path / "rep")]) == 0
    printed = capsys.readouterr().out
    assert f"peak RSS rises (MB): {man['peak_rss_rise_mb']}" in printed
    assert f"peak RSS: {man['peak_rss_mb']} MB" in printed


@pytest.mark.parametrize("weights", [False, True], ids=["plain", "weights"])
def test_analyze_1d_manifest_records_timings(solve1d_run, tmp_path, weights):
    args = ["analyze", "--from", solve1d_run, "--select", "ground,index:3"]
    keys = {"load", "overlaps", "grids", "write"}
    if weights:
        path = tmp_path / "w.csv"
        path.write_text("index,coefficient\n0,0.8\n26,0.6\n")
        args += ["--weights", str(path)]
        keys.add("autocorrelation")
    out = str(tmp_path / "an")
    assert main(args + ["--out", out]) == 0
    man = read_manifest(out)
    assert set(man["timings"]) == keys
    assert all(t > 0.0 for t in man["timings"].values())
    assert_rises_fit_the_peak(man)


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path, header, rows):
    """The oracle of cli._write_table: rows of cells already formatted, each
    quoted when it holds a comma, a quote or a newline, its quotes doubled."""
    def quote(field):
        if "," in field or '"' in field or "\n" in field:
            return '"' + field.replace('"', '""') + '"'
        return field

    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(quote(f) for f in row) + "\n")


def test_write_table_matches_write_csv(tmp_path):
    """_write_table writes the bytes the oracle writes from _fmt cells, an
    integer-valued column's cells as str(int), and text cells quoted only
    when they hold a comma, a quote or a newline."""
    header = [_fmt(v) for v in (-0.0, 0.1, 1e300)] + ["n", "sector", "note"]
    values = np.array([[-0.0, 5e-324, 1e300],
                       [np.inf, -np.inf, np.nan],
                       [1.0 / 3.0, -2.5e-308, 123456789.0]])
    ints = np.array([0, -7, 2 ** 53 - 1])
    sectors = ["P=(0,0,0)", "P=0", "P=(1,0,0)"]
    notes = ['say "hi"', "two\nlines", "a,b"]
    table, rows = tmp_path / "table.csv", tmp_path / "rows.csv"
    cli._write_table(str(table), header, values, ints, sectors, notes)
    _write_csv(str(rows), header,
               ([_fmt(v) for v in row] + [str(int(n)), sector, note]
                for row, n, sector, note in zip(values, ints, sectors, notes)))
    data = table.read_bytes()
    assert data == rows.read_bytes()
    assert b"\n-0,4.9406564584124654e-324,1.0000000000000001e+300,0,"\
           b'"P=(0,0,0)","say ""hi"""\n' in data
    assert b',-7,P=0,"two\nlines"\n' in data
    assert data.endswith(b',9007199254740991,"P=(1,0,0)","a,b"\n')
    with open(table, newline="") as fh:
        read = list(csv.reader(fh))
    assert [r[-2:] for r in read[1:]] == [list(pair) for pair in zip(sectors, notes)]


def test_analyze_refuses_components_key(tmp_path, capsys):
    """3D projections are fixed to the (0, 0) and (0, 1) pairs; the former
    `components` key had no reader and is now an unknown key."""
    cfg = write_config(tmp_path, "[analyze]\ncomponents = 0 1\n")
    code = main(["analyze", "--config", cfg, "--from", str(tmp_path),
                 "--out", str(tmp_path / "an")])
    assert code == 2
    assert "components" in capsys.readouterr().err


#: the 16 point-group blocks of the cutoff_sq 2 sector (88 sym + 87 anti)
BLOCKS_3D_C2 = [25, 12, 12, 8, 12, 8, 8, 3, 18, 15, 15, 7, 15, 7, 7, 3]

#: all 16 blocks as dense eigenvector arrays
BUDGET_3D_C2 = 8 * sum(m * m for m in BLOCKS_3D_C2)


def test_solve3d_auto_routes_by_output_size(tmp_path, monkeypatch):
    """auto solves every block densely exactly when their vectors fit the
    dense output budget together, and records the route in the manifest."""
    cfg = write_config(tmp_path, "[model]\ncutoff_sq = 2\n")
    monkeypatch.setattr(eigensolve, "DENSE_OUTPUT_BYTES", BUDGET_3D_C2)
    out = str(tmp_path / "fits")
    assert main(["solve3d", "--config", cfg, "--out", out]) == 0
    stats = read_manifest(out)["statistics"]
    assert stats["method"] == "dense"
    labels = [" ".join(chi) for chi in itertools.product(
        ("sym", "anti"), ("+x", "-x"), ("+y", "-y"), ("+z", "-z"))]
    assert stats["block_dimensions"] == dict(zip(labels, BLOCKS_3D_C2))
    assert stats["dense_lapack"].startswith("scipy_dsyevd_64_ in libscipy_openblas64_")

    monkeypatch.setattr(eigensolve, "DENSE_OUTPUT_BYTES", BUDGET_3D_C2 - 1)
    out = str(tmp_path / "over")
    assert main(["solve3d", "--config", cfg, "--out", out]) == 0
    stats = read_manifest(out)["statistics"]
    assert (stats["method"], stats["dense_lapack"]) == ("lanczos", None)
    with open(os.path.join(out, "spectrum.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["parity"] for r in rows] == ["sym"] * 8 + ["anti"] * 8
    # every block is solved iteratively, and each half keeps its lowest 8
    with open(os.path.join(tmp_path, "fits", "spectrum.csv")) as fh:
        full = list(csv.DictReader(fh))
    for tag in ("sym", "anti"):
        want = [float(r["eigenvalue"]) for r in full if r["parity"] == tag][:8]
        got = [float(r["eigenvalue"]) for r in rows if r["parity"] == tag]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-8)


def test_solve3d_explicit_dense_over_budget_is_refused(tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.setattr(eigensolve, "DENSE_OUTPUT_BYTES", BUDGET_3D_C2 - 1)
    cfg = write_config(tmp_path, "[model]\ncutoff_sq = 2\n"
                                 "[solve3d]\nmethod = dense\n")
    out = tmp_path / "run"
    assert main(["solve3d", "--config", cfg, "--out", str(out)]) == 3
    shapes = " + ".join(f"{m} x {m}" for m in BLOCKS_3D_C2)
    assert f"{shapes} eigenvectors" in capsys.readouterr().err
    assert not list(out.glob("eigenvectors_*.npz"))


def test_solve3d_manifest_records_blocks_and_timings(tmp_path):
    cfg = write_config(tmp_path, "[model]\ncutoff_sq = 2\n")
    out = tmp_path / "run3d"
    assert main(["solve3d", "--config", cfg, "--out", str(out)]) == 0
    man = read_manifest(str(out))
    stats = man["statistics"]
    assert sorted(stats["block_dimensions"].values()) == sorted(BLOCKS_3D_C2)
    assert stats["eigh_calls"] == 16
    assert (stats["symmetric_dimension"], stats["antisymmetric_dimension"]) == (88, 87)
    assert set(man["timings"]) == {"build", "assemble", "solve", "blocks", "eigh",
                                   "canonicalize", "residuals", "write"}
    assert man["timings"]["eigh"] <= man["timings"]["solve"]
    assert (man["status"], man["exit_code"], man["message"]) == ("ok", 0, None)
    # archives hold every block's vectors in its own coordinates, unpadded:
    # 8 sum(m^2) bytes, what the dense output budget charges, plus the labels
    path = out / "eigenvectors_anti.npz"
    data = np.load(path)
    held = sum(m * m for m in BLOCKS_3D_C2[8:])
    assert data["eigenvectors"].shape == (held,)
    # nothing else of size: the archive is its arrays plus zip and npy headers
    arrays = sum(data[key].nbytes for key in data.files)
    assert 0 < os.path.getsize(path) - arrays < 512 * len(data.files)
    assert sorted(collections.Counter(data["block"]).values()) == sorted(BLOCKS_3D_C2[8:])
    assert sorted(data["offset"]) == sorted(set(data["offset"]))
    for label, start in zip(data["block"], data["offset"]):
        m = stats["block_dimensions"][str(label)]
        assert abs(np.linalg.norm(data["eigenvectors"][start:start + m]) - 1.0) < 1e-12
    assert np.all(np.diff(data["eigenvalues"]) >= 0.0)


@pytest.mark.parametrize("command", ["solve1d", "solve3d"])
def test_analyze_refuses_archive_without_offsets(tmp_path, capsys, command):
    """An archive from before the block layout names no block offsets."""
    cfg = write_config(tmp_path, f"[model]\n{SMALL_MODEL[command]}\n")
    run = tmp_path / "run"
    assert main([command, "--config", cfg, "--out", str(run)]) == 0
    path = run / ("eigenvectors.npz" if command == "solve1d" else "eigenvectors_sym.npz")
    with np.load(path) as data:
        kept = {key: data[key] for key in data.files if key not in ("block", "offset")}
    np.savez(path, **kept)
    assert main(["analyze", "--from", str(run), "--out", str(tmp_path / "an")]) == 2
    err = capsys.readouterr().err
    assert "holds no block offsets; rerun solve1d/solve3d" in err


def _read_grid(path):
    with open(path) as fh:
        next(fh)
        return np.array([[float(v) for v in line.split(",")] for line in fh])


@pytest.mark.parametrize("parity, index", [("sym", 0), ("sym", 5), ("anti", 2)])
def test_analyze_3d_embeds_block_vectors(tmp_path, parity, index):
    """analyze on a block archive equals analyze on the exchange-half
    eigenvector that block vector embeds to."""
    import triscar as ts

    cfg = write_config(tmp_path, "[model]\ncutoff_sq = 2\n")
    run = tmp_path / "run3d"
    assert main(["solve3d", "--config", cfg, "--out", str(run)]) == 0
    out = tmp_path / "an"
    assert main(["analyze", "--from", str(run), "--parity", parity,
                 "--index", str(index), "--out", str(out)]) == 0

    p = ts.ModelParams(cutoff_sq=2)
    sector = ts.sector_3d(p, (0, 0, 0))
    half = ts.symmetrize_sector(sector)[0 if parity == "sym" else 1]
    data = np.load(run / f"eigenvectors_{parity}.npz")
    s = dict(ts.symmetry_blocks(sector))[str(data["block"][index])]
    # the block vector, embedded, lies in the exchange half and is an
    # eigenvector of that half's block
    start = data["offset"][index]
    v = data["eigenvectors"][start:start + s.shape[1]]
    u = half.isometry.T @ (s @ v)
    h = ts.SymmetrizedOperator3D(half, ts.HamiltonianOperator3D(
        sector, ts.MatrixElementRule3D(p))).dense()
    energy = data["eigenvalues"][index]
    assert np.linalg.norm(h @ u - energy * u) < 1e-12
    coeffs = half.embed(u)
    np.testing.assert_allclose(coeffs, s @ v,
                               rtol=0.0, atol=1e-15)

    radial = ts.integrated_probability_3d(coeffs, sector, p, n_r=48, n_eta=48)
    got = _read_grid(out / f"radial_{parity}_state{index:04d}.csv")
    np.testing.assert_allclose(got, radial.values, rtol=0.0,
                               atol=1e-12 * np.abs(radial.values).max())
    for comp_eta, label in ((0, "like"), (1, "unlike")):
        grid = ts.pair_projection_3d(coeffs, sector, p, 0, comp_eta, n_r=128, n_eta=128)
        want = grid.density()
        got = _read_grid(out / f"projection_{label}_{parity}_state{index:04d}.csv")
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.abs(want).max())


#: lowest 8 symmetric levels at the paper's default point (cutoff_sq 10),
#: agreed on by dense eigh of the whole half, scipy eigsh and the blocks
PAPER_SYM_LOWEST = [-0.382973, -0.362776, -0.362776, -0.362776,
                    -0.357101, -0.357101, -0.218774, -0.218774]


@pytest.fixture(scope="module")
def paper3d_run(tmp_path_factory):
    """solve3d with the default config, shared by the paper-point tests."""
    out = tmp_path_factory.mktemp("paper3d")
    assert main(["solve3d", "--out", str(out)]) == 0
    return out


def _spectrum_by_parity(out):
    with open(out / "spectrum.csv") as fh:
        rows = list(csv.DictReader(fh))
    return {tag: [float(r["eigenvalue"]) for r in rows if r["parity"] == tag]
            for tag in ("sym", "anti")}


def test_solve3d_paper_point_is_exact_without_flag(paper3d_run):
    """The default config (cutoff_sq 10, 10105 states) passes the operator
    budget and the dense output budget, and yields the exact spectrum."""
    out = paper3d_run
    stats = read_manifest(str(out))["statistics"]
    assert stats["method"] == "dense"
    assert (stats["symmetric_dimension"], stats["antisymmetric_dimension"]) == (5062, 5043)
    assert max(stats["block_dimensions"].values()) == 828
    with open(out / "spectrum.csv") as fh:
        rows = [r for r in csv.DictReader(fh) if r["parity"] == "sym"]
    assert len(rows) == 5062
    got = [float(r["eigenvalue"]) for r in rows[:8]]
    np.testing.assert_allclose(got, PAPER_SYM_LOWEST, rtol=0.0, atol=1e-6)
    assert max(float(r["residual"]) for r in rows) < 1e-8


@pytest.mark.parametrize("seed", [0, 3])
def test_solve3d_iterative_paper_point_keeps_every_copy(paper3d_run, tmp_path, seed):
    """The iterative route returns each half's lowest 8 levels of the dense
    solve, every copy of the threefold level included."""
    cfg = write_config(tmp_path, f"[solve3d]\nmethod = iterative\nseed = {seed}\n")
    out = tmp_path / "iterative"
    assert main(["solve3d", "--config", cfg, "--out", str(out)]) == 0
    assert read_manifest(str(out))["statistics"]["method"] == "lanczos"
    got = _spectrum_by_parity(out)
    want = _spectrum_by_parity(paper3d_run)
    for tag in ("sym", "anti"):
        assert len(got[tag]) == 8
        np.testing.assert_allclose(got[tag], want[tag][:8], rtol=0.0, atol=1e-8)
    np.testing.assert_allclose(got["sym"], PAPER_SYM_LOWEST, rtol=0.0, atol=1e-6)


def test_solve1d_auto_past_the_dense_budget_converges(tmp_path):
    """heavy_cutoff 54 (dim 11881; its four blocks' vectors need 269 MB) is
    the first 1D size auto solves iteratively; it converges to the dense
    ground energy of heavy_cutoff 24."""
    stats = {}
    for cutoff in (24, 54):
        cfg = write_config(tmp_path, f"[model]\nheavy_cutoff = {cutoff}\n",
                           name=f"h{cutoff}.ini")
        out = str(tmp_path / f"h{cutoff}")
        assert main(["solve1d", "--config", cfg, "--out", out]) == 0
        stats[cutoff] = read_manifest(out)["statistics"]
    assert stats[24]["method"] == "dense"
    import triscar as ts

    last = ts.symmetry_blocks(ts.enumerate_basis_1d(ts.ModelParams(heavy_cutoff=53)))
    assert eigensolve.dense_budget_error([s.shape[1] for _, s in last]) is None
    assert (stats[54]["method"], stats[54]["dimension"]) == ("lanczos", 11881)
    assert eigensolve.dense_budget_error(stats[54]["block_dimensions"].values())
    assert stats[54]["max_residual_ratio"] <= 1e-8
    with open(tmp_path / "h54" / "spectrum.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 8
    assert stats[54]["ground_energy"] == pytest.approx(stats[24]["ground_energy"],
                                                       rel=0.0, abs=1e-6)


def _modules_in_fresh_cli(*argv, exit_code=0, error=""):
    """The triscar, numpy and scipy modules ({package: sorted names}) a fresh
    interpreter holds after importing triscar.cli and, given argv, after
    running that command, which must end with exit_code (--help and
    --version end in SystemExit, caught here) and print error on stderr."""
    code = ("import json, sys, triscar.cli\n"
            "try:\n"
            "    code = triscar.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "print(json.dumps({top: sorted(m for m in sys.modules\n"
            "                              if m.partition('.')[0] == top)\n"
            "                  for top in ('triscar', 'numpy', 'scipy')}))\n"
            "sys.exit(code)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__)),
         os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True)
    assert done.returncode == exit_code, done.stderr
    assert error in done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


#: the modules of a fresh `import triscar.cli`: none loads numpy
LIGHT_CLI = ["triscar", "triscar.cli", "triscar.config", "triscar.manifest",
             "triscar.params"]


def test_cli_import_leaves_scipy_unloaded():
    """Importing the CLI loads no scipy module; the solvers and the sparse
    isometry import it where they use it."""
    assert _modules_in_fresh_cli()["scipy"] == []


@pytest.mark.parametrize("argv", [[], ["--help"], ["--version"]],
                         ids=["import", "help", "version"])
def test_cli_import_help_and_version_load_no_numpy(argv):
    """Importing the CLI, --help and --version load no numpy and no triscar
    module beyond the CLI, its configuration, the model and the manifest."""
    loaded = _modules_in_fresh_cli(*argv)
    assert loaded["numpy"] == []
    assert loaded["triscar"] == LIGHT_CLI


#: a setting out of its domain in each command's section
OUT_OF_DOMAIN = {"solve1d": "seed = -1", "solve3d": "total_momentum = 0 0",
                 "analyze": "n_times = 0", "orbit": "spread = nan",
                 "estimate": "convention = neither"}


@pytest.mark.parametrize("command", ["report", "refused", *OUT_OF_DOMAIN])
def test_report_and_refusals_load_no_numpy(tmp_path, command):
    """report, and a run refused for its configuration (exit 2): a model
    constant, or a setting out of its domain in each command's section,
    finish without loading numpy or a solver module."""
    run = str(tmp_path / "run")
    if command == "report":
        cfg = write_config(tmp_path, SMALL_1D)
        assert main(["solve1d", "--config", cfg, "--out", run]) == 0
        argv, exit_code, error = ["report", "--from", run], 0, ""
    elif command == "refused":
        cfg = write_config(tmp_path, "[model]\ncoupling = nan\n")
        argv, exit_code, error = ["solve3d", "--config", cfg], 2, "coupling"
    else:
        setting = OUT_OF_DOMAIN[command]
        cfg = write_config(tmp_path, f"[{command}]\n{setting}\n")
        argv, exit_code = [command, "--config", cfg], 2
        error = f"bad value for [{command}] {setting.partition(' =')[0]}: "
        if command == "analyze":
            argv += ["--from", run]
    loaded = _modules_in_fresh_cli(*argv, "--out", str(tmp_path / "out"),
                                   exit_code=exit_code, error=error)
    assert loaded["numpy"] == []
    assert loaded["triscar"] == LIGHT_CLI


@pytest.mark.parametrize("command", ["orbit", "estimate"])
def test_orbit_and_estimate_from_load_no_operator(tmp_path, command):
    """orbit loads only the classical module beyond the CLI's own, and
    estimate --from reads the archive's eigenvalues without loading the
    pipeline, the basis or an operator; neither loads numpy.ma."""
    cfg = write_config(tmp_path, f"{SMALL_1D}[orbit]\nsteps = 20\n")
    argv = ["orbit", "--config", cfg]
    extra = ["triscar.classical"]
    if command == "estimate":
        run = str(tmp_path / "run")
        assert main(["solve1d", "--config", cfg, "--out", run]) == 0
        argv = ["estimate", "--config", cfg, "--from", run]
        extra += ["triscar.eigensolve", "triscar.scars"]
    loaded = _modules_in_fresh_cli(*argv, "--out", str(tmp_path / "out"))
    assert loaded["triscar"] == sorted(LIGHT_CLI + extra)
    assert "numpy.ma" not in loaded["numpy"]


def test_dense_solve3d_loads_no_classical_scars_or_wavefunction(tmp_path):
    """A dense solve3d loads the operators and the solver, and none of the
    classical, scar or wavefunction modules."""
    cfg = write_config(tmp_path, "[model]\ncutoff_sq = 2\n")
    loaded = _modules_in_fresh_cli("solve3d", "--config", cfg,
                                   "--out", str(tmp_path / "out"))
    assert {"triscar.pipeline", "triscar.eigensolve",
            "triscar.hamiltonian3d"} <= set(loaded["triscar"])
    assert not {"triscar.classical", "triscar.scars",
                "triscar.wavefunction"} & set(loaded["triscar"])
    assert loaded["scipy"] == []


def test_readme_library_example_runs_without_scipy():
    """The README's python block runs in a fresh interpreter, exits 0 and
    loads no scipy module."""
    with open(README) as fh:
        example = fh.read().split("```python\n")[1].split("```")[0]
    code = (example + "import sys\n"
            "print([m for m in sys.modules if m.partition('.')[0] == 'scipy'])\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__)),
         os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"


@pytest.mark.parametrize("command", ["estimate", "report", "orbit", "analyze3d"])
def test_commands_without_a_solve_leave_scipy_unloaded(tmp_path, command):
    """estimate, report, orbit and 3D analyze finish without loading scipy
    or numpy.ma: a 3D state is embedded from its block's entries with numpy
    alone."""
    cfg = write_config(tmp_path, "[model]\ncutoff_sq = 2\n[orbit]\nsteps = 20\n")
    run = str(tmp_path / "run3d")
    assert main(["solve3d", "--config", cfg, "--out", run]) == 0
    argv = {"estimate": ["estimate", "--config", cfg],
            "report": ["report", "--from", run],
            "orbit": ["orbit", "--config", cfg],
            "analyze3d": ["analyze", "--config", cfg, "--from", run,
                          "--parity", "anti", "--index", "1"]}[command]
    out = str(tmp_path / "out")
    loaded = _modules_in_fresh_cli(*argv, "--out", out)
    assert loaded["scipy"] == []
    assert "numpy.ma" not in loaded["numpy"]
    assert os.path.exists(os.path.join(out, "report.txt" if command == "report"
                                       else "manifest.json"))


@pytest.mark.parametrize("command", ["solve1d", "solve3d", "analyze1d"])
def test_dense_solves_and_1d_analyze_leave_scipy_unloaded(tmp_path, command):
    """solve1d and solve3d on the dense route and 1D analyze finish without
    loading scipy: dense blocks are assembled and solved with numpy alone.
    None loads numpy.ma, which a bare np.unique(x) imports."""
    cfg = write_config(tmp_path, "[model]\nheavy_cutoff = 5\ncutoff_sq = 2\n")
    run = str(tmp_path / "run1d")
    if command == "analyze1d":
        assert main(["solve1d", "--config", cfg, "--out", run]) == 0
    argv = {"solve1d": ["solve1d", "--config", cfg],
            "solve3d": ["solve3d", "--config", cfg],
            "analyze1d": ["analyze", "--config", cfg, "--from", run]}[command]
    out = str(tmp_path / "out")
    loaded = _modules_in_fresh_cli(*argv, "--out", out)
    assert loaded["scipy"] == []
    assert "numpy.ma" not in loaded["numpy"]
    man = read_manifest(out)
    assert man["status"] == "ok"
    if command != "analyze1d":
        assert man["statistics"]["method"] == "dense"


@pytest.mark.parametrize("command", ["solve1d", "solve3d"])
def test_iterative_solves_load_scipy(tmp_path, command):
    """method = iterative loads scipy's sparse eigensolver and solves."""
    cfg = write_config(tmp_path, f"[model]\n{SMALL_MODEL[command]}\n"
                                 f"[{command}]\nmethod = iterative\nk = 3\n")
    out = str(tmp_path / "out")
    loaded = _modules_in_fresh_cli(command, "--config", cfg, "--out", out)
    assert "scipy.sparse.linalg" in loaded["scipy"]
    man = read_manifest(out)
    assert man["status"] == "ok"
    assert man["statistics"]["method"] == "lanczos"


def test_failed_run_writes_its_manifest(tmp_path, capsys):
    """A numerical failure (exit 4) leaves a manifest that says why, and
    report prints it."""
    cfg = write_config(tmp_path, "[solve1d]\nmethod = iterative\ntol = 1e-14\n")
    out = str(tmp_path / "run")
    assert main(["solve1d", "--config", cfg, "--out", out]) == 4
    man = read_manifest(out)
    assert (man["status"], man["exit_code"]) == ("failed", 4)
    assert man["message"].startswith("numerical failure: no convergence")
    assert man["parameters"]["solve1d"]["tol"] == 1e-14
    capsys.readouterr()
    assert main(["report", "--from", out, "--out", str(tmp_path / "rep")]) == 0
    text = capsys.readouterr().out
    assert "status   : failed (exit 4)" in text
    assert f"message  : {man['message']}" in text


@pytest.mark.parametrize("coupling, why", [
    ("1e300", "residual ratio inf over the bound 1e-08"),
    ("1e160", "residual ratio 2.29 over the bound 1e-08")], ids=["1e300", "1e160"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_solve_refuses_residuals_over_the_bound(tmp_path, capsys, coupling, why):
    """A dense spectrum whose residuals overflow, or exceed 1e-8 relative,
    is refused: exit 4 and a failed manifest that says which block and why,
    with nothing else in --out, and numpy warns of no overflow."""
    cfg = write_config(tmp_path, f"[model]\nheavy_cutoff = 3\ncoupling = {coupling}\n")
    out = tmp_path / "run"
    assert main(["solve1d", "--config", cfg, "--out", str(out)]) == 4
    man = read_manifest(str(out))
    assert (man["status"], man["exit_code"]) == ("failed", 4)
    assert man["message"].startswith("numerical failure: block 'P=0 ")
    assert man["message"].endswith(why)
    assert capsys.readouterr().err == man["message"] + "\n"
    assert sorted(os.listdir(out)) == ["manifest.json"]


def test_linalg_failure_exits_4_with_its_manifest(tmp_path, capsys, monkeypatch):
    """numpy's LinAlgError, a ValueError, is a numerical failure: exit 4 and
    a failed manifest, not exit 2.  The dense solve raises it through its
    numpy.linalg.eigh fallback here."""
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(eigensolve, "_dsyevd", lambda: None)
    monkeypatch.setattr(np.linalg, "eigh", fail)
    cfg = write_config(tmp_path, SMALL_1D)
    out = str(tmp_path / "run")
    assert main(["solve1d", "--config", cfg, "--out", out]) == 4
    assert capsys.readouterr().err == ("numerical failure: Eigenvalues did not "
                                       "converge\n")
    man = read_manifest(out)
    assert (man["status"], man["exit_code"]) == ("failed", 4)
    assert man["message"].startswith("numerical failure: ")


@pytest.mark.parametrize("command, config, key", [
    ("solve1d", "[model]\ngamma = nan", "gamma"),
    ("solve1d", "[model]\ngamma = inf", "gamma"),
    ("solve3d", "[model]\nbox_length = nan", "box_length"),
    ("solve3d", "[model]\nbox_length = inf", "box_length"),
    ("solve1d", "[model]\nbox_length = 1e-300", "box_length"),
    ("solve3d", "[model]\nbox_length = 1e-300", "box_length"),
    ("solve1d", "[model]\nheavy_cutoff = 3\nbox_length = 1e300", "box_length"),
    ("estimate", "[model]\nbox_length = 1e-150", "box_length"),
    ("orbit", "[model]\nbox_length = 1e-150", "box_length"),
    ("estimate", "[model]\nbox_length = 1e-107", "box_length"),
    ("solve1d", "[model]\ncoupling = nan", "coupling"),
    ("estimate", "[model]\ncoupling = inf", "coupling"),
    ("orbit", "[orbit]\ndt = -1", "dt"),
    ("orbit", "[orbit]\ndt = nan", "dt"),
    ("orbit", "[orbit]\ndt = inf", "dt"),
    ("orbit", "[orbit]\nstore_every = 0", "store_every"),
    ("orbit", "[orbit]\nstore_every = -2", "store_every"),
    ("orbit", "[orbit]\ninitial = nan, 0, 100, 0", "initial"),
    ("orbit", "[orbit]\nsingularity_tol = -1", "singularity_tol"),
    ("orbit", "[orbit]\nsingularity_tol = nan", "singularity_tol"),
    ("solve1d", "[model]\nheavy_cutoff = 4\n[solve1d]\nscar_levels = 0", "scar_levels"),
    ("solve1d", "[model]\nheavy_cutoff = 4\n[solve1d]\nscar_levels = -3", "scar_levels"),
    ("solve1d", "[model]\nheavy_cutoff = 4\n[solve1d]\ngap_threshold = nan",
     "gap_threshold"),
    ("estimate", "[estimate]\nn_levels = -2", "n_levels"),
    ("estimate", "[estimate]\nn_levels = 0", "n_levels"),
    ("analyze", "[analyze]\ntimes_max = nan", "times_max"),
    ("analyze", "[analyze]\nbroadening = -1", "broadening"),
    ("analyze", "[analyze]\nbroadening = inf", "broadening"),
    ("analyze", "[analyze]\nn_times = 0", "n_times"),
    ("analyze", "[analyze]\nn_times = -1", "n_times"),
    ("orbit", "[orbit]\nensemble = straddle\nspread = nan", "spread"),
    ("orbit", "[orbit]\nensemble = straddle\nspread = inf", "spread"),
    ("solve1d", "[model]\nheavy_cutoff = 6\n[solve1d]\nmethod = iterative\nseed = -1",
     "seed")])
def test_settings_that_ran_but_should_not_are_refused(request, tmp_path, capsys,
                                                      command, config, key):
    """A non-finite model constant, a box so small or so large that its
    kinetic or classical coefficients are not finite and nonzero (at
    1e-107, L^3 is subnormal and 2 pi^2 / L^3 inf), a negative or
    non-finite dt, a
    store_every below 1, a non-finite orbit start, a negative
    singularity_tol, fewer than one scar level, a nan band gap, a negative
    or non-finite autocorrelation setting, fewer than one autocorrelation
    time, a non-finite straddle spread and a negative seed exit 2 naming
    the key, and write nothing."""
    cfg = write_config(tmp_path, config + "\n")
    out = tmp_path / "run"
    argv = [command, "--config", cfg, "--out", str(out)]
    if command == "analyze":
        weights = tmp_path / "w.csv"
        weights.write_text("index,coefficient\n0,1\n")
        argv += ["--from", request.getfixturevalue("solve1d_run"),
                 "--weights", str(weights)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err
    assert not out.exists()


def test_solve3d_refuses_max_states_key(tmp_path, capsys):
    """The operator byte budget replaced the product-state count gate."""
    cfg = write_config(tmp_path, "[solve3d]\nmax_states = 100\n")
    assert main(["solve3d", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert "max_states" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve1d", "solve3d"])
def test_solve_refuses_dense_threshold_key(tmp_path, capsys, command):
    """The dense output budget is the only dense gate; the former per-block
    `dense_threshold` key is now an unknown key."""
    cfg = write_config(tmp_path, f"[{command}]\ndense_threshold = 100\n")
    code = main([command, "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 2
    assert "dense_threshold" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# analyze (1D)


def test_analyze_selectors(solve1d_run, tmp_path):
    out = str(tmp_path / "an")
    code = main(["analyze", "--from", solve1d_run,
                 "--select", "ground,band:1:top,energy:-1.298",
                 "--out", out])
    assert code == 0
    with open(os.path.join(out, "overlaps.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 729
    grids = sorted(n for n in os.listdir(out) if n.startswith("grid_state")
                   and n.endswith(".json"))
    assert grids == ["grid_state0000.json", "grid_state0024.json",
                     "grid_state0026.json"]
    with open(os.path.join(out, "grid_state0026.json")) as fh:
        top = json.load(fh)
    with open(os.path.join(out, "grid_state0024.json")) as fh:
        near = json.load(fh)
    assert top["concentration_ratio"] > near["concentration_ratio"]


def test_analyze_1d_matches_full_sector_solve(solve1d_run, tmp_path, params,
                                             sector729, spectrum729):
    """For isolated states, analyze on the block archive gives the grids and
    heavy overlaps of the full-sector dense solve's eigenvectors.  Isolated
    means 0.1 from both neighbours: rounding mixes the full solve's vectors
    by about 1e-16 |H| / gap (|H| is about 7.6e3 here), and exchange or
    inversion pairs 1e-9 apart differ by 2e-5, the block vectors being the
    exactly symmetric ones."""
    evals = spectrum729.eigenvalues
    gap = np.minimum(np.append(np.inf, np.diff(evals)), np.append(np.diff(evals), np.inf))
    isolated = np.nonzero(gap > 0.1)[0]
    assert len(isolated) > 30
    chosen = [int(isolated[j]) for j in (0, len(isolated) // 2, -1)]
    out = tmp_path / "an"
    assert main(["analyze", "--from", solve1d_run, "--out", str(out), "--select",
                 ",".join(f"index:{i}" for i in chosen)]) == 0
    with open(out / "overlaps.csv") as fh:
        overlaps = [float(r["heavy_overlap"]) for r in csv.DictReader(fh)]
    import triscar as ts

    for i in chosen:
        grid = ts.position_wavefunction_1d(spectrum729.eigenvectors[:, i], sector729,
                                           params, n_r=128, n_eta=128)
        want = grid.density()
        got = _read_grid(out / f"grid_state{i:04d}.csv")
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.abs(want).max())
        # squared light-momentum amplitudes, in units of 1/L; each sums up
        # to 27 coefficients that agree to about 1e-12
        amp = np.array([spectrum729.eigenvectors[sector729.p == p, i].sum()
                        for p in np.unique(sector729.p)])
        L = params.box_length
        assert overlaps[i] == pytest.approx(np.sum(amp ** 2) / L, rel=0.0, abs=1e-10 / L)


#: selectors analyze refuses, and what the refusal adds after naming them
BAD_SELECTORS = {"warp:9": "", "index:x": "", "index:": "", "band:q:top": "",
                 "energy:x": "", "energy:nan": ": the energy is not finite",
                 "energy:inf": ": the energy is not finite",
                 "energy:1e400": ": the energy is not finite"}


@pytest.mark.parametrize("selector", BAD_SELECTORS)
def test_analyze_bad_selector(solve1d_run, tmp_path, capsys, selector):
    """A selector of an unknown kind, with an index or a band that is not an
    integer or an energy that is not a finite number exits 2 naming it."""
    out = tmp_path / "an"
    code = main(["analyze", "--from", solve1d_run, "--select", f"ground,{selector}",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: bad selector {selector!r}{BAD_SELECTORS[selector]}\n")
    assert not out.exists()


def test_analyze_missing_run(tmp_path, capsys):
    code = main(["analyze", "--from", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "an")])
    assert code == 2


@pytest.fixture(scope="module")
def small3d_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("small3d")
    cfg = write_config(tmp, "[model]\ncutoff_sq = 1\n")
    run = str(tmp / "run")
    assert main(["solve3d", "--config", cfg, "--out", run]) == 0
    return run


@pytest.mark.parametrize("kind, flag, value", [
    ("1d", "--parity", "sym"), ("1d", "--index", "0"),
    ("3d", "--select", "ground"), ("3d", "--weights", "missing.csv")])
def test_analyze_refuses_flags_of_the_other_dimension(request, tmp_path, capsys,
                                                       kind, flag, value):
    """--parity/--index apply only to 3D runs and --select/--weights only to
    1D runs; given to the other kind, analyze exits 2 naming the flag and
    writes nothing, even when the flag's value is itself unusable."""
    run = request.getfixturevalue("solve1d_run" if kind == "1d" else "small3d_run")
    if flag == "--weights":
        value = str(tmp_path / value)
    out = tmp_path / "an"
    code = main(["analyze", "--from", run, flag, value, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert flag in err and f"the {kind.upper()} run" in err
    assert not out.exists()


@pytest.mark.parametrize("kind, setting, reason", [
    ("1d", "n_r = 0", "n_r: 0 (must be an integer, at least 1)"),
    ("1d", "n_eta = 0", "n_eta: 0 (must be an integer, at least 1)"),
    ("3d", "n_r = 0", "n_r: 0 (must be an integer, at least 1)"),
    ("3d", "n_eta = 0", "n_eta: 0 (must be an integer, at least 1)"),
    ("3d", "n_radial = 1", "n_radial: 1 (must be an integer, at least 2)"),
    ("1d", "n_r = 7", "n_r: 7 (must be even for a 1D run)"),
    ("1d", "strip_fraction = 0.9", "strip_fraction: 0.9 (must be in (0, 0.5])"),
    ("1d", "strip_fraction = nan", "strip_fraction: nan (must be in (0, 0.5])")],
    ids=["1d-n_r-0", "1d-n_eta-0", "3d-n_r-0", "3d-n_eta-0", "3d-n_radial-1",
         "1d-n_r-7", "1d-strip_fraction-0.9", "1d-strip_fraction-nan"])
def test_analyze_refuses_grid_sizes_it_cannot_fill(request, tmp_path, capsys,
                                                   kind, setting, reason):
    """A grid with no points, a radial axis without both ends, a 1D grid
    with no node at r = 0 or a strip wider than the cell exits 2 with one
    line that names its [analyze] key, not with a traceback."""
    run = request.getfixturevalue("solve1d_run" if kind == "1d" else "small3d_run")
    cfg = write_config(tmp_path, f"[analyze]\n{setting}\n")
    code = main(["analyze", "--config", cfg, "--from", run,
                 "--out", str(tmp_path / "an")])
    assert code == 2
    assert capsys.readouterr().err == f"error: bad value for [analyze] {reason}\n"


@pytest.mark.parametrize("kind, setting, weights", [
    ("1d", "n_r = 0", None), ("1d", "n_r = 7", None),
    ("1d", "strip_fraction = 0.9", None),
    pytest.param("1d", "", "index,coefficient\n999,1.0\n", id="1d-weights-index-999"),
    ("3d", "n_eta = 0", None)])
def test_refused_analyze_leaves_nothing_in_out(request, tmp_path, capsys, kind,
                                               setting, weights):
    """A check that refuses analyze after some artifacts are ready (the
    overlaps, a grid, the radial density) exits 2 with one error line and
    leaves no file under --out."""
    run = request.getfixturevalue("solve1d_run" if kind == "1d" else "small3d_run")
    cfg = write_config(tmp_path, f"[analyze]\n{setting}\n")
    out = tmp_path / "an"
    argv = ["analyze", "--config", cfg, "--from", run, "--out", str(out)]
    if weights is not None:
        (tmp_path / "w.csv").write_text(weights)
        argv += ["--weights", str(tmp_path / "w.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists() or not any(out.rglob("*"))


@pytest.mark.parametrize("command", ["solve1d", "solve3d", "analyze1d", "analyze3d",
                                     "orbit", "estimate"])
def test_runs_time_write_and_list_every_file(request, tmp_path, command):
    """Every command writes its artifacts in one step, timed as
    timings.write, and its manifest lists every other file in --out."""
    if command.startswith("analyze"):
        run = request.getfixturevalue("solve1d_run" if command == "analyze1d"
                                      else "small3d_run")
        argv = ["analyze", "--from", run]
    else:
        config = {"solve1d": "[model]\nheavy_cutoff = 4\n[solve1d]\ndump_matrix = true\n",
                  "solve3d": "[model]\ncutoff_sq = 2\n",
                  "orbit": "[orbit]\nensemble = straddle\nn_orbits = 2\nsteps = 400\n",
                  "estimate": "[estimate]\n"}[command]
        argv = [command, "--config", write_config(tmp_path, config)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    man = read_manifest(str(out))
    assert man["timings"]["write"] > 0.0
    assert man["artifacts"] == sorted(p.name for p in out.iterdir()
                                      if p.name != "manifest.json")


#: the CSV columns that hold text; every other cell is a number
TEXT_COLUMNS = {"sector", "parity", "kind", "detail", "label"}


def test_every_csv_artifact_reads_back_at_its_header_width(tmp_path):
    """Every CSV a manifest lists, from each command that writes one, reads
    back with csv.reader as rows as wide as the header, each cell a number
    except under the text columns."""
    def run(name, *argv, config=""):
        out = str(tmp_path / name)
        assert main([*argv, "--config", write_config(tmp_path, config, f"{name}.ini"),
                     "--out", out]) == 0
        return out

    weights = tmp_path / "w.csv"
    weights.write_text("index,coefficient\n0,0.8\n2,0.6\n")
    solve1d = run("solve1d", "solve1d",
                  config="[model]\nheavy_cutoff = 3\n[solve1d]\ndump_matrix = true\n")
    solve3d = run("solve3d", "solve3d", config="[model]\ncutoff_sq = 2\n")
    outs = [solve1d, solve3d,
            run("analyze1d", "analyze", "--from", solve1d, "--select", "ground",
                "--weights", str(weights)),
            run("analyze3d", "analyze", "--from", solve3d),
            run("events", "orbit", config="[orbit]\ninitial = 4000, 30, 100, 0\n"
                                          "steps = 400\n"),
            run("portrait", "orbit", config="[orbit]\nensemble = straddle\n"
                                            "n_orbits = 4\nsteps = 400\n")]
    seen = set()
    for out in outs:
        for name in read_manifest(out)["artifacts"]:
            if not name.endswith(".csv"):
                continue
            seen.add(name)
            with open(os.path.join(out, name), newline="") as fh:
                header, *rows = csv.reader(fh)
            assert rows, name
            for row in rows:
                assert len(row) == len(header), (name, row)
                for column, cell in zip(header, row):
                    if column not in TEXT_COLUMNS:
                        float(cell)
    assert {"spectrum.csv", "hamiltonian_nonzeros.csv", "overlaps.csv",
            "autocorr.csv", "spectral_density.csv", "grid_state0000.csv",
            "trajectory.csv", "events.csv", "portrait.csv"} <= seen
    assert any(name.startswith("radial_") for name in seen)
    assert any(name.startswith("projection_") for name in seen)


@pytest.mark.parametrize("command", ["orbit", "estimate"])
def test_refused_orbit_and_estimate_leave_nothing_in_out(tmp_path, capsys, command):
    """orbit with an odd straddle count and estimate --from a directory
    without an archive exit 2 with one error line and no --out."""
    if command == "orbit":
        cfg = write_config(tmp_path, "[orbit]\nensemble = straddle\nn_orbits = 3\n")
        argv = ["orbit", "--config", cfg]
    else:
        (tmp_path / "empty").mkdir()
        argv = ["estimate", "--from", str(tmp_path / "empty")]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("line", ["3", "zero,0.5"])
def test_analyze_refuses_a_malformed_weights_line(solve1d_run, tmp_path, capsys, line):
    """A weights line without two fields, or with an index that is not an
    integer, exits 2 naming the file and the line, and writes nothing."""
    path = tmp_path / "w.csv"
    path.write_text(f"index,coefficient\n0,0.8\n{line}\n")
    out = tmp_path / "an"
    assert main(["analyze", "--from", solve1d_run, "--weights", str(path),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path} line 3: expected index,coefficient, got {line!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("line", ["1,nan", "1,inf"])
def test_analyze_refuses_a_non_finite_weight(solve1d_run, tmp_path, capsys, line):
    """A coefficient that is not finite would make every autocorrelation
    value nan; it exits 2 naming the file and the line, and writes nothing."""
    path = tmp_path / "w.csv"
    path.write_text(f"index,coefficient\n0,0.8\n{line}\n")
    out = tmp_path / "an"
    assert main(["analyze", "--from", solve1d_run, "--weights", str(path),
                 "--out", str(out)]) == 2
    value = line.split(",")[1]
    assert capsys.readouterr().err == (
        f"error: {path} line 3: coefficient {value} is not finite\n")
    assert not out.exists()


def test_analyze_autocorrelation(solve1d_run, tmp_path):
    weights = tmp_path / "w.csv"
    weights.write_text("index,coefficient\n0,0.8\n26,0.6\n")
    out = str(tmp_path / "an")
    code = main(["analyze", "--from", solve1d_run, "--select", "ground",
                 "--weights", str(weights), "--out", out])
    assert code == 0
    with open(os.path.join(out, "autocorr.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert abs(float(rows[0]["abs"]) - 1.0) < 1e-10
    with open(os.path.join(out, "spectral_density.csv")) as fh:
        srows = list(csv.DictReader(fh))
    assert len(srows) > 100


# ---------------------------------------------------------------------------
# orbit


def test_orbit_default_start(tmp_path):
    out = str(tmp_path / "orb")
    assert main(["orbit", "--out", out]) == 0
    with open(os.path.join(out, "trajectory.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) > 100
    man = read_manifest(out)
    assert man["statistics"]["energy_drift"] < 1e-6


def test_orbit_straddle_ensemble(tmp_path):
    cfg = write_config(tmp_path,
                       "[orbit]\nensemble = straddle\nn_orbits = 4\n"
                       "steps = 400\nspread = 0.1\n")
    out = str(tmp_path / "orb")
    assert main(["orbit", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "portrait.csv")) as fh:
        rows = list(csv.DictReader(fh))
    orbits = {r["orbit"] for r in rows}
    assert len(orbits) == 4


def test_orbit_manifest_records_timings(tmp_path):
    cfg = write_config(tmp_path, "[orbit]\nensemble = straddle\nn_orbits = 2\n"
                                 "steps = 400\n")
    out = str(tmp_path / "orb")
    assert main(["orbit", "--config", cfg, "--out", out]) == 0
    man = read_manifest(out)
    assert set(man["timings"]) == {"integrate", "write"}
    assert all(t > 0.0 for t in man["timings"].values())
    assert_rises_fit_the_peak(man)


@pytest.mark.parametrize("n_orbits", [1, 7])
def test_orbit_straddle_refuses_an_odd_count(tmp_path, capsys, n_orbits):
    """A straddle ensemble runs orbits in +/- pairs, so an odd n_orbits, or
    one below 2, exits 2 instead of running another count."""
    cfg = write_config(tmp_path, f"[orbit]\nensemble = straddle\nn_orbits = {n_orbits}\n")
    out = tmp_path / "orb"
    assert main(["orbit", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: [orbit] n_orbits must be even and at least 2 for a straddle "
        f"ensemble, got {n_orbits}\n")
    assert not (out / "trajectory.csv").exists()


def test_orbit_bad_dimension(tmp_path, capsys):
    cfg = write_config(tmp_path, "[orbit]\ndimension = 2\n")
    code = main(["orbit", "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 2
    assert "dimension" in capsys.readouterr().err


def test_orbit_3d_needs_dt(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "[orbit]\ndimension = 3\n"
        "initial = 2000, 0, 0, 0, 0, 0, 0, 1000, 0, 0, 0, 0\n")
    code = main(["orbit", "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 2
    assert "dt" in capsys.readouterr().err


@pytest.mark.parametrize("config, need", [
    ("[orbit]\nsteps = 10000000000000\n",
     "[orbit] steps = 10000000000000 for 1 trajectory needs 1144409182 MB"),
    ("[orbit]\ndimension = 3\ndt = 0.5\nensemble = straddle\nsteps = 2000000\n",
     "[orbit] steps = 2000000 for 8 trajectories needs 3039 MB")],
    ids=["1d-huge-steps", "3d-straddle"])
def test_orbit_too_large_to_store_is_refused(tmp_path, capsys, monkeypatch, config,
                                             need):
    """An orbit run whose orbit_bytes exceed ORBIT_BUDGET_BYTES exits 3
    before any orbit runs, with a refused manifest that names [orbit] steps,
    and nothing else in --out; it used to die storing the states."""
    def never(*args, **kwargs):
        raise AssertionError("an orbit ran before the budget was checked")

    monkeypatch.setattr(classical, "integrate_orbit", never)
    out = tmp_path / "orb"
    assert main(["orbit", "--config", write_config(tmp_path, config),
                 "--out", str(out)]) == 3
    message = f"resource limit: {need} to store, over the orbit budget of 1024 MB"
    assert capsys.readouterr().err == message + "\n"
    man = read_manifest(str(out))
    assert (man["status"], man["exit_code"], man["message"]) == ("refused", 3, message)
    assert sorted(os.listdir(out)) == ["manifest.json"]


@pytest.mark.parametrize("config, dimension, steps, n_orbits", [
    ("[orbit]\nsteps = 4000\n", 1, 4000, 1),
    ("[orbit]\nensemble = straddle\nn_orbits = 4\nsteps = 1000\n", 1, 1000, 4),
    ("[orbit]\ndimension = 3\ndt = 0.5\nensemble = straddle\nn_orbits = 4\n"
     "steps = 600\n", 3, 600, 4)], ids=["1d", "1d-straddle", "3d-straddle"])
def test_orbit_charge_covers_the_traced_peak(tmp_path, monkeypatch, config, dimension,
                                             steps, n_orbits):
    """What the orbit gate charges covers the tracemalloc peak of the whole
    run, its artifacts written, give or take 256 KiB for the command's own
    objects (configuration, critical points, manifest).  A short energy
    chunk leaves the per-step charges as the ones that count."""
    import tracemalloc

    monkeypatch.setattr(classical, "ENERGY_CHUNK", 1024)
    cfg = write_config(tmp_path, config)
    tracemalloc.start()
    try:
        assert main(["orbit", "--config", cfg, "--out", str(tmp_path / "orb")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    charge = classical.orbit_bytes(dimension, steps, n_orbits)
    assert peak <= charge + 2 ** 18


# ---------------------------------------------------------------------------
# estimate and report


def test_estimate_payload(tmp_path):
    out = str(tmp_path / "est")
    assert main(["estimate", "--out", out]) == 0
    with open(os.path.join(out, "scar_estimates.json")) as fh:
        d = json.load(fh)
    kinds = sorted(pt["kind"] for pt in d["critical_points"])
    assert kinds == ["minimum", "minimum", "saddle"]
    sad = d["saddle"]
    assert sad["omega_scaled"] == pytest.approx(11.601, abs=1e-3)
    assert sad["levels"][0]["gap_scaled"] == pytest.approx(5.8005, abs=1e-3)
    assert sad["intensity_sigma_convention"] > 0.0
    assert sad["intensity_rate_convention"] > 0.0
    man = read_manifest(out)
    assert set(man["timings"]) == {"critical", "write"}
    assert all(t > 0.0 for t in man["timings"].values())
    assert_rises_fit_the_peak(man)


def _refuse_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_estimate_in_a_tiny_box_writes_valid_json(tmp_path):
    """At box_length 1e-100 the gradient norms at the critical points are
    near 1e185, past where numpy's norm overflows squaring them: estimate
    warns of nothing and writes them finite, as JSON proper holds them."""
    cfg = write_config(tmp_path, "[model]\nbox_length = 1e-100\n")
    out = tmp_path / "est"
    assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "scar_estimates.json").read_text()
    points = json.loads(text, parse_constant=_refuse_constant)["critical_points"]
    assert len(points) == 3
    assert all(0 < pt["grad_norm"] < np.inf for pt in points)


@pytest.mark.parametrize("run", ["missing", "solved"])
def test_estimate_from_without_a_saddle_is_refused(tmp_path, capsys, run):
    """With no saddle to compare (coupling 0), estimate --from exits 2 and
    writes nothing, and a missing run is refused before any estimate."""
    cfg = write_config(tmp_path, "[model]\nheavy_cutoff = 4\ncoupling = 0\n")
    run_dir = tmp_path / "run"
    if run == "solved":
        assert main(["solve1d", "--config", cfg, "--out", str(run_dir)]) == 0
        assert not (run_dir / "scar_comparison.json").exists()
    out = tmp_path / "est"
    capsys.readouterr()
    assert main(["estimate", "--config", cfg, "--from", str(run_dir),
                 "--out", str(out)]) == 2
    want = ("no saddle found to compare with the spectrum in" if run == "solved"
            else "no eigenvectors.npz under")
    assert capsys.readouterr().err == f"error: {want} {run_dir}\n"
    assert not out.exists()


def test_estimate_with_comparison(solve1d_run, tmp_path):
    out = str(tmp_path / "est")
    assert main(["estimate", "--from", solve1d_run, "--out", out]) == 0
    with open(os.path.join(out, "scar_estimates.json")) as fh:
        d = json.load(fh)
    comp = d["comparison"]
    first = comp["entries"][0]
    assert first["predicted_gap"] == pytest.approx(5.8005, abs=1e-3)
    assert first["measured_gap"] == pytest.approx(5.0132, abs=1e-3)
    man = read_manifest(out)
    assert set(man["timings"]) == {"critical", "comparison", "write"}
    assert all(t > 0.0 for t in man["timings"].values())
    assert_rises_fit_the_peak(man)


def test_run_parameters_round_trip_through_npz(tmp_path):
    """estimate and analyze rebuild a run's model from its eigenvector
    archive, non-default scaling and light cutoff mode included."""
    cfg = write_config(tmp_path, "[model]\nheavy_cutoff = 4\nscaling = raw\n"
                                 "light_cutoff_mode = product-filter\n")
    run = str(tmp_path / "run")
    assert main(["solve1d", "--config", cfg, "--out", run]) == 0
    est = str(tmp_path / "est")
    assert main(["estimate", "--from", run, "--out", est]) == 0
    with open(os.path.join(est, "scar_estimates.json")) as fh:
        assert json.load(fh)["comparison"]["scaling"] == "raw"
    an = str(tmp_path / "an")
    assert main(["analyze", "--from", run, "--select", "ground",
                 "--out", an]) == 0
    dim = read_manifest(run)["statistics"]["dimension"]
    assert read_manifest(an)["statistics"]["dimension"] == dim


def test_report_prints_pairing(solve1d_run, tmp_path, capsys):
    assert main(["report", "--from", solve1d_run,
                 "--out", str(tmp_path / "rep")]) == 0
    text = capsys.readouterr().out
    assert "5.8005" in text
    assert "5.0132" in text
    assert os.path.exists(os.path.join(str(tmp_path / "rep"), "report.txt"))


def test_report_reads_no_config(solve1d_run, tmp_path, capsys):
    """report takes no --config, and [report] is not a configuration
    section."""
    with pytest.raises(SystemExit) as exc:
        main(["report", "--config", "run.ini", "--from", solve1d_run,
              "--out", str(tmp_path / "rep")])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err
    with pytest.raises(ConfigError, match=r"unknown section \[report\]"):
        load_config(write_config(tmp_path, "[report]\n"))


def test_report_missing_manifest(tmp_path, capsys):
    code = main(["report", "--from", str(tmp_path / "void"),
                 "--out", str(tmp_path / "rep")])
    assert code == 2
