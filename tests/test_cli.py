"""Command line interface: runs, artifacts, determinism, exit codes."""

import csv
import json
import os

import numpy as np
import pytest

from triscar.basis import Sector1D
from triscar import eigensolve
from triscar.cli import main
from triscar.config import ConfigError, load_config, model_params
from triscar.manifest import read_manifest


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SMALL_1D = "[model]\nheavy_cutoff = 4\n"


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


# ---------------------------------------------------------------------------
# solve1d


@pytest.fixture(scope="module")
def solve1d_run(tmp_path_factory):
    """One full-parameter solve shared by the dependent-command tests."""
    out = str(tmp_path_factory.mktemp("solve1d"))
    code = main(["solve1d", "--out", out])
    assert code == 0
    return out


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


def test_solve1d_npz_reconstructs(solve1d_run):
    with np.load(os.path.join(solve1d_run, "eigenvectors.npz")) as npz:
        assert npz["eigenvalues"].shape == (729,)
        assert npz["eigenvectors"].shape == (729, 729)
        params = json.loads(str(npz["params"]))
        assert params["gamma"] == 2.7e-4
        assert npz["n1"].shape == (729,)


def test_solve1d_isolated_vectors_keep_exact_symmetry(solve1d_run):
    """Block vectors are orbit sums, so every isolated eigenvector is exchange
    and inversion (anti)symmetric bit for bit, whatever its sign."""
    with np.load(os.path.join(solve1d_run, "eigenvectors.npz")) as npz:
        evals, vecs = npz["eigenvalues"], npz["eigenvectors"]
        sector = Sector1D(0, npz["n1"], npz["n2"], npz["p"])
    xmap = sector.exchange_map()
    imap, _ = sector.locate(-sector.n1, -sector.n2)
    # canonicalize's default degeneracy tolerance
    tol = 1e-11 * np.maximum(1.0, np.abs(evals))
    apart = np.diff(evals) > np.maximum(tol[1:], tol[:-1])
    isolated = np.nonzero(np.append(True, apart) & np.append(apart, True))[0]
    assert len(isolated) > 100
    for c in isolated:
        v = vecs[:, c]
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
    # the 121 x 121 output does not fit the budget, so auto falls back to
    # the iterative solver
    monkeypatch.setattr(eigensolve, "DENSE_OUTPUT_BYTES", 8 * 121 ** 2 - 1)
    cfg = write_config(tmp_path, "[model]\nheavy_cutoff = 5\n")
    out = str(tmp_path / "run")
    assert main(["solve1d", "--config", cfg, "--out", out]) == 0
    stats = read_manifest(out)["statistics"]
    assert stats["method"] == "lanczos"
    assert stats["block_dimensions"] is None
    # an explicit dense solve over the budget is refused as a resource limit
    cfg = write_config(tmp_path, "[model]\nheavy_cutoff = 5\n"
                                 "[solve1d]\nmethod = dense\n", name="dense.ini")
    assert main(["solve1d", "--config", cfg, "--out", str(tmp_path / "d")]) == 3


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
    out = str(tmp_path / "big")
    code = main(["solve3d", "--out", out])
    assert code == 3
    err = capsys.readouterr().err
    assert "3176523" in err.replace(",", "")
    assert "--allow-large" in err


def test_solve3d_small(tmp_path):
    cfg = write_config(tmp_path, "[model]\ncutoff_sq = 2\n")
    out = str(tmp_path / "run3d")
    assert main(["solve3d", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "sectors.json")) as fh:
        sectors = json.load(fh)
    assert sectors["symmetric_dimension"] == 88
    assert sectors["antisymmetric_dimension"] == 87
    assert sectors["sector_dimension"] == 175
    with open(os.path.join(out, "spectrum.csv")) as fh:
        rows = list(csv.DictReader(fh))
    parities = {r["parity"] for r in rows}
    assert parities == {"sym", "anti"}
    man = read_manifest(out)
    assert man["statistics"]["symmetric_ground_below_antisymmetric"] is False


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
    assert set(man["timings"]) == {"radial", "projections"}
    assert all(t > 0.0 for t in man["timings"].values())
    assert man["peak_rss_mb"] > 0.0
    capsys.readouterr()
    assert main(["report", "--from", out, "--out", str(tmp_path / "rep")]) == 0
    assert f"peak RSS: {man['peak_rss_mb']} MB" in capsys.readouterr().out


def test_analyze_refuses_components_key(tmp_path, capsys):
    """3D projections are fixed to the (0, 0) and (0, 1) pairs; the former
    `components` key had no reader and is now an unknown key."""
    cfg = write_config(tmp_path, "[analyze]\ncomponents = 0 1\n")
    code = main(["analyze", "--config", cfg, "--from", str(tmp_path),
                 "--out", str(tmp_path / "an")])
    assert code == 2
    assert "components" in capsys.readouterr().err


#: both halves of the cutoff_sq 2 sector (88 + 87) as dense eigenvector arrays
BUDGET_3D_C2 = 8 * (88 ** 2 + 87 ** 2)


def test_solve3d_auto_routes_by_output_size(tmp_path, monkeypatch):
    """auto solves both halves densely exactly when their vectors fit the
    dense output budget together, and records the route in the manifest."""
    cfg = write_config(tmp_path, "[model]\ncutoff_sq = 2\n")
    monkeypatch.setattr(eigensolve, "DENSE_OUTPUT_BYTES", BUDGET_3D_C2)
    out = str(tmp_path / "fits")
    assert main(["solve3d", "--config", cfg, "--out", out]) == 0
    assert read_manifest(out)["statistics"]["method"] == "dense"

    monkeypatch.setattr(eigensolve, "DENSE_OUTPUT_BYTES", BUDGET_3D_C2 - 1)
    out = str(tmp_path / "over")
    assert main(["solve3d", "--config", cfg, "--out", out]) == 0
    assert read_manifest(out)["statistics"]["method"] == "lanczos"
    with open(os.path.join(out, "spectrum.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["parity"] for r in rows] == ["sym"] * 8 + ["anti"] * 8


def test_solve3d_explicit_dense_over_budget_is_refused(tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.setattr(eigensolve, "DENSE_OUTPUT_BYTES", BUDGET_3D_C2 - 1)
    cfg = write_config(tmp_path, "[model]\ncutoff_sq = 2\n"
                                 "[solve3d]\nmethod = dense\n")
    out = tmp_path / "run"
    assert main(["solve3d", "--config", cfg, "--out", str(out)]) == 3
    assert "88 x 88 + 87 x 87 eigenvectors" in capsys.readouterr().err
    assert not list(out.glob("eigenvectors_*.npz"))


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


def test_analyze_bad_selector(solve1d_run, tmp_path, capsys):
    out = str(tmp_path / "an")
    code = main(["analyze", "--from", solve1d_run, "--select", "warp:9",
                 "--out", out])
    assert code == 2
    assert "warp" in capsys.readouterr().err


def test_analyze_missing_run(tmp_path, capsys):
    code = main(["analyze", "--from", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "an")])
    assert code == 2


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


def test_estimate_with_comparison(solve1d_run, tmp_path):
    out = str(tmp_path / "est")
    assert main(["estimate", "--from", solve1d_run, "--out", out]) == 0
    with open(os.path.join(out, "scar_estimates.json")) as fh:
        d = json.load(fh)
    comp = d["comparison"]
    first = comp["entries"][0]
    assert first["predicted_gap"] == pytest.approx(5.8005, abs=1e-3)
    assert first["measured_gap"] == pytest.approx(5.0132, abs=1e-3)


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


def test_report_missing_manifest(tmp_path, capsys):
    code = main(["report", "--from", str(tmp_path / "void"),
                 "--out", str(tmp_path / "rep")])
    assert code == 2
