"""Command line interface.

Subcommands: solve1d, solve3d, analyze, orbit, estimate, report.  Every run
writes its outputs plus a manifest.json into --out.  Numeric CSV cells use
17 significant digits, so identical configurations reproduce byte-identical
files.  Exit codes: 0 success, 2 configuration or input error, 3 resource
limit, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .basis import ResourceLimitError, basis_size_3d
from .classical import (find_critical_points, hessian_analysis,
                        integrate_orbit, pair_distances_3d, suggest_timestep)
from .config import DEFAULTS, ConfigError, load_config, model_params, section
from .eigensolve import IterationError, assemble_bands, band_id_per_state
from .manifest import RunManifest, read_manifest
from .params import ModelParams, Scaling
from .pipeline import (embedded, load_archive, params_dict, read_archive,
                       solve_sector, write_archive)
from .scars import compare_with_spectrum, predicted_gap, scar_intensity, \
    stable_frequency
from .wavefunction import (autocorrelation, concentration_ratio, heavy_overlap,
                           integrated_probability_3d, pair_projection_3d,
                           position_wavefunction_1d)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_NUMERICAL = 4


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _quote(field: str) -> str:
    if "," in field or '"' in field or "\n" in field:
        return '"' + field.replace('"', '""') + '"'
    return field


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_quote(f) for f in row) + "\n")


def _write_grid(path: str, axis, values) -> None:
    """A numeric grid as CSV: the axis as header, then one line per row of
    `values`, each cell as _fmt writes it."""
    values = np.asarray(values, dtype=np.float64)
    line = ",".join(["%.17g"] * values.shape[1]) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_fmt(v) for v in axis) + "\n")
        for row in values:
            fh.write(line % tuple(row.tolist()))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _save(man: RunManifest, out: str, name: str, write, *args, **kwargs) -> None:
    """Write the artifact out/name by write(path, *args, **kwargs) and list
    it in the manifest."""
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, name)
    write(path, *args, **kwargs)
    man.add_artifact(path)


def _start(args, command: str, model: bool = True):
    """Read --config: the model (unless model is False) and the [command]
    section over its defaults, both recorded in the run's new manifest.  main
    writes that manifest with the exit status when the run is refused or
    fails.  Returns (params, section, --out, manifest); params is None
    without the model."""
    cfg = load_config(args.config)
    params = model_params(cfg) if model else None
    s = section(cfg, command)
    parameters = {**(params_dict(params) if model else {}), command: dict(s)}
    args.manifest = RunManifest(command, parameters=parameters)
    return params, s, args.out, args.manifest


def _write_exit(args, status: str, code: int, message: str) -> int:
    """Record a refused or failed run in its --out manifest; returns code."""
    man = getattr(args, "manifest", None) or RunManifest(args.command)
    man.status, man.exit_code, man.message = status, code, message
    man.write(args.out)
    return code


def _saddle_analysis(params: ModelParams):
    """Locate the collision saddle and return its mode analysis in the
    reporting convention of params (None when no saddle is found)."""
    result = find_critical_points(params)
    saddle = next((p for p in result.points if p.kind == "saddle"), None)
    if saddle is None:
        return None
    ana = hessian_analysis(saddle, params)
    if params.scaling is Scaling.TIMES_L:
        ana = ana.scaled(params.box_length)
    return ana


def _solve(args, params: ModelParams, s: dict, man: RunManifest):
    """solve_sector on the [solve1d] or [solve3d] section s, timed in man."""
    run = solve_sector(params, s["total_momentum"], method=s["method"], k=s["k"],
                       tol=s["tol"], seed=s["seed"],
                       allow_large=getattr(args, "allow_large", False))
    man.timings.update(run.timings)
    return run


# ---------------------------------------------------------------------------
# solve1d


def cmd_solve1d(args) -> int:
    params, s, out, man = _start(args, "solve1d")
    run = _solve(args, params, s, man)
    sector = run.sector
    solved = run.groups[""]
    spectrum = solved[0]
    bands = assemble_bands(spectrum.eigenvalues, s["gap_threshold"])
    bids = band_id_per_state(spectrum.k, bands)
    saddle = _saddle_analysis(params)
    comp = None
    if saddle is not None:
        comp = compare_with_spectrum(saddle, spectrum.eigenvalues, bands,
                                     n_levels=s["scar_levels"])

    t0 = time.perf_counter()
    _save(man, out, "spectrum.csv", _write_csv,
          ["index", "eigenvalue", "residual", "band"],
          ([str(i), _fmt(spectrum.eigenvalues[i]), _fmt(spectrum.residuals[i]),
            str(int(bids[i]))] for i in range(spectrum.k)))
    _save(man, out, "bands.json", _write_json, {
        "gap_threshold": s["gap_threshold"],
        "bands": [{"band": b.band_id, "start": b.start, "stop": b.stop,
                   "size": b.size, "head": b.head, "top": b.top}
                  for b in bands],
    })
    if comp is not None:
        _save(man, out, "scar_comparison.json", _write_json,
              {**comp.as_dict(), "scaling": params.scaling.value})
    _save(man, out, "eigenvectors.npz", write_archive, sector, params, solved,
          band_ids=bids)
    if s["dump_matrix"]:
        rows, cols, values = run.operator.triplets
        _save(man, out, "hamiltonian_nonzeros.csv", _write_csv,
              ["row", "col", "value"],
              ([str(rows[n]), str(cols[n]), _fmt(values[n])]
               for n in np.lexsort((cols, rows))))
    man.add_timing("write", time.perf_counter() - t0)

    man.statistics = {
        "dimension": sector.dim,
        "method": spectrum.method,
        "ground_energy": float(spectrum.eigenvalues[0]),
        "n_bands": len(bands),
        "max_residual_ratio": spectrum.max_residual_ratio(),
        "block_dimensions": spectrum.meta["block_dimensions"],
    }
    man.write(out)
    print(f"sector {sector.key}: {sector.dim} states, method {spectrum.method}")
    print(f"ground energy {_fmt(spectrum.eigenvalues[0])} ({params.scaling.value})")
    print(f"bands: {len(bands)}  ->  {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve3d


def cmd_solve3d(args) -> int:
    params, s, out, man = _start(args, "solve3d")
    run = _solve(args, params, s, man)
    sector, blocks, spectra = run.sector, run.blocks, run.groups
    dim, nnz, need = run.counts

    t0 = time.perf_counter()
    rows = []
    for tag, (spec, _, _) in spectra.items():
        for i in range(spec.k):
            rows.append([sector.key, tag, str(i), _fmt(spec.eigenvalues[i]),
                         _fmt(spec.residuals[i])])
    _save(man, out, "spectrum.csv", _write_csv,
          ["sector", "parity", "index", "eigenvalue", "residual"], rows)

    n_vec, n_states = basis_size_3d(params.cutoff_sq)
    dims = {tag: spectra[tag][0].meta["dim"] if tag in spectra else 0
            for tag in ("sym", "anti")}
    sizes = {"sector_dimension": sector.dim, "symmetric_dimension": dims["sym"],
             "antisymmetric_dimension": dims["anti"],
             "nonzeros_per_row": nnz / max(dim, 1)}
    _save(man, out, "sectors.json", _write_json, {
        "total_momentum": list(sector.total_momentum),
        "cutoff_sq": params.cutoff_sq,
        "vectors": n_vec,
        "full_basis_states": n_states,
        **sizes,
    })
    for tag, solved in spectra.items():
        _save(man, out, f"eigenvectors_{tag}.npz", write_archive, sector, params,
              solved, parity=np.array([1 if tag == "sym" else -1]))
    man.add_timing("write", time.perf_counter() - t0)

    method = next(iter(spectra.values()))[0].method if spectra else None
    grounds = {tag: float(spec.eigenvalues[0]) for tag, (spec, _, _) in spectra.items()}
    e_sym, e_anti = grounds.get("sym"), grounds.get("anti")
    ordered = None
    if e_sym is not None and e_anti is not None:
        ordered = bool(e_sym < e_anti)
    man.statistics = {
        **sizes,
        "operator_mb": need / 2 ** 20,
        "block_dimensions": {block.label: block.dim for block in blocks},
        "eigh_calls": len(blocks) if method == "dense" else 0,
        "method": method,
        "ground_energy_symmetric": e_sym,
        "ground_energy_antisymmetric": e_anti,
        "symmetric_ground_below_antisymmetric": ordered,
    }
    man.write(out)
    print(f"sector {sector.key}: dim {sector.dim} = {dims['sym']} sym + "
          f"{dims['anti']} anti in {len(blocks)} blocks")
    if e_sym is not None:
        print(f"ground energy (sym)  {_fmt(e_sym)}")
    if e_anti is not None:
        print(f"ground energy (anti) {_fmt(e_anti)}")
    if ordered is not None and not ordered:
        print("note: antisymmetric ground state lies below the symmetric one")
    print(f"->  {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze


def _parse_selector(text: str, eigenvalues: np.ndarray,
                    band_ids: np.ndarray) -> list[int]:
    chosen: list[int] = []

    def add(i: int):
        if i not in chosen:
            chosen.append(i)

    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        tokens = part.split(":")
        if tokens[0] == "ground" and len(tokens) == 1:
            add(int(np.argmin(eigenvalues)))
        elif tokens[0] == "index" and len(tokens) == 2:
            i = int(tokens[1])
            if not 0 <= i < len(eigenvalues):
                raise ConfigError(f"selector index {i} out of range "
                                  f"0..{len(eigenvalues) - 1}")
            add(i)
        elif tokens[0] == "energy" and len(tokens) == 2:
            add(int(np.argmin(np.abs(eigenvalues - float(tokens[1])))))
        elif tokens[0] == "band" and len(tokens) == 3:
            bid = int(tokens[1])
            members = np.nonzero(band_ids == bid)[0]
            if len(members) == 0:
                raise ConfigError(f"selector band {bid} not present")
            if tokens[2] == "top":
                add(int(members[-1]))
            elif tokens[2] == "head":
                add(int(members[0]))
            elif tokens[2] == "all":
                for i in members:
                    add(int(i))
            else:
                raise ConfigError(f"bad band selector {part!r} "
                                  f"(use head, top or all)")
        else:
            raise ConfigError(f"bad selector {part!r}")
    if not chosen:
        raise ConfigError(f"selector {text!r} selected nothing")
    return chosen


def _analyze_1d(args, s, save, man) -> None:
    t0 = time.perf_counter()
    data, params, sector, blocks = load_archive(
        os.path.join(args.from_dir, "eigenvectors.npz"))
    man.add_timing("load", time.perf_counter() - t0)
    evals = data["eigenvalues"]
    bids = data["band_ids"]
    L = params.box_length

    select = args.select or s["select"]
    chosen = _parse_selector(select, evals, bids)

    # heavy overlap for every state: group coefficient mass by light
    # momentum, block by block, so no full set of plain vectors is formed
    t0 = time.perf_counter()
    p_vals, light = np.unique(sector.p, return_inverse=True)
    overlaps = np.empty(len(evals))
    for label, block in blocks.items():
        members = np.nonzero(data["block"] == label)[0]
        columns = data["offset"][members] + np.arange(block.dim)[:, None]
        # the entries of S summed by light momentum, column by column
        by_light = np.bincount(light[block.rows] * block.dim + block.cols,
                               weights=block.values, minlength=len(p_vals) * block.dim)
        amp = by_light.reshape(len(p_vals), block.dim) @ data["eigenvectors"][columns]
        overlaps[members] = np.sum(amp ** 2, axis=0) / L
    man.add_timing("overlaps", time.perf_counter() - t0)

    save("overlaps.csv", _write_csv,
         ["index", "eigenvalue", "band", "heavy_overlap"],
         ([str(i), _fmt(evals[i]), str(int(bids[i])), _fmt(overlaps[i])]
          for i in range(len(evals))))

    strip = s["strip_fraction"] * L
    grids_s = 0.0
    for i in chosen:
        t0 = time.perf_counter()
        grid = position_wavefunction_1d(embedded(data, blocks, i), sector, params,
                                        n_r=s["n_r"], n_eta=s["n_eta"])
        grids_s += time.perf_counter() - t0
        save(f"grid_state{i:04d}.csv", _write_grid, grid.eta_axis, grid.density())
        save(f"grid_state{i:04d}.json", _write_json, {
            "index": int(i),
            "eigenvalue": float(evals[i]),
            "band": int(bids[i]),
            "heavy_overlap": float(heavy_overlap(grid)),
            "concentration_ratio": float(concentration_ratio(grid, strip)),
            "strip_half_width": strip,
            "norm": grid.norm(),
            "r_axis": [float(v) for v in grid.r_axis],
            "eta_axis": [float(v) for v in grid.eta_axis],
        })
    man.add_timing("grids", grids_s)

    if args.weights:
        coeffs = _read_weights(args.weights, len(evals))
        broad = s["broadening"]
        omega = None
        if broad <= 0 or s["times_max"] <= 0:
            saddle = _saddle_analysis(params)
            if saddle is None:
                raise ConfigError("no saddle found to derive broadening; set "
                                  "[analyze] broadening and times_max")
            omega = stable_frequency(saddle)
        if broad <= 0:
            broad = omega / 2.0
        t_max = s["times_max"]
        if t_max <= 0:
            t_max = 3.0 * 2.0 * np.pi / omega
        times = np.linspace(0.0, t_max, s["n_times"])
        t0 = time.perf_counter()
        series = autocorrelation(coeffs, evals, times, broad)
        man.add_timing("autocorrelation", time.perf_counter() - t0)
        save("autocorr.csv", _write_csv, ["t", "re", "im", "abs"],
             ([_fmt(t), _fmt(v.real), _fmt(v.imag), _fmt(abs(v))]
              for t, v in zip(series.times, series.values)))
        save("spectral_density.csv", _write_csv, ["energy", "density"],
             ([_fmt(e), _fmt(d)] for e, d in
              zip(series.energy_grid, series.spectral_density)))
        man.statistics["spectral_mass"] = series.spectral_mass()
        man.statistics["broadening"] = broad

    man.statistics.update({
        "selected": [int(i) for i in chosen],
        "strip_half_width": strip,
        "dimension": sector.dim,
    })


def _read_weights(path: str, n: int) -> np.ndarray:
    if not os.path.exists(path):
        raise ConfigError(f"weights file not found: {path}")
    coeffs = np.zeros(n)
    with open(path) as fh:
        header = fh.readline()
        if header.strip() and not header.lower().startswith("index"):
            fh.seek(0)
        for line in fh:
            line = line.strip()
            if not line:
                continue
            idx_s, val_s = line.split(",")[:2]
            i = int(idx_s)
            if not 0 <= i < n:
                raise ConfigError(f"weights index {i} out of range 0..{n - 1}")
            coeffs[i] = float(val_s)
    return coeffs


def _analyze_3d(args, s, save, man) -> None:
    tag = args.parity or "sym"
    if tag not in ("sym", "anti"):
        raise ConfigError(f"--parity must be sym or anti, got {tag!r}")
    path = os.path.join(args.from_dir, f"eigenvectors_{tag}.npz")
    if not os.path.exists(path):
        raise ConfigError(f"no {os.path.basename(path)} under {args.from_dir}")
    t0 = time.perf_counter()
    data, params, sector, blocks = load_archive(path)
    man.add_timing("load", time.perf_counter() - t0)
    evals = data["eigenvalues"]
    idx = args.index if args.index is not None else 0
    if not 0 <= idx < len(evals):
        raise ConfigError(f"--index {idx} out of range 0..{len(evals) - 1}")
    coeffs = embedded(data, blocks, idx)

    t0 = time.perf_counter()
    radial = integrated_probability_3d(
        coeffs, sector, params, n_r=s["n_radial"], n_eta=s["n_radial"],
        orbits=blocks[str(data["block"][idx])].orbits)
    man.add_timing("radial", time.perf_counter() - t0)
    save(f"radial_{tag}_state{idx:04d}.csv", _write_grid, radial.eta_axis,
         radial.values)
    save(f"radial_{tag}_state{idx:04d}.json", _write_json, {
        "parity": tag, "index": int(idx), "eigenvalue": float(evals[idx]),
        "r_axis": [float(v) for v in radial.r_axis],
        "eta_axis": [float(v) for v in radial.eta_axis],
        "mass": radial.mass(),
        "mass_small_r": radial.mass_small_r(0.1 * params.box_length),
    })

    projection_s = 0.0
    for comp_r, comp_eta, label in ((0, 0, "like"), (0, 1, "unlike")):
        t0 = time.perf_counter()
        grid = pair_projection_3d(coeffs, sector, params, comp_r, comp_eta,
                                  n_r=s["n_r"], n_eta=s["n_eta"])
        projection_s += time.perf_counter() - t0
        save(f"projection_{label}_{tag}_state{idx:04d}.csv", _write_grid,
             grid.eta_axis, grid.density())
    man.add_timing("projections", projection_s)
    man.statistics.update({"parity": tag, "index": int(idx),
                           "eigenvalue": float(evals[idx])})


def cmd_analyze(args) -> int:
    _, s, out, man = _start(args, "analyze", model=False)
    if not args.from_dir:
        raise ConfigError("analyze requires --from RUN_DIR")
    if os.path.exists(os.path.join(args.from_dir, "eigenvectors.npz")):
        kind, analyze, foreign = "1D", _analyze_1d, ("parity", "index")
    elif (os.path.exists(os.path.join(args.from_dir, "eigenvectors_sym.npz"))
          or os.path.exists(os.path.join(args.from_dir, "eigenvectors_anti.npz"))):
        kind, analyze, foreign = "3D", _analyze_3d, ("select", "weights")
    else:
        raise ConfigError(f"no eigenvector archives under {args.from_dir}")
    given = [f"--{flag}" for flag in foreign if getattr(args, flag) is not None]
    if given:
        raise ConfigError(f"{' and '.join(given)} cannot be used with the {kind} "
                          f"run in {args.from_dir}")
    man.parameters["from"] = args.from_dir
    # written once the analysis has passed every check, so a refused run
    # leaves nothing in --out
    pending = []
    analyze(args, s, lambda *item: pending.append(item), man)
    t0 = time.perf_counter()
    for name, write, *rest in pending:
        _save(man, out, name, write, *rest)
    man.add_timing("write", time.perf_counter() - t0)
    man.write(out)
    print(f"analyze ->  {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# orbit


def cmd_orbit(args) -> int:
    params, s, out, man = _start(args, "orbit")
    L = params.box_length
    dim = s["dimension"]
    if dim not in (1, 3):
        raise ConfigError(f"[orbit] dimension must be 1 or 3, got {dim}")
    initial = s["initial"]
    if initial is None:
        initial = [L / 3.0, 0.0, 0.02 * L, 0.0] if dim == 1 else \
            [0.2 * L, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.1 * L, 0.0, 0.0, 0.0, 0.0]
    if len(initial) != (4 if dim == 1 else 12):
        raise ConfigError(f"[orbit] initial needs {4 if dim == 1 else 12} "
                          f"numbers for dimension {dim}, got {len(initial)}")
    dt = s["dt"]
    if dt <= 0:
        if dim != 1:
            raise ConfigError("[orbit] dt must be set explicitly for 3D runs")
        dt = suggest_timestep(params)
    sing = s["singularity_tol"] if s["singularity_tol"] > 0 else None
    man.parameters["orbit"]["initial"] = list(initial)
    man.parameters["dt_used"] = dt

    t0 = time.perf_counter()
    orbits = []
    if s["ensemble"] == "none":
        orbits.append((0, np.array(initial, dtype=np.float64)))
    elif s["ensemble"] == "straddle":
        if s["n_orbits"] < 2 or s["n_orbits"] % 2:
            raise ConfigError(f"[orbit] n_orbits must be even and at least 2 "
                              f"for a straddle ensemble, got {s['n_orbits']}")
        base = np.array(initial, dtype=np.float64)
        if dim == 3 and base[0] == 0:
            raise ConfigError("[orbit] straddle ensemble needs a nonzero "
                              "first component in initial")
        for k in range(s["n_orbits"] // 2):
            scale = 1.0 + s["spread"] * k
            for sign in (1.0, -1.0):
                st = base.copy()
                st[0] = sign * abs(base[0]) * scale
                orbits.append((len(orbits), st))
    else:
        raise ConfigError(f"bad value for [orbit] ensemble: {s['ensemble']!r}")

    trajectories = []
    for oid, init in orbits:
        traj = integrate_orbit(init, dt, s["steps"], params, dimension=dim,
                               wrap=s["wrap"], singularity_tol=sing)
        trajectories.append((oid, traj))
    man.add_timing("integrate", time.perf_counter() - t0)

    every = max(1, s["store_every"])
    oid, main_traj = trajectories[0]
    if dim == 1:
        header = ["step", "t", "r", "p_r", "eta", "p_eta", "energy"]

        def rows(traj):
            for i in range(0, len(traj.times), every):
                st = traj.states[i]
                yield [str(i), _fmt(traj.times[i]), _fmt(st[0]), _fmt(st[1]),
                       _fmt(st[2]), _fmt(st[3]), _fmt(traj.energies[i])]
    else:
        header = (["step", "t"] + [f"r{c}" for c in "xyz"]
                  + [f"p_r{c}" for c in "xyz"] + [f"eta{c}" for c in "xyz"]
                  + [f"p_eta{c}" for c in "xyz"] + ["energy", "min_distance"])

        def rows(traj):
            for i in range(0, len(traj.times), every):
                st = traj.states[i]
                dmin = min(pair_distances_3d(st[0:3], st[6:9]))
                yield ([str(i), _fmt(traj.times[i])] + [_fmt(v) for v in st]
                       + [_fmt(traj.energies[i]), _fmt(dmin)])

    _save(man, out, "trajectory.csv", _write_csv, header, rows(main_traj))

    all_events = []
    for oid2, traj in trajectories:
        for ev in traj.events:
            all_events.append([str(oid2), str(ev.step), _fmt(ev.time), ev.kind,
                               ev.detail.replace(",", ";")])
    if all_events:
        _save(man, out, "events.csv", _write_csv,
              ["orbit", "step", "t", "kind", "detail"], all_events)

    if len(trajectories) > 1 or s["ensemble"] != "none":
        prows = []
        for oid2, traj in trajectories:
            side = "+" if traj.states[-1][0] >= 0 else "-"
            outcome = "stopped" if traj.stopped else "ran"
            label = f"{side}{outcome}"
            ir = 0
            ieta = 2 if dim == 1 else 7
            for i in range(0, len(traj.times), every):
                prows.append([str(oid2), label, _fmt(traj.times[i]),
                              _fmt(traj.states[i][ir]), _fmt(traj.states[i][ieta])])
        _save(man, out, "portrait.csv", _write_csv,
              ["orbit", "label", "t", "r1", "eta2"], prows)

    drift = main_traj.energy_drift()
    man.statistics = {
        "orbits": len(trajectories),
        "steps_requested": s["steps"],
        "steps_done": main_traj.n_steps,
        "dt": dt,
        "energy_drift": drift,
        "wrap_events": sum(1 for _, t in trajectories for e in t.events
                           if e.kind == "wrap"),
        "stopped": main_traj.stopped,
        "stop_reason": main_traj.stop_reason,
    }
    man.write(out)
    print(f"orbit: {len(trajectories)} trajector"
          f"{'y' if len(trajectories) == 1 else 'ies'}, dt {_fmt(dt)}, "
          f"relative energy drift {drift:.3e}")
    if main_traj.stopped:
        print(f"stopped: {main_traj.stop_reason}")
    print(f"->  {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate


def cmd_estimate(args) -> int:
    params, s, out, man = _start(args, "estimate")
    if s["convention"] not in ("sigma", "rate", "both"):
        raise ConfigError(f"bad value for [estimate] convention: "
                          f"{s['convention']!r}")
    L = params.box_length
    t0 = time.perf_counter()
    result = find_critical_points(params)
    points = []
    saddle_raw = None
    for pt in result.points:
        ana = hessian_analysis(pt, params)
        points.append({
            "r": pt.r, "eta": pt.eta, "r_over_L": pt.r / L,
            "eta_over_L": pt.eta / L, "kind": pt.kind,
            "value_raw": ana.value, "value_scaled": ana.value * L,
            "sigmas_raw": list(ana.sigmas), "masses_raw": list(ana.masses),
            "grad_norm": pt.grad_norm,
        })
        if pt.kind == "saddle" and saddle_raw is None:
            saddle_raw = ana
    man.add_timing("critical", time.perf_counter() - t0)
    payload = {
        "parameters": params_dict(params),
        "critical_points": points,
        "failed_seeds": [list(t) for t in result.failed_seeds],
    }
    if saddle_raw is not None:
        scaled = saddle_raw.scaled(L)
        omega_raw = stable_frequency(saddle_raw)
        omega_scaled = stable_frequency(scaled)
        levels = []
        for n in range(s["n_levels"]):
            levels.append({"n": n,
                           "gap_raw": predicted_gap(n, saddle_raw),
                           "gap_scaled": predicted_gap(n, scaled)})
        saddle_info = {
            "omega_raw": omega_raw,
            "omega_scaled": omega_scaled,
            "stable_period_raw": 2.0 * np.pi / omega_raw,
            "lambda_sigma_raw": saddle_raw.lambda_sigma,
            "lambda_sigma_scaled": scaled.lambda_sigma,
            "lambda_rate_raw": saddle_raw.lambda_rate,
            "lambda_rate_scaled": scaled.lambda_rate,
            "levels": levels,
        }
        if s["convention"] in ("sigma", "both"):
            saddle_info["intensity_sigma_convention"] = \
                scar_intensity(saddle_raw, "sigma")
        if s["convention"] in ("rate", "both"):
            saddle_info["intensity_rate_convention"] = \
                scar_intensity(saddle_raw, "rate")
        payload["saddle"] = saddle_info

        if args.from_dir:
            spath = os.path.join(args.from_dir, "eigenvectors.npz")
            if not os.path.exists(spath):
                raise ConfigError(f"no eigenvectors.npz under {args.from_dir}")
            t0 = time.perf_counter()
            data, run_params = read_archive(spath, ["eigenvalues"])
            ana = saddle_raw
            if run_params.scaling is Scaling.TIMES_L:
                ana = saddle_raw.scaled(run_params.box_length)
            bands = assemble_bands(data["eigenvalues"],
                                   _band_gap_threshold(args.from_dir))
            comp = compare_with_spectrum(ana, data["eigenvalues"], bands,
                                         n_levels=s["n_levels"])
            payload["comparison"] = comp.as_dict()
            payload["comparison"]["scaling"] = run_params.scaling.value
            man.add_timing("comparison", time.perf_counter() - t0)

    _save(man, out, "scar_estimates.json", _write_json, payload)
    man.statistics = {
        "n_critical_points": len(points),
        "kinds": sorted(p["kind"] for p in points),
    }
    if saddle_raw is not None:
        man.statistics["delta_s_scaled"] = predicted_gap(0, saddle_raw.scaled(L))
    man.write(out)
    for p in points:
        print(f"{p['kind']:>10s} at r/L = {p['r_over_L']:+.6f}, "
              f"eta/L = {p['eta_over_L']:+.6f}, U*L = {p['value_scaled']:.6f}")
    if saddle_raw is not None:
        print(f"stable frequency (scaled) {_fmt(stable_frequency(saddle_raw.scaled(L)))}; "
              f"lowest predicted gap {_fmt(man.statistics['delta_s_scaled'])}")
    print(f"->  {out}")
    return EXIT_OK


def _band_gap_threshold(run_dir: str) -> float:
    path = os.path.join(run_dir, "bands.json")
    if os.path.exists(path):
        with open(path) as fh:
            return float(json.load(fh)["gap_threshold"])
    return DEFAULTS["solve1d"]["gap_threshold"]


# ---------------------------------------------------------------------------
# report


def cmd_report(args) -> int:
    if not args.from_dir:
        raise ConfigError("report requires --from RUN_DIR")
    man = read_manifest(args.from_dir)
    lines = [
        f"run      : {man.get('command')} (version {man.get('version')})",
        f"directory: {args.from_dir}",
        f"status   : {man.get('status', 'ok')} (exit {man.get('exit_code', EXIT_OK)})",
    ]
    if man.get("message"):
        lines.append(f"message  : {man['message']}")
    lines += [
        "",
        "statistics:",
    ]
    for key in sorted(man.get("statistics", {})):
        lines.append(f"  {key} = {man['statistics'][key]}")
    lines.append("")
    lines.append("artifacts:")
    for name in man.get("artifacts", []):
        lines.append(f"  {name}")
    comp_path = os.path.join(args.from_dir, "scar_comparison.json")
    if os.path.exists(comp_path):
        with open(comp_path) as fh:
            comp = json.load(fh)
        lines.append("")
        lines.append("scar comparison (gaps above the ground state):")
        lines.append("  band  level  predicted      measured")
        for e in comp.get("entries", []):
            measured = "-" if e["measured_gap"] is None else f"{e['measured_gap']:.4f}"
            lines.append(f"  {e['band']:>4d}  {e['level']:>5d}  "
                         f"{e['predicted_gap']:>9.4f}  {measured:>12s}")
    lines.append("")
    lines.append(f"timings: {man.get('timings', {})}")
    lines.append(f"peak RSS: {man.get('peak_rss_mb')} MB")
    text = "\n".join(lines) + "\n"
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "report.txt"), "w") as fh:
        fh.write(text)
    print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triscar",
        description="Collision states and scars in periodic charged "
                    "three-body systems")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_out):
        p.add_argument("--config", default=None, help="INI configuration file")
        p.add_argument("--out", default=default_out, help="output directory")

    p = sub.add_parser("solve1d", help="diagonalize a 1D momentum sector")
    common(p, "triscar-runs/solve1d")
    p.set_defaults(func=cmd_solve1d)

    p = sub.add_parser("solve3d", help="diagonalize a 3D momentum sector by "
                                       "point-group blocks")
    common(p, "triscar-runs/solve3d")
    p.add_argument("--allow-large", action="store_true",
                   help="override the operator memory budget")
    p.set_defaults(func=cmd_solve3d)

    p = sub.add_parser("analyze", help="wavefunctions and collision "
                                       "diagnostics from a solve run")
    common(p, "triscar-runs/analyze")
    p.add_argument("--from", dest="from_dir", required=True,
                   help="directory of a previous solve run")
    p.add_argument("--select", default=None,
                   help="state selector, e.g. ground | index:3 | band:1:top")
    p.add_argument("--weights", default=None,
                   help="CSV of (index, coefficient) defining an initial "
                        "vector for autocorrelation")
    p.add_argument("--parity", default=None, help="3D runs: sym or anti")
    p.add_argument("--index", type=int, default=None,
                   help="3D runs: state index inside the parity block")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("orbit", help="integrate classical center-of-mass "
                                     "orbits")
    common(p, "triscar-runs/orbit")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("estimate", help="critical points and scar estimates")
    common(p, "triscar-runs/estimate")
    p.add_argument("--from", dest="from_dir", default=None,
                   help="solve1d run directory for a measured-gap comparison")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("report", help="summarize a run directory")
    common(p, "triscar-runs/report")
    p.add_argument("--from", dest="from_dir", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return _write_exit(args, "refused", EXIT_RESOURCE, f"resource limit: {exc}")
    except (IterationError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _write_exit(args, "failed", EXIT_NUMERICAL, f"numerical failure: {exc}")
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
