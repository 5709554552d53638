"""Command line interface.

Subcommands: solve1d, solve3d, analyze, orbit, estimate, report.  Every run
but report writes its outputs plus a manifest.json into --out, and only once
every check has passed; report writes report.txt alone.  CSV number cells
use 17 significant digits, and text cells are quoted only when they hold a
comma, a quote or a newline (RFC 4180), so identical configurations
reproduce byte-identical files.  Exit codes: 0 success, 2 configuration or
input error, 3 resource limit, 4 numerical failure.

This module loads neither numpy nor a solver module: each command imports
what it runs once its configuration is read.  So --help, --version, report
and a configuration refused while it is read load no numpy, and solve3d
never loads the classical, scars or wavefunction modules.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .config import (DEFAULTS, ConfigError, IterationError, ResourceLimitError,
                     load_config, model_params, params_dict, section)
from .manifest import RunManifest, Steps, read_manifest, write_json
from .params import ModelParams

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


#: rows _write_table stacks and writes at a time
_TABLE_ROWS = 512


def _write_table(path: str, header: list[str], *columns) -> None:
    """A table as CSV: the header, then one line per row of the columns side
    by side.  A column whose first cell is a str is text, each cell as
    _quote writes it; any other column (1D, or 2D of several columns) is
    numbers, each cell as "%.17g": the bytes _fmt writes, and str(int) for
    an integer below 2**53 in magnitude.  The columns are stacked
    _TABLE_ROWS rows at a time, so a text column boxes only those rows'
    numbers."""
    import numpy as np

    parts = [np.array([_quote(c) for c in column], dtype=object)
             if isinstance(column[0], str) else np.asarray(column, dtype=np.float64)
             for column in columns]
    line = ",".join("%s" if part.dtype == object else "%.17g" for part in parts
                    for _ in range(part.shape[1] if part.ndim == 2 else 1)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(parts[0]), _TABLE_ROWS):
            rows = np.column_stack([part[start:start + _TABLE_ROWS] for part in parts])
            for row in rows:
                fh.write(line % tuple(row.tolist()))


def _start(args, command: str, model: bool = True):
    """Read --config: the model (unless model is False) and the [command]
    section, each key in its domain, both recorded in a new manifest.  The
    run queues its artifacts with _save and ends with _finish; main writes
    the manifest alone when the run is refused or fails.  Returns (params,
    section, manifest); params is None without the model."""
    cfg = load_config(args.config)
    params = model_params(cfg) if model else None
    s = section(cfg, command)
    parameters = {**(params_dict(params) if model else {}), command: dict(s)}
    args.manifest = RunManifest(command, parameters=parameters)
    args.queue = []
    return params, s, args.manifest


def _save(args, name: str, write, *rest, **kwargs) -> None:
    """Queue the artifact --out/name, written by write(path, *rest, **kwargs)
    in _finish, so a run refused by a later check leaves nothing in --out."""
    args.queue.append((name, write, rest, kwargs))


def _finish(args) -> str:
    """Create --out, write the queued artifacts into it, timed as the step
    write, and then the manifest that lists them; returns --out."""
    man, out, steps = args.manifest, args.out, Steps()
    os.makedirs(out, exist_ok=True)
    for name, write, rest, kwargs in args.queue:
        path = os.path.join(out, name)
        write(path, *rest, **kwargs)
        man.add_artifact(path)
    steps.end("write")
    man.steps.add(steps)
    man.write(out)
    return out


def _write_exit(args, status: str, code: int, message: str) -> int:
    """Record a refused or failed run in its --out manifest; returns code."""
    man = getattr(args, "manifest", None) or RunManifest(args.command)
    man.status, man.exit_code, man.message = status, code, message
    man.write(args.out)
    return code


def _solve(args, params: ModelParams, s: dict, man: RunManifest):
    """solve_sector on the [solve1d] or [solve3d] section s, timed in man."""
    from .pipeline import solve_sector

    run = solve_sector(params, s["total_momentum"], method=s["method"], k=s["k"],
                       tol=s["tol"], seed=s["seed"],
                       allow_large=getattr(args, "allow_large", False))
    man.steps.add(run.steps)
    return run


# ---------------------------------------------------------------------------
# solve1d


def cmd_solve1d(args) -> int:
    params, s, man = _start(args, "solve1d")

    import numpy as np

    from .classical import find_saddle
    from .eigensolve import band_id_per_state, write_archive
    from .scars import compare_bands

    run = _solve(args, params, s, man)
    sector = run.sector
    solved = run.groups[""]
    spectrum = solved[0]
    bands, comp = compare_bands(find_saddle(params), params, spectrum.eigenvalues,
                                s["gap_threshold"], s["scar_levels"])
    bids = band_id_per_state(spectrum.k, bands)

    _save(args, "spectrum.csv", _write_table,
          ["index", "eigenvalue", "residual", "band"],
          np.arange(spectrum.k), spectrum.eigenvalues, spectrum.residuals, bids)
    _save(args, "bands.json", write_json, {
        "gap_threshold": s["gap_threshold"],
        "bands": [{"band": b.band_id, "start": b.start, "stop": b.stop,
                   "size": b.size, "head": b.head, "top": b.top}
                  for b in bands],
    })
    if comp is not None:
        _save(args, "scar_comparison.json", write_json, comp.as_dict())
    _save(args, "eigenvectors.npz", write_archive, sector, params, solved,
          band_ids=bids)
    if s["dump_matrix"]:
        rows, cols, values = run.operator.triplets
        order = np.lexsort((cols, rows))
        _save(args, "hamiltonian_nonzeros.csv", _write_table,
              ["row", "col", "value"], rows[order], cols[order], values[order])

    man.statistics = {
        "dimension": sector.dim,
        "method": spectrum.method,
        "ground_energy": float(spectrum.eigenvalues[0]),
        "n_bands": len(bands),
        "max_residual_ratio": spectrum.max_residual_ratio(),
        "block_dimensions": spectrum.meta["block_dimensions"],
        "dense_lapack": spectrum.meta["lapack"],
    }
    out = _finish(args)
    print(f"sector {sector.key}: {sector.dim} states, method {spectrum.method}")
    print(f"ground energy {_fmt(spectrum.eigenvalues[0])} ({params.scaling.value})")
    print(f"bands: {len(bands)}  ->  {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve3d


def cmd_solve3d(args) -> int:
    params, s, man = _start(args, "solve3d")

    import numpy as np

    from .basis import basis_size_3d
    from .eigensolve import write_archive

    run = _solve(args, params, s, man)
    sector, blocks, spectra = run.sector, run.blocks, run.groups
    dim, nnz, need = run.counts

    rows = [(sector.key, tag, i, spec.eigenvalues[i], spec.residuals[i])
            for tag, (spec, _, _) in spectra.items() for i in range(spec.k)]
    _save(args, "spectrum.csv", _write_table,
          ["sector", "parity", "index", "eigenvalue", "residual"], *zip(*rows))

    n_vec, n_states = basis_size_3d(params.cutoff_sq)
    dims = {tag: spectra[tag][0].meta["dim"] if tag in spectra else 0
            for tag in ("sym", "anti")}
    sizes = {"sector_dimension": sector.dim, "symmetric_dimension": dims["sym"],
             "antisymmetric_dimension": dims["anti"],
             "nonzeros_per_row": nnz / max(dim, 1)}
    _save(args, "sectors.json", write_json, {
        "total_momentum": list(sector.total_momentum),
        "cutoff_sq": params.cutoff_sq,
        "vectors": n_vec,
        "full_basis_states": n_states,
        **sizes,
    })
    for tag, solved in spectra.items():
        _save(args, f"eigenvectors_{tag}.npz", write_archive, sector, params,
              solved, parity=np.array([1 if tag == "sym" else -1]))

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
        "dense_lapack": next((spec.meta["lapack"] for spec, _, _ in spectra.values()), None),
        "max_residual_ratio": max((spec.max_residual_ratio()
                                   for spec, _, _ in spectra.values()), default=0.0),
        "ground_energy_symmetric": e_sym,
        "ground_energy_antisymmetric": e_anti,
        "symmetric_ground_below_antisymmetric": ordered,
    }
    out = _finish(args)
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
    """The states a --select text names; a part with an index, band or
    energy that is not a number, or an energy that is not finite, is refused."""
    import numpy as np

    chosen: list[int] = []

    def add(i: int):
        if i not in chosen:
            chosen.append(i)

    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        tokens = part.split(":")
        try:
            if tokens[0] == "ground" and len(tokens) == 1:
                add(int(np.argmin(eigenvalues)))
            elif tokens[0] == "index" and len(tokens) == 2:
                i = int(tokens[1])
                if not 0 <= i < len(eigenvalues):
                    raise ConfigError(f"selector index {i} out of range "
                                      f"0..{len(eigenvalues) - 1}")
                add(i)
            elif tokens[0] == "energy" and len(tokens) == 2:
                energy = float(tokens[1])
                if not np.isfinite(energy):
                    raise ConfigError(f"bad selector {part!r}: the energy is not finite")
                add(int(np.argmin(np.abs(eigenvalues - energy))))
            elif tokens[0] == "band" and len(tokens) == 3:
                bid = int(tokens[1])
                members = np.nonzero(band_ids == bid)[0]
                if len(members) == 0:
                    raise ConfigError(f"selector band {bid} not present")
                picks = {"head": members[:1], "top": members[-1:], "all": members}
                if tokens[2] not in picks:
                    raise ConfigError(f"bad band selector {part!r} (use head, top or all)")
                for i in picks[tokens[2]]:
                    add(int(i))
            else:
                raise ConfigError(f"bad selector {part!r}")
        except ValueError:
            raise ConfigError(f"bad selector {part!r}") from None
    if not chosen:
        raise ConfigError(f"selector {text!r} selected nothing")
    return chosen


def _analyze_1d(args, s, man, archive) -> None:
    import numpy as np

    from .wavefunction import analyze_1d

    data, _, sector, _ = archive
    evals, bids = data["eigenvalues"], data["band_ids"]
    chosen = _parse_selector(args.select or s["select"], evals, bids)
    coeffs = _read_weights(args.weights, len(evals)) if args.weights else None
    run = analyze_1d(archive, chosen, coeffs, **{key: s[key] for key in (
        "n_r", "n_eta", "strip_fraction", "times_max", "n_times", "broadening")})
    man.steps.add(run.steps)

    _save(args, "overlaps.csv", _write_table,
          ["index", "eigenvalue", "band", "heavy_overlap"],
          np.arange(len(evals)), evals, bids, run.overlaps)
    for i, grid in run.grids.items():
        _save(args, f"grid_state{i:04d}.csv", _write_table,
              [_fmt(v) for v in grid.eta_axis], grid.density())
        _save(args, f"grid_state{i:04d}.json", write_json, {
            "index": int(i),
            "eigenvalue": float(evals[i]),
            "band": int(bids[i]),
            "heavy_overlap": float(grid.meta["heavy_overlap"]),
            "concentration_ratio": float(grid.meta["concentration_ratio"]),
            "strip_half_width": run.strip_half_width,
            "norm": grid.norm(),
            "r_axis": [float(v) for v in grid.r_axis],
            "eta_axis": [float(v) for v in grid.eta_axis],
        })
    series = run.series
    if series is not None:
        # abs per element: np.abs rounds some moduli differently
        _save(args, "autocorr.csv", _write_table, ["t", "re", "im", "abs"],
              series.times, series.values.real, series.values.imag,
              [abs(v) for v in series.values])
        _save(args, "spectral_density.csv", _write_table, ["energy", "density"],
              series.energy_grid, series.spectral_density)
        man.statistics["spectral_mass"] = series.spectral_mass()
        man.statistics["broadening"] = series.broadening

    man.statistics.update({
        "selected": [int(i) for i in chosen],
        "strip_half_width": run.strip_half_width,
        "dimension": sector.dim,
    })


def _read_weights(path: str, n: int) -> np.ndarray:
    """Coefficients from (index, coefficient) lines, after an optional
    header line that starts with "index"."""
    import numpy as np

    if not os.path.exists(path):
        raise ConfigError(f"weights file not found: {path}")
    coeffs = np.zeros(n)
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or (lineno == 1 and line.lower().startswith("index")):
                continue
            fields = line.split(",")
            try:
                i, value = int(fields[0]), float(fields[1])
            except (IndexError, ValueError):
                raise ConfigError(f"{path} line {lineno}: expected index,coefficient, "
                                  f"got {line!r}") from None
            if not np.isfinite(value):
                raise ConfigError(f"{path} line {lineno}: coefficient {value} is not finite")
            if not 0 <= i < n:
                raise ConfigError(f"weights index {i} out of range 0..{n - 1}")
            coeffs[i] = value
    return coeffs


def _analyze_3d(args, s, man, archive) -> None:
    from .wavefunction import analyze_3d

    data, params = archive[:2]
    tag = args.parity or "sym"
    evals = data["eigenvalues"]
    idx = args.index if args.index is not None else 0
    if not 0 <= idx < len(evals):
        raise ConfigError(f"--index {idx} out of range 0..{len(evals) - 1}")
    run = analyze_3d(archive, idx, n_radial=s["n_radial"], n_r=s["n_r"],
                     n_eta=s["n_eta"])
    man.steps.add(run.steps)

    radial = run.radial
    _save(args, f"radial_{tag}_state{idx:04d}.csv", _write_table,
          [_fmt(v) for v in radial.eta_axis], radial.values)
    _save(args, f"radial_{tag}_state{idx:04d}.json", write_json, {
        "parity": tag, "index": int(idx), "eigenvalue": float(evals[idx]),
        "r_axis": [float(v) for v in radial.r_axis],
        "eta_axis": [float(v) for v in radial.eta_axis],
        "mass": radial.mass(),
        "mass_small_r": radial.mass_small_r(0.1 * params.box_length),
    })
    for label, grid in run.projections.items():
        _save(args, f"projection_{label}_{tag}_state{idx:04d}.csv", _write_table,
              [_fmt(v) for v in grid.eta_axis], grid.density())
    man.statistics.update({"parity": tag, "index": int(idx),
                           "eigenvalue": float(evals[idx])})


def cmd_analyze(args) -> int:
    _, s, man = _start(args, "analyze", model=False)
    if not args.from_dir:
        raise ConfigError("analyze requires --from RUN_DIR")
    tag = args.parity or "sym"
    if os.path.exists(os.path.join(args.from_dir, "eigenvectors.npz")):
        kind, analyze, foreign = "1D", _analyze_1d, ("parity", "index")
        name = "eigenvectors.npz"
    elif (os.path.exists(os.path.join(args.from_dir, "eigenvectors_sym.npz"))
          or os.path.exists(os.path.join(args.from_dir, "eigenvectors_anti.npz"))):
        kind, analyze, foreign = "3D", _analyze_3d, ("select", "weights")
        name = f"eigenvectors_{tag}.npz"
    else:
        raise ConfigError(f"no eigenvector archives under {args.from_dir}")
    given = [f"--{flag}" for flag in foreign if getattr(args, flag) is not None]
    if given:
        raise ConfigError(f"{' and '.join(given)} cannot be used with the {kind} "
                          f"run in {args.from_dir}")
    if tag not in ("sym", "anti"):
        raise ConfigError(f"--parity must be sym or anti, got {tag!r}")
    path = os.path.join(args.from_dir, name)
    if not os.path.exists(path):
        raise ConfigError(f"no {name} under {args.from_dir}")
    man.parameters["from"] = args.from_dir

    from .pipeline import load_archive

    steps = Steps()
    archive = load_archive(path)
    steps.end("load")
    man.steps.add(steps)
    analyze(args, s, man, archive)
    print(f"analyze ->  {_finish(args)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# orbit


def cmd_orbit(args) -> int:
    params, s, man = _start(args, "orbit")

    import numpy as np

    from .classical import pair_distances_3d, run_orbits

    dim = s["dimension"]
    run = run_orbits(params, **{key: value for key, value in s.items()
                                if key != "store_every"})
    man.steps.add(run.steps)
    man.parameters["orbit"]["initial"] = run.initial
    man.parameters["dt_used"] = dt = run.dt
    trajectories = run.trajectories

    main_traj = trajectories[0]
    stored = slice(None, None, s["store_every"])
    columns = [np.arange(len(main_traj.times))[stored], main_traj.times[stored],
               main_traj.states[stored], main_traj.energies[stored]]
    if dim == 1:
        header = ["step", "t", "r", "p_r", "eta", "p_eta", "energy"]
    else:
        header = (["step", "t"] + [f"r{c}" for c in "xyz"]
                  + [f"p_r{c}" for c in "xyz"] + [f"eta{c}" for c in "xyz"]
                  + [f"p_eta{c}" for c in "xyz"] + ["energy", "min_distance"])
        columns.append([min(pair_distances_3d(st[0:3], st[6:9]))
                        for st in main_traj.states[stored]])
    _save(args, "trajectory.csv", _write_table, header, *columns)

    events = [(oid, ev.step, ev.time, ev.kind, ev.detail)
              for oid, traj in enumerate(trajectories) for ev in traj.events]
    if events:
        _save(args, "events.csv", _write_table,
              ["orbit", "step", "t", "kind", "detail"], *zip(*events))

    if len(trajectories) > 1:
        ieta = 2 if dim == 1 else 7
        labels = [("+" if traj.states[-1][0] >= 0 else "-")
                  + ("stopped" if traj.stopped else "ran") for traj in trajectories]
        lengths = [len(traj.times[stored]) for traj in trajectories]
        _save(args, "portrait.csv", _write_table, ["orbit", "label", "t", "r1", "eta2"],
              np.repeat(np.arange(len(trajectories)), lengths),
              np.repeat(np.array(labels, dtype=object), lengths),
              np.concatenate([traj.times[stored] for traj in trajectories]),
              *(np.concatenate([traj.states[stored, i] for traj in trajectories])
                for i in (0, ieta)))

    drift = main_traj.energy_drift()
    man.statistics = {
        "orbits": len(trajectories),
        "steps_requested": s["steps"],
        "steps_done": main_traj.n_steps,
        "dt": dt,
        "energy_drift": drift,
        "wrap_events": sum(1 for t in trajectories for e in t.events
                           if e.kind == "wrap"),
        "stopped": main_traj.stopped,
        "stop_reason": main_traj.stop_reason,
    }
    out = _finish(args)
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
    params, s, man = _start(args, "estimate")

    from .scars import compare_bands, estimate

    if args.from_dir:
        path = os.path.join(args.from_dir, "eigenvectors.npz")
        if not os.path.exists(path):
            raise ConfigError(f"no eigenvectors.npz under {args.from_dir}")
    run = estimate(params, n_levels=s["n_levels"], convention=s["convention"])
    man.steps.add(run.steps)
    payload, saddle = run.payload, run.saddle
    if args.from_dir:
        if saddle is None:
            raise ConfigError(f"no saddle found to compare with the spectrum "
                              f"in {args.from_dir}")
        from .eigensolve import read_archive

        steps = Steps()
        data, run_params = read_archive(path, ["eigenvalues"])
        _, comp = compare_bands(saddle, run_params, data["eigenvalues"],
                                _band_gap_threshold(args.from_dir), s["n_levels"])
        payload["comparison"] = comp.as_dict()
        steps.end("comparison")
        man.steps.add(steps)

    _save(args, "scar_estimates.json", write_json, payload)
    points = payload["critical_points"]
    man.statistics = {
        "n_critical_points": len(points),
        "kinds": sorted(p["kind"] for p in points),
    }
    if saddle is not None:
        man.statistics["delta_s_scaled"] = payload["saddle"]["levels"][0]["gap_scaled"]
    out = _finish(args)
    for p in points:
        print(f"{p['kind']:>10s} at r/L = {p['r_over_L']:+.6f}, "
              f"eta/L = {p['eta_over_L']:+.6f}, U*L = {p['value_scaled']:.6f}")
    if saddle is not None:
        print(f"stable frequency (scaled) {_fmt(payload['saddle']['omega_scaled'])}; "
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
    lines.append(f"peak RSS rises (MB): {man.get('peak_rss_rise_mb', {})}")
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

    def command(name, func, about):
        p = sub.add_parser(name, help=about)
        p.add_argument("--config", default=None, help="INI configuration file")
        p.add_argument("--out", default=f"triscar-runs/{name}", help="output directory")
        p.set_defaults(func=func)
        return p

    command("solve1d", cmd_solve1d, "diagonalize a 1D momentum sector")
    p = command("solve3d", cmd_solve3d,
                "diagonalize a 3D momentum sector by point-group blocks")
    p.add_argument("--allow-large", action="store_true",
                   help="override the operator memory budget")

    p = command("analyze", cmd_analyze,
                "wavefunctions and collision diagnostics from a solve run")
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

    command("orbit", cmd_orbit, "integrate classical center-of-mass orbits")
    p = command("estimate", cmd_estimate, "critical points and scar estimates")
    p.add_argument("--from", dest="from_dir", default=None,
                   help="solve1d run directory for a measured-gap comparison")

    p = sub.add_parser("report", help="summarize a run directory")
    p.add_argument("--out", default="triscar-runs/report", help="output directory")
    p.add_argument("--from", dest="from_dir", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def _numerical_errors() -> tuple:
    """What main reports as a numerical failure (exit 4).  numpy's
    LinAlgError is one once a command has loaded numpy.linalg; none can be
    raised before.  It subclasses ValueError, so it is matched first."""
    linalg = sys.modules.get("numpy.linalg")
    return (IterationError, FloatingPointError,
            *((linalg.LinAlgError,) if linalg is not None else ()))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return _write_exit(args, "refused", EXIT_RESOURCE, f"resource limit: {exc}")
    except _numerical_errors() as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _write_exit(args, "failed", EXIT_NUMERICAL, f"numerical failure: {exc}")
    except (ConfigError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
