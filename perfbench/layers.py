"""Layer map of the triscar package and the per-layer metrics of a traced run.

A layer is one package module (`cli` also covers `config` and `manifest`).
The traced launcher (`traced_cli.py`) wraps the public functions and methods
of these modules; this file turns what it records into per-layer metrics.
It imports nothing from triscar, so the runner can use it without paying the
package's import time.
"""

from __future__ import annotations

from collections import Counter, defaultdict

LAYERS = {
    "basis": ("triscar.basis",),
    "hamiltonian1d": ("triscar.hamiltonian1d",),
    "hamiltonian3d": ("triscar.hamiltonian3d",),
    "eigensolve": ("triscar.eigensolve",),
    "wavefunction": ("triscar.wavefunction",),
    "classical": ("triscar.classical",),
    "scars": ("triscar.scars",),
    "cli": ("triscar.cli", "triscar.config", "triscar.manifest"),
}

# Metrics that are the inclusive time, or the call count, of one wrapped
# function.  Keys are "<module>.<qualname>", as the launcher names functions.
FUNCTION_SECONDS = {
    "hamiltonian1d.build_s": "hamiltonian1d.HamiltonianOperator1D.__init__",
    "hamiltonian3d.build_s": "hamiltonian3d.HamiltonianOperator3D.__init__",
    "hamiltonian3d.block_assembly_s": "hamiltonian3d.SymmetrizedOperator3D.dense",
    "hamiltonian3d.matvec_s": "hamiltonian3d.HamiltonianOperator3D.matvec",
    "eigensolve.canonicalize_s": "eigensolve.canonicalize",
    "wavefunction.radial_s": "wavefunction.integrated_probability_3d",
    "wavefunction.projection_s": "wavefunction.pair_projection_3d",
    "classical.critical_s": "classical.find_critical_points",
}
FUNCTION_CALLS = {
    "hamiltonian3d.matvecs": "hamiltonian3d.HamiltonianOperator3D.matvec",
}

# Counters the launcher's observers fill in from arguments and results.
COUNTERS = ("basis.states", "hamiltonian3d.nnz", "eigensolve.blocks",
            "eigensolve.eigenpairs")
MAXIMA = ("eigensolve.block_dim_max", "eigensolve.residual_max")

COMMANDS = ("solve1d", "solve3d", "analyze", "estimate")

# name -> unit of every per-layer metric the traced run prints
PER_LAYER_UNITS = {
    "basis.busy_s": "s",
    "basis.states": "count",
    "hamiltonian1d.build_s": "s",
    "hamiltonian3d.build_s": "s",
    "hamiltonian3d.block_assembly_s": "s",
    "hamiltonian3d.matvecs": "count",
    "hamiltonian3d.matvec_s": "s",
    "hamiltonian3d.nnz": "count",
    "eigensolve.busy_s": "s",
    "eigensolve.canonicalize_s": "s",
    "eigensolve.blocks": "count",
    "eigensolve.block_dim_max": "count",
    "eigensolve.eigenpairs": "count",
    "eigensolve.failures": "count",
    "eigensolve.residual_max": "ratio",
    "wavefunction.busy_s": "s",
    "wavefunction.radial_s": "s",
    "wavefunction.projection_s": "s",
    "classical.critical_s": "s",
    "scars.busy_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.files_written": "count",
    **{f"{c}.wall_s": "s" for c in COMMANDS},
    **{f"{c}.peak_rss_mb": "MB" for c in COMMANDS},
    "tracing.overhead_s": "s",
    **{f"{layer}.spans": "count" for layer in LAYERS},
}


def traced_functions() -> set[str]:
    """Functions whose absence would silently zero a metric."""
    return set(FUNCTION_SECONDS.values()) | set(FUNCTION_CALLS.values())


def layer_metrics(dumps: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced pipeline.

    `dumps` holds what the launcher wrote for each command of the pipeline.
    A span's self time is its duration minus that of its direct child spans;
    a layer's busy time is the self time of its spans.  Returns the metrics
    and the names of metric source functions that no longer exist.
    """
    self_s: dict[str, float] = defaultdict(float)
    spans: Counter = Counter()
    failed: Counter = Counter()
    calls: Counter = Counter()
    seconds: dict[str, float] = defaultdict(float)
    counters: Counter = Counter()
    maxima: dict[str, float] = defaultdict(float)
    known: set[str] = set()
    for dump in dumps:
        child_s: dict[int, float] = defaultdict(float)
        for _sid, parent, _layer, _name, t0, t1, _ok in dump["spans"]:
            if parent is not None:
                child_s[parent] += t1 - t0
        for sid, _parent, layer, _name, t0, t1, ok in dump["spans"]:
            self_s[layer] += (t1 - t0) - child_s[sid]
            spans[layer] += 1
            if not ok:
                failed[layer] += 1
        for name, (n, s) in dump["functions"].items():
            known.add(name)
            calls[name] += n
            seconds[name] += s
        counters.update(dump["counters"])
        for name, value in dump["maxima"].items():
            maxima[name] = max(maxima[name], value)

    m: dict[str, float] = {}
    for metric, fn in FUNCTION_SECONDS.items():
        m[metric] = seconds[fn]
    for metric, fn in FUNCTION_CALLS.items():
        m[metric] = calls[fn]
    for name in COUNTERS:
        m[name] = counters[name]
    for name in MAXIMA:
        m[name] = maxima[name]
    m["basis.busy_s"] = self_s["basis"]
    # canonicalize runs nested inside the solve span, so its time is taken
    # out of the solver's self time and reported on its own
    m["eigensolve.busy_s"] = max(0.0, self_s["eigensolve"]
                                 - m["eigensolve.canonicalize_s"])
    m["eigensolve.failures"] = failed["eigensolve"]
    m["wavefunction.busy_s"] = self_s["wavefunction"]
    m["scars.busy_s"] = self_s["scars"]
    m["cli.self_s"] = self_s["cli"]
    for layer in LAYERS:
        m[f"{layer}.spans"] = spans[layer]
    missing = sorted(traced_functions() - known) if dumps else []
    return m, missing
