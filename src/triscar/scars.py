"""Semiclassical scar estimates around the triple-collision saddle.

A family of scarred states is expected at the saddle energy plus harmonic
quanta of its stable transverse mode,

    E_n = V(saddle) + E_loc + (n + 1/2) omega,

where E_loc, the localization shift of the unstable direction, is not fixed
by the quadratic analysis.  Differences of scar energies are free of both
V and E_loc, so the predicted gap to the lowest scar, (n + 1/2) omega, can
be compared directly against measured band-top offsets from the ground
state.  The scar visibility is controlled by the ratio 1 / (tau lambda) of
the unstable rate to the stable period.  estimate runs the [estimate]
settings; compare_bands is the comparison of solve1d and estimate --from.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .classical import SaddleAnalysis, find_critical_points
from .config import check, params_dict
from .params import ModelParams

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class ScarEnergy:
    """Components of a scar level estimate; total stays None until the
    localization shift is supplied."""

    level: int
    saddle_value: float
    oscillator: float           # (n + 1/2) omega
    localization_shift: float | None = None

    @property
    def total(self) -> float | None:
        if self.localization_shift is None:
            return None
        return self.saddle_value + self.localization_shift + self.oscillator


def stable_frequency(saddle: SaddleAnalysis) -> float:
    freqs = saddle.stable_frequencies
    if not freqs:
        raise ValueError(f"critical point of kind {saddle.kind!r} has no "
                         f"stable mode")
    return float(min(freqs))


def scar_energy(n: int, saddle: SaddleAnalysis,
                localization_shift: float | None = None) -> ScarEnergy:
    if n < 0:
        raise ValueError(f"level must be nonnegative, got {n}")
    omega = stable_frequency(saddle)
    return ScarEnergy(n, saddle.value, (n + 0.5) * omega, localization_shift)


def predicted_gap(n: int, saddle: SaddleAnalysis) -> float:
    """Predicted offset of scar level n above the ground state: the saddle
    value and localization shift cancel in the difference, leaving
    (n + 1/2) omega."""
    return scar_energy(n, saddle).oscillator


def scar_intensity(saddle: SaddleAnalysis, convention: str = "sigma") -> float:
    """Scar strength 1 / (tau lambda) of the stable mode against the
    instability parameter.

    convention="sigma" takes lambda = |sigma_min| (curvature units);
    convention="rate" takes lambda = sqrt(|sigma_min| / mass), an inverse
    time.  The rate convention is scale free under L-scaling; reports should
    state which convention they used.
    """
    omega = stable_frequency(saddle)
    if convention == "sigma":
        lam = saddle.lambda_sigma
    elif convention == "rate":
        lam = saddle.lambda_rate
    else:
        raise ValueError(f"unknown convention {convention!r}")
    if lam is None:
        raise ValueError(f"critical point of kind {saddle.kind!r} has no "
                         f"unstable mode")
    return float(omega / (TWO_PI * lam))


@dataclass
class ComparisonEntry:
    band_id: int
    level: int
    predicted_gap: float
    measured_gap: float | None
    relative_deviation: float | None


@dataclass
class ScarComparison:
    """Predicted (n + 1/2) omega gaps paired with measured band-top offsets,
    in the reporting convention of the saddle analysis they came from."""

    ground_energy: float
    omega: float
    scaling: str = "raw"
    entries: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "ground_energy": self.ground_energy,
            "omega": self.omega,
            "scaling": self.scaling,
            "entries": [
                {
                    "band": e.band_id,
                    "level": e.level,
                    "predicted_gap": e.predicted_gap,
                    "measured_gap": e.measured_gap,
                    "relative_deviation": e.relative_deviation,
                }
                for e in self.entries
            ],
        }


def compare_with_spectrum(saddle: SaddleAnalysis, eigenvalues, bands,
                          n_levels: int = 3) -> ScarComparison:
    """Pair scar levels n = 0, 1, ... with band tops n+1 = band 1, 2, ...

    Level n is matched to the top of band n + 1; missing bands produce
    entries with measured_gap = None rather than an error.
    """
    evals = np.asarray(eigenvalues, dtype=np.float64)
    if len(evals) == 0:
        raise ValueError("empty spectrum")
    omega = stable_frequency(saddle)
    e0 = float(evals[0])
    by_id = {b.band_id: b for b in bands}
    comp = ScarComparison(e0, omega, saddle.scaling)
    for n in range(n_levels):
        gap = predicted_gap(n, saddle)
        band = by_id.get(n + 1)
        if band is None:
            comp.entries.append(ComparisonEntry(n + 1, n, gap, None, None))
        else:
            measured = band.top - e0
            rel = abs(measured - gap) / abs(gap) if gap != 0 else None
            comp.entries.append(ComparisonEntry(n + 1, n, gap, measured, rel))
    return comp


def compare_bands(saddle: SaddleAnalysis | None, params: ModelParams, eigenvalues,
                  gap_threshold: float, n_levels: int):
    """The bands of an ascending spectrum solved in params, split at gaps
    above gap_threshold, and, given the raw analysis of a saddle, its
    predicted gaps for n_levels levels compared with their tops in the
    reporting convention of params (None without a saddle)."""
    # imported here, so that estimate without a spectrum loads no solver module
    from .eigensolve import assemble_bands

    bands = assemble_bands(eigenvalues, gap_threshold)
    if saddle is None:
        return bands, None
    return bands, compare_with_spectrum(saddle.in_convention(params), eigenvalues,
                                        bands, n_levels=n_levels)


@dataclass
class ScarEstimate:
    """What estimate returns: the scar_estimates.json payload and the raw
    analysis of the saddle (None when there is none)."""

    payload: dict
    saddle: SaddleAnalysis | None
    timings: dict[str, float]


def estimate(params: ModelParams, *, n_levels: int = 3,
             convention: str = "both") -> ScarEstimate:
    """The [estimate] settings on params: every critical point and, for the
    saddle, its frequency, instability parameters and n_levels predicted
    gaps, raw and scaled by L, and its scar intensity in either convention
    or both."""
    check("estimate", n_levels=n_levels, convention=convention)
    L = params.box_length
    t0 = time.perf_counter()
    result = find_critical_points(params)
    points = [{
        "r": pt.r, "eta": pt.eta, "r_over_L": pt.r / L,
        "eta_over_L": pt.eta / L, "kind": pt.kind,
        "value_raw": ana.value, "value_scaled": ana.value * L,
        "sigmas_raw": list(ana.sigmas), "masses_raw": list(ana.masses),
        "grad_norm": pt.grad_norm,
    } for pt, ana in zip(result.points, result.analyses)]
    payload = {
        "parameters": params_dict(params),
        "critical_points": points,
        "failed_seeds": [list(t) for t in result.failed_seeds],
    }
    saddle = result.saddle
    if saddle is not None:
        scaled = saddle.scaled(L)
        omega = stable_frequency(saddle)
        info = payload["saddle"] = {
            "omega_raw": omega,
            "omega_scaled": stable_frequency(scaled),
            "stable_period_raw": TWO_PI / omega,
            "lambda_sigma_raw": saddle.lambda_sigma,
            "lambda_sigma_scaled": scaled.lambda_sigma,
            "lambda_rate_raw": saddle.lambda_rate,
            "lambda_rate_scaled": scaled.lambda_rate,
            "levels": [{"n": n, "gap_raw": predicted_gap(n, saddle),
                        "gap_scaled": predicted_gap(n, scaled)}
                       for n in range(n_levels)],
        }
        for name in ("sigma", "rate"):
            if convention in (name, "both"):
                info[f"intensity_{name}_convention"] = scar_intensity(saddle, name)
    return ScarEstimate(payload, saddle, {"critical": time.perf_counter() - t0})
