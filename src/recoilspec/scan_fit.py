"""Detuning scans, Lorentzian fits, and width/depth extraction.

A scan builds one rate matrix per distinct |detuning|, evolves the
initial state once through every requested pulse time, and converts each
sampled population into the readout fluorescence signal.  The generator
depends on the detuning only through the laser lineshape, which is even,
so a detuning and its mirror image share one propagation; detunings whose
magnitudes agree to a few ulps count as mirrors, since a linspace grid is
not symmetric to the last bit.  Signal dips are characterized either by a
free-baseline Lorentzian least-squares fit or, where the dip shape is
not Lorentzian, by direct numerical width/depth measurement.
"""

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import least_squares

from . import readout as ro
from .rate_engine import (LeakWarning, PopulationState, SpectroscopyScenario,
                          build_rate_matrix, evolve_series, scaled_time)


class FitError(RuntimeError):
    """Least-squares fit failed (degenerate data or no convergence)."""


@dataclass
class SpectrumRecord:
    """Observables for one laser detuning."""
    detuning: float                 # rad/s from resonance
    fluorescence: float             # readout ground-state probability
    marginal: np.ndarray            # P(n_ip, n_op) after the pulse
    leaked: float
    leak_flag: bool = False


@dataclass
class FitResult:
    """Lorentzian dip parameters: P = baseline - depth * L(detuning)."""
    center: float
    fwhm: float
    depth: float
    baseline: float
    residual_norm: float
    covariance: np.ndarray          # diagonal, order (baseline, depth, center, fwhm)
    iterations: int


def _mirror_groups(detunings: np.ndarray) -> list[list[int]]:
    """Indices of the detunings grouped by |detuning| equal to a few ulps."""
    mag = np.abs(detunings)
    tol = 4.0 * np.spacing(mag.max(initial=0.0))
    groups = []
    for i in np.argsort(mag, kind="stable"):
        if groups and mag[i] - mag[groups[-1][0]] <= tol:
            groups[-1].append(int(i))
        else:
            groups.append([int(i)])
    return groups


def _propagate_group(args):
    """Records at one detuning for each of an increasing list of pulse times."""
    scenario, detuning, times, pulses, leak_survival = args
    matrix = build_rate_matrix(scenario, detuning)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LeakWarning)
        states = evolve_series(matrix, PopulationState.ground(scenario), times)
    records = []
    for state in states:
        signal = ro.fluorescence_probability(state, *pulses,
                                             leak_survival=leak_survival)
        records.append(SpectrumRecord(
            detuning=float(detuning), fluorescence=signal,
            marginal=state.motional_marginal(), leaked=state.leaked,
            leak_flag=state.leaked > scenario.leak_warn_fraction))
    return records


def _scan(scenario: SpectroscopyScenario, detunings, tau_specs, pulses,
          leak_survival, workers) -> list[list[SpectrumRecord]]:
    """Records for every pulse time (outer) and detuning (inner), in input order.

    Each mirror group of detunings is propagated once, at one of its
    members, through the sorted distinct pulse times; every member gets
    its own signed detuning on the shared populations.
    """
    if pulses is None:
        pulses = (ro.pi_pulse(scenario.system, (0, -1)),)
    detunings = np.asarray(detunings, dtype=float)
    times, time_index = np.unique(np.asarray(tau_specs, dtype=float),
                                  return_inverse=True)
    if times.size == 0:
        return []
    groups = _mirror_groups(detunings)
    scenario.laser_coupling()  # build shared tables once, not per worker
    scenario.d_table()
    jobs = [(scenario, detunings[g[0]], times, tuple(pulses), leak_survival)
            for g in groups]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            solved = list(pool.map(_propagate_group, jobs, chunksize=4))
    else:
        solved = [_propagate_group(j) for j in jobs]
    per_time = [[None] * detunings.size for _ in times]
    for group, series in zip(groups, solved):
        for k, record in enumerate(series):
            for i in group:
                per_time[k][i] = replace(record, detuning=float(detunings[i]),
                                         marginal=record.marginal.copy())
    return [per_time[k] for k in time_index]


def readout_spectrum(scenario: SpectroscopyScenario, detunings, tau_spec: float,
                     pulses: Optional[tuple[ro.ReadoutPulse, ...]] = None,
                     leak_survival: float = 0.5,
                     workers: int = 1) -> list[SpectrumRecord]:
    """Fluorescence signal and motional populations across a detuning grid.

    pulses is the readout sequence, applied in turn; it defaults to a
    pi-pulse on the out-of-phase red sideband, and two pulses give the
    consecutive two-mode readout.  Each distinct |detuning| is solved once
    and shared with its mirror image; the distinct magnitudes are
    independent, so workers > 1 distributes them over processes.
    """
    records = _scan(scenario, detunings, [tau_spec], pulses, leak_survival,
                    workers)[0]
    if any(r.leak_flag for r in records):
        worst = max(r.leaked for r in records)
        warnings.warn(f"leaked population reaches {worst:.2%} on the scan",
                      LeakWarning, stacklevel=2)
    return records


def _records_to_xy(records_or_x, y):
    if y is not None:
        return np.asarray(records_or_x, dtype=float), np.asarray(y, dtype=float)
    x = np.array([r.detuning for r in records_or_x])
    y = np.array([r.fluorescence for r in records_or_x])
    return x, y


def _lorentzian_dip(x, params):
    baseline, depth, center, w = params
    return baseline - depth * (w / 2.0) ** 2 / ((x - center) ** 2 + (w / 2.0) ** 2)


def _lorentzian_dip_jac(x, params):
    """Analytic Jacobian of _lorentzian_dip, columns in parameter order."""
    _, depth, center, w = params
    u = x - center
    h = w / 2.0
    denom = u ** 2 + h ** 2
    return np.column_stack([np.ones_like(x), -h ** 2 / denom,
                            -2.0 * depth * h ** 2 * u / denom ** 2,
                            -depth * h * u ** 2 / denom ** 2])


def _initial_guess(x, y):
    baseline = float(y.max())
    depth = baseline - float(y.min())
    center = float(x[np.argmin(y)])
    half = baseline - depth / 2.0
    below = np.where(y < half)[0]
    if below.size >= 2:
        w = abs(x[below[-1]] - x[below[0]])
    else:
        w = 4.0 * abs(x[1] - x[0])
    return np.array([baseline, depth, center, max(w, abs(x[1] - x[0]))])


def fit_lorentzian(records_or_x, y=None, p0=None) -> FitResult:
    """Fit a free-baseline Lorentzian dip by Levenberg-Marquardt.

    Accepts a list of SpectrumRecord or explicit (x, y) arrays.  The
    solver is scipy's MINPACK least_squares with the analytic Jacobian;
    iterations reports its residual evaluations.  p0 overrides the
    data-driven initial guess (baseline, depth, center, fwhm).
    """
    x, yv = _records_to_xy(records_or_x, y)
    if x.size < 8:
        raise FitError("need at least 8 points spanning the dip")
    if np.ptp(yv) == 0.0:
        raise FitError("flat data cannot constrain a Lorentzian dip")
    params = _initial_guess(x, yv) if p0 is None else np.asarray(p0, dtype=float)
    sol = least_squares(lambda p: _lorentzian_dip(x, p) - yv, params,
                        jac=lambda p: _lorentzian_dip_jac(x, p), method="lm")
    if sol.status <= 0:
        raise FitError(f"no convergence: {sol.message}")
    baseline, depth, center, w = sol.x
    chi2 = float(sol.fun @ sol.fun)
    dof = max(x.size - 4, 1)
    try:
        cov_diag = np.diag(np.linalg.inv(sol.jac.T @ sol.jac)) * (chi2 / dof)
    except np.linalg.LinAlgError:  # pragma: no cover - degenerate geometry
        cov_diag = np.full(4, np.nan)
    return FitResult(center=float(center), fwhm=float(abs(w)), depth=float(depth),
                     baseline=float(baseline), residual_norm=float(np.sqrt(chi2)),
                     covariance=cov_diag, iterations=sol.nfev)


def numeric_fwhm_depth(records_or_x, y=None) -> tuple[float, float]:
    """Graphical width and depth of a dip, with no shape assumption.

    Baseline is the median of the outer 10% of points; depth is baseline
    minus the minimum; the FWHM comes from linear interpolation of the
    half-depth crossings on either side of the minimum.
    """
    x, yv = _records_to_xy(records_or_x, y)
    if x.size < 8:
        raise ValueError("need at least 8 points to measure a dip")
    edge = max(int(round(0.05 * x.size)), 1)
    baseline = float(np.median(np.concatenate([yv[:edge], yv[-edge:]])))
    i_min = int(np.argmin(yv))
    depth = baseline - float(yv[i_min])
    if depth <= 0:
        raise ValueError("no dip below the baseline")
    half = baseline - depth / 2.0

    def crossing(idx_range):
        prev = i_min
        for i in idx_range:
            if yv[i] >= half:
                # linear interpolation between grid neighbours
                frac = (half - yv[prev]) / (yv[i] - yv[prev])
                return x[prev] + frac * (x[i] - x[prev])
            prev = i
        raise ValueError("half-depth crossing outside the grid; widen the scan")

    left = crossing(range(i_min - 1, -1, -1))
    right = crossing(range(i_min + 1, x.size))
    return float(abs(right - left)), float(depth)


@dataclass
class WidthDepthPoint:
    """One (scaled time, width, depth) sample of a signal-evolution curve."""
    label: str
    tau_scaled: float
    tau_spec: float
    fwhm: float
    depth: float
    max_leaked: float
    flagged: bool


def width_depth_curves(scenarios: Sequence[tuple[str, SpectroscopyScenario]],
                       tau_scaled_values, detunings,
                       fit: str = "lorentzian",
                       pulses: Optional[tuple[ro.ReadoutPulse, ...]] = None,
                       leak_survival: float = 0.5,
                       workers: int = 1) -> list[WidthDepthPoint]:
    """Signal FWHM and depth versus scaled time for several scenarios.

    Each (label, scenario) pair is scanned at every requested scaled
    time; pulse durations are converted through the scenario's resonant
    absorption rate.  One propagation per distinct |detuning| serves all
    pulse times of a scenario.  Rows follow the scenarios, then the
    scaled times, in input order.  Points whose scans breach the leak
    threshold are flagged rather than dropped.
    """
    if fit not in ("lorentzian", "numeric"):
        raise ValueError("fit must be 'lorentzian' or 'numeric'")
    tau_scaled = np.asarray(tau_scaled_values, dtype=float)
    rows = []
    for label, scenario in scenarios:
        tau_specs = tau_scaled / scaled_time(1.0, scenario)
        scans = _scan(scenario, detunings, tau_specs, pulses, leak_survival,
                      workers)
        for ts, tau_spec, records in zip(tau_scaled, tau_specs, scans):
            if fit == "lorentzian":
                res = fit_lorentzian(records)
                fwhm, depth = res.fwhm, res.depth
            else:
                fwhm, depth = numeric_fwhm_depth(records)
            max_leak = max(r.leaked for r in records)
            rows.append(WidthDepthPoint(
                label=label, tau_scaled=float(ts), tau_spec=float(tau_spec),
                fwhm=float(fwhm), depth=float(depth), max_leaked=max_leak,
                flagged=max_leak > scenario.leak_warn_fraction))
    return rows
