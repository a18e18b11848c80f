"""Detuning scans, Lorentzian fits, and width/depth extraction.

The generator of a scan is r K + C at every detuning, with one scalar,
the absorption base rate r(detuning), so every scan observable is a
function of r.  A scan groups its detunings by rate; a detuning and its
mirror image share one, since the laser lineshape is even.  It orders the
distinct rates in discrete Leja order and propagates them in that order,
each once through every requested pulse time, until the polynomial
interpolant in r through the rates done so far has predicted two rates
in a row to the propagator's own tolerance.  The other rates take the
interpolant's populations, and each sampled population becomes the
readout fluorescence signal.  Signal dips are characterized either by a
free-baseline Lorentzian least-squares fit or, where the dip shape is
not Lorentzian, by direct numerical width/depth measurement.
"""

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import readout as ro
from .radiation import base_rate
from .rate_engine import (ATOL, RTOL, PopulationState, SpectroscopyScenario,
                          build_rate_matrix, evolve_series, scaled_time)


_log = logging.getLogger(__name__)

# detunings whose rates agree to this relative tolerance share one record.
# A linspace grid is not symmetric to the last bit, and in a Gaussian
# laser wing one ulp of detuning moves the rate by up to 160 ulps (MgH,
# 51 points over 600 MHz), so a few ulps would split mirror images.  A
# relative change e of the rate moves the populations by about e times
# their log-derivative in the pulse time, far below RTOL.
SAME_RATE = 1e-12

FIT_XTOL, MAX_FIT_EVALS = 1e-10, 400   # Lorentzian fit: relative Gauss-Newton step, cap


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


def _rate_groups(rates: np.ndarray) -> list[list[int]]:
    """Indices grouped by rate equal to SAME_RATE, in increasing rate."""
    groups = []
    for i in np.argsort(rates, kind="stable"):
        if groups and rates[i] - rates[groups[-1][0]] <= SAME_RATE * rates[i]:
            groups[-1].append(int(i))
        else:
            groups.append([int(i)])
    return groups


def _leja_order(x: np.ndarray) -> list[int]:
    """Indices of the points x in greedy discrete Leja order.

    The largest point comes first; each next one maximises the product of
    its distances to the points already chosen (L. Reichel, BIT 30 (1990)
    332).  A point that coincides with a chosen one is never chosen.
    """
    order = [int(np.argmax(x))]
    log_dist = np.zeros(x.size)
    with np.errstate(divide="ignore"):
        for _ in range(x.size - 1):
            log_dist += np.log(np.abs(x - x[order[-1]]))
            nxt = int(np.argmax(log_dist))
            if log_dist[nxt] == -np.inf:
                break
            order.append(nxt)
    return order


def _barycentric(nodes: np.ndarray, values: np.ndarray,
                 x: np.ndarray) -> np.ndarray:
    """Values at the points x of the polynomial through (nodes, values).

    Second barycentric form, one row of values per node; the weights are
    scaled to a largest magnitude of 1, and a point on a node takes that
    node's values.
    """
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    log_w = -np.log(np.abs(diff)).sum(axis=1)
    weights = np.prod(np.sign(diff), axis=1) * np.exp(log_w - log_w.max())
    offset = x[:, None] - nodes[None, :]
    hit = offset == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        coeffs = np.where(hit.any(axis=1, keepdims=True), hit,
                          weights / offset)
    return (coeffs @ values) / coeffs.sum(axis=1, keepdims=True)


def _propagate(scenario: SpectroscopyScenario, detuning: float,
               times: np.ndarray) -> np.ndarray:
    """Motional marginal and leak after one propagation at one detuning,
    flat: n_motional + 1 values per pulse time of an increasing list."""
    states = evolve_series(build_rate_matrix(scenario, detuning),
                           PopulationState.ground(scenario), times)
    return np.concatenate([np.append(s.motional_marginal().ravel(), s.leaked)
                           for s in states])


def _rate_values(scenario: SpectroscopyScenario, detunings: np.ndarray,
                 rates: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Marginal and leak at every pulse time, at each distinct rate.

    detunings holds one detuning of each rate.  The rates are mapped
    linearly onto [-1, 1] and propagated in Leja order.  Before each
    propagation the barycentric interpolant through the rates done so
    far predicts its values; once two predictions in a row agree with
    their propagations to ATOL + RTOL at every value, propagation stops
    and the other rates take the interpolant, clipped at zero as
    evolve_series clips.
    """
    lo, hi = rates.min(), rates.max()
    x = ((2.0 * rates - (hi + lo)) / (hi - lo) if hi > lo
         else np.zeros(rates.size))
    tolerance = ATOL + RTOL * PopulationState.ground(scenario).total()
    nodes, values, good, error = [], [], 0, np.nan
    for i in _leja_order(x):
        new = _propagate(scenario, detunings[i], times)
        if nodes:
            guess = _barycentric(x[nodes], np.array(values), x[[i]])[0]
            error = float(np.abs(guess - new).max())
            good = good + 1 if error <= tolerance else 0
        nodes.append(i)
        values.append(new)
        if good == 2:
            break
    _log.debug("scan: %d distinct rates, %d propagations, last prediction "
               "error %.1e", rates.size, len(nodes), error)
    # a node, or a rate that maps onto one, takes the node's values
    table = np.clip(_barycentric(x[nodes], np.array(values), x), 0.0, None)
    return table.reshape(rates.size, times.size, -1)


def _scan(scenario: SpectroscopyScenario, detunings, tau_specs,
          pulses) -> list[list[SpectrumRecord]]:
    """Records for every pulse time (outer) and detuning (inner), in input order.

    The detunings are grouped by base rate, and _rate_values gives each
    group's marginal and leak at the sorted distinct pulse times, from a
    propagation or from the interpolant in r.  Every member of a group
    gets its own signed detuning on the shared populations.
    """
    if pulses is None:
        pulses = (ro.pi_pulse(scenario.system, (0, -1)),)
    elif not pulses:
        raise ValueError("the readout needs at least one pulse")
    detunings = np.asarray(detunings, dtype=float)
    if (bad := np.flatnonzero(~np.isfinite(detunings))).size:
        raise ValueError(f"detunings[{bad[0]}] = {detunings.flat[bad[0]]} is not finite")
    times, time_index = np.unique(np.asarray(tau_specs, dtype=float),
                                  return_inverse=True)
    if times.size == 0:
        return []
    if detunings.size == 0:
        return [[] for _ in time_index]
    rates = base_rate(scenario.laser, scenario.line, detunings)
    groups = _rate_groups(rates)
    firsts = [g[0] for g in groups]
    table = _rate_values(scenario, detunings[firsts], rates[firsts], times)
    per_time = [[None] * detunings.size for _ in times]
    for group, series in zip(groups, table):
        for k, row in enumerate(series):
            # the readout reads only the motional marginal and the leak, so
            # a state whose one internal row is the marginal stands in
            state = PopulationState(p=row[:-1].reshape((1,) + scenario.grid_shape),
                                    leaked=float(row[-1]))
            signal = ro.fluorescence_probability(state, *pulses)
            for i in group:
                per_time[k][i] = SpectrumRecord(
                    detuning=float(detunings[i]), fluorescence=signal,
                    marginal=state.p[0].copy(), leaked=state.leaked,
                    leak_flag=state.leaked > scenario.leak_warn_fraction)
    return [per_time[k] for k in time_index]


def readout_spectrum(scenario: SpectroscopyScenario, detunings, tau_spec: float,
                     pulses: Optional[tuple[ro.ReadoutPulse, ...]] = None
                     ) -> list[SpectrumRecord]:
    """Fluorescence signal and motional populations across a detuning grid.

    pulses is the readout sequence, applied in turn; it defaults to a
    pi-pulse on the out-of-phase red sideband, and two pulses give the
    consecutive two-mode readout.  Detunings with one base rate, such as
    a detuning and its mirror image, share one record's populations.  The
    distinct rates are propagated at Leja nodes until the interpolant in
    the rate predicts them to the propagator's tolerance, and the others
    are interpolated.
    """
    return _scan(scenario, detunings, [tau_spec], pulses)[0]


def _records_to_xy(records_or_x, y):
    """Detunings and signals of a dip, in a stable order of detuning."""
    if y is None:
        y = [r.fluorescence for r in records_or_x]
        records_or_x = [r.detuning for r in records_or_x]
    x, y = np.asarray(records_or_x, dtype=float), np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"detunings {x.shape} and signals {y.shape} must "
                         f"be 1-D and of one length")
    order = np.argsort(x, kind="stable")
    return x[order], y[order]


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
    w = abs(x[below[-1]] - x[below[0]]) if below.size >= 2 else 4.0 * abs(x[1] - x[0])
    return np.array([baseline, depth, center, max(w, abs(x[1] - x[0]))])


def _levenberg_marquardt(x, y, params):
    """Least-squares dip parameters, residuals and residual evaluations.

    Marquardt (1963): each step solves (J^T J + lam diag(J^T J)) step =
    -J^T r; lam falls tenfold after a step that does not raise the cost
    beyond roundoff, else rises tenfold with the step undone.  The loop
    converges where the undamped Gauss-Newton step, the solve at lam = 0,
    is at most FIT_XTOL of the parameters in the diag(J^T J) norm: it
    takes that step as its last, and so judges stationarity, not a step
    that a large lam has made small.
    """
    r = _lorentzian_dip(x, params) - y
    # a cost change within the roundoff of the residuals is no change
    roundoff = 4 * np.finfo(float).eps * (y @ y)
    lam, accepted = 1e-3, True
    for evals in range(2, MAX_FIT_EVALS + 1):
        if accepted:
            jac = _lorentzian_dip_jac(x, params)
            normal, grad = jac.T @ jac, jac.T @ r
            scale = np.sqrt(np.diag(normal))
            step = np.linalg.solve(normal, -grad)
            done = (np.linalg.norm(scale * step)
                    <= FIT_XTOL * np.linalg.norm(scale * params))
        if not done:
            step = np.linalg.solve(normal + lam * np.diag(scale ** 2), -grad)
        trial = _lorentzian_dip(x, params + step) - y
        if accepted := bool(trial @ trial <= r @ r + roundoff):
            params, r = params + step, trial
        if done:
            return params, r, evals
        lam = lam / 10.0 if accepted else lam * 10.0
    raise FitError(f"no convergence in {MAX_FIT_EVALS} residual evaluations")


def fit_lorentzian(records_or_x, y=None, p0=None) -> FitResult:
    """Fit a free-baseline Lorentzian dip by Levenberg-Marquardt.

    Accepts a list of SpectrumRecord or explicit (x, y) arrays.  The
    solver is _levenberg_marquardt, numpy on the analytic Jacobian, which
    stops where the Gauss-Newton step is FIT_XTOL of the parameters;
    iterations counts its residual evaluations.  p0 overrides the
    data-driven initial guess (baseline, depth, center, fwhm).
    """
    x, yv = _records_to_xy(records_or_x, y)
    if x.size < 8:
        raise FitError("need at least 8 points spanning the dip")
    if not (np.isfinite(x).all() and np.isfinite(yv).all()):
        raise FitError("data must be finite")
    if np.ptp(yv) == 0.0:
        raise FitError("flat data cannot constrain a Lorentzian dip")
    params = _initial_guess(x, yv) if p0 is None else np.asarray(p0, dtype=float)
    try:
        params, resid, evals = _levenberg_marquardt(x, yv, params)
    except np.linalg.LinAlgError as exc:
        raise FitError(f"singular normal equations: {exc}")
    baseline, depth, center, w = params
    chi2 = float(resid @ resid)
    jac = _lorentzian_dip_jac(x, params)  # covariance at the solution
    dof = max(x.size - 4, 1)
    try:
        cov_diag = np.diag(np.linalg.inv(jac.T @ jac)) * (chi2 / dof)
    except np.linalg.LinAlgError:  # pragma: no cover - degenerate geometry
        cov_diag = np.full(4, np.nan)
    return FitResult(center=float(center), fwhm=float(abs(w)), depth=float(depth),
                     baseline=float(baseline), residual_norm=float(np.sqrt(chi2)),
                     covariance=cov_diag, iterations=evals)


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
    # the median of the 2 edge points, without np.median's numpy.ma import
    outer = np.sort(np.concatenate([yv[:edge], yv[-edge:]]))
    baseline = float(0.5 * (outer[edge - 1] + outer[edge]))
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
                       pulses: Optional[tuple[ro.ReadoutPulse, ...]] = None
                       ) -> list[WidthDepthPoint]:
    """Signal FWHM and depth versus scaled time for several scenarios.

    Each (label, scenario) pair is scanned at every requested scaled
    time; pulse durations are converted through the scenario's resonant
    absorption rate.  One scan serves all pulse times of a scenario: each
    propagation at a Leja node in the base rate samples every pulse time,
    and the interpolation stops only when it holds at all of them.  Rows
    follow the scenarios, then the scaled times, in input order.  Points
    whose scans breach the leak threshold are flagged rather than dropped.
    """
    if fit not in ("lorentzian", "numeric"):
        raise ValueError("fit must be 'lorentzian' or 'numeric'")
    tau_scaled = np.asarray(tau_scaled_values, dtype=float)
    rows = []
    for label, scenario in scenarios:
        if not (rate := scaled_time(1.0, scenario)) > 0:
            raise ValueError(f"{label}: resonant absorption rate {rate!r} must be > 0")
        tau_specs = tau_scaled / rate
        scans = _scan(scenario, detunings, tau_specs, pulses)
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
