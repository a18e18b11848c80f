"""Rate-equation engine for the driven two-ion motional state grid.

The population over (target internal state) x (n_ip, n_op) obeys linear
rate equations: absorption and stimulated emission proportional to the
laser-sideband couplings |xi|^2, spontaneous emission weighted by the
solid-angle-averaged coefficients D, and a uniform upward heating ladder
per mode.  The grid is truncated; any transition leaving it feeds an
absorbing leak accumulator so probability stays exactly conserved.
"""

import logging
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.sparse.linalg import splu

from .coupling import xi_mode_table
from .ion_mechanics import BeamGeometry, TwoIonSystem, lamb_dicke
from .radiation import (EmissionPattern, LaserField, TransitionLine,
                        base_rate, emission_coefficients)


_log = logging.getLogger(__name__)

# propagation tolerance: answers agree to ATOL + RTOL max|p|
RTOL = 1e-9
ATOL = 1e-12

# shift-and-invert Krylov propagator: the shift is this fraction of the
# largest requested time; the basis grows from M_START in steps of M_STEP
# until two successive sizes agree to the tolerance, up to M_MAX
KRYLOV_SHIFT = 0.05
KRYLOV_M_START = 16
KRYLOV_M_STEP = 8
KRYLOV_M_MAX = 80

# most negative population entry a propagation may return; smaller ones
# are integration error, not roundoff
NEGATIVE_TOLERANCE = 1e-10


class LeakWarning(UserWarning):
    """Population outside the truncated motional basis crossed the threshold."""


@dataclass
class SpectroscopyScenario:
    """Everything needed to simulate one spectroscopy configuration.

    Grid bounds are inclusive maxima (n = 0..n_max); sideband orders are
    truncated at +-s_ip_max / +-s_op_max.  heat_ip / heat_op are the
    per-mode trap heating rates in 1/s.  Derived coupling and emission
    tables are cached after first use and shared read-only.
    """
    system: TwoIonSystem
    line: TransitionLine
    laser: LaserField
    beam: BeamGeometry
    pattern: EmissionPattern
    n_ip_max: int = 19
    n_op_max: int = 19
    s_ip_max: int = 5
    s_op_max: int = 6
    heat_ip: float = 0.0
    heat_op: float = 0.0
    leak_warn_fraction: float = 0.01
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_ip_max < 1 or self.n_op_max < 1:
            raise ValueError("grid bounds must be >= 1")
        if self.s_ip_max < 1 or self.s_op_max < 1:
            raise ValueError("sideband truncations must be >= 1")
        if self.heat_ip < 0 or self.heat_op < 0:
            raise ValueError("heating rates must be >= 0")

    # -- index bookkeeping ---------------------------------------------------
    @property
    def grid_shape(self) -> tuple[int, int]:
        return (self.n_ip_max + 1, self.n_op_max + 1)

    @property
    def n_motional(self) -> int:
        return (self.n_ip_max + 1) * (self.n_op_max + 1)

    @property
    def n_states(self) -> int:
        """2 internal states x motional grid + 1 leak row."""
        return 2 * self.n_motional + 1

    @property
    def leak_index(self) -> int:
        return 2 * self.n_motional

    # -- cached tables ---------------------------------------------------------
    def laser_eta(self) -> tuple[float, float]:
        """Target Lamb-Dicke parameters for the spectroscopy beam."""
        return lamb_dicke(self.system, self.beam, "target")

    def laser_coupling(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-mode |xi|^2 tables (ip, op) for the spectroscopy beam."""
        if "xi2" not in self._cache:
            eta_ip, eta_op = self.laser_eta()
            self._cache["xi2"] = (
                xi_mode_table(eta_ip, self.n_ip_max, self.s_ip_max) ** 2,
                xi_mode_table(eta_op, self.n_op_max, self.s_op_max) ** 2,
            )
        return self._cache["xi2"]

    def d_table(self) -> np.ndarray:
        """Spontaneous-emission coefficients D on the scenario grid."""
        if "d" not in self._cache:
            self._cache["d"] = emission_coefficients(
                self.pattern, self.line, self.system,
                n_max=(self.n_ip_max, self.n_op_max),
                s_max=(self.s_ip_max, self.s_op_max))
        return self._cache["d"]

    def with_laser(self, **kw) -> "SpectroscopyScenario":
        """Copy of this scenario with laser fields replaced (tables kept)."""
        new = replace(self, laser=replace(self.laser, **kw))
        new._cache = self._cache  # coupling tables do not depend on the laser
        return new


@dataclass
class PopulationState:
    """Probabilities over internal x motional grid plus the leak accumulator.

    p has shape (2, n_ip_max+1, n_op_max+1) with p[0] the target ground
    state and p[1] the excited state.
    """
    p: np.ndarray
    leaked: float = 0.0

    @classmethod
    def ground(cls, scenario: SpectroscopyScenario) -> "PopulationState":
        """Everything in |g_t> with both modes in the motional ground state."""
        p = np.zeros((2,) + scenario.grid_shape)
        p[0, 0, 0] = 1.0
        return cls(p=p)

    @classmethod
    def from_vector(cls, vec: np.ndarray, grid_shape: tuple[int, int]) -> "PopulationState":
        n = 2 * grid_shape[0] * grid_shape[1]
        return cls(p=vec[:n].reshape((2,) + grid_shape).copy(), leaked=float(vec[n]))

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.p.ravel(), [self.leaked]])

    def total(self) -> float:
        return float(self.p.sum() + self.leaked)

    def motional_marginal(self) -> np.ndarray:
        """P(n_ip, n_op) summed over the internal state (in-grid part)."""
        return self.p.sum(axis=0)

    def validate(self) -> None:
        if min(self.p.min(), self.leaked) < -NEGATIVE_TOLERANCE:
            raise ValueError(f"negative population {min(self.p.min(), self.leaked):.2e}")
        if abs(self.total() - 1.0) > 1e-7:
            raise ValueError(f"population not normalized: total = {self.total()!r}")


@dataclass
class RateMatrix:
    """Sparse generator G of dP/dt = G P for one laser detuning.

    Column sums vanish (the leak row absorbs anything leaving the grid),
    so total probability is conserved exactly.
    """
    generator: sp.csc_matrix
    detuning: float
    grid_shape: tuple[int, int]
    leak_warn_fraction: float = 0.01
    _dense: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def dense(self) -> np.ndarray:
        if self._dense is None:
            self._dense = self.generator.toarray()
        return self._dense


def _transition_kernel(scenario: SpectroscopyScenario, weights: np.ndarray,
                       src_block: int, dest_block: int) -> sp.csc_matrix:
    """Unit-rate kernel for one transition family on the motional grid.

    weights[n_ip, n_op, s_ip_max+u_ip, s_op_max+u_op] is the relative rate
    for the motional jump n -> n+u while the internal state goes
    src_block -> dest_block; the sideband range is read from its shape.
    Jumps leaving the grid route to the leak row; the diagonal balances
    every column to zero.
    """
    n_ip = scenario.n_ip_max + 1
    n_op = scenario.n_op_max + 1
    n_mot = n_ip * n_op
    leak = scenario.leak_index
    s_ip_max, s_op_max = (weights.shape[2] - 1) // 2, (weights.shape[3] - 1) // 2

    nip = np.arange(n_ip)[:, None, None, None]
    nop = np.arange(n_op)[None, :, None, None]
    uip = np.arange(-s_ip_max, s_ip_max + 1)[None, None, :, None]
    uop = np.arange(-s_op_max, s_op_max + 1)[None, None, None, :]
    mip = nip + uip
    mop = nop + uop
    # weights are exactly zero below the grid; mask anyway to keep indices legal
    valid = (mip >= 0) & (mop >= 0)
    in_grid = valid & (mip <= scenario.n_ip_max) & (mop <= scenario.n_op_max)

    src = np.broadcast_to((nip * n_op + nop), weights.shape) + src_block * n_mot
    dest = np.where(in_grid, mip * n_op + mop + dest_block * n_mot, leak)

    active = valid & (weights != 0.0)
    rows = dest[active]
    cols = src[active]
    data = weights[active]
    # diagonal: minus the total outgoing rate of each source column
    out_rate = np.where(active, weights, 0.0).sum(axis=(2, 3)).ravel()
    diag_idx = np.arange(n_mot) + src_block * n_mot
    rows = np.concatenate([rows, diag_idx])
    cols = np.concatenate([cols, diag_idx])
    data = np.concatenate([data, -out_rate])
    n = scenario.n_states
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsc()


def _heating_kernel(scenario: SpectroscopyScenario) -> sp.csc_matrix:
    """Uniform upward ladder at heat_ip / heat_op for both internal states."""
    weights = np.zeros(scenario.grid_shape + (3, 3))
    weights[:, :, 2, 1] = scenario.heat_ip     # n_ip -> n_ip + 1
    weights[:, :, 1, 2] = scenario.heat_op     # n_op -> n_op + 1
    return (_transition_kernel(scenario, weights, src_block=0, dest_block=0)
            + _transition_kernel(scenario, weights, src_block=1, dest_block=1))


def _scenario_kernels(scenario: SpectroscopyScenario):
    """Detuning-independent pieces of the generator, cached on the scenario."""
    if "kernels" not in scenario._cache:
        x_ip, x_op = scenario.laser_coupling()
        xi2 = np.einsum("au,bv->abuv", x_ip, x_op)
        k_abs = _transition_kernel(scenario, xi2, src_block=0, dest_block=1)
        k_stim = _transition_kernel(scenario, xi2, src_block=1, dest_block=0)
        k_spon = _transition_kernel(scenario, scenario.d_table(),
                                    src_block=1, dest_block=0)
        k_heat = _heating_kernel(scenario)
        scenario._cache["kernels"] = (k_abs, k_stim, k_spon, k_heat)
    return scenario._cache["kernels"]


def build_rate_matrix(scenario: SpectroscopyScenario, detuning: float,
                      include_spontaneous: bool = True) -> RateMatrix:
    """Assemble the linear rate generator at one laser detuning (rad/s).

    Absorption g,(n) -> e,(n+s) at R_abs,0(detuning) |xi(n,s)|^2;
    stimulated emission e,(n) -> g,(n+s) at R_stim,0 |xi|^2 (the same
    table by the n_< / n_> symmetry); spontaneous emission at Gamma_t D;
    heating as an upward ladder.  Off-grid destinations feed the leak row.
    """
    k_abs, k_stim, k_spon, k_heat = _scenario_kernels(scenario)
    r_abs = base_rate(scenario.laser, scenario.line, detuning, "absorption")
    r_stim = base_rate(scenario.laser, scenario.line, detuning, "stimulated")
    gen = r_abs * k_abs + r_stim * k_stim + k_heat
    if include_spontaneous:
        gen = gen + scenario.line.gamma_t * k_spon
    return RateMatrix(generator=gen.tocsc(), detuning=detuning,
                      grid_shape=scenario.grid_shape,
                      leak_warn_fraction=scenario.leak_warn_fraction)


# ---------------------------------------------------------------------------
# time evolution
# ---------------------------------------------------------------------------

def _krylov_series(basis: np.ndarray, hess: np.ndarray, beta: float,
                   shift: float, times: np.ndarray) -> np.ndarray:
    """beta V_m expm(t G_m) e_1 at every t, with G_m = (I - H_m^-1) / shift.

    An intermediate H_m can be nearly singular, so G_m may overflow expm;
    the result is then non-finite, never a warning.
    """
    m = hess.shape[0]
    with np.errstate(all="ignore"):
        try:
            g_m = (np.eye(m) - np.linalg.inv(hess)) / shift
        except np.linalg.LinAlgError:
            return np.full((basis.shape[0], times.size), np.nan)
        coeffs = np.column_stack([expm(g_m * float(t))[:, 0] for t in times])
        return beta * (basis @ coeffs)


def _krylov(gen: sp.csc_matrix, p0: np.ndarray,
            times: np.ndarray) -> Optional[np.ndarray]:
    """Shift-and-invert Krylov propagation to every time from one basis.

    One LU of (I - shift G) with shift = KRYLOV_SHIFT * t_max; Arnoldi on
    its inverse (classical Gram-Schmidt, reorthogonalised) gives V_m and
    H_m, and G is approximated by V_m G_m V_m^T (van den Eshof & Hochbruck,
    SIAM J. Sci. Comput. 27 (2006) 1438).  The basis grows until the
    answers of two successive sizes are finite and agree to
    ATOL + RTOL max|p| at every time, or the space becomes invariant.
    Returns None when that never happens within KRYLOV_M_MAX, when the
    total probability drifts by more than ATOL + RTOL |sum p0|, or when an
    entry falls below -NEGATIVE_TOLERANCE.
    """
    n = p0.size
    m_max = min(KRYLOV_M_MAX, n)
    shift = KRYLOV_SHIFT * float(times[-1])
    # the grid order keeps the couplings banded, which fills in less than
    # the default column ordering
    lu = splu(sp.identity(n, format="csc") - shift * gen, permc_spec="NATURAL")
    beta = float(np.linalg.norm(p0))
    basis = np.zeros((n, m_max + 1))
    hess = np.zeros((m_max + 1, m_max))
    basis[:, 0] = p0 / beta
    previous = None
    for j in range(m_max):
        m = j + 1
        w = lu.solve(basis[:, j])
        w_norm = np.linalg.norm(w)
        for _ in range(2):
            h = basis[:, :m].T @ w
            w -= basis[:, :m] @ h
            hess[:m, j] += h
        hess[m, j] = np.linalg.norm(w)
        invariant = hess[m, j] <= 1e-12 * w_norm
        if invariant or (m >= KRYLOV_M_START
                         and (m - KRYLOV_M_START) % KRYLOV_M_STEP == 0):
            p = _krylov_series(basis[:, :m], hess[:m, :m], beta, shift, times)
            if not np.all(np.isfinite(p)):
                p = None
            elif invariant or (previous is not None and np.abs(p - previous).max()
                               <= ATOL + RTOL * np.abs(p).max()):
                break
            if invariant:
                return None
            previous = p
        basis[:, m] = w / hess[m, j]
    else:
        return None
    drift = np.abs(p.sum(axis=0) - p0.sum()).max()
    _log.debug("krylov: m = %d, drift %.1e, min %.1e", m, drift, p.min())
    if drift > ATOL + RTOL * abs(p0.sum()) or p.min() < -NEGATIVE_TOLERANCE:
        return None
    return p


def _integrate(matrix: RateMatrix, p0: np.ndarray,
               times: np.ndarray) -> np.ndarray:
    """Propagate p0 to each requested time; returns (n_states, len(times))."""
    t_end = float(times[-1])
    if t_end == 0.0:
        return np.repeat(p0[:, None], len(times), axis=1)
    gen = matrix.generator
    out = _krylov(gen, p0, times)
    if out is not None:
        return out
    _log.debug("krylov result rejected at detuning %g; using LSODA",
               matrix.detuning)
    sol = solve_ivp(lambda t, p: gen @ p, (0.0, t_end), p0, method="LSODA",
                    jac=lambda t, p: matrix.dense(), rtol=RTOL, atol=ATOL,
                    t_eval=times)
    if not sol.success:  # pragma: no cover - scipy failure path
        raise RuntimeError(f"integration failed: {sol.message}")
    return sol.y


def _check_and_wrap(matrix: RateMatrix, vec: np.ndarray) -> PopulationState:
    if vec.min() < -NEGATIVE_TOLERANCE:
        raise RuntimeError(f"integration produced negative population {vec.min():.2e}")
    return PopulationState.from_vector(np.clip(vec, 0.0, None), matrix.grid_shape)


def evolve(matrix: RateMatrix, initial: PopulationState,
           duration: float) -> PopulationState:
    """Evolve a population for `duration` seconds under a fixed generator.

    The shift-and-invert Krylov propagator runs first; when its answer
    does not converge to ATOL + RTOL max|p|, drifts in total probability
    or goes negative, LSODA with the exact Jacobian takes over.  The
    dense matrix exponential that judges both lives in the test oracles
    (tests/oracles.py, expm_populations), not here.  A LeakWarning is
    raised when the leaked probability exceeds the configured threshold.
    """
    if duration < 0:
        raise ValueError("duration must be >= 0")
    return evolve_series(matrix, initial, [duration])[0]


def evolve_series(matrix: RateMatrix, initial: PopulationState,
                  times) -> list[PopulationState]:
    """Evolve and sample the population at each time in an increasing list.

    One propagation serves every time: one factorization and one Krylov
    basis, or one LSODA run on fallback, as in evolve.  Tests compare the
    result with a dense matrix exponential per time.  A LeakWarning is
    raised when the leaked probability at the last time exceeds the
    configured threshold.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0 or np.any(np.diff(times) <= 0) or times[0] < 0:
        raise ValueError("times must be strictly increasing and >= 0")
    initial.validate()
    y = _integrate(matrix, initial.to_vector(), times)
    states = [_check_and_wrap(matrix, y[:, k]) for k in range(times.size)]
    if states[-1].leaked > matrix.leak_warn_fraction:
        warnings.warn(
            f"population outside the motional grid reaches {states[-1].leaked:.2%} "
            f"(threshold {matrix.leak_warn_fraction:.2%})", LeakWarning, stacklevel=2)
    return states


def scaled_time(tau_spec: float, scenario: SpectroscopyScenario) -> float:
    """Dimensionless pulse time: tau_spec times the resonant absorption rate.

    Roughly the number of photons scattered during the pulse; spectra at
    equal scaled time nearly coincide when heating is negligible.
    """
    r_res = base_rate(scenario.laser, scenario.line, 0.0, "absorption")
    return float(tau_spec * r_res)
