"""Rate-equation engine for the driven two-ion motional state grid.

The population over (target internal state) x (n_ip, n_op) obeys linear
rate equations: absorption and stimulated emission proportional to the
laser-sideband couplings |xi|^2, spontaneous emission weighted by the
solid-angle-averaged coefficients D, and a uniform upward heating ladder
per mode.  The grid and the sideband range are truncated; any
transition leaving them feeds an absorbing leak accumulator so
probability stays exactly conserved.

The generator is held as its laser-independent in-grid jump blocks; the
dense square is built only on demand (RateMatrix.dense).  Propagations
on one grid shape write their large arrays into one kept workspace.
"""

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .coupling import xi_mode_table
from .ion_mechanics import BeamGeometry, TwoIonSystem, lamb_dicke
from .radiation import (EmissionPattern, LaserField, TransitionLine,
                        base_rate, emission_coefficients)


_log = logging.getLogger(__name__)

# propagation tolerance: answers agree to ATOL + RTOL sum(p)
RTOL = 1e-9
ATOL = 1e-12

# shift-and-invert Krylov propagator: the shift is this fraction of the
# largest requested time; the basis grows from M_START in steps of M_STEP
# until two successive sizes agree to the tolerance, up to M_MAX
KRYLOV_SHIFT = 0.05
KRYLOV_M_START = 8
KRYLOV_M_STEP = 4
KRYLOV_M_MAX = 80

# most negative population entry a propagation may return; smaller ones
# are integration error, not roundoff
NEGATIVE_TOLERANCE = 1e-10

# diagonal Pade approximant of degree 13 to exp: numerator coefficients,
# and the largest 1-norm it takes unscaled to double precision
PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
          1187353796428800.0, 129060195264000.0, 10559470521600.0,
          670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
          960960.0, 16380.0, 182.0, 1.0)
PADE13_THETA = 5.371920351148152
# 1 / |c_27| of the Pade-13 backward-error series (Al-Mohy & Higham 2009)
PADE13_ERROR = 113250775606021113483283660800000000.0

# _block_inverse recurses on halves down to blocks of this size
BLOCK_INVERSE_LEAF = 64


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
        if not 0 <= self.leak_warn_fraction <= 1:
            raise ValueError("leak_warn_fraction must lie in [0, 1]")

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
    def laser_coupling(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-mode |xi|^2 tables (ip, op) for the spectroscopy beam."""
        if "xi2" not in self._cache:
            eta_ip, eta_op = lamb_dicke(self.system, self.beam, "target")
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

    def jump_blocks(self) -> tuple:
        """The generator's laser-independent in-grid jump families, built
        once, over the motional states in grid order: the laser's per-mode
        factors (P_ip, P_op), P[m, n] = |xi(n, m - n)|^2, whose Kronecker
        product weighs the jump n -> m; the spontaneous block D[m, n]; and
        the heating ladder's two rates (heat_ip, heat_op), one quantum up
        in n_ip or in n_op.  By completeness each laser and D column
        would sum to 1 untruncated; what a column lacks leaves the grid."""
        if "jumps" not in self._cache:
            self._cache["jumps"] = (
                tuple(_in_grid_block(x[:, None, :, None])
                      for x in self.laser_coupling()),
                _in_grid_block(self.d_table()), (self.heat_ip, self.heat_op))
        return self._cache["jumps"]

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


def _in_grid_block(weights: np.ndarray) -> np.ndarray:
    """block[m, n], the weight of the in-grid motional jump n -> m, from
    weights[n_ip, n_op, s_ip_max+u_ip, s_op_max+u_op], the weight of the
    jump n -> n+u; the grid and the sideband range are read from the
    shape of weights."""
    n_ip, n_op, w_ip, w_op = weights.shape
    mip = (np.arange(n_ip)[:, None, None, None]
           + np.arange(w_ip)[:, None] - w_ip // 2)
    mop = np.arange(n_op)[:, None, None] + np.arange(w_op) - w_op // 2
    src = np.broadcast_to(np.arange(n_ip * n_op).reshape(n_ip, n_op, 1, 1),
                          weights.shape)
    # weights are exactly zero below the grid; mask anyway to keep indices legal
    in_grid = (mip >= 0) & (mop >= 0) & (mip < n_ip) & (mop < n_op)
    block = np.zeros((n_ip * n_op, n_ip * n_op))
    block[(mip * n_op + mop)[in_grid], src[in_grid]] = weights[in_grid]
    return block


@dataclass
class RateMatrix:
    """Generator G of dP/dt = G P at one laser detuning, as jump blocks.

    G sums five channels, each a jump family of the scenario times a
    rate: absorption g -> e (laser, r), stimulated emission e -> g
    (laser, rho r), spontaneous emission e -> g (D, Gamma_t or 0) and
    heating within g and within e (the ladder, at its own rates).  rates
    holds the first three.  Each channel's weights out of a state sum to
    1, so the diagonal is -(r + h) on the ground grid and -(rho r +
    Gamma_t + h) on the excited grid, h = heat_ip + heat_op; what the
    grid and the sideband range do not keep feeds the leak row, so
    column sums vanish.  The jump families and the grid are the
    scenario's (SpectroscopyScenario.jump_blocks): the laser block is
    held as its per-mode factors and the heating ladder as its two
    rates; dense forms them on demand.
    """
    scenario: SpectroscopyScenario
    rates: tuple[float, float, float]
    detuning: float

    def dense(self) -> np.ndarray:
        """G as a (2 n_mot + 1)^2 array, built anew on each call: the
        ground grid, the excited grid, then the leak row, whose entries
        are the rates not kept in the grid and whose column is zero."""
        (p_ip, p_op), d_block, (heat_ip, heat_op) = self.scenario.jump_blocks()
        r_abs, r_stim, gamma = self.rates
        n_ip, n_op = self.scenario.grid_shape
        laser = np.kron(p_ip, p_op)
        ladder = (heat_ip * np.kron(np.eye(n_ip, k=-1), np.eye(n_op))
                  + heat_op * np.kron(np.eye(n_ip), np.eye(n_op, k=-1)))
        n_g = n_ip * n_op
        n = 2 * n_g
        out = np.zeros((n + 1, n + 1))
        out[:n, :n] = np.block([[ladder, r_stim * laser + gamma * d_block],
                                [r_abs * laser, ladder]])
        heat = heat_ip + heat_op
        np.fill_diagonal(out[:n, :n], np.repeat(
            [-(r_abs + heat), -(r_stim + gamma + heat)], n_g))
        # each unit-weight block's remainder, and the ladder's top edges
        laser_off, d_off = (np.clip(1.0 - b.sum(axis=0), 0.0, None)
                            for b in (laser, d_block))
        edge = ((np.arange(n_ip) == n_ip - 1)[:, None] * heat_ip
                + (np.arange(n_op) == n_op - 1) * heat_op).ravel()
        out[n, :n] = np.concatenate([r_abs * laser_off + edge,
                                     r_stim * laser_off + gamma * d_off + edge])
        return out


def build_rate_matrix(scenario: SpectroscopyScenario, detuning: float,
                      include_spontaneous: bool = True) -> RateMatrix:
    """The linear rate generator r K + C at one detuning (rad/s).

    r is the absorption base rate: absorption g,(n) -> e,(n+s) at
    r |xi(n,s)|^2, stimulated emission e,(n) -> g,(n+s) at rho r |xi|^2
    (the same table by the n_< / n_> symmetry).  C holds spontaneous
    emission at Gamma_t D and the heating ladder; include_spontaneous=False
    keeps only the ladder, which runs at the scenario's heating rates.
    Jumps past the grid edge or the sideband range feed the leak row.
    rates is (r, rho r, Gamma_t or 0).  The scenario's jump blocks are
    built here on first use.
    """
    line = scenario.line
    rate = base_rate(scenario.laser, line, detuning)
    rho = line.stimulated_scale / line.absorption_scale
    scenario.jump_blocks()
    return RateMatrix(scenario, (rate, rho * rate,
                                 line.gamma_t if include_spontaneous else 0.0),
                      detuning)


# ---------------------------------------------------------------------------
# time evolution
# ---------------------------------------------------------------------------

def expm(a) -> np.ndarray:
    """Matrix exponential of a square matrix, or of each in a stack (..., m, m).

    Pade approximant of degree 13 with scaling and squaring: each matrix
    is scaled by 2^-s and the approximant squared s times (Higham, SIAM
    J. Matrix Anal. Appl. 26 (2005) 1179).  s follows from the norms of
    the powers A^6 ... A^10 and the backward-error correction of Al-Mohy
    and Higham (SIAM J. Matrix Anal. Appl. 31 (2009) 970), which is what
    scipy.linalg.expm does for this degree.  A matrix with a non-finite
    entry, or whose exponential overflows, gives non-finite entries,
    never an exception or a warning.
    """
    a = np.asarray(a, dtype=float)
    stack = a.reshape((-1,) + a.shape[-2:])
    b = PADE13
    with np.errstate(all="ignore"):
        norm = np.abs(stack).sum(axis=1).max(axis=1)
        finite = np.isfinite(norm)
        stack = np.where(finite[:, None, None], stack, 0.0)
        norm = np.where(finite, norm, 0.0)
        # ||A^k||^(1/k) from the powers of A / ||A||, which cannot overflow
        unit = stack / np.maximum(norm, np.finfo(float).tiny)[:, None, None]
        u2 = unit @ unit
        u4 = u2 @ u2
        u6 = u4 @ u2
        d = [np.abs(p).sum(axis=1).max(axis=1) ** (1.0 / k)
             for k, p in ((6, u6), (8, u4 @ u4), (10, u4 @ u6))]
        eta = norm * np.minimum(np.maximum(d[0], d[1]), np.maximum(d[1], d[2]))
        s = np.ceil(np.log2(np.maximum(eta / PADE13_THETA, 1.0))).astype(int)
        s += _pade13_extra_squarings(np.ldexp(stack, -s[:, None, None]))
        x = np.ldexp(stack, -s[:, None, None])
        eye = np.eye(a.shape[-1])
        x2 = x @ x
        x4 = x2 @ x2
        x6 = x4 @ x2
        u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
                 + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye)
        v = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
             + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye)
        r = np.linalg.solve(v - u, v + u)
        for k in range(s.max(initial=0)):
            r = np.where((k < s)[:, None, None], r @ r, r)
    r[~finite] = np.nan
    return r.reshape(a.shape)


def _pade13_extra_squarings(x: np.ndarray) -> np.ndarray:
    """Further halvings of each scaled matrix x that the Pade-13 error bound
    asks for: ell(x, 13) of Al-Mohy and Higham (2009), from || |x|^27 ||_1."""
    p1 = np.abs(x)
    p2 = p1 @ p1
    p8 = p2 @ p2
    p8 = p8 @ p8
    # 1^T |x|^27 = 1^T |x| |x|^2 |x|^8 |x|^16
    w = p1.sum(axis=1)[:, None, :] @ p2 @ p8 @ (p8 @ p8)
    with np.errstate(all="ignore"):
        alpha = w.max(axis=(1, 2)) / (p1.sum(axis=1).max(axis=1) * PADE13_ERROR)
        extra = np.ceil(np.log2(alpha / 2.0**-53) / 26.0)
    return np.where(np.isfinite(extra) & (extra > 0), extra, 0.0).astype(int)


def _krylov_series(basis: np.ndarray, hess: np.ndarray, beta: float,
                   shift: float, times: np.ndarray) -> np.ndarray:
    """beta V_m expm(t G_m) e_1 at every t, with G_m = (I - H_m^-1) / shift,
    as (n, len(times)) from the basis V_m^T, one vector per row.

    An intermediate H_m can be nearly singular, so G_m may overflow expm;
    the result is then non-finite, never a warning.
    """
    m = hess.shape[0]
    with np.errstate(all="ignore"):
        try:
            g_m = (np.eye(m) - np.linalg.inv(hess)) / shift
        except np.linalg.LinAlgError:
            return np.full((basis.shape[1], times.size), np.nan)
        coeffs = expm(times[:, None, None] * g_m)[:, :, 0]
        return beta * (coeffs @ basis).T


class _Workspace:
    """The buffers of one propagation on one grid shape: A_ge, which
    becomes A_gg^-1 A_ge, then S and then its factor (schur); the
    factor's scratch; the row inverse's transpose and the doubled powers
    of the ground block's row step (ground, _ground_solve); and the
    Krylov basis, one vector per row, and the Hessenberg matrix.  owner
    is the token of the solver that took them last."""

    def __init__(self, grid_shape: tuple[int, int]):
        n_ip, n_op = grid_shape
        n_g = n_ip * n_op
        m_max = min(KRYLOV_M_MAX, 2 * n_g)
        self.grid_shape = grid_shape
        self.schur = np.empty((n_g, n_g))
        # _block_factor of an n x n matrix needs n (n + 1) / 2 entries,
        # more than a pass over one grid row (n_op n_g, as n_ip >= 2)
        self.scratch = np.empty(n_g * (n_g + 1) // 2)
        # inv_row^T, then (c_ip inv_row^T)^(2^k) for 2^k < n_ip
        self.ground = np.empty((int(n_ip - 1).bit_length() + 1, n_op, n_op))
        self.basis = np.empty((m_max + 1, 2 * n_g))
        self.hess = np.empty((m_max + 1, m_max))
        self.owner = None


_workspace = None


def _take_workspace(grid_shape: tuple[int, int]) -> _Workspace:
    """The process's workspace, replaced only when the grid shape changes,
    with a new owner token.  It is not kept per scenario: a width curve
    over laser widths builds one scenario per width on one grid."""
    global _workspace
    if _workspace is None or _workspace.grid_shape != grid_shape:
        _workspace = None  # free the old buffers before taking new ones
        _workspace = _Workspace(grid_shape)
    _workspace.owner = object()
    return _workspace


def _row_inverse(n_op: int, diag: float, c_op: float) -> np.ndarray:
    """Inverse of the bidiagonal block that every grid row of the ground
    block A_gg shares, diag on its diagonal and -c_op on the n_op ladder:
    [j, l] = c_op^(j - l) / diag^(j - l + 1) for j >= l (c_op < diag, so
    no power overflows)."""
    lag = np.subtract.outer(np.arange(n_op), np.arange(n_op))
    return np.tril((c_op / diag) ** lag.clip(0)) / diag


def _ladder_solve(ws: _Workspace, inv_row: np.ndarray, c_ip: float) -> None:
    """A_ge -> A_gg^-1 A_ge in ws.schur, in place, for the ground block
    A_gg = I - shift G_gg.

    A_gg is one scalar on its diagonal and -c_ip, -c_op on the upward
    heating ladders.  In blocks of one n_ip row of the grid, it is lower
    block-bidiagonal: the n_op ladder stays within a row, and the n_ip
    ladder feeds row i from the same n_op in row i - 1.  Substitution
    runs down the rows, each by the shared row inverse inv_row
    (_row_inverse).
    """
    n_ip, n_op = ws.grid_shape
    n_g = n_ip * n_op
    x = ws.schur.reshape(n_ip, n_op, n_g)
    t = ws.scratch[:n_op * n_g].reshape(n_op, n_g)
    for i in range(n_ip):
        if i:
            np.multiply(x[i - 1], c_ip, out=t)
            t += x[i]
        else:
            t[...] = x[i]
        np.matmul(inv_row, t, out=x[i])


def _ground_powers(ws: _Workspace, inv_row: np.ndarray, c_ip: float) -> None:
    """inv_row^T and the powers (c_ip inv_row^T)^(2^k) in ws.ground, for
    _ground_solve."""
    ws.ground[0] = inv_row.T
    np.multiply(inv_row.T, c_ip, out=ws.ground[1])
    for k in range(2, len(ws.ground)):
        np.matmul(ws.ground[k - 1], ws.ground[k - 1], out=ws.ground[k])


def _ground_solve(ws: _Workspace, b: np.ndarray) -> np.ndarray:
    """A_gg^-1 b for a ground-grid vector b, from ws.ground.

    Over b's grid rows, as row vectors, A_gg^-1 b runs the recurrence of
    _ladder_solve, x_i = y_i + x_(i-1) P with y_i = b_i inv_row^T and
    P = c_ip inv_row^T.  Recursive doubling (Kogge & Stone, IEEE Trans.
    Comput. C-22 (1973) 786) sums it: after the step with P^(2^k), row
    i holds the sum over lags a < 2^(k+1) of y_(i-a) P^a, so
    ceil(log2 n_ip) steps cover every lag.
    """
    n_ip, n_op = ws.grid_shape
    x = b.reshape(n_ip, n_op) @ ws.ground[0]
    for k, power in enumerate(ws.ground[1:]):
        x[1 << k:] += x[:-(1 << k)] @ power
    return x.reshape(-1)


def _block_factor(a: np.ndarray, scratch: np.ndarray) -> tuple:
    """2x2 block elimination of a on halves, without pivoting, in place:
    a's diagonal halves become inv(A11) and the inverse of the Schur
    complement, and inv(A11) A12 goes to the front of scratch, which
    must hold n (n + 1) / 2 entries.  Returns those three and A21.  Valid
    when every leading block and its Schur complement is nonsingular, as
    for a column-diagonally-dominant M-matrix: its leading blocks and
    Schur complements are again such matrices."""
    n = a.shape[0]
    h = n // 2
    inv_tl, below, inv_br = a[:h, :h], a[h:, :h], a[h:, h:]
    _block_inverse(inv_tl, scratch)
    right = np.matmul(inv_tl, a[:h, h:],
                      out=scratch[:h * (n - h)].reshape(h, n - h))
    rest = scratch[right.size:]
    inv_br -= np.matmul(below, right,
                        out=rest[:inv_br.size].reshape(inv_br.shape))
    _block_inverse(inv_br, rest)
    return inv_tl, right, below, inv_br


def _block_inverse(a: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Inverse of a from _block_factor, in place, down to
    BLOCK_INVERSE_LEAF."""
    if a.shape[0] <= BLOCK_INVERSE_LEAF:
        a[...] = np.linalg.inv(a)
        return a
    inv_tl, right, below, inv_br = _block_factor(a, scratch)
    h = inv_tl.shape[0]
    # negate the contiguous scratch operands, not the strided halves of a:
    # an in-place ufunc on a strided 2-D view takes numpy's 128 KB buffers
    tmp = scratch[right.size:][:below.size].reshape(below.shape)
    np.matmul(inv_br, below, out=tmp)
    np.negative(tmp, out=tmp)
    np.matmul(tmp, inv_tl, out=below)
    np.negative(right, out=right)
    np.matmul(right, inv_br, out=a[:h, h:])
    inv_tl += np.matmul(right, below,
                        out=scratch[right.size:][:h * h].reshape(h, h))
    return a


def _block_solve(factors: tuple, b: np.ndarray) -> np.ndarray:
    """a^-1 b from the _block_factor of a, in about n^2 multiply-adds."""
    inv_tl, right, below, inv_br = factors
    z = inv_tl @ b[:inv_tl.shape[0]]
    x = inv_br @ (b[inv_tl.shape[0]:] - below @ z)
    return np.concatenate([z - right @ x, x])


def _shift_invert_solver(matrix: RateMatrix, shift: float):
    """Solver for (I - shift G) x = b by elimination of the ground block.

    G is over the in-grid states, the ground grid, then the excited grid
    (n = 2 n_mot).  Only heating keeps the internal state, so A_gg is
    the heating ladder on one scalar diagonal: _ladder_solve gives
    A_gg^-1 A_ge, and each solve applies A_gg^-1 by recursive doubling
    of the same row recurrence (_ground_solve), never formed.  Only
    absorption leads from g to e, so A_eg = -shift r (P_ip kron P_op) is
    applied per mode, never formed.  S = A_ee - A_eg A_gg^-1 A_ge
    eliminates the excited block densely, built over A_ge in one n_mot^2
    buffer.  I - shift G is a column-diagonally-dominant M-matrix
    (off-diagonals <= 0, column sums >= 1), and so is S, which
    _block_factor therefore factors without pivoting.  Each solve reads
    two n_mot^2 operators, the factor of S and D:

        y = A_gg^-1 b_g,  x_e = S^-1 (b_e - A_eg y),
        x_g = y - A_gg^-1 A_ge x_e.

    Every large array is built in the process's workspace for the grid
    shape, which the next call takes over: the solve of an earlier call
    then raises RuntimeError.
    """
    n_ip, n_op = grid_shape = matrix.scenario.grid_shape
    n_g = n_ip * n_op
    ws = _take_workspace(grid_shape)
    token = ws.owner
    (p_ip, p_op), d_block, (heat_ip, heat_op) = matrix.scenario.jump_blocks()
    r_abs, r_stim, gamma = matrix.rates
    heat = heat_ip + heat_op
    c_ip, c_op = heat_ip * shift, heat_op * shift
    inv_row = _row_inverse(n_op, (r_abs + heat) * shift + 1.0, c_op)
    p_abs, p_stim = shift * r_abs * p_ip, shift * r_stim * p_ip
    # A_ge = -shift (r_stim P_ip kron P_op + Gamma D); the Kronecker
    # product as a stack of outer products, which numpy forms unbuffered
    rows = ws.schur.reshape(n_ip, n_op, n_g)
    np.matmul(-p_stim[:, None, :, None], p_op[None, :, None, :],
              out=ws.schur.reshape(n_ip, n_op, n_ip, n_op))
    tmp = ws.scratch[:n_op * n_g].reshape(n_op, n_g)
    for i in range(n_ip):
        rows[i] += np.multiply(d_block[i * n_op:(i + 1) * n_op],
                               -shift * gamma, out=tmp)
    _ladder_solve(ws, inv_row, c_ip)
    _ground_powers(ws, inv_row, c_ip)
    # S = A_ee - A_eg A_gg^-1 A_ge: -A_eg = P_ip (P_op .) per mode, over
    # half of the columns at a time through the scratch, and then the
    # diagonal and the ladder of A_ee
    for cols in (slice(0, n_g // 2), slice(n_g // 2, n_g)):
        y = ws.scratch[:n_g * (cols.stop - cols.start)].reshape(n_ip, n_op, -1)
        np.matmul(p_op, rows[:, :, cols], out=y)
        np.matmul(p_abs, y.transpose(1, 0, 2),
                  out=rows[:, :, cols].transpose(1, 0, 2))
    flat = ws.schur.reshape(-1)
    flat[::n_g + 1] += (r_stim + gamma + heat) * shift + 1.0
    flat[n_op * n_g::n_g + 1] -= c_ip
    op_up = flat[n_g::n_g + 1]
    op_up[np.arange(n_g - 1) % n_op < n_op - 1] -= c_op
    factors = _block_factor(ws.schur, ws.scratch)

    def laser(p: np.ndarray, x: np.ndarray) -> np.ndarray:
        # (p kron P_op) x, one product per mode
        return (p @ x.reshape(n_ip, n_op) @ p_op.T).reshape(-1)

    def solve(b: np.ndarray) -> np.ndarray:
        if ws.owner is not token:
            raise RuntimeError("a later factorization has taken this "
                               "solver's buffers")
        y = _ground_solve(ws, b[:n_g])
        x_e = _block_solve(factors, b[n_g:] + laser(p_abs, y))
        # -A_ge x_e = shift (r_stim P + Gamma D) x_e
        y += _ground_solve(ws, laser(p_stim, x_e)
                           + shift * gamma * (d_block @ x_e))
        return np.concatenate([y, x_e])

    return solve


def _krylov(matrix: RateMatrix, p0: np.ndarray,
            times: np.ndarray) -> np.ndarray:
    """Shift-and-invert Krylov propagation to every time from one basis.

    p0 is a nonzero in-grid state and G the in-grid block of the
    generator.  One factorization of (I - shift G), shift = KRYLOV_SHIFT
    t_max (_shift_invert_solver); Arnoldi on its inverse (classical
    Gram-Schmidt, reorthogonalised) gives V_m and H_m, and G is
    approximated by V_m G_m V_m^T (van den Eshof & Hochbruck, SIAM J.
    Sci. Comput. 27 (2006) 1438).  The answer is checked at KRYLOV_M_START
    vectors and every KRYLOV_M_STEP more, until two successive checks are
    finite and agree to ATOL + RTOL sum(p0) at every time, or the space
    becomes invariant.  Raises RuntimeError, naming the check and the
    detuning, when that never happens within KRYLOV_M_MAX or when an
    entry falls below -NEGATIVE_TOLERANCE.
    """
    shift = KRYLOV_SHIFT * float(times[-1])
    solve = _shift_invert_solver(matrix, shift)
    # the basis and Hessenberg matrix of the workspace the solver took
    basis, hess = _workspace.basis, _workspace.hess
    hess[...] = 0.0
    m_max = hess.shape[1]
    beta = float(np.linalg.norm(p0))
    np.divide(p0, beta, out=basis[0])
    tolerance = ATOL + RTOL * float(p0.sum())
    where = f"at detuning {matrix.detuning / (2 * np.pi):.6g} Hz"
    previous = None
    for j in range(m_max):
        m = j + 1
        w = solve(basis[j])
        w_norm = np.linalg.norm(w)
        for _ in range(2):
            h = basis[:m] @ w
            w -= h @ basis[:m]
            hess[:m, j] += h
        hess[m, j] = np.linalg.norm(w)
        invariant = hess[m, j] <= 1e-12 * w_norm
        if invariant or (m >= KRYLOV_M_START
                         and (m - KRYLOV_M_START) % KRYLOV_M_STEP == 0):
            p = _krylov_series(basis[:m], hess[:m, :m], beta, shift, times)
            if not np.all(np.isfinite(p)):
                p = None
            elif invariant or (previous is not None
                               and np.abs(p - previous).max() <= tolerance):
                break
            if invariant:
                raise RuntimeError(f"Krylov answer on the invariant space of "
                                   f"size {m} is not finite {where}")
            previous = p
        np.divide(w, hess[m, j], out=basis[m])
    else:
        raise RuntimeError(f"no two Krylov basis sizes up to {m_max} agreed "
                           f"to the tolerance {where}")
    _log.debug("krylov: m = %d, min %.1e", m, p.min())
    if p.min() < -NEGATIVE_TOLERANCE:
        raise RuntimeError(f"Krylov answer has a negative population "
                           f"{p.min():.2e} {where}")
    return p


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call; nothing here
    calls it.  It exists only because benchmarks/traced.py rebinds
    rate_engine.solve_ivp to count solver work, and it goes when that
    tracer changes with the per-solve record of ROADMAP item 6."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(*args, **kwargs)


def _integrate(matrix: RateMatrix, p0: np.ndarray,
               times: np.ndarray) -> np.ndarray:
    """Propagate p0 to each requested time; returns (n_states, len(times)).

    Only the 2 n_mot in-grid states are propagated, by _krylov, which
    raises RuntimeError when its answer fails a check.  The leak row is
    absorbing and every generator column sums to zero, so the leak is
    the conserved total sum(p0) less the in-grid total, and it never
    falls below its initial value: an in-grid total a tolerance above
    sum(p0) would otherwise give a negative leak.
    """
    n = p0.size - 1
    p_in = p0[:n]
    if times[-1] == 0.0 or not p_in.any():
        return np.repeat(p0[:, None], len(times), axis=1)
    out = _krylov(matrix, p_in, times)
    return np.vstack([out, np.maximum(p0.sum() - out.sum(axis=0), p0[n])])


def evolve_series(matrix: RateMatrix, initial: PopulationState,
                  times) -> list[PopulationState]:
    """Evolve and sample the population at each time in an increasing list.

    One propagation of the in-grid states serves every time: one
    factorization and one shift-and-invert Krylov basis.  When its answer
    does not converge to ATOL + RTOL sum(p) or goes negative,
    RuntimeError is raised; entries within the tolerance below zero are
    clipped to zero.  The leak at each time is what the grid lost: the
    total probability less the in-grid total.  The dense matrix
    exponential that judges the propagator lives in the test oracles
    (tests/oracles.py, expm_populations), not here.  Each state carries
    its leak; judging it against the scenario's leak_warn_fraction is
    left to the caller.
    """
    times = np.asarray(times, dtype=float)
    if (times.ndim != 1 or times.size == 0 or not np.isfinite(times).all()
            or np.any(np.diff(times) <= 0) or times[0] < 0):
        raise ValueError("times must be finite, 1-D, strictly increasing and >= 0")
    grid_shape = matrix.scenario.grid_shape
    if initial.p.shape != (2,) + grid_shape:
        raise ValueError(f"initial state has shape {initial.p.shape}, the "
                         f"generator needs {(2,) + grid_shape}")
    initial.validate()
    y = np.clip(_integrate(matrix, initial.to_vector(), times), 0.0, None)
    return [PopulationState.from_vector(y[:, k], grid_shape)
            for k in range(times.size)]


def scaled_time(tau_spec: float, scenario: SpectroscopyScenario) -> float:
    """Dimensionless pulse time: tau_spec times the resonant absorption rate.

    Roughly the number of photons scattered during the pulse; spectra at
    equal scaled time nearly coincide when heating is negligible.
    """
    return float(tau_spec * base_rate(scenario.laser, scenario.line, 0.0))
