"""Sideband coupling amplitudes between motional Fock states.

The coupling of an internal transition to a simultaneous change of the
motional state by s quanta is a product of two per-mode factors, each
built from a generalized Laguerre polynomial:

    xi_mode(eta, n, s) = exp(-eta^2/2) (i eta)^|s| sqrt(n_<!/n_>!) L_{n_<}^{|s|}(eta^2)

with n_< = min(n, n+s), n_> = max(n, n+s).  Rate computations use
|xi|^2 only; the i^|s| phase is carried for completeness.  The Laguerre
polynomials come from their three-term recurrence in the degree, the
one scipy.special.eval_genlaguerre runs for an integer degree; it stays
stable for the n <= 40 range used here, where factorial sums overflow
and cancel badly.
"""

import numpy as np


def xi_mode(eta: float, n: int, s: int) -> complex:
    """Single-mode coupling amplitude for the jump n -> n + s."""
    if n < 0:
        raise ValueError(f"motional quantum number must be >= 0, got {n}")
    if n + s < 0:
        raise ValueError(f"final quantum number n + s = {n + s} is negative")
    a = abs(s)
    return (1j) ** a * xi_mode_table(eta, n, a)[n, a + s]


def xi(eta_ip: float, eta_op: float, n_ip: int, n_op: int,
       s_ip: int, s_op: int) -> complex:
    """Two-mode coupling amplitude for (n_ip, n_op) -> (n_ip+s_ip, n_op+s_op).

    Raises ValueError if either final quantum number would be negative.
    |xi| <= 1 always.
    """
    return xi_mode(eta_ip, n_ip, s_ip) * xi_mode(eta_op, n_op, s_op)


def xi_lamb_dicke(eta_ip: float, eta_op: float, n_ip: int, n_op: int,
                  s_ip: int, s_op: int) -> float:
    """Lowest-order coupling magnitude, valid deep in the Lamb-Dicke regime.

    Per mode: eta^|s| / |s|! * sqrt(n_>! / n_<!) for s in {0, +-1}, zero
    otherwise.  First blue sideband from n gives eta*sqrt(n+1), first red
    gives eta*sqrt(n).
    """
    def factor(eta, n, s):
        if s not in (-1, 0, 1):
            return 0.0
        if n + s < 0:
            return 0.0
        n_hi = max(n, n + s)
        if s == 0:
            return 1.0
        return eta * np.sqrt(n_hi)

    return float(factor(eta_ip, n_ip, s_ip) * factor(eta_op, n_op, s_op))


def xi_mode_table(eta, n_max: int, s_max: int) -> np.ndarray:
    """Signed real per-mode amplitudes for all n -> n + s on a grid.

    Returns an array T of shape (n_max+1, 2*s_max+1) with
    T[n, s_max + s] = xi_mode(eta, n, s) stripped of its i^|s| phase;
    entries with n + s < 0 are zero.  eta may also be a 1-D array of
    values (e.g. quadrature nodes), giving shape (len(eta), n_max+1,
    2*s_max+1), also for a single node.

    Squaring this table gives the |xi|^2 factors used by the rate
    engine; tables are immutable once built and safe to share.
    """
    eta = np.asarray(eta, dtype=float)[..., None, None]
    x = eta * eta
    n = np.arange(n_max + 1)[:, None]
    s = np.arange(-s_max, s_max + 1)
    a = np.abs(s)
    n_lo = np.minimum(n, n + s)
    ok = n_lo >= 0
    n_lo = np.where(ok, n_lo, 0)
    # q[..., k, alpha] = L_k^alpha(x) / binom(k + alpha, k), by the
    # three-term recurrence in the form scipy's eval_genlaguerre runs
    alpha = np.arange(s_max + 1)
    d = -x[..., 0] / (alpha + 1.0)
    q = [np.ones_like(d), 1.0 + d]
    for k in range(1, n_max):
        d = (k * d - x[..., 0] * q[k]) / (k + alpha + 1.0)
        q.append(q[k] + d)
    q = np.stack(q[:n_max + 1], axis=-2)[..., n_lo, a]
    # sqrt(n_lo! / (n_lo + a)!) binom(n_lo + a, n_lo) = sqrt(rising) / a!,
    # with rising = (n_lo + 1) ... (n_lo + a), exact below 2**53
    j = np.arange(1, s_max + 1)
    rising = np.prod(np.where(j <= a[:, None], n_lo[..., None] + j, 1.0), axis=-1)
    a_fact = np.cumprod(np.maximum(alpha, 1.0))
    table = np.exp(-x / 2.0) * eta**a * np.sqrt(rising) / a_fact[a] * q
    return np.where(ok, table, 0.0)
