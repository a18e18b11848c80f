import numpy as np
import pytest

from recoilspec.coupling import xi, xi_lamb_dicke, xi_mode, xi_mode_table

from oracles import xi_double_sum, xi_double_sum_mode, xi_mode_table_scipy


def test_carrier_with_zero_recoil_is_unity():
    for n in [(0, 0), (3, 5), (12, 7)]:
        assert xi(0.0, 0.0, *n, 0, 0) == pytest.approx(1.0, abs=1e-15)


def test_no_coupling_without_recoil():
    assert xi(0.0, 0.0, 2, 2, 1, 0) == 0.0
    assert xi(0.0, 0.0, 2, 2, 0, -1) == 0.0


def test_rejects_negative_quantum_numbers():
    with pytest.raises(ValueError):
        xi(0.3, 0.3, 0, 0, -1, 0)
    with pytest.raises(ValueError):
        xi(0.3, 0.3, 1, 1, 0, -2)
    with pytest.raises(ValueError):
        xi_mode(0.3, -1, 0)


def test_matches_double_sum_from_ground_state():
    # every sideband within the default truncation, from the motional ground state
    for s_ip in range(-5, 6):
        for s_op in range(-6, 7):
            n_ip, n_op = max(0, -s_ip), max(0, -s_op)
            got = xi(0.30, 0.36, n_ip, n_op, s_ip, s_op)
            want = xi_double_sum(0.30, 0.36, n_ip, n_op, s_ip, s_op)
            assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("eta", [0.05, 0.30, 0.51])
@pytest.mark.parametrize("n", [0, 3, 10, 25])
def test_mode_amplitude_matches_double_sum(eta, n):
    for s in range(-6, 7):
        if n + s < 0:
            continue
        got = xi_mode(eta, n, s)
        want = xi_double_sum_mode(eta, n, s)
        assert got == pytest.approx(want, abs=1e-10)


def test_magnitude_bounded_by_one():
    table = np.abs(xi_mode_table(0.51, 40, 6))
    assert table.max() <= 1.0 + 1e-12


def test_symmetry_under_path_reversal():
    for n in (0, 2, 7):
        for s in (1, 2, 5):
            fwd = abs(xi(0.3, 0.4, n, n, s, s))
            rev = abs(xi(0.3, 0.4, n + s, n + s, -s, -s))
            assert fwd == pytest.approx(rev, rel=1e-12)


def test_phase_is_i_to_the_sideband_order():
    for (s_ip, s_op) in [(0, 1), (1, 1), (2, -1), (-3, 2)]:
        n_ip, n_op = max(0, -s_ip) + 1, max(0, -s_op) + 2
        val = xi(0.3, 0.4, n_ip, n_op, s_ip, s_op)
        rotated = val / (1j) ** (abs(s_ip) + abs(s_op))
        assert abs(rotated.imag) < 1e-15


@pytest.mark.parametrize("eta,n", [(0.3, 0), (0.3, 4), (0.51, 2), (0.1, 9)])
def test_completeness_over_sidebands(eta, n):
    # unitarity: summed over every reachable sideband, |xi|^2 adds to 1
    s_max = 10
    while True:
        table = xi_mode_table(eta, n, s_max) ** 2
        tail = table[n, [0, -1]].max()
        if tail < 1e-8:
            break
        s_max += 5
    assert table[n].sum() == pytest.approx(1.0, abs=1e-6)


def test_two_mode_completeness():
    t_ip = xi_mode_table(0.30, 0, 12) ** 2
    t_op = xi_mode_table(0.36, 0, 12) ** 2
    total = np.outer(t_ip[0], t_op[0]).sum()
    assert total == pytest.approx(1.0, abs=1e-6)


def test_table_matches_double_sum():
    # scalar and quadrature-node eta, every n <= 25 and |s| <= 6; the
    # table drops the i^|s| phase and zeroes the unreachable n + s < 0
    etas = np.array([0.05, 0.0917, 0.30, 0.51, -0.36])
    nodes = xi_mode_table(etas, 25, 6)
    for k, eta in enumerate(etas):
        table = xi_mode_table(eta, 25, 6)
        assert np.array_equal(nodes[k], table)
        for n in range(26):
            for s in range(-6, 7):
                want = xi_double_sum_mode(eta, n, s) / (1j) ** abs(s)
                assert table[n, 6 + s] == pytest.approx(want.real, abs=1e-10)
                assert abs(want.imag) < 1e-15
                if n + s < 0:
                    assert table[n, 6 + s] == 0.0


def test_table_agrees_with_scalar_xi():
    table = xi_mode_table(0.36, 6, 4)
    for n in range(7):
        for s in range(-4, 5):
            if n + s < 0:
                assert table[n, 4 + s] == 0.0
            else:
                assert (1j) ** abs(s) * table[n, 4 + s] == pytest.approx(
                    xi_mode(0.36, n, s), abs=1e-14)


def test_laguerre_recurrence_against_scipy():
    # L_k^alpha(x) by the three-term recurrence, against scipy and against
    # the Laguerre factor recovered from the table entry n = k -> k + alpha
    from math import exp, factorial, sqrt

    from scipy.special import eval_genlaguerre
    x = 0.26
    eta = sqrt(x)
    for alpha in (0, 1, 4):
        seq = [1.0, 1.0 + alpha - x]
        for k in range(1, 30):
            seq.append(((2 * k + 1 + alpha - x) * seq[k]
                        - (k + alpha) * seq[k - 1]) / (k + 1))
        table = xi_mode_table(eta, 30, alpha)
        for k in (0, 1, 5, 17, 30):
            assert seq[k] == pytest.approx(eval_genlaguerre(k, alpha, x), rel=1e-12)
            prefactor = exp(-x / 2) * eta**alpha * sqrt(
                factorial(k) / factorial(k + alpha))
            assert table[k, 2 * alpha] / prefactor == pytest.approx(seq[k], rel=1e-12)


@pytest.mark.parametrize("eta", [0.2, 0.45, 1.0])
def test_table_matches_scipy_laguerre_to_n_40(eta):
    # beyond the double sum's reach: n <= 40, |s| <= 6, one eta and the
    # 64 Gauss-Legendre nodes the emission table uses
    nodes = eta * np.polynomial.legendre.leggauss(64)[0]
    for arg in (eta, nodes):
        got = xi_mode_table(arg, 40, 6)
        assert np.abs(got - xi_mode_table_scipy(arg, 40, 6)).max() <= 1e-13


def test_table_shape_follows_eta():
    assert xi_mode_table(0.3, 7, 2).shape == (8, 5)
    assert xi_mode_table(np.array([0.3]), 7, 2).shape == (1, 8, 5)
    assert xi_mode_table([0.1, 0.3], 7, 2).shape == (2, 8, 5)


def test_lamb_dicke_approximation_examples():
    assert xi_lamb_dicke(0.0, 0.1, 0, 0, 0, 1) == pytest.approx(0.1, abs=1e-15)
    assert xi_lamb_dicke(0.0, 0.1, 0, 1, 0, -1) == pytest.approx(0.1, abs=1e-15)
    # outside first sidebands the approximation is defined to vanish
    assert xi_lamb_dicke(0.1, 0.1, 0, 0, 2, 0) == 0.0
    assert xi_lamb_dicke(0.1, 0.1, 3, 3, 0, -2) == 0.0
    assert xi_lamb_dicke(0.1, 0.1, 0, 0, 0, -1) == 0.0  # no red sideband from n=0


def test_lamb_dicke_approximation_accuracy():
    # within 2% of the exact magnitude for small eta, low n, first sidebands
    for eta in (0.02, 0.05):
        for n_ip in range(3):
            for n_op in range(3):
                for s_ip in (-1, 0, 1):
                    for s_op in (-1, 0, 1):
                        if n_ip + s_ip < 0 or n_op + s_op < 0:
                            continue
                        approx = xi_lamb_dicke(eta, eta, n_ip, n_op, s_ip, s_op)
                        exact = abs(xi(eta, eta, n_ip, n_op, s_ip, s_op))
                        if exact == 0.0:
                            continue
                        assert approx == pytest.approx(exact, rel=0.02)

