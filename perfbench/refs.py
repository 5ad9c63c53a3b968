"""Reference computations made apart from the program.

Nothing here imports opuckit.  Every function recomputes, from the inputs
the benchmark generated, a quantity the program prints, by a different
route (arbitrary precision, plain numpy, Python integers), so that the
benchmark can check the program's outputs.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

# -- sum-rule sweep -----------------------------------------------------------


def k_series(values, m_max: int, checkpoints, dps: int = 40) -> dict:
    """K_m of the Bernstein-Szego truncation a_0..a_N, for m = 1..m_max and N in checkpoints.

    Pairs the Fourier coefficients of (1 - cos theta)^m with those of
    log(1/w): the mass term -sum log(1-|a_j|^2) and the Taylor coefficients
    of log phi*_N up to degree m.  The phi/phi* windows are truncated at
    degree m_max (the recursion never moves high coefficients down), and
    everything runs at `dps` decimal digits, so float round-off of the
    growing phi* coefficients cannot reach the result.
    """
    M = m_max
    wanted = set(checkpoints)
    out = {}
    with mpmath.workdps(dps):
        zero = mpmath.mpc(0)
        ph = [mpmath.mpc(1)] + [zero] * M
        ps = [mpmath.mpc(1)] + [zero] * M
        mass = mpmath.mpf(0)
        for n, a in enumerate(values):
            a = mpmath.mpc(a.real, a.imag)
            ac = mpmath.conj(a)
            shifted = [zero] + ph[:-1]
            ph = [shifted[i] - ac * ps[i] for i in range(M + 1)]
            ps = [ps[i] - a * shifted[i] for i in range(M + 1)]
            mass -= mpmath.log1p(-(a.real**2 + a.imag**2))
            if n not in wanted:
                continue
            # t = log ps as a power series: l t_l = l p_l - sum_{j<l} j t_j p_{l-j}
            t = [zero] * (M + 1)
            for ell in range(1, M + 1):
                acc = ps[ell]
                for j in range(1, ell):
                    acc -= mpmath.mpf(j) / ell * t[j] * ps[ell - j]
                t[ell] = acc
            for m in range(1, M + 1):
                value = mpmath.mpf(math.comb(2 * m, m)) / 2**m * mass
                for ell in range(1, m + 1):
                    h = mpmath.mpf((-1) ** ell * math.comb(2 * m, m + ell)) / 2**m
                    value += 2 * h * t[ell].real
                out[(m, n)] = float(value)
    return out


def zero_extended(values, length: int) -> np.ndarray:
    out = np.zeros(length, dtype=np.complex128)
    take = min(length, len(values))
    out[:take] = np.asarray(values[:take], dtype=np.complex128)
    return out


def diff_energy(values, m: int, last: int) -> float:
    """sum_{n=0}^{last} |Delta^m a_n|^2 with a read as 0 past the given values."""
    x = zero_extended(values, last + m + 1)
    return float(np.sum(np.abs(np.diff(x, n=m)) ** 2))


def power_energy(values, m: int, last: int) -> float:
    """sum_{n=0}^{last} |a_n|^(2m+2)."""
    x = zero_extended(values, last + 1)
    return float(np.sum(np.abs(x) ** (2 * m + 2)))


def tail_direct(values, m: int) -> float:
    """sum_n sum_{j>m} |a_n|^(2j)/j, summed term by term until the terms vanish."""
    x = np.abs(np.asarray(values, dtype=np.complex128)) ** 2
    term = x ** (m + 1)
    total = np.zeros_like(x)
    j = m + 1
    while True:
        total += term / j
        term = term * x
        j += 1
        if np.all(term / j <= 1e-18 * total):
            return float(np.sum(total))


# -- absorption probes -----------------------------------------------------------


def probe_orders(m: int, k: int) -> list:
    """Difference orders of the `absorb probe --k` monomial: m+1-k spread round robin over 2k slots."""
    orders = [0] * (2 * k)
    for i in range(m + 1 - k):
        orders[i % (2 * k)] += 1
    return orders


def monomial_sum(values, orders, N: int) -> float:
    """|sum_{n=0}^{N} prod_nu (Delta^{a_nu} a)_n prod_mu conj(Delta^{b_mu} a)_n|, shifts 0."""
    k = len(orders) // 2
    width = N + 1 + max(orders)
    x = zero_extended(values, width)
    prod = np.ones(N + 1, dtype=np.complex128)
    for slot, order in enumerate(orders):
        d = np.diff(x, n=order)[: N + 1] if order else x[: N + 1]
        prod *= d if slot < k else np.conj(d)
    return float(abs(np.sum(prod)))


def absorption_rows(values, m: int, k: int, epsilon: float, n_list) -> list:
    """(N, lhs, rhs, passed) as `absorb probe --k` defines them, from plain numpy sums."""
    orders = probe_orders(m, k)
    overhang = max(orders)
    lhs, energy = {}, {}
    for N in n_list:
        lhs[N] = monomial_sum(values, orders, N)
        energy[N] = diff_energy(values, m, N + overhang) + power_energy(values, m, N + overhang)
    constant = max([0.0] + [lhs[N] - epsilon * energy[N] for N in n_list])
    rows = []
    for N in n_list:
        rhs = epsilon * energy[N] + constant
        rows.append((N, lhs[N], rhs, lhs[N] <= rhs))
    return rows


def gn_ratio(values, m: int, r: int, N: int) -> float:
    """||Delta^r a||_{p_r} on [0, N] over A^{r/m} B^{1-r/m} + 1, energies on [0, N+m]."""
    p = 2.0 * (m + 1) / (r + 1)
    x = zero_extended(values, N + r + 1)
    num = float(np.sum(np.abs(np.diff(x, n=r)) ** p)) ** (1.0 / p)
    A = diff_energy(values, m, N + m) ** 0.5
    B = power_energy(values, m, N + m) ** (1.0 / (2 * m + 2))
    return num / (A ** (r / m) * B ** (1.0 - r / m) + 1.0)


# -- measures ------------------------------------------------------------------


def bs_weight_at(alphas, theta: np.ndarray) -> np.ndarray:
    """prod(1-|a_j|^2) / |phi*_N(e^{i theta})|^2 by the plain Szego recursion."""
    z = np.exp(1j * np.asarray(theta, dtype=np.float64))
    phi = np.ones_like(z)
    phistar = np.ones_like(z)
    mass = 1.0
    for a in alphas:
        phi, phistar = z * phi - np.conj(a) * phistar, phistar - a * z * phi
        mass *= 1.0 - abs(a) ** 2
    return mass / np.abs(phistar) ** 2


def levinson(moments) -> list:
    """Verblunsky coefficients from moments c_0..c_K, c_k = integral e^{-ik theta} dmu.

    Orthogonality of Phi_{n+1} = z Phi_n - conj(alpha_n) Phi*_n against 1 gives
    alpha_n = conj(<z Phi_n, 1>) / <Phi*_n, 1>, with <z^j, 1> = conj(c_j).
    """
    c = [complex(v) for v in moments]
    phi = [1 + 0j]
    alphas = []
    for n in range(len(c) - 1):
        z_phi_1 = sum(phi[j] * c[j + 1].conjugate() for j in range(n + 1))
        star_1 = sum(phi[n - j].conjugate() * c[j].conjugate() for j in range(n + 1))
        alpha = (z_phi_1 / star_1).conjugate()
        star = [v.conjugate() for v in reversed(phi)]
        phi = [0j] + phi
        for j in range(n + 1):
            phi[j] -= alpha.conjugate() * star[j]
        alphas.append(alpha)
    return alphas


# -- quartic block ----------------------------------------------------------------


def grlex_indices(m: int) -> list:
    """Degree-(m-1) exponent triples in the documented order (lex descending)."""
    n = m - 1
    return [(a1, a2, n - a1 - a2) for a1 in range(n, -1, -1) for a2 in range(n - a1, -1, -1)]


def pm_value(m: int, u: Fraction, v: Fraction, t: Fraction) -> Fraction:
    """P_m(u, v, t) from its defining quotient."""
    num = (u + v - t) ** (2 * m) + t ** (2 * m) - u ** (2 * m) - v ** (2 * m)
    return num / (2 * math.comb(2 * m, m) * (u - t) * (v - t))


def gram_form_value(m: int, entries, z) -> Fraction:
    """W^T M W at Z = (Z1, Z2, Z3), W the degree-(m-1) monomials in Z."""
    w = [z[0] ** a * z[1] ** b * z[2] ** c for a, b, c in grlex_indices(m)]
    return sum((wi * sum((c * wj for c, wj in zip(row, w)), Fraction(0)) for wi, row in zip(w, entries)),
               Fraction(0))


def bareiss_psd(entries) -> bool:
    """PSD test by fraction-free elimination with largest-diagonal pivoting.

    The rational matrix is scaled to integers by the lcm of its denominators.
    After each step the Bareiss entries are the Schur complement times the
    last (positive) pivot, so they carry its signs: a negative largest
    diagonal refutes PSD, and a zero one requires the rest to vanish.
    """
    den = 1
    for row in entries:
        for c in row:
            den = math.lcm(den, c.denominator)
    a = [[int(c * den) for c in row] for row in entries]
    remaining = list(range(len(a)))
    prev = 1
    while remaining:
        p = max(remaining, key=lambda r: a[r][r])
        d = a[p][p]
        if d < 0:
            return False
        if d == 0:
            return all(a[r][c] == 0 for r in remaining for c in remaining)
        remaining.remove(p)
        for r in remaining:
            for c in remaining:
                a[r][c] = (d * a[r][c] - a[r][p] * a[p][c]) // prev
        prev = d
    return True


# -- normal forms -------------------------------------------------------------


def gmul(x, y):
    """Product of two Gaussian integers or rationals given as (re, im) pairs."""
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def expand_monomials(k: int, monomials) -> dict:
    """sum coeff * prod_slot x_slot^shift (x_slot - 1)^order as an exponent -> (re, im) map."""
    out: dict = {}
    for orders, shifts, coeff in monomials:
        partial = {tuple(shifts): (Fraction(1), Fraction(0))}
        for slot, g in enumerate(orders):
            if not g:
                continue
            nxt: dict = {}
            for exps, c in partial.items():
                for j in range(g + 1):
                    b = math.comb(g, j) * (-1) ** (g - j)
                    e = exps[:slot] + (exps[slot] + j,) + exps[slot + 1:]
                    old = nxt.get(e, (Fraction(0), Fraction(0)))
                    nxt[e] = (old[0] + b * c[0], old[1] + b * c[1])
            partial = nxt
        for exps, c in partial.items():
            old = out.get(exps, (Fraction(0), Fraction(0)))
            add = gmul(c, coeff)
            out[exps] = (old[0] + add[0], old[1] + add[1])
    return {e: c for e, c in out.items() if c != (0, 0)}


def _at(seq, n):
    return seq[n] if 0 <= n < len(seq) else (0, 0)


def int_difference(seq, order: int, n: int):
    """Delta^order of a Gaussian-integer sequence at n, read as 0 outside it."""
    re = im = 0
    for j in range(order + 1):
        c = math.comb(order, j) * (-1) ** (order - j)
        v = _at(seq, n + j)
        re += c * v[0]
        im += c * v[1]
    return (re, im)


def coefficient_map_scaled(k: int, terms: dict, seq, n: int):
    """sum_t c_t prod a_{n+i} prod conj(a_{n+j}) on a Gaussian-integer sequence."""
    re = im = Fraction(0)
    for exps, coeff in terms.items():
        g = (1, 0)
        for slot in range(2 * k):
            v = _at(seq, n + exps[slot])
            g = gmul(g, v if slot < k else (v[0], -v[1]))
        re += coeff[0] * g[0] - coeff[1] * g[1]
        im += coeff[0] * g[1] + coeff[1] * g[0]
    return (re, im)


def monomials_scaled(k: int, monomials, seq, n: int):
    """sum coeff prod (Delta^a a)_{n+l} prod conj(Delta^b a)_{n+r} on a Gaussian-integer sequence."""
    re = im = Fraction(0)
    for orders, shifts, coeff in monomials:
        g = (1, 0)
        for slot in range(2 * k):
            d = int_difference(seq, orders[slot], n + shifts[slot])
            g = gmul(g, d if slot < k else (d[0], -d[1]))
        re += coeff[0] * g[0] - coeff[1] * g[1]
        im += coeff[0] * g[1] + coeff[1] * g[0]
    return (re, im)
