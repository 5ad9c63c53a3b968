"""Random constructions and oracles shared by the test modules and used by no command."""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np
from hypothesis import strategies as st

from opuckit.measures import hm_closed_form
from opuckit.psd_quartic import GramBlock, gram_closed_form, multi_indices, multinomial
from opuckit.rationals import GR_ZERO, GaussianRational
from opuckit.sequences import VerblunskySequence, zero_extended
from opuckit.shift_algebra import (
    NormalFormMonomial,
    ShiftPolynomial,
    _polynomial_terms,
    _table_sums,
)
from opuckit.sum_rule import hm_shift_symbol


def entry(seq, n: int):
    """Index into a sequence-like object with the zero extension convention.

    Accepts a VerblunskySequence or any plain sequence (list, tuple, numpy
    array); entries may be complex floats or exact scalars.  Out-of-range
    and negative indices give 0.
    """
    values = seq.values if isinstance(seq, VerblunskySequence) else seq
    if 0 <= n < len(values):
        return values[n]
    return 0


def forward_difference(seq, m: int, n: int):
    """m-th forward difference at index n via the binomial expansion.

    Computed directly as sum_j (-1)^(m-j) C(m, j) * a_{n+j}, which keeps the
    cost O(m) per index and avoids drift from repeated subtraction.  Works on
    float and exact entries alike.  The oracle of sequences.difference_rows,
    the one difference tabulator.
    """
    if m < 0:
        raise ValueError("difference order must be >= 0")
    if m == 0:
        return entry(seq, n)
    total = 0
    for j in range(m + 1):
        c = math.comb(m, j)
        if (m - j) % 2:
            c = -c
        total = total + c * entry(seq, n + j)
    return total


def euler_moment(P: ShiftPolynomial, exps: tuple) -> GaussianRational:
    """Weighted coefficient sum sum_c c * prod i^a * prod j^b, with 0^0 = 1.

    Equals the Euler derivative jet of P at the diagonal for the exponents
    (a_1..a_k, b_1..b_k).
    """
    exps = tuple(int(e) for e in exps)
    if len(exps) != 2 * P.k:
        raise ValueError("moment query length does not match 2k")
    if any(e < 0 for e in exps):
        raise ValueError("moment exponents must be nonnegative")
    total = GR_ZERO
    for e, c in P.terms.items():
        weight = 1
        for idx, a in zip(e, exps):
            if a:
                weight *= idx**a
        if weight:
            total = total + c * weight
    return total


def compositions(total: int, slots: int) -> Iterator[tuple]:
    """All nonnegative integer tuples of the given length summing to total, lex ascending."""
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, slots - 1):
            yield (first,) + rest


def moment_vanishing_order(P: ShiftPolynomial, cap: int) -> int:
    """Largest q <= cap with all Euler moments of total order < q equal to zero.

    Enumerates every moment order by order, so it is the oracle of
    shift_algebra.vanishing_order, which reads the order off the witness of
    ideal_power_decompose.  Returns cap when every tested moment vanishes
    and 0 when P(1,...,1) != 0.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    for order in range(cap):
        for exps in compositions(order, 2 * P.k):
            if not euler_moment(P, exps).is_zero():
                return order
    return cap


def conjugate_polynomial(P: ShiftPolynomial) -> ShiftPolynomial:
    """P with its x and y exponent blocks swapped and every coefficient conjugated.

    Under the coefficient map this conjugates the mapped local value.
    """
    k = P.k
    terms = {e[k:] + e[:k]: GaussianRational(c.re, -c.im) for e, c in P.terms.items()}
    return ShiftPolynomial(k, terms)


def random_float_sequence(rng: random.Random, length: int, cap: float = 0.9) -> VerblunskySequence:
    vals = []
    for _ in range(length):
        r = cap * math.sqrt(rng.random())
        ang = 2.0 * math.pi * rng.random()
        vals.append(r * complex(math.cos(ang), math.sin(ang)))
    return VerblunskySequence(tuple(vals))


@st.composite
def polar_prefix(draw, max_len: int) -> list:
    """Up to max_len complex entries of modulus <= 0.9.

    The length is drawn first: lists drawn whole stay short, and a kernel
    prefix must pass 32 entries to renormalise.
    """
    n = draw(st.integers(0, max_len))
    polar = st.tuples(st.floats(0.0, 0.9), st.floats(0.0, 2 * math.pi))
    entries = draw(st.lists(polar, min_size=n, max_size=n))
    return [r * complex(math.cos(t), math.sin(t)) for r, t in entries]


def hm_ring_coeffs(m: int) -> dict:
    """{l: h_{m,l}} read off the ring expansion P^m H_m(P) = 2^-m (-1)^m (P-1)^{2m}."""
    expansion = (ShiftPolynomial.x(1, 1) - 1) ** (2 * m) * Fraction((-1) ** m, 2**m)
    return {e[0] - m: c for e, c in expansion.terms.items()}


def monomial_json(m: NormalFormMonomial) -> str:
    """A monomial as JSON text; an exact coefficient as strings, a float one as numbers.

    The coefficient's type shows in the text, so two monomials compare equal
    through it only when their coefficients have the same kind.
    """
    c = m.coeff
    if isinstance(c, GaussianRational):
        coeff = {"re": str(c.re), "im": str(c.im)}
    else:
        c = complex(c)
        coeff = {"re": c.real, "im": c.imag}
    return json.dumps(
        {
            "k": m.k,
            "holo_factors": [list(f) for f in m.holo_factors],
            "anti_factors": [list(f) for f in m.anti_factors],
            "coeff": coeff,
        }
    )


def gram_quadrature(m: int, nodes: int | None = None) -> np.ndarray:
    """Gauss-Legendre evaluation of the integral form of the Gram entries.

    Integrates c_alpha c_beta over the unit square, where
    c_alpha(lam, mu) = multinom(alpha) (-mu)^{a1} (lam-1)^{a2} (lam-mu)^{a3},
    scaled by m(2m-1)/C(2m,m).  The integrand is polynomial of degree
    2(m-1) per axis, so nodes >= 2(m-1)+2 integrates it exactly.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if nodes is None:
        nodes = 2 * m
    if nodes < 2 * (m - 1) + 2:
        raise ValueError(f"need at least {2 * (m - 1) + 2} nodes per axis")
    x, w = np.polynomial.legendre.leggauss(nodes)
    lam = (x + 1.0) / 2.0
    wts = w / 2.0
    L, M = np.meshgrid(lam, lam, indexing="ij")
    W2 = np.outer(wts, wts)
    idx = multi_indices(m)
    grids = []
    for a in idx:
        grids.append(
            multinomial(m - 1, a) * (-M) ** a[0] * (L - 1.0) ** a[1] * (L - M) ** a[2]
        )
    pref = m * (2 * m - 1) / math.comb(2 * m, m)
    dim = len(idx)
    out = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            val = pref * float(np.sum(W2 * grids[i] * grids[j]))
            out[i, j] = val
            out[j, i] = val
    return out


def bumped_block(m: int) -> GramBlock:
    """gram_closed_form(m) with the symmetric pair (0, 1), (1, 0) raised by 1/7."""
    rows = [list(row) for row in gram_closed_form(m).entries]
    rows[0][1] = rows[1][0] = rows[0][1] + Fraction(1, 7)
    return GramBlock(m=m, entries=tuple(tuple(row) for row in rows))


def sos_witness_direct(m: int) -> tuple:
    """psd_quartic._sos_witness with every column of B built from c_alpha, none mirrored.

    Column alpha lists the coefficients of
    c_alpha(lam, mu) = multinom(alpha) (-mu)^{a1} (lam-1)^{a2} (lam-mu)^{a3}
    at P_i(lam) P_j(mu), i + j <= m-1, in the order i, then j, scaled by E^2
    with E x^p = sum_i E (2i+1) p!^2 / ((p-i)! (p+i+1)!) P_i(x).  Returns
    (columns, weights, scale) as that function does.
    """
    n = m - 1
    f = math.factorial
    frac = [
        [Fraction((2 * i + 1) * f(p) ** 2, f(p - i) * f(p + i + 1)) for i in range(p + 1)]
        for p in range(m)
    ]
    E = math.lcm(*(c.denominator for row in frac for c in row))
    legendre = [[c.numerator * (E // c.denominator) for c in row] for row in frac]
    squares = [(i, j) for i in range(m) for j in range(m - i)]
    Q = math.lcm(*((2 * i + 1) * (2 * j + 1) for i, j in squares))
    weights = [Q // ((2 * i + 1) * (2 * j + 1)) * m * (2 * m - 1) for i, j in squares]
    columns = []
    for a1, a2, a3 in multi_indices(m):
        # c_alpha = sum power[p][q] lam^p mu^q, p + q <= m-1
        power = [[0] * (n + 1) for _ in range(n + 1)]
        w = multinomial(n, (a1, a2, a3))
        for k in range(a2 + 1):
            ck = w * math.comb(a2, k) * (-1) ** (a2 - k)
            for l in range(a3 + 1):
                q = a1 + a3 - l
                power[k + l][q] += ck * math.comb(a3, l) * (-1) ** q
        half = [
            [sum(legendre[p][i] * power[p][q] for p in range(i, n + 1 - q)) for q in range(n + 1 - i)]
            for i in range(m)
        ]
        columns.append(
            [sum(legendre[q][j] * half[i][q] for q in range(j, n + 1 - i)) for i, j in squares]
        )
    return columns, weights, math.comb(2 * m, m) * Q * E**4


def gram_sos_check_entrywise(block: GramBlock) -> str | None:
    """gram_sos_check with one dot product per upper-triangle entry, over sos_witness_direct.

    Compares each entry (r, c), r <= c, in row-major order with
    pref B^T D B, cross-multiplied in integers.
    """
    columns, weights, scale = sos_witness_direct(block.m)
    for r, (row, col) in enumerate(zip(block.entries, columns)):
        for c in range(r, len(row)):
            x = row[c]
            dot = sum(g * y * z for g, y, z in zip(weights, col, columns[c]))
            if dot * x.denominator != x.numerator * scale:
                return f"entry ({r},{c}) differs from pref*B^T*D*B"
    return None


@dataclass(frozen=True)
class RawQuarticExhibit:
    """The documented 2x2 obstruction matrix for the raw quartic representative at m = 2."""

    entries: tuple
    is_symmetric: bool
    asymmetry: tuple  # (entry (0,1), entry (1,0))


def raw_m2_failure_exhibit() -> RawQuarticExhibit:
    """Constants of the raw m = 2 representative; no derivation is attempted.

    The matrix is asymmetric (5/12 vs 1/2), which is the documented
    obstruction: the raw bihomogeneous component admits no symmetric
    representative under the linearized quotient constraint.
    """
    entries = (
        (Fraction(5, 6), Fraction(5, 12)),
        (Fraction(1, 2), Fraction(1, 12)),
    )
    return RawQuarticExhibit(
        entries=entries,
        is_symmetric=entries[0][1] == entries[1][0],
        asymmetry=(entries[0][1], entries[1][0]),
    )


def holder_budget(m: int, k: int, orders) -> Fraction:
    """Exact exponent budget sum 1/p_{a_nu} + sum 1/p_{b_mu}.

    Each reciprocal is (order+1)/(2(m+1)), so for total order m+1-k the sum
    is (m+1+k)/(2(m+1)), below 1 for 2 <= k <= m: on Z, short of the 1 that
    Holder needs.  Total order 2(m+1-k) gives exactly 1.
    """
    if not 2 <= k <= m:
        raise ValueError(f"need 2 <= k <= m, got k={k}, m={m}")
    orders = tuple(int(o) for o in orders)
    if len(orders) != 2 * k:
        raise ValueError(f"need 2k = {2 * k} orders")
    if any(o < 0 for o in orders):
        raise ValueError("orders must be nonnegative")
    return Fraction(sum(o + 1 for o in orders), 2 * (m + 1))


def quadratic_form_complex(seq, m: int, N: int) -> complex:
    """sum_{n=0}^{N} sum_l h_{m,l} a_{n+l} conj(a_n), imaginary part kept.

    The oracle of symbol_quadratic_form, whose float must agree with this
    sum's real part to rounding.
    """
    arr = zero_extended(seq, -m, N + m + 1)
    center = arr[m : m + N + 1]
    total = 0j
    for ell in range(-m, m + 1):
        seg = arr[m + ell : m + ell + N + 1]
        total += float(hm_closed_form(m, ell)) * complex(np.vdot(center, seg))
    return total


def symbol_quadratic_form(seq, m: int, N: int) -> float:
    """The Fourier side sum_{n=0}^{N} sum_l h_{m,l} a_{n+l} conj(a_n) as `verify` evaluates it.

    One _table_sums call over 0..N on the weight symbol with x^-m cleared;
    the real parts add in index order, so the float is the real part of
    verify's per-index sum of coefficient_map values.
    """
    S = hm_shift_symbol(m) * ShiftPolynomial.monomial(1, (-m, 0))
    ((re, _),), _ = _table_sums(1, seq, range(N + 1), _polynomial_terms(S))
    return sum(re.tolist())


def schur_series_loop(prefix, m_max: int, checkpoints) -> dict:
    """{(m, N): K_m} from the Schur recursion run as a scalar loop, one step per n.

    The oracle of szego_functional_series, which must return the same dict:
    b_0 = z, b_{n+1} = z (b_n - conj a_n) / (1 - a_n b_n) on Python complex
    power series truncated at degree m_max, log phi*_{N+1} = sum log(1 - a_n b_n).
    """
    prefix = VerblunskySequence(prefix)
    wanted = sorted({int(N) for N in checkpoints})
    M = m_max
    h = [[float(hm_closed_form(m, ell)) for ell in range(m + 1)] for m in range(M + 1)]
    b = [0j] * (M + 1)  # b_n, degrees 0..M; b_n(0) = 0 for every n
    if M:
        b[1] = 1 + 0j
    t = [0j] * (M + 1)  # log phi*_n, degrees 0..M
    mass = 0.0
    out = {}

    def record(N):
        for m in range(M + 1):
            value = h[m][0] * mass
            for ell in range(1, m + 1):
                value += 2.0 * h[m][ell] * t[ell].real
            out[(m, N)] = value

    pending = iter(wanted)
    nxt = next(pending, None)
    for n, a in enumerate(prefix.values.tolist()):
        if nxt is None:
            break
        mass -= math.log1p(-(a.real * a.real + a.imag * a.imag))
        d = [1 + 0j] + [-a * c for c in b[1:]]
        lg = [0j] * (M + 1)
        for k in range(1, M + 1):
            acc = d[k]
            for j in range(1, k):
                acc -= (j / k) * lg[j] * d[k - j]
            lg[k] = acc
            t[k] += acc
        q = ([-a.conjugate()] + b[1:M])[:M]
        for k in range(1, M):
            acc = q[k]
            for j in range(1, k + 1):
                acc -= d[j] * q[k - j]
            q[k] = acc
        b = [0j] + q
        if nxt == n:
            record(n)
            nxt = next(pending, None)
    while nxt is not None:
        record(nxt)
        nxt = next(pending, None)
    return out


class MomentPositivityError(ValueError):
    """Moment data lost positive definiteness during the Levinson recursion."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def verblunsky_from_moments(moments) -> VerblunskySequence:
    """Recover alpha_0..alpha_{K-1} from moments c_0..c_K by a Levinson-type recursion.

    Maintains the monic orthogonal polynomial Phi_n and its reversal in
    coefficient form; the next coefficient is conj(<z Phi_n, 1>) / ||Phi_n||^2.
    Signals loss of positive definiteness (|alpha| >= 1 or nonpositive norm)
    with the offending index.
    """
    c = np.asarray(moments, dtype=np.complex128)
    if len(c) < 1:
        raise ValueError("need at least c_0")
    if abs(c[0] - 1.0) > 1e-3:
        raise ValueError(f"c_0 = {c[0]} is not 1 (probability measure required)")
    c = c / c[0]  # absorb quadrature error in the mass
    K = len(c) - 1

    phi = np.zeros(K + 1, dtype=np.complex128)
    phi[0] = 1.0  # coefficients of Phi_n, ascending powers
    e = 1.0  # ||Phi_n||^2
    alphas = []
    for n in range(K):
        # <z Phi_n, 1> = sum_j phi_j conj(c_{j+1})
        inner = complex(np.dot(phi[: n + 1], np.conjugate(c[1 : n + 2])))
        if e <= 0.0:
            raise MomentPositivityError(n, f"nonpositive norm {e} at step {n}")
        alpha = (inner / e).conjugate()
        if abs(alpha) >= 1.0:
            raise MomentPositivityError(
                n, f"|alpha_{n}| = {abs(alpha)} >= 1: moments not positive definite"
            )
        # Phi*_n coefficients are the conjugate reversal of Phi_n
        phistar = np.conjugate(phi[: n + 1][::-1])
        new_phi = np.zeros(K + 1, dtype=np.complex128)
        new_phi[1 : n + 2] = phi[: n + 1]  # z * Phi_n
        new_phi[: n + 1] -= alpha.conjugate() * phistar
        phi = new_phi
        e *= 1.0 - abs(alpha) ** 2
        alphas.append(alpha)
    return VerblunskySequence(tuple(alphas))


def classify_k_trend(values) -> str:
    """Trend of K_proxy along an increasing N list.

    "bounded" when the max/min ratio of the last three values is at most
    1.2; "divergent" when last/first is at least 2; otherwise
    "inconclusive".  The thresholds are artifact conventions for the
    declared N lists, not constants from any estimate.
    """
    vals = [float(v) for v in values]
    if len(vals) < 3:
        return "inconclusive"
    tail = vals[-3:]
    lo, hi = min(tail), max(tail)
    if lo > 0 and hi / lo <= 1.2:
        return "bounded"
    if vals[0] > 0 and vals[-1] / vals[0] >= 2.0:
        return "divergent"
    return "inconclusive"


def szego_recursion_polynomials(prefix, z: complex) -> tuple[complex, complex]:
    """(phi_N(z), phi*_N(z)) after running the recursion through the prefix.

    phi_0 = phi*_0 = 1, phi_{n+1} = z phi_n - conj(a_n) phi*_n,
    phi*_{n+1} = phi*_n - a_n z phi_n.  z must sit on the unit circle.
    """
    z = complex(z)
    if abs(abs(z) - 1.0) > 1e-12:
        raise ValueError(f"|z| = {abs(z)} is off the unit circle beyond 1e-12")
    prefix = VerblunskySequence(prefix)
    phi = 1.0 + 0j
    phistar = 1.0 + 0j
    for a in prefix.values:
        phi, phistar = z * phi - a.conjugate() * phistar, phistar - a * z * phi
    return phi, phistar


def lp_norm_loop(values, p: float) -> float:
    """(sum_n |v_n|^p)^(1/p) as a scalar loop, (re*re + im*im) ** (p/2) each.

    The oracle of lp_norm, which must return the same float.
    """
    if isinstance(values, VerblunskySequence):
        values = values.values
    total = 0.0
    for v in map(complex, values):
        total += (v.real * v.real + v.imag * v.imag) ** (p / 2)
    return total ** (1.0 / p)


def table_sums_loop(k: int, seq, window, *groups) -> list:
    """The float sums of shift_algebra._table_sums, by a loop over n: one list of (re, im) per group.

    Entries and coefficients are (re, im) float pairs made with complex();
    Delta^a of each entry is accumulated from 0 in ascending j of the
    binomial form, and at each n every term's product runs coefficient
    first, then the factors in order, with the complex product written out,
    and the terms are added in order from 0.  The oracle of the array
    evaluator, which must give the same floats up to the sign of a zero.
    """
    window = list(window)
    factor_lists = [factors for terms in groups for _, factors in terms]
    if not window or not factor_lists:
        return [[(0, 0)] * len(window) for _ in groups]
    orders = {a for factors in factor_lists for a, _ in factors}
    shifts = [s for factors in factor_lists for _, s in factors]
    base = min(window) + min(shifts)
    stop = max(window) + max(shifts) + max(orders)
    row = [(z.real, z.imag) for z in (complex(entry(seq, j)) for j in range(base, stop + 1))]

    def difference_row(a):
        out = [(0, 0)] * (len(row) - a)
        for j in range(a + 1):
            w = (-1) ** (a - j) * math.comb(a, j)
            out = [(re + w * xre, im + w * xim) for (re, im), (xre, xim) in zip(out, row[j:])]
        return out

    holo = {a: difference_row(a) if a else row for a in orders}
    anti = {a: [(re, -im) for re, im in table] for a, table in holo.items()}
    sums = []
    for terms in groups:
        group = []
        for n in window:
            tre = tim = 0
            for coeff, factors in terms:
                z = complex(coeff)
                re, im = z.real, z.imag
                reads = [(holo[a], s) for a, s in factors[:k]] + [(anti[a], s) for a, s in factors[k:]]
                for table, s in reads:
                    dre, dim = table[n + s - base]
                    re, im = re * dre - im * dim, re * dim + im * dre
                tre += re
                tim += im
            group.append((tre, tim))
        sums.append(group)
    return sums
