"""Explicitly computable pieces of the finite-volume decomposition.

For the weight (1 - cos theta)^m these are: the exact Fourier coefficients
of the weight symbol, the pointwise logarithmic tail, and the assembled
per-(m, N) report

    residual = K_proxy - Q - tail,

where K_proxy is the weighted log functional of the Bernstein-Szego
truncation (szego_functional_series, exact up to rounding), Q is the
difference energy 2^-m sum |Delta^m a_n|^2 from lukic_partial_sums and tail
is the summed logarithmic tail.  The Fourier side of Q, sum_n sum_l
h_{m,l} a_{n+l} conj(a_n), is the coefficient map of the weight symbol
hm_shift_symbol(m) times x_1^-m, summed over n.  The residual
deliberately conflates the remaining critical contributions and boundary
terms; none of those is separately constructible at this scale, so reports
label it an unresolved remainder.  It is not bounded in N: for m >= 2 it
carries (h_{m,0} - 1) times the tail, which grows with N.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .measures import hm_closed_form, szego_functional_series
from .sequences import VerblunskySequence, abs2, lukic_partial_sums, zero_extended
from .shift_algebra import ShiftPolynomial


def hm_shift_symbol(m: int) -> ShiftPolynomial:
    """The quadratic symbol as a k = 1 shift polynomial in x_1 alone.

    P^m H_m(P) = 2^-m (-1)^m (P-1)^{2m}: the Fourier coefficient h_{m,l} sits
    at exponent l + m >= 0.  Its diagonal zero has order exactly 2m, as the
    Laurent form's does, since the two differ only by the unit x_1^m.
    """
    return ShiftPolynomial(1, {(l + m, 0): hm_closed_form(m, l) for l in range(-m, m + 1)})


def log_tails(alphas, m: int) -> np.ndarray:
    """log(1/(1-|a|^2)) minus its first m Taylor terms, for every entry a.

    Each entry equals sum_{j>m} x^j/j, x = abs2(a); always >= x^(m+1)/(m+1).
    For 0 < x <= 1/2, where the direct formula would lose the tail to
    cancellation, the series is cut after J = ceil(log(1e-17)/log x) <= 57
    terms and summed in Horner form, acc = acc*x + 1/(m+1+i) for
    i = J..0, tail = acc*x^(m+1): the entries sorted by J, step i updates
    those with J >= i.  Every term is positive, so with u = 2^-53,
    gamma_k = ku/(1-ku) and eta = 2^-1074 the tail is within

        gamma_(2J+4) tail + x^(m+J+2)/((m+J+2)(1-x)) + 2 eta:

    gamma_(2J) for the J multiply-adds (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, section 5.1), u for each rounded
    1/(m+1+i), 2u for pow (within one ulp), u for the last product; the
    truncated terms, at most 1e-17 of the tail; eta for a subnormal
    x^(m+1) or product.  Above 1/2 the closed form L - P, L = -log1p(-x),
    P = sum_{k<=m} x^k/k, is within 2u L + gamma_(m+1) P + u tail, with
    log1p within one ulp: its cancellation costs up to L/tail relative.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    # the sequence's disc check also refuses a nan modulus, which would fall
    # through both branches below
    x = abs2(VerblunskySequence(alphas).values)
    out = np.zeros(len(x))

    idx = np.flatnonzero((x > 0.0) & (x <= 0.5))
    J = np.ceil(math.log(1e-17) / np.log(x[idx])).astype(np.int64)
    order = np.argsort(J, kind="stable")
    idx, xs, J = idx[order], x[idx][order], J[order]
    acc = np.zeros(len(idx))
    for i in range(J.max(initial=0), -1, -1):
        start = np.searchsorted(J, i)  # the entries from start on have J >= i
        acc[start:] *= xs[start:]
        acc[start:] += 1.0 / (m + 1 + i)
    out[idx] = acc * np.float_power(xs, m + 1.0)

    large = x > 0.5
    xl = x[large]
    partial = np.zeros(len(xl))
    p = np.ones(len(xl))
    for k in range(1, m + 1):
        p = p * xl
        partial = partial + p / k
    out[large] = np.array([-math.log1p(-v) for v in xl.tolist()]) - partial
    return out


def log_tail(alpha, m: int) -> float:
    """sum_{j>m} |a|^{2j}/j, the one-entry case of log_tails."""
    return float(log_tails([alpha], m)[0])


@dataclass(frozen=True)
class DecompositionReport:
    """One finite-volume decomposition row; residual is the unresolved remainder."""

    m: int
    N: int
    K_proxy: float
    Q: float
    tail: float
    power_energy: float
    residual: float

    CSV_HEADER = "m,N,K_proxy,Q,tail,power_energy,residual"

    def csv_row(self) -> str:
        return (
            f"{self.m},{self.N},{self.K_proxy!r},{self.Q!r},"
            f"{self.tail!r},{self.power_energy!r},{self.residual!r}"
        )


def decomposition_sweep(seq, m_list, n_list) -> list[DecompositionReport]:
    """One decomposition row for each distinct (m, N) of m_list x n_list, sorted by (m, N).

    Every row refers to the Bernstein-Szego truncation a_0..a_N of the same
    sequence.  Every K_proxy comes from one exact szego_functional_series
    pass to max(n_list).  The tail is a cumulative sum of per-entry tails; Q
    and the power energy come from lukic_partial_sums at each N.
    """
    m_list = sorted({int(m) for m in m_list})
    n_list = sorted({int(N) for N in n_list})
    if not m_list or not n_list:
        return []
    if m_list[0] < 1:
        raise ValueError("m must be >= 1")
    # Q divides by 2^m, which overflows a float from m = max_exp on
    if m_list[-1] >= sys.float_info.max_exp:
        raise ValueError(
            f"m must be < {sys.float_info.max_exp}, where 2^m overflows a float; "
            f"got m = {m_list[-1]}"
        )
    if n_list[0] < 0:
        raise ValueError("N must be >= 0")
    seq = VerblunskySequence(seq)
    K = szego_functional_series(seq, m_list[-1], n_list)
    # checked once here; log_tails shares its array at every order
    padded = VerblunskySequence(zero_extended(seq, 0, n_list[-1] + 1))
    rows = []
    for m in m_list:
        tails = np.cumsum(log_tails(padded, m))
        for N in n_list:
            energy = lukic_partial_sums(padded.values[: N + 1], m, N)
            Q = energy.diff_energy / 2.0**m
            tail = float(tails[N])
            rows.append(
                DecompositionReport(
                    m=m,
                    N=N,
                    K_proxy=K[(m, N)],
                    Q=Q,
                    tail=tail,
                    power_energy=energy.power_energy,
                    residual=K[(m, N)] - Q - tail,
                )
            )
    return rows


def decomposition_report(seq, m: int, N: int) -> DecompositionReport:
    """The one row of decomposition_sweep at (m, N)."""
    return decomposition_sweep(seq, [m], [N])[0]
