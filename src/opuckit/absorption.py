"""Interpolation exponents and empirical absorption probes.

The exponent ladder p_r = 2(m+1)/(r+1) interpolates between the power
energy (r = 0, p = 2m+2) and the difference energy (r = m, p = 2).  For a
degree-2k monomial whose difference orders sum to m+1-k the reciprocal
exponents add up to (m+1+k)/(2(m+1)) < 1.  On Z with counting measure that
is a deficit, not a margin: Holder bounds a sum of products by the product
of the norms only when the reciprocals add up to at least 1.  On plane
waves a_n = r e^{irn} at m = k = 2 the m+1-k monomial sums to about 1/(2r)
times the diff + power energy, unbounded as r -> 0, so it is not
absorbable; with 2(m+1-k) differences the budget is 1 and the ratio stays
near 1/2 (tests/test_absorption.py).  The exponents are exact rationals,
and the budget arithmetic is a test oracle (tests/helpers.py); the probes
here only record empirical maxima over declared families.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .sequences import VerblunskySequence, difference_array, lp_norm, lukic_partial_sums
from .shift_algebra import NormalFormMonomial, _monomial_term, _table_sums


def gn_exponent(m: int, r: int) -> Fraction:
    """Interpolation exponent p_r = 2(m+1)/(r+1) for the r-th difference."""
    if not 0 <= r <= m:
        raise ValueError(f"r = {r} out of range 0..{m}")
    return Fraction(2 * (m + 1), r + 1)


def critical_orders(m: int, k: int) -> list[int]:
    """The critical count m+1-k of differences spread round-robin over 2k slots.

    Slots 0..k-1 are the holomorphic factors, k..2k-1 the antiholomorphic
    ones; earlier slots take the remainder first.  The count m+1-k is the
    paper's exponent read as single differences, each slot's order the
    number of Delta's on that factor.  On Z, Holder bounds such a monomial
    by the diff + power energy only with 2(m+1-k) differences: with m+1-k
    its sum grows without bound on slow plane waves, as
    tests/test_absorption.py::TestPlaneWaves pins.
    """
    if not 2 <= k <= m:
        raise ValueError(f"need 2 <= k <= m, got k={k}, m={m}")
    q, r = divmod(m + 1 - k, 2 * k)
    return [q + (i < r) for i in range(2 * k)]


def gn_ratio_probe(seq, m: int, r: int, N: int) -> float:
    """||Delta^r a||_{p_r} over [0, N] against the interpolation product.

    Returns the ratio to A^{r/m} B^{1-r/m} + 1, with A, B the two energy
    roots over [0, N+m]; the +1 keeps the ratio finite on sequences whose
    energies over the window vanish, at the cost of scale invariance.  Used
    to probe the interpolation constant empirically; no bound is asserted.
    """
    if not 0 < r < m:
        raise ValueError("need 0 < r < m")
    seq = VerblunskySequence(seq)
    # the probe reads a_0..a_{N+2m}; entries past them do not count
    if not seq.values[: N + 2 * m + 1].any():
        raise ValueError("probe needs a nonzero sequence")
    p_r = float(gn_exponent(m, r))
    diffs = difference_array(seq, r, N)
    num = lp_norm(diffs, p_r)
    L = m  # max difference order; the probe has no shifts
    report = lukic_partial_sums(seq, m, N + L)
    A = report.diff_energy ** 0.5
    B = report.power_energy ** (1.0 / (2 * m + 2))
    denom = A ** (r / m) * B ** (1.0 - r / m) + 1.0
    return float(num / denom)


def shift_allowance(monomial: NormalFormMonomial) -> int:
    """Max shift plus max difference order; bounds the index overhang."""
    factors = monomial.holo_factors + monomial.anti_factors
    return max(abs(s) for _, s in factors) + max(a for a, _ in factors)


def monomial_sum(monomial: NormalFormMonomial, seq, N: int) -> float:
    """|sum_{n=0}^{N} M_n| for a float sequence, from one difference table."""
    return _monomial_sums(monomial, seq, [N])[N]


def _monomial_sums(monomial: NormalFormMonomial, seq, n_values: list) -> dict:
    """{N: |sum_{n=0}^{N} M_n|} for every N of n_values, from one table over [0, max N].

    The windows [0, N] are nested, so one running sum, read at N + 1 terms,
    gives each value as the same float monomial_sum(N) gives on its own
    (np.cumsum adds in index order; np.hypot is abs(complex)'s libm call).
    """
    term = _monomial_term(monomial.as_float())
    last = max(n_values, default=-1)
    ((re, im),), _ = _table_sums(monomial.k, seq, range(last + 1), [term])
    totals = np.hypot(np.cumsum(re), np.cumsum(im)).tolist()
    return {N: totals[N] if N >= 0 else 0.0 for N in n_values}


def _check_critical(monomial: NormalFormMonomial, m: int):
    k = monomial.k
    if not 2 <= k <= m:
        raise ValueError(f"monomial degree 2k = {2 * k} needs 2 <= k <= m = {m}")
    need = m + 1 - k
    if monomial.difference_count < need:
        raise ValueError(
            f"difference count {monomial.difference_count} below the critical "
            f"count {need}; the absorption inequality is not claimed there"
        )


@dataclass(frozen=True)
class AbsorptionProbe:
    lhs: float
    rhs: float
    passed: bool
    constant: float
    N: int


def _probe_terms(monomial: NormalFormMonomial, seq, m: int, n_values: list) -> dict:
    """{N: (|sum_{n<=N} M_n|, diff + power energy over [0, N+L])}, each N once."""
    _check_critical(monomial, m)
    L = shift_allowance(monomial)
    sums = _monomial_sums(monomial, seq, n_values)
    terms = {}
    for N in n_values:
        if N not in terms:
            rep = lukic_partial_sums(seq, m, N + L)
            terms[N] = (sums[N], rep.diff_energy + rep.power_energy)
    return terms


def _fitted_constant(terms: dict, epsilon: float) -> float:
    worst = 0.0
    for lhs, energy in terms.values():
        worst = max(worst, lhs - epsilon * energy)
    return worst


def _probe(terms: dict, N: int, epsilon: float, constant: float) -> AbsorptionProbe:
    lhs, energy = terms[N]
    rhs = epsilon * energy + constant
    return AbsorptionProbe(lhs=lhs, rhs=rhs, passed=lhs <= rhs, constant=constant, N=N)


def fit_absorption_constant(
    monomial: NormalFormMonomial, seq, m: int, epsilon: float, n_values: Iterable[int]
) -> float:
    """Empirical constant: max deficit of |sum M_n| against eps * energies.

    Fitted over the declared family of volumes and floored at zero; store it
    next to the family descriptor for reproducibility.
    """
    return _fitted_constant(_probe_terms(monomial, seq, m, list(n_values)), epsilon)


def absorption_inequality_probe(
    monomial: NormalFormMonomial,
    seq,
    m: int,
    N: int,
    epsilon: float,
    constant: float,
) -> AbsorptionProbe:
    """Check |sum_{n<=N} M_n| <= eps * (diff + power energies over [0, N+L]) + C.

    Rejects monomials below the critical difference count m+1-k.  C is the
    empirically fitted constant for this (epsilon, m) and family; the
    inequality itself is existential, so pass/fail is a probe, not a theorem
    check.
    """
    return _probe(_probe_terms(monomial, seq, m, [N]), N, epsilon, constant)


def absorption_probes(
    monomial: NormalFormMonomial, seq, m: int, epsilon: float, n_values: Iterable[int]
) -> list[AbsorptionProbe]:
    """absorption_inequality_probe at every N of n_values, with C fitted over them.

    The rows of `absorb probe --k`: one difference table over [0, max N] and
    one energy per distinct N serve the fit and every row, and each row
    equals the fit_absorption_constant + absorption_inequality_probe pair.
    """
    n_values = list(n_values)
    terms = _probe_terms(monomial, seq, m, n_values)
    constant = _fitted_constant(terms, epsilon)
    return [_probe(terms, N, epsilon, constant) for N in n_values]
