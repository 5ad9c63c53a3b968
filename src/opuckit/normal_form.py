"""Difference normal forms: monomials of shifted finite differences.

A normal-form monomial of degree 2k is

    coeff * prod_nu (Delta^{a_nu} a)_{n+l_nu} * prod_mu (Delta^{b_mu} conj(a))_{n+r_mu},

the term type in which `shift_algebra.ideal_power_decompose` emits a
diagonal-ideal expansion; the class lives there and is re-exported here.
`from_ideal_expansion` is the membership gate in front of it.  Values come
from one table evaluator for both kinds of scalar: exact (a GaussianRational)
over sequences whose numpy dtype is object, the test oracle, and complex
over any other sequence, the experiment engine.  The differences
of a sequence are tabulated once per window of indices; exact entries are
first scaled to Gaussian integers over a common denominator.
"""

from __future__ import annotations

from .shift_algebra import (
    IdealDecomposition,
    NormalFormMonomial,
    ShiftPolynomial,
    ideal_power_decompose,
    _monomial_term,
    _polynomial_terms,
    _scalar,
    _table_sums,
)


class MembershipError(ValueError):
    """The polynomial failed the ideal-power membership it was declared to satisfy."""


def from_ideal_expansion(decomposition: IdealDecomposition) -> list[NormalFormMonomial]:
    """The normal-form monomials of an ideal-power expansion, or its failure.

    Each term coeff * prod v^shift * prod (v-1)^order already is the
    monomial of (x-1)^a P^i acting on a as (Delta^a a)_{n+i}; by
    construction every one has difference count >= the order of the
    decomposition.  A failed membership raises with its witness moment.
    """
    if not decomposition.member:
        raise MembershipError(
            f"not a member of the ideal power {decomposition.order}; "
            f"witness moment {decomposition.witness}"
        )
    return list(decomposition.terms)


def evaluate(monomial: NormalFormMonomial, seq, n: int):
    """coeff * prod (Delta^a a)_{n+l} * prod (Delta^b conj(a))_{n+r}.

    Exact (a GaussianRational) over a sequence whose numpy dtype is object;
    complex over any other sequence.  Conjugation commutes
    with the real-coefficient differences, so the antiholomorphic factors
    are conjugated after differencing.
    """
    ((re, im),), den = _table_sums(monomial.k, seq, (n,), [_monomial_term(monomial)])
    return _scalar((re[0], im[0]), den)


def pointwise_equality_check(P: ShiftPolynomial, q: int, seq, window) -> float:
    """Max |coefficient_map(P) - sum of normal-form evaluations| over the window.

    window is any iterable of indices n.  Both sides come from one
    difference table for the whole window.  Exactly 0.0 on an exact sequence
    (numpy dtype object), where they are compared in
    Gaussian integers; propagates the membership failure if P is not in the
    declared ideal power.
    """
    decomposition = ideal_power_decompose(P, q)
    monomials = from_ideal_expansion(decomposition)
    (lhs, rhs), den = _table_sums(
        P.k, seq, window, _polynomial_terms(P), [_monomial_term(m) for m in monomials]
    )
    worst = 0.0
    for lre, lim, rre, rim in zip(*lhs, *rhs):
        dev = (lre - rre, lim - rim)
        if dev != (0, 0):
            worst = max(worst, abs(complex(_scalar(dev, den))))
    return worst

