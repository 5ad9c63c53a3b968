"""Difference normal forms: monomials of shifted finite differences.

A normal-form monomial of degree 2k is

    coeff * prod_nu (Delta^{a_nu} a)_{n+l_nu} * prod_mu (Delta^{b_mu} conj(a))_{n+r_mu},

the term type in which `shift_algebra.ideal_power_decompose` emits a
diagonal-ideal expansion; the class lives there and is re-exported here.
`from_ideal_expansion` is the membership gate in front of it.  Values come
from one table evaluator for both kinds of scalar: exact (a GaussianRational)
over sequences with GaussianRational or Fraction entries, the test oracle,
and complex over float sequences, the experiment engine.  The differences
of a sequence are tabulated once per window of indices; exact entries are
first scaled to Gaussian integers over a common denominator.

Also here: the discrete Leibniz expansion of Delta^q over a product, the
discrete summation-by-parts identity, and explicit telescoping bookkeeping,
so that every finite-volume O(1) claim in the calculus is an endpoint
identity that can be checked, not an error bound taken on faith.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rationals import GaussianRational
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

    Exact (a GaussianRational) over sequences with GaussianRational or
    Fraction entries; complex over float sequences.  Conjugation commutes
    with the real-coefficient differences, so the antiholomorphic factors
    are conjugated after differencing.
    """
    (values,), den = _table_sums(monomial.k, seq, (n,), [_monomial_term(monomial)])
    return _scalar(values[0], den)


def pointwise_equality_check(P: ShiftPolynomial, q: int, seq, window) -> float:
    """Max |coefficient_map(P) - sum of normal-form evaluations| over the window.

    Both sides come from one difference table for the whole window.  Exactly
    0.0 on an exact sequence (GaussianRational or Fraction entries), where
    they are compared in Gaussian integers; propagates the membership
    failure if P is not in the declared ideal power.
    """
    decomposition = ideal_power_decompose(P, q)
    monomials = from_ideal_expansion(decomposition)
    if isinstance(window, tuple) and len(window) == 2:
        window = range(window[0], window[1] + 1)
    (lhs, rhs), den = _table_sums(
        P.k, seq, window, _polynomial_terms(P), [_monomial_term(m) for m in monomials]
    )
    worst = 0.0
    for (lre, lim), (rre, rim) in zip(lhs, rhs):
        dev = (lre - rre, lim - rim)
        if dev != (0, 0):
            worst = max(worst, abs(complex(_scalar(dev, den))))
    return worst


@dataclass(frozen=True)
class LeibnizTerm:
    """One branch of the expansion of Delta^q over a product of s factors."""

    orders: tuple
    shifts: tuple
    coeff: int = 1


def leibniz_expand(q: int, s: int) -> list[LeibnizTerm]:
    """Expand Delta^q over an abstract product of s factors.

    Iterates Delta(F_1...F_s) = sum_i F_1...(Delta F_i)(P F_{i+1})...(P F_s);
    every branch keeps coefficient 1 and the difference orders of each term
    sum to exactly q.  Branches are not merged, so the term count is s^q.
    """
    if q < 0 or s < 1:
        raise ValueError("need q >= 0 and s >= 1")
    terms = [LeibnizTerm(tuple([0] * s), tuple([0] * s), 1)]
    for _ in range(q):
        nxt = []
        for t in terms:
            for i in range(s):
                orders = list(t.orders)
                shifts = list(t.shifts)
                orders[i] += 1
                for j in range(i + 1, s):
                    shifts[j] += 1
                nxt.append(LeibnizTerm(tuple(orders), tuple(shifts), t.coeff))
        terms = nxt
    return terms


def _fetch(F, n: int):
    if callable(F):
        return F(n)
    return F[n]


def summation_by_parts(F, G, N: int):
    """Discrete summation by parts over [0, N].

    Returns (lhs, rhs, boundary) with
        lhs      = sum (Delta F)_n G_n,
        rhs      = -sum F_{n+1} (Delta G)_n,
        boundary = F_{N+1} G_{N+1} - F_0 G_0,
    and the identity lhs = rhs + boundary.  F and G may be sequences or
    callables, evaluable on [0, N+1].
    """
    lhs = 0
    rhs = 0
    for n in range(N + 1):
        fn = _fetch(F, n)
        fn1 = _fetch(F, n + 1)
        gn = _fetch(G, n)
        gn1 = _fetch(G, n + 1)
        lhs = lhs + (fn1 - fn) * gn
        rhs = rhs - fn1 * (gn1 - gn)
    boundary = _fetch(F, N + 1) * _fetch(G, N + 1) - _fetch(F, 0) * _fetch(G, 0)
    return lhs, rhs, boundary


@dataclass(frozen=True)
class TelescopeTerm:
    """The telescoping expression (P-1)B_n for a normal-form body B.

    Its finite-volume sum over [0, N] is exactly B_{N+1} - B_0, which is the
    testable form of every bounded-telescoping claim.
    """

    body: tuple  # tuple of NormalFormMonomial

    def body_value(self, seq, n: int):
        total = None
        for mono in self.body:
            val = evaluate(mono, seq, n)
            total = val if total is None else total + val
        return 0 if total is None else total


def telescope_sum(term: TelescopeTerm, seq, N: int):
    """Endpoint value B_{N+1} - B_0 of the finite sum of (P-1)B_n over [0, N].

    The naive accumulation of B_{n+1} - B_n is compared against the endpoint
    formula, and a mismatch beyond 1e-12 * max(1, |value|) raises.
    """
    value = term.body_value(seq, N + 1) - term.body_value(seq, 0)
    naive = 0
    for n in range(N + 1):
        naive = naive + (term.body_value(seq, n + 1) - term.body_value(seq, n))
    dev, scale = value - naive, value
    if isinstance(value, GaussianRational):
        dev, scale = dev.to_complex(), value.to_complex()
    if abs(complex(dev)) > 1e-12 * max(1.0, abs(complex(scale))):
        raise ArithmeticError(
            f"telescoping cross-check failed: endpoint {value} vs naive {naive}"
        )
    return value
