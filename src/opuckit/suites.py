"""Named verification suites behind `opuckit verify`, one per link of the chain.

Each check is a callable returning (passed, detail) on values the program
computes, so a corrupted value can fail it.  The suites check the links of
the sum rule: `gram` the PSD quartic block, `normalform` the exact normal
form of the remainders, `measures` the weighted log functional K_m, and
`sumrule` the difference energy, the log tail and the m = 1 closure.  No
suite checks the absorbable remainders: the exponent arithmetic is held by
unit tests.  Generic identities of the building blocks are checked by
`tests/` alone, which shares the random construction helpers defined here.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable

import numpy as np

from . import measures, normal_form, psd_quartic, sum_rule
from .rationals import GaussianRational
from .sequences import VerblunskySequence, lukic_partial_sums
from .shift_algebra import (
    ShiftPolynomial, coefficient_map, diag_eval, ideal_power_decompose, vanishing_order
)

Check = tuple[str, Callable[[], tuple[bool, str]]]


# -- shared random constructions -------------------------------------------


def random_gaussian_rational(rng: random.Random, span: int = 4) -> GaussianRational:
    def frac():
        num = rng.randint(-span, span)
        den = rng.randint(1, span)
        return Fraction(num, den)

    return GaussianRational(frac(), frac())


def random_exact_sequence(rng: random.Random, length: int) -> list:
    """Exact entries with moduli comfortably inside the disc."""
    out = []
    for _ in range(length):
        re = Fraction(rng.randint(-6, 6), 10)
        im = Fraction(rng.randint(-6, 6), 10)
        out.append(GaussianRational(re, im))
    return out


def random_laurent_monomial(rng: random.Random, k: int, span: int = 2) -> ShiftPolynomial:
    exps = tuple(rng.randint(-span, span) for _ in range(2 * k))
    return ShiftPolynomial.monomial(k, exps, random_gaussian_rational(rng))


def random_ideal_member(rng: random.Random, k: int, q: int, pieces: int = 3) -> ShiftPolynomial:
    """Explicit element of the q-th diagonal ideal power: sums of products of
    q generators times random Laurent monomials."""
    total = ShiftPolynomial.zero(k)
    for _ in range(pieces):
        term = random_laurent_monomial(rng, k)
        for _ in range(q):
            slot = rng.randrange(2 * k)
            e = [0] * (2 * k)
            e[slot] = 1
            term = term * (ShiftPolynomial.monomial(k, e) - ShiftPolynomial.one(k))
        total = total + term
    return total


# -- suites ---------------------------------------------------------------


def _gram_checks() -> list[Check]:
    checks: list[Check] = []

    def identity(m):
        def run():
            ok = psd_quartic.gram_identity_check(m)
            return ok, "exact polynomial equality" if ok else "coefficient mismatch"

        return run

    def certify(m):
        def run():
            failure = psd_quartic.gram_sos_check(psd_quartic.gram_closed_form(m))
            squares = math.comb(m + 1, 2)
            proved = f"pref*B^T*D*B = M exactly, {squares} squares, weights > 0"
            return failure is None, failure or proved

        return run

    for m in range(1, 9):
        checks.append((f"gram.identity.m{m}", identity(m)))
    for m in range(1, 11):
        checks.append((f"gram.certify.m{m}", certify(m)))
    return checks


def _normalform_checks() -> list[Check]:
    checks: list[Check] = []

    def pointwise(k, q, seed):
        def run():
            rng = random.Random(seed)
            P = random_ideal_member(rng, k, q)
            seq = random_exact_sequence(rng, 14)
            dev = normal_form.pointwise_equality_check(P, q, seq, range(0, 9))
            return dev == 0.0, f"max deviation {dev}"

        return run

    seed = 1000
    for k in (1, 2, 3):
        for q in (1, 2, 3, 4):
            checks.append((f"normalform.pointwise.k{k}.q{q}", pointwise(k, q, seed)))
            seed += 1

    def telescoping_example():
        x1, x2 = ShiftPolynomial.x(2, 1), ShiftPolynomial.x(2, 2)
        y1, y2 = ShiftPolynomial.y(2, 1), ShiftPolynomial.y(2, 2)
        P = x1 * x2 * y1 * y2 - ShiftPolynomial.one(2)
        dec = ideal_power_decompose(P, 1)
        ok = dec.member and len(dec.terms) == 4 and dec.recompose() == P
        return ok, f"{len(dec.terms)} terms, exact recomposition"

    checks.append(("normalform.telescoping_factorization", telescoping_example))
    return checks


def _measures_checks() -> list[Check]:
    checks: list[Check] = []

    def series_oracle():
        prefix = VerblunskySequence((0.4, 0.2 - 0.3j, -0.1j, 0.25))
        for m in (1, 2, 3):
            quad = measures.szego_functional(
                measures.MeasureSpec.bernstein_szego(prefix), m, 4096
            )
            ser = measures.szego_functional_series(prefix, m, [3])[(m, 3)]
            if abs(quad - ser) > 1e-9:
                return False, f"m={m}: quadrature {quad} vs series {ser}"
        return True, "quadrature matches series oracle"

    checks.append(("measures.series_oracle", series_oracle))
    return checks


def _sumrule_checks() -> list[Check]:
    checks: list[Check] = []

    def hm_invariants():
        # P^m H_m(P) = 2^-m (1-P)^m (P-1)^m, expanded in the ring
        x = ShiftPolynomial.x(1, 1)
        for m in range(1, 13):
            symbol = sum_rule.hm_shift_symbol(m)
            if symbol != (x - 1) ** (2 * m) * Fraction((-1) ** m, 2**m):
                return False, f"closed form mismatch at m={m}"
            if not diag_eval(symbol).is_zero():
                return False, f"symbol does not vanish at theta = 0 for m={m}"
        return True, "symbols m=1..12 exact"

    checks.append(("sumrule.hm_symbol", hm_invariants))

    def interior_identity():
        rng = random.Random(31)
        m, N = 2, 24
        vals = [0j] * (N + 2 * m + 1)
        for i in range(m, N - m + 1):
            vals[i] = 0.8 * (rng.random() - 0.5) + 0.8j * (rng.random() - 0.5)
        seq = VerblunskySequence(vals)
        # the Fourier side sum_l h_{m,l} a_{n+l} conj(a_n): the symbol with x^-m cleared
        S = sum_rule.hm_shift_symbol(m) * ShiftPolynomial.monomial(1, (-m, 0))
        q1 = sum(coefficient_map(S, seq, n) for n in range(N + 1)).real
        q2 = lukic_partial_sums(seq, m, N).diff_energy / 2**m
        return abs(q1 - q2) <= 1e-12, f"|fourier - difference energy| = {abs(q1 - q2):.2e}"

    checks.append(("sumrule.interior_identity", interior_identity))

    def tail():
        for m in (1, 2, 5):
            for mod in np.arange(0.0, 0.995, 0.1):
                val = sum_rule.log_tail(mod, m)
                bound = mod ** (2 * m + 2) / (m + 1)
                if val < bound - 1e-15:
                    return False, f"tail below bound at |a|={mod}, m={m}"
        return True, "tail >= |a|^(2m+2)/(m+1)"

    checks.append(("sumrule.log_tail_bound", tail))

    def vanishing():
        for m in range(1, 6):
            P = sum_rule.hm_shift_symbol(m)
            if vanishing_order(P, 12) != 2 * m:
                return False, f"order != 2m at m={m}"
        return True, "H_m symbol vanishes to order exactly 2m"

    checks.append(("sumrule.hm_vanishing_order", vanishing))

    def residual_constancy():
        seq = VerblunskySequence([0.5 / (n + 1) for n in range(160)])
        r1 = sum_rule.decomposition_report(seq, 1, 50).residual
        r2 = sum_rule.decomposition_report(seq, 1, 150).residual
        expected = 0.5 + 0.5**2 / 2
        ok = abs(r1 - expected) <= 1e-10 and abs(r2 - expected) <= 1e-10
        return ok, f"m=1 residual {r1:.12f} vs Re a_0 + |a_0|^2/2"

    checks.append(("sumrule.m1_residual", residual_constancy))
    return checks


SUITES = {
    "gram": _gram_checks,
    "normalform": _normalform_checks,
    "measures": _measures_checks,
    "sumrule": _sumrule_checks,
}


def run_suites(selector: str = "all") -> tuple[list[tuple[str, bool, str]], bool]:
    """Run the selected suite(s); returns ((name, passed, detail)..., all_ok)."""
    if selector == "all":
        names = list(SUITES)
    elif selector in SUITES:
        names = [selector]
    else:
        raise ValueError(f"unknown suite {selector!r}; choose from {list(SUITES)} or 'all'")
    results = []
    all_ok = True
    for suite_name in names:
        for check_name, fn in SUITES[suite_name]():
            try:
                ok, detail = fn()
            except Exception as exc:  # a crashing check is a failing check
                ok, detail = False, f"exception: {exc!r}"
            results.append((check_name, ok, detail))
            all_ok = all_ok and ok
    return results, all_ok
