"""Named verification suites behind `opuckit verify` and `normalform verify`.

Each check is a callable returning (passed, detail).  The suites are smoke
level: fast deterministic versions of the module invariants.  The full
randomized sweeps live in the pytest acceptance module; both share the
random construction helpers defined here.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable

import numpy as np

from . import _kernels, absorption, measures, normal_form, psd_quartic, sum_rule
from .rationals import GaussianRational
from .sequences import VerblunskySequence, forward_difference, lukic_partial_sums
from .shift_algebra import (
    ShiftPolynomial,
    diag_eval,
    ideal_power_decompose,
    vanishing_order,
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


def random_float_sequence(rng: random.Random, length: int, cap: float = 0.9) -> VerblunskySequence:
    vals = []
    for _ in range(length):
        r = cap * math.sqrt(rng.random())
        ang = 2.0 * math.pi * rng.random()
        vals.append(r * complex(math.cos(ang), math.sin(ang)))
    return VerblunskySequence(tuple(vals))


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
            cert = psd_quartic.psd_certificate(psd_quartic.gram_closed_form(m))
            return cert.certified, cert.failure or f"{len(cert.pivots)} pivots >= 0"

        return run

    for m in range(1, 9):
        checks.append((f"gram.identity.m{m}", identity(m)))
    for m in range(1, 11):
        checks.append((f"gram.certify.m{m}", certify(m)))

    def exhibit():
        ex = psd_quartic.raw_m2_failure_exhibit()
        ok = (
            ex.entries[0] == (Fraction(5, 6), Fraction(5, 12))
            and ex.entries[1] == (Fraction(1, 2), Fraction(1, 12))
            and not ex.is_symmetric
        )
        return ok, f"asymmetry {ex.asymmetry}"

    checks.append(("gram.raw_m2_exhibit", exhibit))
    return checks


def _algebra_checks() -> list[Check]:
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
            checks.append((f"algebra.pointwise.k{k}.q{q}", pointwise(k, q, seed)))
            seed += 1

    def unit_invariance():
        rng = random.Random(7)
        P = random_ideal_member(rng, 2, 2)
        unit = random_laurent_monomial(rng, 2)
        while not unit.terms:
            unit = random_laurent_monomial(rng, 2)
        cap = 6
        a = vanishing_order(P, cap)
        b = vanishing_order(unit * P, cap)
        return a == b, f"order {a} vs {b} after unit multiplication"

    checks.append(("algebra.unit_invariance", unit_invariance))

    def diag_hom():
        rng = random.Random(11)
        P = random_laurent_monomial(rng, 2) + random_laurent_monomial(rng, 2)
        Q = random_laurent_monomial(rng, 2) + random_laurent_monomial(rng, 2)
        lhs = diag_eval(P * Q)
        rhs = diag_eval(P) * diag_eval(Q)
        return lhs == rhs, "diag is multiplicative"

    checks.append(("algebra.diag_homomorphism", diag_hom))
    return checks


def _normalform_checks() -> list[Check]:
    checks: list[Check] = []

    def telescoping_example():
        x1, x2 = ShiftPolynomial.x(2, 1), ShiftPolynomial.x(2, 2)
        y1, y2 = ShiftPolynomial.y(2, 1), ShiftPolynomial.y(2, 2)
        P = x1 * x2 * y1 * y2 - ShiftPolynomial.one(2)
        dec = ideal_power_decompose(P, 1)
        ok = dec.member and len(dec.terms) == 4 and dec.recompose() == P
        return ok, f"{len(dec.terms)} terms, exact recomposition"

    checks.append(("normalform.telescoping_factorization", telescoping_example))

    def leibniz():
        rng = random.Random(3)
        f = [rng.uniform(-1, 1) for _ in range(12)]
        g = [rng.uniform(-1, 1) for _ in range(12)]
        terms = normal_form.leibniz_expand(2, 2)
        ok = len(terms) == 4 and all(sum(t.orders) == 2 for t in terms)
        for n in range(4):
            direct = forward_difference([a * b for a, b in zip(f, g)], 2, n)
            expanded = sum(
                t.coeff
                * forward_difference(f, t.orders[0], n + t.shifts[0])
                * forward_difference(g, t.orders[1], n + t.shifts[1])
                for t in terms
            )
            ok = ok and abs(direct - expanded) <= 1e-12
        return ok, "Delta^2(fg) recomposed from 4 branch terms"

    checks.append(("normalform.leibniz.q2s2", leibniz))

    def sbp():
        rng = random.Random(5)
        F = [rng.uniform(-1, 1) for _ in range(102)]
        G = [rng.uniform(-1, 1) for _ in range(102)]
        lhs, rhs, boundary = normal_form.summation_by_parts(F, G, 100)
        dev = abs(lhs - rhs - boundary)
        return dev <= 1e-12, f"identity deviation {dev:.2e}"

    checks.append(("normalform.summation_by_parts", sbp))

    def redistribution():
        # interior support: boundary term vanishes exactly
        F = [0.0, 0.0] + [0.3, -0.2, 0.5, 0.1] + [0.0] * 4
        G = [0.0, 0.0] + [-0.4, 0.2, 0.3, -0.1] + [0.0] * 4
        lhs, rhs, boundary = normal_form.summation_by_parts(F, G, 8)
        return boundary == 0.0 and abs(lhs - rhs) <= 1e-15, f"boundary {boundary}"

    checks.append(("normalform.redistribution_interior", redistribution))
    return checks


def _sequences_checks() -> list[Check]:
    checks: list[Check] = []

    def linearity():
        rng = random.Random(21)
        a = random_float_sequence(rng, 12, cap=0.7)
        b = random_float_sequence(rng, 12, cap=0.7)
        ca, cb = 0.37 - 0.1j, -0.52 + 0.25j
        combo = [ca * x + cb * y for x, y in zip(a.values, b.values)]
        ok = True
        for m in (1, 2, 3):
            for n in range(10):
                lhs = forward_difference(combo, m, n)
                rhs = ca * forward_difference(a, m, n) + cb * forward_difference(b, m, n)
                ok = ok and abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
        return ok, "Delta^m is linear"

    checks.append(("sequences.linearity", linearity))

    def composition():
        rng = random.Random(22)
        a = random_float_sequence(rng, 16, cap=0.8)
        ok = True
        for m1, m2 in ((1, 1), (1, 2), (2, 3)):
            inner = lambda n, m2=m2: forward_difference(a, m2, n)
            for n in range(8):
                lhs = sum(
                    (-1) ** (m1 - j) * math.comb(m1, j) * inner(n + j)
                    for j in range(m1 + 1)
                )
                rhs = forward_difference(a, m1 + m2, n)
                ok = ok and abs(lhs - rhs) <= 1e-12
        return ok, "Delta^{m1} Delta^{m2} = Delta^{m1+m2}"

    checks.append(("sequences.composition", composition))

    def bounded():
        rng = random.Random(23)
        a = random_float_sequence(rng, 40, cap=0.999)
        ok = all(
            abs(forward_difference(a, m, n)) <= 2.0**m + 1e-12
            for m in range(7)
            for n in range(-m, 41)
        )
        return ok, "|Delta^m a| <= 2^m"

    checks.append(("sequences.difference_bound", bounded))

    def monotone():
        rng = random.Random(24)
        a = random_float_sequence(rng, 60, cap=0.9)
        prev_d, prev_p = -1.0, -1.0
        ok = True
        for N in (5, 15, 30, 59):
            rep = lukic_partial_sums(a, 2, N)
            ok = ok and rep.diff_energy >= prev_d - 1e-15 and rep.power_energy >= prev_p - 1e-15
            prev_d, prev_p = rep.diff_energy, rep.power_energy
        return ok, "energies monotone in N"

    checks.append(("sequences.energy_monotone", monotone))
    return checks


def _measures_checks() -> list[Check]:
    checks: list[Check] = []

    def mass():
        w = measures.bernstein_szego_weight([0.5], 2048)
        dev = abs(float(np.mean(w)) - 1.0)
        return dev <= 5e-9, f"mass deviation {dev:.2e}"

    checks.append(("measures.mass_normalization", mass))

    def szego_identity():
        val = measures.szego_functional(
            measures.MeasureSpec.bernstein_szego([0.5]), 0, 2048
        ).value
        dev = abs(val - (-math.log(0.75)))
        return dev <= 1e-8, f"deviation {dev:.2e}"

    checks.append(("measures.szego_identity", szego_identity))

    def roundtrip():
        prefix = VerblunskySequence((0.5, -0.2 + 0.1j, 0.3j))
        mom = measures.trig_moments(measures.MeasureSpec.bernstein_szego(prefix), 3, 4096)
        rec = measures.verblunsky_from_moments(mom)
        dev = max(abs(x - y) for x, y in zip(prefix.values, rec.values))
        return dev <= 1e-7, f"recovery deviation {dev:.2e}"

    checks.append(("measures.moment_roundtrip", roundtrip))

    def series_oracle():
        prefix = VerblunskySequence((0.4, 0.2 - 0.3j, -0.1j, 0.25))
        for m in (1, 2, 3):
            quad = measures.szego_functional(
                measures.MeasureSpec.bernstein_szego(prefix), m, 4096
            ).value
            ser = measures.szego_functional_series(prefix, m, [3])[(m, 3)]
            if abs(quad - ser) > 1e-9:
                return False, f"m={m}: quadrature {quad} vs series {ser}"
        return True, "quadrature matches series oracle"

    checks.append(("measures.series_oracle", series_oracle))
    return checks


def _sumrule_checks() -> list[Check]:
    checks: list[Check] = []

    def hm_invariants():
        for m in range(1, 13):
            sym = sum_rule.hm_fourier(m)  # constructor enforces the invariants
            for ell in range(-m, m + 1):
                if sym.coeffs[ell] != sum_rule.hm_closed_form(m, ell):
                    return False, f"closed form mismatch at m={m}, l={ell}"
        return True, "symbols m=1..12 exact"

    checks.append(("sumrule.hm_symbol", hm_invariants))

    def interior_identity():
        rng = random.Random(31)
        m, N = 2, 24
        vals = [0j] * (N + 2 * m + 1)
        for i in range(m, N - m + 1):
            vals[i] = 0.8 * (rng.random() - 0.5) + 0.8j * (rng.random() - 0.5)
        seq = VerblunskySequence(tuple(vals))
        q1 = sum_rule.quadratic_form(seq, m, N)
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
        seq = VerblunskySequence(tuple(0.5 / (n + 1) for n in range(160)))
        r1 = sum_rule.decomposition_report(seq, 1, 50).residual
        r2 = sum_rule.decomposition_report(seq, 1, 150).residual
        expected = 0.5 + 0.5**2 / 2
        ok = abs(r1 - expected) <= 1e-10 and abs(r2 - expected) <= 1e-10
        return ok, f"m=1 residual {r1:.12f} vs Re a_0 + |a_0|^2/2"

    checks.append(("sumrule.m1_residual", residual_constancy))
    return checks


def _absorb_checks() -> list[Check]:
    checks: list[Check] = []

    def exponents():
        for m in range(1, 13):
            if absorption.gn_exponent(m, 0).p_r != Fraction(2 * m + 2):
                return False, f"p_0 != 2m+2 at m={m}"
            if absorption.gn_exponent(m, m).p_r != 2:
                return False, f"p_m != 2 at m={m}"
            for r in range(m):
                if absorption.gn_exponent(m, r).p_r <= absorption.gn_exponent(m, r + 1).p_r:
                    return False, f"p_r not decreasing at m={m}, r={r}"
                if absorption.scaling_relation_residual(m, r) != 0:
                    return False, f"scaling relation fails at m={m}, r={r}"
        return True, "exponent ladder exact, m <= 12"

    checks.append(("absorb.exponents", exponents))

    def budgets():
        for m in range(2, 13):
            for k in range(2, m + 1):
                budget = absorption.holder_budget(m, k, absorption.critical_orders(m, k))
                expected = Fraction(m + 1 + k, 2 * (m + 1))
                if budget.exponent_sum != expected or not budget.subcritical:
                    return False, f"budget mismatch at m={m}, k={k}"
                if absorption.young_subcriticality(m, k) != expected:
                    return False, f"young exponent mismatch at m={m}, k={k}"
        return True, "budgets exact and subcritical, 2 <= k <= m <= 12"

    checks.append(("absorb.budgets", budgets))
    return checks


def _kernel_checks() -> list[Check]:
    checks: list[Check] = []

    def scalar_consistency():
        prefix = VerblunskySequence((0.3, 0.2j, -0.4, 0.1 - 0.1j))
        z = np.exp(1j * measures.theta_grid(16))
        grid = _kernels.log_phistar_abs(np.asarray(prefix.values), z)
        dev = 0.0
        for g in range(16):
            _, ps = measures.szego_recursion_polynomials(prefix, complex(z[g]))
            dev = max(dev, abs(math.log(abs(ps)) - float(grid[g])))
        return dev <= 1e-12, f"max dev vs scalar recursion {dev:.2e}"

    checks.append(("kernels.scalar_consistency", scalar_consistency))
    return checks


SUITES = {
    "gram": _gram_checks,
    "algebra": _algebra_checks,
    "normalform": _normalform_checks,
    "sequences": _sequences_checks,
    "measures": _measures_checks,
    "sumrule": _sumrule_checks,
    "absorb": _absorb_checks,
    "kernels": _kernel_checks,
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
