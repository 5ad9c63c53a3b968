import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opuckit.normal_form import from_ideal_expansion
from opuckit.rationals import GR_ZERO, GaussianRational
from opuckit.sequences import VerblunskySequence
from opuckit.shift_algebra import (
    IdealDecomposition,
    IdealTerm,
    MomentQuery,
    ShiftPolynomial,
    _compositions,
    coefficient_map,
    diag_eval,
    euler_moment,
    ideal_power_decompose,
    vanishing_order,
)
from opuckit.suites import (
    random_exact_sequence,
    random_gaussian_rational,
    random_ideal_member,
    random_laurent_monomial,
)
from opuckit.sum_rule import hm_fourier, hm_shift_symbol

from helpers import random_float_sequence

FIXED = settings.get_profile("fixed")


def x(k, i):
    return ShiftPolynomial.x(k, i)


def hm_laurent_symbol(m):
    """H_m with its Fourier coefficients at exponents -m..m of x_1."""
    return ShiftPolynomial(1, {(l, 0): c for l, c in hm_fourier(m).coeffs.items()})


def y(k, j):
    return ShiftPolynomial.y(k, j)


def one(k):
    return ShiftPolynomial.one(k)


def divide_once_by_p_minus_1(coeffs):
    """Synthetic division oracle for ordinary one-variable polynomials.

    coeffs: dict exp -> GaussianRational with exps >= 0.  Returns
    (quotient dict, remainder scalar) for division by (x - 1).
    """
    if not coeffs:
        return {}, GaussianRational(0)
    deg = max(coeffs)
    quotient = {}
    carry = GaussianRational(0)
    for e in range(deg, 0, -1):
        carry = carry + coeffs.get(e, GaussianRational(0))
        quotient[e - 1] = carry
    remainder = carry + coeffs.get(0, GaussianRational(0))
    return {e: c for e, c in quotient.items() if not c.is_zero()}, remainder


def random_x_polynomial(rng, pieces=2, span=3):
    """Random one-variable Laurent polynomial (x slot only, k = 1)."""
    total = ShiftPolynomial.zero(1)
    for _ in range(pieces):
        total = total + ShiftPolynomial.monomial(
            1, (rng.randint(-span, span), 0), random_gaussian_rational(rng)
        )
    return total


def laurent_divisible_by_power(poly: ShiftPolynomial, q: int) -> bool:
    """Independent divisibility oracle: clear negatives, divide q times."""
    exps = [e[0] for e in poly.terms]
    if not exps:
        return True
    shift = max(0, -min(exps))
    coeffs: dict = {}
    for e, c in poly.terms.items():
        key = e[0] + shift
        coeffs[key] = coeffs.get(key, GaussianRational(0)) + c
    coeffs = {e: c for e, c in coeffs.items() if not c.is_zero()}
    for _ in range(q):
        if not coeffs:
            return True
        coeffs, remainder = divide_once_by_p_minus_1(coeffs)
        if not remainder.is_zero():
            return False
    return True


class TestRing:
    def test_ring_laws_random(self):
        rng = random.Random(100)
        for _ in range(25):
            k = rng.choice((1, 2, 3))
            P = random_laurent_monomial(rng, k) + random_laurent_monomial(rng, k)
            Q = random_laurent_monomial(rng, k) + random_laurent_monomial(rng, k)
            R = random_laurent_monomial(rng, k)
            assert P + Q == Q + P
            assert P * Q == Q * P
            assert (P + Q) + R == P + (Q + R)
            assert (P * Q) * R == P * (Q * R)
            assert P * (Q + R) == P * Q + P * R

    def test_no_stored_zeros(self):
        P = x(1, 1) - x(1, 1)
        assert P.terms == {}
        Q = x(1, 1) + (-1) * x(1, 1) + one(1)
        assert list(Q.terms.values()) == [GaussianRational(1)]

    def test_power(self):
        P = x(1, 1) - one(1)
        assert P**0 == one(1)
        assert P**3 == P * P * P

    def test_json_round_trip(self):
        P = ShiftPolynomial(
            2,
            {
                (1, -2, 0, 3): GaussianRational(Fraction(1, 3), Fraction(-2, 7)),
                (0, 0, 0, 0): GaussianRational(-1),
            },
        )
        again = ShiftPolynomial.from_json(P.to_json())
        assert again == P
        import json

        term = json.loads(P.to_json())["terms"][0]
        assert set(term) == {"exp", "re", "im"}
        assert isinstance(term["re"], str)


class TestDiagEval:
    def test_examples(self):
        k = 1
        assert diag_eval(x(k, 1) * y(k, 1) - one(k)) == GaussianRational(0)
        P = 3 * x(k, 1) + 2 * ShiftPolynomial.monomial(k, (0, -1))
        assert diag_eval(P) == GaussianRational(5)

    def test_hm_symbol_diagonal_zero(self):
        for m in (1, 2, 3, 4):
            assert diag_eval(hm_shift_symbol(m)).is_zero()
            assert diag_eval(hm_laurent_symbol(m)).is_zero()

    def test_homomorphism(self):
        rng = random.Random(101)
        for _ in range(20):
            k = rng.choice((1, 2))
            P = random_laurent_monomial(rng, k) + random_laurent_monomial(rng, k)
            Q = random_laurent_monomial(rng, k) + random_laurent_monomial(rng, k)
            assert diag_eval(P * Q) == diag_eval(P) * diag_eval(Q)


class TestEulerMoment:
    def test_linear_term(self):
        P = x(1, 1) - one(1)
        assert euler_moment(P, (1, 0)) == GaussianRational(1)
        assert euler_moment(P, (0, 0)).is_zero()

    def test_laurent_term(self):
        P = ShiftPolynomial.monomial(1, (1, -1)) - one(1)
        assert euler_moment(P, (0, 0)).is_zero()
        assert euler_moment(P, (1, 0)) == GaussianRational(1)
        assert euler_moment(P, (0, 1)) == GaussianRational(-1)

    def test_squared_generator(self):
        # (x-1)^2 = x^2 - 2x + 1: moments 1-2+1, 2-2, 4-2
        P = (x(1, 1) - one(1)) ** 2
        assert euler_moment(P, (0, 0)).is_zero()
        assert euler_moment(P, (1, 0)).is_zero()
        assert euler_moment(P, (2, 0)) == GaussianRational(2)

    def test_zero_power_convention(self):
        # 0^0 = 1: the constant term contributes to the zeroth moment
        P = one(1)
        assert euler_moment(P, (0, 0)) == GaussianRational(1)
        assert euler_moment(P, (1, 0)).is_zero()


class TestVanishingOrder:
    def test_examples(self):
        assert vanishing_order((x(1, 1) - 1) * (y(1, 1) - 1), 8) == 2
        P = ShiftPolynomial.monomial(1, (1, -1)) - one(1)
        assert vanishing_order(P, 8) == 1
        assert vanishing_order(one(1), 8) == 0

    def test_hm_symbol_order(self):
        for m in range(1, 6):
            assert vanishing_order(hm_shift_symbol(m), 12) == 2 * m
            assert vanishing_order(hm_laurent_symbol(m), 12) == 2 * m

    def test_unit_invariance(self):
        rng = random.Random(102)
        for _ in range(10):
            k = rng.choice((1, 2))
            P = random_ideal_member(rng, k, rng.choice((1, 2)))
            unit = ShiftPolynomial.monomial(
                k, tuple(rng.randint(-2, 2) for _ in range(2 * k))
            )
            assert vanishing_order(P, 6) == vanishing_order(unit * P, 6)

    def test_superadditive_under_products(self):
        rng = random.Random(103)
        for _ in range(10):
            k = 2
            P = random_ideal_member(rng, k, 1)
            Q = random_ideal_member(rng, k, 2)
            cap = 6
            vp, vq = vanishing_order(P, cap), vanishing_order(Q, cap)
            assert vanishing_order(P * Q, cap) >= min(cap, vp + vq)

    def test_zero_polynomial_hits_cap(self):
        assert vanishing_order(ShiftPolynomial.zero(2), 5) == 5


class TestIdealDecompose:
    def test_single_product_is_itself(self):
        P = (x(1, 1) - 1) * (y(1, 1) - 1)
        dec = ideal_power_decompose(P, 2)
        assert dec.member and len(dec.terms) == 1
        t = dec.terms[0]
        assert t.gen_orders == (1, 1) and t.shifts == (0, 0)
        assert t.coeff == GaussianRational(1)
        assert dec.recompose() == P

    def test_telescoping_four_terms(self):
        k = 2
        P = x(k, 1) * x(k, 2) * y(k, 1) * y(k, 2) - one(k)
        dec = ideal_power_decompose(P, 1)
        assert dec.member and len(dec.terms) == 4
        assert dec.recompose() == P
        # oracle: the explicit telescoping factorization abcd - 1
        a, b, c, d = x(k, 1), x(k, 2), y(k, 1), y(k, 2)
        tele = (a - 1) * b * c * d + (b - 1) * c * d + (c - 1) * d + (d - 1)
        assert tele == P

    def test_failure_with_witness(self):
        dec = ideal_power_decompose(x(1, 1) - 1, 2)
        assert not dec.member
        assert dec.witness == MomentQuery((1, 0))

    def test_clearing_shift(self):
        P = ShiftPolynomial.monomial(1, (-1, 0)) * (x(1, 1) - 1) ** 2
        dec = ideal_power_decompose(P, 2)
        assert dec.member and len(dec.terms) == 1
        t = dec.terms[0]
        assert t.gen_orders == (2, 0) and t.shifts == (-1, 0)
        assert dec.recompose() == P

    def test_order_zero_is_trivial(self):
        P = x(1, 1) + 2 * y(1, 1)
        dec = ideal_power_decompose(P, 0)
        assert dec.member and dec.recompose() == P

    def test_random_members_round_trip(self):
        rng = random.Random(104)
        for _ in range(30):
            k = rng.choice((1, 2, 3))
            q = rng.choice((1, 2, 3, 4))
            P = random_ideal_member(rng, k, q)
            dec = ideal_power_decompose(P, q)
            assert dec.member
            assert all(sum(t.gen_orders) == q for t in dec.terms)
            assert dec.recompose() == P

    def test_membership_matches_full_expansion_oracle(self):
        # independent oracle: expand the cleared polynomial fully in the
        # shifted coordinates V = v - 1 by the binomial theorem; membership
        # in the q-th power is the absence of total degree < q
        import itertools
        import math as _math

        def full_expansion_member(P, q):
            if not P.terms:
                return True
            nslots = 2 * P.k
            clearing = [max(0, -min(e[s] for e in P.terms)) for s in range(nslots)]
            low = {}
            for exps, c in P.terms.items():
                shifted = [e + m for e, m in zip(exps, clearing)]
                choices = [range(e + 1) for e in shifted]
                for picks in itertools.product(*choices):
                    if sum(picks) >= q:
                        continue
                    w = 1
                    for e, s in zip(shifted, picks):
                        w *= _math.comb(e, s)
                    low[picks] = low.get(picks, GaussianRational(0)) + c * w
            return all(v.is_zero() for v in low.values())

        rng = random.Random(110)
        for _ in range(120):
            k = rng.choice((1, 2))
            q = rng.choice((1, 2, 3))
            if rng.random() < 0.5:
                P = random_ideal_member(rng, k, q)
            else:
                P = random_laurent_monomial(rng, k) + random_laurent_monomial(rng, k)
            dec = ideal_power_decompose(P, q)
            assert dec.member == full_expansion_member(P, q)
            if dec.member:
                assert dec.recompose() == P

    def test_decomposition_deterministic(self):
        rng = random.Random(111)
        P = random_ideal_member(rng, 2, 2)
        first = ideal_power_decompose(P, 2)
        second = ideal_power_decompose(P, 2)
        assert first.terms == second.terms

    def test_membership_matches_moment_criterion(self):
        rng = random.Random(105)
        for _ in range(30):
            k = rng.choice((1, 2))
            q = rng.choice((1, 2, 3))
            if rng.random() < 0.5:
                P = random_ideal_member(rng, k, q)
            else:
                P = random_laurent_monomial(rng, k) + random_laurent_monomial(rng, k)
            dec = ideal_power_decompose(P, q)
            assert dec.member == (vanishing_order(P, q) >= q)
            if not dec.member:
                assert not euler_moment(P, dec.witness.exponents).is_zero()
                assert dec.witness.total_order < q

    def test_moment_divisibility_duality_one_variable(self):
        # Lemma oracle: (P-1)^q | R  <=>  moments 0..q-1 vanish, decided
        # independently by synthetic division
        rng = random.Random(106)
        for _ in range(60):
            q = rng.choice((1, 2, 3))
            if rng.random() < 0.5:
                R = random_x_polynomial(rng) * (x(1, 1) - 1) ** q
            else:
                R = random_x_polynomial(rng, pieces=3)
            momzero = all(
                euler_moment(R, (ell, 0)).is_zero() for ell in range(q)
            )
            assert momzero == laurent_divisible_by_power(R, q)


# -- the GaussianRational splitting, kept as the oracle of ideal_power_decompose


def oracle_divide_at_one(terms: dict, slot: int) -> tuple[dict, dict]:
    groups: dict = {}
    for exps, coeff in terms.items():
        key = exps[:slot] + (0,) + exps[slot + 1 :]
        groups.setdefault(key, {})[exps[slot]] = coeff
    value: dict = {}
    quotient: dict = {}
    for key, univ in groups.items():
        val = GR_ZERO
        for c in univ.values():
            val = val + c
        if not val.is_zero():
            value[key] = val
        suffix = GR_ZERO
        for e in range(max(univ) - 1, -1, -1):
            nxt = univ.get(e + 1)
            if nxt is not None:
                suffix = suffix + nxt
            if not suffix.is_zero():
                here = key[:slot] + (e,) + key[slot + 1 :]
                quotient[here] = quotient.get(here, GR_ZERO) + suffix
    return value, {e: c for e, c in quotient.items() if not c.is_zero()}


def oracle_ideal_power_decompose(P: ShiftPolynomial, q: int) -> IdealDecomposition:
    k = P.k
    nslots = 2 * k
    if not P.terms:
        return IdealDecomposition(k=k, order=q, member=True, terms=())
    clearing = tuple(max(0, -min(e[slot] for e in P.terms)) for slot in range(nslots))
    cleared = {
        tuple(e + m for e, m in zip(exps, clearing)): c for exps, c in P.terms.items()
    }
    final = []
    jets = []

    def split(gen, terms, slot):
        if sum(gen) == q:
            for exps, coeff in terms.items():
                shifts = tuple(e - m for e, m in zip(exps, clearing))
                final.append(IdealTerm(gen_orders=gen, shifts=shifts, coeff=coeff))
            return
        if slot == nslots:
            coeff = terms.get(tuple([0] * nslots), GR_ZERO)
            if not coeff.is_zero():
                jets.append((gen, coeff))
            return
        value, quotient = oracle_divide_at_one(terms, slot)
        if value:
            split(gen, value, slot + 1)
        if quotient:
            bumped = gen[:slot] + (gen[slot] + 1,) + gen[slot + 1 :]
            split(bumped, quotient, slot)

    split(tuple([0] * nslots), cleared, 0)
    if jets:
        t = min(sum(gen) for gen, _ in jets)
        for exps in _compositions(t, nslots):
            if not euler_moment(P, exps).is_zero():
                return IdealDecomposition(k=k, order=q, member=False, witness=MomentQuery(exps))
        raise AssertionError("nonzero jet without a nonzero moment at its order")
    return IdealDecomposition(k=k, order=q, member=True, terms=tuple(final))


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def decomposition_inputs(draw, member=None):
    """(P, q) with k <= 3, q <= 5: sums of Laurent monomials times generators.

    Each piece is c v^e times a product of generators v_s - 1, with
    exponents e in [-2, 2].  A member has q generators in every piece; a
    non-member gets 0..q, so some are members after all; `member` None
    draws which of the two is meant.  A piece may come as a cancelling
    pair: coefficients whose real parts, imaginary parts or both are
    opposite, on two exponents one slot apart, so the value sum of that
    slot's branch cancels in that part.
    """
    k = draw(st.integers(1, 3))
    q = draw(st.integers(0, 5))
    nslots = 2 * k
    if member is None:
        member = draw(st.booleans())
    variables = [x(k, i) for i in range(1, k + 1)] + [y(k, j) for j in range(1, k + 1)]
    P = ShiftPolynomial.zero(k)
    for _ in range(draw(st.integers(1, 3))):
        gens = q if member else draw(st.integers(0, q))
        cofactor = ShiftPolynomial.one(k)
        for _ in range(gens):
            cofactor = cofactor * (variables[draw(st.integers(0, nslots - 1))] - 1)
        exps = tuple(draw(st.lists(st.integers(-2, 2), min_size=nslots, max_size=nslots)))
        re, im = draw(rationals), draw(rationals)
        piece = ShiftPolynomial.monomial(k, exps, GaussianRational(re, im))
        if draw(st.booleans()):
            slot = draw(st.integers(0, nslots - 1))
            step = draw(st.integers(1, 2))
            other = exps[:slot] + (exps[slot] + step,) + exps[slot + 1 :]
            part = draw(st.sampled_from(("re", "im", "both")))
            pair_re = -re if part != "im" else draw(rationals)
            pair_im = -im if part != "re" else draw(rationals)
            piece = piece + ShiftPolynomial.monomial(k, other, GaussianRational(pair_re, pair_im))
        P = P + piece * cofactor
    return P, q


class TestIdealDecomposeProperties:
    @settings(FIXED, max_examples=150)
    @given(inputs=decomposition_inputs())
    def test_equals_the_gaussian_rational_splitting(self, inputs):
        P, q = inputs
        got = ideal_power_decompose(P, q)
        want = oracle_ideal_power_decompose(P, q)
        assert got == want
        if want.member:
            got_json = [m.to_json() for m in from_ideal_expansion(got)]
            assert got_json == [m.to_json() for m in from_ideal_expansion(want)]

    @settings(FIXED, max_examples=60)
    @given(inputs=decomposition_inputs(member=False))
    def test_witness_is_a_lowest_order_nonzero_moment(self, inputs):
        P, q = inputs
        dec = ideal_power_decompose(P, q)
        if dec.member:
            assert vanishing_order(P, q) == q
        else:
            assert dec.witness.total_order == vanishing_order(P, q)
            assert not euler_moment(P, dec.witness).is_zero()


class TestCoefficientMap:
    def test_monomial_examples(self):
        seq = VerblunskySequence((0.2 + 0.1j, -0.3j, 0.4))
        # x_1 with implicit y_1^0 maps to a_{n+1} conj(a_n)
        val = coefficient_map(x(1, 1), seq, 0)
        assert val == pytest.approx(seq.values[1] * seq.values[0].conjugate())
        # the constant monomial is the diagonal |a_n|^2
        val = coefficient_map(one(1), seq, 1)
        assert val == pytest.approx(abs(seq.values[1]) ** 2)

    def test_constant_sequence_cancellation(self):
        seq = VerblunskySequence((0.3 + 0.4j,) * 5)
        P = x(1, 1) * y(1, 1) - one(1)
        for n in range(3):
            assert coefficient_map(P, seq, n) == pytest.approx(0.0, abs=1e-15)

    def test_linearity_in_polynomial(self):
        rng = random.Random(107)
        seq = random_float_sequence(rng, 10)
        P = random_laurent_monomial(rng, 2) + random_laurent_monomial(rng, 2)
        Q = random_laurent_monomial(rng, 2)
        c = GaussianRational(Fraction(2, 3), Fraction(-1, 5))
        for n in range(4):
            lhs = coefficient_map(P + c * Q, seq, n)
            rhs = coefficient_map(P, seq, n) + complex(c) * coefficient_map(Q, seq, n)
            assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_conjugate_symmetry(self):
        rng = random.Random(108)
        seq = random_float_sequence(rng, 12)
        for _ in range(10):
            P = random_laurent_monomial(rng, 2) + random_laurent_monomial(rng, 2)
            for n in range(4):
                lhs = coefficient_map(P.conjugate(), seq, n)
                rhs = coefficient_map(P, seq, n).conjugate()
                assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_exact_mode(self):
        rng = random.Random(109)
        seq = random_exact_sequence(rng, 8)
        P = random_ideal_member(rng, 2, 1)
        val = coefficient_map(P, seq, 2)
        assert isinstance(val, GaussianRational)

    def test_out_of_range_extension(self):
        seq = VerblunskySequence((0.5,))
        # a_{n+1} conj(a_n) at n = 0 reads a_1 = 0
        assert coefficient_map(x(1, 1), seq, 0) == 0
