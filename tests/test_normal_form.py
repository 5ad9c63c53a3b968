import math
import random
from fractions import Fraction

import pytest

from opuckit.normal_form import (
    MembershipError,
    NormalFormMonomial,
    TelescopeTerm,
    evaluate,
    from_ideal_expansion,
    leibniz_expand,
    pointwise_equality_check,
    summation_by_parts,
    telescope_sum,
)
from opuckit.rationals import GaussianRational
from opuckit.sequences import VerblunskySequence, forward_difference
from opuckit.shift_algebra import ShiftPolynomial, ideal_power_decompose
from opuckit.suites import random_exact_sequence, random_ideal_member

from helpers import random_float_sequence


def x(k, i):
    return ShiftPolynomial.x(k, i)


def y(k, j):
    return ShiftPolynomial.y(k, j)


class TestFromIdealExpansion:
    def test_single_generator_pair(self):
        P = (x(1, 1) - 1) * (y(1, 1) - 1)
        monos = from_ideal_expansion(ideal_power_decompose(P, 2))
        assert len(monos) == 1
        m = monos[0]
        assert m.holo_factors == ((1, 0),)
        assert m.anti_factors == ((1, 0),)
        assert m.coeff == GaussianRational(1)
        assert m.difference_count == 2

    def test_telescoping_monomials(self):
        k = 2
        P = x(k, 1) * x(k, 2) * y(k, 1) * y(k, 2) - ShiftPolynomial.one(k)
        monos = from_ideal_expansion(ideal_power_decompose(P, 1))
        assert len(monos) == 4
        for m in monos:
            assert m.difference_count == 1
            shifts = [s for _, s in m.holo_factors + m.anti_factors]
            assert set(shifts) <= {0, 1}

    def test_clearing_becomes_shift(self):
        P = ShiftPolynomial.monomial(1, (-1, 0)) * (x(1, 1) - 1) ** 2
        monos = from_ideal_expansion(ideal_power_decompose(P, 2))
        assert len(monos) == 1
        m = monos[0]
        assert m.holo_factors == ((2, -1),)
        assert m.anti_factors == ((0, 0),)

    def test_membership_failure_propagates(self):
        with pytest.raises(MembershipError):
            from_ideal_expansion(ideal_power_decompose(x(1, 1) - 1, 2))


class TestEvaluate:
    def test_diagonal_square(self):
        seq = VerblunskySequence((0.3 + 0.4j, 0.2))
        mono = NormalFormMonomial(1, ((0, 0),), ((0, 0),), 1.0)
        assert evaluate(mono, seq, 0) == pytest.approx(0.25)

    def test_linear_ramp_constant_difference(self):
        seq = VerblunskySequence(tuple(n * 0.01 for n in range(8)))
        mono = NormalFormMonomial(1, ((1, 0),), ((1, 0),), 1.0)
        for n in range(6):
            assert evaluate(mono, seq, n) == pytest.approx(0.01**2, rel=1e-12)

    def test_boundedness(self):
        rng = random.Random(200)
        seq = random_float_sequence(rng, 30, cap=0.999)
        mono = NormalFormMonomial(2, ((2, 1), (1, -1)), ((0, 0), (3, 2)), 0.7 - 0.2j)
        bound = abs(0.7 - 0.2j) * 2.0**mono.difference_count
        for n in range(-4, 32):
            assert abs(evaluate(mono, seq, n)) <= bound * (1 + 1e-12)

    def test_exact_mode_matches_float_mode(self):
        rng = random.Random(201)
        exact_seq = random_exact_sequence(rng, 10)
        float_seq = [complex(v) for v in exact_seq]
        mono = NormalFormMonomial(
            1, ((1, 0),), ((1, 1),), GaussianRational(Fraction(1, 3))
        )
        for n in range(8):
            ev = evaluate(mono, exact_seq, n)
            fv = evaluate(mono.as_float(), float_seq, n)
            assert isinstance(ev, GaussianRational)
            assert complex(ev) == pytest.approx(fv, abs=1e-14)

    def test_json_round_trip_both_modes(self):
        m1 = NormalFormMonomial(2, ((1, 0), (0, 2)), ((2, -1), (0, 0)), 0.5 - 0.25j)
        m2 = NormalFormMonomial(
            1, ((1, 0),), ((0, 0),), GaussianRational(Fraction(2, 7), Fraction(-1, 3))
        )
        for m in (m1, m2):
            again = NormalFormMonomial.from_json(m.to_json())
            assert again == m


class TestPointwiseEquality:
    def test_simple_generator_pair(self):
        rng = random.Random(202)
        seq = random_float_sequence(rng, 60)
        P = (x(1, 1) - 1) * (y(1, 1) - 1)
        assert pointwise_equality_check(P, 2, seq, range(0, 51)) <= 1e-15

    def test_telescoping_exact_rational(self):
        rng = random.Random(203)
        seq = random_exact_sequence(rng, 60)
        k = 2
        P = x(k, 1) * x(k, 2) * y(k, 1) * y(k, 2) - ShiftPolynomial.one(k)
        assert pointwise_equality_check(P, 1, seq, range(0, 51)) == 0.0

    def test_random_members_exact(self):
        rng = random.Random(204)
        for _ in range(10):
            k = rng.choice((1, 2, 3))
            q = rng.choice((1, 2, 3))
            P = random_ideal_member(rng, k, q)
            seq = random_exact_sequence(rng, 20)
            assert pointwise_equality_check(P, q, seq, range(0, 13)) == 0.0

    def test_window_tuple_form(self):
        rng = random.Random(205)
        seq = random_exact_sequence(rng, 12)
        P = (x(1, 1) - 1) * (y(1, 1) - 1)
        assert pointwise_equality_check(P, 2, seq, (0, 8)) == 0.0


class TestLeibniz:
    def test_first_order_structure(self):
        terms = leibniz_expand(1, 2)
        data = {(t.orders, t.shifts, t.coeff) for t in terms}
        assert data == {((1, 0), (0, 1), 1), ((0, 1), (0, 0), 1)}

    def test_order_zero(self):
        terms = leibniz_expand(0, 3)
        assert len(terms) == 1
        assert terms[0].orders == (0, 0, 0) and terms[0].coeff == 1

    def test_second_order_numeric_oracle(self):
        terms = leibniz_expand(2, 2)
        assert len(terms) == 4
        rng = random.Random(206)
        f = [rng.uniform(-1, 1) for _ in range(10)]
        g = [rng.uniform(-1, 1) for _ in range(10)]
        prod = [a * b for a, b in zip(f, g)]
        for n in range(5):
            direct = forward_difference(prod, 2, n)
            expanded = sum(
                t.coeff
                * forward_difference(f, t.orders[0], n + t.shifts[0])
                * forward_difference(g, t.orders[1], n + t.shifts[1])
                for t in terms
            )
            assert expanded == pytest.approx(direct, abs=1e-13)

    def test_conservation_of_difference_count(self):
        for q in range(4):
            for s in (1, 2, 3):
                for t in leibniz_expand(q, s):
                    assert sum(t.orders) == q

    def test_recomposition_many_factors(self):
        rng = random.Random(207)
        seqs = [[rng.uniform(-1, 1) for _ in range(12)] for _ in range(3)]
        prod = [a * b * c for a, b, c in zip(*seqs)]
        terms = leibniz_expand(3, 3)
        for n in range(4):
            direct = forward_difference(prod, 3, n)
            expanded = sum(
                t.coeff
                * math.prod(
                    forward_difference(seqs[i], t.orders[i], n + t.shifts[i])
                    for i in range(3)
                )
                for t in terms
            )
            assert expanded == pytest.approx(direct, abs=1e-12)


class TestSummationByParts:
    def test_constant_F(self):
        F = [2.0] * 6
        G = [1.0, -1.0, 2.0, 0.5, 0.0, 3.0]
        lhs, rhs, boundary = summation_by_parts(F, G, 4)
        assert lhs == 0
        assert rhs + boundary == pytest.approx(0.0, abs=1e-15)

    def test_ramp_example(self):
        lhs, rhs, boundary = summation_by_parts(lambda n: float(n), lambda n: 1.0, 3)
        assert lhs == pytest.approx(4.0)
        assert boundary == pytest.approx(4.0)
        assert rhs == pytest.approx(0.0)

    def test_random_identity(self):
        rng = random.Random(208)
        F = [rng.uniform(-1, 1) for _ in range(102)]
        G = [rng.uniform(-1, 1) for _ in range(102)]
        lhs, rhs, boundary = summation_by_parts(F, G, 100)
        assert lhs == pytest.approx(rhs + boundary, abs=1e-12)

    def test_interior_support_redistribution(self):
        # redistributed sum equals the original exactly when the boundary
        # window is zero
        F = [0.0] * 3 + [0.4, -0.7, 0.2] + [0.0] * 5
        G = [0.0] * 3 + [0.1, 0.9, -0.3] + [0.0] * 5
        lhs, rhs, boundary = summation_by_parts(F, G, 9)
        assert boundary == 0.0
        assert lhs == pytest.approx(rhs, abs=1e-15)


class TestTelescope:
    def test_empty_body(self):
        seq = VerblunskySequence((0.1, 0.2))
        assert telescope_sum(TelescopeTerm(body=()), seq, 5) == 0

    def test_two_term_telescope(self):
        seq = VerblunskySequence((0.5, 0.2))
        body = (NormalFormMonomial(1, ((0, 0),), ((0, 0),), 1.0),)
        val = telescope_sum(TelescopeTerm(body=body), seq, 0)
        assert val == pytest.approx(0.2**2 - 0.5**2)
        assert val == pytest.approx(-0.21)

    def test_random_body_endpoint_identity(self):
        rng = random.Random(209)
        seq = random_float_sequence(rng, 210)
        body = (
            NormalFormMonomial(1, ((1, 0),), ((0, 1),), 0.4 + 0.1j),
            NormalFormMonomial(1, ((0, 0),), ((2, 0),), -0.3j),
        )
        # telescope_sum raises if the naive accumulation disagrees
        telescope_sum(TelescopeTerm(body=body), seq, 200)

    def test_cross_check_catches_mismatch(self):
        class Lying(TelescopeTerm):
            calls = 0

            def body_value(self, seq, n):
                Lying.calls += 1
                return 1.0 if Lying.calls == 1 else float(n)

        seq = VerblunskySequence((0.1,) * 10)
        with pytest.raises(ArithmeticError):
            telescope_sum(Lying(body=()), seq, 5)
