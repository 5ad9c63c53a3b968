import hashlib
import random
from fractions import Fraction

import pytest

from opuckit.normal_form import (
    MembershipError,
    NormalFormMonomial,
    evaluate,
    from_ideal_expansion,
    pointwise_equality_check,
)
from opuckit.rationals import GaussianRational
from opuckit.sequences import VerblunskySequence
from opuckit.shift_algebra import ShiftPolynomial, ideal_power_decompose
from opuckit.suites import random_exact_sequence, random_ideal_member

from helpers import monomial_json, random_float_sequence


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

    def test_golden_digest(self):
        # the JSON of every member's monomials and the message of every
        # non-member, for members of order q tested at q and at q + 1
        rng = random.Random(1301)
        text = ""
        for k in (1, 2, 3):
            for q in (1, 2, 3, 4):
                P = random_ideal_member(rng, k, q)
                for order in (q, q + 1):
                    decomposition = ideal_power_decompose(P, order)
                    try:
                        monos = from_ideal_expansion(decomposition)
                    except MembershipError as exc:
                        text += f"{k} {order} {exc}\n"
                        continue
                    text += "".join(monomial_json(m) + "\n" for m in monos)
        assert (
            hashlib.sha256(text.encode()).hexdigest()
            == "2ee6ed65c25ed09713f1b8f8ad07226ad3fa6787c028fa3a069db088ac9846b6"
        )


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
