from fractions import Fraction

import pytest

from opuckit.rationals import GaussianRational


def test_arithmetic_field_laws():
    a = GaussianRational(Fraction(1, 2), Fraction(-1, 3))
    b = GaussianRational(Fraction(2, 5), Fraction(7, 4))
    c = GaussianRational(Fraction(-3), Fraction(1, 6))
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a * b) / b == a


def test_conjugation_and_complex():
    a = GaussianRational(Fraction(3, 4), Fraction(-2, 7))
    assert a.conjugate().im == Fraction(2, 7)
    assert (a * a.conjugate()).im == 0
    assert complex(a) == 0.75 - (2 / 7) * 1j


def test_coercion_and_int_mixing():
    a = GaussianRational(1, 2)
    assert 2 * a == GaussianRational(2, 4)
    assert a + 1 == GaussianRational(2, 2)
    assert 1 - a == GaussianRational(0, -2)
    with pytest.raises(TypeError):
        GaussianRational.coerce(0.5)  # floats never enter the exact layer


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)
