from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opuckit.rationals import GaussianRational

FIXED = settings.get_profile("fixed")


def test_arithmetic_field_laws():
    a = GaussianRational(Fraction(1, 2), Fraction(-1, 3))
    b = GaussianRational(Fraction(2, 5), Fraction(7, 4))
    c = GaussianRational(Fraction(-3), Fraction(1, 6))
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + (-a) == 0


def test_complex():
    a = GaussianRational(Fraction(3, 4), Fraction(-2, 7))
    assert complex(a) == 0.75 - (2 / 7) * 1j


def test_coercion_and_int_mixing():
    a = GaussianRational(1, 2)
    assert 2 * a == GaussianRational(2, 4)
    assert a + 1 == GaussianRational(2, 2)
    with pytest.raises(TypeError):
        GaussianRational.coerce(0.5)  # floats never enter the exact layer


parts = st.fractions(min_value=-3, max_value=3, max_denominator=4)
scalars = st.one_of(
    st.integers(-3, 3),
    parts,
    st.builds(GaussianRational, parts),
    st.builds(GaussianRational, parts, parts),
)


@settings(FIXED, max_examples=200)
@given(scalars, scalars)
def test_equal_scalars_hash_alike(a, b):
    assert a != b or hash(a) == hash(b)
    same = GaussianRational.coerce(a)
    assert same == a and hash(same) == hash(a)


def test_a_real_value_is_the_same_key_as_its_int():
    assert len({GaussianRational(1), 1}) == 1
    assert {Fraction(1, 2): "half"}[GaussianRational(Fraction(1, 2))] == "half"
