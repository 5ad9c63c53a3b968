"""The difference-table evaluator against per-factor oracles, exact and float.

`coefficient_map`, `evaluate`, `pointwise_equality_check` and
`monomial_sum` compute their values from one difference table per window.
The oracles below are the direct loops: one product per factor, every
difference re-derived by `forward_difference`, in GaussianRational over
exact sequences and in complex floats over float ones.  The table path must
equal them exactly (floats up to the sign of a zero), and a corrupted
expansion must give the same non-zero deviation, bit for bit, since a
check that accepts `deviation == 0.0` proves nothing if the evaluator could
read 0 on a wrong expansion.
"""

from __future__ import annotations

import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opuckit import normal_form
from opuckit.absorption import monomial_sum
from opuckit.normal_form import (
    NormalFormMonomial,
    evaluate,
    from_ideal_expansion,
    pointwise_equality_check,
)
from opuckit.rationals import GR_ZERO, GaussianRational
from opuckit.sequences import VerblunskySequence
from opuckit.shift_algebra import (
    ShiftPolynomial,
    _table_sums,
    coefficient_map,
    ideal_power_decompose,
)
from opuckit.suites import random_ideal_member

from helpers import entry, forward_difference, table_sums_loop

FIXED = settings.get_profile("fixed")


# -- oracles -----------------------------------------------------------------


def oracle_coefficient_map(P: ShiftPolynomial, seq, n: int) -> GaussianRational:
    k = P.k
    total = GR_ZERO
    for exps, coeff in P.terms.items():
        prod = coeff
        for slot in range(k):
            prod = prod * GaussianRational.coerce(entry(seq, n + exps[slot]))
        for slot in range(k, 2 * k):
            g = GaussianRational.coerce(entry(seq, n + exps[slot]))
            prod = prod * GaussianRational(g.re, -g.im)
        total = total + prod
    return total


def oracle_evaluate(mono: NormalFormMonomial, seq, n: int) -> GaussianRational:
    prod = GaussianRational.coerce(mono.coeff)
    for a, shift in mono.holo_factors:
        prod = prod * GaussianRational.coerce(forward_difference(seq, a, n + shift))
    for b, shift in mono.anti_factors:
        g = GaussianRational.coerce(forward_difference(seq, b, n + shift))
        prod = prod * GaussianRational(g.re, -g.im)
    return prod


def oracle_deviation(P: ShiftPolynomial, monomials, seq, window) -> float:
    worst = 0.0
    for n in window:
        rhs = GR_ZERO
        for mono in monomials:
            rhs = rhs + oracle_evaluate(mono, seq, n)
        worst = max(worst, abs((oracle_coefficient_map(P, seq, n) + -rhs).to_complex()))
    return worst


def oracle_float_coefficient_map(P: ShiftPolynomial, seq, n: int) -> complex:
    k = P.k
    total = 0j
    for exps, coeff in P.terms.items():
        prod = coeff.to_complex()
        for slot in range(k):
            prod *= complex(entry(seq, n + exps[slot]))
        for slot in range(k, 2 * k):
            prod *= complex(entry(seq, n + exps[slot])).conjugate()
        total += prod
    return total


def oracle_float_evaluate(mono: NormalFormMonomial, seq, n: int) -> complex:
    coeff = mono.coeff
    if isinstance(coeff, GaussianRational):
        coeff = coeff.to_complex()
    prod = complex(coeff)
    for a, shift in mono.holo_factors:
        prod *= complex(forward_difference(seq, a, n + shift))
    for b, shift in mono.anti_factors:
        prod *= complex(forward_difference(seq, b, n + shift)).conjugate()
    return prod


def oracle_float_deviation(P: ShiftPolynomial, monomials, seq, window) -> float:
    worst = 0.0
    for n in window:
        rhs = 0j
        for mono in monomials:
            rhs += oracle_float_evaluate(mono, seq, n)
        worst = max(worst, abs(oracle_float_coefficient_map(P, seq, n) - rhs))
    return worst


# -- strategies --------------------------------------------------------------

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def members(draw):
    """(k, q, P) with P an explicit member of the q-th diagonal ideal power."""
    k = draw(st.integers(1, 3))
    q = draw(st.integers(1, 4))
    total = ShiftPolynomial.zero(k)
    for _ in range(draw(st.integers(1, 3))):
        exps = draw(st.lists(st.integers(-2, 2), min_size=2 * k, max_size=2 * k))
        term = ShiftPolynomial.monomial(k, exps, GaussianRational(draw(rationals), draw(rationals)))
        for slot in draw(st.lists(st.integers(0, 2 * k - 1), min_size=q, max_size=q)):
            gen = [0] * (2 * k)
            gen[slot] = 1
            term = term * (ShiftPolynomial.monomial(k, gen) - ShiftPolynomial.one(k))
        total = total + term
    return k, q, total




def _exact_sequences(entries):
    # the first entry makes the sequence exact; ints may sit beside it
    rest = st.lists(st.one_of(entries, st.integers(-2, 2)), max_size=7)
    return st.tuples(entries, rest).map(lambda pair: [pair[0]] + pair[1])


# entries with mixed denominators: up to 6 in each Gaussian part, up to 10
# for Fraction entries
exact_sequences = st.one_of(
    _exact_sequences(st.builds(GaussianRational, rationals, rationals)),
    _exact_sequences(st.fractions(min_value=-1, max_value=1, max_denominator=10)),
)

# windows start at -5..3 and run up to 10 past the start, so they reach
# negative indices and indices past every prefix drawn above
windows = st.tuples(st.integers(-5, 3), st.integers(0, 10)).map(
    lambda w: range(w[0], w[0] + w[1] + 1)
)


# float entries inside the unit disc, signed zeros included; a sequence is a
# VerblunskySequence, a list (complex or real entries) or a complex ndarray
_parts = st.floats(min_value=-0.7, max_value=0.7)


def _float_sequences(max_size):
    entries = st.lists(st.builds(complex, _parts, _parts), max_size=max_size)
    return st.one_of(
        entries.map(lambda v: VerblunskySequence(tuple(v))),
        entries,
        st.lists(_parts, max_size=max_size),
        entries.map(lambda v: np.array(v, dtype=np.complex128)),
    )


float_sequences = _float_sequences(8)


@st.composite
def float_monomials(draw):
    """A monomial with k <= 3, difference orders <= 4 and a complex or exact coefficient."""
    k = draw(st.integers(1, 3))
    factors = st.lists(st.tuples(st.integers(0, 4), st.integers(-2, 2)), min_size=k, max_size=k)
    coeff = draw(
        st.one_of(
            st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)),
            st.builds(GaussianRational, rationals, rationals),
        )
    )
    return NormalFormMonomial(k, tuple(draw(factors)), tuple(draw(factors)), coeff)


# -- properties --------------------------------------------------------------


class TestOracleEquality:
    @settings(FIXED, max_examples=30)
    @given(member=members(), seq=exact_sequences, window=windows)
    def test_member_values_equal_the_oracles(self, member, seq, window):
        k, q, P = member
        monomials = from_ideal_expansion(ideal_power_decompose(P, q))
        for n in window:
            value = coefficient_map(P, seq, n)
            assert isinstance(value, GaussianRational)
            assert value == oracle_coefficient_map(P, seq, n)
            for mono in monomials:
                assert evaluate(mono, seq, n) == oracle_evaluate(mono, seq, n)
        assert pointwise_equality_check(P, q, seq, window) == 0.0
        assert oracle_deviation(P, monomials, seq, window) == 0.0

    @settings(FIXED, max_examples=40)
    @given(member=members())
    def test_decomposition_recomposes_to_the_member(self, member):
        k, q, P = member
        decomposition = ideal_power_decompose(P, q)
        assert decomposition.member
        assert all(t.difference_count == q for t in decomposition.terms)
        assert decomposition.recompose() == P


class TestFloatOracleEquality:
    @settings(FIXED, max_examples=60)
    @given(member=members(), seq=float_sequences, window=windows)
    def test_member_values_equal_the_float_oracles(self, member, seq, window):
        k, q, P = member
        monomials = from_ideal_expansion(ideal_power_decompose(P, q))
        for n in window:
            value = coefficient_map(P, seq, n)
            assert isinstance(value, complex)
            assert value == oracle_float_coefficient_map(P, seq, n)
            for mono in monomials:
                assert evaluate(mono, seq, n) == oracle_float_evaluate(mono, seq, n)
        deviation = pointwise_equality_check(P, q, seq, window)
        assert deviation == oracle_float_deviation(P, monomials, seq, window)

    @settings(FIXED, max_examples=60)
    @given(mono=float_monomials(), seq=float_sequences, window=windows)
    def test_monomial_values_equal_the_float_oracle(self, mono, seq, window):
        for n in window:
            value = evaluate(mono, seq, n)
            assert isinstance(value, complex)
            assert value == oracle_float_evaluate(mono, seq, n)

    @settings(FIXED, max_examples=60)
    @given(mono=float_monomials(), seq=_float_sequences(40), N=st.integers(0, 45))
    def test_monomial_sum_is_the_sequential_oracle_sum(self, mono, seq, N):
        total = 0j
        for n in range(N + 1):
            total += oracle_float_evaluate(mono.as_float(), seq, n)
        assert monomial_sum(mono, seq, N) == abs(total)


# -- the array evaluator against the per-n loop --------------------------------


@st.composite
def array_cases(draw):
    """k <= 3, two groups of 1-5 float terms, a float sequence and a window past it.

    Difference orders are <= 3 and shifts in -3..3; the sequence is a tuple,
    a list, a complex ndarray or a VerblunskySequence of up to 12 entries,
    and the window starts below 0 and runs past the prefix.
    """
    k = draw(st.integers(1, 3))
    factors = st.lists(
        st.tuples(st.integers(0, 3), st.integers(-3, 3)), min_size=2 * k, max_size=2 * k
    ).map(tuple)
    terms = st.lists(
        st.tuples(st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)), factors),
        min_size=1,
        max_size=5,
    )
    entries = st.lists(st.builds(complex, _parts, _parts), max_size=12)
    seq = draw(st.one_of(_float_sequences(12), entries.map(tuple)))
    start = draw(st.integers(-6, -1))
    window = range(start, len(seq) + draw(st.integers(1, 6)))
    return k, draw(terms), draw(terms), seq, window


class TestArrayEvaluator:
    @settings(FIXED, max_examples=150)
    @given(case=array_cases())
    def test_float_sums_equal_the_per_n_loop(self, case):
        k, first, second, seq, window = case
        sums, den = _table_sums(k, seq, window, first, second)
        assert den is None
        for (re, im), want in zip(sums, table_sums_loop(k, seq, window, first, second)):
            # == holds zeros of either sign equal
            assert list(zip(re.tolist(), im.tolist())) == want

    @settings(FIXED, max_examples=60)
    @given(case=array_cases())
    def test_monomial_sum_is_the_running_sum_of_the_loop(self, case):
        k, ((coeff, factors), *_), _, seq, window = case
        N = max(window)
        mono = NormalFormMonomial(k, factors[:k], factors[k:], coeff)
        (values,) = table_sums_loop(k, seq, range(N + 1), [(coeff, factors)])
        totals = [0j]
        for value in values:
            totals.append(totals[-1] + complex(*value))
        assert repr(monomial_sum(mono, seq, N)) == repr(abs(totals[N + 1]))


# -- corrupted expansions ----------------------------------------------------


def _corrupted_cases(seed: int, bump):
    """Members on generic exact sequences, with one monomial of the expansion bumped."""
    rng = random.Random(seed)
    for _ in range(8):
        k = rng.choice((1, 2, 3))
        q = rng.choice((1, 2, 3, 4))
        P = random_ideal_member(rng, k, q)
        seq = [
            GaussianRational(
                Fraction(rng.randint(1, 9), rng.randint(2, 9)),
                Fraction(rng.randint(-9, -1), rng.randint(2, 9)),
            )
            for _ in range(10)
        ]
        monomials = from_ideal_expansion(ideal_power_decompose(P, q))
        at = rng.randrange(len(monomials))
        corrupted = monomials[:at] + [bump(monomials[at])] + monomials[at + 1 :]
        yield P, q, seq, corrupted


def _deviation_with(P, q, seq, window, monomials) -> float:
    with mock.patch.object(normal_form, "from_ideal_expansion", lambda decomposition: monomials):
        return pointwise_equality_check(P, q, seq, window)


def _bump_coefficient(mono: NormalFormMonomial) -> NormalFormMonomial:
    coeff = mono.coeff + GaussianRational(Fraction(1, 7), Fraction(-2, 3))
    return NormalFormMonomial(mono.k, mono.holo_factors, mono.anti_factors, coeff)


def _bump_shift(mono: NormalFormMonomial) -> NormalFormMonomial:
    (a, shift), *rest = mono.holo_factors
    return NormalFormMonomial(mono.k, ((a, shift + 1), *rest), mono.anti_factors, mono.coeff)


class TestCorruptedExpansions:
    WINDOW = range(-2, 10)

    def test_bumped_coefficient_gives_the_oracle_deviation(self):
        for P, q, seq, monomials in _corrupted_cases(710, _bump_coefficient):
            dev = _deviation_with(P, q, seq, self.WINDOW, monomials)
            assert dev != 0.0
            assert dev == oracle_deviation(P, monomials, seq, self.WINDOW)

    def test_bumped_shift_gives_the_oracle_deviation(self):
        for P, q, seq, monomials in _corrupted_cases(711, _bump_shift):
            dev = _deviation_with(P, q, seq, self.WINDOW, monomials)
            assert dev != 0.0
            assert dev == oracle_deviation(P, monomials, seq, self.WINDOW)


# -- Fraction entries are exact ---------------------------------------------


def test_fraction_sequence_is_checked_exactly():
    # evaluated in floats before Fraction entries counted as exact: the
    # check returned 2.220446049250313e-16 here
    x, y = ShiftPolynomial.x(1, 1), ShiftPolynomial.y(1, 1)
    P = 3 * ShiftPolynomial.monomial(1, (2, -1)) * (x - 1) * (y - 1)
    seq = [Fraction(1, 3), Fraction(2, 7), Fraction(-5, 11), Fraction(1, 9), Fraction(3, 13)] * 3
    assert pointwise_equality_check(P, 2, seq, range(0, 12)) == 0.0
    value = coefficient_map(P, seq, 1)
    assert isinstance(value, GaussianRational)
    assert value == oracle_coefficient_map(P, seq, 1)


# -- the kind of a sequence: the numpy dtype of the whole stored sequence ------


class UniterableArray(np.ndarray):
    """An ndarray that fails if anything iterates over it."""

    def __iter__(self):
        raise AssertionError("the ndarray was iterated")


DEGREE_4 = NormalFormMonomial(2, ((1, 0), (0, 2)), ((2, 1), (0, 0)), 1)
HALF = GaussianRational(Fraction(1, 2), Fraction(-1, 3))


class TestSequenceKind:
    @pytest.mark.parametrize(
        "seq, n, kind",
        [
            ([0.5, HALF, HALF, HALF, HALF], 1, GaussianRational),
            ([1, 0, -1, 2, 3], 1, complex),
            ([2**64, 0, -1, 2], 0, GaussianRational),
            ([0.1 + 0.2j] * 100_000, 50_000, complex),
        ],
        ids=["mixed-list-is-exact", "ints-are-float", "int-past-int64-is-exact",
             "long-float-list"],
    )
    def test_numpy_dtype_decides_the_kind(self, seq, n, kind):
        # the mixed list's window reads only its exact entries
        value = evaluate(DEGREE_4, seq, n)
        assert isinstance(value, kind)
        oracle = oracle_evaluate if kind is GaussianRational else oracle_float_evaluate
        assert value == oracle(DEGREE_4, seq, n)

    def test_a_numeric_ndarray_is_float_without_a_read(self):
        seq = np.full(100_000, 0.1 + 0.2j).view(UniterableArray)
        assert isinstance(evaluate(DEGREE_4, seq, 50_000), complex)

    @pytest.mark.parametrize(
        "seq, kind",
        [
            ([0.1, -0.2, 0.3, 0.05], complex),
            ([0.1j, 0.2, -0.3 + 0.1j, 0.0], complex),
            ([1, 0, -1, 2], complex),
            (np.array([0.1, 0.2j, 0.3, 0.0]), complex),
            (VerblunskySequence((0.1, 0.2j, 0.3, 0.0)), complex),
            ([Fraction(1, 3), 0, Fraction(-2, 5), 1], GaussianRational),
            ([0, 0, HALF, HALF], GaussianRational),
            ((HALF, 1, HALF, 0), GaussianRational),
            (np.array([0, HALF, 1, HALF], dtype=object), GaussianRational),
        ],
        ids=["float", "complex", "ints", "ndarray", "verblunsky", "fractions",
             "leading-ints", "tuple", "object-ndarray"],
    )
    def test_homogeneous_sequences_keep_their_kind(self, seq, kind):
        value = evaluate(DEGREE_4, seq, 0)
        assert isinstance(value, kind)
        oracle = oracle_evaluate if kind is GaussianRational else oracle_float_evaluate
        assert value == oracle(DEGREE_4, seq, 0)

    @pytest.mark.parametrize(
        "seq",
        [[HALF, 0.5], [0.5, HALF], [0, 0.25j, Fraction(1, 3)], [Fraction(1, 3), 0.25]],
        ids=["exact-then-float", "float-then-exact", "ints-float-fraction", "fraction-then-float"],
    )
    def test_a_window_reading_float_and_exact_entries_raises(self, seq):
        # Delta^1 at the last two entries reads one entry of each kind
        mono = NormalFormMonomial(1, ((1, 0),), ((0, 0),), 1)
        with pytest.raises(TypeError):
            evaluate(mono, seq, len(seq) - 2)
