import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opuckit import sequences
from opuckit.measures import szego_functional_series
from opuckit.sequences import (
    ModulusError,
    VerblunskySequence,
    complex_pairs,
    difference_array,
    lp_norm,
    lukic_partial_sums,
    zero_extended,
)
from opuckit.sum_rule import log_tails

from helpers import entry, forward_difference, lp_norm_loop, polar_prefix

FIXED = settings.get_profile("fixed")


def brute_force_difference(values, m, n):
    """Independent oracle: the binomial sum written out directly."""
    total = 0j
    for j in range(m + 1):
        v = values[n + j] if 0 <= n + j < len(values) else 0.0
        total += (-1) ** (m - j) * math.comb(m, j) * v
    return total


def repeated_subtraction(values, m, N):
    """Independent oracle: m rounds of first differences, then the energy sum."""
    arr = np.zeros(N + m + 1, dtype=complex)
    take = min(len(values), len(arr))
    arr[:take] = values[:take]
    for _ in range(m):
        arr = arr[1:] - arr[:-1]
    return float(np.sum(np.abs(arr[: N + 1]) ** 2))


def random_seq(rng, length, cap=0.9):
    vals = []
    for _ in range(length):
        r = cap * math.sqrt(rng.random())
        t = 2 * math.pi * rng.random()
        vals.append(r * complex(math.cos(t), math.sin(t)))
    return VerblunskySequence(tuple(vals))


class TestConstruction:
    def test_strict_modulus(self):
        with pytest.raises(ModulusError):
            VerblunskySequence((0.5, 1.0))
        with pytest.raises(ModulusError):
            VerblunskySequence((1.0 + 0j,))
        VerblunskySequence((0.999999,))

    # each message names the squared modulus re*re + im*im that the check reads
    @pytest.mark.parametrize(
        "values, message",
        [
            ((0.1, 1.0, 2.0), "|alpha_1|^2 = 1.0 is not < 1"),
            ((0.6 + 0.8j,), "|alpha_0|^2 = 1.0 is not < 1"),
            ((0.1, math.nan), "|alpha_1|^2 = nan is not < 1"),
            ((complex(0.2, math.nan), 0.5), "|alpha_0|^2 = nan is not < 1"),
            ((math.inf,), "|alpha_0|^2 = inf is not < 1"),
            ((complex(math.nan, -math.inf),), "|alpha_0|^2 = nan is not < 1"),
            ((-1e-300, 0.3 - 1.2j), "|alpha_1|^2 = 1.53 is not < 1"),
        ],
    )
    def test_rejects_the_first_entry_off_the_open_disc(self, values, message):
        with pytest.raises(ModulusError) as err:
            VerblunskySequence(values)
        assert str(err.value) == message

    # hypot puts this entry inside the disc, but re*re + im*im rounds to 1.0:
    # a check on hypot let it through to log1p(-1.0), a math domain error
    EDGE = 0.4980560549172479 + 0.8671448357456021j

    def test_rejects_an_entry_whose_squared_modulus_rounds_to_one(self):
        assert math.hypot(self.EDGE.real, self.EDGE.imag) < 1.0
        with pytest.raises(ModulusError, match=r"^\|alpha_0\|\^2 = 1.0 is not < 1$"):
            VerblunskySequence((self.EDGE,))

    @settings(FIXED, max_examples=200)
    @given(
        modulus=st.one_of(
            st.floats(min_value=1.0 - 1e-12, max_value=1.0),
            st.sampled_from([math.nextafter(1.0, 0.0), math.nextafter(1.0 - 2**-53, 0.0)]),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        angle=st.floats(min_value=0.0, max_value=2 * math.pi),
        m=st.integers(1, 8),
    )
    def test_every_accepted_entry_has_a_finite_tail_and_functional(self, modulus, angle, m):
        a = complex(modulus * math.cos(angle), modulus * math.sin(angle))
        try:
            seq = VerblunskySequence((a,))
        except ModulusError:
            return
        assert math.isfinite(log_tails(seq, m)[0])
        assert math.isfinite(szego_functional_series(seq, m, [0])[(m, 0)])

    def test_accepts_one_ulp_inside_the_circle(self):
        below = math.nextafter(1.0, 0.0)
        seq = VerblunskySequence((below, complex(0.0, -below)))
        assert seq.values.tolist() == [complex(below), complex(0.0, -below)]

    def test_rejects_nested_values(self):
        with pytest.raises(TypeError):
            VerblunskySequence(((0.1, 0.2),))

    def test_zero_extension(self):
        seq = VerblunskySequence((0.1, 0.2))
        assert entry(seq, -1) == 0
        assert entry(seq, 2) == 0
        assert entry(seq, 1) == 0.2

    def test_json_round_trip(self):
        seq = VerblunskySequence((0.1 + 0.3j, -0.5j))
        assert VerblunskySequence(complex_pairs(json.loads(seq.to_json()))) == seq
        assert json.loads(seq.to_json()) == [[0.1, 0.3], [-0.0, -0.5]]

    def test_as_array_padding(self):
        seq = VerblunskySequence((0.1, 0.2))
        arr = zero_extended(seq, -2, 4)
        assert arr.tolist() == [0, 0, 0.1, 0.2, 0, 0]


class TestValueSemantics:
    def test_values_are_read_only(self):
        seq = VerblunskySequence((0.1, 0.2j))
        with pytest.raises(ValueError):
            seq.values[0] = 0.5

    def test_mutating_the_source_leaves_the_sequence_alone(self):
        source = np.array([0.1, 0.2j])
        seq = VerblunskySequence(source)
        source[0] = 0.5
        assert seq.values.tolist() == [0.1, 0.2j]

    @pytest.mark.parametrize(
        "a, b, equal",
        [
            ((0.1, 0.2j), (0.1, 0.2j), True),
            ((0.0, 0.1), (complex(-0.0, -0.0), 0.1), True),
            ((0.1, 0.2j), (0.1, -0.2j), False),
            ((0.1,), (0.1, 0.0), False),
        ],
        ids=["same", "signed-zeros", "one-entry-differs", "longer"],
    )
    def test_eq_and_hash_agree(self, a, b, equal):
        x, y = VerblunskySequence(a), VerblunskySequence(b)
        assert (x == y) is equal
        if equal:
            assert hash(x) == hash(y)

    def test_a_sequence_rebuilt_from_its_values_is_equal(self):
        seq = VerblunskySequence((0.1 + 0.3j, -0.5j, 0.25))
        assert VerblunskySequence(seq.values) == seq

    def test_a_sequence_built_from_a_sequence_shares_its_checked_array(self, monkeypatch):
        seq = VerblunskySequence((0.1 + 0.3j, -0.5j, 0.25))
        # no second disc check: abs2 is what the check reads
        monkeypatch.setattr(sequences, "abs2", None)
        again = VerblunskySequence(seq)
        assert again == seq and np.shares_memory(again.values, seq.values)
        assert not again.values.flags.writeable

    def test_log_tails_reads_a_sequence_as_its_values(self):
        seq = random_seq(random.Random(29), 60)
        for m in (1, 2, 5):
            assert log_tails(seq, m).tobytes() == log_tails(seq.values, m).tobytes()


class TestForwardDifference:
    def test_first_difference(self):
        # raw lists are allowed: the difference calculus does not need |a| < 1
        assert forward_difference([0, 1, 3], 1, 0) == 1

    def test_constant_sequence(self):
        seq = VerblunskySequence((0.4,) * 6)
        for n in range(5):
            assert forward_difference(seq, 1, n) == pytest.approx(
                0 if n < 5 else -0.4
            )

    def test_geometric_closed_form(self):
        # oracle first: brute-force binomial sum on a_n = r^n, then the
        # closed form (r-1)^3 r^2 = -0.03125 frozen from it
        r = 0.5
        values = [r**n for n in range(10)]
        oracle = brute_force_difference(values, 3, 2)
        assert oracle == pytest.approx((r - 1) ** 3 * r**2, rel=1e-14)
        assert forward_difference(values, 3, 2) == pytest.approx(-0.03125, abs=1e-15)

    def test_order_zero(self):
        seq = VerblunskySequence((0.3,))
        assert forward_difference(seq, 0, 0) == 0.3

    def test_matches_brute_force(self):
        rng = random.Random(5)
        seq = random_seq(rng, 20)
        for m in range(5):
            for n in range(-3, 22):
                assert forward_difference(seq, m, n) == pytest.approx(
                    brute_force_difference(seq.values, m, n), abs=1e-13
                )

    def test_linearity(self):
        rng = random.Random(6)
        a = random_seq(rng, 15, cap=0.6)
        b = random_seq(rng, 15, cap=0.6)
        ca, cb = 0.3 - 0.2j, 1.1j
        combo = [ca * x + cb * y for x, y in zip(a.values, b.values)]
        for m in (1, 2, 4):
            for n in range(12):
                lhs = forward_difference(combo, m, n)
                rhs = ca * forward_difference(a, m, n) + cb * forward_difference(b, m, n)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_composition(self):
        rng = random.Random(7)
        seq = random_seq(rng, 20)
        for m1, m2 in ((1, 1), (2, 1), (2, 3)):
            for n in range(8):
                inner = [forward_difference(seq, m2, n + j) for j in range(m1 + 1)]
                lhs = sum(
                    (-1) ** (m1 - j) * math.comb(m1, j) * inner[j]
                    for j in range(m1 + 1)
                )
                assert lhs == pytest.approx(
                    forward_difference(seq, m1 + m2, n), abs=1e-13
                )

    def test_binomial_bound(self):
        rng = random.Random(8)
        seq = random_seq(rng, 30, cap=0.9999)
        for m in range(7):
            for n in range(-m, 31):
                assert abs(forward_difference(seq, m, n)) <= 2.0**m * (1 + 1e-12)

    def test_difference_array_consistency(self):
        rng = random.Random(9)
        seq = random_seq(rng, 12)
        for m in (1, 3):
            arr = difference_array(seq, m, 15)
            for n in range(16):
                assert arr[n] == pytest.approx(forward_difference(seq, m, n), abs=1e-13)

    @settings(FIXED, max_examples=100)
    @given(values=polar_prefix(40), m=st.integers(0, 8), N=st.integers(0, 50))
    def test_difference_array_is_the_binomial_loop_bit_for_bit(self, values, m, N):
        # difference_rows accumulates from 0 in ascending j, as the oracle does
        arr = difference_array(values, m, N).tolist()
        assert arr == [complex(forward_difference(values, m, n)) for n in range(N + 1)]


class TestEnergies:
    def test_zero_sequence(self):
        seq = VerblunskySequence((0j,) * 5)
        rep = lukic_partial_sums(seq, 3, 10)
        assert rep.diff_energy == 0 and rep.power_energy == 0

    def test_single_entry(self):
        rep = lukic_partial_sums(VerblunskySequence((0.5,)), 1, 0)
        assert rep.diff_energy == pytest.approx(0.25)
        assert rep.power_energy == pytest.approx(0.0625)

    def test_matches_repeated_subtraction_oracle(self):
        values = [0.9 / (n + 1) for n in range(120)]
        seq = VerblunskySequence(tuple(values))
        rep = lukic_partial_sums(seq, 2, 100)
        assert rep.diff_energy == pytest.approx(
            repeated_subtraction(values, 2, 100), rel=1e-12
        )
        assert rep.power_energy == pytest.approx(
            sum(abs(v) ** 6 for v in values[:101]), rel=1e-12
        )

    def test_monotone_in_N(self):
        rng = random.Random(10)
        seq = random_seq(rng, 80)
        prev = (0.0, 0.0)
        for N in (0, 5, 20, 50, 79, 90):
            rep = lukic_partial_sums(seq, 2, N)
            assert rep.diff_energy >= prev[0] - 1e-15
            assert rep.power_energy >= prev[1] - 1e-15
            prev = (rep.diff_energy, rep.power_energy)


class TestLpNorm:
    def test_pythagoras(self):
        assert lp_norm([3, 4], 2) == pytest.approx(5.0)

    def test_fourth_power(self):
        assert lp_norm([1, 1, 1, 1], 4) == pytest.approx(4 ** 0.25)

    def test_brute_force(self):
        rng = random.Random(11)
        vals = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(17)]
        direct = sum(abs(v) ** 3 for v in vals) ** (1 / 3)
        assert lp_norm(vals, 3) == pytest.approx(direct, rel=1e-13)

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            lp_norm([1, 2], 0.5)

    @pytest.mark.parametrize("p", [1, 1.5, 2, 8 / 3, 3, 4, 4.5, 8])
    def test_equals_the_scalar_loop(self, p):
        rng = np.random.default_rng(2000)
        vals = rng.uniform(-1, 1, 300) + 1j * rng.uniform(-1, 1, 300)
        vals[:4] = [0, 1e-310, math.nextafter(1.0, 2.0), -math.nextafter(1.0, 0.0)]
        # a numpy array (as absorption passes), a Python list, slices of
        # both kinds, an empty slice, and a VerblunskySequence
        cases = [vals, vals.tolist(), vals[:41], vals.tolist()[:41], vals[:0]]
        cases.append(VerblunskySequence(tuple(0.9 * vals[4:] / 1.5)))
        for values in cases:
            assert float(lp_norm(values, p)).hex() == float(lp_norm_loop(values, p)).hex()
