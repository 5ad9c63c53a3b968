import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opuckit.families import FamilySpec
from opuckit.measures import (
    MAX_SERIES_ORDER,
    MeasureSpec,
    WeightPositivityError,
    bernstein_szego_weight,
    szego_functional,
    szego_functional_series,
    hm_closed_form,
    theta_grid,
    trig_moments,
)
from opuckit.sequences import VerblunskySequence

from helpers import MomentPositivityError, szego_recursion_polynomials, verblunsky_from_moments

FIXED = settings.get_profile("fixed")

# entries r e^{i theta} with r <= 1/2, the cap under which Levinson is well conditioned
half_disc_entries = st.builds(
    lambda r, theta: r * complex(math.cos(theta), math.sin(theta)),
    st.floats(0.0, 0.5),
    st.floats(0.0, 2 * math.pi),
)


class TestRecursion:
    def test_empty_prefix(self):
        assert szego_recursion_polynomials([], 1j) == (1, 1)

    def test_single_real_step(self):
        a = 0.4
        for theta in (0.0, 0.7, 2.0):
            z = complex(math.cos(theta), math.sin(theta))
            phi, phistar = szego_recursion_polynomials([a], z)
            assert phi == pytest.approx(z - a)
            assert phistar == pytest.approx(1 - a * z)

    def test_hand_unrolled_two_steps(self):
        # oracle: unrolled by hand at z = 1 for prefix [0.3, 0.2i]
        phi, phistar = szego_recursion_polynomials([0.3, 0.2j], 1.0)
        assert phi == pytest.approx(0.7 + 0.14j)
        assert phistar == pytest.approx(0.7 - 0.14j)

    def test_rejects_off_circle(self):
        with pytest.raises(ValueError):
            szego_recursion_polynomials([0.3], 1.0 + 1e-6)


class TestWeight:
    def test_lebesgue(self):
        w = bernstein_szego_weight([], 64)
        assert np.allclose(w, 1.0)

    def test_closed_form_single_coefficient(self):
        G = 4096
        w = bernstein_szego_weight([0.5], G)
        theta = theta_grid(G)
        closed = 0.75 / np.abs(np.exp(1j * theta) - 0.5) ** 2
        assert np.max(np.abs(w - closed)) <= 1e-12
        # mass is a probability: trapezoid of the closed form
        assert abs(float(np.mean(w)) - 1.0) <= 1e-10

    def test_log_mass_szego_identity(self):
        w = bernstein_szego_weight([0.5], 4096)
        assert float(np.mean(np.log(w))) == pytest.approx(math.log(0.75), abs=1e-8)

    def test_mass_normalization_various(self):
        for prefix in ([0.3], [0.5, -0.2j], [0.1, 0.2, 0.3, -0.4j]):
            w = bernstein_szego_weight(prefix, 4096)
            assert abs(float(np.mean(w)) - 1.0) <= 5e-9

    def test_pointwise_lower_bound(self):
        prefix = [0.6, -0.3 + 0.2j, 0.5j]
        w = bernstein_szego_weight(prefix, 1024)
        num = np.prod([1 - abs(a) ** 2 for a in prefix])
        den = np.prod([(1 + abs(a)) ** 2 for a in prefix])
        assert np.min(w) >= num / den - 1e-12

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            bernstein_szego_weight([0.1], 8)

    def test_grid_past_numpy_length_raises(self):
        # np.arange(2**63 - 1) is an empty array, not an error
        with pytest.raises(ValueError, match="past the longest array"):
            theta_grid(2**63 - 1)

    def test_underflow_signalled(self):
        prefix = VerblunskySequence((0.9,) * 1600)
        with pytest.raises(WeightPositivityError):
            bernstein_szego_weight(prefix, 64)


class TestMoments:
    def test_lebesgue_recovers_zero(self):
        mom = [1.0, 0.0, 0.0, 0.0]
        rec = verblunsky_from_moments(mom)
        assert all(v == 0 for v in rec.values)

    def test_single_round_trip(self):
        mom = trig_moments(MeasureSpec.bernstein_szego([0.5]), 1, 4096)
        rec = verblunsky_from_moments(mom)
        assert abs(rec.values[0] - 0.5) <= 1e-8

    def test_random_round_trip(self):
        rng = np.random.default_rng(3)
        prefix = VerblunskySequence(
            tuple(
                0.8 * math.sqrt(u) * complex(math.cos(t), math.sin(t))
                for u, t in zip(rng.uniform(size=4), rng.uniform(0, 2 * np.pi, 4))
            )
        )
        mom = trig_moments(MeasureSpec.bernstein_szego(prefix), 4, 8192)
        rec = verblunsky_from_moments(mom)
        assert max(abs(a - b) for a, b in zip(prefix.values, rec.values)) <= 1e-7

    @settings(FIXED, max_examples=150)
    @given(prefix=st.lists(half_disc_entries, min_size=1, max_size=12))
    @example(prefix=[0.5, -0.5] * 6)
    def test_round_trip_where_levinson_is_well_conditioned(self, prefix):
        # Levinson amplifies a moment's rounding by up to ((1+c)/(1-c))^L for
        # L entries of modulus <= c, so the bound is 3^12 * 2^-52 = 1.2e-10 at
        # c = 1/2, L = 12; the alternating prefix +-1/2 misses by 1.9e-12.  On
        # random 12-entry prefixes at cap 0.9 the error reaches 3.1e-6, so the
        # property stays at cap 1/2
        mom = trig_moments(MeasureSpec.bernstein_szego(prefix), len(prefix))
        rec = verblunsky_from_moments(mom)
        assert max(abs(a - b) for a, b in zip(prefix, rec.values)) <= 1e-10

    def test_bernstein_szego_mass_is_exactly_one(self):
        for prefix in ([], [0.5], [0.3, -0.2j, 0.9 + 0.1j], (0.99,) * 400):
            for kmax in (0, 1, 7, 40):
                assert trig_moments(MeasureSpec.bernstein_szego(prefix), kmax)[0] == 1.0

    def test_bernstein_szego_moments_resolve_no_grid(self):
        # no grid of 4096 nodes resolves this weight; the CMV moments need
        # none, and the grid size only bounds kmax
        seq = FamilySpec(kind="power", c=0.9, gamma=0.3).generate(2000)
        spec = MeasureSpec.bernstein_szego(seq)
        mom = trig_moments(spec, 8, 4096)
        assert mom[0] == 1.0 and np.all(np.abs(mom) <= 1.0 + 1e-15)
        assert np.array_equal(trig_moments(spec, 8, 18), mom)

    def test_kmax_guard(self):
        spec = MeasureSpec.bernstein_szego([0.5])
        # a negative kmax once sliced the FFT from its end: -5 gave G - 4 moments
        for kmax in (-1, -5, 32):
            with pytest.raises(ValueError):
                trig_moments(spec, kmax, 64)
        assert len(trig_moments(spec, 0, 64)) == 1

    def test_positivity_failure_carries_index(self):
        # c_1 = 1 forces |alpha_0| = 1
        with pytest.raises(MomentPositivityError) as info:
            verblunsky_from_moments([1.0, 1.0, 1.0])
        assert info.value.index == 0

    def test_c0_validated(self):
        with pytest.raises(ValueError):
            verblunsky_from_moments([2.0, 0.0])


class TestFunctional:
    def test_lebesgue_zero(self):
        for m in (0, 1, 3):
            val = szego_functional(MeasureSpec.bernstein_szego([]), m, 256)
            assert abs(val) <= 1e-15

    @pytest.mark.parametrize("grid", [0, 1, -3])
    def test_bernstein_szego_grid_below_16_is_refused(self, grid):
        # the weight's floor: 0 gave nan and a RuntimeWarning, 1 a silent 0.0
        with pytest.raises(ValueError, match="^grid_size must be at least 16$"):
            szego_functional(MeasureSpec.bernstein_szego([0.5]), 1, grid)

    def test_classical_szego_value(self):
        val = szego_functional(MeasureSpec.bernstein_szego([0.5]), 0, 4096)
        assert val == pytest.approx(-math.log(0.75), abs=1e-8)
        assert val == pytest.approx(0.287682, abs=1e-6)

    def test_grid_refinement_consistency(self):
        spec = MeasureSpec.bernstein_szego([0.5])
        v1 = szego_functional(spec, 1, 2048)
        v2 = szego_functional(spec, 1, 4096)
        assert abs(v1 - v2) <= 1e-6

    def test_grid_invariance_smooth(self):
        prefix = [0.9, -0.5j, 0.3 + 0.4j]
        spec = MeasureSpec.bernstein_szego(prefix)
        for m in (1, 2):
            v1 = szego_functional(spec, m, 2048)
            v2 = szego_functional(spec, m, 4096)
            assert abs(v1 - v2) <= 1e-6

    def test_series_oracle(self):
        prefix = VerblunskySequence((0.4, 0.2 - 0.3j, -0.1j, 0.25, 0.6))
        spec = MeasureSpec.bernstein_szego(prefix)
        for m in (0, 1, 2, 3, 4):
            quad = szego_functional(spec, m, 8192)
            series = szego_functional_series(prefix, m, [4])[(m, 4)]
            assert quad == pytest.approx(series, abs=1e-10)

    def test_series_oracle_long_prefix(self):
        # cross-validates the grid kernel against the coefficient recursion
        # on a sweep-sized decaying prefix
        prefix = VerblunskySequence(tuple(0.7 / (n + 1) ** 0.6 for n in range(300)))
        spec = MeasureSpec.bernstein_szego(prefix)
        for m in (1, 2, 3):
            quad = szego_functional(spec, m, 8192)
            series = szego_functional_series(prefix, m, [299])[(m, 299)]
            assert quad == pytest.approx(series, abs=1e-8)

    def test_sampled_kind(self):
        G = 512
        w = 1.0 + 0.5 * np.cos(theta_grid(G))
        val = szego_functional(MeasureSpec.sampled(w), 1, G)
        # oracle: direct mean on the same grid
        direct = float(np.mean((1 - np.cos(theta_grid(G))) * np.log(1 / w)))
        assert val == pytest.approx(direct, abs=1e-15)

    def test_subunit_weight_gives_nonnegative_value(self):
        # w <= 1 everywhere makes every sample of the integrand nonnegative,
        # so the trapezoid value cannot dip below zero at all
        G = 256
        w = 0.2 + 0.5 * (1 + np.cos(theta_grid(G))) / 2
        for m in (0, 1, 3):
            assert szego_functional(MeasureSpec.sampled(w), m, G) >= 0.0

    def test_sampled_rejects_nonpositive(self):
        with pytest.raises(WeightPositivityError):
            MeasureSpec.sampled([1.0, 0.0, 1.0])

    @pytest.mark.parametrize(
        "weights, fault",
        [([], "not be empty"), ([math.inf, 1, 1, 1], "be finite"),
         ([1e308, 1e308, 1, 1], "finite sum")],
    )
    def test_sampled_rejects_what_is_not_a_measure(self, weights, fault):
        with pytest.raises(ValueError, match=fault):
            MeasureSpec.sampled(weights)

    @pytest.mark.parametrize(
        "weights, error, message",
        [([1.0, 0.0], WeightPositivityError, "sampled weights must be strictly positive"),
         ([1.0, -1], WeightPositivityError, "sampled weights must be strictly positive"),
         ([1.0, math.nan], WeightPositivityError, "sampled weights must be strictly positive"),
         ([math.inf, -1.0], WeightPositivityError, "sampled weights must be strictly positive"),
         (np.array([1.0, math.inf]), ValueError, "sampled weights must be finite"),
         ([1.0, 10**400], OverflowError, "int too large to convert to float"),
         ([1.0, "abc"], ValueError, "could not convert string to float: 'abc'"),
         ([1.0, None], TypeError,
          "float() argument must be a string or a real number, not 'NoneType'"),
         ([1.0, 1j], TypeError, "float() argument must be a string or a real number, not 'complex'"),
         ([[1.0], 2.0], TypeError, "float() argument must be a string or a real number, not 'list'")],
        ids=["zero", "minus-one", "nan", "inf-then-negative", "inf-array", "huge-int", "str",
             "none", "complex", "ragged"],
    )
    def test_sampled_refuses_with_the_float_conversion_messages(self, weights, error, message):
        # the same types and messages as converting each entry with float()
        with pytest.raises(error) as info:
            MeasureSpec.sampled(weights)
        assert type(info.value) is error and str(info.value) == message

    @pytest.mark.parametrize(
        "weights",
        [np.random.default_rng(5).random(4096) + 0.01,
         np.array([0.1, 0.3], dtype=np.float32), np.array([1, 3]), [1, 2**53 + 1, 2**63],
         [True, 2.5], ["1.5", 2.0]],
        ids=["float64", "float32", "int-array", "python-ints", "bool", "str"],
    )
    def test_sampled_weights_are_the_float_of_each_entry(self, weights):
        spec = MeasureSpec.sampled(weights)
        assert spec.weights == tuple(float(x) for x in weights)
        assert all(type(x) is float for x in spec.weights)

    def test_divergent_prefix_stays_finite(self):
        # the weight itself underflows here; the functional must not
        prefix = VerblunskySequence(tuple([0.9] * 1600))
        val = szego_functional(MeasureSpec.bernstein_szego(prefix), 1, 256)
        assert math.isfinite(val) and val > 100

    def test_series_order_bound_is_the_float_range_of_h(self):
        # the bound refuses at once exactly the orders whose table of h_{m,l}
        # would overflow a float after O(m^2) exact binomials
        assert math.isfinite(float(hm_closed_form(MAX_SERIES_ORDER, 0)))
        with pytest.raises(OverflowError):
            float(hm_closed_form(MAX_SERIES_ORDER + 1, 0))
        with pytest.raises(ValueError, match="m_max must be <= 1029"):
            szego_functional_series([0.5], MAX_SERIES_ORDER + 1, [0])


class TestMeasureSpecJson:
    def test_bernstein_szego_round_trip(self):
        spec = MeasureSpec.bernstein_szego([0.1 + 0.2j, -0.3])
        again = MeasureSpec.from_json(spec.to_json())
        assert again.prefix == spec.prefix
        obj = json.loads(spec.to_json())
        assert obj == {"kind": "bernstein_szego", "alphas": [[0.1, 0.2], [-0.3, 0.0]]}

    def test_sampled_round_trip(self):
        spec = MeasureSpec.sampled([1.0, 2.0, 0.5, 0.5])
        again = MeasureSpec.from_json(spec.to_json())
        assert again.weights == spec.weights
        assert json.loads(spec.to_json())["grid"] == 4

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            MeasureSpec.from_json('{"kind": "mystery"}')
