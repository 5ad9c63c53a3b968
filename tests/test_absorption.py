import random
from fractions import Fraction

import numpy as np
import pytest

from opuckit.absorption import (
    absorption_inequality_probe,
    absorption_probes,
    critical_orders,
    fit_absorption_constant,
    gn_exponent,
    gn_ratio_probe,
    monomial_sum,
    shift_allowance,
)
from opuckit.normal_form import NormalFormMonomial
from opuckit.sequences import VerblunskySequence, lukic_partial_sums

from helpers import holder_budget, random_float_sequence


class TestExponents:
    def test_endpoint_values(self):
        assert gn_exponent(3, 0) == 8
        assert gn_exponent(3, 3) == 2
        assert gn_exponent(2, 1) == 3
        assert gn_exponent(5, 2) == 4

    def test_monotone_decreasing(self):
        for m in range(1, 13):
            ps = [gn_exponent(m, r) for r in range(m + 1)]
            assert ps[0] == 2 * m + 2 and ps[-1] == 2
            assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_range_guard(self):
        with pytest.raises(ValueError):
            gn_exponent(3, 4)
        with pytest.raises(ValueError):
            gn_exponent(3, -1)

    def test_scaling_relation_exact(self):
        # r - 1/p_r = (r/m)(m - 1/2) - (1 - r/m)/(2m+2), over Q
        for m in range(1, 13):
            for r in range(m + 1):
                t = Fraction(r, m)
                assert r - 1 / gn_exponent(m, r) == t * (m - Fraction(1, 2)) - (1 - t) / (2 * m + 2)


class TestHolderBudget:
    def test_worked_examples(self):
        b = holder_budget(3, 2, (1, 1, 0, 0))
        assert b == Fraction(3, 4)
        b = holder_budget(2, 2, (1, 0, 0, 0))
        assert b == Fraction(5, 6)
        b = holder_budget(4, 4, (1, 0, 0, 0, 0, 0, 0, 0))
        assert b == Fraction(9, 10)

    def test_budget_identity_all_orders(self):
        for m in range(2, 13):
            for k in range(2, m + 1):
                orders = [0] * (2 * k)
                rem = m + 1 - k
                i = 0
                while rem:
                    orders[i % (2 * k)] += 1
                    rem -= 1
                    i += 1
                b = holder_budget(m, k, orders)
                assert b == Fraction(m + 1 + k, 2 * (m + 1))
                assert b < 1 and sum(orders) == m + 1 - k

    def test_young_exponent_is_the_budget(self):
        # (sigma/m)/2 + (2k - sigma/m)/(2m+2) at sigma = m+1-k, over Q
        for m in range(2, 13):
            for k in range(2, m + 1):
                t = Fraction(m + 1 - k, m)
                young = t / 2 + (2 * k - t) / (2 * m + 2)
                assert young == holder_budget(m, k, critical_orders(m, k))
                assert young == Fraction(m + 1 + k, 2 * (m + 1))

    def test_guards(self):
        with pytest.raises(ValueError):
            holder_budget(3, 1, ())
        with pytest.raises(ValueError):
            holder_budget(3, 2, (1, 1, 0))  # wrong length


class TestGnRatioProbe:
    def test_regularizer_breaks_invariance_mildly(self):
        rng = random.Random(401)
        seq = random_float_sequence(rng, 60, cap=0.9)
        a = gn_ratio_probe(seq, 3, 1, 50)
        b = gn_ratio_probe(
            VerblunskySequence(tuple(0.5 * v for v in seq.values)), 3, 1, 50
        )
        assert a != b  # the +1 regularizer is scale-sensitive by design

    def test_power_family_trend(self):
        seq = VerblunskySequence(tuple(0.9 / (n + 1) for n in range(2101)))
        r_small = gn_ratio_probe(seq, 3, 1, 200)
        r_large = gn_ratio_probe(seq, 3, 1, 2000)
        assert 0.5 <= r_large / r_small <= 2

    def test_random_sweep_records_empirical_constant(self):
        rng = random.Random(402)
        worst = 0.0
        for _ in range(100):
            seq = random_float_sequence(rng, rng.randint(20, 60))
            worst = max(worst, gn_ratio_probe(seq, 2, 1, len(seq.values) - 1))
        assert 0 < worst < 100  # finite empirical constant, no bound asserted

    def test_guards(self):
        seq = VerblunskySequence((0.1, 0.2))
        with pytest.raises(ValueError):
            gn_ratio_probe(seq, 2, 0, 1)
        with pytest.raises(ValueError):
            gn_ratio_probe(VerblunskySequence((0j, 0j)), 2, 1, 1)
        # the check reads the entries the probe reads, a_0..a_{N+2m}, alone
        with pytest.raises(ValueError, match="nonzero"):
            gn_ratio_probe(VerblunskySequence((0,) * 6 + (0.5,)), 2, 1, 1)
        assert gn_ratio_probe(VerblunskySequence((0,) * 5 + (0.5,)), 2, 1, 1) >= 0


def one_difference_quartic():
    # degree 4 (k = 2), one difference: critical for m = 2 (m+1-k = 1)
    return NormalFormMonomial(2, ((1, 0), (0, 1)), ((0, 0), (0, 1)), 1.0)


class TestAbsorptionProbe:
    def test_zero_sequence_passes(self):
        seq = VerblunskySequence((0j,) * 30)
        probe = absorption_inequality_probe(
            one_difference_quartic(), seq, 2, 20, 0.1, 0.0
        )
        assert probe.lhs == 0 and probe.passed

    def test_family_sweep_fit_then_pass(self):
        vals = tuple(0.8 / (n + 1) ** 0.3 for n in range(2101))
        seq = VerblunskySequence(vals)
        mono = one_difference_quartic()
        n_values = (250, 500, 1000, 2000)
        constant = fit_absorption_constant(mono, seq, 2, 0.1, n_values)
        probe = absorption_inequality_probe(mono, seq, 2, 2000, 0.1, constant)
        assert probe.passed
        # the one-table rows are the fit + per-N probe pair, float for float
        rows = absorption_probes(mono, seq, 2, 0.1, n_values)
        assert rows == [
            absorption_inequality_probe(mono, seq, 2, N, 0.1, constant) for N in n_values
        ]

    def test_subcritical_count_rejected(self):
        # m = 4, k = 2 needs at least 3 differences; one is not enough
        seq = VerblunskySequence((0.1,) * 10)
        with pytest.raises(ValueError):
            absorption_inequality_probe(one_difference_quartic(), seq, 4, 5, 0.1, 0.0)

    def test_shift_allowance(self):
        mono = NormalFormMonomial(2, ((2, -1), (0, 3)), ((1, 0), (0, -2)), 1.0)
        assert shift_allowance(mono) == 3 + 2


class TestPlaneWaves:
    """On Z the budget below 1 is a deficit: plane waves a_n = r e^{irn}, m = k = 2.

    Against the diff + power energy, the m+1-k = 1 difference monomial
    (Delta a)_n a_n conj(a_n) conj(a_n) sums to about 1/(2r), unbounded as
    r -> 0, so no fixed epsilon and C absorb it.  With 2(m+1-k) = 2
    differences, (Delta a)_n a_n conj(Delta a)_n conj(a_n), the ratio stays
    near 1/2: bounded, but not small.
    """

    @staticmethod
    def ratio(mono, r, N):
        m = 2
        seq = VerblunskySequence(r * np.exp(1j * r * np.arange(N + 2 * m + 3)))
        report = lukic_partial_sums(seq, m, N + shift_allowance(mono))
        return monomial_sum(mono, seq, N) / (report.diff_energy + report.power_energy)

    @pytest.mark.parametrize("r", [0.2, 0.1, 0.05])
    @pytest.mark.parametrize("N", [1000, 2000, 4000])
    def test_critical_count_grows_as_one_over_2r(self, r, N):
        o = critical_orders(2, 2)
        mono = NormalFormMonomial(2, ((o[0], 0), (o[1], 0)), ((o[2], 0), (o[3], 0)), 1.0)
        assert mono.difference_count == 1
        assert abs(2 * r * self.ratio(mono, r, N) - 1) <= 1e-2

    @pytest.mark.parametrize("r", [0.2, 0.1, 0.05])
    @pytest.mark.parametrize("N", [1000, 2000, 4000])
    def test_twice_the_count_stays_near_one_half(self, r, N):
        mono = NormalFormMonomial(2, ((1, 0), (0, 0)), ((1, 0), (0, 0)), 1.0)
        assert abs(self.ratio(mono, r, N) - 0.5) <= 1e-2
