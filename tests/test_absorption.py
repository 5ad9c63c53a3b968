import random
from fractions import Fraction

import pytest

from opuckit.absorption import (
    absorption_inequality_probe,
    absorption_probes,
    fit_absorption_constant,
    gn_exponent,
    gn_ratio_probe,
    holder_budget,
    scaling_relation_residual,
    shift_allowance,
    young_subcriticality,
)
from opuckit.normal_form import NormalFormMonomial
from opuckit.sequences import VerblunskySequence

from helpers import random_float_sequence


class TestExponents:
    def test_endpoint_values(self):
        assert gn_exponent(3, 0).p_r == 8
        assert gn_exponent(3, 3).p_r == 2
        assert gn_exponent(2, 1).p_r == 3
        assert gn_exponent(5, 2).p_r == 4

    def test_monotone_decreasing(self):
        for m in range(1, 13):
            ps = [gn_exponent(m, r).p_r for r in range(m + 1)]
            assert ps[0] == 2 * m + 2 and ps[-1] == 2
            assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_range_guard(self):
        with pytest.raises(ValueError):
            gn_exponent(3, 4)
        with pytest.raises(ValueError):
            gn_exponent(3, -1)

    def test_scaling_relation_exact(self):
        for m in range(1, 13):
            for r in range(m + 1):
                assert scaling_relation_residual(m, r) == 0


class TestHolderBudget:
    def test_worked_examples(self):
        b = holder_budget(3, 2, (1, 1, 0, 0))
        assert b.exponent_sum == Fraction(3, 4)
        b = holder_budget(2, 2, (1, 0, 0, 0))
        assert b.exponent_sum == Fraction(5, 6)
        b = holder_budget(4, 4, (1, 0, 0, 0, 0, 0, 0, 0))
        assert b.exponent_sum == Fraction(9, 10)

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
                assert b.exponent_sum == Fraction(m + 1 + k, 2 * (m + 1))
                assert b.subcritical and b.critical_count_met

    def test_young_subcriticality(self):
        for m in range(2, 13):
            for k in range(2, m + 1):
                val = young_subcriticality(m, k)
                assert val == Fraction(m + 1 + k, 2 * (m + 1))
                assert val < 1

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
