import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opuckit.families import FamilySpec
from opuckit.measures import MeasureSpec, szego_functional, szego_functional_series, theta_grid
from opuckit.sequences import VerblunskySequence, lukic_partial_sums
from opuckit.sum_rule import (
    DecompositionReport,
    HmSymbol,
    decomposition_report,
    decomposition_sweep,
    hm_closed_form,
    hm_fourier,
    hm_shift_symbol,
    log_tail,
    log_tails,
    quadratic_form,
    _quadratic_form_complex,
)
from opuckit.shift_algebra import ShiftPolynomial

from helpers import random_float_sequence

FIXED = settings.get_profile("fixed")


def fourier_oracle(m, ell, grid=4096):
    """Quadrature oracle for the Fourier coefficients of (1-cos theta)^m."""
    theta = theta_grid(grid)
    vals = (1 - np.cos(theta)) ** m * np.exp(-1j * ell * theta)
    return complex(np.mean(vals))


class TestHmSymbol:
    def test_m1_values(self):
        sym = hm_fourier(1)
        assert sym.coeffs[0] == 1
        assert sym.coeffs[1] == Fraction(-1, 2)
        assert sym.coeffs[-1] == Fraction(-1, 2)

    def test_m2_against_quadrature_oracle(self):
        sym = hm_fourier(2)
        expected = {0: Fraction(3, 2), 1: Fraction(-1), 2: Fraction(1, 4)}
        for ell, frac in expected.items():
            oracle = fourier_oracle(2, ell)
            assert abs(oracle - float(frac)) <= 1e-12
            assert sym.coeffs[ell] == frac
            assert sym.coeffs[-ell] == frac

    def test_central_value_formula(self):
        # h_{m,0} = 2^-m C(2m, m); at m = 2 this is 3/2
        assert hm_fourier(2).coeffs[0] == Fraction(3, 2)
        for m in range(1, 13):
            assert hm_fourier(m).coeffs[0] == Fraction(math.comb(2 * m, m), 2**m)

    def test_closed_form_matches_expansion(self):
        for m in range(1, 13):
            sym = hm_fourier(m)
            for ell in range(-m, m + 1):
                assert sym.coeffs[ell] == hm_closed_form(m, ell)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            HmSymbol(1, {-1: Fraction(-1, 2), 0: Fraction(2), 1: Fraction(-1, 2)})

    def test_shift_symbol_forms_agree(self):
        # P^m H_m(P) = 2^-m (-1)^m (P-1)^{2m}: the cleared form is the
        # Laurent one multiplied through by the unit x^m
        for m in (1, 2, 3):
            laurent = ShiftPolynomial(1, {(l, 0): c for l, c in hm_fourier(m).coeffs.items()})
            unit = ShiftPolynomial.monomial(1, (m, 0), 1)
            assert unit * laurent == hm_shift_symbol(m)


class TestQuadraticForm:
    def test_zero_sequence(self):
        seq = VerblunskySequence((0j,) * 10)
        assert quadratic_form(seq, 2, 9) == 0

    def test_interior_support_identity(self):
        rng = random.Random(300)
        m, N = 2, 30
        vals = [0j] * (N + 2 * m + 1)
        for i in range(m, N - m + 1):
            vals[i] = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        seq = VerblunskySequence(tuple(vals))
        assert quadratic_form(seq, m, N) == pytest.approx(
            lukic_partial_sums(seq, m, N).diff_energy / 2**m, abs=1e-12
        )

    def test_boundary_bookkeeping(self):
        # with the window covering the support, the mismatch against the
        # truncated difference energy is exactly the left-edge differences
        rng = random.Random(301)
        m, N = 3, 500
        seq = random_float_sequence(rng, N + 1)
        qf = quadratic_form(seq, m, N)
        de = lukic_partial_sums(seq, m, N).diff_energy / 2**m
        from opuckit.sequences import forward_difference

        edge = sum(
            abs(forward_difference(seq, m, n)) ** 2 for n in range(-m, 0)
        ) / 2.0**m
        assert qf == pytest.approx(de + edge, rel=1e-10)
        assert abs(qf - de) <= m * 2.0**m  # coarse bound from |Delta^m a| <= 2^m

    def test_positivity_random(self):
        # symbol is Fourier-nonnegative, so the full-support form cannot go
        # below rounding level
        rng = random.Random(302)
        for m in range(1, 7):
            for _ in range(200):
                seq = random_float_sequence(rng, rng.randint(5, 40))
                assert quadratic_form(seq, m, len(seq.values) - 1) >= -1e-10

    def test_imaginary_part_small(self):
        rng = random.Random(303)
        for _ in range(10):
            seq = random_float_sequence(rng, 25)
            val = _quadratic_form_complex(seq, 2, len(seq.values) - 1)
            assert abs(val.imag) <= 1e-12


class TestLogTail:
    def test_zero(self):
        assert log_tail(0.0, 3) == 0.0

    def test_half_value(self):
        # |a|^2 = 0.5, m = 1: ln 2 - 0.5
        val = log_tail(math.sqrt(0.5), 1)
        assert val == pytest.approx(math.log(2) - 0.5, abs=1e-15)
        assert val == pytest.approx(0.1931472, abs=1e-7)

    def test_series_identity(self):
        for mod in np.arange(0.0, 0.905, 0.05):
            x = mod**2
            for m in (1, 2, 5, 8):
                series = sum(x**j / j for j in range(m + 1, m + 201))
                assert abs(log_tail(mod, m) - series) <= 1e-12

    def test_lower_bound_on_grid(self):
        mods = list(np.arange(0.0, 0.99, 0.1)) + [0.99]
        for m in range(1, 9):
            for mod in mods:
                assert log_tail(mod, m) >= mod ** (2 * m + 2) / (m + 1) - 1e-15

    def test_rejects_unit_modulus(self):
        with pytest.raises(ValueError):
            log_tail(1.0, 2)

    def test_complex_argument(self):
        assert log_tail(0.3 + 0.4j, 2) == pytest.approx(log_tail(0.5, 2), rel=1e-13)

    # Both the tail and the bounds are a few ulps from exact (powers, log1p,
    # and the bounds' own |a|^(2m+2)); this fixed relative slack is over a
    # thousand times that.
    BOUND_RTOL = 1e-12

    @settings(FIXED, max_examples=200)
    @given(
        modulus=st.one_of(
            st.floats(min_value=1e-6, max_value=1 - 1e-12),
            st.integers(1, 12).map(lambda e: 1 - 10.0**-e),
        ),
        angle=st.floats(min_value=0, max_value=2 * math.pi),
        m=st.integers(1, 8),
    )
    def test_bounds_up_to_the_unit_circle(self, modulus, angle, m):
        # sum_{j>m} x^j/j lies between its first term x^(m+1)/(m+1) and
        # x^(m+1)/((m+1)(1-x)), the geometric sum of that term, x = |a|^2
        a = complex(modulus * math.cos(angle), modulus * math.sin(angle))
        x = abs(a) ** 2
        tail = log_tail(a, m)
        lower = abs(a) ** (2 * m + 2) / (m + 1)
        upper = lower / (1 - x)
        assert lower * (1 - self.BOUND_RTOL) <= tail <= upper * (1 + self.BOUND_RTOL)


def log_tail_loop(alpha, m):
    """The entry-by-entry tail formula that log_tails vectorises."""
    x = abs(alpha) ** 2
    if x == 0.0:
        return 0.0
    if x <= 0.5:
        term = x ** (m + 1)
        j = m + 1
        total = 0.0
        while True:
            total += term / j
            term *= x
            j += 1
            if term / j <= 1e-18 * total:
                return total
    partial = 0.0
    p = 1.0
    for k in range(1, m + 1):
        p *= x
        partial += p / k
    return -math.log1p(-x) - partial


class TestLogTails:
    def test_equals_the_loop_formula_entry_by_entry(self):
        rng = np.random.default_rng(305)
        mods = np.concatenate(
            [
                [0.0, 1e-200, 1e-8, 0.3, math.sqrt(0.5), np.nextafter(math.sqrt(0.5), 1), 0.999999],
                rng.uniform(0.0, 1.0, 400),
            ]
        )
        alphas = np.concatenate(
            [mods * np.exp(1j * rng.uniform(0.0, 2 * np.pi, len(mods))), [math.sqrt(0.5), -0.7]]
        )
        for m in range(1, 9):
            got = log_tails(alphas, m)
            want = [log_tail_loop(complex(a), m) for a in alphas]
            assert got.tolist() == want

    def test_empty_and_rejects(self):
        assert log_tails([], 2).shape == (0,)
        with pytest.raises(ValueError):
            log_tails([0.1, 1.0], 2)
        with pytest.raises(ValueError):
            log_tails([0.1], 0)


class TestDecompositionReport:
    def test_zero_sequence(self):
        seq = VerblunskySequence((0j,) * 5)
        rep = decomposition_report(seq, 1, 4)
        assert rep.K_proxy == 0 and rep.Q == 0 and rep.tail == 0
        assert rep.power_energy == 0 and rep.residual == 0

    def test_single_entry_hand_values(self):
        seq = VerblunskySequence((0.5,))
        rep = decomposition_report(seq, 1, 0)
        assert rep.Q == pytest.approx(0.125, abs=1e-15)
        assert rep.tail == pytest.approx(math.log(4 / 3) - 0.25, abs=1e-12)
        assert rep.tail == pytest.approx(0.0376821, abs=1e-7)
        # K from the quadrature oracle; residual is whatever remains
        oracle = szego_functional(MeasureSpec.bernstein_szego([0.5]), 1, 4096).value
        assert rep.K_proxy == pytest.approx(oracle, abs=1e-14)
        assert rep.residual == pytest.approx(oracle - 0.125 - rep.tail, abs=1e-14)

    def test_m1_residual_bounded_trend(self):
        seq = VerblunskySequence(tuple(0.5 / (n + 1) for n in range(401)))
        residuals = [
            abs(decomposition_report(seq, 1, N).residual)
            for N in (50, 100, 200, 400)
        ]
        assert max(residuals) / min(residuals) < 2
        # analytic value of the m=1 residual for a half-at-zero start
        assert residuals[0] == pytest.approx(0.5 + 0.125, abs=1e-9)

    def test_tail_dominates_power_energy(self):
        rng = random.Random(304)
        for m in (1, 2, 3):
            seq = random_float_sequence(rng, 60)
            rep = decomposition_report(seq, m, 59)
            assert rep.tail >= rep.power_energy / (m + 1) - 1e-12

    def test_quadrature_method_agrees_with_the_series(self):
        seq = VerblunskySequence(tuple(0.4 / (n + 1) ** 0.7 for n in range(80)))
        rep = decomposition_report(seq, 2, 79)
        quad = szego_functional(MeasureSpec.bernstein_szego(seq), 2, 8192).value
        assert quad == pytest.approx(rep.K_proxy, abs=1e-9)
        assert quad - rep.Q - rep.tail == pytest.approx(rep.residual, abs=1e-9)

    def test_default_is_the_exact_series(self):
        seq = VerblunskySequence(tuple(0.6 / (n + 1) ** 0.3 for n in range(120)))
        rep = decomposition_report(seq, 3, 100)
        assert rep.K_proxy == szego_functional_series(seq, 3, (100,))[(3, 100)]

    def test_csv_row(self):
        rep = DecompositionReport(1, 10, 0.5, 0.25, 0.1, 0.05, 0.15)
        assert rep.csv_row() == "1,10,0.5,0.25,0.1,0.05,0.15"
        assert DecompositionReport.CSV_HEADER.split(",") == [
            "m",
            "N",
            "K_proxy",
            "Q",
            "tail",
            "power_energy",
            "residual",
        ]


class TestDecompositionSweep:
    def test_quadrature_rows_equal_the_per_row_formulas(self):
        # K by the series on each truncation and by szego_functional on it,
        # Q and the power energy by lukic_partial_sums on it, tail by summing
        # the loop formula
        seq = FamilySpec(kind="rotated", c=0.8, gamma=0.3, beta=1.3).generate(90)
        rows = decomposition_sweep(seq, [3, 1], [90, 7, 40])
        assert [(r.m, r.N) for r in rows] == [(1, 7), (1, 40), (1, 90), (3, 7), (3, 40), (3, 90)]
        for r in rows:
            trunc = seq.truncated(r.N + 1)
            K = szego_functional_series(trunc, r.m, [r.N])[(r.m, r.N)]
            energy = lukic_partial_sums(trunc, r.m, r.N)
            tail = sum(log_tail_loop(trunc.at(n), r.m) for n in range(r.N + 1))
            Q = energy.diff_energy / 2.0**r.m
            assert r == DecompositionReport(r.m, r.N, K, Q, tail, energy.power_energy, K - Q - tail)
            # the trapezoid rule at 512 nodes misses these rows by up to 3.0e-4
            quad = szego_functional(MeasureSpec.bernstein_szego(trunc), r.m, 512).value
            assert quad == pytest.approx(K, abs=1e-3)

    def test_series_and_quadrature_agree_where_resolved(self):
        seq = FamilySpec(kind="power", c=0.5, gamma=0.8).generate(200)
        rows = decomposition_sweep(seq, [1, 2, 3], [50, 200])
        assert [(r.m, r.N) for r in rows] == [(m, N) for m in (1, 2, 3) for N in (50, 200)]
        for r in rows:
            measure = MeasureSpec.bernstein_szego(seq.truncated(r.N + 1))
            quad = szego_functional(measure, r.m, 4096).value
            assert r.K_proxy == pytest.approx(quad, abs=1e-10)

    def test_rows_past_the_sequence_zero_extend(self):
        seq = VerblunskySequence((0.5, -0.2j, 0.1))
        short, past = decomposition_sweep(seq, [2], [2, 9])
        assert past.K_proxy == short.K_proxy and past.tail == short.tail
        assert past.power_energy == short.power_energy
        # the grid oracle reads the zero-extended truncation the same way
        quad_short, quad_past = (
            szego_functional(MeasureSpec.bernstein_szego(seq.as_array(0, N + 1)), 2, 256).value
            for N in (2, 9)
        )
        assert quad_past == quad_short == pytest.approx(short.K_proxy, abs=1e-12)

    def test_rejects_bad_arguments(self):
        seq = VerblunskySequence((0.5,))
        with pytest.raises(ValueError):
            decomposition_sweep(seq, [0, 1], [3])
        with pytest.raises(ValueError):
            decomposition_sweep(seq, [1], [-1])
        assert decomposition_sweep(seq, [], [3]) == []
