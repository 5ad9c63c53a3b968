import math
import random
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opuckit import sum_rule
from opuckit.families import FamilySpec
from opuckit.measures import MeasureSpec, szego_functional, szego_functional_series, theta_grid
from opuckit.sequences import VerblunskySequence, lukic_partial_sums, zero_extended
from opuckit.sum_rule import (
    DecompositionReport,
    decomposition_report,
    decomposition_sweep,
    hm_closed_form,
    hm_shift_symbol,
    log_tail,
    log_tails,
)
from opuckit.shift_algebra import ShiftPolynomial

from helpers import (
    forward_difference,
    hm_ring_coeffs,
    polar_prefix,
    quadratic_form_complex,
    random_float_sequence,
    schur_series_loop,
    symbol_quadratic_form,
)

FIXED = settings.get_profile("fixed")


def fourier_oracle(m, ell, grid=4096):
    """Quadrature oracle for the Fourier coefficients of (1-cos theta)^m."""
    theta = theta_grid(grid)
    vals = (1 - np.cos(theta)) ** m * np.exp(-1j * ell * theta)
    return complex(np.mean(vals))


class TestHmSymbol:
    def test_m1_values(self):
        coeffs = hm_ring_coeffs(1)
        assert coeffs[0] == 1
        assert coeffs[1] == Fraction(-1, 2)
        assert coeffs[-1] == Fraction(-1, 2)

    def test_m2_against_quadrature_oracle(self):
        coeffs = hm_ring_coeffs(2)
        expected = {0: Fraction(3, 2), 1: Fraction(-1), 2: Fraction(1, 4)}
        for ell, frac in expected.items():
            oracle = fourier_oracle(2, ell)
            assert abs(oracle - float(frac)) <= 1e-12
            assert coeffs[ell] == frac
            assert coeffs[-ell] == frac

    def test_central_value_formula(self):
        # h_{m,0} = 2^-m C(2m, m); at m = 2 this is 3/2
        assert hm_ring_coeffs(2)[0] == Fraction(3, 2)
        for m in range(1, 13):
            assert hm_ring_coeffs(m)[0] == Fraction(math.comb(2 * m, m), 2**m)

    def test_closed_form_matches_expansion(self):
        for m in range(1, 13):
            coeffs = hm_ring_coeffs(m)
            for ell in range(-m, m + 1):
                assert coeffs[ell] == hm_closed_form(m, ell)

    def test_shift_symbol_forms_agree(self):
        # P^m H_m(P) = 2^-m (-1)^m (P-1)^{2m}: the cleared form is the
        # Laurent one multiplied through by the unit x^m
        for m in (1, 2, 3):
            laurent = ShiftPolynomial(1, {(l, 0): c for l, c in hm_ring_coeffs(m).items()})
            unit = ShiftPolynomial.monomial(1, (m, 0), 1)
            assert unit * laurent == hm_shift_symbol(m)


@st.composite
def quadratic_inputs(draw):
    """(seq, m, N): m <= 6, up to 40 entries of modulus <= 0.9, N from 0 to past the prefix."""
    m = draw(st.integers(1, 6))
    seq = VerblunskySequence(tuple(draw(polar_prefix(40))))
    return seq, m, draw(st.integers(0, len(seq) + 2 * m))


class TestQuadraticForm:
    def test_zero_sequence(self):
        seq = VerblunskySequence((0j,) * 10)
        assert symbol_quadratic_form(seq, 2, 9) == 0

    def test_interior_support_identity(self):
        rng = random.Random(300)
        m, N = 2, 30
        vals = [0j] * (N + 2 * m + 1)
        for i in range(m, N - m + 1):
            vals[i] = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        seq = VerblunskySequence(tuple(vals))
        assert symbol_quadratic_form(seq, m, N) == pytest.approx(
            lukic_partial_sums(seq, m, N).diff_energy / 2**m, abs=1e-12
        )

    def test_boundary_bookkeeping(self):
        # with the window covering the support, the mismatch against the
        # truncated difference energy is exactly the left-edge differences
        rng = random.Random(301)
        m, N = 3, 500
        seq = random_float_sequence(rng, N + 1)
        qf = symbol_quadratic_form(seq, m, N)
        de = lukic_partial_sums(seq, m, N).diff_energy / 2**m
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
                assert symbol_quadratic_form(seq, m, len(seq.values) - 1) >= -1e-10

    def test_imaginary_part_small(self):
        rng = random.Random(303)
        for _ in range(10):
            seq = random_float_sequence(rng, 25)
            val = quadratic_form_complex(seq, 2, len(seq.values) - 1)
            assert abs(val.imag) <= 1e-12

    @settings(FIXED, max_examples=200)
    @given(inputs=quadratic_inputs())
    def test_symbol_side_matches_the_oracle(self, inputs):
        # the table evaluator sums per term, the oracle per shift: equal to rounding
        seq, m, N = inputs
        want = quadratic_form_complex(seq, m, N).real
        assert abs(symbol_quadratic_form(seq, m, N) - want) <= 1e-12 * max(1.0, abs(want))


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


def square_modulus(a):
    """re*re + im*im, the x = |a|^2 that log_tails reads."""
    return a.real * a.real + a.imag * a.imag


def log_tail_loop(alpha, m):
    """The entry-by-entry tail formula that log_tails vectorises.

    At and below x = 1/2 a scalar Horner loop over J + 1 terms; J takes
    np.log, as log_tails does, since math.log may differ from it in the last
    bit and move J by one at a boundary.
    """
    x = square_modulus(alpha)
    if x == 0.0:
        return 0.0
    if x <= 0.5:
        J = math.ceil(math.log(1e-17) / float(np.log(np.float64(x))))
        acc = 0.0
        for i in range(J, -1, -1):
            acc = acc * x + 1.0 / (m + 1 + i)
        return acc * x ** (m + 1.0)
    partial = 0.0
    p = 1.0
    for k in range(1, m + 1):
        p *= x
        partial += p / k
    return -math.log1p(-x) - partial


U = 2.0**-53
ETA = 2.0**-1074


def gamma(k):
    return k * U / (1 - k * U)


def tail_reference(x, m):
    """(sum_{j>m} x^j/j, -log(1-x), sum_{k<=m} x^k/k) at the float x, to 60 digits.

    The tail is the series at and below x = 1/2 and the closed form above.
    """
    with mpmath.workdps(60):
        X = mpmath.mpf(x)
        L = -mpmath.log1p(-X)
        P = sum(X**k / k for k in range(1, m + 1))
        if x > 0.5:
            return L - P, L, P
        term, total, j = X ** (m + 1), mpmath.mpf(0), m + 1
        while term > total * mpmath.mpf(10) ** -60:
            total += term / j
            term *= X
            j += 1
        return total, L, P


class TestTailBound:
    """Every tail lies within the bound log_tails states of a 60-digit value on the same x."""

    @settings(FIXED, max_examples=400)
    @given(
        modulus=st.one_of(
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
            st.floats(min_value=1e-160, max_value=1e-4),
            st.floats(min_value=0.999, max_value=1.0, exclude_max=True),
            st.sampled_from([math.sqrt(0.5), math.nextafter(math.sqrt(0.5), 0.0), 5e-324, 1e-155]),
        ),
        angle=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2 * math.pi)),
        m=st.integers(1, 8),
    )
    def test_within_the_stated_bound_of_mpmath(self, modulus, angle, m):
        a = complex(modulus * math.cos(angle), modulus * math.sin(angle))
        x = square_modulus(a)
        if not 0.0 < x < 1.0:
            return
        got = log_tails([a], m)[0]
        exact, L, P = tail_reference(x, m)
        with mpmath.workdps(60):
            if x <= 0.5:
                J = math.ceil(math.log(1e-17) / float(np.log(np.float64(x))))
                X = mpmath.mpf(x)
                truncation = X ** (m + J + 2) / ((m + J + 2) * (1 - X))
                bound = gamma(2 * J + 4) * exact + truncation + 2 * ETA
            else:
                bound = 2 * U * L + gamma(m + 1) * P + U * abs(got)
            assert abs(mpmath.mpf(got) - exact) <= bound


class _WriteLog(np.ndarray):
    """An ndarray that records, in its `writes` list, every index an item assignment writes."""

    def __setitem__(self, key, value):
        self.writes.extend(np.arange(len(self))[key].tolist())
        super().__setitem__(key, value)


class _WriteLoggingNumpy:
    """numpy for opuckit.sum_rule, but the first np.zeros, log_tails' output, logs its writes."""

    def __init__(self):
        self.writes = None

    def __getattr__(self, name):
        return getattr(np, name)

    def zeros(self, *args, **kwargs):
        out = np.zeros(*args, **kwargs)
        if self.writes is not None:
            return out
        out = out.view(_WriteLog)
        out.writes = self.writes = []
        return out


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

    SQRT_HALF = math.sqrt(0.5)

    @settings(FIXED, max_examples=60)
    @given(
        entries=st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from(
                        [SQRT_HALF, math.nextafter(SQRT_HALF, 0), math.nextafter(SQRT_HALF, 1), 0.0]
                    ),
                    # pow underflows: x**(m+1) and then x itself go subnormal or 0
                    st.floats(min_value=0.0, max_value=1e-150),
                    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                ),
                # angle 0 keeps the drawn modulus exact
                st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2 * math.pi)),
            ),
            max_size=40,
        ),
        m=st.integers(1, 12),
    )
    def test_equals_the_loop_bit_for_bit(self, entries, m):
        alphas = [r * complex(math.cos(t), math.sin(t)) for r, t in entries]
        alphas = [a for a in alphas if square_modulus(a) < 1.0]
        got = log_tails(alphas, m)
        assert [v.hex() for v in got.tolist()] == [log_tail_loop(a, m).hex() for a in alphas]

    # No float modulus squares to exactly 1/2: nextafter(SQRT_HALF, 0) gives
    # the largest x below it, on the loop's side, and SQRT_HALF the next float
    # above it, on the closed form's.  Modulus 1/2 is x = 1/4 exactly.
    @settings(FIXED, max_examples=60)
    @given(
        entries=st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from(
                        [0.0, 0.5, SQRT_HALF, math.nextafter(SQRT_HALF, 0), 5e-324, 1e-160]
                    ),
                    # subnormal moduli, and moduli whose x or x**(m+1) goes subnormal
                    st.floats(min_value=0.0, max_value=2.3e-308),
                    st.floats(min_value=0.0, max_value=1e-150),
                    st.floats(min_value=0.999, max_value=1.0, exclude_max=True),
                    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                ),
                st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2 * math.pi)),
            ),
            max_size=300,
        ),
        m=st.integers(1, 8),
    )
    def test_each_entry_is_written_once_with_the_loop_value(self, entries, m):
        alphas = [r * complex(math.cos(t), math.sin(t)) for r, t in entries]
        alphas = [a for a in alphas if square_modulus(a) < 1.0]
        log = _WriteLoggingNumpy()
        with mock.patch.object(sum_rule, "np", log):
            got = log_tails(alphas, m)
        assert [v.hex() for v in got.tolist()] == [log_tail_loop(a, m).hex() for a in alphas]
        # entries with x = |a|^2 = 0 keep the zero they start with, unwritten
        assert len(log.writes) == len(set(log.writes))
        assert set(log.writes) == {i for i, a in enumerate(alphas) if square_modulus(a) > 0}

    @pytest.mark.parametrize(
        "spec, m",
        [
            (FamilySpec("power", c=0.9, gamma=0.1), 1),
            (FamilySpec("power", c=0.9, gamma=0.5), 2),
            (FamilySpec("rotated", c=0.7, gamma=0.3, beta=1.0), 3),
            (FamilySpec("random", seed=904, modulus_cap=0.5), 2),
        ],
    )
    def test_equals_the_loop_on_a_large_sweep(self, spec, m):
        alphas = spec.generate(200_000).values
        got = log_tails(alphas, m)
        assert got.tolist() == [log_tail_loop(a, m) for a in alphas]

    def test_empty_and_rejects(self):
        assert log_tails([], 2).shape == (0,)
        with pytest.raises(ValueError):
            log_tails([0.1, 1.0], 2)
        with pytest.raises(ValueError):
            log_tails([0.1], 0)


    @pytest.mark.parametrize(
        "alpha", [math.nan, complex(math.nan, 0.0), complex(0.0, math.nan)],
        ids=["nan", "nan-real-part", "nan-imaginary-part"],
    )
    def test_nan_entry_is_refused(self, alpha):
        # a nan modulus fails x >= 1 as well as x <= 1/2, and read as tail 0
        with pytest.raises(ValueError, match=r"^\|alpha_0\|\^2 = nan is not < 1$"):
            log_tail(alpha, 2)
        with pytest.raises(ValueError, match=r"^\|alpha_1\|\^2 = nan is not < 1$"):
            log_tails([0.1, alpha], 2)

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
        oracle = szego_functional(MeasureSpec.bernstein_szego([0.5]), 1, 4096)
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
        quad = szego_functional(MeasureSpec.bernstein_szego(seq), 2, 8192)
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
            trunc = VerblunskySequence(seq.values[: r.N + 1])
            K = szego_functional_series(trunc, r.m, [r.N])[(r.m, r.N)]
            energy = lukic_partial_sums(trunc, r.m, r.N)
            tail = sum(log_tail_loop(trunc.values[n], r.m) for n in range(r.N + 1))
            Q = energy.diff_energy / 2.0**r.m
            assert r == DecompositionReport(r.m, r.N, K, Q, tail, energy.power_energy, K - Q - tail)
            # the trapezoid rule at 512 nodes misses these rows by up to 3.0e-4
            quad = szego_functional(MeasureSpec.bernstein_szego(trunc), r.m, 512)
            assert quad == pytest.approx(K, abs=1e-3)

    def test_series_and_quadrature_agree_where_resolved(self):
        seq = FamilySpec(kind="power", c=0.5, gamma=0.8).generate(200)
        rows = decomposition_sweep(seq, [1, 2, 3], [50, 200])
        assert [(r.m, r.N) for r in rows] == [(m, N) for m in (1, 2, 3) for N in (50, 200)]
        for r in rows:
            measure = MeasureSpec.bernstein_szego(VerblunskySequence(seq.values[: r.N + 1]))
            quad = szego_functional(measure, r.m, 4096)
            assert r.K_proxy == pytest.approx(quad, abs=1e-10)

    def test_rows_past_the_sequence_zero_extend(self):
        seq = VerblunskySequence((0.5, -0.2j, 0.1))
        short, past = decomposition_sweep(seq, [2], [2, 9])
        assert past.K_proxy == short.K_proxy and past.tail == short.tail
        assert past.power_energy == short.power_energy
        # the grid oracle reads the zero-extended truncation the same way
        quad_short, quad_past = (
            szego_functional(MeasureSpec.bernstein_szego(zero_extended(seq, 0, N + 1)), 2, 256)
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

    def test_repeated_m_and_n_give_one_row_each(self):
        seq = FamilySpec(kind="power", c=0.5, gamma=0.3).generate(100)
        once = decomposition_sweep(seq, [2], [100])
        assert decomposition_sweep(seq, [2], [100, 100]) == once
        assert decomposition_sweep(seq, [2, 2], [100]) == once
        rows = decomposition_sweep(seq, [3, 1, 3], [50, 100, 50])
        assert [(r.m, r.N) for r in rows] == [(1, 50), (1, 100), (3, 50), (3, 100)]

    @pytest.mark.parametrize(
        "family",
        [
            FamilySpec(kind="power", c=0.9, gamma=0.1),
            FamilySpec(kind="power", c=0.5 + 0.3j, gamma=0.6),
            FamilySpec(kind="rotated", c=0.7, gamma=0.3, beta=1.0),
            FamilySpec(kind="random", seed=3, modulus_cap=0.5),
            FamilySpec(kind="random", seed=7, modulus_cap=0.95),
            FamilySpec(kind="constant", c=0.5),
            FamilySpec(kind="constant", c=-0.3 + 0.4j),
            FamilySpec(kind="explicit", values=(0.6 - 0.2j, -0.4j, 0.3, 0.1 + 0.1j)),
        ],
        ids=lambda f: f.label(),
    )
    def test_m1_residual_is_the_boundary_constant(self, family):
        # at m = 1 the residual is Re a_0 + |a_0|^2/2 at every N; the worst
        # row of these families misses it by 7.3e-13 relative to |K_proxy|.
        # The explicit prefix has 4 entries, so its later rows zero-extend
        n_list = [0, 1, 10, 250, 1000, 10000]
        seq = family.generate(3 if family.kind == "explicit" else n_list[-1])
        a0 = seq.values[0]
        boundary = a0.real + abs(a0) ** 2 / 2
        rows = decomposition_sweep(seq, [1], n_list)
        assert [r.N for r in rows] == n_list
        for r in rows:
            assert abs(r.residual - boundary) <= 1e-10 * max(1.0, abs(r.K_proxy))

    @pytest.mark.parametrize(
        "seq",
        [
            FamilySpec(kind="power", c=0.9, gamma=0.1).generate(2000),
            FamilySpec(kind="power", c=0.9, gamma=0.5).generate(2000),
            FamilySpec(kind="rotated", c=0.7, gamma=0.3, beta=1.0).generate(2000),
            random_float_sequence(random.Random(706), 2001, cap=0.5),
        ],
        ids=["power-0.1", "power-0.5", "rotated", "random-0.5"],
    )
    def test_csv_rows_equal_rows_from_the_scalar_loop(self, seq):
        # the sweep workload's families: K_proxy and residual from the
        # scalar Schur loop print the same CSV bytes
        n_list = [1000, 1500, 2000]
        K = schur_series_loop(seq, 3, n_list)
        rows = decomposition_sweep(seq, [1, 2, 3], n_list)
        assert len(rows) == 9
        for r in rows:
            k = K[(r.m, r.N)]
            want = DecompositionReport(r.m, r.N, k, r.Q, r.tail, r.power_energy, k - r.Q - r.tail)
            assert r.csv_row() == want.csv_row()
