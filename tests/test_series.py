"""The exact Schur-ratio series for K_m against a 40-digit reference and,
bit for bit, against the scalar Schur loop; the CMV moments against a
250-digit one.

Needs mpmath (the `test` extra); the rest of the suite does not.
"""

import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opuckit import measures
from opuckit.families import FamilySpec
from opuckit.measures import (
    MeasureSpec,
    bernstein_szego_weight,
    szego_functional,
    szego_functional_series,
    trig_moments,
)

from helpers import schur_series_loop


def mp_functional(values, m_max, checkpoints, dps=40):
    """K_m at each checkpoint from the phi/phi* coefficient recursion at dps digits.

    A route apart from the Schur-ratio series: the phi* coefficients grow
    (to ~1e13 at gamma = 0.02), which 40 digits absorb, then log phi* is
    taken as a power series and paired with the Fourier data of
    (1-cos theta)^m.  Returns {(m, N): mpf} for m = 0..m_max.
    """
    M = m_max
    wanted = set(checkpoints)
    out = {}
    with mpmath.workdps(dps):
        zero = mpmath.mpc(0)
        ph = [mpmath.mpc(1)] + [zero] * M
        ps = list(ph)
        mass = mpmath.mpf(0)
        for n, a in enumerate(values):
            a = mpmath.mpc(a.real, a.imag)
            shifted = [zero] + ph[:-1]
            ph = [shifted[i] - mpmath.conj(a) * ps[i] for i in range(M + 1)]
            ps = [ps[i] - a * shifted[i] for i in range(M + 1)]
            mass -= mpmath.log1p(-abs(a) ** 2)
            if n not in wanted:
                continue
            t = [zero] * (M + 1)
            for ell in range(1, M + 1):
                t[ell] = ps[ell] - mpmath.fsum(
                    mpmath.mpf(j) / ell * t[j] * ps[ell - j] for j in range(1, ell)
                )
            for m in range(M + 1):
                h = [mpmath.mpf((-1) ** l * math.comb(2 * m, m + l)) / 2**m for l in range(m + 1)]
                out[(m, n)] = h[0] * mass + mpmath.fsum(2 * h[l] * t[l].real for l in range(1, m + 1))
    return out


def phi_zero_radius(prefix):
    """Largest modulus of a zero of the monic phi_N (0 if none).

    The zeros of phi*_N are their reflections 1/conj(z), so they lie on or
    outside 1/radius; the monic phi_N needs no division by a small leading
    coefficient to find them.
    """
    phi = np.array([1 + 0j])
    phistar = np.array([1 + 0j])
    for a in prefix:
        zphi = np.append(0, phi)
        phi, phistar = (
            zphi - np.conj(a) * np.append(phistar, 0),
            np.append(phistar, 0) - a * zphi,
        )
    return max(abs(np.roots(phi[::-1])), default=0.0)


@st.composite
def capped_prefixes(draw, max_len=12, max_cap=0.5):
    cap = draw(st.floats(0.0, max_cap))
    n = draw(st.integers(0, max_len))
    radii = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    angles = draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=n, max_size=n))
    return [cap * r * complex(math.cos(t), math.sin(t)) for r, t in zip(radii, angles)]


class TestSeriesFunctional:
    @pytest.mark.parametrize(
        "family, checkpoints",
        [
            (FamilySpec(kind="power", c=0.9, gamma=0.02), (0, 10, 250, 1000, 4000)),
            (FamilySpec(kind="power", c=0.9, gamma=0.1), (0, 10, 250, 1000, 4000)),
            (FamilySpec(kind="power", c=0.9, gamma=0.5), (0, 10, 250, 1000, 4000)),
            (FamilySpec(kind="rotated", c=0.7, gamma=0.3, beta=1.0), (3, 500)),
        ],
        ids=["power-0.02", "power-0.1", "power-0.5", "rotated"],
    )
    def test_matches_40_digit_reference(self, family, checkpoints):
        values = family.generate(max(checkpoints)).values
        got = szego_functional_series(values, 8, checkpoints)
        ref = mp_functional(values, 8, checkpoints)
        assert set(got) == set(ref)
        for key, want in ref.items():
            assert abs(got[key] - float(want)) <= 1e-10 * abs(float(want)), key

    def test_lower_m_is_an_exact_truncation(self):
        values = FamilySpec(kind="rotated", c=0.8, gamma=0.2, beta=0.7).generate(600).values
        full = szego_functional_series(values, 8, (100, 600))
        for m_max in range(8):
            part = szego_functional_series(values, m_max, (100, 600))
            assert part == {k: v for k, v in full.items() if k[0] <= m_max}

    def test_checkpoints_past_the_prefix_zero_extend(self):
        prefix = (0.4, 0.2 - 0.3j, -0.1j)
        got = szego_functional_series(prefix, 3, (2, 9))
        padded = szego_functional_series(prefix + (0j,) * 7, 3, (9,))
        for m in range(4):
            assert got[(m, 9)] == got[(m, 2)] == padded[(m, 9)]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            szego_functional_series([0.1], -1, (0,))
        with pytest.raises(ValueError):
            szego_functional_series([0.1], 2, (-1,))

    @settings(derandomize=True, max_examples=50, deadline=None, database=None)
    @given(prefix=capped_prefixes())
    def test_series_equals_reference_and_resolved_quadrature(self, prefix):
        # Zeros of phi*_N can come within 1e-4 of the circle even here (12
        # entries of modulus 0.5 with spread phases), and then the trapezoid
        # rule at 4096 nodes misses by more than 1e-2.  Its error decays like
        # rho^-G for the smallest zero modulus rho of phi*_N, so quadrature
        # is held to the series only where rho >= 1.01 (rho^-4096 < 1e-17);
        # the series is held to the 40-digit reference everywhere.
        N = max(len(prefix) - 1, 0)
        series = szego_functional_series(prefix, 8, (N,))
        ref = mp_functional([complex(a) for a in prefix] or [0j], 8, (N,))
        measure = MeasureSpec.bernstein_szego(prefix)
        quad = [szego_functional(measure, m, 4096) for m in range(9)]
        resolved = phi_zero_radius(prefix) * 1.01 <= 1.0
        for m in range(9):
            want = float(ref[(m, N)])
            assert abs(series[(m, N)] - want) <= 1e-12 * max(1.0, abs(want))
            if resolved:
                assert abs(series[(m, N)] - quad[m]) <= 1e-10


@st.composite
def series_cases(draw):
    """(prefix, m_max, checkpoints): cap <= 0.95, length 0..60, m_max 0..10.

    The checkpoints hold 0, a duplicate and an index past the end.
    """
    prefix = draw(capped_prefixes(max_len=60, max_cap=0.95))
    n = len(prefix)
    picks = draw(st.lists(st.integers(0, n + 5), min_size=1, max_size=5))
    past = n + draw(st.integers(0, 5))
    return prefix, draw(st.integers(0, 10)), [0, *picks, picks[0], past]


def bits(values: dict) -> dict:
    return {key: value.hex() for key, value in values.items()}


class TestSeriesEqualsTheScalarLoop:
    """The vectorised series returns the scalar Schur loop's floats, bit for bit."""

    @given(case=series_cases(), block=st.sampled_from([1, 7, measures._BLOCK]))
    def test_property(self, case, block):
        # small blocks carry the sums across many block edges
        prefix, m_max, checkpoints = case
        with mock.patch.object(measures, "_BLOCK", block):
            got = szego_functional_series(prefix, m_max, checkpoints)
        want = schur_series_loop(prefix, m_max, checkpoints)
        assert got == want
        assert bits(got) == bits(want)

    @pytest.mark.parametrize(
        "family",
        [
            FamilySpec(kind="power", c=0.9, gamma=0.1),
            FamilySpec(kind="rotated", c=0.8 + 0.3j, gamma=0.2, beta=0.7),
            FamilySpec(kind="random", seed=11, modulus_cap=0.9),
        ],
        ids=["power", "rotated", "random"],
    )
    def test_long_prefixes_across_block_edges(self, family):
        seq = family.generate(9000)
        checkpoints = (0, 1, 4095, 4096, 4097, 8191, 8192, 9000, 9001, 20000)
        for m_max in (1, 3, 12):
            got = szego_functional_series(seq, m_max, checkpoints)
            want = schur_series_loop(seq, m_max, checkpoints)
            assert got == want
            assert bits(got) == bits(want)

    def test_no_checkpoints(self):
        assert szego_functional_series([0.3, 0.2j], 4, ()) == {}


def mp_moments(values, kmax, dps=250):
    """c_0..c_kmax of the Bernstein-Szego measure by the inverse Levinson recursion.

    Orthogonality of Phi_{n+1} to 1 gives sum_j phi_j conj(c_{j+1}) =
    conj(alpha_n) ||Phi_n||^2 over the monic Phi_n, which is solved for
    c_{n+1}; the recursion loses digits geometrically, which 250 digits
    absorb at kmax 160.
    """
    with mpmath.workdps(dps):
        alphas = [mpmath.mpc(a.real, a.imag) for a in values[:kmax]]
        alphas += [mpmath.mpc(0)] * (kmax - len(alphas))
        phi = [mpmath.mpc(1)]
        norm = mpmath.mpf(1)
        conj_c = [mpmath.mpc(1)]
        for n, a in enumerate(alphas):
            known = mpmath.fsum(phi[j] * conj_c[j + 1] for j in range(n))
            conj_c.append(mpmath.conj(a) * norm - known)
            star = [mpmath.conj(v) for v in reversed(phi)]
            phi = [mpmath.mpc(0)] + phi
            for j in range(n + 1):
                phi[j] -= mpmath.conj(a) * star[j]
            norm *= 1 - abs(a) ** 2
        return [complex(mpmath.conj(c)) for c in conj_c]


class TestCmvMoments:
    @pytest.mark.parametrize(
        "family",
        [
            FamilySpec(kind="power", c=0.9, gamma=0.3),
            FamilySpec(kind="constant", c=0.95),
            FamilySpec(kind="random", seed=7, modulus_cap=0.95),
            FamilySpec(kind="rotated", c=0.9, gamma=0.1, beta=1.0),
        ],
        ids=["power-0.3", "constant-0.95", "random-0.95", "rotated"],
    )
    def test_matches_250_digit_inverse_levinson(self, family):
        measure = MeasureSpec.bernstein_szego(family.generate(2000))
        ref = mp_moments(measure.prefix.values, 160)
        for kmax in (12, 160):
            got = trig_moments(measure, kmax)
            assert len(got) == kmax + 1 and got[0] == 1
            assert max(abs(g - r) for g, r in zip(got, ref)) <= 1e-12

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(prefix=capped_prefixes(max_cap=0.3), kmax=st.integers(0, 12))
    def test_equal_the_fft_of_a_resolved_weight(self, prefix, kmax):
        # At modulus cap 0.3 a grid of 4096 resolves the weight, so its FFT
        # moments are exact to rounding; complex prefixes pin conj(<d_0, C^k d_0>)
        # against <d_0, C^k d_0>, which misses by far more than the bound.
        got = trig_moments(MeasureSpec.bernstein_szego(prefix), kmax)
        sampled = MeasureSpec(kind="sampled", weights=bernstein_szego_weight(prefix, 4096))
        want = trig_moments(sampled, kmax)
        assert np.max(np.abs(got - want)) <= 1e-12
