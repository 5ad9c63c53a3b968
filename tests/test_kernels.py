import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opuckit import _kernels
from opuckit.measures import theta_grid
from opuckit.sequences import VerblunskySequence

from helpers import polar_prefix, szego_recursion_polynomials

FIXED = settings.get_profile("fixed")


def random_prefix(rng, n, cap=0.8):
    radii = cap * np.sqrt(rng.uniform(size=n))
    angles = rng.uniform(0, 2 * np.pi, size=n)
    return radii * np.exp(1j * angles)


def test_against_scalar_recursion():
    prefix = VerblunskySequence((0.3, 0.2j, -0.4, 0.1 - 0.1j, 0.55))
    z = np.exp(1j * theta_grid(32))
    grid = _kernels.log_phistar_abs(np.asarray(prefix.values), z)
    for g in range(32):
        _, phistar = szego_recursion_polynomials(prefix, complex(z[g]))
        assert abs(math.log(abs(phistar)) - float(grid[g])) <= 1e-12


@pytest.mark.parametrize(
    "alphas",
    [np.full(200, 0.9 + 0j), random_prefix(np.random.default_rng(42), 700)],
    ids=["constant-0.9", "random-cap-0.8"],
)
def test_renormalised_prefix_matches_scalar_recursion(alphas):
    # both prefixes cross several RENORM_STRIDE blocks, yet |phi*| stays
    # inside float64, so the unrenormalised scalar recursion is a reference
    assert len(alphas) > 5 * _kernels.RENORM_STRIDE
    z = np.exp(1j * theta_grid(64))
    grid = _kernels.log_phistar_abs(alphas, z)
    for g in range(64):
        _, phistar = szego_recursion_polynomials(alphas.tolist(), complex(z[g]))
        want = math.log(abs(phistar))
        assert abs(float(grid[g]) - want) <= 1e-12 * max(1.0, abs(want))


@settings(FIXED, max_examples=100)
@given(entries=polar_prefix(128), grid=st.integers(16, 64))
def test_any_prefix_matches_scalar_recursion(entries, grid):
    # a prefix past RENORM_STRIDE entries takes the renormalisation branch
    alphas = np.array(entries, dtype=complex)
    z = np.exp(1j * theta_grid(grid))
    got = _kernels.log_phistar_abs(alphas, z)
    for g in range(grid):
        _, phistar = szego_recursion_polynomials(alphas.tolist(), complex(z[g]))
        want = math.log(abs(phistar))
        assert abs(float(got[g]) - want) <= 1e-12 * max(1.0, abs(want))


def test_empty_prefix():
    z = np.exp(1j * theta_grid(16))
    out = _kernels.log_phistar_abs(np.zeros(0, dtype=complex), z)
    assert np.allclose(out, 0.0)


def test_log_space_survives_divergent_prefix():
    # sum |a_n|^2 ~ 1300: the raw weight would underflow but the log cannot
    alphas = np.full(1600, 0.9 + 0j)
    z = np.exp(1j * theta_grid(64))
    out = _kernels.log_phistar_abs(alphas, z)
    assert np.all(np.isfinite(out))
