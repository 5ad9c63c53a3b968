"""numpy's hypot and float_power must give Python's abs(complex) and ** bit for bit.

Two libm calls remain in array form, each promising the floats of a scalar
loop: np.float_power for x ** p in sum_rule.log_tails and
sequences.lp_norm, and np.hypot for abs(complex) of the running sums in
absorption._monomial_sums.  That holds
because both sides call the same libm pow and hypot; a numpy build that
routes these ufuncs through its own vector code would break it, and these
tests then fail before any report changes silently.  (np.abs on complex
arrays and np.power already do differ from abs and ** in the last bit for
a large share of inputs.)
"""

import math

import numpy as np

SPECIAL = [
    0.0,
    -0.0,
    5e-324,
    2.5e-320,
    math.ulp(0.0) * 2**40,
    np.finfo(float).tiny,
    math.nextafter(np.finfo(float).tiny, 0.0),
    1e-200,
    math.sqrt(0.5),
    math.nextafter(math.sqrt(0.5), 0.0),
    math.nextafter(math.sqrt(0.5), 1.0),
    0.5,
    math.nextafter(1.0, 0.0),
    1.0,
    math.nextafter(1.0, 2.0),
    1e150,
    math.nan,
    math.inf,
    -math.inf,
]


def same(a: float, b: float) -> bool:
    """Equal bits, or both nan (nan payloads carry no meaning here)."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return float(a).hex() == float(b).hex()


def test_hypot_is_abs_of_complex():
    rng = np.random.default_rng(20260)
    size = 50_000
    # magnitudes across the whole range where |z| stays finite, both signs
    re = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-320.0, 300.0, size)
    im = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-320.0, 300.0, size)
    # and moduli near 1, as Verblunsky entries have
    r = rng.uniform(0.0, 1.0, size // 2)
    t = rng.uniform(0.0, 2 * math.pi, size // 2)
    re[: size // 2], im[: size // 2] = r * np.cos(t), r * np.sin(t)
    re = np.concatenate([re, np.repeat(SPECIAL, len(SPECIAL))])
    im = np.concatenate([im, np.tile(SPECIAL, len(SPECIAL))])
    got = np.hypot(re, im).tolist()
    bad = [
        (a, b)
        for a, b, h in zip(re.tolist(), im.tolist(), got)
        if not same(h, abs(complex(a, b)))
    ]
    assert not bad, f"{len(bad)} of {len(got)} differ, first {bad[:3]}"


def test_float_power_is_pow():
    rng = np.random.default_rng(20261)
    size = 50_000
    # bases up to 2, and inf: where a finite power overflows, as 1e150 ** 13
    # does, Python's ** raises OverflowError instead of giving inf
    special = [abs(x) for x in SPECIAL if not 2.0 < abs(x) < math.inf]
    bases = np.concatenate(
        [rng.uniform(0.0, 1.0, size // 2), rng.uniform(0.0, 2.0, size // 2), special]
    )
    # x ** 2 for the tail's x, x ** (m + 1) for its first term, p and 1/p for lp_norm
    p = rng.uniform(1.0, 10.0, len(bases))
    m_plus_1 = rng.integers(2, 14, len(bases)).astype(float)
    exponents = [np.full(len(bases), 2.0), m_plus_1, p, 1.0 / p]
    base_list = bases.tolist()
    for e in exponents:
        got = np.float_power(bases, e).tolist()
        bad = [(x, y) for x, y, z in zip(base_list, e.tolist(), got) if not same(z, x**y)]
        assert not bad, f"{len(bad)} of {len(got)} differ, first {bad[:3]}"
