"""Random constructions shared by the test modules and used by no command."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

from opuckit.rationals import GaussianRational
from opuckit.sequences import VerblunskySequence
from opuckit.shift_algebra import NormalFormMonomial, ShiftPolynomial


def random_float_sequence(rng: random.Random, length: int, cap: float = 0.9) -> VerblunskySequence:
    vals = []
    for _ in range(length):
        r = cap * math.sqrt(rng.random())
        ang = 2.0 * math.pi * rng.random()
        vals.append(r * complex(math.cos(ang), math.sin(ang)))
    return VerblunskySequence(tuple(vals))


def hm_ring_coeffs(m: int) -> dict:
    """{l: h_{m,l}} read off the ring expansion P^m H_m(P) = 2^-m (-1)^m (P-1)^{2m}."""
    expansion = (ShiftPolynomial.x(1, 1) - 1) ** (2 * m) * Fraction((-1) ** m, 2**m)
    return {e[0] - m: c for e, c in expansion.terms.items()}


def monomial_json(m: NormalFormMonomial) -> str:
    """A monomial as JSON text; an exact coefficient as strings, a float one as numbers.

    The coefficient's type shows in the text, so two monomials compare equal
    through it only when their coefficients have the same kind.
    """
    c = m.coeff
    if isinstance(c, GaussianRational):
        coeff = {"re": str(c.re), "im": str(c.im)}
    else:
        c = complex(c)
        coeff = {"re": c.real, "im": c.imag}
    return json.dumps(
        {
            "k": m.k,
            "holo_factors": [list(f) for f in m.holo_factors],
            "anti_factors": [list(f) for f in m.anti_factors],
            "coeff": coeff,
        }
    )
