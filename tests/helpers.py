"""Random constructions shared by the test modules and used by no command."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from opuckit.sequences import VerblunskySequence
from opuckit.shift_algebra import ShiftPolynomial


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
