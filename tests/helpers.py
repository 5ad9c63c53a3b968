"""Random constructions shared by the test modules and used by no command."""

from __future__ import annotations

import math
import random

from opuckit.sequences import VerblunskySequence


def random_float_sequence(rng: random.Random, length: int, cap: float = 0.9) -> VerblunskySequence:
    vals = []
    for _ in range(length):
        r = cap * math.sqrt(rng.random())
        ang = 2.0 * math.pi * rng.random()
        vals.append(r * complex(math.cos(ang), math.sin(ang)))
    return VerblunskySequence(tuple(vals))
