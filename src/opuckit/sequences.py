"""Verblunsky sequences, the forward-difference calculus and the two energies.

A Verblunsky sequence is a finite complex prefix with every entry strictly
inside the unit disc.  Reads beyond the stored prefix (and at negative
indices) return 0; that extension convention makes every finite difference
well defined at every index and is the one compatible with Bernstein-Szego
truncation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np


class ModulusError(ValueError):
    """An entry with |alpha| >= 1 was supplied where the open disc is required."""


def abs2(values) -> np.ndarray:
    """|v|^2 of every entry as re*re + im*im: the one squared modulus that every module reads."""
    v = np.asarray(values)
    return np.square(v.real) + np.square(v.imag)


def complex_pairs(obj, name: str = "values") -> tuple:
    """The entries of the JSON wire format [[re, im], ...]; a boolean is no number."""
    pairs = isinstance(obj, list) and all(isinstance(p, list) and len(p) == 2 for p in obj)
    if not pairs or not all(type(x) in (int, float) for p in obj for x in p):
        raise ValueError(f"{name} must be a list of [re, im] number pairs")
    return tuple(complex(re, im) for re, im in obj)


@dataclass(frozen=True, eq=False)
class VerblunskySequence:
    """Finite complex sequence with all moduli strictly below 1, as a read-only complex128 copy.

    Built from another VerblunskySequence, it shares that one's checked array.
    """

    values: np.ndarray = ()

    def __post_init__(self):
        if isinstance(self.values, VerblunskySequence):
            object.__setattr__(self, "values", self.values.values)
            return
        vals = np.array(self.values, dtype=np.complex128)
        if vals.ndim != 1:
            raise TypeError("values must be a flat sequence of numbers")
        # strict, tolerance-free check on the |a|^2 that every consumer reads
        with np.errstate(over="ignore"):
            x = abs2(vals)
        bad = np.flatnonzero(~(x < 1.0))
        if bad.size:
            i = int(bad[0])
            raise ModulusError(f"|alpha_{i}|^2 = {x[i]} is not < 1")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __eq__(self, other):
        if not isinstance(other, VerblunskySequence):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __hash__(self):
        # hashes Python complex, so -0.0 and 0.0 hash alike, as they compare
        return hash(tuple(self.values.tolist()))

    def __len__(self) -> int:
        return len(self.values)

    # JSON wire format: array of [re, im] pairs.

    def to_json(self) -> str:
        return json.dumps([[v.real, v.imag] for v in self.values.tolist()])


@dataclass(frozen=True)
class EnergyReport:
    """Partial sums of the two coercive quantities up to index N."""

    diff_energy: float
    power_energy: float


def zero_extended(seq, start: int, stop: int) -> np.ndarray:
    """Array of entries start..stop-1, 0 outside the stored prefix.

    seq is a VerblunskySequence or any plain sequence (list, tuple, numpy
    array), read whole by np.asarray.  Its numpy dtype decides the kind:
    object (exact entries, or ints past int64) gives an object array padded
    with the int 0, and any other dtype a complex128 array.
    """
    values = np.asarray(seq.values if isinstance(seq, VerblunskySequence) else seq)
    out = np.zeros(stop - start, dtype=object if values.dtype == object else np.complex128)
    lo, hi = max(start, 0), min(stop, len(values))
    if hi > lo:
        out[lo - start : hi - start] = values[lo:hi]
    return out


def difference_rows(part, orders) -> dict:
    """{a: Delta^a of part} for each order a; part is a numpy array or a list of ints.

    An array takes the binomial form sum_j (-1)^(a-j) C(a, j) part[i+j] at
    each i, accumulated from 0 in ascending j: the floats of a per-n loop.
    Ints are exact in any order, so a list takes Delta^a = Delta Delta^(a-1).
    """
    rows = {0: part}
    if isinstance(part, np.ndarray):
        for a in orders - {0}:
            size = len(part) - a
            rows[a] = np.zeros(size)
            for j in range(a + 1):
                rows[a] = rows[a] + (-1) ** (a - j) * math.comb(a, j) * part[j : j + size]
        return rows
    for a in range(1, max(orders) + 1):
        rows[a] = [y - x for x, y in zip(rows[a - 1], rows[a - 1][1:])]
    return rows


def difference_array(seq, m: int, N: int) -> np.ndarray:
    """Vector of Delta^m alpha_n for n = 0..N, the order-m row of difference_rows."""
    return difference_rows(zero_extended(seq, 0, N + m + 1), {m})[m]


def lukic_partial_sums(seq, m: int, N: int) -> EnergyReport:
    """Difference energy sum |Delta^m a_n|^2 and power energy sum |a_n|^(2m+2) over [0, N]."""
    if m < 1:
        raise ValueError("order m must be >= 1")
    diff_energy = float(np.sum(abs2(difference_array(seq, m, N))))
    power_energy = float(np.sum(abs2(zero_extended(seq, 0, N + 1)) ** (m + 1)))
    return EnergyReport(diff_energy=diff_energy, power_energy=power_energy)


def lp_norm(values, p: float, N: int | None = None) -> float:
    """(sum_{n=0}^{N} |v_n|^p)^(1/p); p must be >= 1."""
    if p < 1:
        raise ValueError(f"p = {p} < 1 is not a norm exponent")
    if N is None:
        N = len(values) - 1
    arr = zero_extended(values, 0, max(N + 1, 0))
    # float_power calls the libm pow behind Python's **, and a cumsum adds in
    # index order, so the sum is the one a scalar loop makes
    powers = np.float_power(abs2(arr), p / 2.0)
    total = float(np.cumsum(powers)[-1]) if powers.size else 0.0
    return total ** (1.0 / p)

