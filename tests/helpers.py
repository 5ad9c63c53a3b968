"""Random constructions and float oracles shared by the test modules and used by no command."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import numpy as np

from opuckit.psd_quartic import GramBlock, gram_closed_form, multi_indices, multinomial
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


def gram_quadrature(m: int, nodes: int | None = None) -> np.ndarray:
    """Gauss-Legendre evaluation of the integral form of the Gram entries.

    Integrates c_alpha c_beta over the unit square, where
    c_alpha(lam, mu) = multinom(alpha) (-mu)^{a1} (lam-1)^{a2} (lam-mu)^{a3},
    scaled by m(2m-1)/C(2m,m).  The integrand is polynomial of degree
    2(m-1) per axis, so nodes >= 2(m-1)+2 integrates it exactly.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if nodes is None:
        nodes = 2 * m
    if nodes < 2 * (m - 1) + 2:
        raise ValueError(f"need at least {2 * (m - 1) + 2} nodes per axis")
    x, w = np.polynomial.legendre.leggauss(nodes)
    lam = (x + 1.0) / 2.0
    wts = w / 2.0
    L, M = np.meshgrid(lam, lam, indexing="ij")
    W2 = np.outer(wts, wts)
    idx = multi_indices(m)
    grids = []
    for a in idx:
        grids.append(
            multinomial(m - 1, a) * (-M) ** a[0] * (L - 1.0) ** a[1] * (L - M) ** a[2]
        )
    pref = m * (2 * m - 1) / math.comb(2 * m, m)
    dim = len(idx)
    out = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            val = pref * float(np.sum(W2 * grids[i] * grids[j]))
            out[i, j] = val
            out[j, i] = val
    return out


def bumped_block(m: int) -> GramBlock:
    """gram_closed_form(m) with the symmetric pair (0, 1), (1, 0) raised by 1/7."""
    rows = [list(row) for row in gram_closed_form(m).entries]
    rows[0][1] = rows[1][0] = rows[0][1] + Fraction(1, 7)
    return GramBlock(m=m, entries=tuple(tuple(row) for row in rows))
