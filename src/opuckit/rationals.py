"""Exact Gaussian-rational scalars used by the shift-algebra layer.

A Gaussian rational is a + b*i with a, b in Q.  The algebra modules never
let floating point touch their coefficients; this class is the only scalar
type they use.  Conversion to complex happens at the very edge, when a
polynomial identity is finally evaluated on a float sequence.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class GaussianRational:
    """Immutable exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, *_):
        raise AttributeError("GaussianRational is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def coerce(cls, x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x, 0) if x else GR_ZERO  # the int 0 pads every exact window
        raise TypeError(f"cannot coerce {x!r} to GaussianRational")

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _try_coerce(other):
        try:
            return GaussianRational.coerce(other)
        except TypeError:
            return None

    def __add__(self, other):
        o = GaussianRational._try_coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        o = GaussianRational._try_coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    __complex__ = to_complex

    def __eq__(self, other):
        try:
            o = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # a real value equals its int or Fraction, so it must hash as that does
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __repr__(self):
        if self.im == 0:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"


GR_ZERO = GaussianRational(0)
