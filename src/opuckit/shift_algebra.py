"""Exact sparse Laurent algebra in the shift variables x_1..x_k, y_1..y_k.

A balanced degree-2k local expression in a sequence a and its conjugate is
encoded as a Laurent polynomial: the monomial x^i y^j stands for the local
product a_{n+i_1}...a_{n+i_k} * conj(a)_{n+j_1}...conj(a)_{n+j_mu}.  All
coefficients are Gaussian rationals and the algebra never rounds, because
ideal membership and moment cancellation are exact statements; floats enter
only when the coefficient map evaluates on a float sequence.

The diagonal ideal is generated by x_nu - 1 and y_mu - 1.  Membership of P
in its q-th power is equivalent to the vanishing of every Euler moment
sum_c c * prod i^a * prod j^b (0^0 = 1) of total order sum(a) + sum(b)
below q, and is decided here by a deterministic divided difference
expansion around the all-ones point: negative exponents are
cleared per variable (the clearing monomial is a unit, so it cannot change
the vanishing order), the cleared polynomial is split variable by variable
as C = C|_{v=1} + (v-1) D, and splitting stops once a branch has collected
q generator factors.  Each such term coeff * v^shift * (v-1)^order is
emitted as the normal-form monomial of the factors (Delta^order a)_{n+shift}
it maps to.  Branches that run out of variables early are scalar jets of
order < q; membership holds iff they all vanish.  In the shifted
coordinates the diagonal ideal is the irrelevant ideal, so this degree
inspection is complete: a Taylor coefficient of order < q survives exactly
when some mixed derivative of that order is nonzero at the diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .rationals import GR_ZERO, GaussianRational
from .sequences import difference_rows, zero_extended


class ShiftPolynomial:
    """Sparse Laurent polynomial over Gaussian rationals in 2k shift variables."""

    __slots__ = ("k", "terms")

    def __init__(self, k: int, terms=None):
        if k < 1:
            raise ValueError("balance degree k must be >= 1")
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != 2 * k:
                raise ValueError(f"exponent vector {exps} does not have length {2 * k}")
            c = GaussianRational.coerce(coeff)
            if not c.is_zero():
                clean[exps] = clean.get(exps, GR_ZERO) + c
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "terms", {e: c for e, c in clean.items() if not c.is_zero()})

    def __setattr__(self, *_):
        raise AttributeError("ShiftPolynomial is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, k: int) -> "ShiftPolynomial":
        return cls(k, {})

    @classmethod
    def constant(cls, k: int, c) -> "ShiftPolynomial":
        return cls(k, {tuple([0] * (2 * k)): GaussianRational.coerce(c)})

    @classmethod
    def one(cls, k: int) -> "ShiftPolynomial":
        return cls.constant(k, 1)

    @classmethod
    def monomial(cls, k: int, exps, coeff=1) -> "ShiftPolynomial":
        return cls(k, {tuple(exps): GaussianRational.coerce(coeff)})

    @classmethod
    def x(cls, k: int, nu: int) -> "ShiftPolynomial":
        """The variable x_nu, nu = 1..k."""
        if not 1 <= nu <= k:
            raise ValueError(f"x index {nu} out of 1..{k}")
        exps = [0] * (2 * k)
        exps[nu - 1] = 1
        return cls.monomial(k, exps)

    @classmethod
    def y(cls, k: int, mu: int) -> "ShiftPolynomial":
        """The variable y_mu, mu = 1..k."""
        if not 1 <= mu <= k:
            raise ValueError(f"y index {mu} out of 1..{k}")
        exps = [0] * (2 * k)
        exps[k + mu - 1] = 1
        return cls.monomial(k, exps)

    # -- ring operations --------------------------------------------------

    def _check_compatible(self, other: "ShiftPolynomial"):
        if self.k != other.k:
            raise ValueError("balance degrees differ")

    def __add__(self, other):
        if not isinstance(other, ShiftPolynomial):
            other = ShiftPolynomial.constant(self.k, other)
        self._check_compatible(other)
        merged = dict(self.terms)
        for e, c in other.terms.items():
            merged[e] = merged.get(e, GR_ZERO) + c
        return ShiftPolynomial(self.k, merged)

    __radd__ = __add__

    def __neg__(self):
        return ShiftPolynomial(self.k, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, ShiftPolynomial):
            other = ShiftPolynomial.constant(self.k, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, ShiftPolynomial):
            c = GaussianRational.coerce(other)
            return ShiftPolynomial(self.k, {e: c * v for e, v in self.terms.items()})
        self._check_compatible(other)
        prod = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod[e] = prod.get(e, GR_ZERO) + c1 * c2
        return ShiftPolynomial(self.k, prod)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        result = ShiftPolynomial.one(self.k)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, ShiftPolynomial)
            and self.k == other.k
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return f"ShiftPolynomial(k={self.k}, 0)"
        parts = [f"{c!r}*v^{e}" for e, c in sorted(self.terms.items())]
        return f"ShiftPolynomial(k={self.k}, " + " + ".join(parts) + ")"


def diag_eval(P: ShiftPolynomial) -> GaussianRational:
    """Value at the diagonal point where every shift variable equals 1."""
    total = GR_ZERO
    for c in P.terms.values():
        total = total + c
    return total


def vanishing_order(P: ShiftPolynomial, cap: int) -> int:
    """Largest q <= cap with all Euler moments of total order < q equal to zero.

    Returns cap when P lies in the cap-th ideal power (zero has infinite
    order, so an explicit cap is part of the contract), and otherwise the
    order of the witness of ideal_power_decompose, the lowest order of a
    nonzero moment; 0 when P(1,...,1) != 0.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    d = ideal_power_decompose(P, cap)
    return cap if d.member else sum(d.witness)


@dataclass(frozen=True)
class IdealDecomposition:
    """Outcome of an ideal-power membership test with constructive expansion.

    Non-membership is a legitimate answer, not an exception; it carries the
    exponents of the lowest-order nonvanishing Euler moment as a witness.
    """

    k: int
    order: int
    member: bool
    terms: tuple = ()  # tuple of NormalFormMonomial
    witness: tuple | None = None

    def recompose(self) -> ShiftPolynomial:
        if not self.member:
            raise ValueError("cannot recompose a failed membership")
        total = ShiftPolynomial.zero(self.k)
        for t in self.terms:
            total = total + t.polynomial()
        return total


def _divide_at_one(terms: dict, slot: int) -> tuple[dict, dict]:
    """Split sum c v^e as value + (v_slot - 1) * quotient.

    For a univariate p(v) = sum c_e v^e (e >= 0) the exact splitting is
    p = p(1) + (v - 1) Q with Q coefficients q_e = sum_{j > e} c_j.
    Coefficients are (re, im) int pairs over one denominator, which the
    splitting never changes, and no zero pair is stored.
    """
    groups: dict = {}
    for exps, coeff in terms.items():
        key = exps[:slot] + (0,) + exps[slot + 1 :]
        groups.setdefault(key, {})[exps[slot]] = coeff
    value: dict = {}
    quotient: dict = {}
    for key, univ in groups.items():
        vre = vim = 0
        for re, im in univ.values():
            vre += re
            vim += im
        if (vre, vim) != (0, 0):
            value[key] = (vre, vim)
        # suffix sums run over every exponent below the degree, including
        # gaps where no coefficient is stored
        head, tail = key[:slot], key[slot + 1 :]
        sre = sim = 0
        for e in range(max(univ) - 1, -1, -1):
            nxt = univ.get(e + 1)
            if nxt is not None:
                sre += nxt[0]
                sim += nxt[1]
            if (sre, sim) != (0, 0):
                quotient[head + (e,) + tail] = (sre, sim)
    return value, quotient


def ideal_power_decompose(P: ShiftPolynomial, q: int) -> IdealDecomposition:
    """Membership of P in the q-th diagonal ideal power, with exact expansion.

    On success every term is a NormalFormMonomial with difference count
    exactly q (higher powers are absorbed into the cofactors) and
    recomposition reproduces P exactly.  The expansion is the deterministic
    divided-difference one described in the module docstring, so outputs
    are reproducible.  It runs on Gaussian integers over the lcm of P's
    coefficient denominators; a GaussianRational is built only for the
    coefficient of an emitted term.
    """
    if q < 0:
        raise ValueError("ideal power must be >= 0")
    k = P.k
    nslots = 2 * k
    if not P.terms:
        return IdealDecomposition(k=k, order=q, member=True, terms=())

    # clear negative exponents; the clearing monomial is recorded as a
    # uniform shift on every cofactor
    clearing = tuple(
        max(0, -min(e[slot] for e in P.terms)) for slot in range(nslots)
    )
    L = math.lcm(*(x.denominator for c in P.terms.values() for x in (c.re, c.im)))
    cleared = {
        tuple(e + m for e, m in zip(exps, clearing)): _over(c.re, c.im, L)
        for exps, c in P.terms.items()
    }

    final: list[NormalFormMonomial] = []
    jets: list[tuple] = []

    def split(gen: tuple, terms: dict, slot: int):
        if sum(gen) == q:
            for exps, coeff in terms.items():
                factors = tuple(zip(gen, (e - m for e, m in zip(exps, clearing))))
                final.append(NormalFormMonomial(k, factors[:k], factors[k:], _scalar(coeff, L)))
            return
        if slot == nslots:
            # all variables consumed below order q: a scalar jet
            if terms.get(tuple([0] * nslots), (0, 0)) != (0, 0):
                jets.append(gen)
            return
        value, quotient = _divide_at_one(terms, slot)
        if value:
            split(gen, value, slot + 1)
        if quotient:
            bumped = gen[:slot] + (gen[slot] + 1,) + gen[slot + 1 :]
            split(bumped, quotient, slot)

    split(tuple([0] * nslots), cleared, 0)

    if jets:
        # at the lowest jet order t the Euler moment at e equals e! times the
        # Taylor coefficient at e, which the clearing unit leaves unchanged,
        # so the least such jet is the first nonzero moment of order t
        t = min(sum(gen) for gen in jets)
        witness = min(gen for gen in jets if sum(gen) == t)
        return IdealDecomposition(k=k, order=q, member=False, witness=witness)
    return IdealDecomposition(k=k, order=q, member=True, terms=tuple(final))


def coefficient_map(P: ShiftPolynomial, seq, n: int):
    """Apply the coefficient map at index n.

    Each monomial x^i y^j contributes coeff * prod a_{n+i_nu} * prod
    conj(a)_{n+j_mu}, with the zero extension for out-of-range indices.
    The value comes from the table evaluator `_table_sums`: an exact
    GaussianRational over a sequence whose numpy dtype is object (its
    GaussianRational, Fraction and int entries), and a complex otherwise.
    """
    ((re, im),), den = _table_sums(P.k, seq, (n,), _polynomial_terms(P))
    return _scalar((re[0], im[0]), den)


@dataclass(frozen=True)
class NormalFormMonomial:
    """Product of shifted finite differences of a and conj(a) with a coefficient.

    coeff * prod_nu (Delta^{a_nu} a)_{n+l_nu} * prod_mu (Delta^{b_mu} conj(a))_{n+r_mu}
    is the image of the expansion term coeff * prod v^shift * prod (v-1)^order
    under the coefficient map, so it is the term type of a decomposition.
    """

    k: int
    holo_factors: tuple  # ((difference order, shift), ...) of length k
    anti_factors: tuple  # ((difference order, shift), ...) of length k
    coeff: object = 1  # complex or GaussianRational

    def __post_init__(self):
        holo = tuple((int(a), int(s)) for a, s in self.holo_factors)
        anti = tuple((int(b), int(s)) for b, s in self.anti_factors)
        if len(holo) != self.k or len(anti) != self.k:
            raise ValueError("factor lists must both have length k")
        if any(a < 0 for a, _ in holo + anti):
            raise ValueError("difference orders must be >= 0")
        object.__setattr__(self, "holo_factors", holo)
        object.__setattr__(self, "anti_factors", anti)

    @property
    def difference_count(self) -> int:
        return sum(a for a, _ in self.holo_factors) + sum(b for b, _ in self.anti_factors)

    def polynomial(self) -> ShiftPolynomial:
        """The expansion term coeff * prod v^shift * prod (v-1)^order it is the image of."""
        k = self.k
        factors = self.holo_factors + self.anti_factors
        result = ShiftPolynomial.monomial(k, [s for _, s in factors], self.coeff)
        for slot, (a, _) in enumerate(factors):
            if a:
                e = [0] * (2 * k)
                e[slot] = 1
                gen = ShiftPolynomial.monomial(k, e) - ShiftPolynomial.one(k)
                result = result * gen**a
        return result

    def as_float(self) -> "NormalFormMonomial":
        c = self.coeff
        if isinstance(c, GaussianRational):
            c = c.to_complex()
        return NormalFormMonomial(self.k, self.holo_factors, self.anti_factors, complex(c))


def _polynomial_terms(P: ShiftPolynomial) -> list:
    """The terms of P for _table_sums: x^i y^j reads order-0 differences at shifts i and j."""
    return [(c, tuple((0, e) for e in exps)) for exps, c in P.terms.items()]


def _monomial_term(monomial: NormalFormMonomial) -> tuple:
    """The term of a normal-form monomial for _table_sums: its factors as they stand."""
    return monomial.coeff, monomial.holo_factors + monomial.anti_factors


def _table_sums(k: int, seq, window, *groups):
    """Sum of each group of terms at each n of window, from one difference table.

    A term is (coeff, factors): a scalar and 2k (difference order a, shift
    s) pairs, the first k read as (Delta^a a)_{n+s} and the last k as their
    conjugates.  Only the scaling and the tabulation depend on the kind of
    scalar, which the numpy dtype of the whole stored sequence decides (see
    `sequences.zero_extended`): object is exact, any other dtype float.
    Over an exact sequence the entries read, zero-extended, go through
    GaussianRational.coerce, which raises TypeError on a float, and are
    scaled to Gaussian integers over their common denominator D and the
    coefficients over theirs, L, so every term is an int-pair product
    carrying the factor L * D^(2k), the denominator returned; the tables
    are lists of ints and `_term_sum` runs once per n.  Over a float
    sequence the entries are one complex128 slice, the coefficients (re, im)
    float pairs, the tables float64 arrays (see `sequences.difference_rows`)
    and the denominator None; `_term_sum` runs once, on every n at once,
    with the float operations of a per-n loop in its order, so each float
    sum is the per-factor complex loop's (up to the sign of a zero).
    Returns one (re, im) pair of sequences per group, indexed like window,
    and the denominator.
    """
    window = list(window)
    factor_lists = [factors for terms in groups for _, factors in terms]
    if not window or not factor_lists:
        exact = zero_extended(seq, 0, 0).dtype == object
        zeros = [0] * len(window)
        return [(zeros, zeros) for _ in groups], 1 if exact else None
    orders = {a for factors in factor_lists for a, _ in factors}
    shifts = [s for factors in factor_lists for _, s in factors]
    base = min(window) + min(shifts)
    stop = max(window) + max(shifts) + max(orders) + 1
    coeffs = [c for terms in groups for c, _ in terms]
    entries = zero_extended(seq, base, stop)
    exact = entries.dtype == object
    if exact:
        gauss = [GaussianRational.coerce(v) for v in entries]
        parts = [v.re for v in gauss], [v.im for v in gauss]
        D = math.lcm(*(x.denominator for part in parts for x in part))
        row = [[x.numerator * (D // x.denominator) for x in part] for part in parts]
        coeffs = [GaussianRational.coerce(c) for c in coeffs]
        L = math.lcm(*(x.denominator for c in coeffs for x in (c.re, c.im)))
        coeffs = [_over(c.re, c.im, L) for c in coeffs]
        den = L * D ** (2 * k)
    else:
        row = entries.real, entries.imag
        coeffs = [(z.real, z.imag) for z in map(complex, coeffs)]
        den = None
    # holo[a] = the (re, im) tables of Delta^a a_j (scaled) at j - base, and
    # anti[a] those of its conjugate
    re_rows, im_rows = (difference_rows(part, orders) for part in row)
    holo = {a: (re_rows[a], im_rows[a]) for a in orders}
    anti_orders = {a for factors in factor_lists for a, _ in factors[k:]}
    anti = {a: (holo[a][0], _negated(holo[a][1])) for a in anti_orders}
    coeffs = iter(coeffs)
    sums = []
    for terms in groups:
        scaled = []
        for _, factors in terms:
            reads = [(holo[a], s - base) for a, s in factors[:k]]
            reads += [(anti[a], s - base) for a, s in factors[k:]]
            scaled.append((*next(coeffs), reads))
        if exact:
            sums.append(list(zip(*[_term_sum(n, scaled) for n in window])))
        elif scaled:
            sums.append(_term_sum(np.array(window), scaled))
        else:
            sums.append((np.zeros(len(window)),) * 2)
    return sums, den


def _term_sum(n, terms) -> tuple:
    """The (re, im) sum at n, an int or an index array, of terms (re, im, reads).

    Each product runs coefficient first, then the factors read at n + offset
    in order, with the complex product written out; terms add in order.
    """
    tre = tim = 0
    for re, im, reads in terms:
        for (table_re, table_im), offset in reads:
            i = n + offset
            dre, dim = table_re[i], table_im[i]
            re, im = re * dre - im * dim, re * dim + im * dre
        tre += re
        tim += im
    return tre, tim


def _negated(part):
    """-part, for a list of ints or a float array."""
    return -part if isinstance(part, np.ndarray) else [-v for v in part]


def _over(re, im, den: int) -> tuple:
    """The numerators of re + i im over den, a multiple of both denominators."""
    return re.numerator * (den // re.denominator), im.numerator * (den // im.denominator)


def _scalar(value, den):
    """A (re, im) sum of _table_sums as a complex (den None) or a GaussianRational."""
    if den is None:
        return complex(*value)
    return GaussianRational(Fraction(value[0], den), Fraction(value[1], den))
