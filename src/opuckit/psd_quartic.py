"""The quartic principal critical block and its exact PSD certificate.

The block is the degree-(2m-2) polynomial

    P_m(u, v, t) = [ (u+v-t)^{2m} + t^{2m} - u^{2m} - v^{2m} ]
                   / ( 2 C(2m, m) (u-t)(v-t) ),

whose numerator is exactly divisible by the denominator (the division is
performed symbolically and doubles as the divisibility proof), together
with its Gram representation P_m = W^T M W over the degree-(m-1) monomials
in three variables.  P_m is a dict of exact coefficients, which the Gram
identity check compares coefficientwise in integers.  M is PSD because it
is a sum of squares, M = pref B^T D B with D a positive diagonal, an
identity `gram_sos_check` proves exactly.  High powers like (u+v-t)^{2m}
shred float accuracy, so every check here is exact rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

MultiIndex3 = tuple  # (a1, a2, a3) with a1 + a2 + a3 = m - 1


class ExactDivisionError(ArithmeticError):
    """The symbolic division left a remainder (never expected)."""


def multinomial(m: int, alpha: MultiIndex3) -> int:
    return math.comb(m, alpha[0]) * math.comb(m - alpha[0], alpha[1])


def multi_indices(m: int) -> list[MultiIndex3]:
    """Degree-(m-1) exponent triples, graded lex (lex descending at fixed degree).

    The ordering is frozen so serialized matrices are byte-stable.
    """
    n = m - 1
    out = []
    for a1 in range(n, -1, -1):
        for a2 in range(n - a1, -1, -1):
            out.append((a1, a2, n - a1 - a2))
    return out


@dataclass(frozen=True)
class GramBlock:
    """Symmetric rational matrix indexed by the degree-(m-1) multi-indices."""

    m: int
    entries: tuple  # tuple of tuples of Fraction

    def __post_init__(self):
        n = len(self.entries)
        expected = math.comb(self.m + 1, 2)
        if n != expected:
            raise ValueError(f"dimension {n} != C(m+1, 2) = {expected}")
        if any(len(row) != n for row in self.entries):
            raise ValueError("entries must be square")
        # row i against column i; one object per symmetric pair compares by identity
        for i, (row, col) in enumerate(zip(self.entries, zip(*self.entries))):
            if tuple(row) != col:
                j = next(j for j, (x, y) in enumerate(zip(row, col)) if x != y)
                raise ValueError(f"asymmetric at ({i},{j})")

    @property
    def dim(self) -> int:
        return len(self.entries)

    def to_json(self) -> str:
        import json

        return json.dumps(
            {
                "m": self.m,
                # the row order multi_indices fixes
                "order": "grlex",
                "entries": [[str(c) for c in row] for row in self.entries],
            }
        )


def gram_closed_form(m: int) -> GramBlock:
    """Exact Gram matrix from the double binomial sum.

    Entry for multi-indices alpha, beta (A = a1+b1, B = a2+b2, C = a3+b3):

        m(2m-1)/C(2m,m) * multinom(alpha) multinom(beta)
        * sum_{p<=B} sum_{q<=C} (-1)^{p+q} C(B,p) C(C,q)
          / ((p+q+1)(A+C-q+1))

    The sum depends on alpha, beta only through (A, B, C), so it is summed
    once per index sum, in integers over L^2 with L = lcm(1..2m-1): both
    denominator factors are at most 2m-1.  Only the upper triangle is
    computed; the lower one is its mirror.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    idx = multi_indices(m)
    L = math.lcm(*range(1, 2 * m))
    den = math.comb(2 * m, m) * L * L
    weight = [multinomial(m - 1, a) for a in idx]
    sums = {}
    dim = len(idx)
    rows = [[None] * dim for _ in range(dim)]
    for i, a in enumerate(idx):
        scale = m * (2 * m - 1) * weight[i]
        for j in range(i, dim):
            b = idx[j]
            key = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
            acc = sums.get(key)
            if acc is None:
                acc = sums[key] = _binomial_double_sum(*key, L)
            rows[i][j] = rows[j][i] = Fraction(scale * weight[j] * acc, den)
    return GramBlock(m=m, entries=tuple(tuple(row) for row in rows))


def _binomial_double_sum(A: int, B: int, C: int, L: int) -> int:
    """L^2 times the double binomial sum of gram_closed_form, an integer."""
    total = 0
    for q in range(C + 1):
        inner = 0
        for p in range(B + 1):
            term = math.comb(B, p) * (L // (p + q + 1))
            inner += -term if p % 2 else term
        term = math.comb(C, q) * (L // (A + C - q + 1)) * inner
        total += -term if q % 2 else term
    return total


def pm_polynomial(m: int) -> dict:
    """Exact P_m in the variables (u, v, t) by symbolic division.

    Returns the nonzero coefficients as {(i, j, l): Fraction} for the
    monomials u^i v^j t^l.  Expands the numerator in the shifted variables a = u-t, b = v-t, where
    the divisor (u-t)(v-t) is the monomial ab; exactness of the division is
    verified term by term and a remainder raises.  The numerator is built
    from multinomial coefficients in integers, the substitution back to
    (u, v, t) is expanded binomially in integers, and the one division by
    2 C(2m, m) comes last.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = 2 * m
    # (t+a+b)^n + t^n - (t+a)^n - (t+b)^n over exponents (a, b, t)
    numerator = {}
    for i in range(n + 1):
        ci = math.comb(n, i)
        for j in range(n - i + 1):
            numerator[(i, j, n - i - j)] = ci * math.comb(n - i, j)
    numerator[(0, 0, n)] += 1
    for i in range(n + 1):
        numerator[(i, 0, n - i)] -= math.comb(n, i)
        numerator[(0, i, n - i)] -= math.comb(n, i)
    quotient = {}
    for (i, j, l), c in numerator.items():
        if not c:
            continue
        if i < 1 or j < 1:
            raise ExactDivisionError(
                f"numerator term a^{i} b^{j} t^{l} is not divisible by ab"
            )
        quotient[(i - 1, j - 1, l)] = c
    # a^i b^j t^l = (u-t)^i (v-t)^j t^l
    terms = {}
    for (i, j, l), c in quotient.items():
        for x in range(i + 1):
            cx = c * math.comb(i, x)
            for y in range(j + 1):
                term = cx * math.comb(j, y)
                e = (x, y, l + i - x + j - y)
                terms[e] = terms.get(e, 0) + (-term if (i - x + j - y) % 2 else term)
    den = 2 * math.comb(n, m)
    return {e: Fraction(c, den) for e, c in terms.items() if c}


def gram_identity_check(m: int) -> bool:
    """Exact coefficientwise comparison of W^T M W with P_m(u(Z), v(Z), t(Z)).

    Z = (Z1, Z2, Z3) with u = Z3, v = -Z1-Z2-Z3, t = -Z2; both sides are
    expanded as integer dictionaries, each over the common denominator of
    its coefficients, and compared exactly.
    """
    block = gram_closed_form(m)
    idx = multi_indices(m)
    lhs_den = math.lcm(*(c.denominator for row in block.entries for c in row))
    lhs: dict = {}
    for ai, row in zip(idx, block.entries):
        for bj, c in zip(idx, row):
            e = (ai[0] + bj[0], ai[1] + bj[1], ai[2] + bj[2])
            lhs[e] = lhs.get(e, 0) + c.numerator * (lhs_den // c.denominator)

    p = pm_polynomial(m)
    rhs_den = math.lcm(*(c.denominator for c in p.values()))
    rhs: dict = {}
    for (x, y, z), c in p.items():
        # u^x v^y t^z = (-1)^(y+z) Z3^x (Z1+Z2+Z3)^y Z2^z
        coeff = c.numerator * (rhs_den // c.denominator)
        if (y + z) % 2:
            coeff = -coeff
        for k1 in range(y + 1):
            c1 = coeff * math.comb(y, k1)
            for k2 in range(y - k1 + 1):
                e = (k1, k2 + z, y - k1 - k2 + x)
                rhs[e] = rhs.get(e, 0) + c1 * math.comb(y - k1, k2)

    lhs = {e: c for e, c in lhs.items() if c}
    rhs = {e: c for e, c in rhs.items() if c}
    return lhs.keys() == rhs.keys() and all(
        lhs[e] * rhs_den == rhs[e] * lhs_den for e in lhs
    )


def gram_sos_check(m: int, block: GramBlock) -> str | None:
    """Prove block = pref B^T D B exactly, a sum of C(m+1, 2) squares.

    The Gram matrix is the moment matrix of the polynomials
    c_alpha(lam, mu) = multinom(alpha) (-mu)^{a1} (lam-1)^{a2} (lam-mu)^{a3}
    over the unit square, scaled by pref = m(2m-1)/C(2m, m).  Each c_alpha
    has total degree m-1, so it is sum_{i+j<=m-1} B[ij, alpha] P_i(lam) P_j(mu)
    in the shifted Legendre polynomials, which are orthogonal on [0, 1]
    with squared norm 1/(2i+1).  Hence M = pref B^T D B with
    D = diag(1/((2i+1)(2j+1))), and x^T M x = pref sum D (Bx)^2 >= 0: the
    exact identity with positive weights proves M PSD.

    B is built in integers from E x^p = sum_i E (2i+1) p!^2 / ((p-i)! (p+i+1)!)
    P_i(x), E the lcm of the denominators, one factor E per variable, and
    the weights are g = Q/((2i+1)(2j+1)) with Q their lcm.  Each entry
    alpha <= beta of the block is compared as
    sum g B_alpha B_beta m(2m-1) den = num C(2m, m) Q E^4.
    Returns None when all agree, else the first entry that differs.
    """
    idx = multi_indices(m)
    if block.dim != len(idx):
        raise ValueError(f"block dimension {block.dim} != C(m+1, 2) = {len(idx)}")
    n = m - 1
    f = math.factorial
    # E x^p = sum_i legendre[p][i] P_i(x)
    frac = [
        [Fraction((2 * i + 1) * f(p) ** 2, f(p - i) * f(p + i + 1)) for i in range(p + 1)]
        for p in range(m)
    ]
    E = math.lcm(*(c.denominator for row in frac for c in row))
    legendre = [[c.numerator * (E // c.denominator) for c in row] for row in frac]
    squares = [(i, j) for i in range(m) for j in range(m - i)]
    Q = math.lcm(*((2 * i + 1) * (2 * j + 1) for i, j in squares))
    weights = [Q // ((2 * i + 1) * (2 * j + 1)) * m * (2 * m - 1) for i, j in squares]
    columns = []
    for a1, a2, a3 in idx:
        # c_alpha = sum power[p][q] lam^p mu^q, p + q <= m-1
        power = [[0] * (n + 1) for _ in range(n + 1)]
        w = multinomial(n, (a1, a2, a3))
        for k in range(a2 + 1):
            ck = w * math.comb(a2, k)
            if (a2 - k) % 2:
                ck = -ck
            for l in range(a3 + 1):
                c, q = ck * math.comb(a3, l), a1 + a3 - l
                power[k + l][q] += -c if q % 2 else c
        # lam to P_i, then mu to P_j
        half = [
            [
                sum(legendre[p][i] * power[p][q] for p in range(i, n + 1 - q))
                for q in range(n + 1 - i)
            ]
            for i in range(m)
        ]
        columns.append(
            [sum(legendre[q][j] * half[i][q] for q in range(j, n + 1 - i)) for i, j in squares]
        )
    scale = math.comb(2 * m, m) * Q * E**4
    for r, (row, col) in enumerate(zip(block.entries, columns)):
        weighted = [g * b for g, b in zip(weights, col)]
        for c in range(r, len(idx)):
            x = row[c]
            if sum(map(mul, weighted, columns[c])) * x.denominator != x.numerator * scale:
                return f"entry ({r},{c}) differs from pref*B^T*D*B"
    return None


@dataclass(frozen=True)
class PsdCertificate:
    certified: bool
    pivots: tuple  # Fractions, in elimination order
    permutation: tuple
    failure: str | None = None


def psd_certificate(block) -> PsdCertificate:
    """Exact rational LDL^T with symmetric (diagonal) pivoting.

    A PSD test for any symmetric rational matrix, kept as the oracle that
    the tests hold `gram_sos_check` to; no command calls it.

    At each step the largest remaining diagonal entry is eliminated.  A
    negative pivot refutes PSD.  A zero maximal diagonal forces, for a PSD
    matrix, the whole remaining block to vanish: if it does, the remaining
    indices are recorded as skipped zero pivots; if it does not, the matrix
    is indefinite and certification fails.

    The elimination is fraction-free (Bareiss, Math. Comp. 22, 1968): the
    matrix is scaled to integers by the lcm `den` of its denominators, and
    after the pivots P each entry (r, c) of the remaining block is the
    integer minor det(M[P+r, P+c]) = prev * den * S[r][c], where prev is the
    last Bareiss pivot det(M[P, P]) > 0 and S the rational Schur complement.
    So every division is exact, the argmax, ties and signs are those of S,
    and each LDL^T pivot is Fraction(bareiss pivot, prev * den).
    """
    if isinstance(block, GramBlock):
        mat = block.entries
    else:
        mat = [[Fraction(c) for c in row] for row in block]
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix must be square")
    for i in range(n):
        for j in range(n):
            if mat[i][j] != mat[j][i]:
                raise ValueError(f"matrix is not symmetric at ({i},{j})")

    den = math.lcm(*(c.denominator for row in mat for c in row))
    # the upper triangle only: work[i][j - i] holds entry (i, j), j >= i
    work = [
        [c.numerator * (den // c.denominator) for c in row[i:]]
        for i, row in enumerate(mat)
    ]
    remaining = list(range(n))  # original index of each row of work
    pivots = []
    permutation = []
    prev = 1
    while remaining:
        k = max(range(len(remaining)), key=lambda i: work[i][0])
        d = work[k][0]
        piv = remaining[k]
        if d == 0:
            # max diagonal is zero: PSD requires the whole block to be zero;
            # by symmetry the first nonzero entry in row-major order lies in
            # the upper triangle
            for i, (r, row) in enumerate(zip(remaining, work)):
                for c, x in zip(remaining[i:], row):
                    if x:
                        return PsdCertificate(
                            certified=False,
                            pivots=tuple(pivots),
                            permutation=tuple(permutation),
                            failure=(
                                f"zero diagonal with nonzero entry at ({r},{c})"
                            ),
                        )
            for r in remaining:
                pivots.append(Fraction(0))
                permutation.append(r)
            break
        pivot = Fraction(d, prev * den)
        pivots.append(pivot)
        permutation.append(piv)
        if d < 0:
            return PsdCertificate(
                certified=False,
                pivots=tuple(pivots),
                permutation=tuple(permutation),
                failure=f"negative pivot {pivot} at index {piv}",
            )
        del remaining[k]
        # entry (k, c) for every remaining c, in order
        col = [work[i][k - i] for i in range(k)] + work.pop(k)[1:]
        for i, row in enumerate(work):
            if i < k:
                del row[k - i]
            f = col[i]
            row[:] = [(d * x - f * y) // prev for x, y in zip(row, col[i:])]
        prev = d
    return PsdCertificate(
        certified=True, pivots=tuple(pivots), permutation=tuple(permutation)
    )
