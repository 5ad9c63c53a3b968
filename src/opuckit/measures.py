"""Measure <-> coefficient transforms and the weighted log functional.

A measure enters either as a Bernstein-Szego prefix (finite Verblunsky
sequence, zero continuation) or as strictly positive weight samples on a
uniform theta grid.  The weighted Szego functional

    K_m = integral (1 - cos theta)^m log(1/w(theta)) dtheta / (2 pi)

of a Bernstein-Szego prefix is evaluated exactly (up to rounding) by the
Schur-ratio series of szego_functional_series, at every checkpoint N and
order m of one pass.  Composite trapezoid quadrature on a theta grid
(szego_functional) is the route for sampled weights and the library oracle
for the series; it converges slowly once zeros of phi*_N come close to the
circle.  All Bernstein-Szego grid evaluations run in log space so that long
non-square-summable prefixes cannot overflow the recursion.  Trigonometric
moments of a Bernstein-Szego prefix need no grid: they come from powers of
its CMV matrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._kernels import log_phistar_abs
from .sequences import VerblunskySequence, abs2, complex_pairs, zero_extended

DEFAULT_GRID = 4096

# h_{m,0} = C(2m, m)/2^m, the largest Fourier coefficient of (1-cos theta)^m,
# is a finite float up to this order and overflows past it
MAX_SERIES_ORDER = 1029

# Indices per block of szego_functional_series; its work arrays hold
# O(m_max * _BLOCK) floats whatever the prefix length
_BLOCK = 4096


class WeightPositivityError(ValueError):
    """A weight sample was nonpositive (log would be infinite)."""


@dataclass(frozen=True)
class MeasureSpec:
    """Absolutely continuous circle measure, by prefix or by weight samples."""

    kind: str  # "bernstein_szego" | "sampled"
    prefix: VerblunskySequence | None = None
    weights: tuple = ()

    @classmethod
    def bernstein_szego(cls, prefix) -> "MeasureSpec":
        prefix = VerblunskySequence(prefix)
        return cls(kind="bernstein_szego", prefix=prefix)

    @classmethod
    def sampled(cls, weights) -> "MeasureSpec":
        try:
            arr = np.asarray(weights)
        except ValueError:  # a ragged nesting; float() below names the entry
            arr = None
        # only a flat array of bools, ints or reals converts in numpy; complex,
        # string, object and nested input goes through float(), which accepts
        # and refuses it as it always has (numpy would drop an imaginary part)
        if arr is None or arr.ndim != 1 or arr.dtype.kind not in "biuf":
            arr = np.array([float(x) for x in weights], dtype=np.float64)
        arr = arr.astype(np.float64, copy=False)
        w = tuple(arr.tolist())
        if not w:
            raise ValueError("sampled weights must not be empty")
        if not (arr > 0.0).all():
            raise WeightPositivityError("sampled weights must be strictly positive")
        if not np.isfinite(arr).all():
            raise ValueError("sampled weights must be finite")
        # a finite sum bounds every FFT output of trig_moments
        if not math.isfinite(sum(w)):
            raise ValueError("sampled weights must have a finite sum")
        return cls(kind="sampled", weights=w)

    def to_json(self) -> str:
        if self.kind == "bernstein_szego":
            return json.dumps(
                {
                    "kind": "bernstein_szego",
                    "alphas": [[v.real, v.imag] for v in self.prefix.values.tolist()],
                }
            )
        return json.dumps(
            {"kind": "sampled", "weights": list(self.weights), "grid": len(self.weights)}
        )

    @classmethod
    def from_json(cls, text: str) -> "MeasureSpec":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("a measure must be a JSON object")
        kind = obj.get("kind")
        if kind == "bernstein_szego":
            return cls.bernstein_szego(complex_pairs(obj.get("alphas"), "alphas"))
        if kind == "sampled":
            w = obj.get("weights")
            if not isinstance(w, list) or not all(type(x) in (int, float) for x in w):
                raise ValueError("weights must be a list of numbers")
            if "grid" in obj and obj["grid"] != len(w):
                raise ValueError("sampled grid field disagrees with weight count")
            return cls.sampled(w)
        raise ValueError(f"measure kind must be 'bernstein_szego' or 'sampled', got {kind!r}")


def hm_closed_form(m: int, ell: int) -> Fraction:
    """Fourier coefficient h_{m,l} = (-1)^l 2^-m C(2m, m+l) of (1-cos theta)^m."""
    if abs(ell) > m:
        return Fraction(0)
    val = Fraction(math.comb(2 * m, m + abs(ell)), 2**m)
    return -val if ell % 2 else val


def theta_grid(grid_size: int) -> np.ndarray:
    g = np.arange(grid_size)
    if len(g) != grid_size:
        # numpy returns an empty range, not an error, for lengths near 2**63
        raise ValueError(f"grid size {grid_size} is past the longest array numpy can index")
    return 2.0 * np.pi * g / grid_size


def _log_weight(prefix: VerblunskySequence, grid_size: int) -> np.ndarray:
    """log w on the uniform grid, computed entirely in log space."""
    if grid_size < 16:
        raise ValueError("grid_size must be at least 16")
    log_prefactor = float(np.sum(np.log1p(-abs2(prefix.values))))
    z = np.exp(1j * theta_grid(grid_size))
    logps = log_phistar_abs(prefix.values, z)
    return log_prefactor - 2.0 * logps


def bernstein_szego_weight(prefix, grid_size: int = DEFAULT_GRID) -> np.ndarray:
    """Weight samples w(theta_g) = prod(1-|a_j|^2) / |phi*_N(e^{i theta_g})|^2.

    Raises if the samples underflow to zero; use szego_functional for long
    prefixes, it never leaves log space.
    """
    prefix = VerblunskySequence(prefix)
    with np.errstate(under="ignore", over="ignore"):
        w = np.exp(_log_weight(prefix, grid_size))
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise WeightPositivityError(
            "weight under/overflowed float64; evaluate in log space instead"
        )
    return w


def trig_moments(measure: MeasureSpec, kmax: int, grid_size: int = DEFAULT_GRID) -> np.ndarray:
    """Trigonometric moments c_k = integral e^{-ik theta} dmu for k = 0..kmax.

    Sampled weights give the FFT of their samples.  A Bernstein-Szego
    prefix gives exact moments (up to rounding) with no grid, from its CMV
    matrix; grid_size then only bounds kmax.
    """
    G = grid_size if measure.kind == "bernstein_szego" else len(measure.weights)
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    if kmax >= G // 2:
        raise ValueError("kmax must stay below half the grid size")
    if measure.kind == "bernstein_szego":
        return _cmv_moments(measure.prefix, kmax)
    return np.fft.fft(np.asarray(measure.weights, dtype=np.float64))[: kmax + 1] / G


def _cmv_moments(prefix: VerblunskySequence, kmax: int) -> np.ndarray:
    """c_k = conj <delta_0, C^k delta_0> for the CMV matrix C = L M, k = 0..kmax.

    L = Theta_0 + Theta_2 + ..., M = 1 + Theta_1 + Theta_3 + ... (direct
    sums), Theta_j = [[conj a_j, rho_j], [rho_j, -a_j]], rho_j =
    sqrt(1 - |a_j|^2) (Simon, OPUC Part 1, section 4.2; Cantero, Moral and
    Velazquez, Linear Algebra Appl. 362, 2003).  c_0..c_kmax depend on
    a_0..a_{kmax-1} only, and C is five-diagonal, so C^k delta_0 lives on
    indices 0..2k: the leading 2 kmax + 2 rows of C, from the prefix cut or
    zero-extended to that length, give them exactly.  C is unitary, so each
    step is two pair updates on a unit vector and nothing grows, unlike the
    inverse Levinson recursion.
    """
    size = 2 * kmax + 2
    a = zero_extended(prefix, 0, size)
    rho = np.sqrt(1.0 - abs2(a))
    # M pairs rows (1, 2), (3, 4), ... with the odd Thetas; row size - 1 is
    # left alone, out of reach of row 0 within kmax steps
    a_m, conj_m, rho_m = a[1:-1:2], a[1:-1:2].conj(), rho[1:-1:2]
    a_l, conj_l, rho_l = a[0::2], a[0::2].conj(), rho[0::2]
    v = np.zeros(size, dtype=np.complex128)
    v[0] = 1.0
    inner = np.empty(kmax + 1, dtype=np.complex128)  # <delta_0, C^k delta_0>
    inner[0] = 1.0
    for k in range(1, kmax + 1):
        x, y = v[1:-1:2], v[2::2]
        v[1:-1:2], v[2::2] = conj_m * x + rho_m * y, rho_m * x - a_m * y
        x, y = v[0::2], v[1::2]
        v[0::2], v[1::2] = conj_l * x + rho_l * y, rho_l * x - a_l * y
        inner[k] = v[0]
    # + 0j keeps a real measure's imaginary parts at 0.0 rather than -0.0
    return inner.conj() + 0j


def szego_functional(
    measure: MeasureSpec, m: int, grid_size: int = DEFAULT_GRID
) -> float:
    """Trapezoid value of integral (1-cos theta)^m log(1/w) dtheta/2pi.

    On a uniform periodic grid the composite trapezoid rule is the plain mean
    of the samples.  A Bernstein-Szego prefix is sampled on grid_size nodes,
    which makes this the grid oracle for szego_functional_series; the series
    gives its exact value.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if measure.kind == "bernstein_szego":
        log_inv_w = -_log_weight(measure.prefix, grid_size)
    else:
        w = np.asarray(measure.weights, dtype=np.float64)
        if np.any(w <= 0.0):
            raise WeightPositivityError("nonpositive weight sample")
        log_inv_w = -np.log(w)
    weight_factor = (1.0 - np.cos(theta_grid(len(log_inv_w)))) ** m
    return float(np.mean(weight_factor * log_inv_w))


def szego_functional_series(prefix, m_max: int, checkpoints) -> dict:
    """Exact K_m at every checkpoint N and every m <= m_max, from one pass.

    K_m of the Bernstein-Szego truncation a_0..a_N pairs the Fourier
    coefficients of (1-cos theta)^m with those of log(1/w): the mass
    -sum log(1-|a_n|^2) at frequency 0 and the Taylor coefficients of
    log phi*_{N+1} at frequencies 1..m.  Those come from the Schur form of
    the Szego recursion, run on power series truncated at degree m_max:

        b_0 = z,   b_{n+1} = z (b_n - conj a_n) / (1 - a_n b_n),
        log phi*_{N+1} = sum_{n <= N} log(1 - a_n b_n).

    b_n = z phi_n / phi*_n is a finite Blaschke product, so its Taylor
    coefficients stay bounded by 1 and nothing grows, unlike the phi*
    coefficients themselves.  A degree-k coefficient never depends on
    higher ones, so every m below m_max is an exact truncation of the same
    pass.  Checkpoints past the end of the prefix read it as zero-extended.

    The recursion runs for every index n at once.  Coefficient k+1 of
    b_{n+1} reads only a_n and the coefficients <= k of b_n, and b_n(0) = 0,
    so b_n mod z^{M+1} (M = m_max) depends on a_{n-M}..a_{n-1} alone: M
    Schur steps from b = 0 over those entries give it, step s forming only
    the coefficients <= s+1 that later steps read.  The entries before a_0
    are M-1 zeros and a_{-1} = -1, since one step from b = 0 with a = -1
    gives b_0 = z.  The steps run on numpy arrays of (re, im) float pairs
    with Python's complex formulas written out, the mass takes math.log1p
    per entry and the running sums are np.cumsum, which adds in index
    order; so every value equals, bit for bit, the scalar loop that takes
    one step per n.  numpy's complex128 products and np.log1p would not:
    they differ from Python's in the last bit of many entries.  The indices
    run in blocks of _BLOCK, carrying the mass and the log coefficients
    across, so the work arrays hold O(M _BLOCK) floats for any N.  A block
    costs about M^3/6 complex array products: on a 2-core Xeon 0.7 ms at
    M = 3, N = 2000, where the scalar loop took 12 ms, but 1.3 ms against
    0.4 ms at M = 8, N = 10.
    Returns {(m, N): K_m} for m = 0..m_max and N in checkpoints.
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    if m_max > MAX_SERIES_ORDER:
        raise ValueError(
            f"m_max must be <= {MAX_SERIES_ORDER}, past which C(2m, m)/2^m "
            f"overflows a float; got {m_max}"
        )
    prefix = VerblunskySequence(prefix)
    wanted = sorted({int(N) for N in checkpoints})
    if wanted and wanted[0] < 0:
        raise ValueError("checkpoints must be >= 0")
    M = m_max
    h = [[float(hm_closed_form(m, ell)) for ell in range(m + 1)] for m in range(M + 1)]
    sums = [0.0] * (M + 1)  # the mass, then Re log phi*_n at degrees 1..M
    out = {}

    def record(N, sums):
        for m in range(M + 1):
            value = h[m][0] * sums[0]
            for ell in range(1, m + 1):
                value += 2.0 * h[m][ell] * sums[ell]
            out[(m, N)] = value

    pending = iter(wanted)
    nxt = next(pending, None)
    n_end = min(len(prefix), wanted[-1] + 1) if wanted else 0
    for n0 in range(0, n_end, _BLOCK):
        n1 = min(n0 + _BLOCK, n_end)
        B = n1 - n0
        # entries n0-M..n1-1: index n's window a_{n-M}..a_{n-1} starts at n-n0
        e = zero_extended(prefix, n0 - M, n1)
        if n0 < M:
            e[M - 1 - n0] = -1.0
        im, neg_re, neg_im = e.imag.copy(), -e.real, -e.imag

        def minus_a_times(s, b):
            # d_j = -a b_j for the window entries s..s+B-1
            ar, ai = neg_re[s : s + B], neg_im[s : s + B]
            return [(ar * br - ai * bi, ar * bi + ai * br) for br, bi in b]

        b = []  # (re, im) arrays of the coefficients 1, 2, ... of b
        for s in range(M):
            d = minus_a_times(s, b)
            # q = (b - conj a) / d to degree s; b after the step is z q
            q = [(neg_re[s : s + B], im[s : s + B])]
            for k in range(1, s + 1):
                acc_re, acc_im = b[k - 1]
                for j in range(1, k + 1):
                    (dr, di), (qr, qi) = d[j - 1], q[k - j]
                    acc_re = acc_re - (dr * qr - di * qi)
                    acc_im = acc_im - (dr * qi + di * qr)
                q.append((acc_re, acc_im))
            b = q
        # d = 1 - a_n b_n has constant term 1, so neither its log nor the
        # division by it needs a reciprocal
        d = minus_a_times(M, b)
        lg = []  # coefficients 1..M of log d
        for k in range(1, M + 1):
            acc_re, acc_im = d[k - 1]
            for j in range(1, k):
                # as Python's float * complex, but for the sign of a zero, which no output shows
                x = j / k
                pr, pi = x * lg[j - 1][0], x * lg[j - 1][1]
                dr, di = d[k - j - 1]
                acc_re = acc_re - (pr * dr - pi * di)
                acc_im = acc_im - (pr * di + pi * dr)
            lg.append((acc_re, acc_im))
        logs = np.fromiter(map(math.log1p, (-abs2(e[M:])).tolist()), float, B)
        # the carried sum goes first, so each sum adds in the loop's order
        terms = [-logs] + [lg_re for lg_re, _ in lg]
        runs = [np.cumsum(np.concatenate(([c], x))) for c, x in zip(sums, terms)]
        while nxt is not None and nxt < n1:
            record(nxt, [float(r[nxt - n0 + 1]) for r in runs])
            nxt = next(pending, None)
        sums = [float(r[-1]) for r in runs]
    while nxt is not None:
        record(nxt, sums)
        nxt = next(pending, None)
    return out
