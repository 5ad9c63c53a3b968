"""The four workloads: inputs made from a seed, the timed ops, and their checks.

Each `build_<workload>(seed, workdir)` returns the ops of one round, and
`warmup_<workload>(seed, workdir)` one untimed, unchecked call.  An op's
`run` is the timed call into the program (its CLI `opuckit.cli.main(argv)`
in process, or its public functions).  Its output is what `run` returned,
plus the text of `output_file` when the op writes one; `check` compares the
output with references from `refs` and returns the names of the checks that
failed.  A check named in FAULTS is a known fault of the program, expected
to fail on exactly the ops that list it in `known_faults`; any other failed
check, or a named one on an op that does not list it, means the program
printed something wrong.

The check functions (`check_*`) take plain outputs, so the tests can hand
them corrupted ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import opuckit.cli
import opuckit.normal_form
import opuckit.shift_algebra
from opuckit.rationals import GaussianRational
from opuckit.shift_algebra import ShiftPolynomial

import refs

# Known faults, kept as failed ops so that the change that mends one moves a count.
FAULTS = {
    "kproxy_quadrature": "sweep: K_proxy misses the 40-digit series value by more than "
    "1e-8*max(1,|K_ref|) on some row of the op",
    "gn_ratio_repr": "probe: absorb probe --r writes np.float64(...) into the ratio column",
    "moments_unresolved": "probe: measure moments returns c_0 far from 1 with no warning",
}

# Fixed tolerances.
K_RTOL = 1e-8  # K_proxy against the series value, relative to max(1, |K_ref|)
# A coarse bound on the same miss, under its own check name, so that a gross
# error still counts on the ops that fail K_RTOL today: at most 1.5e-4 on any
# row of seeds 0..39, 1.1e-5 on the fixed families.
K_GROSS_RTOL = 1e-3
FLOAT_RTOL = 1e-9  # energies, tails, probe columns and weights against numpy sums
TAIL_BOUND_RTOL = 1e-12  # slack of tail >= sum |a|^(2m+2)/(m+1) for round-off
MASS_TOL = 1e-9  # |c_0 - 1|
ALPHA_TOL = 1e-8  # Levinson coefficients against the prefix


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    output_file: object = None
    known_faults: frozenset = frozenset()  # names in FAULTS this op fails today

    def unexpected(self, failed) -> list:
        """The failed checks that are not this op's known faults."""
        return [name for name in failed if name not in self.known_faults]

    def output(self, result):
        if self.output_file is None:
            return result
        with open(self.output_file) as fh:
            return (*result, fh.read())


def cli(*argv) -> tuple:
    """Run the program's CLI in process; return (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = opuckit.cli.main([str(a) for a in argv])
    return code, out.getvalue()


def _cli_op(argv):
    return lambda: cli(*argv)


def _stdout_check(check_text):
    """Check of a CLI op's output (exit code, stdout)."""
    return lambda out: [f"exit code {out[0]}"] if out[0] else check_text(out[1])


def _file_check(check_text):
    """Check of a CLI op's output (exit code, stdout, text of the file it wrote)."""
    return lambda out: [f"exit code {out[0]}"] if out[0] else check_text(out[2])


def _close(x: float, ref: float, rtol: float = FLOAT_RTOL) -> bool:
    return abs(x - ref) <= rtol * max(abs(ref), 1e-300)


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(workload.encode())])


def _write_values(path, values) -> None:
    with open(path, "w") as fh:
        json.dump([[v.real, v.imag] for v in values], fh)


def _power(c: float, gamma: float, beta: float, length: int) -> np.ndarray:
    n = np.arange(length)
    return c * np.exp(1j * beta * n) / (n + 1.0) ** gamma


def _random_prefix(rng: np.random.Generator, cap: float, length: int) -> np.ndarray:
    """Uniform on the disc of radius cap, one (radius, angle) draw per index."""
    u = rng.uniform(size=(length, 2))
    return cap * np.sqrt(u[:, 0]) * np.exp(2j * np.pi * u[:, 1])


# -- sweep -------------------------------------------------------------------

SWEEP_M = (1, 2, 3)
SWEEP_N = (1000, 1500, 2000)
SWEEP_GRID = 8192
# The only (family, m) whose K_proxy meets K_RTOL at this grid on every N.
SWEEP_K_RESOLVED = {("power(0.9, 0.5)", 2), ("power(0.9, 0.5)", 3)}


def check_sweep_csv(text: str, m: int, expected: dict) -> list:
    """Rows of `sumrule report` against the series K, numpy energies and the tail sums."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# opuckit") or lines[1] != (
        "m,N,K_proxy,Q,tail,power_energy,residual"
    ):
        return ["csv header"]
    rows = [line.split(",") for line in lines[2:]]
    if [(int(r[0]), int(r[1])) for r in rows] != [(m, N) for N in SWEEP_N]:
        return ["csv rows"]
    failed = []
    for row in rows:
        N = int(row[1])
        K, Q, tail, power, residual = (float(x) for x in row[2:])
        ref = expected[(m, N)]
        miss = abs(K - ref["K"]) / max(1.0, abs(ref["K"]))
        if miss > K_RTOL:
            failed.append("kproxy_quadrature")
        if miss > K_GROSS_RTOL:
            failed.append(f"K_proxy gross miss at N={N}")
        if not _close(Q, ref["Q"]):
            failed.append(f"Q at N={N}")
        if not _close(tail, ref["tail"]):
            failed.append(f"tail at N={N}")
        if not _close(power, ref["power"]):
            failed.append(f"power_energy at N={N}")
        if residual != K - Q - tail:
            failed.append(f"residual at N={N}")
        if tail < ref["power"] / (m + 1) * (1.0 - TAIL_BOUND_RTOL):
            failed.append(f"tail bound at N={N}")
    return sorted(set(failed))


def sweep_expected(values) -> dict:
    """Reference columns for every (m, N) of the sweep."""
    K = refs.k_series(values[: max(SWEEP_N) + 1], max(SWEEP_M), SWEEP_N)
    out = {}
    for m in SWEEP_M:
        for N in SWEEP_N:
            prefix = values[: N + 1]
            out[(m, N)] = {
                "K": K[(m, N)],
                "Q": refs.diff_energy(prefix, m, N) / 2.0**m,
                "tail": refs.tail_direct(prefix, m),
                "power": refs.power_energy(prefix, m, N),
            }
    return out


def sweep_known_faults(label: str, m: int) -> frozenset:
    return frozenset() if (label, m) in SWEEP_K_RESOLVED else frozenset({"kproxy_quadrature"})


def build_sweep(seed: int, workdir) -> list:
    """Power families on both sides of gamma_crit = 1/(2m+2), a rotated family, two random prefixes.

    The seed draws the random prefixes.  Their K_proxy misses the tolerance
    on every seed (by at least 500 times on each of seeds 0..39), as do the
    fixed families but power(0.9, 0.5) at m = 2, 3; so every seed fails the
    same ops, and those ops list the fault.
    """
    rng = _rng(seed, "sweep")
    length = max(SWEEP_N) + 1
    families = [
        ("power(0.9, 0.1)", ["--family", "power", "--c", 0.9, "--gamma", 0.1], _power(0.9, 0.1, 0.0, length)),
        ("power(0.9, 0.5)", ["--family", "power", "--c", 0.9, "--gamma", 0.5], _power(0.9, 0.5, 0.0, length)),
        (
            "rotated(0.7, 0.3, 1.0)",
            ["--family", "rotated", "--c", 0.7, "--gamma", 0.3, "--beta", 1.0],
            _power(0.7, 0.3, 1.0, length),
        ),
    ]
    for i in range(2):
        values = _random_prefix(rng, 0.5, length)
        path = workdir / f"sweep-random{i}.json"
        _write_values(path, values)
        families.append((f"random{i}(cap 0.5)", ["--family", "explicit", "--values", path], values))
    n_list = ",".join(str(N) for N in SWEEP_N)
    ops = []
    for label, args, values in families:
        expected = sweep_expected(values)
        for m in SWEEP_M:
            out = workdir / f"sweep-{len(ops)}.csv"
            argv = ["sumrule", "report", *args, "--m", m, "--n-list", n_list, "--grid", SWEEP_GRID, "--out", out]
            check = _file_check(lambda t, m=m, e=expected: check_sweep_csv(t, m, e))
            ops.append(Op(f"sumrule report {label} m={m}", _cli_op(argv), check, out,
                          sweep_known_faults(label, m)))
    return ops


def warmup_sweep(seed: int, workdir):
    path = workdir / "sweep-random.json"
    _write_values(path, _random_prefix(_rng(seed, "sweep"), 0.5, max(SWEEP_N) + 1))
    n_list = ",".join(str(N) for N in SWEEP_N)
    return _cli_op(["sumrule", "report", "--family", "explicit", "--values", path, "--m", 1,
                    "--n-list", n_list, "--grid", SWEEP_GRID, "--out", workdir / "sweep.csv"])


# -- certify ------------------------------------------------------------------

CERTIFY_M_MAX = 12
IDENTITY_M_MAX = 8
EXPORT_M = (6, 9, 12)
POINTS_PER_BLOCK = 3


def check_certify_stdout(text: str) -> list:
    expected = [
        f"m={m:2d} dim={math.comb(m + 1, 2):3d} certified" for m in range(1, CERTIFY_M_MAX + 1)
    ]
    return [] if text.splitlines() == expected else ["certify output"]


def check_identity_stdout(text: str) -> list:
    expected = [f"m={m:2d} Gram identity exact" for m in range(1, IDENTITY_M_MAX + 1)]
    return [] if text.splitlines() == expected else ["identity output"]


def check_gram_block(text: str, m: int, points) -> list:
    """W^T M W = P_m at exact rational points, and PSD by the benchmark's own elimination."""
    block = json.loads(text)
    dim = math.comb(m + 1, 2)
    entries = [[Fraction(c) for c in row] for row in block["entries"]]
    if block["m"] != m or block["order"] != "grlex" or len(entries) != dim or any(
        len(row) != dim for row in entries
    ):
        return ["gram block shape"]
    failed = []
    for z in points:
        u, v, t = z[2], -z[0] - z[1] - z[2], -z[1]
        if refs.gram_form_value(m, entries, z) != refs.pm_value(m, u, v, t):
            failed.append("gram identity at a point")
    if not refs.bareiss_psd(entries):
        failed.append("gram block not PSD")
    return sorted(set(failed))


def rational_points(rng: np.random.Generator, count: int) -> list:
    """Points Z with (u-t)(v-t) = -(Z2+Z3)(Z1+Z3) != 0."""
    points = []
    while len(points) < count:
        num = rng.integers(-9, 10, size=3)
        den = rng.integers(1, 10, size=3)
        z = tuple(Fraction(int(a), int(b)) for a, b in zip(num, den))
        if z[1] + z[2] != 0 and z[0] + z[2] != 0:
            points.append(z)
    return points


def build_certify(seed: int, workdir) -> list:
    rng = _rng(seed, "certify")
    ops = [
        Op(
            f"gram certify --m-max {CERTIFY_M_MAX}",
            _cli_op(["gram", "certify", "--m-max", CERTIFY_M_MAX]),
            _stdout_check(check_certify_stdout),
        ),
        Op(
            f"gram identity --m-max {IDENTITY_M_MAX}",
            _cli_op(["gram", "identity", "--m-max", IDENTITY_M_MAX]),
            _stdout_check(check_identity_stdout),
        ),
    ]
    for m in EXPORT_M:
        path, points = workdir / f"gram-{m}.json", rational_points(rng, POINTS_PER_BLOCK)
        ops.append(Op(f"gram export --m {m}", _cli_op(["gram", "export", "--m", m, "--out", path]),
                      _file_check(lambda t, m=m, p=points: check_gram_block(t, m, p)), path))
    return ops


def warmup_certify(seed: int, workdir):
    return _cli_op(["gram", "export", "--m", 4, "--out", workdir / "gram.json"])


# -- normalform -----------------------------------------------------------------

NF_CLASSES = [(k, q) for k in (1, 2, 3) for q in (1, 2, 3, 4)]
NF_PIECES = 1  # each member is one Laurent monomial times q generators
NF_REPEATS = 10
NF_WINDOW = range(0, 11)
NF_SEQ_LEN = 16
# The shape of every member (its exponents and generator slots) is drawn from
# this fixed stream, so that every seed does the same amount of algebra; the
# run's seed draws the coefficients and the exact sequence.
NF_SHAPE_SEED = 20240611


def _nonzero(rng: random.Random, span: int) -> int:
    return rng.choice((-1, 1)) * rng.randint(1, span)


def member_pieces(shape: random.Random, values: random.Random, k: int, q: int, pieces: int) -> list:
    """(generator counts per slot, Laurent exponents, coefficient) of each piece of a member."""
    out = []
    for _ in range(pieces):
        exps = tuple(shape.randint(-2, 2) for _ in range(2 * k))
        gens = [0] * (2 * k)
        for _ in range(q):
            gens[shape.randrange(2 * k)] += 1
        coeff = (
            Fraction(_nonzero(values, 4), shape.randint(1, 4)),
            Fraction(_nonzero(values, 4), shape.randint(1, 4)),
        )
        out.append((tuple(gens), exps, coeff))
    return out


def member_polynomial(k: int, pieces) -> ShiftPolynomial:
    """The member through the program's public ShiftPolynomial API."""
    one = ShiftPolynomial.one(k)
    total = ShiftPolynomial.zero(k)
    for gens, exps, coeff in pieces:
        term = ShiftPolynomial.monomial(k, exps, GaussianRational(*coeff))
        for slot, g in enumerate(gens):
            e = [0] * (2 * k)
            e[slot] = 1
            term = term * (ShiftPolynomial.monomial(k, e) - one) ** g
        total = total + term
    return total


def own_monomials(monomials) -> list:
    """Program monomials as (orders, shifts, (re, im)) over the 2k slots."""
    out = []
    for mono in monomials:
        factors = mono.holo_factors + mono.anti_factors
        out.append(
            (tuple(a for a, _ in factors), tuple(s for _, s in factors), (mono.coeff.re, mono.coeff.im))
        )
    return out


def check_normal_form(k: int, q: int, pieces, iseq, result) -> list:
    """Exact deviation 0, order-q terms, re-expansion to P, and pointwise equality."""
    monomials, deviation = result
    mine = own_monomials(monomials)
    failed = []
    if deviation != 0.0:
        failed.append("deviation not 0")
    if any(sum(orders) != q for orders, _, _ in mine):
        failed.append("term order not q")
    P = refs.expand_monomials(k, pieces)
    if refs.expand_monomials(k, mine) != P:
        failed.append("terms do not expand to P")
    for n in NF_WINDOW:
        if refs.coefficient_map_scaled(k, P, iseq, n) != refs.monomials_scaled(k, mine, iseq, n):
            failed.append("coefficient map differs from the monomials")
            break
    return failed


def build_normalform(seed: int, workdir=None) -> list:
    shape = random.Random(NF_SHAPE_SEED)
    values = random.Random(f"normalform:{seed}")
    ops = []
    for k, q in NF_CLASSES:
        for _ in range(NF_REPEATS):
            pieces = member_pieces(shape, values, k, q, NF_PIECES)
            ops.append(_normalform_op(f"normal form #{len(ops)} k={k} q={q}", k, q, pieces, values))
    return ops


def _normalform_op(name, k, q, pieces, values: random.Random) -> Op:
    P = member_polynomial(k, pieces)
    # entries (re + i im)/10; the checks use the Gaussian integers re + i im
    iseq = [(_nonzero(values, 6), _nonzero(values, 6)) for _ in range(NF_SEQ_LEN)]
    seq = [GaussianRational(Fraction(re, 10), Fraction(im, 10)) for re, im in iseq]

    def run():
        decomposition = opuckit.shift_algebra.ideal_power_decompose(P, q)
        monomials = opuckit.normal_form.from_ideal_expansion(decomposition)
        deviation = opuckit.normal_form.pointwise_equality_check(P, q, seq, NF_WINDOW)
        return monomials, deviation

    return Op(name, run, lambda r: check_normal_form(k, q, pieces, iseq, r))


def warmup_normalform(seed: int, workdir=None):
    return build_normalform(seed)[NF_REPEATS * 5].run


# -- probe -------------------------------------------------------------------------

PROBE_N = (250, 500, 1000, 2000)
PROBE_EPSILON = 0.1
PROBE_MK = ((2, 2), (3, 2), (3, 3))
PROBE_PREFIXES = 8
PROBE_PREFIX_LEN = 10
# At this cap a grid of 4096 resolves every weight (|c_0 - 1| < 1e-15 on 3000
# draws); from cap 0.4 some draws already miss c_0 = 1, the unresolved-moments fault.
PROBE_PREFIX_CAP = 0.3
PROBE_GRID = 4096
PROBE_KMAX = 12
WEIGHT_NODES = 64
# Inputs on which `measure moments` is known to miss c_0 = 1: (c, gamma, n, grid).
UNRESOLVED_MOMENTS = ((0.9, 1.0, 200, 8192), (0.9, 0.3, 2000, 4096))
UNRESOLVED_KMAX = 8


def _probe_csv_rows(text: str):
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# opuckit") or lines[1] != (
        "family,m,param,N,ratio,lhs,rhs,passed"
    ):
        return None
    return [line.split(",") for line in lines[2:]]


def check_absorption_csv(text: str, m: int, k: int, expected) -> list:
    rows = _probe_csv_rows(text)
    if rows is None or len(rows) != len(expected):
        return ["csv shape"]
    failed = []
    for row, (N, lhs, rhs, passed) in zip(rows, expected):
        if row[1:4] != [str(m), f"k={k}", str(N)] or row[4] != "":
            failed.append("csv fields")
            continue
        got_lhs, got_rhs = float(row[5]), float(row[6])
        if not (_close(got_lhs, lhs) and _close(got_rhs, rhs)):
            failed.append(f"lhs/rhs at N={N}")
        # where lhs and rhs agree to the tolerance, rounding decides `passed`
        if row[7] != str(got_lhs <= got_rhs) or (row[7] != str(passed) and not _close(lhs, rhs)):
            failed.append(f"passed at N={N}")
    return sorted(set(failed))


def check_ratio_csv(text: str, m: int, r: int, expected) -> list:
    rows = _probe_csv_rows(text)
    if rows is None or len(rows) != len(expected):
        return ["csv shape"]
    failed = []
    for row, (N, ratio) in zip(rows, expected):
        if row[1:4] != [str(m), f"r={r}", str(N)]:
            failed.append("csv fields")
            continue
        text_ratio = row[4]
        try:
            got = float(text_ratio)
        except ValueError:
            failed.append("gn_ratio_repr")
            # still hold the value inside np.float64(...) to the formula
            if not (text_ratio.startswith("np.float64(") and text_ratio.endswith(")")):
                failed.append(f"ratio unreadable at N={N}")
                continue
            got = float(text_ratio[len("np.float64("):-1])
        if not _close(got, ratio):
            failed.append(f"ratio at N={N}")
    return sorted(set(failed))


def check_weights(text: str, alphas, nodes) -> list:
    spec = json.loads(text)
    w = np.asarray(spec.get("weights", []), dtype=np.float64)
    if spec.get("kind") != "sampled" or spec.get("grid") != len(w) or len(w) < 16:
        return ["weight json"]
    failed = []
    if abs(float(np.mean(w)) - 1.0) > MASS_TOL:
        failed.append("weight mass")
    theta = 2.0 * np.pi * np.asarray(nodes) / len(w)
    ref = refs.bs_weight_at(alphas, theta)
    if np.any(np.abs(w[nodes] - ref) > FLOAT_RTOL * ref):
        failed.append("weight values")
    return failed


def check_moments(text: str, alphas, kmax: int = PROBE_KMAX) -> list:
    """Moments of a positive measure, c_0 = 1, then Levinson coefficients against the prefix.

    Trapezoid moments of a positive weight have c_0 > 0 real and |c_k| <= c_0
    whether or not the grid resolves the weight; an output without them is
    wrong in a way the named fault does not cover.
    """
    c = [complex(re, im) for re, im in json.loads(text)]
    scale = abs(c[0]) if c else 0.0
    if len(c) != kmax + 1 or not (c[0].real > 0 and abs(c[0].imag) <= MASS_TOL * scale
                                  and all(abs(x) <= c[0].real * (1 + MASS_TOL) for x in c)):
        return ["moments not of a positive measure"]
    if abs(c[0] - 1.0) > MASS_TOL:
        # the Levinson test presumes a probability measure; it is not run here
        return ["moments_unresolved"]
    got = refs.levinson(c)
    want = list(alphas[: len(got)]) + [0j] * max(0, len(got) - len(alphas))
    if any(abs(g - a) > ALPHA_TOL for g, a in zip(got, want)):
        return ["levinson coefficients"]
    return []


def build_probe(seed: int, workdir) -> list:
    rng = _rng(seed, "probe")
    n_list = ",".join(str(N) for N in PROBE_N)
    ops = []
    for m, k in PROBE_MK:
        for kind in ("power", "rotated"):
            c, gamma = float(rng.uniform(0.5, 0.9)), float(rng.uniform(0.3, 0.7))
            beta = float(rng.uniform(0.5, 2.5)) if kind == "rotated" else 0.0
            values = _power(c, gamma, beta, max(PROBE_N) + 2 * m + 3)
            expected = refs.absorption_rows(values, m, k, PROBE_EPSILON, PROBE_N)
            family = ["--family", kind, "--c", repr(c), "--gamma", repr(gamma)]
            if kind == "rotated":
                family += ["--beta", repr(beta)]
            out = workdir / f"absorb-{len(ops)}.csv"
            argv = ["absorb", "probe", *family, "--m", m, "--k", k, "--epsilon", PROBE_EPSILON,
                    "--n-list", n_list, "--out", out]
            ops.append(Op(f"absorb probe {kind} m={m} k={k}", _cli_op(argv),
                          _file_check(lambda t, m=m, k=k, e=expected: check_absorption_csv(t, m, k, e)), out))
    # GN ratio probes on a fixed family: the ratio column fault shows on any input
    for r in (1, 2):
        m = 3
        values = _power(0.8, 0.3, 0.0, max(PROBE_N) + 2 * m + 1)
        expected = [(N, refs.gn_ratio(values, m, r, N)) for N in PROBE_N]
        out = workdir / f"ratio-{r}.csv"
        argv = ["absorb", "probe", "--family", "power", "--c", 0.8, "--gamma", 0.3, "--m", m, "--r", r,
                "--n-list", n_list, "--out", out]
        ops.append(Op(f"absorb probe --r {r}", _cli_op(argv),
                      _file_check(lambda t, m=m, r=r, e=expected: check_ratio_csv(t, m, r, e)), out,
                      frozenset({"gn_ratio_repr"})))
    for i in range(PROBE_PREFIXES):
        alphas = _random_prefix(rng, PROBE_PREFIX_CAP, PROBE_PREFIX_LEN)
        path = workdir / f"prefix-{i}.json"
        _write_values(path, alphas)
        family = ["--family", "explicit", "--values", path, "--n", PROBE_PREFIX_LEN - 1]
        nodes = np.sort(rng.choice(PROBE_GRID, size=WEIGHT_NODES, replace=False))
        out = workdir / f"weight-{i}.json"
        ops.append(Op(f"measure weight prefix {i}",
                      _cli_op(["measure", "weight", *family, "--grid", PROBE_GRID, "--out", out]),
                      _file_check(lambda t, a=alphas, nd=nodes: check_weights(t, a, nd)), out))
        ops.append(Op(f"measure moments prefix {i}",
                      _cli_op(["measure", "moments", *family, "--grid", PROBE_GRID, "--kmax", PROBE_KMAX]),
                      _stdout_check(lambda t, a=alphas: check_moments(t, a))))
    for c, gamma, n, grid in UNRESOLVED_MOMENTS:
        alphas = _power(c, gamma, 0.0, n + 1)
        argv = ["measure", "moments", "--family", "power", "--c", c, "--gamma", gamma, "--n", n,
                "--grid", grid, "--kmax", UNRESOLVED_KMAX]
        ops.append(Op(f"measure moments power({c}, {gamma}) n={n} grid={grid}", _cli_op(argv),
                      _stdout_check(lambda t, a=alphas: check_moments(t, a, UNRESOLVED_KMAX)),
                      known_faults=frozenset({"moments_unresolved"})))
    return ops


def warmup_probe(seed: int, workdir):
    return build_probe(seed, workdir)[0].run


# -- calibration -------------------------------------------------------------------
# Fixed work of the same kind as each workload's ops, in the benchmark's own
# code, so no change to the program changes its time.  run.py samples it
# every 0.1 s inside the ops and scales each op's wall time by the samples
# around it: a slow spell of the machine slows both alike.


def _kernel_like(steps: int, grid: int):
    """The transfer recursion on a grid, as numpy runs it, without renormalising."""
    z = np.exp(2j * np.pi * np.arange(grid) / grid)
    a = 0.3 + 0.2j

    def work():
        phi, phistar = np.ones_like(z), np.ones_like(z)
        for _ in range(steps):
            phi, phistar = z * phi - np.conj(a) * phistar, phistar - a * z * phi

    return work


def _series_loop(count: int):
    """Per-entry float series sums, as the log tail does them."""
    def work():
        total = 0.0
        for i in range(count):
            x = (i % 50) / 100.0
            term, j = x * x, 2
            while term > 1e-12 * (total + 1.0):
                total += term / j
                term *= x
                j += 1

    return work


def _fraction_elimination(n: int):
    """Gaussian elimination of the n x n Hilbert matrix over Fraction."""
    hilbert = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]

    def work():
        a = [row[:] for row in hilbert]
        for k in range(n):
            for i in range(k + 1, n):
                f = a[i][k] / a[k][k]
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]

    return work


def _mixed():
    """An integer loop, in-place numpy updates and Fraction sums into a dict."""
    z = np.exp(1j * np.linspace(0.0, 6.0, 4096))
    p = np.ones_like(z)

    def work():
        total = 0
        for i in range(20_000):
            total += i * i % 7
        for _ in range(40):
            np.multiply(z, p, out=p)
            np.add(p, 0.5j, out=p)
        acc, table = Fraction(0), {}
        for i in range(1, 600):
            acc += Fraction(1, i % 97 + 1)
            table[i, i % 13] = acc

    return work


def _complex_loop(count: int):
    """Per-index complex differences and products, as the monomial sums do them."""
    vals = [complex(0.3 * math.cos(i), 0.3 * math.sin(i)) for i in range(64)]

    def work():
        total = 0j
        for i in range(count):
            d = vals[(i + 1) % 64] - vals[i % 64]
            total += d * d.conjugate() * vals[i * 3 % 64]

    return work


def _both(first, second):
    def work():
        first()
        second()

    return work


# Median calibration time of each workload on the machine the README figures
# come from (x86_64, 2 vCPUs, Python 3.11.7, numpy 2.4.6): the reference speed.
CALIBRATION_REF_S = {"sweep": 0.0042, "certify": 0.0046, "normalform": 0.0047, "probe": 0.0036}


def calibration_sweep():
    return _both(_kernel_like(80, SWEEP_GRID), _series_loop(300))


def calibration_certify():
    return _fraction_elimination(14)


def calibration_normalform():
    # Gaussian-rational products alone tracked this workload worse: 33%
    # spread of run_s over ten runs, against 5-6% for this mix
    return _mixed()


def calibration_probe():
    return _both(_complex_loop(8000), _kernel_like(40, PROBE_GRID))


WORKLOADS = {
    "sweep": (build_sweep, warmup_sweep, calibration_sweep),
    "certify": (build_certify, warmup_certify, calibration_certify),
    "normalform": (build_normalform, warmup_normalform, calibration_normalform),
    "probe": (build_probe, warmup_probe, calibration_probe),
}
