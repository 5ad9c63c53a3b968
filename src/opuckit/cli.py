"""Batch driver: family generation, sum-rule sweeps, certification, probes.

Subcommands: generate, sumrule, gram, absorb, measure, verify.
A JSON config (--config) supplies flag defaults: a flat key applies to
every subcommand with a flag of that name, and a key naming a subcommand
holds an object of defaults for that subcommand alone.
Sweep output is CSV plus a JSON sidecar of the run configuration; runs are
deterministic (rows sorted before emit, byte-identical output modulo the
version header line).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from . import absorption, measures, psd_quartic, sum_rule
from .families import FamilySpec
from .normal_form import NormalFormMonomial
from .suites import run_suites

VERSION_HEADER = f"# opuckit {__version__}"

# The largest order each gram action accepts; a larger one exits 2 at once.
# On a 2-core Xeon, `certify --m-max 20` takes 140 s and exact LDL^T time
# grows about 4x every two orders; `identity --m-max 48` takes 119 s and
# `export --m 48` 8 s with 107 MB of JSON, and both grow polynomially.
GRAM_MAX_ORDER = {"certify": 20, "identity": 48, "export": 48}


@dataclass
class RunConfig:
    """Sweep configuration; defaults are the documented desk-scale settings."""

    grid_size: int = 4096
    m_list: tuple = (1,)
    n_list: tuple = (250, 500, 1000, 2000)
    seed: int = 0
    out: str | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def classify_k_trend(values) -> str:
    """Trend of K_proxy along an increasing N list.

    "bounded" when the max/min ratio of the last three values is at most
    1.2; "divergent" when last/first is at least 2; otherwise
    "inconclusive".  The thresholds are artifact conventions for the
    declared N lists, not constants from any estimate.
    """
    vals = [float(v) for v in values]
    if len(vals) < 3:
        return "inconclusive"
    tail = vals[-3:]
    lo, hi = min(tail), max(tail)
    if lo > 0 and hi / lo <= 1.2:
        return "bounded"
    if vals[0] > 0 and vals[-1] / vals[0] >= 2.0:
        return "divergent"
    return "inconclusive"


# -- family plumbing ---------------------------------------------------------


def _add_family_args(p: argparse.ArgumentParser):
    p.add_argument("--family", choices=("power", "rotated", "random", "constant", "explicit"))
    p.add_argument("--c", type=float, default=0.0, help="amplitude c (real)")
    p.add_argument("--c-imag", type=float, default=0.0, help="imaginary part of c")
    p.add_argument("--gamma", type=float, default=0.0, help="decay exponent")
    p.add_argument("--beta", type=float, default=0.0, help="rotation step")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=float, default=0.5, help="modulus cap for random families")
    p.add_argument("--values", help="JSON file with explicit [re, im] entries")


def _family_from_args(args) -> FamilySpec:
    if not args.family:
        raise ValueError("a --family is required")
    kw = {}
    if args.family in ("power", "rotated", "constant"):
        kw["c"] = complex(args.c, args.c_imag)
    if args.family in ("power", "rotated"):
        kw["gamma"] = args.gamma
    if args.family == "rotated":
        kw["beta"] = args.beta
    if args.family == "random":
        kw["seed"] = args.seed
        kw["modulus_cap"] = args.cap
    if args.family == "explicit":
        if not args.values:
            raise ValueError("explicit family needs --values FILE")
        with open(args.values) as fh:
            kw["values"] = tuple(complex(re, im) for re, im in json.load(fh))
    return FamilySpec(kind=args.family, **kw)


def _parse_int_list(text) -> tuple:
    if isinstance(text, (list, tuple)):
        return tuple(int(x) for x in text)
    return tuple(int(x) for x in str(text).split(","))


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommand implementations ----------------------------------------------


def cmd_generate(args) -> int:
    family = _family_from_args(args)
    seq = family.generate(args.n)
    _emit(seq.to_json() + "\n", args.out)
    return 0


def cmd_sumrule(args) -> int:
    family = _family_from_args(args)
    config = RunConfig(
        grid_size=args.grid,
        m_list=_parse_int_list(args.m),
        n_list=_parse_int_list(args.n_list),
        seed=args.seed,
        out=args.out,
    )
    # one sequence for every N: each row describes a prefix of it
    seq = family.generate(max(config.n_list))
    reports = sum_rule.decomposition_sweep(seq, config.m_list, config.n_list)
    lines = [VERSION_HEADER, sum_rule.DecompositionReport.CSV_HEADER]
    lines += [rep.csv_row() for rep in reports]
    _emit("\n".join(lines) + "\n", args.out)
    if args.out:
        sidecar = {"family": family.to_dict(), **json.loads(config.to_json())}
        # one line: without indent= json runs its C encoder, with it the Python one
        with open(args.out + ".config.json", "w") as fh:
            fh.write(json.dumps(sidecar, sort_keys=True) + "\n")
    return 0


def cmd_gram(args) -> int:
    if args.action in ("certify", "identity") and args.m_max < 1:
        raise ValueError(f"--m-max must be >= 1, got {args.m_max}")
    flag, order = ("--m", args.m) if args.action == "export" else ("--m-max", args.m_max)
    if order > GRAM_MAX_ORDER[args.action]:
        raise ValueError(
            f"{flag} must be <= {GRAM_MAX_ORDER[args.action]} for gram {args.action}, got {order}"
        )
    if args.action == "certify":
        ok = True
        for m in range(1, args.m_max + 1):
            cert = psd_quartic.psd_certificate(psd_quartic.gram_closed_form(m))
            status = "certified" if cert.certified else f"FAILED ({cert.failure})"
            print(f"m={m:2d} dim={len(cert.pivots):3d} {status}")
            ok = ok and cert.certified
        return 0 if ok else 1
    if args.action == "identity":
        ok = True
        for m in range(1, args.m_max + 1):
            good = psd_quartic.gram_identity_check(m)
            print(f"m={m:2d} Gram identity {'exact' if good else 'MISMATCH'}")
            ok = ok and good
        return 0 if ok else 1
    if args.action == "export":
        block = psd_quartic.gram_closed_form(args.m)
        _emit(block.to_json() + "\n", args.out)
        return 0


def cmd_absorb(args) -> int:
    family = _family_from_args(args)
    n_list = _parse_int_list(args.n_list)
    m = int(args.m)
    for N in n_list:
        if N < 0:
            raise ValueError(f"--n-list entries must be >= 0, got N = {N}")
    if not (math.isfinite(args.epsilon) and args.epsilon > 0):
        raise ValueError(f"--epsilon must be finite and > 0, got {args.epsilon}")
    lines = [VERSION_HEADER, "family,m,param,N,ratio,lhs,rhs,passed"]
    label = family.label().replace(",", ";")
    # one sequence for every N, generated as long as the largest N reads;
    # each row probes a prefix of it
    if args.r is not None:
        r = int(args.r)
        full = family.generate(max(n_list) + 2 * m)
        for N in n_list:
            ratio = absorption.gn_ratio_probe(full.truncated(N + 2 * m + 1), m, r, N)
            lines.append(f"{label},{m},r={r},{N},{ratio!r},,,")
    elif args.k is not None:
        k = int(args.k)
        orders = absorption.critical_orders(m, k)
        mono = NormalFormMonomial(
            k,
            tuple((orders[j], 0) for j in range(k)),
            tuple((orders[k + j], 0) for j in range(k)),
            1.0,
        )
        fit_seq = family.generate(max(n_list) + 2 * m + 2)
        for probe in absorption.absorption_probes(mono, fit_seq, m, args.epsilon, n_list):
            lines.append(
                f"{label},{m},k={k},{probe.N},,{probe.lhs!r},{probe.rhs!r},{probe.passed}"
            )
    else:
        raise ValueError("absorb probe needs --r (GN ratio) or --k (monomial probe)")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_measure(args) -> int:
    if args.measure_json:
        with open(args.measure_json) as fh:
            spec = measures.MeasureSpec.from_json(fh.read())
    else:
        family = _family_from_args(args)
        spec = measures.MeasureSpec.bernstein_szego(family.generate(args.n))
    if args.action == "functional":
        # a Bernstein-Szego measure has the exact series value; --grid is
        # then recorded only
        if spec.kind == "bernstein_szego":
            N = max(len(spec.prefix) - 1, 0)
            value = measures.szego_functional_series(spec.prefix, args.m, [N])[(args.m, N)]
            grid, method = args.grid, "series"
        else:
            val = measures.szego_functional(spec, args.m, args.grid)
            value, grid, method = val.value, val.grid_size, "trapezoid"
        print(json.dumps({"m": args.m, "value": value, "grid": grid, "method": method}))
        return 0
    if args.action == "weight":
        if spec.kind == "sampled":
            w = np.asarray(spec.weights)
        else:
            w = measures.bernstein_szego_weight(spec.prefix, args.grid)
        _emit(measures.MeasureSpec.sampled(w).to_json() + "\n", args.out)
        return 0
    if args.action == "moments":
        mom = measures.trig_moments(spec, args.kmax, args.grid)
        print(json.dumps([[c.real, c.imag] for c in mom]))
        return 0


def _print_table(results):
    width = max(len(name) for name, _, _ in results)
    passed = 0
    for name, ok, detail in results:
        tag = "PASS" if ok else "FAIL"
        print(f"[{tag}] {name:<{width}}  {detail}")
        passed += ok
    print(f"{passed}/{len(results)} checks passed")


def cmd_verify(args) -> int:
    results, ok = run_suites(args.suite)
    _print_table(results)
    return 0 if ok else 1


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opuckit",
        description="Desk-scale checks for the single-critical-point higher-order "
        "Szego sum-rule calculus.",
    )
    parser.add_argument(
        "--config",
        help="JSON of flag defaults; a subcommand's name may hold defaults for it alone",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a sequence as JSON [re, im] pairs")
    _add_family_args(p)
    p.add_argument("--n", type=int, required=True, help="last index N (length N+1)")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("sumrule", help="decomposition report sweep (CSV)")
    p.add_argument("action", choices=("report",))
    _add_family_args(p)
    p.add_argument("--m", default="1", help="comma separated orders")
    p.add_argument("--n-list", default="250,500,1000,2000")
    p.add_argument("--grid", type=int, default=4096, help="recorded only; K_proxy is the exact series")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_sumrule)

    p = sub.add_parser("gram", help="quartic block certification and export")
    p.add_argument("action", choices=("certify", "identity", "export"))
    p.add_argument("--m-max", type=int, default=10)
    p.add_argument("--m", type=int, default=2, help="order for export")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gram)

    p = sub.add_parser("absorb", help="interpolation and absorption probes (CSV)")
    p.add_argument("action", choices=("probe",))
    _add_family_args(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, help="difference order for the GN ratio probe")
    p.add_argument("--k", type=int, help="half-degree for the monomial absorption probe")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--n-list", default="250,500,1000,2000")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_absorb)

    p = sub.add_parser("measure", help="weighted log functional, weights, moments")
    p.add_argument("action", choices=("functional", "weight", "moments"))
    _add_family_args(p)
    p.add_argument("--measure-json", help="MeasureSpec JSON file (overrides --family)")
    p.add_argument("--n", type=int, default=0, help="prefix length - 1 when using a family")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--grid", type=int, default=4096)
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("verify", help="check each link of the sum-rule chain")
    p.add_argument("--suite", default="all")
    p.set_defaults(fn=cmd_verify)

    parser._subcommands = dict(sub.choices)
    return parser


def _dests(keys: dict) -> dict:
    return {k.replace("-", "_"): v for k, v in keys.items()}


def _check_config_keys(parser, keys: dict, flags: set, prefix: str):
    for key in keys:
        if key.replace("-", "_") not in flags:
            parser.error(f"argument --config: unknown key {prefix + key!r}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    if "--config" in argv:
        at = argv.index("--config") + 1
        if at == len(argv):
            parser.error("argument --config: expected one argument")
        try:
            with open(argv[at]) as fh:
                defaults = json.load(fh)
        except (OSError, ValueError) as exc:
            parser.error(f"argument --config: {exc}")
        if not isinstance(defaults, dict):
            parser.error("argument --config: expected a JSON object of flag defaults")
        subcommands = parser._subcommands
        flat = {k: v for k, v in defaults.items() if k not in subcommands}
        # a flat key may belong to any subcommand, but must name some flag
        flags = {a.dest for p in [parser, *subcommands.values()] for a in p._actions}
        _check_config_keys(parser, flat, flags, "")
        # subparsers parse into a fresh namespace, so they need the
        # overrides as well
        for p in [parser, *subcommands.values()]:
            p.set_defaults(**_dests(flat))
        # a scoped section must name flags of its own subcommand, and wins
        # over the flat keys there
        for name, scoped in defaults.items():
            if name not in subcommands:
                continue
            if not isinstance(scoped, dict):
                parser.error(f"argument --config: {name!r} must hold a JSON object")
            own = {a.dest for a in subcommands[name]._actions}
            _check_config_keys(parser, scoped, own, f"{name}.")
            subcommands[name].set_defaults(**_dests(scoped))
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError, OSError, MemoryError) as exc:
        # a MemoryError may carry no message; its name then stands for it
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
