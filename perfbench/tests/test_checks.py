"""Each output check accepts the program's real output and rejects a corrupted copy;
the printed metric names match BENCHMARK.json.

    python3 -m pytest perfbench/tests
"""

import json
from fractions import Fraction

import numpy as np
import pytest

import workloads
from opuckit.measures import MeasureSpec, trig_moments
from opuckit.normal_form import from_ideal_expansion, pointwise_equality_check
from opuckit.shift_algebra import ideal_power_decompose


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def _sweep_csv(workdir, gamma, m):
    values = workloads._power(0.9, gamma, 0.0, max(workloads.SWEEP_N) + 1)
    out = workdir / "rows.csv"
    code, _ = workloads.cli("sumrule", "report", "--family", "power", "--c", 0.9, "--gamma", gamma,
                            "--m", m, "--n-list", ",".join(map(str, workloads.SWEEP_N)),
                            "--grid", workloads.SWEEP_GRID, "--out", out)
    assert code == 0
    return out.read_text(), workloads.sweep_expected(values)


def _move_k(text, factor=1.0, shift=0.0):
    """The CSV with the first row's K_proxy moved and its residual kept consistent."""
    lines = text.splitlines()
    row = lines[2].split(",")
    row[2] = repr(float(row[2]) * factor + shift)
    row[6] = repr(float(row[2]) - float(row[3]) - float(row[4]))
    return "\n".join(lines[:2] + [",".join(row)] + lines[3:])


def test_sweep_check_rejects_k_proxy_moved_by_1e_6(workdir):
    m = 3
    text, expected = _sweep_csv(workdir, 0.5, m)
    assert workloads.check_sweep_csv(text, m, expected) == []

    failed = workloads.check_sweep_csv(_move_k(text, shift=1e-6), m, expected)
    assert failed == ["kproxy_quadrature"]
    # this op meets the tolerance today, so the named fault is unexpected on it
    op = workloads.Op("", None, None, known_faults=workloads.sweep_known_faults("power(0.9, 0.5)", m))
    assert op.unexpected(failed) == ["kproxy_quadrature"]


def test_sweep_check_rejects_a_gross_k_proxy_on_an_op_with_the_known_fault(workdir):
    m = 1
    text, expected = _sweep_csv(workdir, 0.1, m)
    op = workloads.Op("", None, None, known_faults=workloads.sweep_known_faults("power(0.9, 0.1)", m))
    failed = workloads.check_sweep_csv(text, m, expected)
    assert failed == ["kproxy_quadrature"] and op.unexpected(failed) == []

    failed = workloads.check_sweep_csv(_move_k(text, factor=1.1), m, expected)
    assert op.unexpected(failed) == ["K_proxy gross miss at N=1000"]


def test_sweep_check_rejects_wrong_energy_and_residual(workdir):
    values = workloads._power(0.9, 0.5, 0.0, max(workloads.SWEEP_N) + 1)
    expected = workloads.sweep_expected(values)
    lines = ["# opuckit test", "m,N,K_proxy,Q,tail,power_energy,residual"]
    for N in workloads.SWEEP_N:
        e = expected[(1, N)]
        lines.append(f"1,{N},{e['K']!r},{e['Q'] * (1 + 1e-6)!r},{e['tail']!r},{e['power']!r},0.0")
    failed = workloads.check_sweep_csv("\n".join(lines), 1, expected)
    assert "Q at N=1000" in failed and "residual at N=1000" in failed


def test_gram_check_rejects_one_changed_entry(workdir):
    m = 4
    out = workdir / "gram.json"
    assert workloads.cli("gram", "export", "--m", m, "--out", out)[0] == 0
    points = workloads.rational_points(np.random.default_rng(0), 3)
    text = out.read_text()
    assert workloads.check_gram_block(text, m, points) == []

    block = json.loads(text)
    block["entries"][1][2] = str(Fraction(block["entries"][1][2]) + Fraction(1, 1000))
    assert "gram identity at a point" in workloads.check_gram_block(json.dumps(block), m, points)


def test_gram_check_rejects_indefinite_block():
    m = 2
    block = {"m": m, "order": "grlex", "entries": [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1"]]}
    assert "gram block not PSD" in workloads.check_gram_block(json.dumps(block), m, [])


def test_normal_form_check_rejects_a_dropped_monomial():
    import random

    shape, values = random.Random(1), random.Random(2)
    k, q = 2, 3
    pieces = workloads.member_pieces(shape, values, k, q, 2)
    P = workloads.member_polynomial(k, pieces)
    iseq = [(3, -2), (1, 5), (-4, 1), (2, 2), (-1, -6), (5, 3)] * 3
    seq = [workloads.GaussianRational(Fraction(a, 10), Fraction(b, 10)) for a, b in iseq]
    monomials = from_ideal_expansion(ideal_power_decompose(P, q))
    deviation = pointwise_equality_check(P, q, seq, workloads.NF_WINDOW)
    assert workloads.check_normal_form(k, q, pieces, iseq, (monomials, deviation)) == []

    failed = workloads.check_normal_form(k, q, pieces, iseq, (monomials[1:], deviation))
    assert "terms do not expand to P" in failed
    assert "coefficient map differs from the monomials" in failed


def test_moment_check_rejects_a_moment_scaled_by_1_01():
    alphas = workloads._random_prefix(np.random.default_rng(3), workloads.PROBE_PREFIX_CAP,
                                      workloads.PROBE_PREFIX_LEN)
    moments = trig_moments(MeasureSpec.bernstein_szego(alphas), workloads.PROBE_KMAX, workloads.PROBE_GRID)
    as_json = lambda c: json.dumps([[v.real, v.imag] for v in c])  # noqa: E731
    assert workloads.check_moments(as_json(moments), alphas) == []

    scaled = moments.copy()
    scaled[3] *= 1.01
    assert workloads.check_moments(as_json(scaled), alphas) == ["levinson coefficients"]
    scaled = moments.copy()
    scaled[0] *= 1.01
    failed = workloads.check_moments(as_json(scaled), alphas)
    # the prefixes are resolved, so the named fault is unexpected on them
    assert failed == ["moments_unresolved"] and workloads.Op("", None, None).unexpected(failed) == failed
    scaled = moments.copy()
    scaled[5] = 1.01 * scaled[0]
    assert workloads.check_moments(as_json(scaled), alphas) == ["moments not of a positive measure"]


def test_moment_check_holds_unresolved_moments_to_a_positive_measure():
    c, gamma, n, grid = workloads.UNRESOLVED_MOMENTS[0]
    alphas = workloads._power(c, gamma, 0.0, n + 1)
    moments = trig_moments(MeasureSpec.bernstein_szego(alphas), workloads.UNRESOLVED_KMAX, grid)
    as_json = lambda c: json.dumps([[v.real, v.imag] for v in c])  # noqa: E731
    kmax = workloads.UNRESOLVED_KMAX
    assert workloads.check_moments(as_json(moments), alphas, kmax) == ["moments_unresolved"]

    scaled = moments.copy()
    scaled[0] *= -1
    assert workloads.check_moments(as_json(scaled), alphas, kmax) == ["moments not of a positive measure"]


def test_weight_check_rejects_a_scaled_weight(workdir):
    alphas = workloads._random_prefix(np.random.default_rng(4), workloads.PROBE_PREFIX_CAP,
                                      workloads.PROBE_PREFIX_LEN)
    path, out = workdir / "prefix.json", workdir / "w.json"
    workloads._write_values(path, alphas)
    assert workloads.cli("measure", "weight", "--family", "explicit", "--values", path,
                         "--n", len(alphas) - 1, "--grid", workloads.PROBE_GRID, "--out", out)[0] == 0
    nodes = np.arange(0, workloads.PROBE_GRID, 64)
    spec = json.loads(out.read_text())
    assert workloads.check_weights(json.dumps(spec), alphas, nodes) == []

    spec["weights"][64] *= 1.01
    assert "weight values" in workloads.check_weights(json.dumps(spec), alphas, nodes)


def test_ratio_check_flags_the_numpy_repr_and_holds_the_value():
    values = workloads._power(0.8, 0.3, 0.0, 2100)
    expected = [(250, workloads.refs.gn_ratio(values, 3, 1, 250))]
    head = "# opuckit test\nfamily,m,param,N,ratio,lhs,rhs,passed\n"
    good = head + f"power,3,r=1,250,{expected[0][1]!r},,,"
    assert workloads.check_ratio_csv(good, 3, 1, expected) == []
    assert workloads.check_ratio_csv(good.replace(",,,", "").replace(
        repr(expected[0][1]), f"np.float64({expected[0][1]!r}),,,"), 3, 1, expected) == ["gn_ratio_repr"]
    off = head + f"power,3,r=1,250,{expected[0][1] * 1.01!r},,,"
    assert workloads.check_ratio_csv(off, 3, 1, expected) == ["ratio at N=250"]


def test_absorption_check_rejects_a_moved_lhs(workdir):
    m, k = 3, 2
    values = workloads._power(0.7, 0.4, 0.0, max(workloads.PROBE_N) + 2 * m + 3)
    expected = workloads.refs.absorption_rows(values, m, k, workloads.PROBE_EPSILON, workloads.PROBE_N)
    out = workdir / "probe.csv"
    assert workloads.cli("absorb", "probe", "--family", "power", "--c", 0.7, "--gamma", 0.4, "--m", m,
                         "--k", k, "--epsilon", workloads.PROBE_EPSILON,
                         "--n-list", ",".join(map(str, workloads.PROBE_N)), "--out", out)[0] == 0
    text = out.read_text()
    assert workloads.check_absorption_csv(text, m, k, expected) == []

    lines = text.splitlines()
    row = lines[3].split(",")
    row[5] = repr(float(row[5]) * (1 + 1e-6))
    corrupted = "\n".join(lines[:3] + [",".join(row)] + lines[4:])
    assert "lhs/rhs at N=500" in workloads.check_absorption_csv(corrupted, m, k, expected)


def test_printed_metrics_match_benchmark_json():
    from pathlib import Path

    import tracing

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "run_s", "op_p50_s", "op_p90_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
