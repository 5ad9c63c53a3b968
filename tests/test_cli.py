import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opuckit import _kernels, cli, measures, normal_form, psd_quartic, sum_rule
from opuckit.absorption import critical_orders, gn_ratio_probe, monomial_sum
from opuckit.cli import GRAM_MAX_ORDER, main
from opuckit.families import FamilySpec
from opuckit.measures import MeasureSpec, szego_functional_series
from opuckit.normal_form import NormalFormMonomial
from opuckit.sequences import ModulusError, VerblunskySequence, complex_pairs, lukic_partial_sums
from opuckit.suites import SUITES
from opuckit.sum_rule import decomposition_report

from helpers import bumped_block, classify_k_trend


def csv_rows(path):
    """Data rows of a CLI CSV, past the version header and the column header."""
    return [line.split(",") for line in path.read_text().splitlines()[2:]]


class TestFamilies:
    def test_constant(self):
        seq = FamilySpec(kind="constant", c=0.5).generate(3)
        assert seq.values.tolist() == [0.5, 0.5, 0.5, 0.5]

    def test_power_guard(self):
        with pytest.raises(ModulusError):
            FamilySpec(kind="power", c=1.0, gamma=0.5).generate(3)

    def test_power_values(self):
        seq = FamilySpec(kind="power", c=0.9, gamma=0.5).generate(3)
        expected = [0.9, 0.9 / math.sqrt(2), 0.9 / math.sqrt(3), 0.45]
        for got, want in zip(seq.values, expected):
            assert got == pytest.approx(want, rel=1e-12)

    def test_rotated_modulus(self):
        seq = FamilySpec(kind="rotated", c=0.8, gamma=0.3, beta=1.1).generate(20)
        for n, v in enumerate(seq.values):
            assert abs(v) == pytest.approx(0.8 / (n + 1) ** 0.3, rel=1e-12)

    def test_random_deterministic_and_capped(self):
        a = FamilySpec(kind="random", seed=7, modulus_cap=0.6).generate(50)
        b = FamilySpec(kind="random", seed=7, modulus_cap=0.6).generate(50)
        assert a == b
        assert max(abs(v) for v in a.values) < 0.6

    def test_explicit_length_guard(self):
        fam = FamilySpec(kind="explicit", values=(0.1, 0.2))
        with pytest.raises(ValueError):
            fam.generate(5)

    @pytest.mark.parametrize(
        "field, value, message",
        [("c", complex(0.5, math.nan), "must be finite"), ("gamma", math.inf, "must be finite"),
         ("beta", -math.inf, "must be finite"), ("modulus_cap", math.nan, "must be finite"),
         ("modulus_cap", -0.5, "must be >= 0")],
        ids=["c-imag-nan", "gamma-inf", "beta-minus-inf", "cap-nan", "cap-negative"],
    )
    def test_non_finite_parameter_is_refused_at_construction(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{field} {message}"):
            FamilySpec(kind="rotated", **{field: value})

    def test_random_is_prefix_consistent(self):
        for seed in range(5):
            fam = FamilySpec(kind="random", seed=seed, modulus_cap=0.6)
            assert fam.generate(2000).values[:251].tolist() == fam.generate(250).values.tolist()

    def test_equal_specs_generate_equal_floats(self):
        fam = FamilySpec(kind="power", c=0.7, gamma=0.4)
        again = FamilySpec(kind="power", c=0.7 + 0j, gamma=0.4)
        assert again == fam
        assert again.generate(2000) == fam.generate(2000)

    def test_to_dict(self):
        assert FamilySpec(kind="power", c=0.9 + 0.1j, gamma=0.4).to_dict() == {
            "kind": "power", "c": [0.9, 0.1], "gamma": 0.4
        }
        assert FamilySpec(kind="random", seed=3, modulus_cap=0.5).to_dict() == {
            "kind": "random", "seed": 3, "modulus_cap": 0.5
        }
        # the entries stay in their file; the sidecar records its digest
        assert FamilySpec(kind="explicit", values=(0.1j, -0.2)).to_dict() == {
            "kind": "explicit", "length": 2
        }


class TestTrendClassifier:
    def test_bounded(self):
        assert classify_k_trend([1.0, 1.05, 1.04, 1.06]) == "bounded"

    def test_divergent(self):
        assert classify_k_trend([1.0, 1.5, 2.2, 3.5]) == "divergent"

    def test_inconclusive(self):
        assert classify_k_trend([1.0, 1.2, 1.5, 1.7]) == "inconclusive"


class TestCliCommands:
    def test_generate_to_file(self, tmp_path):
        out = tmp_path / "seq.json"
        code = main(
            [
                "generate",
                "--family",
                "constant",
                "--c",
                "0.5",
                "--n",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        seq = complex_pairs(json.loads(out.read_text()))
        assert seq == (0.5, 0.5, 0.5, 0.5)

    def test_generate_guard_exit_code(self, tmp_path, capsys):
        code = main(
            ["generate", "--family", "power", "--c", "1.0", "--gamma", "0.5", "--n", "3"]
        )
        assert code == 2
        assert "not < 1" in capsys.readouterr().err

    def test_sumrule_zero_family(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(
            [
                "sumrule",
                "report",
                "--family",
                "constant",
                "--c",
                "0",
                "--m",
                "1,2",
                "--n-list",
                "5,10",
                "--grid",
                "256",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# opuckit")
        assert lines[1] == "m,N,K_proxy,Q,tail,power_energy,residual"
        for line in lines[2:]:
            m, N, *vals = line.split(",")
            assert all(float(v) == 0 for v in vals)
        sidecar = json.loads((tmp_path / "rows.csv.config.json").read_text())
        assert sidecar["grid_size"] == 256
        assert sidecar["family"] == {"kind": "constant", "c": [0.0, 0.0]}

    def test_sumrule_sidecar_records_the_applied_settings(self, tmp_path):
        out = tmp_path / "rows.csv"
        args = ["sumrule", "report", "--family", "constant", "--c", "0.5", "--n-list", "5"]
        assert main(args + ["--out", str(out)]) == 0
        text = (tmp_path / "rows.csv.config.json").read_text()
        assert sorted(json.loads(text)) == ["family", "grid_size", "m_list", "n_list", "out", "seed"]
        # one line of sorted keys
        assert text.endswith("}\n") and text.count("\n") == 1

    def test_explicit_sidecar_holds_the_digest_of_the_values_file(self, tmp_path):
        values = tmp_path / "values.json"
        values.write_text(json.dumps([[0.5 / (n + 1), 0.1] for n in range(2001)]))
        out = tmp_path / "rows.csv"
        args = ["sumrule", "report", "--family", "explicit", "--values", str(values)]
        assert main(args + ["--n-list", "2000", "--out", str(out)]) == 0
        text = (tmp_path / "rows.csv.config.json").read_text()
        sidecar = json.loads(text)
        assert sidecar["family"] == {"kind": "explicit", "length": 2001}
        assert sidecar["values_file"] == str(values)
        assert sidecar["values_sha256"] == hashlib.sha256(values.read_bytes()).hexdigest()
        assert len(text.encode()) < 1024

    def test_sumrule_determinism(self, tmp_path):
        args = [
            "sumrule",
            "report",
            "--family",
            "random",
            "--seed",
            "11",
            "--cap",
            "0.5",
            "--m",
            "1",
            "--n-list",
            "20,40",
            "--grid",
            "512",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        # byte-identical modulo the version header line
        assert a.read_bytes().splitlines()[1:] == b.read_bytes().splitlines()[1:]

    def test_gram_certify(self, capsys):
        assert main(["gram", "certify", "--m-max", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("certified") == 3

    def test_gram_certify_failure_exits_1(self, monkeypatch, capsys):
        closed_form = psd_quartic.gram_closed_form
        monkeypatch.setattr(
            psd_quartic, "gram_closed_form", lambda m: bumped_block(m) if m == 3 else closed_form(m)
        )
        assert main(["gram", "certify", "--m-max", "3"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "m= 1 dim=  1 certified",
            "m= 2 dim=  3 certified",
            "m= 3 dim=  6 FAILED (entry (0,1) differs from pref*B^T*D*B)",
        ]

    def test_gram_identity(self, capsys):
        assert main(["gram", "identity", "--m-max", "2"]) == 0
        assert "exact" in capsys.readouterr().out

    def test_gram_export(self, tmp_path):
        out = tmp_path / "gram.json"
        assert main(["gram", "export", "--m", "3", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["m"] == 3 and obj["order"] == "grlex"
        assert len(obj["entries"]) == 6

    @pytest.mark.parametrize(
        "argv",
        [
            ["gram", "certify", "--m-max", "0"],
            ["gram", "certify", "--m-max", "-3"],
            ["gram", "identity", "--m-max", "0"],
            ["gram", "identity", "--m-max", "-3"],
            ["gram", "export", "--m", "0"],
        ],
    )
    def test_gram_bad_order_exits_2_with_one_error_line(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_negative_n_list_entry_is_named(self, capsys):
        argv = ["absorb", "probe", "--family", "power", "--c", "0.5", "--m", "2", "--k", "2",
                "--n-list", "40,-5"]
        assert main(argv) == 2
        assert "N = -5" in capsys.readouterr().err

    def test_verify_normalform_suite_names_its_13_checks(self, capsys):
        assert main(["verify", "--suite", "normalform"]) == 0
        *rows, total = capsys.readouterr().out.splitlines()
        expected = [f"normalform.pointwise.k{k}.q{q}" for k in (1, 2, 3) for q in (1, 2, 3, 4)]
        assert [row.split()[1] for row in rows] == expected + ["normalform.telescoping_factorization"]
        assert all(row.startswith("[PASS]") for row in rows)
        assert total == "13/13 checks passed"

    def test_verify_all_runs_every_check_of_the_chain(self, capsys):
        assert main(["verify", "--suite", "all"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "37/37 checks passed"

    def test_absorb_probe_gn(self, tmp_path):
        out = tmp_path / "probe.csv"
        code = main(
            [
                "absorb",
                "probe",
                "--family",
                "power",
                "--c",
                "0.8",
                "--gamma",
                "0.4",
                "--m",
                "3",
                "--r",
                "1",
                "--n-list",
                "50,100",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "family,m,param,N,ratio,lhs,rhs,passed"
        assert len(lines) == 4

    def test_absorb_probe_monomial(self, tmp_path):
        out = tmp_path / "absorb.csv"
        code = main(
            [
                "absorb",
                "probe",
                "--family",
                "power",
                "--c",
                "0.8",
                "--gamma",
                "0.3",
                "--m",
                "2",
                "--k",
                "2",
                "--epsilon",
                "0.1",
                "--n-list",
                "50,100,200",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = out.read_text().splitlines()[2:]
        assert all(row.endswith("True") for row in rows)

    def test_measure_functional(self, capsys):
        code = main(
            [
                "measure",
                "functional",
                "--family",
                "constant",
                "--c",
                "0.5",
                "--n",
                "0",
                "--m",
                "0",
                "--grid",
                "2048",
            ]
        )
        assert code == 0
        val = json.loads(capsys.readouterr().out)
        assert val["value"] == pytest.approx(-math.log(0.75), abs=1e-8)

    def test_measure_weight_and_moments(self, tmp_path, capsys):
        out = tmp_path / "weight.json"
        assert (
            main(
                [
                    "measure",
                    "weight",
                    "--family",
                    "constant",
                    "--c",
                    "0.5",
                    "--n",
                    "0",
                    "--grid",
                    "64",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        obj = json.loads(out.read_text())
        assert obj["kind"] == "sampled" and obj["grid"] == 64
        assert (
            main(
                [
                    "measure",
                    "moments",
                    "--family",
                    "constant",
                    "--c",
                    "0.5",
                    "--n",
                    "0",
                    "--grid",
                    "2048",
                    "--kmax",
                    "1",
                ]
            )
            == 0
        )
        mom = json.loads(capsys.readouterr().out)
        assert mom[0][0] == pytest.approx(1.0, abs=1e-10)
        assert mom[1][0] == pytest.approx(0.5, abs=1e-8)

    def test_measure_moments_of_a_bernstein_szego_family_run_no_kernel(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("the grid kernel ran")

        monkeypatch.setattr(measures, "log_phistar_abs", refuse)
        monkeypatch.setattr(_kernels, "log_phistar_abs", refuse)
        family = ["--family", "power", "--c", "0.9", "--gamma", "0.3", "--n", "2000"]
        with pytest.raises(AssertionError):
            main(["measure", "weight", *family])
        capsys.readouterr()
        assert main(["measure", "moments", *family, "--kmax", "8"]) == 0
        mom = json.loads(capsys.readouterr().out)
        assert len(mom) == 9 and mom[0] == [1.0, 0.0]
        assert all(math.hypot(re, im) <= 1.0 + 1e-15 for re, im in mom)

    def test_measure_from_json_file(self, tmp_path, capsys):
        spec = tmp_path / "measure.json"
        spec.write_text('{"kind": "bernstein_szego", "alphas": [[0.5, 0.0]]}')
        code = main(
            [
                "measure",
                "functional",
                "--measure-json",
                str(spec),
                "--m",
                "0",
                "--grid",
                "2048",
            ]
        )
        assert code == 0
        val = json.loads(capsys.readouterr().out)
        assert val["value"] == pytest.approx(-math.log(0.75), abs=1e-8)

    def test_measure_functional_bernstein_szego_is_the_series_value(self, capsys):
        # the trapezoid rule at grid 4096 misses this value by 2.0e-2
        code = main(
            ["measure", "functional", "--family", "power", "--c", "0.9",
             "--gamma", "0.02", "--n", "2000", "--m", "1", "--grid", "4096"]
        )
        assert code == 0
        val = json.loads(capsys.readouterr().out)
        prefix = FamilySpec(kind="power", c=0.9 + 0j, gamma=0.02).generate(2000)
        assert val["value"] == szego_functional_series(prefix, 1, [2000])[(1, 2000)]
        assert val["method"] == "series" and val["grid"] == 4096

    def test_measure_functional_sampled_is_trapezoid(self, tmp_path, capsys):
        spec = tmp_path / "measure.json"
        spec.write_text(MeasureSpec(kind="sampled", weights=[2.0] * 16).to_json())
        assert main(["measure", "functional", "--measure-json", str(spec), "--m", "0"]) == 0
        val = json.loads(capsys.readouterr().out)
        assert val["method"] == "trapezoid" and val["grid"] == 16
        assert val["value"] == pytest.approx(-math.log(2.0), abs=1e-15)

    def test_verify_selected_suite(self, capsys):
        assert main(["verify", "--suite", "measures"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out

    def test_config_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": 2048, "m": 0, "n": 0}))
        code = main(
            [
                "--config",
                str(cfg),
                "measure",
                "functional",
                "--family",
                "constant",
                "--c",
                "0.5",
            ]
        )
        assert code == 0
        val = json.loads(capsys.readouterr().out)
        assert val["grid"] == 2048
        assert val["value"] == pytest.approx(-math.log(0.75), abs=1e-8)


class TestSweepsFollowOneSequence:
    RANDOM = ["--family", "random", "--seed", "5", "--cap", "0.6"]

    def test_sumrule_m_list_rows_equal_single_m_runs(self, tmp_path):
        base = ["sumrule", "report", "--family", "power", "--c", "0.9", "--gamma", "0.1",
                "--n-list", "200,50,400"]
        joint = tmp_path / "joint.csv"
        assert main(base + ["--m", "1,2,3", "--out", str(joint)]) == 0
        single = []
        for m in (1, 2, 3):
            out = tmp_path / f"m{m}.csv"
            assert main(base + ["--m", str(m), "--out", str(out)]) == 0
            single += out.read_bytes().splitlines()[2:]
        assert joint.read_bytes().splitlines()[2:] == single

    def test_sumrule_repeated_m_or_n_prints_each_row_once(self, tmp_path):
        base = ["sumrule", "report", "--family", "power", "--c", "0.5", "--gamma", "0.3"]
        once = tmp_path / "once.csv"
        assert main(base + ["--m", "2", "--n-list", "100", "--out", str(once)]) == 0
        assert len(csv_rows(once)) == 1
        for extra in (["--m", "2", "--n-list", "100,100"], ["--m", "2,2", "--n-list", "100"]):
            out = tmp_path / "repeated.csv"
            assert main(base + extra + ["--out", str(out)]) == 0
            assert out.read_bytes() == once.read_bytes()

    def test_sumrule_random_rows_are_prefixes_of_one_sequence(self, tmp_path):
        out = tmp_path / "rows.csv"
        args = ["sumrule", "report", *self.RANDOM, "--m", "1,2", "--n-list", "30,60,120"]
        assert main(args + ["--out", str(out)]) == 0
        seq = FamilySpec(kind="random", seed=5, modulus_cap=0.6).generate(120)
        rows = csv_rows(out)
        assert len(rows) == 6
        for row in rows:
            rep = decomposition_report(seq, int(row[0]), int(row[1]))
            assert row == rep.csv_row().split(",")

    def test_sumrule_rows_and_sidecar(self, tmp_path):
        out = tmp_path / "rows.csv"
        args = ["sumrule", "report", "--family", "power", "--c", "0.7", "--gamma", "0.4",
                "--m", "2", "--n-list", "40", "--grid", "512"]
        assert main(args + ["--out", str(out)]) == 0
        seq = FamilySpec(kind="power", c=0.7 + 0j, gamma=0.4).generate(40)
        assert csv_rows(out) == [decomposition_report(seq, 2, 40).csv_row().split(",")]
        sidecar = json.loads((tmp_path / "rows.csv.config.json").read_text())
        assert sidecar["grid_size"] == 512

    def test_absorb_ratio_column_parses_as_floats(self, tmp_path):
        out = tmp_path / "ratio.csv"
        args = ["absorb", "probe", "--family", "power", "--c", "0.8", "--gamma", "0.3",
                "--m", "3", "--r", "2", "--n-list", "50,100"]
        assert main(args + ["--out", str(out)]) == 0
        seq = FamilySpec(kind="power", c=0.8 + 0j, gamma=0.3).generate(106)
        for row in csv_rows(out):
            N = int(row[3])
            assert float(row[4]) == gn_ratio_probe(seq, 3, 2, N)

    def test_absorb_random_ratio_rows_are_prefixes_of_one_sequence(self, tmp_path):
        out = tmp_path / "ratio.csv"
        args = ["absorb", "probe", *self.RANDOM, "--m", "3", "--r", "1", "--n-list", "40,80"]
        assert main(args + ["--out", str(out)]) == 0
        full = FamilySpec(kind="random", seed=5, modulus_cap=0.6).generate(80 + 2 * 3)
        rows = csv_rows(out)
        assert [int(row[3]) for row in rows] == [40, 80]
        for row in rows:
            N = int(row[3])
            prefix = VerblunskySequence(full.values[: N + 2 * 3 + 1])
            assert float(row[4]) == gn_ratio_probe(prefix, 3, 1, N)

    def test_absorb_random_monomial_rows_are_prefixes_of_one_sequence(self, tmp_path):
        # oracle: each row from its own monomial_sum and energies, the
        # constant fitted over them; repeats and order of the n-list kept
        for m, k, n_list in ((2, 2, [40, 80]), (3, 2, [80, 40, 80]), (3, 3, [80, 40, 80])):
            out = tmp_path / f"absorb-{m}-{k}.csv"
            args = ["absorb", "probe", *self.RANDOM, "--m", str(m), "--k", str(k),
                    "--epsilon", "0.1", "--n-list", ",".join(map(str, n_list))]
            assert main(args + ["--out", str(out)]) == 0
            full = FamilySpec(kind="random", seed=5, modulus_cap=0.6).generate(max(n_list) + 2 * m + 2)
            orders = critical_orders(m, k)
            mono = NormalFormMonomial(
                k, tuple((a, 0) for a in orders[:k]), tuple((b, 0) for b in orders[k:]), 1.0
            )
            lhs, energy = {}, {}
            for N in n_list:
                lhs[N] = monomial_sum(mono, full, N)
                rep = lukic_partial_sums(full, m, N + max(orders))
                energy[N] = rep.diff_energy + rep.power_energy
            constant = max([0.0] + [lhs[N] - 0.1 * energy[N] for N in n_list])
            rows = csv_rows(out)
            assert [int(row[3]) for row in rows] == n_list
            for row, N in zip(rows, n_list):
                rhs = 0.1 * energy[N] + constant
                assert row[5:] == [repr(lhs[N]), repr(rhs), str(lhs[N] <= rhs)]


class TestBadInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sumrule", "report"],
            ["generate", "--n", "3"],
            ["measure", "functional"],
            ["sumrule", "report", "--family", "explicit"],
            ["absorb", "probe", "--family", "power", "--c", "0.5", "--m", "2"],
            ["absorb", "probe", "--family", "power", "--c", "0.5", "--m", "3", "--k", "0"],
            ["measure", "moments", "--family", "power", "--c", "0.5", "--gamma", "1",
             "--n", "3", "--grid", "64", "--kmax", "-5"],
            ["absorb", "probe", "--family", "power", "--c", "0.5", "--m", "2", "--k", "2",
             "--epsilon", "-1"],
            ["absorb", "probe", "--family", "power", "--c", "0.5", "--m", "2", "--k", "2",
             "--epsilon", "0"],
            ["absorb", "probe", "--family", "power", "--c", "0.5", "--gamma", "0.3", "--m", "2",
             "--k", "2", "--epsilon", "inf", "--n-list", "10,20"],
            ["absorb", "probe", "--family", "power", "--c", "0.5", "--m", "2", "--k", "2",
             "--n-list", "40,-5"],
            ["absorb", "probe", "--family", "power", "--c", "0.5", "--m", "3", "--r", "1",
             "--n-list", "-5"],
            ["verify", "--suite", "sequences"],
            ["verify", "--suite", "kernels"],
            ["generate", "--family", "random", "--cap", "-0.5", "--n", "2"],
            ["absorb", "probe", "--family", "power", "--c", "0.5", "--m", "3", "--r", "1",
             "--k", "2"],
        ],
        ids=["no-family", "generate-no-family", "measure-no-family", "explicit-no-values",
             "absorb-no-probe", "absorb-k-0", "moments-negative-kmax", "absorb-negative-epsilon",
             "absorb-zero-epsilon", "absorb-inf-epsilon", "absorb-k-negative-n",
             "absorb-r-negative-n", "verify-sequences", "verify-kernels", "random-negative-cap",
             "absorb-r-and-k"],
    )
    def test_exits_2_with_one_error_line(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["sumrule", "report", "--family", "power", "--c", "0.5", "--m", "1,,2"],
             "error: --m must be comma-separated integers, got '1,,2'"),
            (["sumrule", "report", "--family", "power", "--c", "0.5", "--n-list", ""],
             "error: --n-list must be comma-separated integers, got ''"),
            (["absorb", "probe", "--family", "power", "--c", "0.5", "--m", "2", "--k", "2",
              "--n-list", "1.5"],
             "error: --n-list must be comma-separated integers, got '1.5'"),
        ],
        ids=["sumrule-m", "sumrule-n-list", "absorb-n-list"],
    )
    def test_a_bad_integer_list_names_its_flag(self, argv, line, capsys):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", line + "\n")

    @pytest.mark.parametrize(
        "flag, content",
        [
            ("--values", [0.1, 0.2]),
            ("--values", [[0.1, "x"]]),
            ("--values", [[0.1, None]]),
            ("--values", [[0.1, False]]),
            ("--measure-json", {"weights": [1, 1]}),
            ("--measure-json", {"kind": "sampled"}),
            ("--measure-json", {"kind": "sampled", "weights": [None, 1]}),
            ("--measure-json", {"kind": "bernstein_szego", "alphas": [0.1]}),
            ("--measure-json", {"kind": ["sampled"], "weights": [1, 1]}),
            ("--measure-json", [3]),
            ("--measure-json", {"kind": "sampled", "weights": []}),
            ("--measure-json", {"kind": "sampled", "weights": [math.inf, 1, 1, 1]}),
            ("--measure-json", {"kind": "sampled", "weights": [1e308, 1e308, 1, 1]}),
        ],
        ids=["values-flat", "values-string", "values-null", "values-boolean", "measure-no-kind",
             "measure-no-weights", "measure-null-weight", "measure-flat-alphas",
             "measure-list-kind", "measure-not-an-object", "measure-empty-weights",
             "measure-infinite-weight", "measure-overflowing-weight-sum"],
    )
    def test_malformed_file_exits_2_with_one_error_line(self, flag, content, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        if flag == "--values":
            argv = ["generate", "--family", "explicit", "--n", "0", "--values", str(path)]
        else:
            argv = ["measure", "functional", "--measure-json", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


# -- argument fuzzing ----------------------------------------------------------

FIXED = settings.get_profile("fixed")

# Each flag has good values, small enough that a run takes well under a
# second, and bad ones: negative, zero, huge or no number at all.  A huge
# value is past any size a machine holds, so a run must fail at once, on
# allocation or at a guard; 2**63 - 1 is where numpy's arange returns an
# empty range instead of failing.  Sizes a large machine holds (10**8,
# 10**9) are workloads the CLI runs, so none is drawn.  An argv gets at most
# one bad flag or action, so most runs get past parsing.  --out, --values,
# --measure-json and --config are left out: they name files.
HUGE = st.sampled_from([2**63 - 1, 2**63, 10**18, 10**30])
NOT_A_NUMBER = st.sampled_from(["", " ", "abc", "1.5", "0x10", "nan", "1e3", "-", "--"])
BAD_INTS = st.one_of(HUGE.map(str), st.one_of(st.integers(-3, 0).map(str), NOT_A_NUMBER))
BAD_FLOATS = st.sampled_from(["nan", "inf", "-inf", "1e400", "-5", "2", "0", "abc", ""])


def _ints(good):
    return good.map(str), BAD_INTS


def _int_lists(good):
    goods = st.lists(good.map(str), min_size=1, max_size=3)
    bad = st.tuples(goods, BAD_INTS).map(lambda pair: ",".join(pair[0] + [pair[1]]))
    return goods.map(",".join), bad


def _floats(low, high):
    return st.floats(low, high).map(repr), BAD_FLOATS


ORDERS = st.integers(1, 4)
INDICES = st.one_of(st.integers(0, 8), st.sampled_from([16, 64, 250]))
FAMILY_OPTIONS = {
    "--family": (st.sampled_from(["power", "rotated", "random", "constant"]),
                 st.sampled_from(["explicit", "bogus"])),
    "--c": _floats(-0.9, 0.9),
    "--c-imag": _floats(-0.3, 0.3),
    "--gamma": _floats(0, 2),
    "--beta": _floats(-3, 3),
    "--seed": _ints(st.integers(0, 10**6)),
    "--cap": _floats(0, 0.9),
}
COMMANDS = {
    "gram": (
        ["certify", "identity", "export"],
        {"--m-max": _ints(ORDERS), "--m": _ints(ORDERS)},
    ),
    "absorb": (
        ["probe"],
        {**FAMILY_OPTIONS, "--m": _ints(ORDERS), "--r": _ints(ORDERS), "--k": _ints(ORDERS),
         "--epsilon": _floats(0.01, 1), "--n-list": _int_lists(INDICES)},
    ),
    "sumrule": (
        ["report"],
        {**FAMILY_OPTIONS, "--m": _int_lists(ORDERS), "--n-list": _int_lists(INDICES),
         "--grid": _ints(INDICES)},
    ),
    "measure": (
        ["functional", "weight", "moments"],
        {**FAMILY_OPTIONS, "--n": _ints(INDICES), "--m": _ints(ORDERS),
         "--grid": _ints(st.sampled_from([16, 64, 256])), "--kmax": _ints(st.integers(0, 7))},
    ),
}
REQUIRED = {("absorb", "--m"), ("absorb", "--family"), ("sumrule", "--family"),
            ("measure", "--family")}


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    actions, options = COMMANDS[command]
    bad = draw(st.sampled_from([None, "action", *options]))
    argv = [command, "bogus" if bad == "action" else draw(st.sampled_from(actions))]
    for flag, (good, wrong) in options.items():
        if flag == bad:
            argv += [flag, draw(wrong)]
        elif (command, flag) in REQUIRED or draw(st.booleans()):
            argv += [flag, draw(good)]
    return argv


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process run; other exceptions propagate."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(FIXED, max_examples=150)
@given(argv=cli_argvs())
def test_fuzzed_arguments_exit_cleanly(argv):
    code, _, err = run_cli(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert sum("error:" in line for line in err.splitlines()) == 1


POWER = ["--family", "power", "--c", "0.5"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sumrule", "report", *POWER, "--n-list", str(10**18)], None),
        (["absorb", "probe", *POWER, "--m", "3", "--k", "2", "--n-list", "40," + str(10**18)],
         None),
        (["absorb", "probe", *POWER, "--m", str(10**18), "--k", "2"], None),
        (["measure", "functional", *POWER, "--n", str(10**18)], None),
        (["measure", "weight", *POWER, "--n", "3", "--grid", str(10**18)], None),
        (["generate", *POWER, "--n", str(10**18)], None),
        (["generate", *POWER, "--n", str(2**63 - 1)], "N = 9223372036854775807 is past"),
        (["measure", "functional", *POWER, "--n", str(2**63)], "N = 9223372036854775808 is past"),
        (["measure", "weight", *POWER, "--n", "3", "--grid", str(2**63 - 1)],
         "grid size 9223372036854775807 is past"),
        (["measure", "moments", *POWER, "--n", "3", "--kmax", str(10**18), "--grid", "64"],
         "kmax must stay below half the grid size"),
        (["sumrule", "report", *POWER, "--m", "1,1024", "--n-list", "8"], "m must be < 1024"),
        (["measure", "functional", *POWER, "--n", "8", "--m", "1030"], "m_max must be <= 1029"),
    ],
    ids=["sumrule-n", "absorb-n", "absorb-m", "measure-n", "weight-grid", "generate-n",
         "generate-n-empty-range", "measure-n-empty-range", "weight-grid-empty-range",
         "moments-kmax", "sumrule-m", "functional-m"],
)
def test_sizes_past_reach_exit_2_at_once(argv, message):
    """No traceback, no empty output: N = 10**18 was a MemoryError traceback,
    N near 2**63 printed an empty sequence, and an order past the float range
    of the series failed only after about 30 s."""
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    if message is not None:
        assert lines[0].startswith("error: " + message)


@pytest.mark.parametrize(
    "argv",
    [
        ["sumrule", "report", "--family", "rotated", "--c", "0.5", "--beta", "inf"],
        ["sumrule", "report", *POWER, "--gamma", "inf"],
        ["sumrule", "report", "--family", "power", "--c", "inf"],
        ["generate", *POWER, "--c-imag", "inf", "--n", "3"],
    ],
    ids=["beta-inf", "gamma-inf", "c-inf", "c-imag-inf"],
)
def test_non_finite_family_parameter_exits_2_before_numpy_runs(argv):
    """`--beta inf` printed a numpy RuntimeWarning and its source line before
    the error, and `--gamma inf` ran on the sequence (c, 0, 0, ...)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["generate", "--family", "rotated", "--c", "0.5", "--beta", "1e308", "--n", "3"],
         "|alpha_2|^2 = nan is not < 1"),
        (["generate", *POWER, "--gamma=-1000", "--n", "3"], "|alpha_1|^2 = inf is not < 1"),
    ],
    ids=["beta-overflow", "gamma-divide-by-zero"],
)
def test_overflowing_family_exits_2_without_a_warning(argv, message):
    """`--beta 1e308` overflows beta * n to inf, and numpy printed two
    RuntimeWarnings before the error on the nan entry it made; `--gamma=-1000`
    divided by a power that underflows to 0."""
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: " + message)


@pytest.mark.parametrize(
    "action",
    [["sumrule", "report", "--n-list", "0"], ["measure", "functional"], ["measure", "moments"]],
    ids=["sumrule-report", "measure-functional", "measure-moments"],
)
def test_an_entry_whose_squared_modulus_rounds_to_one_exits_2(tmp_path, action):
    """hypot put 0.4980560549172479+0.8671448357456021i inside the disc and
    re*re + im*im at 1.0: `sumrule report` and `measure functional` exited 2
    with `math domain error`, and `measure moments` printed moments of it."""
    values = tmp_path / "edge.json"
    values.write_text("[[0.4980560549172479, 0.8671448357456021]]")
    code, out, err = run_cli([*action, "--family", "explicit", "--values", str(values)])
    assert (code, out, err) == (2, "", "error: |alpha_0|^2 = 1.0 is not < 1\n")


def test_underflowing_power_family_gives_its_zeros_without_a_warning():
    """(n+1)**1e308 overflows to inf, so c / inf is the exact 0 of the limit;
    numpy warned about the overflow on the way."""
    argv = ["generate", "--family", "power", "--c", "1e-320", "--gamma", "1e308", "--n", "2"]
    code, out, err = run_cli(argv)
    assert code == 0 and err == ""
    assert out == "[[1e-320, 0.0], [0.0, 0.0], [0.0, 0.0]]\n"


GRAM_FLAGS = [("certify", "--m-max"), ("identity", "--m-max"), ("export", "--m")]


@pytest.mark.parametrize("action, flag", GRAM_FLAGS)
def test_gram_order_past_its_bound_exits_2_naming_the_flag(action, flag):
    bound = GRAM_MAX_ORDER[action]
    code, out, err = run_cli(["gram", action, flag, str(bound + 1)])
    assert code == 2 and out == ""
    assert err == f"error: {flag} must be <= {bound} for gram {action}, got {bound + 1}\n"


@pytest.mark.parametrize("action, flag", GRAM_FLAGS)
def test_gram_order_at_its_bound_runs(monkeypatch, action, flag):
    """The exact algebra is stubbed: only where the bound sits is under test."""
    orders = []

    class Block:
        def to_json(self):
            return "{}"

    def closed_form(m):
        orders.append(m)
        return Block()

    def identity_check(m):
        orders.append(m)
        return True

    monkeypatch.setattr(psd_quartic, "gram_closed_form", closed_form)
    monkeypatch.setattr(psd_quartic, "gram_sos_check", lambda block: None)
    monkeypatch.setattr(psd_quartic, "gram_identity_check", identity_check)
    bound = GRAM_MAX_ORDER[action]
    code, _, err = run_cli(["gram", action, flag, str(bound)])
    assert code == 0 and err == ""
    assert max(orders) == bound


@pytest.mark.parametrize(
    "argv",
    [
        ["sumrule", "report", *POWER, "--m", "40", "--n-list", "8"],
        ["measure", "functional", *POWER, "--n", "8", "--m", "40"],
        ["measure", "weight", *POWER, "--n", "3", "--grid", "64", "--m", "40"],
        ["measure", "moments", *POWER, "--n", "3", "--grid", "64", "--m", "40"],
    ],
    ids=["sumrule", "functional", "weight", "moments"],
)
def test_orders_the_series_holds_run(argv):
    """An order only bounds the commands whose cost or float range needs it."""
    code, out, err = run_cli(argv)
    assert code == 0 and out and err == ""


SUITE_CHECKS = {name: run for build in SUITES.values() for name, run in build()}


@pytest.mark.parametrize("name", list(SUITE_CHECKS))
def test_suite_check_passes(name):
    ok, detail = SUITE_CHECKS[name]()
    assert ok, detail


def test_verify_unknown_suite_exits_2_naming_the_four(capsys):
    assert main(["verify", "--suite", "absorb"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: unknown suite 'absorb'; choose from "
        "['gram', 'normalform', 'measures', 'sumrule'] or 'all'"
    ]


def _double_first_coefficient(from_ideal_expansion):
    def corrupted(decomposition):
        first, *rest = from_ideal_expansion(decomposition)
        return [dataclasses.replace(first, coeff=first.coeff * 2), *rest]

    return corrupted


def _shifted_series(series):
    def corrupted(*args):
        return {key: value + 1e-6 for key, value in series(*args).items()}

    return corrupted


# every suite has a check that one corrupted value fails; a check that cannot
# fail restates a unit test and has no place in `verify`
@pytest.mark.parametrize(
    "suite, module, name, corrupt, failing",
    [
        ("gram", psd_quartic, "gram_closed_form", lambda f: bumped_block, "gram.certify.m2"),
        ("normalform", normal_form, "from_ideal_expansion", _double_first_coefficient,
         "normalform.pointwise.k2.q2"),
        ("measures", measures, "szego_functional_series", _shifted_series,
         "measures.series_oracle"),
        ("sumrule", sum_rule, "log_tail", lambda f: lambda alpha, m: 0.0,
         "sumrule.log_tail_bound"),
    ],
    ids=["gram", "normalform", "measures", "sumrule"],
)
def test_each_suite_fails_on_one_corrupted_value(monkeypatch, suite, module, name, corrupt,
                                                  failing):
    checks = dict(SUITES[suite]())
    assert checks[failing]()[0]
    monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
    ok, detail = checks[failing]()
    assert not ok, detail


class TestConfigErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--config"],
            ["--config", "/nonexistent/opuckit-config.json", "verify"],
            ["--config=/nonexistent/opuckit-config.json", "verify"],
            ["--config=", "verify"],
        ],
        ids=["missing-value", "missing-file", "missing-file-equals-form", "empty-equals-form"],
    )
    def test_exit_2_with_one_error_line(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert "Traceback" not in err and len(errors) == 1
        assert errors[0].startswith("opuckit: error: argument --config")

    def test_unknown_key_exits_2_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gird": 64}))
        with pytest.raises(SystemExit) as info:
            main(["--config", str(cfg), "verify", "--suite", "measures"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert "Traceback" not in err
        assert errors == ["opuckit: error: argument --config: unknown key 'gird'"]

    def test_one_file_scopes_keys_per_subcommand(self, tmp_path, capsys):
        # a flat {"m": "1,2"} made measure functional exit 2 with
        # "invalid int value: '1,2'"; a section per subcommand keeps each
        # --m to its own meaning, and flat keys still reach every subcommand
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sumrule": {"m": "1,2"}, "measure": {"m": 2}, "grid": 256}))
        out = tmp_path / "rows.csv"
        family = ["--family", "constant", "--c", "0.5"]
        args = ["--config", str(cfg), "sumrule", "report", *family, "--n-list", "5"]
        assert main(args + ["--out", str(out)]) == 0
        rows = out.read_text().splitlines()[2:]
        assert [row.split(",")[0] for row in rows] == ["1", "2"]
        sidecar = json.loads((tmp_path / "rows.csv.config.json").read_text())
        assert sidecar["m_list"] == [1, 2] and sidecar["grid_size"] == 256
        capsys.readouterr()
        assert main(["--config", str(cfg), "measure", "functional", *family]) == 0
        val = json.loads(capsys.readouterr().out)
        assert val["m"] == 2 and val["grid"] == 256

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"verify": {"grid": 64}}, "unknown key 'verify.grid'"),
            ({"verify": 64}, "'verify' must hold a JSON object"),
        ],
        ids=["flag-of-another-subcommand", "not-an-object"],
    )
    def test_bad_scoped_section_exits_2(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as info:
            main(["--config", str(cfg), "verify", "--suite", "measures"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert "Traceback" not in err
        assert errors == [f"opuckit: error: argument --config: {message}"]

    @pytest.mark.parametrize(
        "config, argv, message",
        [
            ({"gram": {"m_max": 2.5}}, ["gram", "certify"],
             "opuckit gram: error: argument --m-max: invalid int value: '2.5'"),
            ({"measure": {"m": [1]}}, ["measure", "functional", "--family", "constant", "--c",
                                       "0.5", "--n", "3"],
             "opuckit: error: argument --config: 'measure.m' must be a string or a number"),
            ({"seed": 1.5}, ["generate", "--family", "random", "--n", "3"],
             "opuckit generate: error: argument --seed: invalid int value: '1.5'"),
            ({"m": True}, ["measure", "functional", "--family", "constant", "--c", "0.5"],
             "opuckit: error: argument --config: 'm' must be a string or a number"),
            ({"grid": None}, ["verify", "--suite", "measures"],
             "opuckit: error: argument --config: 'grid' must be a string or a number"),
            ({"grid": {"n": 1}}, ["verify", "--suite", "measures"],
             "opuckit: error: argument --config: 'grid' must be a string or a number"),
        ],
        ids=["scoped-float-int", "scoped-list", "flat-float-int", "boolean", "null", "object"],
    )
    def test_value_the_command_line_cannot_give_exits_2(self, tmp_path, capsys, config, argv,
                                                         message):
        # argparse converts only string defaults, so other JSON values
        # reached the program as they were
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as info:
            main(["--config", str(cfg), *argv])
        assert info.value.code == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert captured.out == "" and "Traceback" not in captured.err
        assert errors == [message]

    def test_number_value_is_given_as_the_command_line_gives_it(self, tmp_path, monkeypatch,
                                                                capsys):
        # {"out": 1} wrote to file descriptor 1 and closed it
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": 1}))
        family = ["--family", "random", "--n", "3"]
        assert main(["--config", str(cfg), "generate", *family]) == 0
        from_config = (tmp_path / "1").read_text()
        assert main(["generate", *family, "--out", "1"]) == 0
        assert capsys.readouterr().out == ""
        assert (tmp_path / "1").read_text() == from_config

    def test_key_of_another_subcommand_is_allowed(self, tmp_path, capsys):
        # --grid and --n-list belong to other subcommands, not to verify
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": 64, "n-list": "10,20"}))
        assert main(["--config", str(cfg), "verify", "--suite", "measures"]) == 0
        assert "checks passed" in capsys.readouterr().out

    def test_equals_form_applies_the_file(self, tmp_path, capsys):
        # --config=FILE was parsed by argparse but never read
        cfg, bad = tmp_path / "cfg.json", tmp_path / "bad.json"
        cfg.write_text(json.dumps({"grid": 256}))
        bad.write_text("[1, 2]")
        out = tmp_path / "rows.csv"
        family = ["--family", "constant", "--c", "0.5", "--n-list", "5"]
        assert main([f"--config={cfg}", "sumrule", "report", *family, "--out", str(out)]) == 0
        assert json.loads((tmp_path / "rows.csv.config.json").read_text())["grid_size"] == 256
        with pytest.raises(SystemExit) as info:
            main([f"--config={bad}", "verify", "--suite", "measures"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == ["opuckit: error: argument --config: expected a JSON object of flag "
                          "defaults"]

    def test_abbreviation_exits_2_with_one_error_line(self, tmp_path, capsys):
        # argparse took --conf for --config, which main never read
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": 256}))
        with pytest.raises(SystemExit) as info:
            main(["--conf", str(cfg), "verify", "--suite", "measures"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert captured.out == "" and "Traceback" not in captured.err and len(errors) == 1


class TestSharedParser:
    """main reuses one parser per process; --config defaults reach only their own call."""

    FAMILY = ["--family", "constant", "--c", "0.5", "--n-list", "5"]

    def sidecar(self, tmp_path, name, *config):
        out = tmp_path / name
        assert main([*config, "sumrule", "report", *self.FAMILY, "--out", str(out)]) == 0
        return json.loads((tmp_path / (name + ".config.json")).read_text())

    def config(self, tmp_path, name, keys):
        path = tmp_path / name
        path.write_text(json.dumps(keys))
        return ["--config", str(path)]

    def test_plain_call_after_a_config_call_has_the_built_in_defaults(self, tmp_path):
        cli._shared_parser.cache_clear()
        cfg = self.config(tmp_path, "cfg.json", {"grid": 256, "m": "2"})
        configured = self.sidecar(tmp_path, "a.csv", *cfg)
        assert configured["grid_size"] == 256 and configured["m_list"] == [2]
        plain = self.sidecar(tmp_path, "b.csv")
        assert plain["grid_size"] == 4096 and plain["m_list"] == [1]

    def test_config_call_after_a_plain_call_leaks_into_no_later_call(self, tmp_path):
        cli._shared_parser.cache_clear()
        before = self.sidecar(tmp_path, "rows.csv")
        cfg = self.config(tmp_path, "cfg.json", {"grid": 256, "m": "2"})
        configured = self.sidecar(tmp_path, "a.csv", *cfg)
        assert configured["grid_size"] == 256 and configured["m_list"] == [2]
        assert self.sidecar(tmp_path, "rows.csv") == before
        assert before["grid_size"] == 4096 and before["m_list"] == [1]

    def test_each_config_call_applies_only_its_own_keys(self, tmp_path):
        first = self.sidecar(tmp_path, "a.csv", *self.config(tmp_path, "a.json", {"grid": 256}))
        second = self.sidecar(tmp_path, "b.csv", *self.config(tmp_path, "b.json", {"m": "2"}))
        assert (first["grid_size"], first["m_list"]) == (256, [1])
        assert (second["grid_size"], second["m_list"]) == (4096, [2])

    def test_call_after_a_parse_error_prints_what_a_fresh_process_prints(self, capsys):
        argv = ["sumrule", "report", "--family", "constant", "--c", "0.5", "--m", "1,2",
                "--n-list", "5,10"]
        with pytest.raises(SystemExit) as info:
            main(["sumrule", "report", "--family", "constant", "--c", "half"])
        assert info.value.code == 2
        capsys.readouterr()
        assert main(argv) == 0
        in_process = capsys.readouterr().out
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        fresh = subprocess.run([sys.executable, "-m", "opuckit.cli", *argv], env=env,
                               capture_output=True, text=True, check=True, timeout=120)
        assert in_process == fresh.stdout

    def test_only_config_calls_build_a_parser_of_their_own(self, tmp_path, monkeypatch):
        built = []

        def counting_build_parser():
            built.append(1)
            return build_parser()

        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._shared_parser.cache_clear()
        for _ in range(3):
            assert main(["verify", "--suite", "measures"]) == 0
        assert len(built) == 1
        cfg = self.config(tmp_path, "cfg.json", {"grid": 256})
        for _ in range(2):
            assert main([*cfg, "verify", "--suite", "measures"]) == 0
        assert len(built) == 3
