import functools
import hashlib
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opuckit.psd_quartic import (
    GramBlock,
    PsdCertificate,
    gram_closed_form,
    gram_identity_check,
    gram_sos_check,
    multi_indices,
    multinomial,
    pm_polynomial,
    psd_certificate,
)
from opuckit.shift_algebra import ShiftPolynomial

from helpers import bumped_block, gram_quadrature, raw_m2_failure_exhibit


def pm_integral_oracle(m, u, v, t, nodes=None):
    """Float oracle: the double-integral form of P_m via Gauss-Legendre."""
    if nodes is None:
        nodes = 2 * m
    x, w = np.polynomial.legendre.leggauss(nodes)
    lam = (x + 1) / 2
    wts = w / 2
    L, M = np.meshgrid(lam, lam, indexing="ij")
    W2 = np.outer(wts, wts)
    integrand = (t + L * (u - t) + M * (v - t)) ** (2 * m - 2)
    return m * (2 * m - 1) / math.comb(2 * m, m) * float(np.sum(W2 * integrand))


def raw_quotient(m, u, v, t):
    num = (u + v - t) ** (2 * m) + t ** (2 * m) - u ** (2 * m) - v ** (2 * m)
    return num / (2 * math.comb(2 * m, m) * (u - t) * (v - t))


@functools.lru_cache(maxsize=None)
def gram_entries_oracle(m):
    """Gram entries from the double binomial sum, entry by entry over Fraction."""
    idx = multi_indices(m)
    pref = Fraction(m * (2 * m - 1), math.comb(2 * m, m))
    rows = []
    for a in idx:
        row = []
        for b in idx:
            A, B, C = a[0] + b[0], a[1] + b[1], a[2] + b[2]
            acc = Fraction(0)
            for p in range(B + 1):
                for q in range(C + 1):
                    term = Fraction(
                        math.comb(B, p) * math.comb(C, q),
                        (p + q + 1) * (A + C - q + 1),
                    )
                    if (p + q) % 2:
                        acc -= term
                    else:
                        acc += term
            row.append(pref * multinomial(m - 1, a) * multinomial(m - 1, b) * acc)
        rows.append(tuple(row))
    return tuple(rows)


def ldlt_oracle(matrix):
    """LDL^T with diagonal pivoting, one Fraction operation at a time.

    The largest remaining diagonal entry (the first one among ties) is
    eliminated; a negative one refutes PSD; a zero maximum requires the
    remaining block to vanish.
    """
    mat = [[Fraction(c) for c in row] for row in matrix]
    remaining = list(range(len(mat)))
    pivots = []
    permutation = []
    while remaining:
        piv = max(remaining, key=lambda r: mat[r][r])
        d = mat[piv][piv]
        if d < 0:
            pivots.append(d)
            permutation.append(piv)
            return PsdCertificate(
                False, tuple(pivots), tuple(permutation), f"negative pivot {d} at index {piv}"
            )
        if d == 0:
            for r in remaining:
                for c in remaining:
                    if mat[r][c] != 0:
                        return PsdCertificate(
                            False,
                            tuple(pivots),
                            tuple(permutation),
                            f"zero diagonal with nonzero entry at ({r},{c})",
                        )
            pivots += [Fraction(0)] * len(remaining)
            permutation += remaining
            break
        pivots.append(d)
        permutation.append(piv)
        remaining.remove(piv)
        for r in remaining:
            factor = mat[r][piv] / d
            if factor:
                for c in remaining:
                    mat[r][c] -= factor * mat[piv][c]
    return PsdCertificate(True, tuple(pivots), tuple(permutation))


def pm_power_oracle(m):
    """Whether 2 C(2m, m) P_m (u-t)(v-t) = (u+v-t)^{2m} + t^{2m} - u^{2m} - v^{2m}.

    Both sides are expanded in the shift-variable ring with u = x_1, v = x_2
    and t = y_1, and compared exactly.
    """
    u, v, t = ShiftPolynomial.x(2, 1), ShiftPolynomial.x(2, 2), ShiftPolynomial.y(2, 1)
    p = ShiftPolynomial(2, {(i, j, l, 0): c for (i, j, l), c in pm_polynomial(m).items()})
    numerator = (u + v - t) ** (2 * m) + t ** (2 * m) - u ** (2 * m) - v ** (2 * m)
    return p * (u - t) * (v - t) * (2 * math.comb(2 * m, m)) == numerator


def pm_value(p, u, v, t):
    """P_m at (u, v, t) from its coefficient dict."""
    return sum(c * u**i * v**j * t**l for (i, j, l), c in p.items())


def random_gram_matrices(seed=77, trials=25):
    """The B^T B matrices of the eigenvalue-oracle test and their downward shifts."""
    rng = random.Random(seed)
    out = []
    for _ in range(trials):
        n = rng.randint(2, 6)
        B = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(rng.randint(1, n))
        ]
        gram = [[sum(row[i] * row[j] for row in B) for j in range(n)] for i in range(n)]
        eigs = np.linalg.eigvalsh(np.array([[float(c) for c in r] for r in gram]))
        top = Fraction(int(np.ceil(eigs.max() * 2 + 1)))
        shifted = [[gram[i][j] - (top if i == j else 0) for j in range(n)] for i in range(n)]
        out += [gram, shifted]
    return out


class TestMultiIndices:
    def test_count_is_triangular(self):
        for m in range(1, 11):
            idx = multi_indices(m)
            assert len(idx) == math.comb(m + 1, 2)
            assert all(sum(a) == m - 1 for a in idx)

    def test_ordering_frozen(self):
        assert multi_indices(2) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert multi_indices(3)[:3] == [(2, 0, 0), (1, 1, 0), (1, 0, 1)]


class TestPmPolynomial:
    def test_m1_is_half(self):
        # numerator expands to 2(u-t)(v-t); quotient 2 / (2 C(2,1)) = 1/2
        p = pm_polynomial(1)
        assert p == {(0, 0, 0): Fraction(1, 2)}

    def test_m2_degree_and_values(self):
        p = pm_polynomial(2)
        assert {sum(e) for e in p} == {2}
        # compare against the integral oracle at several points
        for u, v, t in ((1.0, 1.0, 0.0), (0.7, -0.4, 0.2), (2.0, 3.0, -1.0)):
            assert float(pm_value(p, Fraction(u), Fraction(v), Fraction(t))) == pytest.approx(
                pm_integral_oracle(2, u, v, t), rel=1e-12
            )

    def test_matches_raw_quotient_off_singular_set(self):
        for m in (1, 2, 3, 4):
            p = pm_polynomial(m)
            for u, v, t in ((1.3, -0.7, 0.4), (2.0, 0.5, -1.5)):
                assert float(pm_value(p, Fraction(u), Fraction(v), Fraction(t))) == pytest.approx(
                    raw_quotient(m, u, v, t), rel=1e-10
                )

    def test_removable_singularity_richardson(self):
        # the polynomial value at u = t equals the limit of the raw quotient
        m, v, t = 3, 0.8, 0.3
        p = pm_polynomial(m)
        exact = float(pm_value(p, Fraction(t), Fraction(v), Fraction(t)))
        for k in (3, 4, 5, 6):
            h = 10.0**-k
            centered = (raw_quotient(m, t + h, v, t) + raw_quotient(m, t - h, v, t)) / 2
            assert centered == pytest.approx(exact, rel=10.0 ** (-2 * k + 3) + 1e-9)

    def test_symmetry_in_u_v(self):
        for m in (1, 2, 3, 5):
            p = pm_polynomial(m)
            swapped = {(j, i, l): c for (i, j, l), c in p.items()}
            assert swapped == p

    def test_homogeneity(self):
        for m in (1, 2, 4, 6):
            assert {sum(e) for e in pm_polynomial(m)} <= {2 * m - 2}

    def test_golden_digest(self):
        text = "".join(
            f"{m} {e} {c}\n" for m in range(1, 13) for e, c in sorted(pm_polynomial(m).items())
        )
        assert (
            hashlib.sha256(text.encode()).hexdigest()
            == "4f876299e0b74b355a92ee676af14a9cb9a32bc16c750e86559041753a871173"
        )


class TestGram:
    def test_m1_block(self):
        block = gram_closed_form(1)
        assert block.entries == ((Fraction(1, 2),),)

    def test_m2_hand_checked_entries(self):
        # diagonal entries integrate mu^2, (lam-1)^2, (lam-mu)^2 with
        # prefactor m(2m-1)/C(2m,m) = 1
        block = gram_closed_form(2)
        assert block.entries[0][0] == Fraction(1, 3)
        assert block.entries[1][1] == Fraction(1, 3)
        assert block.entries[2][2] == Fraction(1, 6)

    def test_quadrature_agreement(self):
        for m in range(1, 7):
            exact = gram_closed_form(m)
            numeric = gram_quadrature(m)
            dev = max(
                abs(float(exact.entries[i][j]) - numeric[i][j])
                for i in range(exact.dim)
                for j in range(exact.dim)
            )
            assert dev <= 1e-10

    def test_quadrature_node_floor(self):
        with pytest.raises(ValueError):
            gram_quadrature(4, nodes=3)

    def test_identity_small_orders(self):
        for m in (1, 2, 3, 4):
            assert gram_identity_check(m)

    def test_json_round_trip(self):
        block = gram_closed_form(3)
        obj = json.loads(block.to_json())
        assert obj["m"] == block.m and obj["order"] == "grlex"
        assert isinstance(obj["entries"][0][0], str)
        assert [[Fraction(c) for c in row] for row in obj["entries"]] == [
            list(row) for row in block.entries
        ]

    def test_dimension_validated(self):
        with pytest.raises(ValueError, match=r"^dimension 1 != C\(m\+1, 2\) = 3$"):
            GramBlock(m=2, entries=((Fraction(1),),))

    def test_ragged_rows_are_refused(self):
        # a short last row once raised IndexError in the symmetry scan
        with pytest.raises(ValueError, match="square"):
            GramBlock(m=2, entries=((1, 2, 3), (2, 5, 6), (3,)))
        with pytest.raises(ValueError, match="square"):
            GramBlock(m=2, entries=((1, 2), (2, 5, 6), (3, 6, 7)))

    @pytest.mark.parametrize(
        "bumped, first", [((0, 1), (0, 1)), ((1, 0), (0, 1)), ((2, 1), (1, 2)), ((0, 2), (0, 2))]
    )
    def test_asymmetry_names_its_first_pair_in_row_major_order(self, bumped, first):
        rows = [list(row) for row in gram_closed_form(2).entries]
        rows[bumped[0]][bumped[1]] += Fraction(1, 7)
        with pytest.raises(ValueError, match=rf"^asymmetric at \({first[0]},{first[1]}\)$"):
            GramBlock(m=2, entries=tuple(tuple(row) for row in rows))

    def test_rows_given_as_lists_are_accepted(self):
        block = gram_closed_form(3)
        assert GramBlock(m=3, entries=[list(row) for row in block.entries]).dim == 6


class TestPsdCertificate:
    def test_scalar(self):
        cert = psd_certificate([[Fraction(1, 2)]])
        assert cert.certified and cert.pivots == (Fraction(1, 2),)

    def test_gram_blocks_certified(self):
        for m in (1, 2, 3, 4, 5):
            cert = psd_certificate(gram_closed_form(m))
            assert cert.certified
            assert all(p >= 0 for p in cert.pivots)

    def test_known_indefinite(self):
        cert = psd_certificate([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]])
        assert not cert.certified
        assert cert.pivots[-1] == Fraction(-3)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            psd_certificate([[Fraction(1), Fraction(2)], [Fraction(1), Fraction(1)]])

    def test_rejects_ragged_rows(self):
        # a short last row used to end in an IndexError from the symmetry scan
        with pytest.raises(ValueError, match="square"):
            psd_certificate([[1, 2, 3], [2, 5, 6], [3]])

    def test_zero_matrix_certified(self):
        cert = psd_certificate([[Fraction(0)] * 2 for _ in range(2)])
        assert cert.certified and cert.pivots == (Fraction(0), Fraction(0))

    def test_singular_psd(self):
        cert = psd_certificate([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])
        assert cert.certified
        assert cert.pivots == (Fraction(1), Fraction(0))

    def test_zero_diagonal_indefinite(self):
        cert = psd_certificate([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
        assert not cert.certified

    def test_negative_diagonal(self):
        cert = psd_certificate([[Fraction(-1)]])
        assert not cert.certified and cert.pivots == (Fraction(-1),)

    def test_against_eigenvalue_oracle(self):
        # random rational matrices with known definiteness: B^T B is PSD by
        # construction; shifting it down past its largest eigenvalue is not.
        # The float eigensolve is the independent cross-check.
        import random

        rng = random.Random(77)
        for trial in range(25):
            n = rng.randint(2, 6)
            B = [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(rng.randint(1, n))
            ]
            gram = [
                [sum(row[i] * row[j] for row in B) for j in range(n)]
                for i in range(n)
            ]
            cert = psd_certificate(gram)
            assert cert.certified, f"trial {trial}: B^T B must certify"
            eigs = np.linalg.eigvalsh(np.array([[float(c) for c in r] for r in gram]))
            assert eigs.min() >= -1e-9
            top = Fraction(int(np.ceil(eigs.max() * 2 + 1)))
            shifted = [
                [gram[i][j] - (top if i == j else 0) for j in range(n)]
                for i in range(n)
            ]
            assert not psd_certificate(shifted).certified


class TestGramSos:
    def test_agrees_with_bareiss(self):
        for m in range(1, 13):
            block = gram_closed_form(m)
            assert psd_certificate(block).certified
            assert gram_sos_check(m, block) is None

    def test_holds_to_m16(self):
        for m in range(13, 17):
            assert gram_sos_check(m, gram_closed_form(m)) is None

    def test_rejects_a_bumped_pair(self):
        for m in (2, 3, 6):
            assert gram_sos_check(m, bumped_block(m)) == (
                "entry (0,1) differs from pref*B^T*D*B"
            )

    def test_rejects_a_doubled_block(self):
        # still PSD, but not the moment matrix
        block = gram_closed_form(4)
        doubled = GramBlock(m=4, entries=tuple(tuple(2 * c for c in row) for row in block.entries))
        assert psd_certificate(doubled).certified
        assert gram_sos_check(4, doubled) == "entry (0,0) differs from pref*B^T*D*B"

    def test_rejects_a_block_of_another_order(self):
        with pytest.raises(ValueError, match="dimension"):
            gram_sos_check(4, gram_closed_form(3))


CERTIFICATE_CASES = [
    [[Fraction(1, 2)]],
    [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]],
    [[Fraction(0)] * 2 for _ in range(2)],
    [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]],
    [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]],
    [[Fraction(-1)]],
]


@st.composite
def symmetric_rationals(draw):
    """B^T B (rank-deficient when B has fewer rows than columns), B^T B - sI,
    or a symmetric matrix with zero diagonal; dimension <= 6."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("gram", "shifted", "zero_diagonal")))
    rational = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    if kind == "zero_diagonal":
        upper = {(i, j): draw(rational) for i in range(n) for j in range(i + 1, n)}
        return [
            [Fraction(0) if i == j else upper[min(i, j), max(i, j)] for j in range(n)]
            for i in range(n)
        ]
    rows = draw(st.integers(1, n))
    B = [[draw(rational) for _ in range(n)] for _ in range(rows)]
    gram = [[sum(r[i] * r[j] for r in B) for j in range(n)] for i in range(n)]
    if kind == "shifted":
        shift = draw(st.builds(Fraction, st.integers(1, 40), st.integers(1, 4)))
        for i in range(n):
            gram[i][i] -= shift
    return gram


def assert_same_certificate(cert, oracle):
    assert cert.certified == oracle.certified
    assert cert.pivots == oracle.pivots
    assert all(type(p) is Fraction for p in cert.pivots)
    assert cert.permutation == oracle.permutation
    assert cert.failure == oracle.failure


class TestIntegerGramPath:
    """The integer routines against the Fraction computations they replace."""

    def test_entries_equal_the_per_entry_sum(self):
        for m in range(1, 11):
            block = gram_closed_form(m)
            assert block.entries == gram_entries_oracle(m)
            assert all(type(c) is Fraction for row in block.entries for c in row)

    def test_golden_digest(self):
        text = "".join(gram_closed_form(m).to_json() + "\n" for m in range(1, 13))
        assert (
            hashlib.sha256(text.encode()).hexdigest()
            == "102d8376ce5254fe39c6fa193099e08c4378bacfccfe752e53453d09de784cdf"
        )

    def test_gram_certificates_equal_the_fraction_ldlt(self):
        for m in range(1, 11):
            assert_same_certificate(
                psd_certificate(gram_closed_form(m)), ldlt_oracle(gram_entries_oracle(m))
            )

    def test_fixed_certificates_equal_the_fraction_ldlt(self):
        for matrix in CERTIFICATE_CASES + random_gram_matrices():
            assert_same_certificate(psd_certificate(matrix), ldlt_oracle(matrix))

    def test_identity_check_detects_a_perturbed_side(self, monkeypatch):
        from opuckit import psd_quartic

        pm = pm_polynomial(3)
        halved = {e: c / 2 for e, c in pm.items()}
        monkeypatch.setattr(psd_quartic, "pm_polynomial", lambda m: halved)
        assert not gram_identity_check(3)
        bumped_pm = {**pm, (4, 0, 0): pm.get((4, 0, 0), 0) + 1}
        monkeypatch.setattr(psd_quartic, "pm_polynomial", lambda m: bumped_pm)
        assert not gram_identity_check(3)
        bumped = bumped_block(3)
        monkeypatch.setattr(psd_quartic, "pm_polynomial", lambda m: pm)
        monkeypatch.setattr(psd_quartic, "gram_closed_form", lambda m: bumped)
        assert not gram_identity_check(3)

    def test_pm_polynomial_times_its_divisor_is_the_numerator(self):
        for m in range(1, 9):
            assert pm_power_oracle(m)

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(matrix=symmetric_rationals())
    def test_certificate_property(self, matrix):
        assert_same_certificate(psd_certificate(matrix), ldlt_oracle(matrix))


class TestRawExhibit:
    def test_documented_constants(self):
        ex = raw_m2_failure_exhibit()
        assert ex.entries == (
            (Fraction(5, 6), Fraction(5, 12)),
            (Fraction(1, 2), Fraction(1, 12)),
        )

    def test_symmetry_fails(self):
        ex = raw_m2_failure_exhibit()
        assert not ex.is_symmetric
        assert ex.asymmetry == (Fraction(5, 12), Fraction(1, 2))

    def test_symmetrized_eigenvalue_report(self):
        ex = raw_m2_failure_exhibit()
        (a, b), (c, d) = ex.entries
        sym = np.array([[float(a), float((b + c) / 2)], [float((b + c) / 2), float(d)]])
        eigs = np.linalg.eigvalsh(sym)
        # informational: the symmetrization is indefinite (det = -9/64)
        assert min(eigs) < 0 < max(eigs)
        prod = eigs[0] * eigs[1]
        assert prod == pytest.approx(-9 / 64, rel=1e-12)
