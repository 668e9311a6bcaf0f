"""Acceptance suite: one test per criterion, all in exact arithmetic.

Every assertion is an exact rational equality (tolerance zero).  Each test
prints a single PASS line on success (visible with pytest -s) so the suite
doubles as a human-readable acceptance report.
"""

import json
import random

import pytest

from kahlap import radial
from kahlap.catalog import (
    Flat,
    FubiniStudy,
    Hyperbolic,
    Polydisc,
    Product,
    Radial,
    TypeI,
    TypeIDual,
    diagonal_restriction_check,
    dual_potential,
    einstein_catalog_entries,
    potential,
)
from kahlap.cli import main
from kahlap.geometry import metric_from_potential, trace_identity_check
from kahlap.inference import (
    CONSISTENT,
    build_test_family,
    duality_negation_checks,
    laplcube_rows,
    infer,
    third_power_summary,
    verify_property,
)
from kahlap.jets import BiIndex, Jet
from kahlap.laplacian import power_at_origin
from kahlap.rationals import rat
from oracles import (
    fubini_study_profile,
    hyperbolic_profile,
    matrices_agree,
    ricci,
    ricci_contracted,
    third_power_check,
)

EINSTEIN_ENTRIES = [
    (FubiniStudy(1), 2),
    (FubiniStudy(2), 3),
    (FubiniStudy(3), 4),
    (Hyperbolic(1), -2),
    (Hyperbolic(2), -3),
    (Hyperbolic(3), -4),
    (Polydisc(2), -2),
    (TypeI(2, 2), -4),
]


def bi(hol, anti):
    return BiIndex(tuple(hol), tuple(anti))


def mono(dim, order, hol, anti=None):
    return Jet(dim, order, [(bi(hol, anti if anti is not None else hol), 1)])


def z1_fourth(n, order=8):
    return mono(n, order, tuple(2 if k == 0 else 0 for k in range(n)))


def z1z2_sq(n, order=8):
    return mono(n, order, tuple(1 if k < 2 else 0 for k in range(n)))


def run_cli_json(capsys, *argv):
    code = main([*argv, "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def test_criterion_01_flat_baseline(capsys):
    for n in (1, 2):
        code, doc = run_cli_json(
            capsys, "check", f"flat:{n}", "--max-k", "4", "--expect", "consistent"
        )
        assert code == 0
        for v in doc["verdicts"]:
            assert v["status"] == "consistent"
            assert all(a == "0/1" for a in v["p_k"]["lower"])
    print("ACCEPTANCE 01 PASS: flat:1 and flat:2 consistent with p_k = X^k for k <= 4")


def test_criterion_02_einstein_constants(type1_metric_order10):
    for spec, lam in EINSTEIN_ENTRIES:
        order = 10
        m = (
            type1_metric_order10
            if spec == TypeI(2, 2)
            else metric_from_potential(potential(spec, order))
        )
        e = m.einstein
        assert e.is_einstein and e.lam == lam, spec.label()
        assert e.checked_degree >= 6  # Ric - lam*g vanishes as jets through 6
        # the log-determinant and contraction Ricci routes agree through
        # their common validity
        r1 = ricci(m)
        r2 = ricci_contracted(m, cap=4)
        assert matrices_agree(r1, r2, 4), spec.label()
    print(
        "ACCEPTANCE 02 PASS: Einstein constants fs:n=n+1, hyp:n=-(n+1), "
        "polydisc:2=-2, type1:2,2=-4; Ric-lambda*g = 0 through degree 6; "
        "log-determinant (Jacobi) and contraction Ricci routes agree exactly"
    )


def test_criterion_03_second_power_polynomial():
    for spec, lam in EINSTEIN_ENTRIES:
        m = metric_from_potential(potential(spec, 6))
        v = infer(m, 2, build_test_family(spec.dim, 2))
        assert v.status == CONSISTENT and v.polynomial.lower == (lam,), spec.label()
    print("ACCEPTANCE 03 PASS: inferred p_2 = X^2 + lambda*X on all 8 Einstein entries")


def test_criterion_04_trace_identity():
    for spec, lam in EINSTEIN_ENTRIES:
        tc = trace_identity_check(metric_from_potential(potential(spec, 6)))
        assert tc.passed and tc.lam == lam, spec.label()
    tc = trace_identity_check(
        metric_from_potential(potential(Product(Flat(1), Hyperbolic(1)), 6))
    )
    assert not tc.is_einstein and not tc.passed
    assert [[str(v) for v in row] for row in tc.matrix] == [["0", "0"], ["0", "-2"]]
    print(
        "ACCEPTANCE 04 PASS: sum_h d_h dbar_h g_inv(0) = lambda*I on Einstein "
        "entries; product(flat:1,hyp:1) gives diag(0,-2) and is flagged non-Einstein"
    )


def test_criterion_05_z1_fourth_magnitude():
    cases = [
        (Hyperbolic(1), -2, -40),
        (Hyperbolic(2), -3, None),
        (FubiniStudy(1), 2, 40),
        (Polydisc(2), -2, -40),
    ]
    signs = {}
    for spec, lam, pinned in cases:
        m = metric_from_potential(potential(spec, 8))
        assert m.einstein.lam == lam
        d3 = power_at_origin(m, z1_fourth(spec.dim), 3)
        if pinned is not None:
            assert d3 == pinned, spec.label()
        dev = d3 - 12 * lam
        assert dev == 16 or dev == -16, spec.label()
        signs[spec.label()] = 1 if dev > 0 else -1
    assert signs["fs:1"] == 1  # compact type
    assert signs["hyp:1"] == signs["hyp:2"] == signs["polydisc:2"] == -1  # noncompact
    print(
        "ACCEPTANCE 05 PASS: |D^3(|z1|^4)(0) - 12*lambda| = 16 on hyp:1 (-40), "
        f"hyp:2, fs:1 (+40), polydisc:2 (-40); recorded signs {signs}"
    )


def test_criterion_06_z1z2_square_value(type1_metric_order8):
    for spec, expected in ((Polydisc(2), -12), (TypeI(2, 2), -24)):
        m = (
            type1_metric_order8
            if spec == TypeI(2, 2)
            else metric_from_potential(potential(spec, 8))
        )
        s = third_power_summary(m)
        assert s.d3_z1z2_sq == expected == 6 * s.lam, spec.label()
        assert s.cross_terms is not None and s.cross_terms.total == 0
        assert s.cross_terms.all_zero  # observed: vanishing is term by term
    print(
        "ACCEPTANCE 06 PASS: D^3(|z1 z2|^2)(0) = 6*lambda on polydisc:2 (-12) and "
        "type1:2,2 (-24); all four cross-derivative terms are individually zero"
    )


def test_criterion_07_refutations(capsys):
    code, doc = run_cli_json(
        capsys, "check", "polydisc:2", "--max-k", "3", "--expect", "refuted-at:3"
    )
    assert code == 0
    w = doc["verdicts"][2]["witness"]
    assert (w["first"]["hol"], w["second"]["hol"]) == ([2, 0], [1, 1])

    code, doc = run_cli_json(
        capsys, "check", "type1:2,2", "--max-k", "3", "--expect", "refuted-at:3"
    )
    assert code == 0
    w = doc["verdicts"][2]["witness"]
    assert (w["first"]["hol"], w["second"]["hol"]) == ([2, 0, 0, 0], [1, 1, 0, 0])
    assert w["first"]["kahler_value"] == "-64/1"
    assert w["second"]["kahler_value"] == "-24/1"

    code, doc = run_cli_json(
        capsys,
        "check",
        "product(flat:1,hyp:1)",
        "--max-k",
        "2",
        "--expect",
        "refuted-at:2",
    )
    assert code == 0
    w = doc["verdicts"][1]["witness"]
    assert (w["first"]["hol"], w["second"]["hol"]) == ([1, 0], [0, 1])
    print(
        "ACCEPTANCE 07 PASS: polydisc:2 and type1:2,2 refuted at k=3 with witness "
        "(|z1|^4, |z1 z2|^2); product(flat:1,hyp:1) refuted at k=2 with "
        "(|z1|^2, |z2|^2)"
    )


def test_criterion_08_third_power_expansion(type1_metric_order8):
    pairs = 0
    for spec, _ in EINSTEIN_ENTRIES:
        m = (
            type1_metric_order8
            if spec == TypeI(2, 2)
            else metric_from_potential(potential(spec, 8))
        )
        family = laplcube_rows(spec.dim)
        for index in map(family.index, range(len(family))):
            chk = third_power_check(m, Jet(spec.dim, m.order, [(index, 1)]))
            assert chk.passed, (spec.label(), index.text(), chk.lhs, chk.rhs)
            pairs += 1
    assert pairs >= 40
    print(
        f"ACCEPTANCE 08 PASS: direct D^3 equals the expanded origin formula on "
        f"{pairs} (metric, monomial) pairs, exactly"
    )


def test_criterion_09_duality():
    checked = 0
    for spec in (Hyperbolic(1), FubiniStudy(1), Hyperbolic(2), TypeI(2, 2)):
        n = min(spec.dim, 2)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                [chk] = duality_negation_checks(potential(spec, 8), [(i, j)])
                assert chk.passed, (spec.label(), i, j)
                checked += 1
    # dual_potential is an involution and maps catalog entries to their duals
    for spec in (Hyperbolic(2), FubiniStudy(2), Polydisc(2), TypeI(2, 2), TypeIDual(2, 2)):
        phi = potential(spec, 8)
        assert dual_potential(dual_potential(phi)) == phi
    assert potential(TypeIDual(2, 2), 8) == dual_potential(potential(TypeI(2, 2), 8))
    print(
        f"ACCEPTANCE 09 PASS: D^3(|z_i z_j|^2)(0) negates under duality on "
        f"{checked} (entry, i, j) cases; dual transform is an involution"
    )


def test_criterion_10_diagonal_restriction():
    for p, q in ((2, 2), (2, 3)):
        rc = diagonal_restriction_check(p, q, 8)
        assert rc.potential_matches and rc.metric_matches, (p, q)
    print(
        "ACCEPTANCE 10 PASS: diagonal pullback of type1:2,2 and type1:2,3 equals "
        "the polydisc:2 potential coefficient-for-coefficient through order 8, "
        "with matching metrics"
    )


def test_criterion_11_radial_profiles():
    rng = random.Random(2024)
    for trial in range(20):
        coeffs = [rat(1)] + [
            rat(rng.randint(-6, 6), rng.randint(1, 5))
            for _ in range(rng.randint(1, 5))
        ]
        for n in (1, 2):
            rep = verify_property(Radial(tuple(coeffs), n), 4)
            assert rep.all_consistent, (trial, n, coeffs)
    rep = verify_property(Hyperbolic(1), 3)
    assert rep.verdicts[2].polynomial.lower == (8, -10)  # X^3 - 10 X^2 + 8 X
    # the inferred polynomial's defining values agree with the radial oracle
    table = radial.power_table(hyperbolic_profile(4), 1, 4)
    engine = metric_from_potential(potential(Hyperbolic(1), 10))
    for m in range(1, 5):
        phi = mono(1, 10, (m,))
        for k in range(1, 5):
            assert table[m - 1][k - 1] == power_at_origin(engine, phi, k)
    print(
        "ACCEPTANCE 11 PASS: 20 seeded radial profiles consistent through k=4 in "
        "n=1 and n=2; hyp:1 infers p_3 = X^3 - 10*X^2 + 8*X, oracle-confirmed"
    )


def test_criterion_12_engine_vs_oracle():
    checks = 0
    for profile, spec in (
        (hyperbolic_profile(4), Hyperbolic(1)),
        (fubini_study_profile(4), FubiniStudy(1)),
    ):
        table = radial.power_table(profile, 1, 4)
        engine = metric_from_potential(potential(spec, 10))
        for m in range(1, 5):
            phi = mono(1, 10, (m,))
            for k in range(1, 5):
                assert table[m - 1][k - 1] == power_at_origin(
                    engine, phi, k
                ), (spec.label(), m, k)
                checks += 1
    print(
        f"ACCEPTANCE 12 PASS: univariate radial oracle equals the multivariate "
        f"engine on fs:1 and hyp:1 for all {checks} (m, k) monomial powers"
    )
