"""End-to-end CLI contract: exit codes, document schema, determinism."""

import ast
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
import textwrap
import tokenize
from pathlib import Path

import pytest

from kahlap import catalog, laplacian, report
from kahlap.catalog import parse_spec
from kahlap.cli import main
from kahlap.inference import laplcube_rows
from kahlap.jets import _pack_bi


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


# ----------------------------------------------------------------------
# exit codes


def test_check_expectation_met(capsys):
    code, out, _ = run(capsys, "check", "hyp:1", "--max-k", "3", "--expect", "consistent")
    assert code == 0
    assert "X^3 - 10*X^2 + 8*X" in out


def test_check_expectation_mismatch(capsys):
    code, out, _ = run(capsys, "check", "flat:2", "--max-k", "4", "--expect", "refuted-at:2")
    assert code == 2
    assert "MISMATCH" in out


def test_check_unknown_spec_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "banana:3")
    assert code == 1 and "banana" in err


def test_check_order_too_small_reports_minimum(capsys):
    code, _, err = run(capsys, "check", "hyp:1", "--max-k", "3", "--order", "6")
    assert code == 1 and "8" in err


@pytest.mark.parametrize("spec", ["type1:0,2", "type1:-1,-2", "type1dual:0,1"])
def test_check_nonpositive_matrix_dimensions_are_usage_errors(capsys, spec):
    code, _, err = run(capsys, "check", spec)
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "spec,atom",
    [
        ("radial:1,1/0:1", "radial:1,1/0:1"),
        ("product(hyp:1,radial:1/0:1)", "radial:1/0:1"),
    ],
)
def test_check_zero_denominator_is_usage_error(capsys, spec, atom):
    code, _, err = run(capsys, "check", spec)
    assert code == 1
    assert err == f"error: bad spec {atom!r}: zero denominator\n"


@pytest.mark.parametrize(
    "spec,line",
    [
        ("radial:0,1:1", "degenerate metric at origin"),
        ("radial:-1:1", "metric not positive definite at origin"),
        (
            "radial:2:1",
            "catalog entry rejected by self-check: radial:2:1 is not "
            "normalized at the origin (g[1][1](0) != 1)",
        ),
    ],
)
def test_check_non_normal_radial_is_construction_error(capsys, spec, line):
    code, _, err = run(capsys, "check", spec)
    assert code == 1
    assert err == f"error: {line}\n"


def test_bad_expect_value(capsys):
    code, _, err = run(capsys, "check", "hyp:1", "--expect", "perhaps")
    assert code == 1


@pytest.mark.parametrize(
    "argv,err",
    [
        # a malformed --expect is read after the cheap checks and before the
        # build, so type3:2 gives the usage error, not its gate's rejection
        ("check type1:4,4 --max-k 3 --expect perhaps", "usage error: bad --expect value 'perhaps'"),
        ("check type3:2 --expect perhaps", "usage error: bad --expect value 'perhaps'"),
        ("check hyp:1 --expect refuted-at:x", "usage error: bad --expect value 'refuted-at:x'"),
        # a bad spec, max_k or order is still reported first
        ("check nope:1 --expect perhaps", "error: unknown spec 'nope:1'"),
        ("check hyp:1 --max-k 0 --expect perhaps", "error: max_k must be >= 1"),
        ("check hyp:1 --max-k 15 --expect perhaps", "error: max_k=15 needs order 32; orders must be in 0..31"),
        ("check hyp:1 --max-k 2 --order 5 --expect perhaps", "error: order 5 too small for max_k=2; need >= 6"),
    ],
)
def test_bad_settings_exit_before_the_build(monkeypatch, capsys, argv, err):
    def build(*args):
        raise AssertionError("the potential was built")

    monkeypatch.setattr(catalog, "potential", build)
    assert run(capsys, *shlex.split(argv)) == (1, "", err + "\n")


def test_unknown_command(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


# ----------------------------------------------------------------------
# document schema


def test_check_json_schema(capsys):
    code, doc, _ = run_json(
        capsys, "check", "polydisc:2", "--max-k", "3", "--expect", "refuted-at:3"
    )
    assert code == 0
    assert doc["version"] and doc["command"] == "check"
    assert doc["config"]["spec"] == "polydisc:2"
    assert doc["config"]["order"] == 8
    assert doc["einstein"] == {
        "is_einstein": True,
        "lambda": "-2/1",
        "checked_degree": 4,
    }
    statuses = [v["status"] for v in doc["verdicts"]]
    assert statuses == ["consistent", "consistent", "refuted"]
    w = doc["verdicts"][2]["witness"]
    assert w["first"]["hol"] == [2, 0] and w["second"]["hol"] == [1, 1]
    assert w["first"]["kahler_value"] == "-40/1"
    assert doc["reproduction"]["d3_z1z2_sq"] == "-12/1"
    assert isinstance(doc["timing_ms"], int)


def test_rationals_serialized_as_p_over_q(capsys):
    _, doc, _ = run_json(capsys, "check", "hyp:1", "--max-k", "2")
    lam = doc["einstein"]["lambda"]
    num, den = lam.split("/")
    assert int(num) == -2 and int(den) == 1
    for v in doc["verdicts"]:
        for a in v.get("p_k", {}).get("lower", []):
            num, den = a.split("/")
            assert int(den) >= 1  # canonical p/q with positive denominator


def test_check_radial_spec_end_to_end(capsys):
    code, out, _ = run(
        capsys, "check", "radial:1,1/2:1", "--max-k", "3", "--expect", "consistent"
    )
    assert code == 0 and "consistent" in out


def test_invariant_spec_that_is_no_space_form_is_consistent_at_every_order(capsys):
    # the documented example: F(t) = t + t^2/2 on C^2 is U(n)-invariant, so
    # every order is consistent by symmetry, though the metric is not
    # Einstein and so, by the paper, has no Delta-property
    code, doc, _ = run_json(
        capsys, "check", "radial:1,1/2:2", "--max-k", "5", "--expect", "consistent"
    )
    assert code == 0
    assert [v["status"] for v in doc["verdicts"]] == ["consistent"] * 5
    assert doc["einstein"]["is_einstein"] is False


def test_check_dual_spec(capsys):
    code, _, _ = run(
        capsys, "check", "dual(hyp:1)", "--max-k", "3", "--expect", "consistent"
    )
    assert code == 0


def test_check_optional_type4_refutes(capsys):
    # rank-two optional entry: passes its Einstein gate, then refutes at k=3
    code, doc, _ = run_json(
        capsys, "check", "type4:2", "--max-k", "3", "--expect", "refuted-at:3"
    )
    assert code == 0
    assert doc["einstein"] == {
        "is_einstein": True,
        "lambda": "-4/1",
        "checked_degree": 4,
    }


def test_check_gated_entry_is_construction_error(capsys):
    code, _, err = run(capsys, "check", "type3:2", "--max-k", "2")
    assert code == 1 and "self-check" in err


def test_check_determinism_modulo_timing(capsys):
    # a consistent run on the family route, whose re-check reads no seed:
    # the documents differ only in the echoed config.seed
    docs = []
    for seed in ("0", "7"):
        _, doc, _ = run_json(capsys, "check", "type1:2,2", "--max-k", "2", "--seed", seed)
        assert doc["config"].pop("seed") == int(seed)
        doc["timing_ms"] = 0
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]


def test_reproduce_json_schema(capsys):
    code, doc, _ = run_json(capsys, "reproduce", "lemma")
    assert code == 0 and doc["passed"]
    assert [inst["pair"] for inst in doc["instances"]] == ["(1,1)", "(2,2)", "(2,3)"]


def test_reproduce_laplcube_end_to_end(capsys):
    code, doc, _ = run_json(capsys, "reproduce", "laplcube")
    assert code == 0 and doc["passed"]
    checked = {inst["spec"]: inst["pairs_checked"] for inst in doc["instances"]}
    assert checked == {
        "fs:1": 2, "fs:2": 13, "fs:3": 33,
        "hyp:1": 2, "hyp:2": 13, "hyp:3": 33,
        "polydisc:2": 13, "type1:2,2": 62,
    }
    assert all(inst["failures"] == [] for inst in doc["instances"])


def test_laplcube_reports_a_perturbed_weight_at_its_row(capsys, monkeypatch):
    # one wrong weight per metric: the expanded side reads the weights, the
    # direct side does not, so exactly that row fails, under its name
    real = laplacian._third_power_weights

    def middle_row(n):
        family, positions = laplcube_rows(n)
        return family.index(positions[len(positions) // 2])

    def perturbed(m):
        weights = dict(real(m))
        key = _pack_bi(middle_row(m.dim))
        weights[key] = weights.get(key, 0) + 1
        return weights

    monkeypatch.setattr(laplacian, "_third_power_weights", perturbed)
    code, doc, _ = run_json(capsys, "reproduce", "laplcube")
    assert code == 2 and not doc["passed"]
    for inst in doc["instances"]:
        assert inst["failures"] == [middle_row(parse_spec(inst["spec"]).dim).text()]
        assert not inst["passed"]


def test_laplcube_rows_are_the_balanced_two_variable_family_rows():
    counts = [len(laplcube_rows(n)[1]) for n in range(1, 7)]
    assert counts == [2, 13, 33, 62, 100, 147]
    family, positions = laplcube_rows(2)
    assert [family.index(pos).text() for pos in positions] == [
        "z1*zb1", "z1*zb2", "z2*zb1", "z2*zb2",
        "z1^2*zb1^2", "z1^2*zb1*zb2", "z1^2*zb2^2",
        "z1*z2*zb1^2", "z1*z2*zb1*zb2", "z1*z2*zb2^2",
        "z2^2*zb1^2", "z2^2*zb1*zb2", "z2^2*zb2^2",
    ]


@pytest.mark.parametrize("spec", ["hyp:2", "polydisc:2", "type1:2,2"])
def test_comp_suites_report_the_check_reproduction_block(capsys, spec):
    _, check, _ = run_json(capsys, "check", spec, "--max-k", "3")
    rep = check["reproduction"]
    _, comp1, _ = run_json(capsys, "reproduce", "comp1")
    _, comp2, _ = run_json(capsys, "reproduce", "comp2")
    found = 0
    for inst in comp1["instances"]:
        if inst["spec"] == spec:
            found += 1
            assert (inst["lambda"], inst["d3_z1_4"], inst["magnitude"], inst["sign"]) == (
                rep["lambda"], rep["d3_z1_4"], rep["comp_magnitude"], rep["comp_sign"]
            )
    for inst in comp2["instances"]:
        if inst["spec"] == spec:
            found += 1
            cross = rep["cross_terms"]
            assert (inst["lambda"], inst["d3_z1z2_sq"]) == (rep["lambda"], rep["d3_z1z2_sq"])
            assert (inst["cross_terms"], inst["cross_total"]) == (
                cross["values"], cross["total"]
            )
    assert found == {"hyp:2": 1, "polydisc:2": 2, "type1:2,2": 1}[spec]


def test_reproduce_duality_builds_each_metric_once(capsys, monkeypatch):
    import kahlap.geometry

    inverses = []
    original = kahlap.geometry.series_matrix_inverse

    def counting(*args, **kwargs):
        inverses.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(kahlap.geometry, "series_matrix_inverse", counting)
    code, doc, _ = run_json(capsys, "reproduce", "duality")
    assert code == 0 and doc["passed"]
    counts = {inst["spec"]: len(inst["values"]) for inst in doc["instances"]}
    assert counts == {"hyp:1": 1, "hyp:2": 4, "type1:2,2": 4}
    assert all(v["negated"] for inst in doc["instances"] for v in inst["values"])
    # an entry and its dual, for three entries
    assert len(inverses) == 6


def test_catalog_lists_gate_status(capsys):
    code, doc, _ = run_json(capsys, "catalog")
    assert code == 0
    by_spec = {e["spec"]: e for e in doc["entries"]}
    assert by_spec["type3:2"]["gate"] == "rejected"
    assert by_spec["type4:2"]["gate"] == "ok" and by_spec["type4:2"]["optional"]
    assert by_spec["hyp:2"]["lambda"] == "-3/1"
    assert by_spec["type1:2,2"]["lambda"] == "-4/1"


def test_catalog_builds_one_potential_per_entry(capsys, monkeypatch):
    import kahlap.catalog

    builds = []
    original = kahlap.catalog._raw_potential

    def counting(spec, order):
        builds.append((spec.label(), order))
        return original(spec, order)

    monkeypatch.setattr(kahlap.catalog, "_raw_potential", counting)
    code, doc, _ = run_json(capsys, "catalog")
    assert code == 0
    # an optional entry is read normal on a degree-4 probe first, and only an
    # entry that passes is built through degree 8
    want = []
    for e in doc["entries"]:
        if e["optional"]:
            want.append((e["spec"], 4))
            if e["gate"] == "ok":
                want.append((e["spec"], 8))
        else:
            want.append((e["spec"], 6))
    assert builds == want
    assert len(builds) == 16


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# ----------------------------------------------------------------------
# the argv contract: spellings the parser accepts or rejects, with the exit
# code, stdout and stderr each gives; ARGV_CONTRACT reads as argparse read it


GOLDEN = Path(__file__).parent / "golden"
_NOTE = "note: consistent = no refutation over the finite test family; refuted = proof by witness pair\n"
_HYP1_BODY = {
    1: "einstein: True (lambda = -2, checked through degree 0)\n" + _NOTE
    + "k=1: consistent, p_1 = X\n",
    2: "einstein: True (lambda = -2, checked through degree 2)\n" + _NOTE
    + "k=1: consistent, p_1 = X\nk=2: consistent, p_2 = X^2 - 2*X\n",
    3: "einstein: True (lambda = -2, checked through degree 4)\n" + _NOTE
    + "k=1: consistent, p_1 = X\nk=2: consistent, p_2 = X^2 - 2*X\n"
    "k=3: consistent, p_3 = X^3 - 10*X^2 + 8*X\n"
    "k=3 reference values: lambda=-2, D^3(|z1|^4)(0)=-40\n",
}


def _hyp1(max_k=3, seed=0, tail="", spec="hyp:1"):
    order = 2 * max_k + 2
    return (
        f"kahlap 0.1.0 check {spec} (max_k={max_k}, order={order}, seed={seed})\n"
        + _HYP1_BODY[max_k] + tail
    )


def _usage(message):
    return f"usage error: {message}\n"


_SUITE_NAMES = ("comp1", "comp2", "laplquad", "sumder2", "laplcube", "duality", "lemma")
_TARGETS = ", ".join(map(repr, _SUITE_NAMES))

ARGV_CONTRACT = [
    # accepted spellings
    ("check hyp:1 --max 2", 0, _hyp1(2), ""),
    ("check hyp:1 --m 2", 0, _hyp1(2), ""),
    ("check hyp:1 --o 8", 0, _hyp1(3), ""),
    ("check hyp:1 --max-k=2", 0, _hyp1(2), ""),
    ("check --max-k 2 hyp:1", 0, _hyp1(2), ""),
    ("check hyp:1 --max-k 1 --max-k 2", 0, _hyp1(2), ""),
    ("check hyp:1 --format json --format text", 0, _hyp1(), ""),
    ("check -- hyp:1", 0, _hyp1(), ""),
    ("check --max-k 1 -- hyp:1", 0, _hyp1(1), ""),
    ("check hyp:1 --seed -5", 0, _hyp1(seed=-5), ""),
    ("check hyp:1 --seed=-5", 0, _hyp1(seed=-5), ""),
    ("check hyp:1 --seed=+3", 0, _hyp1(seed=3), ""),
    ("check hyp:1 --s 3", 0, _hyp1(seed=3), ""),
    ("check hyp:1 --seed 1_000", 0, _hyp1(seed=1000), ""),
    ("check hyp:1 --seed ' 7 '", 0, _hyp1(seed=7), ""),
    ("check hyp:1 --max-k 2 --expect=refuted-at:2", 2, _hyp1(2, tail="EXPECTATION MISMATCH\n"), ""),
    ("check hyp:1 --ex consistent", 0, _hyp1(tail="expectation met\n"), ""),
    ("check hyp:1 --f json", 0, "cli_check_hyp1.json", ""),
    ("check hyp:2 --max-k 4 --format json", 0, "cli_check_hyp2_k4.json", ""),
    ("check fs:3 --max-k 3 --format json", 0, "cli_check_fs3.json", ""),
    ("check type1:2,2 --max-k 3 --format json", 0, "cli_check_type1_22.json", ""),
    ("check product(flat:1,hyp:1) --max-k 3 --format json", 0, "cli_check_product_flat1_hyp1.json", ""),
    ("check radial:1,1/2:2 --max-k 5 --format json", 0, "cli_check_radial_n2_k5.json", ""),
    ("check radial:1,-2/5,3:3 --max-k 4 --format json", 0, "cli_check_radial_n3_k4.json", ""),
    ("check type4:2 --max-k 3 --format json", 0, "cli_check_type4_2.json", ""),
    # consistent on the family route, so re-checked on the value table
    ("check type1:2,2 --max-k 2 --format json", 0, "cli_check_type1_22_k2.json", ""),
    ("check polydisc:4 --max-k 2 --format json", 0, "cli_check_polydisc4_k2.json", ""),
    ("check type4:2 --max-k 2 --format json", 0, "cli_check_type4_2_k2.json", ""),
    ("check product(hyp:1,fs:1) --max-k 2 --format json", 0, "cli_check_product_hyp1_fs1_k2.json", ""),
    ("check hyp:16 --max-k 3 --format json", 0, "cli_check_hyp16.json", ""),
    ("check fs:4 --max-k 6 --format json", 0, "cli_check_fs4_k6.json", ""),
    ("check dual(hyp:2) --max-k 3 --format json", 0, "cli_check_dual_hyp2.json", ""),
    ("check flat:4 --max-k 3 --format json", 0, "cli_check_flat4.json", ""),
    ("check hyp:2 --max-k 3 --order 9 --format json", 0, "cli_check_hyp2_order9.json", ""),
    ("check radial:1,1/2:1 --max-k 2 --order 31 --format json", 0,
     "cli_check_radial_n1_order31.json", ""),
    ("catalog --format=json", 0, "cli_catalog.json", ""),
    ("catalog --f json", 0, "cli_catalog.json", ""),
    *(
        (f"reproduce {target} --format json", 0, f"reproduce_{target}.json", "")
        for target in _SUITE_NAMES
    ),
    # the text of every command: the catalog table, each suite, a witness
    # line, a consistent family-route run and a missed expectation
    ("catalog", 0, "cli_catalog.txt", ""),
    *((f"reproduce {target}", 0, f"reproduce_{target}.txt", "") for target in _SUITE_NAMES),
    ("check type1:2,2 --max-k 3", 0, "cli_check_type1_22.txt", ""),
    ("check type1:2,2 --max-k 2", 0, "cli_check_type1_22_k2.txt", ""),
    ("check type4:2 --max-k 3 --expect refuted-at:2", 2, "cli_check_type4_2_mismatch.txt", ""),
    ("--version", "exit 0", "0.1.0\n", ""),
    ("--ver", "exit 0", "0.1.0\n", ""),
    # usage errors, in argparse's words
    ("", 1, "", _usage("the following arguments are required: command")),
    ("--", 1, "", _usage("the following arguments are required: command")),
    ("frobnicate", 1, "", _usage(
        "argument command: invalid choice: 'frobnicate' (choose from 'check', 'reproduce', 'catalog')")),
    ("--format json catalog", 1, "", _usage(
        "argument command: invalid choice: 'json' (choose from 'check', 'reproduce', 'catalog')")),
    ("--bogus check hyp:1", 1, "", _usage("unrecognized arguments: --bogus")),
    ("check", 1, "", _usage("the following arguments are required: spec")),
    ("check --", 1, "", _usage("the following arguments are required: spec")),
    ("check --version", 1, "", _usage("the following arguments are required: spec")),
    ("check hyp:1 hyp:2", 1, "", _usage("unrecognized arguments: hyp:2")),
    ("check hyp:1 --max-k x", 1, "", _usage("argument --max-k: invalid int value: 'x'")),
    ("check hyp:1 --max-k=", 1, "", _usage("argument --max-k: invalid int value: ''")),
    ("check hyp:1 --max-k=2=3", 1, "", _usage("argument --max-k: invalid int value: '2=3'")),
    ("check hyp:1 --order -", 1, "", _usage("argument --order: invalid int value: '-'")),
    ("check hyp:1 --max-k", 1, "", _usage("argument --max-k: expected one argument")),
    ("check hyp:1 --expect", 1, "", _usage("argument --expect: expected one argument")),
    ("check hyp:1 --seed -x", 1, "", _usage("argument --seed: expected one argument")),
    ("check hyp:1 --max-k -- 2", 1, "", _usage("argument --max-k: expected one argument")),
    ("check hyp:1 --expect=", 1, "", _usage("bad --expect value ''")),
    ("check hyp:1 --format xml", 1, "", _usage(
        "argument --format: invalid choice: 'xml' (choose from 'text', 'json')")),
    ("check hyp:1 --bogus", 1, "", _usage("unrecognized arguments: --bogus")),
    ("check hyp:1 -x", 1, "", _usage("unrecognized arguments: -x")),
    ("check hyp:1 -1", 1, "", _usage("unrecognized arguments: -1")),
    ("check hyp:1 -max-k 2", 1, "", _usage("unrecognized arguments: -max-k 2")),
    ("check hyp:1 -- --max-k", 1, "", _usage("unrecognized arguments: --max-k")),
    ("check -5", 1, "", "error: unknown spec '-5'\n"),
    # spec nesting is bounded before any recursion runs deep
    (f"check {'dual(' * 64}hyp:1{')' * 64} --max-k 1", 0, _hyp1(1, spec=f"{'dual(' * 64}hyp:1{')' * 64}"), ""),
    (f"check {'dual(' * 500}hyp:1{')' * 500}", 1, "", "error: spec nested deeper than 64\n"),
    (f"check {'product(' * 500}hyp:1{',hyp:1)' * 500}", 1, "", "error: spec nested deeper than 64\n"),
    # orders past the packed-key limit fail before any build
    ("check hyp:1 --order 32", 1, "", "error: order must be in 0..31, got 32\n"),
    ("check hyp:1 --max-k 15", 1, "", "error: max_k=15 needs order 32; orders must be in 0..31\n"),
    ("check hyp:1 --max-k 15 --order 32", 1, "", "error: max_k=15 needs order 32; orders must be in 0..31\n"),
    ("check hyp:1 --order 64", 1, "", "error: order must be in 0..31, got 64\n"),
    ("check type3:2 --order 32", 1, "", "error: order must be in 0..31, got 32\n"),
    ("reproduce", 1, "", _usage("the following arguments are required: target")),
    ("reproduce nope", 1, "", _usage(
        f"argument target: invalid choice: 'nope' (choose from {_TARGETS})")),
    ("catalog extra", 1, "", _usage("unrecognized arguments: extra")),
    ("catalog --", 1, "", _usage("unrecognized arguments: --")),
    ("catalog --version", 1, "", _usage("unrecognized arguments: --version")),
]


# Spellings read otherwise than argparse read them, with argparse's reading
# in the comment; the exit code differs for two, the trailing "--" (now
# accepted) and -hh (now rejected).
ARGV_DEPARTURES = [
    # argparse: "argument command: invalid choice: '--' ..."
    ("-- check hyp:1", 1, "", _usage("unrecognized arguments: --")),
    # argparse: "unrecognized arguments: --" (the "--" is not next to hyp:1)
    ("check hyp:1 --max-k 2 --", 0, _hyp1(2), ""),
    # argparse: "unrecognized arguments: -- x"
    ("check hyp:1 --max-k 2 -- x", 1, "", _usage("unrecognized arguments: x")),
    # argparse: "ambiguous option: --=3 could match --help, --version"
    ("check hyp:1 --=3", 1, "", _usage("unrecognized arguments: --=3")),
    # argparse: "argument -h/--help: ignored explicit argument 'x'"
    ("-hx", 1, "", _usage("the following arguments are required: command")),
    # argparse: "argument --version: ignored explicit argument ''"
    ("--version=", 1, "", _usage("the following arguments are required: command")),
    ("--version= check hyp:1", 1, "", _usage("unrecognized arguments: --version=")),
    # argparse: the help text, exit 0
    ("-hh", 1, "", _usage("the following arguments are required: command")),
]


@pytest.mark.parametrize(
    "argv,code,out,err",
    ARGV_CONTRACT + ARGV_DEPARTURES,
    # a deeply nested spec is named by its head and its length
    ids=[
        (case[0] if len(case[0]) <= 80 else f"{case[0][:20]}...<{len(case[0])} chars>")
        or "<empty>"
        for case in ARGV_CONTRACT + ARGV_DEPARTURES
    ],
)
def test_argv_contract(capsys, argv, code, out, err):
    try:
        got = main(shlex.split(argv))
    except SystemExit as exc:
        got = f"exit {exc.code}"
    captured = capsys.readouterr()
    if out.endswith((".json", ".txt")):
        out = (GOLDEN / out).read_text()
    assert (got, re.sub(r'"timing_ms": \d+', '"timing_ms": 0', captured.out), captured.err) == (
        code, out, err
    )


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--bogus", "--he"]])
def test_top_level_help_names_every_command(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(word in out for word in ("check", "reproduce", "catalog", "--version"))


@pytest.mark.parametrize("argv", [["check", "-h"], ["check", "hyp:1", "-h", "--bogus"]])
def test_check_help_names_every_option(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(
        option in out for option in ("--max-k", "--order", "--seed", "--format", "--expect")
    )


def test_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["kahlap", "check", "hyp:1", "--max-k", "1"])
    assert main() == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (_hyp1(1), "")


def test_main_hands_report_its_settings_by_keyword_and_maps_memory_exhaustion(
    capsys, monkeypatch
):
    # a run that exhausts memory ends in one error line and exit 1, with no
    # traceback; the settings reach report.run by keyword, format aside
    calls = []

    def exhausted(command, **settings):
        calls.append((command, settings))
        raise MemoryError

    monkeypatch.setattr(report, "run", exhausted)
    assert run(capsys, "check", "hyp:1", "--format", "json") == (
        1, "", "error: out of memory\n"
    )
    assert run(capsys, "reproduce", "lemma") == (1, "", "error: out of memory\n")
    assert calls == [
        ("check", {"max_k": 3, "order": None, "seed": 0, "expect": None, "spec": "hyp:1"}),
        ("reproduce", {"target": "lemma"}),
    ]


def test_commands_import_no_argparse_gettext_or_locale():
    """The start-up cost argparse carries (its gettext pulls in locale) stays
    out of every command path, and so does dataclasses with the modules it
    loads (the value classes are ``jets.record`` classes)."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = textwrap.dedent(
        """
        import contextlib, io, sys
        from kahlap.cli import main
        for argv in (
            ["check", "polydisc:2", "--max-k", "3"],
            ["check", "type1:2,2", "--max-k", "2"],
            ["reproduce", "comp1"],
            ["catalog"],
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
        guarded = ("argparse", "gettext", "locale", "dataclasses", "inspect", "ast", "dis", "tokenize")
        print(sorted(m for m in guarded if m in sys.modules))
        """
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kahlap"
# jets.py is the one module past the step, at 4,575 tokens: it holds the Jet
# class with the packed-key kernels that catalog and geometry share, and
# bringing it under would split that one representation over two modules
_PARSER_STEP_EXEMPT = "jets.py"


@pytest.mark.parametrize(
    "module", sorted(p.name for p in _PACKAGE.glob("*.py") if p.name != _PARSER_STEP_EXEMPT)
)
def test_command_path_modules_stay_under_the_parser_step(module):
    """Commands run without a bytecode cache compile every module of the
    package on every start (``kahlap/__init__.py`` imports the engine
    modules, and ``cli.py`` imports ``report.py``, the last module compiled,
    on the largest heap), and CPython 3.11's parser peak memory steps up by
    about 0.25 MB once a module passes 4,096 tokens (comments and blank
    lines do not count): padding ``cli.py`` from 3,930 to 4,274 tokens
    raised the peak RSS of a bare ``import kahlap.cli`` from 16,368 to
    16,688 KB (CPython 3.11.7, median of 30 alternating probes)."""
    path = _PACKAGE / module
    with path.open("rb") as f:
        tokens = [
            t for t in tokenize.tokenize(f.readline)
            if t.type not in (tokenize.COMMENT, tokenize.NL)
        ]
    assert len(tokens) < 4096


def test_cli_keeps_only_the_argument_list():
    """``cli.py`` reads the argument list and hands it to ``report``, which
    owns every document, suite and renderer: from the package it imports
    the version, the error base and ``report``, and it defines the parser
    and ``main`` only."""
    tree = ast.parse((_PACKAGE / "cli.py").read_text())
    imports = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("kahlap") for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").startswith("kahlap")
        ):
            imports |= {(node.module, a.name) for a in node.names}
    assert imports == {(None, "__version__"), (None, "report"), ("jets", "KahlapError")}
    defined = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    assert defined == {"_option", "_value", "_parse_args", "main"}


# ----------------------------------------------------------------------
# the benchmark's reference documents


def _perfbench_run():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_commands_match_their_reference_documents(capsys):
    """Every benchmark command, run in-process, reproduces the result fields
    of ``perfbench/reference.json`` as the benchmark compares them."""
    bench = _perfbench_run()
    reference = json.loads(bench.REFERENCE.read_text())
    commands = [c for workload in bench.WORKLOADS.values() for c in workload]
    assert sorted(commands) == sorted(reference) and len(commands) == 15
    for command in commands:
        code, out, _ = run(capsys, *bench.command_argv(command, 0))
        assert code == 0, command
        assert list(bench.mismatches(reference[command], json.loads(out), command)) == []
