"""Command-line driver.

Three commands:

* ``check <spec>`` -- build a catalog metric and decide the Laplacian power
  property up to ``--max-k``, printing per-order verdicts (inferred
  polynomials or a refuting witness pair).
* ``reproduce <target>`` -- run one of the fixed verification suites
  (``comp1 comp2 laplquad sumder2 laplcube duality lemma``) over its
  designated catalog entries and report every exact value.
* ``catalog`` -- list the built-in entries with live Einstein constants.

Reports are deterministic for a fixed (config, seed): the only field that
varies between runs is ``timing_ms``.  Exit codes: 0 success / expectation
met, 1 usage or construction error, 2 expectation or suite failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from . import catalog as cat
from .geometry import metric_from_potential, trace_identity_check
from .inference import (
    CONSISTENT,
    REFUTED,
    PropertyReport,
    ThirdPowerSummary,
    Verdict,
    Witness,
    build_test_family,
    duality_negation_checks,
    infer,
    third_power_summary,
    verify_property,
)
from .jets import BiIndex, Jet, KahlapError
from .laplacian import second_power_check, third_power_check
from .rationals import rat_pretty, rat_str


class _UsageError(KahlapError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="kahlap", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide the power property for a spec")
    p_check.add_argument("spec", help="catalog spec, e.g. hyp:2 or product(flat:1,hyp:1)")
    p_check.add_argument("--max-k", type=int, default=3, dest="max_k")
    p_check.add_argument("--order", type=int, default=None)
    p_check.add_argument(
        "--seed",
        type=int,
        default=0,
        help="picks the random combinations that re-check each consistent "
        "p_k; changes no verdict",
    )
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.add_argument(
        "--expect",
        default=None,
        help="consistent or refuted-at:K; exit 2 on mismatch",
    )

    p_rep = sub.add_parser("reproduce", help="run a fixed verification suite")
    p_rep.add_argument(
        "target",
        choices=("comp1", "comp2", "laplquad", "sumder2", "laplcube", "duality", "lemma"),
    )
    p_rep.add_argument("--format", choices=("text", "json"), default="text")

    p_cat = sub.add_parser("catalog", help="list catalog entries")
    p_cat.add_argument("--format", choices=("text", "json"), default="text")
    return parser


# ----------------------------------------------------------------------
# document building


def _witness_doc(w: Witness) -> dict:
    def row(r):
        return {
            "monomial": r.index.text(),
            "hol": list(r.index.hol),
            "anti": list(r.index.anti),
            "bidegree": list(r.index.bidegree),
            "kahler_value": rat_str(r.kahler_value),
            "euclidean_moments": [rat_str(v) for v in r.moments],
        }

    return {"k": w.k, "first": row(w.first), "second": row(w.second)}


def _verdict_doc(v: Verdict) -> dict:
    doc = {"k": v.k, "status": v.status}
    if v.polynomial is not None:
        doc["p_k"] = {
            "degree": v.polynomial.degree,
            "lower": [rat_str(a) for a in v.polynomial.lower],
            "text": v.polynomial.text(),
        }
    if v.witness is not None:
        doc["witness"] = _witness_doc(v.witness)
    if v.free_indices:
        doc["free_indices"] = list(v.free_indices)
    if v.note:
        doc["note"] = v.note
    return doc


def _summary_doc(s: ThirdPowerSummary | None) -> dict | None:
    if s is None:
        return None
    doc = {
        "lambda": rat_str(s.lam),
        "d3_z1_4": rat_str(s.d3_z1_4),
        "d3_z1z2_sq": None if s.d3_z1z2_sq is None else rat_str(s.d3_z1z2_sq),
        "relation_holds": s.relation_holds,
        "comp_magnitude": rat_str(s.comp_magnitude),
        "comp_sign": s.comp_sign,
    }
    if s.cross_terms is not None:
        doc["cross_terms"] = {
            "values": [rat_str(v) for v in s.cross_terms.values],
            "total": rat_str(s.cross_terms.total),
            "all_zero": s.cross_terms.all_zero,
        }
    return doc


def _check_document(report: PropertyReport, config: dict) -> dict:
    return {
        "version": __version__,
        "command": "check",
        "config": config,
        "einstein": {
            "is_einstein": report.einstein.is_einstein,
            "lambda": rat_str(report.einstein.lam),
            "checked_degree": report.einstein.checked_degree,
        },
        "family_note": PropertyReport.FAMILY_NOTE,
        "verdicts": [_verdict_doc(v) for v in report.verdicts],
        "reproduction": _summary_doc(report.summary),
    }


def _render_check_text(doc: dict) -> str:
    lines = []
    cfg = doc["config"]
    lines.append(
        f"kahlap {doc['version']} check {cfg['spec']} "
        f"(max_k={cfg['max_k']}, order={cfg['order']}, seed={cfg['seed']})"
    )
    e = doc["einstein"]
    lines.append(
        f"einstein: {e['is_einstein']} (lambda = {rat_pretty(e['lambda'])}, "
        f"checked through degree {e['checked_degree']})"
    )
    lines.append(f"note: {doc['family_note']}")
    for v in doc["verdicts"]:
        if v["status"] == CONSISTENT:
            lines.append(f"k={v['k']}: consistent, p_{v['k']} = {v['p_k']['text']}")
        elif v["status"] == REFUTED and "witness" in v:
            w = v["witness"]
            lines.append(
                f"k={v['k']}: refuted by ({w['first']['monomial']}, "
                f"{w['second']['monomial']}) with operator values "
                f"{rat_pretty(w['first']['kahler_value'])} and "
                f"{rat_pretty(w['second']['kahler_value'])}"
            )
        else:
            lines.append(f"k={v['k']}: {v['status']} {v.get('note', '')}".rstrip())
    rep = doc.get("reproduction")
    if rep:
        lines.append(
            f"k=3 reference values: lambda={rat_pretty(rep['lambda'])}, "
            f"D^3(|z1|^4)(0)={rat_pretty(rep['d3_z1_4'])}"
            + (
                f", D^3(|z1 z2|^2)(0)={rat_pretty(rep['d3_z1z2_sq'])}, "
                f"doubling relation holds: {rep['relation_holds']}"
                if rep["d3_z1z2_sq"] is not None
                else ""
            )
        )
    return "\n".join(lines)


def cmd_check(args) -> tuple[int, dict]:
    spec = cat.parse_spec(args.spec)
    report = verify_property(spec, args.max_k, order=args.order, seed=args.seed)
    config = {
        "spec": spec.label(),
        "max_k": args.max_k,
        "order": report.order,
        "seed": args.seed,
        "expect": args.expect,
    }
    doc = _check_document(report, config)
    code = 0
    if args.expect is not None:
        expect = args.expect.strip().lower()
        if expect == "consistent":
            ok = report.all_consistent
        elif expect.startswith("refuted-at:"):
            try:
                at = int(expect.split(":", 1)[1])
            except ValueError as exc:
                raise _UsageError(f"bad --expect value {args.expect!r}") from exc
            ok = report.refuted_at == at
        else:
            raise _UsageError(f"bad --expect value {args.expect!r}")
        code = 0 if ok else 2
        doc["expectation_met"] = ok
    return code, doc


# ----------------------------------------------------------------------
# reproduce suites


def _suite_comp1() -> list[dict]:
    instances = []
    pinned = {"hyp:1": "-40/1", "fs:1": "40/1", "polydisc:2": "-40/1"}
    for spec in (cat.Hyperbolic(1), cat.Hyperbolic(2), cat.FubiniStudy(1), cat.Polydisc(2)):
        s = third_power_summary(metric_from_potential(cat.potential(spec, 8)))
        doc = {
            "spec": spec.label(),
            "lambda": rat_str(s.lam),
            "d3_z1_4": rat_str(s.d3_z1_4),
            "magnitude": rat_str(s.comp_magnitude),
            "sign": s.comp_sign,
            "passed": s.comp_magnitude == 16,
        }
        want = pinned.get(spec.label())
        if want is not None:
            doc["pinned_value"] = want
            doc["passed"] = doc["passed"] and doc["d3_z1_4"] == want
        instances.append(doc)
    return instances


def _suite_comp2() -> list[dict]:
    instances = []
    for spec, want in ((cat.Polydisc(2), -12), (cat.TypeI(2, 2), -24)):
        s = third_power_summary(metric_from_potential(cat.potential(spec, 8)))
        d3, cross = s.d3_z1z2_sq, s.cross_terms
        instances.append(
            {
                "spec": spec.label(),
                "lambda": rat_str(s.lam),
                "d3_z1z2_sq": rat_str(d3),
                "six_lambda": rat_str(6 * s.lam),
                "cross_terms": [rat_str(v) for v in cross.values],
                "cross_total": rat_str(cross.total),
                "passed": d3 == 6 * s.lam and d3 == want and cross.total == 0,
            }
        )
    return instances


def _suite_laplquad() -> list[dict]:
    instances = []
    for spec in cat.einstein_catalog_entries():
        phi = cat.potential(spec, 6)
        m = metric_from_potential(phi)
        lam = m.einstein.lam
        family = build_test_family(spec.dim, 2)
        verdict = infer(m, 2, family)
        ok = (
            verdict.status == CONSISTENT
            and verdict.polynomial.lower == (lam,)
        )
        n = spec.dim
        z1 = tuple(2 if i == 0 else 0 for i in range(n))
        probe = Jet(n, 6, [(BiIndex(z1, z1), 1)])
        ident = second_power_check(m, probe)
        instances.append(
            {
                "spec": spec.label(),
                "lambda": rat_str(lam),
                "inferred_p2": verdict.polynomial.text() if verdict.polynomial else None,
                "identity_on_z1_4": ident.passed,
                "passed": ok and ident.passed,
            }
        )
    return instances


def _suite_sumder2() -> list[dict]:
    instances = []
    for spec in cat.einstein_catalog_entries():
        phi = cat.potential(spec, 6)
        m = metric_from_potential(phi)
        tc = trace_identity_check(m)
        instances.append(
            {
                "spec": spec.label(),
                "lambda": rat_str(tc.lam),
                "matrix": [[rat_str(v) for v in row] for row in tc.matrix],
                "passed": tc.passed,
            }
        )
    spec = cat.Product(cat.Flat(1), cat.Hyperbolic(1))
    m = metric_from_potential(cat.potential(spec, 6))
    tc = trace_identity_check(m)
    expected = [["0/1", "0/1"], ["0/1", "-2/1"]]
    got = [[rat_str(v) for v in row] for row in tc.matrix]
    instances.append(
        {
            "spec": spec.label(),
            "lambda": rat_str(tc.lam),
            "matrix": got,
            "is_einstein": tc.is_einstein,
            "expected_failure": True,
            "passed": (not tc.passed) and (not tc.is_einstein) and got == expected,
        }
    )
    return instances


def _laplcube_test_indices(n: int) -> list[BiIndex]:
    """Balanced monomials |alpha| = |beta| <= 2 supported on <= 2 variables
    (any two of the n, not just the first pair), in family order."""
    return [
        row.index
        for row in build_test_family(n, 2).entries
        if row.index.bidegree[0] == row.index.bidegree[1]
        and len(row.index.support()) <= 2
    ]


def _suite_laplcube() -> list[dict]:
    instances = []
    for spec in cat.einstein_catalog_entries():
        phi = cat.potential(spec, 8)
        m = metric_from_potential(phi)
        n = spec.dim
        checked = 0
        failures = []
        for bi in _laplcube_test_indices(n):
            test = Jet(n, 8, [(bi, 1)])
            ident = third_power_check(m, test)
            checked += 1
            if not ident.passed:
                failures.append(bi.text())
        instances.append(
            {
                "spec": spec.label(),
                "pairs_checked": checked,
                "failures": failures,
                "passed": not failures,
            }
        )
    return instances


def _suite_duality() -> list[dict]:
    instances = []
    pairs = [
        (cat.Hyperbolic(1), cat.FubiniStudy(1)),
        (cat.Hyperbolic(2), cat.FubiniStudy(2)),
        (cat.TypeI(2, 2), cat.TypeIDual(2, 2)),
    ]
    for spec, dual_spec in pairs:
        n = spec.dim
        idx = [(i, j) for i in range(1, min(n, 2) + 1) for j in range(1, min(n, 2) + 1)]
        phi = cat.potential(spec, 8)
        values = []
        ok = True
        for (i, j), chk in zip(idx, duality_negation_checks(phi, idx)):
            values.append(
                {
                    "i": i,
                    "j": j,
                    "value": rat_str(chk.value),
                    "dual_value": rat_str(chk.dual_value),
                    "negated": chk.passed,
                }
            )
            ok = ok and chk.passed
        involution = cat.dual_potential(cat.dual_potential(phi)) == phi
        dual_matches = cat.potential(cat.DualOf(spec), 8) == cat.potential(dual_spec, 8)
        instances.append(
            {
                "spec": spec.label(),
                "dual": dual_spec.label(),
                "values": values,
                "involution": involution,
                "dual_is_catalog_dual": dual_matches,
                "passed": ok and involution and dual_matches,
            }
        )
    return instances


def _suite_lemma() -> list[dict]:
    instances = []
    for p, q in ((1, 1), (2, 2), (2, 3)):
        rc = cat.diagonal_restriction_check(p, q, 8)
        instances.append(
            {
                "pair": f"({p},{q})",
                "potential_matches": rc.potential_matches,
                "metric_matches": rc.metric_matches,
                "passed": rc.passed,
            }
        )
    return instances


_SUITES = {
    "comp1": (_suite_comp1, "third power of |z1|^4 sits 16 away from 12*lambda"),
    "comp2": (_suite_comp2, "third power of |z1 z2|^2 equals 6*lambda on rank-2 entries"),
    "laplquad": (_suite_laplquad, "inferred p_2 equals X^2 + lambda*X"),
    "sumder2": (_suite_sumder2, "sum_h d_h dbar_h g_inv(0) equals lambda*I"),
    "laplcube": (_suite_laplcube, "direct third power equals its expanded origin formula"),
    "duality": (_suite_duality, "third powers negate between an entry and its dual"),
    "lemma": (_suite_lemma, "diagonal restriction of matrix domains is the polydisc"),
}


def cmd_reproduce(args) -> tuple[int, dict]:
    suite, blurb = _SUITES[args.target]
    instances = suite()
    passed = all(inst["passed"] for inst in instances)
    doc = {
        "version": __version__,
        "command": "reproduce",
        "config": {"target": args.target},
        "description": blurb,
        "instances": instances,
        "passed": passed,
    }
    return (0 if passed else 2), doc


def _render_reproduce_text(doc: dict) -> str:
    lines = [
        f"kahlap {doc['version']} reproduce {doc['config']['target']}: "
        f"{doc['description']}"
    ]
    for inst in doc["instances"]:
        name = inst.get("spec") or inst.get("pair")
        status = "pass" if inst["passed"] else "FAIL"
        rationals = ("lambda", "d3_z1_4", "d3_z1z2_sq", "six_lambda", "magnitude")
        detail = [
            f"{key}={rat_pretty(inst[key]) if key in rationals else inst[key]}"
            for key in rationals + ("inferred_p2", "pairs_checked")
            if inst.get(key) is not None
        ]
        lines.append(f"  {name}: {status}" + (f" ({', '.join(detail)})" if detail else ""))
    lines.append("suite: " + ("pass" if doc["passed"] else "FAIL"))
    return "\n".join(lines)


def cmd_catalog(args) -> tuple[int, dict]:
    entries = []
    for spec in cat.standard_entries():
        entry = {
            "spec": spec.label(),
            "dim": spec.dim,
            "optional": spec.optional,
        }
        try:
            phi = cat.potential(spec, 6)
        except KahlapError as exc:
            entry["gate"] = "rejected"
            entry["gate_detail"] = str(exc)
            entry["lambda"] = None
            entry["is_einstein"] = None
        else:
            e = metric_from_potential(phi).einstein
            entry["gate"] = "ok"
            entry["lambda"] = rat_str(e.lam)
            entry["is_einstein"] = e.is_einstein
        entries.append(entry)
    doc = {
        "version": __version__,
        "command": "catalog",
        "entries": entries,
    }
    return 0, doc


def _render_catalog_text(doc: dict) -> str:
    lines = [f"kahlap {doc['version']} catalog"]
    for e in doc["entries"]:
        lam = rat_pretty(e["lambda"]) if e["lambda"] else "-"
        flags = []
        if e["optional"]:
            flags.append("optional")
        if e["gate"] != "ok":
            flags.append(f"gate: {e['gate']}")
        elif e["is_einstein"]:
            flags.append("einstein")
        lines.append(
            f"  {e['spec']:<18} dim={e['dim']:<3} lambda={lam:<6} "
            + (" ".join(flags))
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        start = time.perf_counter()
        if args.command == "check":
            code, doc = cmd_check(args)
        elif args.command == "reproduce":
            code, doc = cmd_reproduce(args)
        else:
            code, doc = cmd_catalog(args)
        doc["timing_ms"] = int((time.perf_counter() - start) * 1000)
        if args.format == "json":
            print(json.dumps(doc, indent=2))
        else:
            if args.command == "check":
                print(_render_check_text(doc))
            elif args.command == "reproduce":
                print(_render_reproduce_text(doc))
            else:
                print(_render_catalog_text(doc))
            if "expectation_met" in doc:
                print(
                    "expectation met"
                    if doc["expectation_met"]
                    else "EXPECTATION MISMATCH"
                )
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except KahlapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
