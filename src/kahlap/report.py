"""The report of each command: its document, and how the document reads as text.

Three commands, each run by :func:`run` by name with keyword settings:

* ``check`` -- build a catalog metric and decide the Laplacian power
  property up to ``max_k``: per-order verdicts (inferred polynomials or a
  refuting witness pair), the Einstein line and the k=3 reference values.
* ``reproduce`` -- run one of the fixed verification suites of
  :data:`SUITES` (``comp1 comp2 laplquad sumder2 laplcube duality lemma``)
  over its designated catalog entries and report every exact value.
* ``catalog`` -- list the built-in entries with live Einstein constants.

:func:`run` returns the exit code and the document, which
``json.dumps`` prints as it is; :func:`text` renders it as the text the
command prints.  Documents are deterministic for a fixed config: the one
field that varies between runs is ``timing_ms``, stamped by :func:`run`.
``seed`` is echoed in the check config and the text header, and changes
nothing.  Exit codes: 0 success / expectation met, 2 expectation or suite
failure; a bad ``expect`` raises :class:`UsageError`, before anything is
built.
"""

from __future__ import annotations

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
    check_order,
    duality_negation_checks,
    infer,
    laplcube_rows,
    third_power_summary,
    verify_property,
)
from .jets import BiIndex, Jet, KahlapError
from .laplacian import second_power_check, third_power_checks
from .rationals import rat_pretty, rat_str


class UsageError(KahlapError):
    """A setting the command cannot read (a malformed ``expect``)."""


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
    if "expectation_met" in doc:
        lines.append("expectation met" if doc["expectation_met"] else "EXPECTATION MISMATCH")
    return "\n".join(lines)


def _expectation(expect: str) -> str | int:
    """``"consistent"``, or the order K of ``refuted-at:K``, that ``expect``
    names; :class:`UsageError` for any other spelling."""
    want = expect.strip().lower()
    if want == "consistent":
        return want
    if want.startswith("refuted-at:"):
        try:
            return int(want.split(":", 1)[1])
        except ValueError as exc:
            raise UsageError(f"bad --expect value {expect!r}") from exc
    raise UsageError(f"bad --expect value {expect!r}")


def _check(spec, max_k, order, seed, expect) -> tuple[int, dict]:
    # every setting is read before the build: a bad spec, max_k or order
    # first, then a malformed expect
    parsed = cat.parse_spec(spec)
    order = check_order(max_k, order)
    want = None if expect is None else _expectation(expect)
    report = verify_property(parsed, max_k, order=order)
    config = {
        "spec": parsed.label(),
        "max_k": max_k,
        "order": report.order,
        "seed": seed,
        "expect": expect,
    }
    doc = _check_document(report, config)
    code = 0
    if expect is not None:
        ok = report.all_consistent if want == "consistent" else report.refuted_at == want
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


def _suite_laplcube() -> list[dict]:
    instances = []
    for spec in cat.einstein_catalog_entries():
        m = metric_from_potential(cat.potential(spec, 8))
        family, rows = laplcube_rows(spec.dim)
        checks = third_power_checks(m, spec.dim, [family.keys[pos] for pos in rows])
        failures = [
            family.index(pos).text() for pos, ident in zip(rows, checks) if not ident.passed
        ]
        instances.append(
            {
                "spec": spec.label(),
                "pairs_checked": len(rows),
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


SUITES = {
    "comp1": (_suite_comp1, "third power of |z1|^4 sits 16 away from 12*lambda"),
    "comp2": (_suite_comp2, "third power of |z1 z2|^2 equals 6*lambda on rank-2 entries"),
    "laplquad": (_suite_laplquad, "inferred p_2 equals X^2 + lambda*X"),
    "sumder2": (_suite_sumder2, "sum_h d_h dbar_h g_inv(0) equals lambda*I"),
    "laplcube": (_suite_laplcube, "direct third power equals its expanded origin formula"),
    "duality": (_suite_duality, "third powers negate between an entry and its dual"),
    "lemma": (_suite_lemma, "diagonal restriction of matrix domains is the polydisc"),
}


def _reproduce(target) -> tuple[int, dict]:
    suite, blurb = SUITES[target]
    instances = suite()
    passed = all(inst["passed"] for inst in instances)
    doc = {
        "version": __version__,
        "command": "reproduce",
        "config": {"target": target},
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


def _catalog() -> tuple[int, dict]:
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
# entry points

# per command: its runner and its text renderer
_COMMANDS = {
    "check": (_check, _render_check_text),
    "reproduce": (_reproduce, _render_reproduce_text),
    "catalog": (_catalog, _render_catalog_text),
}


def run(command: str, **settings) -> tuple[int, dict]:
    """``(exit code, document)`` of ``command`` run with ``settings``; the
    document's last key is ``timing_ms``, the run's wall time."""
    start = time.perf_counter()
    code, doc = _COMMANDS[command][0](**settings)
    doc["timing_ms"] = int((time.perf_counter() - start) * 1000)
    return code, doc


def text(doc: dict) -> str:
    """The document ``doc`` of :func:`run` as the command prints it."""
    return _COMMANDS[doc["command"]][1](doc)
