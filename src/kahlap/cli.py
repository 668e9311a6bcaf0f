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

The argument list is read by one table-driven parser (``_parse_args``) in
argparse's spellings and words: ``--opt value`` or ``--opt=value``, options
on either side of the positional argument, the last of a repeated option,
unique prefixes of long options (``--max 2``, top-level ``--ver``), ``--`` to
end the options, integers read by ``int()`` (``--seed -5``).  ``-h``,
``--help`` and ``--version`` print and exit 0.  The README lists the few
degenerate spellings read otherwise.  argparse is not imported: its first
parser cost a few ms of start-up, more than some whole commands.
"""

from __future__ import annotations

import json
import re
import sys
import time
from types import SimpleNamespace

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
    laplcube_rows,
    third_power_summary,
    verify_property,
)
from .jets import BiIndex, Jet, KahlapError
from .laplacian import second_power_check, third_power_checks
from .rationals import rat_pretty, rat_str


class _UsageError(KahlapError):
    pass


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
# argument parsing


_USAGE = """\
usage: kahlap [-h] [--version] <command> ...

kahlap check <spec> [--max-k K] [--order D] [--seed S] [--format text|json]
             [--expect consistent|refuted-at:K]
    decide the power property for a catalog spec, e.g. hyp:2 or
    product(flat:1,hyp:1); a U(n)-invariant spec (flat, fs, hyp, radial)
    is decided from its radial profile alone, consistent at every order by
    symmetry, which is no evidence of the property; any other spec is
    decided over a test family, each consistent p_k re-checked on random
    combinations of the test monomials; --seed picks those combinations,
    so it matters only there, and changes no verdict; --expect exits 2 on
    mismatch
kahlap reproduce <target> [--format text|json]
    run a fixed verification suite: comp1 comp2 laplquad sumder2 laplcube
    duality lemma
kahlap catalog [--format text|json]
    list catalog entries

Long options may be abbreviated to a unique prefix; --opt=value works, and
-- ends the options."""

_FORMAT = ("format", ("text", "json"), "text")
# per command: its runner and text renderer, its positional argument and
# that argument's choices (None: any string), and its options, each mapped
# to (dest, int or choices or None, default)
_COMMANDS = {
    "check": (
        cmd_check,
        _render_check_text,
        "spec",
        None,
        {
            "--max-k": ("max_k", int, 3),
            "--order": ("order", int, None),
            "--seed": ("seed", int, 0),
            "--format": _FORMAT,
            "--expect": ("expect", None, None),
        },
    ),
    "reproduce": (
        cmd_reproduce,
        _render_reproduce_text,
        "target",
        tuple(_SUITES),
        {"--format": _FORMAT},
    ),
    "catalog": (cmd_catalog, _render_catalog_text, None, None, {"--format": _FORMAT}),
}


def _option(token, names):
    """``(option name, attached value or None)`` for an option token, None for
    an argument.  The name is None for an unknown option.  A long option may
    be cut to a unique prefix of one of ``names``."""
    head, eq, value = token.partition("=")
    found = [n for n in names if n.startswith(head) and (token[:2] == "--" or n == head)]
    if len(found) == 1:
        return found[0], value if eq else None
    # "-", a negative number and a string with a space are arguments
    if token[:1] == "-" and not re.match(r"-(\d+|\d*\.\d+)?$", token) and " " not in token:
        return None, None
    return None


def _value(label, kind, text):
    """``text`` read by ``int()`` or checked against the choices ``kind``
    (None: any string)."""
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise _UsageError(f"argument {label}: invalid int value: {text!r}") from None
    if kind and text not in kind:
        raise _UsageError(
            f"argument {label}: invalid choice: {text!r} "
            f"(choose from {', '.join(map(repr, kind))})"
        )
    return text


def _parse_args(tokens):
    """The command and its settings from the list ``tokens``, which it edits;
    `_UsageError` with argparse's message for a malformed list."""
    name, choices, options = "command", tuple(_COMMANDS), {"--version": None}
    settings, unknown = {}, []
    command = argument = None
    end = len(tokens)
    j = 0
    while j < len(tokens):
        token = tokens[j]
        names = ("-h", "--help", *options)
        option = j < end and _option(token, names)
        opt, value = option or (None, None)
        j += 1
        if opt and not options.get(opt) and value is None:  # -h, --help, --version
            print(__version__ if opt == "--version" else _USAGE)
            raise SystemExit(0)
        if options.get(opt):
            if value is None:
                if j >= end or _option(tokens[j], names):
                    raise _UsageError(f"argument {opt}: expected one argument")
                value = tokens[j]
                j += 1
            dest, kind, _ = options[opt]
            settings[dest] = _value(opt, kind, value)
        elif option or not name or argument is not None:
            unknown.append(token)
        elif command:
            argument = _value(name, choices, token)
        else:  # the rest of argv belongs to the command
            command = _value(name, choices, token)
            *_, name, choices, options = _COMMANDS[command]
            settings = {dest: default for dest, _, default in options.values()}
            # from "--" on every token is an argument; a command with a
            # positional argument drops the "--"
            end = tokens.index("--", j) if "--" in tokens[j:] else len(tokens)
            del tokens[end : end + bool(name)]
    if name and argument is None:
        raise _UsageError(f"the following arguments are required: {name}")
    if unknown:
        raise _UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    if name:
        settings[name] = argument
    return SimpleNamespace(command=command, **settings)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        run, render = _COMMANDS[args.command][:2]
        start = time.perf_counter()
        code, doc = run(args)
        doc["timing_ms"] = int((time.perf_counter() - start) * 1000)
        if args.format == "json":
            print(json.dumps(doc, indent=2))
        else:
            print(render(doc))
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
