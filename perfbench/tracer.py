"""Spans around the public functions of kahlap's modules, from outside.

``Tracer.install`` replaces each target function, in every ``kahlap``
module namespace that holds it, with a wrapper that records a span.  A
span's self time is its duration minus the time its child spans cover.
Counters are taken from the arguments and results the wrappers see; the
costly ones (term counts, witness positions) are computed in ``summary``,
after ``main`` has returned, so they add nothing to any span.

``jets`` and ``rationals`` have no public boundary that callers cross, so
their cost lands in their callers' self time; ``radial`` is on no CLI path.
``series_matrix_inverse`` and ``einstein_data`` are what the first
``MetricJet.g_inv`` and ``MetricJet.einstein`` accesses compute.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict


def _powers_span(args) -> str:
    return "laplacian.euclid" if args[0] is None else "laplacian.kahler"


# (module, function) -> span name, or a function of the call's arguments
TARGETS = {
    ("catalog", "potential"): "catalog.potential",
    ("geometry", "metric_from_potential"): "geometry.metric",
    ("geometry", "series_matrix_inverse"): "geometry.inverse",
    ("geometry", "einstein_data"): "geometry.einstein",
    ("laplacian", "powers_at_origin"): _powers_span,
    ("laplacian", "third_power_rhs"): "laplacian.third_rhs",
    ("inference", "build_test_family"): "inference.family",
    ("inference", "kahler_value_table"): "inference.value_table",
    ("inference", "infer"): "inference.infer",
    ("inference", "verify_property"): "inference.verify",
    ("inference", "third_power_summary"): "inference.summary",
}

SPANS = (
    "cli",
    "catalog.potential",
    "geometry.metric",
    "geometry.inverse",
    "geometry.einstein",
    "laplacian.euclid",
    "laplacian.kahler",
    "laplacian.third_rhs",
    "inference.family",
    "inference.value_table",
    "inference.infer",
    "inference.verify",
    "inference.summary",
)


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, start, time covered by children]
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.reverify_s = 0.0
        self.kahler_applications = 0
        self.inverses = []
        self.families = []
        self.verdicts = []  # (family, verdict) per infer call
        self.missing = []

    def wrap(self, name, fn, on_result=None):
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = name(args) if callable(name) else name
            frame = [span, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                self.self_s[span] += dur - frame[2]
                self.calls[span] += 1
                if stack:
                    parent = stack[-1]
                    parent[2] += dur
                    # laplacian work verify_property opens itself, outside the
                    # value table and the k=3 summary: random re-verification
                    if parent[0] == "inference.verify" and span.startswith("laplacian."):
                        self.reverify_s += dur
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import kahlap.catalog  # noqa: F401  (loads every traced module)
        import kahlap.inference  # noqa: F401

        hooks = {
            "laplacian.powers_at_origin": self._count_applications,
            "inference.build_test_family": lambda a, kw, r: self.families.append(r),
            "geometry.series_matrix_inverse": lambda a, kw, r: self.inverses.append(r),
            "inference.infer": self._keep_verdict,
        }
        wrappers = {}
        for (module, func), span in TARGETS.items():
            original = getattr(sys.modules.get(f"kahlap.{module}"), func, None)
            if original is None:
                self.missing.append(f"{module}.{func}")
                continue
            wrappers[id(original)] = self.wrap(span, original, hooks.get(f"{module}.{func}"))
        for modname, mod in list(sys.modules.items()):
            if modname != "kahlap" and not modname.startswith("kahlap."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:  # the originals stay alive, so ids are unique
                    setattr(mod, attr, wrappers[id(value)])

    def _count_applications(self, args, kwargs, result):
        if args[0] is not None:
            self.kahler_applications += len(result)

    def _keep_verdict(self, args, kwargs, result):
        family = args[2] if len(args) > 2 else kwargs["family"]
        self.verdicts.append((family, result))

    def summary(self) -> dict:
        """Self seconds per span, call counts and the work counters."""
        pairs = 0
        for family, verdict in self.verdicts:
            pairs += _pairs_scanned(family, verdict)
        return {
            "self_s": {name: self.self_s.get(name, 0.0) for name in SPANS},
            "calls": {name: self.calls.get(name, 0) for name in SPANS},
            "reverify_s": self.reverify_s,
            "counters": {
                "family_size": sum(len(f.entries) for f in self.families),
                "kahler_applications": self.kahler_applications,
                "ginv_terms": sum(
                    sum(1 for _ in entry.terms())
                    for matrix in self.inverses
                    for row in matrix
                    for entry in row
                ),
                "pairs_scanned": pairs,
            },
            "missing": self.missing,
        }


def _pairs_scanned(family, verdict) -> int:
    """Row pairs the witness scan examined: all N(N-1)/2 when no witness was
    found, else every pair before the witness in scan order plus the witness."""
    n = len(family.entries)
    witness = getattr(verdict, "witness", None)
    if witness is None:
        return n * (n - 1) // 2
    position = {entry.index: i for i, entry in enumerate(family.entries)}
    a = position[witness.first.index]
    b = position[witness.second.index]
    return a * (n - 1) - a * (a - 1) // 2 + (b - a)
