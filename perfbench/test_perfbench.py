"""Self-test of the benchmark.

Run from the repository root: python3 -m pytest perfbench -q
The workload test runs every command three times and takes about a minute
on two cores.
"""

import json
import time
from types import SimpleNamespace

import pytest

import run
import tracer


def result_fields(p: dict) -> list:
    out = []
    for c in p["commands"]:
        doc = json.loads(c["report"]["stdout"])
        out.append({key: doc[key] for key in run.RESULT_FIELDS[c["command"].split()[0]]})
    return out


def counters(p: dict) -> dict:
    return {k: v for k, v in run.pass_layers(p).items() if not k.endswith("_s")}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_counters_repeat_and_results_match_untraced(workload):
    reference = run.load_reference()
    deadline = time.monotonic() + 600
    untraced = run.run_pass(workload, 1, False, reference, deadline)
    first = run.run_pass(workload, 0, True, reference, deadline)
    second = run.run_pass(workload, 0, True, reference, deadline)
    for p in (untraced, first, second):
        assert [c["problems"] for c in p["commands"]] == [[]] * len(p["commands"])
    assert counters(first) == counters(second)
    assert result_fields(first) == result_fields(untraced)


def test_comparison_ignores_added_keys_and_reports_changed_values():
    ref = {"verdicts": [{"k": 1, "status": "consistent"}], "passed": True}
    same = {"verdicts": [{"k": 1, "status": "consistent", "diagnostics": {}}],
            "passed": True, "timing_ms": 7, "stages_ms": {}}
    assert list(run.mismatches(ref, same, "c")) == []
    changed = {"verdicts": [{"k": 1, "status": "refuted"}], "passed": True}
    assert list(run.mismatches(ref, changed, "c")) == [
        "c.verdicts[0].status: expected 'consistent', got 'refuted'"
    ]
    assert list(run.mismatches(ref, {"verdicts": [], "passed": True}, "c")) == ["c.verdicts"]
    assert list(run.mismatches(ref, {"verdicts": ref["verdicts"]}, "c")) == ["c.passed (missing)"]


def test_pairs_scanned_counts_pairs_up_to_the_witness():
    family = SimpleNamespace(entries=[SimpleNamespace(index=i) for i in range(4)])
    consistent = SimpleNamespace(witness=None)
    assert tracer._pairs_scanned(family, consistent) == 6
    # scan order (0,1) (0,2) (0,3) (1,2) (1,3): the witness is the fifth pair
    witness = SimpleNamespace(first=SimpleNamespace(index=1), second=SimpleNamespace(index=3))
    assert tracer._pairs_scanned(family, SimpleNamespace(witness=witness)) == 5
