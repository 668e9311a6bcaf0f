"""The benchmark's tracer reads the engine from outside (see
``perfbench/tracer.py``): it wraps ``build_test_family``,
``kahler_value_table``, ``infer``, ``powers_at_origin``,
``third_power_rhs`` and ``third_power_summary`` among others and, after the
command returns, reads ``family.entries``, ``entry.index`` and
``witness.first.index``.  Traced child runs pin what it sees, on a check,
on the reproduce suites that read Laplacian values by packed key and on
the catalog and lemma runs that build potentials, metrics, inverses and
Einstein data, so a refactor cannot break it silently."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _traced(*argv):
    """The report of one traced ``perfbench/child.py`` run of ``argv``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "1", *argv, "--format", "json"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["kahlap_file"] == str(ROOT / "src" / "kahlap" / "cli.py")
    assert report["error"] is None and report["exit"] == 0
    assert report["trace"]["missing"] == []
    return report


def test_traced_child_reads_the_family_and_the_witness():
    report = _traced("check", "polydisc:2", "--max-k", "3", "--seed", "0")
    trace = report["trace"]
    # the counters count the family the run builds: the 10 rows of the
    # full 99 that the polydisc's torus can see
    assert trace["counters"]["family_size"] == 10
    assert trace["counters"]["pairs_scanned"] == 115
    assert trace["calls"]["inference.infer"] == 3
    assert json.loads(report["stdout"])["verdicts"][-1]["status"] == "refuted"


def test_traced_comp1_sees_one_summary_per_entry():
    trace = _traced("reproduce", "comp1")["trace"]
    assert trace["calls"]["inference.summary"] == 4


def test_traced_duality_builds_each_metric_once():
    trace = _traced("reproduce", "duality")["trace"]
    assert trace["calls"]["geometry.metric"] == 6


def test_traced_catalog_pins_its_potential_and_geometry_calls():
    trace = _traced("catalog")["trace"]
    calls = trace["calls"]
    assert calls["catalog.potential"] == 15
    assert calls["geometry.metric"] == 16
    assert calls["geometry.inverse"] == 15
    assert calls["geometry.einstein"] == 15
    assert trace["counters"]["ginv_terms"] == 243


def test_traced_lemma_builds_each_potential_and_metric_once():
    calls = _traced("reproduce", "lemma")["trace"]["calls"]
    assert calls["catalog.potential"] == 6
    assert calls["geometry.metric"] == 6
