"""The benchmark's tracer reads the engine from outside (see
``perfbench/tracer.py``): it wraps ``build_test_family``,
``kahler_value_table`` and ``infer`` and, after the command returns, reads
``family.entries``, ``entry.index`` and ``witness.first.index``.  One
traced child run pins what it sees, so a refactor cannot break it
silently."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_child_reads_the_family_and_the_witness():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["check", "polydisc:2", "--max-k", "3", "--seed", "0", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "1", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["kahlap_file"] == str(ROOT / "src" / "kahlap" / "cli.py")
    assert report["error"] is None and report["exit"] == 0
    trace = report["trace"]
    assert trace["missing"] == []
    assert trace["counters"]["family_size"] == 99
    assert trace["counters"]["pairs_scanned"] == 12729
    assert trace["calls"]["inference.infer"] == 3
    assert json.loads(report["stdout"])["verdicts"][-1]["status"] == "refuted"
