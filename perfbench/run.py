"""kahlap benchmark: the real CLI commands, one fresh interpreter each.

Usage (from the repository root):

    python3 perfbench/run.py --workload check-refute --seed 1 --seconds 36 --trace 0

A pass runs every command of the workload once, in order, each in a new
``python3`` process (closed loop, one command at a time).  The package keeps
no caches across processes, so this is what a CLI user pays.  Inside the
process ``import kahlap.cli`` is timed apart from ``kahlap.cli.main(argv)``,
whose stdout is captured and compared with ``reference.json``.  Passes repeat
until the next one would overrun ``--seconds`` (at least two passes).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (see
``tracer.py``).  The last stdout line is the JSON result; the lines before it
are the run record: metric table, sample counts and quartiles, Python
version, rational backend, CPU count, commit and seed.  Exit code 0 with a
result, or non-zero without one when the package cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "check-refute": (
        "check type1:2,2 --max-k 3 --expect refuted-at:3",
        "check polydisc:3 --max-k 3 --expect refuted-at:3",
        "check polydisc:2 --max-k 3 --expect refuted-at:3",
        "check product(flat:1,hyp:1) --max-k 3 --expect refuted-at:2",
    ),
    "check-consistent": (
        "check hyp:1 --max-k 3 --expect consistent",
        "check hyp:2 --max-k 4 --expect consistent",
        "check fs:3 --max-k 3 --expect consistent",
        "reproduce laplquad",
    ),
    "reproduce-identities": (
        "reproduce laplcube",
        "reproduce duality",
        "reproduce sumder2",
        "reproduce comp1",
        "reproduce comp2",
        "reproduce lemma",
        "catalog",
    ),
}

# Document fields that carry a result; anything else (timing_ms, config,
# keys added later) is not compared.
RESULT_FIELDS = {
    "check": ("verdicts", "einstein", "reproduction"),
    "reproduce": ("instances", "passed"),
    "catalog": ("entries",),
}

MIN_PASSES = 2
SETUP_PROBES = 10
HARD_LIMIT_S = 170.0  # the whole run, probes included

SPAN_METRICS = {
    "cli.self_s": "cli",
    "catalog.potential_s": "catalog.potential",
    "geometry.metric_s": "geometry.metric",
    "geometry.inverse_s": "geometry.inverse",
    "geometry.einstein_s": "geometry.einstein",
    "inference.family_s": "inference.family",
    "inference.value_table_s": "inference.value_table",
    "laplacian.euclid_s": "laplacian.euclid",
    "laplacian.kahler_s": "laplacian.kahler",
    "laplacian.third_rhs_s": "laplacian.third_rhs",
    "inference.infer_s": "inference.infer",
    "inference.summary_s": "inference.summary",
}
CALL_METRICS = {
    "catalog.potential_calls": "catalog.potential",
    "geometry.inverse_calls": "geometry.inverse",
    "geometry.einstein_calls": "geometry.einstein",
    "laplacian.third_rhs_calls": "laplacian.third_rhs",
    "inference.infer_calls": "inference.infer",
}
COUNTER_METRICS = {
    "geometry.ginv_terms": "ginv_terms",
    "inference.family_size": "family_size",
    "laplacian.kahler_applications": "kahler_applications",
    "inference.pairs_scanned": "pairs_scanned",
}


class SetupError(Exception):
    """The package cannot be imported or the reference is missing."""


def command_argv(command: str, seed: int) -> list[str]:
    argv = command.split()
    if argv[0] == "check":
        argv += ["--seed", str(seed)]
    return argv + ["--format", "json"]


def run_child(argv: list[str], trace: bool, deadline: float) -> dict:
    """One fresh interpreter; returns the child's report or an error entry."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), "1" if trace else "0", *argv],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"failure": f"timed out after {timeout:.0f} s", "timed_out": True}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"failure": f"child exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    report = json.loads(lines[-1])
    if not Path(report["kahlap_file"]).resolve().is_relative_to(ROOT / "src"):
        raise SetupError(f"kahlap imported from {report['kahlap_file']}, not {src}")
    if report.get("exit") not in (0, None) and proc.stderr:
        report["stderr"] = proc.stderr.strip()[-2000:]
    return report


def mismatches(ref, got, path: str):
    """Paths where ``got`` differs from ``ref``; keys absent from ``ref`` are ignored."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            yield path
            return
        for key, value in ref.items():
            if key not in got:
                yield f"{path}.{key} (missing)"
            else:
                yield from mismatches(value, got[key], f"{path}.{key}")
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            yield path
            return
        for i, (a, b) in enumerate(zip(ref, got)):
            yield from mismatches(a, b, f"{path}[{i}]")
    elif ref != got:
        yield f"{path}: expected {ref!r}, got {got!r}"


def problems(command: str, report: dict, reference: dict) -> list[str]:
    """Why this command counts as failed; empty when it succeeded."""
    if "failure" in report:
        return [report["failure"]]
    if report["error"] is not None:
        return [f"raised: {report['error'].strip().splitlines()[-1]}"]
    if report["exit"] != 0:
        return [f"exit code {report['exit']}: {report.get('stderr', '')}"]
    try:
        doc = json.loads(report["stdout"])
    except json.JSONDecodeError:
        return ["stdout is not a JSON document"]
    return list(mismatches(reference[command], doc, command))


def run_pass(workload: str, seed: int, trace: bool, reference: dict, deadline: float) -> dict:
    start = time.monotonic()
    commands = []
    for command in WORKLOADS[workload]:
        report = run_child(command_argv(command, seed), trace, deadline)
        commands.append(
            {"command": command, "report": report, "problems": problems(command, report, reference)}
        )
        if report.get("timed_out"):
            break
    return {
        "trace": trace,
        "duration_s": time.monotonic() - start,
        "commands": commands,
        "wall_s": sum(c["report"].get("wall_s", 0.0) for c in commands),
    }


def load_reference() -> dict:
    if not (ROOT / "src" / "kahlap" / "cli.py").is_file():
        raise SetupError(f"no kahlap package under {ROOT / 'src'}")
    try:
        return json.loads(REFERENCE.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SetupError(f"cannot read {REFERENCE}: {exc}") from exc


def probe(deadline: float) -> dict:
    report = run_child([], False, deadline)
    if "failure" in report:
        raise SetupError(f"cannot import kahlap.cli: {report['failure']}")
    return report


def measure(workload: str, seed: int, seconds: int, trace: bool, reference: dict, started: float):
    deadline = started + HARD_LIMIT_S
    first = probe(deadline)  # also writes the bytecode cache before timing
    probes = [] if trace else [probe(deadline) for _ in range(SETUP_PROBES)]
    t0 = time.monotonic()
    passes = []
    while True:
        kind = trace and len(passes) % 2 == 1  # traced runs alternate with untraced
        passes.append(run_pass(workload, seed, kind, reference, deadline))
        if any(c["report"].get("timed_out") for c in passes[-1]["commands"]):
            break
        next_kind = trace and len(passes) % 2 == 1
        same = [p["duration_s"] for p in passes if p["trace"] == next_kind] or [
            passes[-1]["duration_s"]
        ]
        estimate = statistics.median(same)
        now = time.monotonic()
        if now + estimate > deadline - 5:
            break
        if len(passes) >= MIN_PASSES and now - t0 + estimate > seconds:
            break
    return first, probes, passes


def quartiles(values: list) -> dict:
    out = {"n": len(values), "min": min(values), "median": statistics.median(values)}
    out["max"] = max(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def end_to_end(probes: list, passes: list) -> tuple[dict, dict]:
    reports = [c["report"] for p in passes for c in p["commands"]]
    samples = {
        "wall_s": [p["wall_s"] for p in passes],
        "setup_s": [r["import_s"] for r in probes + reports if "import_s" in r],
        "peak_rss_mb": [r["maxrss_kb"] / 1024 for r in reports if "maxrss_kb" in r],
    }
    metrics = {
        "wall_s": {"value": statistics.median(samples["wall_s"]), "unit": "s"},
        "setup_s": {"value": statistics.median(samples["setup_s"]), "unit": "s"},
        "peak_rss_mb": {"value": max(samples["peak_rss_mb"]), "unit": "MB"},
    }
    return metrics, samples


def pass_layers(p: dict) -> dict:
    """Per-layer values of one traced pass, summed over its commands."""
    traces = [c["report"]["trace"] for c in p["commands"] if "trace" in c["report"]]
    values = {}
    for metric, span in SPAN_METRICS.items():
        values[metric] = sum(t["self_s"][span] for t in traces)
    values["inference.reverify_s"] = sum(
        t["self_s"]["inference.verify"] + t["reverify_s"] for t in traces
    )
    for metric, span in CALL_METRICS.items():
        values[metric] = sum(t["calls"][span] for t in traces)
    for metric, counter in COUNTER_METRICS.items():
        values[metric] = sum(t["counters"][counter] for t in traces)
    return values


def per_layer(passes: list) -> tuple[dict, dict]:
    traced = [pass_layers(p) for p in passes if p["trace"]]
    samples = {metric: [v[metric] for v in traced] for metric in traced[0]}
    metrics = {}
    for metric, values in samples.items():
        if metric.endswith("_s"):
            metrics[metric] = {"value": statistics.median(values), "unit": "s"}
        else:  # counters repeat exactly; the first traced pass stands for all
            metrics[metric] = {"value": values[0], "unit": "count"}
    untraced = statistics.median(p["wall_s"] for p in passes if not p["trace"])
    with_trace = [p["wall_s"] for p in passes if p["trace"]]
    samples["trace.overhead_ratio"] = [w / untraced - 1 for w in with_trace]
    metrics["trace.overhead_ratio"] = {
        "value": statistics.median(with_trace) / untraced - 1,
        "unit": "ratio",
    }
    return metrics, samples


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        reference = load_reference()
        first, probes, passes = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), reference, started
        )
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    runs = [c for p in passes for c in p["commands"]]
    failed = [c for c in runs if c["problems"]]
    for c in failed:
        for problem in c["problems"]:
            print(f"FAILED {c['command']}: {problem}", file=sys.stderr)
    if not args.trace:
        metrics, samples = end_to_end(probes, passes)
    elif any(p["trace"] for p in passes):
        metrics, samples = per_layer(passes)
    else:  # the untraced pass already ran out of time
        metrics, samples = {}, {}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commands": [" ".join(command_argv(c, args.seed)) for c in WORKLOADS[args.workload]],
        "passes": len(passes),
        "traced_passes": sum(p["trace"] for p in passes),
        "attempted": len(runs),
        "failed": len(failed),
        "failed_ratio": len(failed) / len(runs),
        "python": first["python"],
        "backend": first["backend"],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "untraced_spans": sorted(
            {m for c in runs for m in c["report"].get("trace", {}).get("missing", [])}
        ),
        "samples": {name: quartiles(values) for name, values in samples.items() if values},
    }
    for name, m in metrics.items():
        q = record["samples"][name]
        q1, q3 = q.get("q1", q["median"]), q.get("q3", q["median"])
        print(f"{name:30} {m['value']:>12.6g} {m['unit']:5} n={q['n']} q1={q1:.6g} q3={q3:.6g}")
    print(f"{'failed_ratio':30} {record['failed_ratio']:>12.6g} ratio {len(failed)} of {len(runs)}")
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(runs),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
