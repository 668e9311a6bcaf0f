"""Run one kahlap command in this fresh interpreter and report on stdout.

Usage: python3 child.py <trace 0|1> [kahlap argv ...]

With no kahlap argv the process only imports ``kahlap.cli`` (a set-up
probe).  The report is one JSON line: import time, the wall time of
``kahlap.cli.main(argv)`` with its stdout captured, the exit code, peak
resident memory and, when tracing, the per-span self times and counters.
Nothing but ``sys`` and ``time`` is imported before ``kahlap.cli``, so the
import time is what a CLI user pays after interpreter start.
"""

import sys
import time

t0 = time.perf_counter()
import kahlap.cli  # noqa: E402

import_s = time.perf_counter() - t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from kahlap.rationals import RatType  # noqa: E402


def main() -> None:
    trace = sys.argv[1] == "1"
    argv = sys.argv[2:]
    report = {
        "import_s": import_s,
        "kahlap_file": kahlap.cli.__file__,
        "python": platform.python_version(),
        "backend": f"{RatType.__module__}.{RatType.__qualname__}",
    }
    if argv:
        tracer = None
        run = kahlap.cli.main
        if trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
            run = tracer.wrap("cli", kahlap.cli.main)
        out = io.StringIO()
        code = None
        error = None
        with contextlib.redirect_stdout(out):
            start = time.perf_counter()
            try:
                code = run(argv)
            except Exception:  # reported as a failed command, not a crash
                error = traceback.format_exc()
            wall_s = time.perf_counter() - start
        report.update(wall_s=wall_s, exit=code, error=error, stdout=out.getvalue())
        if tracer is not None:
            report["trace"] = tracer.summary()
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
