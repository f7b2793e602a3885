"""Run the static analyzer over every benchmark workload program.

Renders each workload's rule program back to PARK text, feeds it through
``repro.lint.analyze_text`` with the workload's database, and writes a
JSON artifact (per-workload diagnostics + program facts + analysis
time).  CI uploads the artifact so regressions in analyzer coverage or
speed on realistic programs are visible per run.

The benchmark programs are generated safe by construction, so any
error-severity diagnostic here is an analyzer or generator bug: the
script exits non-zero in that case.

Usage:
    PYTHONPATH=src python benchmarks/lint_workloads.py [--quick] [--out LINT_workloads.json]
"""

import argparse
import json
import sys
import time

from repro.lang import render_program
from repro.lint import analyze_text

from run_benchmarks import _workloads


def run(out="LINT_workloads.json", quick=False, verbose=True):
    report = {"workloads": {}}
    errors = 0
    for name, workload in _workloads(quick=quick):
        text = render_program(workload.program)
        start = time.perf_counter()
        file_report = analyze_text(
            text, path=name, database=workload.database
        )
        elapsed = time.perf_counter() - start
        by_severity = {"error": 0, "warning": 0, "info": 0}
        for diagnostic in file_report.diagnostics:
            by_severity[diagnostic.severity] += 1
        errors += by_severity["error"]
        report["workloads"][name] = {
            "rules": file_report.rules,
            "analysis_time_s": round(elapsed, 6),
            "diagnostics": [d.to_json() for d in file_report.diagnostics],
            "severity_counts": by_severity,
            "facts": file_report.facts.to_json(),
        }
        if verbose:
            print(
                "%-12s %3d rules  %8.4fs  %d error(s), %d warning(s), "
                "%d info  conflict-free=%s"
                % (
                    name,
                    file_report.rules,
                    elapsed,
                    by_severity["error"],
                    by_severity["warning"],
                    by_severity["info"],
                    file_report.facts.conflict_free,
                )
            )
    report["summary"] = {
        "workloads": len(report["workloads"]),
        "errors": errors,
    }
    with open(out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if verbose:
        print("wrote %s" % out)
    if errors:
        print(
            "FAIL: %d error-severity diagnostic(s) on generated workloads"
            % errors,
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="LINT_workloads.json")
    parser.add_argument(
        "--quick", action="store_true", help="smaller workload set for CI"
    )
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    return run(out=args.out, quick=args.quick, verbose=not args.quiet)


if __name__ == "__main__":
    sys.exit(main())
