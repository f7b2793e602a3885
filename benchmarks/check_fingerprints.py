"""Counter-fingerprint regression check between two benchmark reports.

The semantic counter fingerprint embedded by ``run_benchmarks.py
--metrics`` (rounds, epochs, restarts, conflicts, firings, blocked — see
``repro.obs.metrics.SEMANTIC_COUNTERS``) describes the PARK computation
itself, not the machine it ran on, so it must be byte-identical between a
fresh run and the committed ``BENCH_park.json``.  CI runs the quick smoke
with ``--metrics`` and feeds the result here; any drift means the engine
now takes a different number of rounds/firings on a reference workload —
a semantic change that must be deliberate and re-baselined, never
accidental.

Usage::

    PYTHONPATH=src python benchmarks/check_fingerprints.py BENCH_smoke.json [BENCH_park.json]

The check also requires the candidate to carry the storage leg — both
relation layouts timed for every workload — so a runner regression that
silently drops the columnar-vs-row comparison fails CI instead of going
unnoticed (the runner itself asserts the layouts' fingerprints agree at
measurement time).

Exit status 0 when every workload shared by the two reports has an
identical fingerprint, 1 otherwise (or if either report lacks telemetry).
"""

import json
import sys

STORAGES = ("columnar", "row")


def _fingerprints(report):
    """``{workload: {counter: value}}`` for workloads carrying telemetry."""
    out = {}
    for name, entry in report.get("workloads", {}).items():
        telemetry = entry.get("telemetry")
        if telemetry and "fingerprint" in telemetry:
            out[name] = {key: value for key, value in telemetry["fingerprint"]}
    return out


def _check_storage_leg(report, path):
    """Every workload must carry both layouts' timings and the speedups."""
    failures = 0
    for name, entry in sorted(report.get("workloads", {}).items()):
        storage = entry.get("storage") or {}
        missing = [
            layout
            for layout in STORAGES
            if not storage.get(layout, {}).get("compiled", {}).get("wall_time_s")
        ]
        if missing or "columnar_speedup" not in storage:
            failures += 1
            print(
                "FAIL %-12s storage leg incomplete in %s (missing: %s)"
                % (name, path, ", ".join(missing) or "columnar_speedup")
            )
    return failures


def check(candidate_path, baseline_path="BENCH_park.json"):
    with open(candidate_path) as handle:
        candidate_report = json.load(handle)
    candidate = _fingerprints(candidate_report)
    with open(baseline_path) as handle:
        baseline_report = json.load(handle)
    baseline = _fingerprints(baseline_report)
    storage_failures = _check_storage_leg(candidate_report, candidate_path)
    if not candidate:
        print("error: %s carries no telemetry fingerprints "
              "(run with --metrics)" % candidate_path)
        return 1
    if not baseline:
        print("error: %s carries no telemetry fingerprints "
              "(re-baseline with --metrics)" % baseline_path)
        return 1
    shared = sorted(set(candidate) & set(baseline))
    if not shared:
        print("error: no workloads shared between %s and %s"
              % (candidate_path, baseline_path))
        return 1
    failures = 0
    for name in shared:
        if candidate[name] == baseline[name]:
            print("ok   %-12s %s" % (name, _summary(candidate[name])))
            continue
        failures += 1
        print("FAIL %-12s fingerprint drifted:" % name)
        keys = sorted(set(candidate[name]) | set(baseline[name]))
        for key in keys:
            new = candidate[name].get(key)
            old = baseline[name].get(key)
            if new != old:
                print("       %-28s baseline=%r now=%r" % (key, old, new))
    failures += storage_failures
    if failures:
        print("%d checks failed vs %s" % (failures, baseline_path))
        return 1
    print("all %d shared workloads match %s" % (len(shared), baseline_path))
    return 0


def _summary(fingerprint):
    return "rounds=%s epochs=%s firings=%s" % (
        fingerprint.get("engine.rounds"),
        fingerprint.get("engine.epochs"),
        fingerprint.get("engine.firings"),
    )


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if not argv or len(argv) > 2:
        print(__doc__)
        return 1
    return check(*argv)


if __name__ == "__main__":
    sys.exit(main())
