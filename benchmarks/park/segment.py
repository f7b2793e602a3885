"""One benchmark segment: set up one workload, time its ops, verify them.

Run by ``run.py`` as a fresh process per segment::

    python benchmarks/park/segment.py --workload NAME --seed N --ops N \
        --trace 0|1 --workdir DIR [--smoke] [--corrupt-reference] [--ledger PATH]

The last line of standard output is one JSON object: set-up time, every
timed op's latency, the op and failure counts, peak RSS, and with
``--trace 1`` the ledger totals (every second op is traced).  An
exception outside the ops, in set-up or verification, ends the process
with a traceback and no JSON line.

An *op* is one commit (commit workloads) or one ``park()`` call
(one-shot workloads).  The loop is closed with one client: the next op
starts when the previous one has returned.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import traceback
from pathlib import Path
from time import perf_counter

import repro
from repro.active import ActiveDatabase
from repro.core.engine import park
from repro.engine.match import get_matcher_backend, set_matcher_backend
from repro.workloads.hr import hr_program

import workloads
from ledger import Ledger

ROOT = Path(__file__).resolve().parents[2]

#: (full, smoke) sizes.
EMPLOYEES = (2000, 200)
CLOSURE_NODES = (50, 12)
REPAIR_SIZE = ((20, 24), (4, 6))

#: Warm-up ops, part of set-up.  One-shot ops are whole engine runs; a
#: few fill every cache they use.
WARMUP = {"commit": 20, "oneshot": 3}

MAX_FAILURE_NOTES = 5


class CommitWorkload:
    """A stream of swap transactions against a journaled ActiveDatabase.

    Each commit deactivates *swaps* employees and rehires as many.
    """

    kind = "commit"

    def __init__(self, seed, workdir, swaps, audit, smoke):
        employees = EMPLOYEES[smoke]
        database, active = workloads.standing_database(employees, seed)
        self.roster = workloads.Roster(employees, active, seed)
        self.swaps = swaps
        self.snapshot = os.path.join(workdir, "snapshot.park")
        self.journal = os.path.join(workdir, "journal.log")
        self.audit = audit
        self.db = ActiveDatabase(
            database,
            rules=hr_program(),
            journal=self.journal,
            audit=audit,
        )
        self.db.checkpoint(self.snapshot)
        self.last = ((), ())

    def op(self):
        leaving, returning = self.last = self.roster.swap(self.swaps)
        with self.db.transaction() as tx:
            for index in leaving:
                tx.delete("active", "e%d" % index)
            for index in returning:
                name = "e%d" % index
                tx.insert("active", name)
                tx.insert("payroll", name, workloads.salary(index))

    def check_last(self):
        """The swapped employees are in the expected state afterwards."""
        db = self.db
        leaving, returning = self.last
        for index, active in [(i, False) for i in leaving] + [(i, True) for i in returning]:
            name = "e%d" % index
            if db.contains("active", name) != active:
                return "e%d: active should be %s" % (index, active)
            payroll = db.contains("payroll", name, workloads.salary(index))
            if payroll != active:
                return "e%d: payroll row should be %s" % (
                    index,
                    "present" if active else "absent",
                )
        return None

    def check_stream(self, corrupt):
        """Recovery, the cleanup postcondition, and the audit record count."""
        problems = []
        recovered = ActiveDatabase.recover(self.snapshot, self.journal)
        if recovered.database.freeze() != self.db.database.freeze():
            problems.append("recover(snapshot, journal) differs from the live database")
        orphans = self.db.query("payroll(X, S), not active(X)")
        if orphans:
            problems.append("%d payroll rows without active" % len(orphans))
        if self.audit:
            records = len(self.db.audit_log.records())
            if records != len(self.db.log):
                problems.append(
                    "%d audit records for %d commits" % (records, len(self.db.log))
                )
        if corrupt:
            problems.append("reference corrupted on request")
        return problems


def _fingerprint(result):
    """(atoms digest, blocked digest, rounds, restarts, firings) of a run."""
    atoms = "\n".join(sorted(str(atom) for atom in result.database.atoms()))
    blocked = "\n".join(sorted(str(instance) for instance in result.blocked))
    stats = result.stats
    return (
        hashlib.sha256(atoms.encode()).hexdigest(),
        hashlib.sha256(blocked.encode()).hexdigest(),
        stats.rounds,
        stats.restarts,
        stats.firings_total,
    )


class OneShotWorkload:
    """Repeated ``park(rules_text, facts_text)`` with the shipped defaults."""

    kind = "oneshot"

    def __init__(self, rules_text, facts_text):
        self.rules_text = rules_text
        self.facts_text = facts_text
        self.reference = None

    def op(self):
        return park(self.rules_text, self.facts_text)

    def compute_reference(self, corrupt):
        """The paper-transcription result: naive Γ, interpreted matcher."""
        previous = get_matcher_backend()
        set_matcher_backend("interpreted")
        try:
            reference = _fingerprint(
                park(self.rules_text, self.facts_text, evaluation="naive")
            )
        finally:
            set_matcher_backend(previous)
        if corrupt:
            reference = ("0" * 64,) + reference[1:]
        self.reference = reference

    def check_op(self, found):
        """*found* is the op's :func:`_fingerprint`."""
        if found != self.reference:
            return "fingerprint %r differs from reference %r" % (
                found[2:],
                self.reference[2:],
            )
        return None


def build(name, seed, workdir, smoke):
    if name == "commit-stream":
        return CommitWorkload(seed, workdir, swaps=1, audit=False, smoke=smoke)
    if name == "commit-batch-audit":
        swaps = 4 if smoke else 16
        return CommitWorkload(seed, workdir, swaps=swaps, audit=True, smoke=smoke)
    if name == "oneshot-closure":
        return OneShotWorkload(*workloads.closure(seed, CLOSURE_NODES[smoke]))
    if name == "oneshot-repair":
        lanes, depth = REPAIR_SIZE[smoke]
        return OneShotWorkload(*workloads.ic_repair(seed, lanes, depth))
    raise SystemExit("unknown workload %r" % name)


def _note(failures, message):
    if len(failures) < MAX_FAILURE_NOTES:
        failures.append(message)


def run_segment(args):
    """Set up, time ``args.ops`` ops, verify; returns the result dict."""
    # A fresh directory: the audit sidecar outlives checkpoints, so an old
    # one would break the record count.
    os.makedirs(args.workdir)
    start = perf_counter()
    workload = build(args.workload, args.seed, args.workdir, args.smoke)
    for _ in range(WARMUP[workload.kind]):
        workload.op()
    setup_s = perf_counter() - start

    ledger = Ledger() if args.trace else None
    latencies_ms = []
    traced_ms = []
    fingerprints = []
    failures = []
    failed = 0
    for op_id in range(args.ops):
        try:
            if ledger is not None and op_id % 2:
                result, wall = ledger.run_op(op_id, workload.op)
                traced_ms.append(wall * 1e3)
            else:
                begin = perf_counter()
                result = workload.op()
                wall = perf_counter() - begin
                latencies_ms.append(wall * 1e3)
        except Exception:
            failed += 1
            _note(failures, "op %d raised:\n%s" % (op_id, traceback.format_exc()))
            continue
        if workload.kind == "commit":
            problem = workload.check_last()
            if problem is not None:
                failed += 1
                _note(failures, "op %d: %s" % (op_id, problem))
        else:
            # Keep only the fingerprint, and drop the ParkResult before the
            # next op: it holds the whole run's state and would inflate
            # peak RSS.
            fingerprints.append((op_id, _fingerprint(result)))
            result = None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if workload.kind == "commit":
        problems = workload.check_stream(args.corrupt_reference)
        if problems:
            failed = args.ops
            for problem in problems:
                _note(failures, problem)
    else:
        workload.compute_reference(args.corrupt_reference)
        for index, fingerprint in fingerprints:
            problem = workload.check_op(fingerprint)
            if problem is not None:
                failed += 1
                _note(failures, "op %d: %s" % (index, problem))

    report = {
        "workload": args.workload,
        "setup_s": setup_s,
        "latencies_ms": latencies_ms,
        "traced_ms": traced_ms,
        "attempted": args.ops,
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
    }
    if ledger is not None:
        report["ledger"] = ledger.totals()
        if args.ledger:
            with open(args.ledger, "w", encoding="utf-8") as handle:
                json.dump(ledger.span_table(), handle)
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt-reference", action="store_true")
    parser.add_argument("--ledger")
    args = parser.parse_args(argv)
    source = ROOT / "src"
    if Path(repro.__file__).resolve().parent.parent != source:
        raise SystemExit("repro was imported from %s, not %s" % (repro.__file__, source))
    print(json.dumps(run_segment(args)))


if __name__ == "__main__":
    main()
