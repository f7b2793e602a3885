"""Command-line interface: run PARK computations from files or stdin.

Usage (also via ``python -m repro``)::

    python -m repro run --rules rules.park --db facts.park
    python -m repro run --rules rules.park --db facts.park \
        --update '+q(b)' --update '-active(joe)' \
        --policy priority --trace
    python -m repro check examples/                   # static analysis
    python -m repro check rules.park --json --strict  # CI gating
    python -m repro query --db facts.park --query 'p(X), not q(X)'
    python -m repro explain --rules r.park --db d.park --target '+q'
    python -m repro explain --rules r.park --db d.park --target '+q' \
        --why-not --json                              # why is +q absent?
    python -m repro profile examples/quickstart.park  # hot-spot report
    python -m repro journal verify commits.journal    # WAL integrity check
    python -m repro audit show commits.journal.audit --tx 17 --atom 'q(a)'

Policies: ``inertia`` (default), ``priority``, ``specificity``,
``random[:seed]``, ``insert``, ``delete``.  Exit status is 0 on success,
1 on usage/parse errors, 2 on engine errors.

``check`` runs the static analyzer (:mod:`repro.lint`) over one or more
``.park`` files or directories: classification, ``PARK0xx`` diagnostics
with source spans, and the derived program facts.  Exit status: 1 when
any *error* diagnostic is present (also for warnings under ``--strict``);
info diagnostics never gate.  ``run`` and ``profile`` take ``--facts`` to
let the engine use the same analysis for its static fast paths, and both
warn once (to stderr) when the program has safety violations, excluding
the unsafe rules from the run instead of failing inside grounding.

Telemetry: ``run`` takes ``--metrics`` (print the counter registry),
``--trace-out FILE`` (write the span trace as JSON lines), and
``--max-rounds`` / ``--max-restarts`` budgets.  ``profile`` always runs
with telemetry on and prints the per-rule/per-phase hot-spot table (or
``--json``).  Both flush whatever telemetry was recorded even when the
engine errors out mid-run, so a diverging program still yields a usable
partial trace and profile.  Both also take ``--prom-out FILE``
(Prometheus text-format metrics snapshot) and ``--chrome-out FILE``
(chrome://tracing JSON of the span trace).

``explain`` always runs with the decision trail enabled; ``--why-not``
asks the negative-space question (why is the target *absent*: blocked by
which conflict and winning side, lost in a restart, refuted by negation,
or never matched), and ``--json`` emits either answer structurally.
``audit`` reads the ``<journal>.audit`` sidecar an
``ActiveDatabase(audit=True)`` writes: one CRC-framed decision-trail
record per committed transaction, filterable by ``--tx`` and ``--atom``.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

from .analysis.explain import Explainer
from .analysis.render import render_database, render_trace
from .analysis.trace import TraceRecorder
from .core.blocking import BlockingMode
from .core.engine import ParkEngine
from .engine.plancache import DEFAULT_PLAN_CACHE
from .errors import EngineError, ParkError
from .lang.parser import parse_atom, parse_database, parse_program
from .lang.updates import Update, UpdateOp
from .obs import Metrics
from .storage.database import Database


def _read(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _parse_update(text):
    text = text.strip()
    if not text or text[0] not in "+-":
        raise ParkError(
            "update %r must start with '+' or '-' (e.g. '+q(b)')" % text
        )
    op = UpdateOp.INSERT if text[0] == "+" else UpdateOp.DELETE
    return Update(op, parse_atom(text[1:]))


def _make_policy(spec):
    from .policies.composite import ConstantPolicy
    from .policies.inertia import InertiaPolicy
    from .policies.priority import PriorityPolicy
    from .policies.random_choice import RandomPolicy
    from .policies.specificity import SpecificityPolicy

    name, _, argument = spec.partition(":")
    name = name.strip().lower()
    if name == "inertia":
        return InertiaPolicy()
    if name == "priority":
        return PriorityPolicy()
    if name == "specificity":
        return SpecificityPolicy()
    if name == "random":
        return RandomPolicy(seed=int(argument) if argument else 0)
    if name in ("insert", "delete"):
        return ConstantPolicy(name)
    raise ParkError(
        "unknown policy %r (try inertia, priority, specificity, "
        "random[:seed], insert, delete)" % spec
    )


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PARK semantics for active rules (Gottlob, Moerkotte, "
        "Subrahmanian; EDBT 1996)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="evaluate PARK(D, P, U)")
    run.add_argument("--rules", required=True, help="rule file ('-' = stdin)")
    run.add_argument("--db", default=None, help="fact file ('-' = stdin)")
    run.add_argument(
        "--update", action="append", default=[], metavar="±atom",
        help="transaction update, e.g. '+q(b)' (repeatable)",
    )
    run.add_argument("--policy", default="inertia")
    run.add_argument(
        "--blocking", choices=["all", "minimal"], default="all",
        help="conflict blocking granularity",
    )
    run.add_argument(
        "--evaluation", choices=["naive", "seminaive", "incremental"],
        default="naive",
        help="Γ evaluation strategy (bit-identical results; "
        "'incremental' delta-matches events and skips clean rules)",
    )
    run.add_argument(
        "--matcher", choices=["compiled", "interpreted"], default=None,
        help="body-matching backend (bit-identical results; defaults to "
        "$REPRO_MATCHER or 'compiled')",
    )
    run.add_argument(
        "--storage", choices=["columnar", "row"], default=None,
        help="relation storage layout (bit-identical results; defaults to "
        "$REPRO_STORAGE or 'columnar')",
    )
    run.add_argument("--trace", action="store_true", help="print the trace")
    run.add_argument("--stats", action="store_true", help="print run counters")
    run.add_argument(
        "--metrics", action="store_true",
        help="record the telemetry registry and print every counter",
    )
    run.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write the span trace as JSON lines ('-' = stdout); flushed "
        "even if the engine errors out mid-run",
    )
    run.add_argument(
        "--prom-out", default=None, metavar="FILE",
        help="write a Prometheus text-format metrics snapshot "
        "(implies --metrics recording)",
    )
    run.add_argument(
        "--chrome-out", default=None, metavar="FILE",
        help="write the span trace as chrome://tracing JSON "
        "(implies trace recording)",
    )
    run.add_argument(
        "--max-rounds", type=int, default=None, metavar="N",
        help="abort with an engine error after N Γ rounds",
    )
    run.add_argument(
        "--max-restarts", type=int, default=None, metavar="N",
        help="abort with an engine error after N conflict restarts",
    )
    run.add_argument(
        "--facts", action="store_true",
        help="analyze the program first and enable the static fast paths "
        "(conflict-scan skip, auto-seminaive, dead-rule pruning); "
        "results are bit-identical",
    )

    profile = commands.add_parser(
        "profile",
        help="run with telemetry on and print the hot-spot report",
    )
    profile.add_argument("rules", help="rule file ('-' = stdin)")
    profile.add_argument("--db", default=None, help="fact file ('-' = stdin)")
    profile.add_argument(
        "--update", action="append", default=[], metavar="±atom",
        help="transaction update, e.g. '+q(b)' (repeatable)",
    )
    profile.add_argument("--policy", default="inertia")
    profile.add_argument(
        "--blocking", choices=["all", "minimal"], default="all",
    )
    profile.add_argument(
        "--evaluation", choices=["naive", "seminaive", "incremental"],
        default="naive",
    )
    profile.add_argument(
        "--matcher", choices=["compiled", "interpreted"], default=None,
    )
    profile.add_argument(
        "--storage", choices=["columnar", "row"], default=None,
    )
    profile.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="show only the N slowest rules",
    )
    profile.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    profile.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="also write the span trace as JSON lines",
    )
    profile.add_argument(
        "--prom-out", default=None, metavar="FILE",
        help="write a Prometheus text-format metrics snapshot",
    )
    profile.add_argument(
        "--chrome-out", default=None, metavar="FILE",
        help="write the span trace as chrome://tracing JSON",
    )
    profile.add_argument("--max-rounds", type=int, default=None, metavar="N")
    profile.add_argument("--max-restarts", type=int, default=None, metavar="N")
    profile.add_argument(
        "--facts", action="store_true",
        help="enable the engine's static fast paths (bit-identical results)",
    )

    check = commands.add_parser(
        "check", help="statically analyze programs (PARK0xx diagnostics)"
    )
    check.add_argument(
        "paths", nargs="*", metavar="PATH",
        help=".park files or directories (directories glob *.park)",
    )
    check.add_argument(
        "--rules", default=None,
        help="a rule file to analyze (same as a positional PATH)",
    )
    check.add_argument(
        "--db", default=None,
        help="fact file; sharpens dead-rule analysis with actual EDB rows",
    )
    check.add_argument(
        "--policy", default=None,
        help="policy the program will run under; enables the "
        "policy-specific conflict diagnostics (PARK021/PARK022)",
    )
    check.add_argument(
        "--json", action="store_true", help="emit diagnostics as JSON"
    )
    check.add_argument(
        "--strict", action="store_true",
        help="exit 1 on warnings too (errors always exit 1)",
    )

    journal = commands.add_parser(
        "journal", help="inspect, verify, or repair a commit journal"
    )
    journal.add_argument(
        "action", choices=["inspect", "verify", "repair"],
        help="inspect: list records; verify: integrity-check framing and "
        "CRCs; repair: truncate a torn final record",
    )
    journal.add_argument("path", help="journal file written by ActiveDatabase")
    journal.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    journal.add_argument(
        "--strict", action="store_true",
        help="verify: treat a (recoverable) torn tail as a failure too",
    )

    query = commands.add_parser("query", help="ad-hoc conjunctive query")
    query.add_argument("--db", required=True, help="fact file ('-' = stdin)")
    query.add_argument(
        "--query", required=True,
        help="body literals, e.g. 'payroll(X, S), not active(X)'",
    )

    explain = commands.add_parser(
        "explain", help="derivation (or why-not verdict) of one update"
    )
    explain.add_argument("--rules", required=True)
    explain.add_argument("--db", default=None)
    explain.add_argument("--update", action="append", default=[])
    explain.add_argument("--policy", default="inertia")
    explain.add_argument(
        "--target", required=True, help="marked literal to explain, e.g. '+q'"
    )
    explain.add_argument(
        "--why-not", action="store_true", dest="why_not",
        help="explain why the target is ABSENT from the result (blocked, "
        "lost in a restart, refuted by negation, never matched, ...)",
    )
    explain.add_argument(
        "--json", action="store_true",
        help="emit the derivation tree / why-not verdict as JSON",
    )

    audit = commands.add_parser(
        "audit", help="inspect a persisted decision-trail sidecar"
    )
    audit.add_argument(
        "action", choices=["inspect", "show", "verify"],
        help="inspect: one line per transaction; show: full decision "
        "trail of --tx (or all); verify: integrity-check framing/CRCs",
    )
    audit.add_argument(
        "path",
        help="audit sidecar written by ActiveDatabase(audit=True) "
        "(<journal>.audit)",
    )
    audit.add_argument(
        "--tx", type=int, default=None, metavar="N",
        help="restrict to transaction N",
    )
    audit.add_argument(
        "--atom", default=None, metavar="ATOM",
        help="show only events mentioning this atom, e.g. 'q(a)'",
    )
    audit.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    audit.add_argument(
        "--strict", action="store_true",
        help="verify: treat a (recoverable) torn tail as a failure too",
    )
    return parser


def _parse_rules_for_run(text, origin):
    """Parse rule text for ``run``/``profile`` with a friendly safety path.

    Syntax, duplicate-name, and arity problems still fail the command with
    the strict parser's located error.  Safety violations instead warn
    once on stderr — pointing at ``repro check`` — and the unsafe rules
    are excluded from the run, rather than the whole command failing.
    """
    from .lang.parser import parse_source
    from .lang.program import Program
    from .lang.source import SAFETY

    parsed = parse_source(text)
    if any(issue.kind != SAFETY for issue in parsed.issues):
        return parse_program(text)  # raises the located strict error
    safety_issues = parsed.issues_of(SAFETY)
    if not safety_issues:
        return parsed.program()
    sys.stderr.write(
        "warning: %s: %d unsafe rule(s) excluded from this run "
        "(see 'repro check %s'):\n" % (origin, len(safety_issues), origin)
    )
    for issue in safety_issues:
        sys.stderr.write("  %s: %s\n" % (issue.span, issue.message))
    unsafe = {issue.rule_index for issue in safety_issues}
    return Program(
        tuple(
            rule
            for index, rule in enumerate(parsed.rules)
            if index not in unsafe
        )
    )


def _load_inputs(args):
    program = _parse_rules_for_run(_read(args.rules), args.rules)
    database = (
        Database(parse_database(_read(args.db))) if args.db else Database()
    )
    updates = [_parse_update(u) for u in getattr(args, "update", [])]
    return program, database, updates


def _flush_trace(tracer, path, out):
    """Write the span trace as JSON lines; ``-`` streams to *out*."""
    if path == "-":
        out.write(tracer.to_jsonl())
    else:
        tracer.write_jsonl(path)


def _command_run(args, out):
    if getattr(args, "matcher", None):
        from .engine.match import set_matcher_backend

        set_matcher_backend(args.matcher)
    if getattr(args, "storage", None):
        from .storage.relation import set_storage_backend

        set_storage_backend(args.storage)
    program, database, updates = _load_inputs(args)
    recorder = TraceRecorder() if args.trace else None
    metrics = Metrics() if args.metrics or args.prom_out else None
    if args.trace_out or args.chrome_out:
        from .obs import Tracer

        tracer = Tracer()
    else:
        tracer = None
    engine = ParkEngine(
        policy=_make_policy(args.policy),
        blocking_mode=BlockingMode.MINIMAL
        if args.blocking == "minimal"
        else BlockingMode.ALL,
        max_rounds=args.max_rounds,
        max_restarts=args.max_restarts,
        listeners=(recorder,) if recorder is not None else (),
        evaluation=getattr(args, "evaluation", "naive"),
        metrics=metrics,
        tracer=tracer,
        facts=True if getattr(args, "facts", False) else None,
        plan_cache=DEFAULT_PLAN_CACHE,
    )
    try:
        result = engine.run(program, database, updates=updates)
    finally:
        # Engine errors still surface (exit 2 via main), but whatever
        # telemetry was recorded up to the failure is flushed first.
        if tracer is not None and args.trace_out:
            _flush_trace(tracer, args.trace_out, out)
        if tracer is not None and args.chrome_out:
            from .obs.export import write_chrome_trace

            write_chrome_trace(tracer, args.chrome_out)
        if metrics is not None and args.prom_out:
            from .obs.export import write_prometheus

            write_prometheus(metrics, args.prom_out)
    if recorder is not None:
        out.write(render_trace(recorder) + "\n\n")
    out.write("result: %s\n" % render_database(result.database))
    out.write("delta : %s\n" % result.delta)
    if result.blocked:
        out.write("blocked rules: %s\n" % ", ".join(result.blocked_rules()))
    if args.stats:
        out.write("%s\n" % result.summary())
    if metrics is not None and args.metrics:
        out.write("metrics:\n")
        for name, value in sorted(metrics.counters.items()):
            out.write("  %-36s %d\n" % (name, value))
        for name, value in sorted(metrics.gauges.items()):
            out.write("  %-36s %d\n" % (name, value))
        for name, entry in sorted(metrics.timers.items()):
            out.write(
                "  %-36s %.6f s over %d calls\n" % (name, entry[1], entry[0])
            )
    return 0


def _command_profile(args, out):
    from .engine.match import get_matcher_backend, set_matcher_backend
    from .obs import Tracer, hotspot_report, render_profile
    from .storage.relation import get_storage_backend, set_storage_backend

    if args.matcher:
        set_matcher_backend(args.matcher)
    if args.storage:
        set_storage_backend(args.storage)
    program = _parse_rules_for_run(_read(args.rules), args.rules)
    database = (
        Database(parse_database(_read(args.db))) if args.db else Database()
    )
    updates = [_parse_update(u) for u in args.update]
    metrics = Metrics()
    tracer = Tracer() if args.trace_out or args.chrome_out else None
    engine = ParkEngine(
        policy=_make_policy(args.policy),
        blocking_mode=BlockingMode.MINIMAL
        if args.blocking == "minimal"
        else BlockingMode.ALL,
        max_rounds=args.max_rounds,
        max_restarts=args.max_restarts,
        evaluation=args.evaluation,
        metrics=metrics,
        tracer=tracer,
        facts=True if args.facts else None,
        plan_cache=DEFAULT_PLAN_CACHE,
    )
    meta = {
        "rules": args.rules,
        "policy": args.policy,
        "evaluation": args.evaluation,
        "matcher": args.matcher or get_matcher_backend(),
        "storage": args.storage or get_storage_backend(),
        "blocking": args.blocking,
    }
    if args.db:
        meta["db"] = args.db
    result = None
    error = None
    start = perf_counter()
    try:
        result = engine.run(program, database, updates=updates)
    except EngineError as engine_error:
        # Report the partial profile: everything recorded up to the
        # failure is still valid telemetry.
        error = engine_error
        meta["error"] = str(engine_error)
    wall_time = perf_counter() - start
    if tracer is not None and args.trace_out:
        _flush_trace(tracer, args.trace_out, out)
    if tracer is not None and args.chrome_out:
        from .obs.export import write_chrome_trace

        write_chrome_trace(tracer, args.chrome_out)
    if args.prom_out:
        from .obs.export import write_prometheus

        write_prometheus(metrics, args.prom_out)
    report = hotspot_report(
        metrics, result=result, wall_time=wall_time, top=args.top, meta=meta
    )
    if args.json:
        json.dump(report, out, indent=2)
        out.write("\n")
    else:
        out.write(render_profile(report))
    if error is not None:
        sys.stderr.write("error: %s\n" % error)
        return 2
    return 0


def _check_targets(paths):
    """Expand files/directories into the list of files to analyze."""
    import glob
    import os

    files = []
    seen_stdin = False
    for path in paths:
        if path == "-":
            # stdin can only be read once; analyzing it twice would hand
            # the second pass an empty program.
            if not seen_stdin:
                seen_stdin = True
                files.append(path)
            continue
        if not os.path.isdir(path):
            files.append(path)
            continue
        matched = sorted(glob.glob(os.path.join(path, "*.park")))
        if not matched:
            raise ParkError("no .park files in directory %r" % path)
        files.extend(matched)
    return files


def _command_check(args, out):
    from .lint import LintReport, analyze_path, analyze_text
    from .lint.report import render_lint_report

    paths = list(args.paths)
    if args.rules:
        paths.append(args.rules)
    if not paths:
        raise ParkError(
            "repro check: give one or more .park files or directories "
            "(or --rules FILE)"
        )
    database = Database(parse_database(_read(args.db))) if args.db else None
    report = LintReport()
    for path in _check_targets(paths):
        if path == "-":
            report.add(
                analyze_text(
                    sys.stdin.read(),
                    path="<stdin>",
                    policy=args.policy,
                    database=database,
                )
            )
        else:
            report.add(
                analyze_path(path, policy=args.policy, database=database)
            )
    if args.json:
        json.dump(report.to_json(strict=args.strict), out, indent=2)
        out.write("\n")
    else:
        render_lint_report(report, out)
    return report.exit_code(strict=args.strict)


def _journal_report(journal):
    """Scan *journal*; returns (records, damage_message_or_None)."""
    from .errors import StorageError

    try:
        return journal.records(), None
    except StorageError as error:
        return [], str(error)


def _command_journal(args, out):
    from .active.journal import Journal
    from .lang.pretty import render_update

    journal = Journal(args.path)
    if args.action == "repair":
        records, damage = _journal_report(journal)
        if damage is not None:
            sys.stderr.write(
                "error: %s\n"
                "       (corruption before intact records is not a torn "
                "tail; repair refuses to guess)\n" % damage
            )
            return 1
        repaired = journal.repair_tail()
        out.write(
            "repaired: torn tail truncated, %d records kept\n" % len(records)
            if repaired
            else "clean: nothing to repair (%d records)\n" % len(records)
        )
        return 0

    records, damage = _journal_report(journal)
    tail = (
        "damaged"
        if damage is not None
        else ("torn" if journal.corrupt_tail is not None else "clean")
    )
    if args.json:
        report = {
            "path": args.path,
            "records": [
                {
                    "tx": record.transaction_id,
                    "version": record.version,
                    "requested": [render_update(u) for u in record.requested],
                    "inserts": len(record.delta.inserts),
                    "deletes": len(record.delta.deletes),
                }
                for record in records
            ],
            "tail": tail,
        }
        if damage is not None:
            report["damage"] = damage
        json.dump(report, out, indent=2)
        out.write("\n")
    elif args.action == "inspect":
        out.write("journal: %s\n" % args.path)
        if records:
            out.write(
                "  %6s  %4s  %10s  %8s  %8s\n"
                % ("tx", "ver", "requested", "inserts", "deletes")
            )
            for record in records:
                out.write(
                    "  %6d  v%-3d  %10d  %8d  %8d\n"
                    % (
                        record.transaction_id,
                        record.version,
                        len(record.requested),
                        len(record.delta.inserts),
                        len(record.delta.deletes),
                    )
                )
        out.write("  %d records, tail: %s\n" % (len(records), tail))
        if journal.corrupt_tail is not None:
            out.write("  torn tail: %r\n" % journal.corrupt_tail.strip())
    if damage is not None:
        sys.stderr.write("error: %s\n" % damage)
        return 1
    if args.action == "verify":
        versions = {}
        for record in records:
            versions[record.version] = versions.get(record.version, 0) + 1
        breakdown = ", ".join(
            "%d v%d" % (count, version)
            for version, count in sorted(versions.items())
        )
        if not args.json:
            out.write(
                "ok: %d records (%s), tail %s\n"
                % (len(records), breakdown or "empty", tail)
            )
        if journal.corrupt_tail is not None:
            sys.stderr.write(
                "warning: torn final record (recoverable; "
                "'repro journal repair' truncates it)\n"
            )
            if args.strict:
                return 1
    return 0


def _command_query(args, out):
    from .engine.query import query_rows

    database = Database(parse_database(_read(args.db)))
    rows = query_rows(args.query, database)
    if not rows:
        out.write("no answers\n")
        return 0
    variables = sorted(rows[0])
    if variables:
        out.write("\t".join(variables) + "\n")
        for row in rows:
            out.write("\t".join(str(row[v]) for v in variables) + "\n")
    else:
        out.write("yes\n")
    out.write("(%d answer%s)\n" % (len(rows), "" if len(rows) == 1 else "s"))
    return 0


def _command_explain(args, out):
    program, database, updates = _load_inputs(args)
    # Audit the run so why-not can name winning sides, epochs, and
    # restart losses; the overhead is irrelevant at CLI scale.
    engine = ParkEngine(policy=_make_policy(args.policy), audit=True)
    result = engine.run(program, database, updates=updates)
    explainer = Explainer(result)
    if args.why_not:
        verdict = explainer.why_not(args.target)
        if args.json:
            json.dump(verdict.to_dict(), out, indent=2)
            out.write("\n")
        else:
            out.write(explainer.why_not_text(args.target) + "\n")
        return 0
    if args.json:
        json.dump(explainer.explain_json(args.target), out, indent=2)
        out.write("\n")
    else:
        out.write(explainer.explain_text(args.target) + "\n")
    return 0


def _audit_report(log):
    """Scan *log*; returns (records, damage_message_or_None)."""
    from .errors import StorageError

    try:
        return log.records(), None
    except StorageError as error:
        return [], str(error)


def _command_audit(args, out):
    from .obs.audit import AuditLog

    log = AuditLog(args.path)
    records, damage = _audit_report(log)
    if args.tx is not None:
        records = [r for r in records if r.transaction_id == args.tx]
    tail = (
        "damaged"
        if damage is not None
        else ("torn" if log.corrupt_tail is not None else "clean")
    )

    def _events(record):
        if args.atom is None:
            return list(record.events)
        from .obs.audit import DecisionTrail

        marked = ("+" + args.atom, "-" + args.atom)
        return [
            event
            for event in record.events
            if DecisionTrail._mentions(event, args.atom, marked)
        ]

    if args.json:
        report = {
            "path": args.path,
            "tail": tail,
            "records": [
                {
                    "tx": record.transaction_id,
                    "events": _events(record),
                    "verdicts": len(record.verdicts()),
                    "restarts": len(record.restarts()),
                    "conflicts": len(record.conflicts()),
                }
                for record in records
            ],
        }
        if damage is not None:
            report["damage"] = damage
        json.dump(report, out, indent=2)
        out.write("\n")
    elif args.action == "inspect":
        out.write("audit log: %s\n" % args.path)
        if records:
            out.write(
                "  %6s  %8s  %10s  %9s  %8s\n"
                % ("tx", "events", "conflicts", "verdicts", "restarts")
            )
            for record in records:
                out.write(
                    "  %6d  %8d  %10d  %9d  %8d\n"
                    % (
                        record.transaction_id,
                        len(record.events),
                        len(record.conflicts()),
                        len(record.verdicts()),
                        len(record.restarts()),
                    )
                )
        out.write("  %d records, tail: %s\n" % (len(records), tail))
        if log.corrupt_tail is not None:
            out.write("  torn tail: %r\n" % log.corrupt_tail.strip())
    elif args.action == "show":
        for record in records:
            out.write("tx %d:\n" % record.transaction_id)
            for event in _events(record):
                rendered = ", ".join(
                    "%s=%s" % (key, value)
                    for key, value in sorted(event.items())
                    if key not in ("kind", "epoch", "round")
                )
                out.write(
                    "  [epoch %d round %d] %-9s %s\n"
                    % (event["epoch"], event["round"], event["kind"], rendered)
                )
    if damage is not None:
        sys.stderr.write("error: %s\n" % damage)
        return 1
    if args.action == "verify":
        if not args.json:
            out.write(
                "ok: %d records, %d events, tail %s\n"
                % (
                    len(records),
                    sum(len(r.events) for r in records),
                    tail,
                )
            )
        if log.corrupt_tail is not None:
            sys.stderr.write(
                "warning: torn final audit record (recoverable; the next "
                "append truncates it)\n"
            )
            if args.strict:
                return 1
    return 0


def main(argv=None, out=None):
    """CLI entry point; returns the process exit status."""
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_error:
        return int(exit_error.code or 0)
    handlers = {
        "run": _command_run,
        "profile": _command_profile,
        "check": _command_check,
        "journal": _command_journal,
        "audit": _command_audit,
        "query": _command_query,
        "explain": _command_explain,
    }
    try:
        return handlers[args.command](args, out)
    except ParkError as error:
        sys.stderr.write("error: %s\n" % error)
        return 2
    except OSError as error:
        sys.stderr.write("error: %s\n" % error)
        return 1


if __name__ == "__main__":
    sys.exit(main())
