"""Human rendering of lint reports for ``repro check``.

Per file: the classification block (same lines the pre-analyzer ``check``
printed, so scripts keyed on ``stratifiable:`` or ``stratum 0`` keep
working), then the located diagnostics, then a one-line tally.  JSON
output bypasses this module entirely (``LintReport.to_json``).
"""

from __future__ import annotations

from ..engine.dependency import DependencyGraph, classify_program
from .codes import ERROR, INFO, WARNING


def _render_classification(rules, out):
    classification = classify_program(rules)
    graph = DependencyGraph(rules)
    predicates = sorted(
        {signature[0] for rule in rules for signature in rule.predicates()}
    )
    out.write("rules      : %d\n" % len(rules))
    out.write("predicates : %s\n" % ", ".join(predicates))
    out.write("positive   : %s\n" % classification.positive)
    out.write("stratifiable: %s\n" % classification.stratifiable)
    out.write("recursive  : %s\n" % classification.recursive)
    out.write("uses events: %s\n" % classification.uses_events)
    out.write("uses delete: %s\n" % classification.uses_deletion)
    if classification.stratifiable and classification.deductive:
        for level, stratum in enumerate(graph.stratification()):
            out.write(
                "stratum %d  : %s\n" % (level, ", ".join(sorted(stratum)))
            )


def _render_facts(facts, out):
    out.write("conflict-free: %s\n" % facts.conflict_free)
    if facts.dead:
        out.write(
            "dead rules : %s\n" % ", ".join(str(i) for i in facts.dead)
        )


def render_file_report(report, out):
    """Write the human form of one :class:`FileReport` to *out*."""
    if report.path:
        out.write("%s:\n" % report.path)
    _render_classification(tuple(report.rule_objects), out)
    if report.facts is not None:
        _render_facts(report.facts, out)
    if report.diagnostics:
        out.write("\n")
        for diagnostic in report.diagnostics:
            out.write(diagnostic.format(report.path) + "\n")
    out.write(
        "\n%d error(s), %d warning(s), %d info\n"
        % (report.errors, report.warnings, report.count(INFO))
    )


def render_lint_report(lint_report, out):
    """Write the human form of a multi-file :class:`LintReport` to *out*."""
    for position, file_report in enumerate(lint_report.files):
        if position:
            out.write("\n")
        render_file_report(file_report, out)
    if len(lint_report.files) > 1:
        out.write(
            "\ntotal: %d file(s), %d error(s), %d warning(s)\n"
            % (len(lint_report.files), lint_report.errors, lint_report.warnings)
        )
