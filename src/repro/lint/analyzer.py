"""The analyzer driver: lenient parse, run every pass, build the report.

:func:`analyze_text` is the one entry point the CLI, the engine helpers,
and the tests share: it parses leniently (collecting every syntax,
schema, and safety problem instead of stopping at the first), computes
:class:`~repro.lint.facts.ProgramFacts`, runs the four analysis passes,
and returns a :class:`~repro.lint.diagnostics.FileReport`.

The parser's own issues map onto codes here — ``PARK001`` (syntax),
``PARK004`` (arity), ``PARK005`` (duplicate name); its safety issues are
*not* converted, because the safety pass re-derives them per literal
(``PARK002``/``PARK003``) with sharper spans.
"""

from __future__ import annotations

import re

from ..lang.parser import parse_source
from ..lang.source import ARITY, DUPLICATE_NAME, SYNTAX
from .conflicts import check_conflicts
from .diagnostics import Diagnostic, FileReport
from .facts import ProgramFacts
from .graphs import check_graph
from .reachability import check_reachability
from .safety import check_safety

#: Parser issue kind -> diagnostic code (safety intentionally absent).
_PARSE_CODES = {
    SYNTAX: "PARK001",
    ARITY: "PARK004",
    DUPLICATE_NAME: "PARK005",
}

#: Parser errors bake their position into the message; the diagnostic
#: renders the span itself, so drop the redundant prefix.
_POSITION_PREFIX = re.compile(r"^line \d+, column \d+: ")


def analyze_text(text, path=None, policy=None, database=None):
    """Analyze PARK source *text* and return a :class:`FileReport`.

    *policy* is the CLI policy spec string the program is meant to run
    under (``None`` disables the policy-specific conflict diagnostics);
    *database* optionally sharpens liveness (see
    :meth:`ProgramFacts.analyze`).
    """
    parsed = parse_source(text)
    diagnostics = []

    for issue in parsed.issues:
        code = _PARSE_CODES.get(issue.kind)
        if code is None:
            continue
        rule = None
        if issue.rule_index is not None and issue.rule_index < len(parsed.rules):
            rule = parsed.rules[issue.rule_index].describe()
        diagnostics.append(
            Diagnostic(
                code=code,
                message=_POSITION_PREFIX.sub("", issue.message),
                span=issue.span,
                rule=rule,
                rule_index=issue.rule_index,
            )
        )

    rules = parsed.rules
    spans = parsed.spans
    diagnostics.extend(check_safety(rules, spans))

    facts = ProgramFacts.analyze(rules, database=database)
    diagnostics.extend(check_graph(rules, spans))
    diagnostics.extend(check_conflicts(rules, facts, spans, policy=policy))
    diagnostics.extend(check_reachability(rules, facts, spans))

    return FileReport(
        path=path,
        diagnostics=tuple(diagnostics),
        facts=facts,
        rules=len(rules),
        rule_objects=rules,
    )


def analyze_path(path, policy=None, database=None):
    """Analyze the PARK source file at *path*."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return analyze_text(text, path=str(path), policy=policy, database=database)
