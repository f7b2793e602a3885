"""The ``PARK0xx`` diagnostic code registry.

Codes are stable: tools and CI configurations match on them, so a code is
never renumbered or reused.  Grouping follows the analyzer's passes —

* ``PARK00x`` — parsing and schema (syntax, safety, arity, names);
* ``PARK01x`` — dependency analysis (stratification, negation);
* ``PARK02x`` — conflict-pair analysis (static ``conflicts(P, I)``);
* ``PARK03x`` — reachability and event hygiene.

The ``PARK04x`` range (effect and commutativity analysis) is retired
and stays unassigned: ``Γ`` collects every firing against one fixed ``I``,
so collection order is unobservable, and delete/insert overlap is
``PARK020``.

``docs/lint.md`` renders this table; keep the two in sync.
"""

from __future__ import annotations

ERROR = "error"
WARNING = "warning"
INFO = "info"

#: code -> (default severity, one-line title)
CODES = {
    "PARK001": (ERROR, "syntax error"),
    "PARK002": (
        ERROR,
        "unsafe head: a head variable is not bound by any positive body literal",
    ),
    "PARK003": (
        ERROR,
        "unsafe negation: a negated-literal variable is not bound by any "
        "positive body literal",
    ),
    "PARK004": (ERROR, "predicate used with inconsistent arities"),
    "PARK005": (ERROR, "duplicate rule name"),
    "PARK010": (
        WARNING,
        "not stratifiable: negation inside a recursive component",
    ),
    "PARK011": (
        INFO,
        "negation on a derived predicate (program is not semipositive)",
    ),
    "PARK020": (
        INFO,
        "static conflict pair: predicate derivable with both + and -",
    ),
    "PARK021": (
        WARNING,
        "conflict-resolution policy has no ordering for a reachable "
        "conflict pair",
    ),
    "PARK022": (
        INFO,
        "configured SELECT policy can never be invoked (statically "
        "conflict-free program)",
    ),
    "PARK030": (WARNING, "dead rule: a body literal can never be satisfied"),
    "PARK031": (
        WARNING,
        "unmatched event: no rule emits this event (only a transaction "
        "update could trigger it)",
    ),
}

#: Severity rank for sorting and exit-code gating (higher is worse).
SEVERITY_RANK = {INFO: 0, WARNING: 1, ERROR: 2}


def severity_of(code):
    """The registered default severity of *code*."""
    return CODES[code][0]


def title_of(code):
    """The registered one-line title of *code*."""
    return CODES[code][1]
