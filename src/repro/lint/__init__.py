"""Static analysis for PARK programs (``repro check``).

A multi-pass analyzer over leniently parsed programs: safety
(range-restriction), dependency analysis (stratification), conflict-pair
analysis (the static side of the paper's ``conflicts(P, I)`` and the
SELECT policy), and reachability (dead rules, event hygiene).  Findings are
:class:`Diagnostic` objects with stable ``PARK0xx`` codes (see
``docs/lint.md``); the non-diagnostic product is :class:`ProgramFacts`,
which the engine consumes to skip conflict detection, choose the
seminaive fast path, and prune dead rules — each gated and
fingerprint-preserving (see ``core/engine.py``).
"""

from .analyzer import analyze_path, analyze_text
from .codes import CODES, ERROR, INFO, WARNING, severity_of, title_of
from .conflicts import check_conflicts
from .diagnostics import Diagnostic, FileReport, LintReport
from .facts import ConflictPair, ProgramFacts, UnmatchedEvent, atoms_may_unify
from .graphs import check_graph
from .reachability import check_reachability
from .safety import check_safety

__all__ = [
    "CODES",
    "ConflictPair",
    "Diagnostic",
    "ERROR",
    "FileReport",
    "INFO",
    "LintReport",
    "ProgramFacts",
    "UnmatchedEvent",
    "WARNING",
    "analyze_path",
    "analyze_text",
    "atoms_may_unify",
    "check_conflicts",
    "check_graph",
    "check_reachability",
    "check_safety",
    "severity_of",
    "title_of",
]
