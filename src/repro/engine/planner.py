"""Join planner: choose an evaluation order for a rule body.

The matcher evaluates body literals left-to-right with backtracking, so the
order matters:

* **negated literals** are pure filters — they cannot bind variables and,
  by safety condition 2, all their variables are bound by positive
  literals.  The planner schedules each one at the earliest point where all
  its variables are bound (cheap early pruning).
* **binding literals** (positive conditions and events) are ordered
  greedily: at each step pick the literal with the most already-bound
  argument positions (most selective index lookup), breaking ties by
  fewest free variables, then — when a :class:`~repro.engine.views.FactsView`
  is supplied — by its :meth:`estimate` of the literal's predicate size
  (smaller relations first), and finally by original body position
  (determinism).

The resulting plan is a static property of the rule (plus, optionally,
the statistics of the view it is first compiled against), computed once
and cached on the compiled rule.  Without a view the estimate tie-break
contributes nothing and plans depend on the rule alone, which keeps the
planner's behaviour reproducible across runs and engines; with a view
the estimates are read once at planning time, so the plan is still a
deterministic function of (rule, view statistics).
"""

from __future__ import annotations

from dataclasses import dataclass
from ..lang.literals import Condition
from ..lang.rules import Rule
from ..obs import metrics as _obs


@dataclass(frozen=True)
class PlanStep:
    """One step of a body plan: a literal plus its role.

    ``kind`` is ``"bind"`` for literals matched against candidate rows
    (positive conditions and events) and ``"check"`` for ground tests
    (negated conditions, and binding literals whose variables happen to be
    fully bound already).
    """

    literal: object
    kind: str


def _is_negative(literal):
    return isinstance(literal, Condition) and not literal.positive


def plan_body(rule, view=None):
    """Compute the evaluation order for *rule*'s body as a tuple of PlanSteps.

    With *view* supplied, its :meth:`~repro.engine.views.FactsView.estimate`
    is consulted as a tie-break between equally-bound literals (smaller
    predicates make cheaper outer loops); without one, the tie-break falls
    straight through to body position.
    """
    if not isinstance(rule, Rule):
        raise TypeError("expected a Rule, got %r" % (rule,))

    m = _obs.ACTIVE
    if m is not None:
        m.inc("planner.plans")
        if view is not None:
            m.inc("planner.plans_with_stats")

    estimate = view.estimate if view is not None else None
    pending = list(enumerate(rule.body))
    bound_vars = set()
    steps = []

    def schedule_eligible_checks():
        remaining = []
        for position, literal in pending:
            if _is_negative(literal) and literal.variables() <= bound_vars:
                steps.append(PlanStep(literal, "check"))
            else:
                remaining.append((position, literal))
        pending[:] = remaining

    schedule_eligible_checks()
    while pending:
        best = None
        best_key = None
        for position, literal in pending:
            if _is_negative(literal):
                continue
            literal_vars = literal.variables()
            bound_count = len(literal_vars & bound_vars) + (
                literal.atom.arity - len(literal_vars)
            )
            free_count = len(literal_vars - bound_vars)
            size = estimate(literal.atom.predicate) if estimate is not None else 0
            key = (-bound_count, free_count, size, position)
            if best_key is None or key < best_key:
                best, best_key = (position, literal), key
        if best is None:
            # Only negative literals left but with unbound variables: the
            # rule-safety check makes this unreachable.
            raise AssertionError("unschedulable body: %s" % rule)
        position, literal = best
        pending.remove(best)
        if literal.variables() <= bound_vars:
            steps.append(PlanStep(literal, "check"))
        else:
            steps.append(PlanStep(literal, "bind"))
            bound_vars |= literal.variables()
        schedule_eligible_checks()

    return tuple(steps)


def explain_plan(rule):
    """Human-readable plan description, one line per step (for debugging)."""
    lines = []
    for index, step in enumerate(plan_body(rule)):
        lines.append("%2d. [%s] %s" % (index + 1, step.kind, step.literal))
    return "\n".join(lines)
