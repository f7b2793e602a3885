"""Order-invariance properties of the semantics.

``Γ`` applies all rules in parallel and conflicts are resolved in a
canonical (atom-sorted) order, so the PARK result must be invariant
under:

* permuting the literals inside a rule body (the planner may choose a
  different join order, but the valid groundings are the same set);
* permuting the rules of the program (rule identity, not position,
  matters — priorities travel with the rule).

These catch a whole class of implementation bugs (accidental dependence
on iteration order, hash order, or plan order).
"""

import random as stdlib_random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.property import strategies as strat

from repro.core.engine import park
from repro.lang.program import Program
from repro.lang.rules import Rule

RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _fingerprint(result):
    return (
        result.atoms,
        frozenset(
            (grounding.ground_head(), grounding.substitution)
            for grounding in result.blocked
        ),
        result.stats.rounds,
        result.stats.restarts,
        result.stats.firings_total,
    )


def _shuffle_body(rule, seed):
    body = list(rule.body)
    stdlib_random.Random(seed).shuffle(body)
    return Rule(
        head=rule.head, body=tuple(body), name=rule.name, priority=rule.priority
    )


@given(pair=strat.program_database_pairs(), seed=st.integers(0, 1000))
@RELAXED
def test_body_order_irrelevant(pair, seed):
    program, database = pair
    shuffled = Program(tuple(_shuffle_body(r, seed + i) for i, r in enumerate(program)))
    original = park(program, database)
    permuted = park(shuffled, database)
    assert original.atoms == permuted.atoms
    # blocked sets contain rule objects whose bodies differ textually, so
    # compare by (rule index is gone) — head+substitution suffices here:
    original_blocked = {
        (str(g.rule.head), str(g.substitution)) for g in original.blocked
    }
    permuted_blocked = {
        (str(g.rule.head), str(g.substitution)) for g in permuted.blocked
    }
    assert original_blocked == permuted_blocked


@given(pair=strat.program_database_pairs(), seed=st.integers(0, 1000))
@RELAXED
def test_rule_order_irrelevant(pair, seed):
    """The whole fingerprint, not just the atoms: ``Γ`` collects against
    a fixed ``I``, so no pair of rules can observe its collection order —
    with or without the static-facts fast paths."""
    program, database = pair
    rules = list(program)
    stdlib_random.Random(seed).shuffle(rules)
    shuffled = Program(tuple(rules))
    for facts in (None, True):
        assert _fingerprint(park(program, database, facts=facts)) == _fingerprint(
            park(shuffled, database, facts=facts)
        ), facts


@given(pair=strat.program_database_pairs())
@RELAXED
def test_duplicate_rules_irrelevant(pair):
    """Adding a syntactic copy of every rule changes nothing: groundings
    of equal rules are equal objects, so conflicts and blocking collapse."""
    program, database = pair
    doubled = Program(tuple(program) + tuple(program))
    assert park(program, database).atoms == park(doubled, database).atoms
