"""The static conflict pairs (PARK020) are sound on random programs.

The sequential oracle: match both rules of a pair against the *same*
initial database (closed-world view — the raw material ``Γ`` collects in
a round), then apply the two ground update sets in both orders.  If the
two orders disagree on the final database, the pair inserted and deleted
the same ground atom — a runtime conflict, which
``ProgramFacts.conflict_pairs`` over-approximates.  So every divergent
pair must be a witness pair (one rule among the ``insert_rules``, the
other among the ``delete_rules``) of some conflict-pair entry.

Runs the oracle over 200+ random workloads (25 seeds x 8 generator
configurations), every live rule pair each.
"""

import itertools

import pytest

from repro.engine.match import fireable_heads
from repro.engine.views import DatabaseView
from repro.lang.updates import UpdateOp
from repro.lint import ProgramFacts
from repro.workloads.random_programs import random_workload

SEEDS = range(25)

#: Generator knobs: vary event density, delete density, and program size
#: so the sweep covers event-polarity filtering and both head polarities.
CONFIGS = (
    {"num_rules": 6, "num_facts": 10},
    {"num_rules": 8, "num_facts": 12},
    {"num_rules": 6, "num_facts": 10, "delete_head_probability": 0.4},
    {"num_rules": 8, "num_facts": 14, "delete_head_probability": 0.5},
    {"num_rules": 6, "num_facts": 10, "event_probability": 0.3},
    {
        "num_rules": 8,
        "num_facts": 12,
        "event_probability": 0.3,
        "delete_head_probability": 0.4,
    },
    {"num_rules": 10, "num_facts": 16, "delete_head_probability": 0.3},
    {
        "num_rules": 10,
        "num_facts": 16,
        "event_probability": 0.2,
        "delete_head_probability": 0.2,
    },
)


def apply_updates(atoms, updates):
    """Apply ground *updates* to a set of atoms, in the iteration order."""
    result = set(atoms)
    for update in updates:
        if update.op is UpdateOp.INSERT:
            result.add(update.atom)
        else:
            result.discard(update.atom)
    return result


def oracle_diverges(initial, left_updates, right_updates):
    """Whether applying the two update sets in both orders disagrees."""
    left_first = apply_updates(
        apply_updates(initial, left_updates), right_updates
    )
    right_first = apply_updates(
        apply_updates(initial, right_updates), left_updates
    )
    return left_first != right_first


def witness_pairs(facts):
    """Every ``(low, high)`` rule-index pair witnessing a conflict pair."""
    pairs = set()
    for conflict in facts.conflict_pairs:
        for insert_index in conflict.insert_rules:
            for delete_index in conflict.delete_rules:
                pairs.add(
                    (min(insert_index, delete_index), max(insert_index, delete_index))
                )
    return pairs


def check_workload(workload):
    """Run the oracle over every live rule pair of one workload.

    Returns ``(pairs_checked, divergent)`` for reporting.
    """
    program = tuple(workload.program)
    facts = ProgramFacts.analyze(program)
    view = DatabaseView(workload.database)
    initial = frozenset(workload.database)
    updates = {
        index: list(fireable_heads(program[index], view))
        for index in facts.live
    }
    witnesses = witness_pairs(facts)

    checked = divergent = 0
    for left, right in itertools.combinations(sorted(facts.live), 2):
        checked += 1
        if not oracle_diverges(initial, updates[left], updates[right]):
            continue
        divergent += 1
        # Soundness: a divergent pair must witness a static conflict pair.
        assert (left, right) in witnesses, (
            "%s: rules %d and %d do not commute but witness no conflict "
            "pair" % (workload.name, left, right)
        )
    return checked, divergent


class TestConflictPairSoundness:
    @pytest.mark.parametrize("config", range(len(CONFIGS)))
    def test_divergent_pairs_are_witnessed(self, config):
        options = dict(CONFIGS[config])
        num_rules = options.pop("num_rules")
        num_facts = options.pop("num_facts")
        checked = 0
        for seed in SEEDS:
            workload = random_workload(
                seed + 1000 * config,
                num_rules=num_rules,
                num_facts=num_facts,
                **options
            )
            pairs, _ = check_workload(workload)
            checked += pairs
        assert checked > 0

    def test_oracle_detects_the_race(self):
        # Sanity-check the oracle itself: a true delete/insert overlap on
        # the same ground atom must diverge (so the suite is not
        # vacuously green).
        from repro.lang import parse_database, parse_program
        from repro.storage.database import Database
        from repro.workloads.base import Workload

        workload = Workload(
            name="oracle-sanity",
            program=parse_program("p(X) -> +q(X). r(X) -> -q(X)."),
            database=Database(parse_database("p(a). r(a).")),
            description="delete/insert overlap on q(a)",
        )
        program = tuple(workload.program)
        view = DatabaseView(workload.database)
        initial = frozenset(workload.database)
        left = list(fireable_heads(program[0], view))
        right = list(fireable_heads(program[1], view))
        assert oracle_diverges(initial, left, right)
        # and the analysis witnesses it, keeping check_workload meaningful
        facts = ProgramFacts.analyze(program)
        assert witness_pairs(facts) == {(0, 1)}
