"""Engine fast paths from ProgramFacts are fingerprint-preserving.

For every gated path (conflict-scan skip, auto-seminaive routing,
dead-rule pruning) the semantic fingerprint —
final atoms, blocked set, rounds, restarts, and total firings — must be
bit-identical to the ungated run, across all three evaluation strategies
and both matcher backends.
"""

import pytest

from repro.core.consequence import GammaResult
from repro.core.engine import ParkEngine
from repro.engine.match import (
    clear_compile_cache,
    get_matcher_backend,
    set_matcher_backend,
)
from repro.lang import parse_database, parse_program
from repro.lang.parser import parse_atom
from repro.lang.updates import Update, UpdateOp
from repro.lint import ProgramFacts
from repro.obs import Metrics
from repro.storage.database import Database

STRATEGIES = ("naive", "seminaive", "incremental")
BACKENDS = ("compiled", "interpreted")
GATES = ("facts_conflict_skip", "facts_seminaive", "facts_prune")

CONFLICT_FREE = parse_program(
    """
    @name(base) edge(X, Y) -> +tc(X, Y).
    @name(step) edge(X, Y), tc(Y, Z) -> +tc(X, Z).
    @name(ghost) +never(X) -> +boom(X).
    """
)
CONFLICT_FREE_DB = "edge(a, b). edge(b, c). edge(c, d)."

CONFLICTING = parse_program(
    """
    @name(init) -> +p.
    @name(r1) p -> +q.
    @name(r2) p -> -a.
    @name(r3) q -> +a.
    """
)


def fingerprint(result):
    return (
        result.database,
        result.blocked,
        result.stats.rounds,
        result.stats.restarts,
        result.stats.firings_total,
    )


def run(program, db_text, facts=None, updates=None, **options):
    database = Database(parse_database(db_text)) if db_text else Database()
    engine = ParkEngine(facts=facts, **options)
    return engine.run(program, database, updates=updates)


class TestFingerprintIdentity:
    @pytest.mark.parametrize("evaluation", STRATEGIES)
    def test_conflict_free_program(self, evaluation):
        base = run(CONFLICT_FREE, CONFLICT_FREE_DB, evaluation=evaluation)
        fast = run(
            CONFLICT_FREE, CONFLICT_FREE_DB, facts=True, evaluation=evaluation
        )
        assert fingerprint(base) == fingerprint(fast)

    @pytest.mark.parametrize("evaluation", STRATEGIES)
    def test_conflicting_program(self, evaluation):
        base = run(CONFLICTING, "", evaluation=evaluation)
        fast = run(CONFLICTING, "", facts=True, evaluation=evaluation)
        assert fingerprint(base) == fingerprint(fast)
        assert fast.blocked  # the conflict really happened

    @pytest.mark.parametrize("evaluation", STRATEGIES)
    def test_each_gate_individually(self, evaluation):
        base = run(CONFLICT_FREE, CONFLICT_FREE_DB, evaluation=evaluation)
        for gate in GATES:
            options = {name: False for name in GATES}
            options[gate] = True
            fast = run(
                CONFLICT_FREE,
                CONFLICT_FREE_DB,
                facts=True,
                evaluation=evaluation,
                **options
            )
            assert fingerprint(base) == fingerprint(fast), gate

    @pytest.mark.parametrize("evaluation", STRATEGIES)
    def test_with_transaction_updates(self, evaluation):
        updates = [Update(UpdateOp.INSERT, parse_atom("edge(d, e)"))]
        base = run(
            CONFLICT_FREE, CONFLICT_FREE_DB, updates=updates,
            evaluation=evaluation,
        )
        fast = run(
            CONFLICT_FREE, CONFLICT_FREE_DB, updates=updates, facts=True,
            evaluation=evaluation,
        )
        assert fingerprint(base) == fingerprint(fast)

    def test_deleting_transaction_disables_conflict_skip(self):
        # The base program is conflict-free but -tc(a, b) in U is not;
        # the engine must re-derive facts for P_U and still detect it.
        updates = [Update(UpdateOp.DELETE, parse_atom("tc(a, b)"))]
        base = run(CONFLICT_FREE, CONFLICT_FREE_DB, updates=updates)
        fast = run(CONFLICT_FREE, CONFLICT_FREE_DB, updates=updates, facts=True)
        assert fingerprint(base) == fingerprint(fast)
        assert base.stats.restarts > 0

    def test_precomputed_facts_accepted(self):
        facts = ProgramFacts.analyze(CONFLICT_FREE)
        base = run(CONFLICT_FREE, CONFLICT_FREE_DB)
        fast = run(CONFLICT_FREE, CONFLICT_FREE_DB, facts=facts)
        assert fingerprint(base) == fingerprint(fast)


class TestPathEngagement:
    def test_conflict_scan_actually_skipped(self):
        # GammaResult with assume_consistent never scans for conflicts.
        result = run(CONFLICT_FREE, CONFLICT_FREE_DB, facts=True)
        assert result.stats.restarts == 0

    def test_assume_consistent_skips_the_scan(self, monkeypatch):
        calls = []
        original = GammaResult._find_conflict_atoms

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(GammaResult, "_find_conflict_atoms", counting)
        run(CONFLICT_FREE, CONFLICT_FREE_DB, facts=True)
        assert calls == []
        run(CONFLICT_FREE, CONFLICT_FREE_DB)
        assert calls != []

    def test_metrics_report_engaged_paths(self):
        metrics = Metrics()
        run(CONFLICT_FREE, CONFLICT_FREE_DB, facts=True, metrics=metrics)
        assert metrics.gauges["engine.facts_conflict_free"] == 1
        assert metrics.gauges["engine.facts_dead_rules"] == 1
        assert metrics.gauges["engine.facts_auto_seminaive"] == 1

    def test_auto_seminaive_respects_explicit_strategy(self):
        # An explicit non-naive choice is never overridden.
        metrics = Metrics()
        run(
            CONFLICT_FREE, CONFLICT_FREE_DB, facts=True,
            evaluation="incremental", metrics=metrics,
        )
        assert metrics.gauges["engine.facts_auto_seminaive"] == 0

    def test_facts_off_by_default(self):
        engine = ParkEngine()
        assert engine.facts is None


@pytest.fixture
def backend(request):
    previous = get_matcher_backend()
    set_matcher_backend(request.param)
    clear_compile_cache()
    try:
        yield request.param
    finally:
        set_matcher_backend(previous)
        clear_compile_cache()


class TestBackendMatrix:
    """Facts-on runs match facts-off runs on both matcher backends."""

    @pytest.mark.parametrize("backend", BACKENDS, indirect=True)
    @pytest.mark.parametrize("evaluation", STRATEGIES)
    @pytest.mark.parametrize(
        "program, db_text",
        [(CONFLICT_FREE, CONFLICT_FREE_DB), (CONFLICTING, "")],
        ids=("conflict-free", "conflicting"),
    )
    def test_facts_on_vs_off(self, evaluation, backend, program, db_text):
        base = run(program, db_text, evaluation=evaluation)
        fast = run(program, db_text, facts=True, evaluation=evaluation)
        assert fingerprint(base) == fingerprint(fast)
