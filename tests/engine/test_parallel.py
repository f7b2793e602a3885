"""Unit tests for the parallel Γ executor.

The property suite (``tests/property/test_parallel.py``) establishes
parallel/sequential bit-identity on random programs; here the executor's
moving parts are pinned down directly: the wire codecs (no lang object
ever crosses the pipe with a cached hash), the decline conditions, the delta-response merge bookkeeping, and a deterministic
engine matrix over the scenarios the random generator reaches rarely —
conflicts with restarts, negation, events, transaction updates, and a
program listing the same rule twice.
"""

import pytest

from repro.core.engine import ParkEngine
from repro.engine.match import (
    clear_compile_cache,
    get_matcher_backend,
    set_matcher_backend,
)
from repro.engine.parallel import (
    ParallelExecutor,
    _decode_database,
    _decode_mark,
    _decode_rule,
    _encode_database,
    _encode_mark,
    _encode_rule,
    _sorted_binding_variables,
)
from repro.lang import parse_program, parse_atom
from repro.lang.updates import Update, UpdateOp
from repro.storage.database import Database
from repro.storage.relation import (
    get_storage_backend,
    set_storage_backend,
)

STRATEGIES = ("naive", "seminaive", "incremental")
BACKENDS = ("interpreted", "compiled")


def _run(program, database, updates=(), parallel=0, strategy="naive"):
    engine = ParkEngine(evaluation=strategy, parallel=parallel)
    result = engine.run(program, database, updates=updates)
    return (
        result.atoms,
        result.blocked,
        result.delta.inserts,
        result.delta.deletes,
        result.stats.rounds,
        result.stats.restarts,
        result.stats.conflicts_resolved,
        result.stats.firings_total,
    )


SCENARIOS = {
    "recursion": (
        "edge(X, Y) -> +tc(X, Y). tc(X, Z), edge(Z, Y) -> +tc(X, Y).",
        "edge(a, b). edge(b, c). edge(c, d). edge(d, a).",
        (),
    ),
    "negation": (
        "emp(X), not active(X) -> -emp(X). emp(X), active(X) -> +keep(X).",
        "emp(a). emp(b). emp(c). active(b).",
        (),
    ),
    "conflict-restart": (
        "p(X) -> +q(X). q(X) -> -q(X).",
        "p(a). p(b).",
        (),
    ),
    "events": (
        "+q(X) -> +seen(X). p(X) -> +q(X).",
        "p(a). p(b).",
        (),
    ),
    "updates": (
        "emp(X), not active(X) -> -emp(X).",
        "emp(a). emp(b). active(a). active(b).",
        ("-active(a)",),
    ),
    "duplicate-rule": (
        "p(X) -> +q(X). p(X) -> +q(X).",
        "p(a). p(b). p(c).",
        (),
    ),
}


def _updates(specs):
    out = []
    for spec in specs:
        op = UpdateOp.INSERT if spec[0] == "+" else UpdateOp.DELETE
        out.append(Update(op, parse_atom(spec[1:])))
    return tuple(out)


class TestEngineMatrix:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_parallel_matches_sequential(self, scenario, strategy, backend):
        rules, facts, update_specs = SCENARIOS[scenario]
        program = parse_program(rules)
        updates = _updates(update_specs)
        previous = get_matcher_backend()
        set_matcher_backend(backend)
        clear_compile_cache()
        try:
            sequential = _run(
                program, Database.from_text(facts), updates, 0, strategy
            )
            for workers in (2, 3):
                parallel = _run(
                    program,
                    Database.from_text(facts),
                    updates,
                    workers,
                    strategy,
                )
                assert parallel == sequential, (scenario, strategy, workers)
        finally:
            set_matcher_backend(previous)
            clear_compile_cache()

    def test_row_layout_matches_too(self):
        rules, facts, _ = SCENARIOS["recursion"]
        program = parse_program(rules)
        previous = get_storage_backend()
        set_storage_backend("row")
        try:
            sequential = _run(program, Database.from_text(facts))
            parallel = _run(program, Database.from_text(facts), parallel=2)
            assert parallel == sequential
        finally:
            set_storage_backend(previous)


class TestCodecs:
    def test_rule_roundtrip(self):
        program = parse_program(
            "@name(r) @priority(3) emp(X), not gone(X), +hired(X) -> +active(X)."
        )
        rule = next(iter(program))
        decoded = _decode_rule(_encode_rule(rule))
        assert decoded == rule
        assert decoded.name == rule.name
        assert decoded.priority == rule.priority
        assert _sorted_binding_variables(decoded) == _sorted_binding_variables(
            rule
        )

    def test_database_roundtrip_is_sorted(self):
        database = Database.from_text("b(2). a(x, y). b(1). a(p, q).")
        payload = _encode_database(database)
        assert [predicate for predicate, _ in payload] == sorted(
            predicate for predicate, _ in payload
        )
        for _, rows in payload:
            assert rows == sorted(rows, key=repr)
        decoded = _decode_database(payload)
        assert set(decoded.atoms()) == set(database.atoms())

    def test_mark_roundtrip(self):
        update = Update(UpdateOp.DELETE, parse_atom("payroll(joe, 10)"))
        assert _decode_mark(_encode_mark(update)) == update


class TestExecutorLifecycle:
    def test_declines_below_two_workers(self):
        program = tuple(parse_program("p(X) -> +q(X)."))
        executor = ParallelExecutor(1)
        assert not executor.begin_run(program, Database.from_text("p(a)."))

    def test_declines_empty_program(self):
        executor = ParallelExecutor(2)
        assert not executor.begin_run((), Database.from_text("p(a)."))

    def test_declines_below_threshold(self):
        program = tuple(parse_program("p(X) -> +q(X)."))
        executor = ParallelExecutor(2, threshold=1000)
        assert not executor.begin_run(program, Database.from_text("p(a)."))

    def test_close_is_idempotent(self):
        program = tuple(parse_program("p(X) -> +q(X)."))
        executor = ParallelExecutor(2)
        assert executor.begin_run(program, Database.from_text("p(a)."))
        executor.close()
        executor.close()
        assert not executor._procs

    def test_collect_declines_unknown_rule(self):
        program = tuple(parse_program("p(X) -> +q(X)."))
        stranger = next(iter(parse_program("z(X) -> +w(X).")))
        executor = ParallelExecutor(2)
        assert executor.begin_run(program, Database.from_text("p(a)."))
        try:
            executor.begin_epoch()
            assert (
                executor.collect_all((stranger,), frozenset(), None, {})
                is None
            )
        finally:
            executor.close()

