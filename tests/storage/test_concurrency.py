"""Thread-safety hammers for the intern table and the plan cache.

Engines and active databases driven from separate threads share two
structures: the process-global
:class:`~repro.storage.catalog.InternTable` (its fast path is a
lock-free dict read, so the allocation path must publish ids last) and
:class:`~repro.engine.plancache.PlanCache` (an LRU whose bookkeeping
must not tear under concurrent ``facts_for`` calls).  These tests
hammer both from many threads and then check the invariants that the
single-threaded tests take for granted: every id round-trips, no id is
handed out twice, and the cache converges to exactly one live entry
per program.
"""

import threading

from repro.engine.plancache import PlanCache
from repro.lang import parse_program
from repro.storage.catalog import InternTable
from repro.storage.database import Database


def _hammer(nthreads, work):
    """Run *work(thread_index)* on *nthreads* threads through a barrier."""
    barrier = threading.Barrier(nthreads)
    errors = []

    def runner(index):
        try:
            barrier.wait()
            work(index)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=runner, args=(index,))
        for index in range(nthreads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors


class TestInternTableConcurrency:
    def test_overlapping_interns_round_trip(self):
        # Eight threads intern heavily overlapping value sets; every id
        # any thread observed must decode back to the value it interned,
        # and the table must hold each value exactly once.
        table = InternTable()
        values = ["v%d" % n for n in range(200)]
        observed = [None] * 8

        def work(index):
            # Each thread walks the values at a different stride so the
            # first-sight allocations interleave across threads.
            mine = values[index::2] + values[(index + 1) % 2 :: 3]
            observed[index] = [(value, table.intern(value)) for value in mine]

        _hammer(8, work)
        for pairs in observed:
            for value, ident in pairs:
                assert table.value_of(ident) == value
        # No double allocation: ids are dense and agree across threads.
        idents = {table.intern(value) for value in values}
        assert idents == set(range(len(values)))


class TestPlanCacheConcurrency:
    def test_concurrent_facts_for_converges_to_one_entry(self):
        cache = PlanCache()
        program = parse_program("emp(X), not active(X) -> -emp(X).")
        database = Database.from_text("emp(joe). active(joe).")
        results = [None] * 8

        def work(index):
            results[index] = cache.facts_for(program, database)

        _hammer(8, work)
        assert len(cache) == 1
        # Later calls all hit the single surviving entry.
        settled = cache.facts_for(program, database)
        for facts in results:
            assert facts.live == settled.live
            assert facts.dead == settled.dead

    def test_concurrent_distinct_programs_respect_capacity(self):
        cache = PlanCache(capacity=4)
        programs = [
            parse_program("emp(X) -> +p%d(X)." % n) for n in range(8)
        ]
        database = Database.from_text("emp(joe).")

        def work(index):
            for program in programs[index::2]:
                cache.facts_for(program, database)

        _hammer(8, work)
        assert len(cache) <= 4
        # The cache still answers correctly for every program afterwards.
        for program in programs:
            assert cache.facts_for(program, database) is not None
