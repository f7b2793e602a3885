"""The cross-transaction plan cache: program facts keyed by program + stats.

Planning work in this engine is two-layered: per-rule join plans are
compiled once and memoized by the slot compiler
(:mod:`repro.engine.compiler`, keyed by rule value, so re-parsed but
identical rules hit), while the *program-level* static analysis
(:class:`repro.lint.facts.ProgramFacts` — conflict-freedom, stratifiability,
dead rules) was re-derived on every engine run that asked for it.  For an
:class:`~repro.active.activedb.ActiveDatabase` that re-runs the same rule
program on every commit, and for repeated CLI/benchmark invocations of one
program, that re-analysis is pure waste.

:class:`PlanCache` memoizes the analysis the way edgedb's compiled-query
cache memoizes query plans: the key is the run program's rule tuple (its
"fingerprint" — rules hash by value, so textually identical programs
collide correctly), and each entry is validated against

* a **stats signature** — per-predicate row counts bucketed by bit length
  (``count.bit_length()``), so plans survive small data drift but are
  re-derived when a relation changes magnitude.  Empty predicates are
  omitted entirely: ``Database.predicates()`` still lists a relation whose
  rows were all deleted, and the analysis cannot distinguish that from a
  predicate that never existed — the liveness sharpening only consumes
  empty-vs-non-empty, which "absent from the signature" encodes exactly
  as well as a ``(p, 0)`` pair, without spuriously invalidating on
  insert-then-delete-all histories;
* the :meth:`ProgramFacts.matches` staleness guard — the same check the
  engine applies to caller-supplied facts, so a cache entry can never be
  applied to a program it does not describe.

A stale entry counts as an **invalidation** and is re-derived in place; a
missing key is a **miss**; both are visible as ``plan_cache.*`` counters in
``repro profile``.  Entries are LRU-evicted beyond ``capacity``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..obs import metrics as _obs


class PlanCache:
    """An LRU cache of validated :class:`ProgramFacts` per run program.

    Thread-safe: lookups, LRU reordering, and evictions hold an internal
    lock, so engines on different threads sharing one cache (an
    ``ActiveDatabase`` driven from several threads, the planned
    rule-server) cannot corrupt the ``OrderedDict``.  A miss
    re-derives the analysis outside the lock — two racing threads may both
    analyze, but the result is deterministic and last-write-wins is safe.
    """

    __slots__ = ("capacity", "_entries", "_lock")

    def __init__(self, capacity=128):
        self.capacity = capacity
        self._entries = OrderedDict()  # rule tuple -> (stats signature, facts)
        self._lock = threading.Lock()

    @staticmethod
    def stats_signature(database):
        """The database's shape, as ``(predicate, bit_length(count))`` pairs.

        Empty predicates are dropped: a relation whose rows were all
        deleted must sign identically to one that never existed, or
        identical re-runs would spuriously invalidate the cache.
        """
        return tuple(
            sorted(
                (predicate, count.bit_length())
                for predicate in database.predicates()
                for count in (database.count(predicate),)
                if count
            )
        )

    def facts_for(self, run_program, database):
        """Cached :class:`ProgramFacts` for *run_program*, re-derived on miss.

        *database* supplies both the stats signature and the liveness
        sharpening of a fresh analysis.
        """
        from ..lint.facts import ProgramFacts

        key = tuple(run_program)
        signature = self.stats_signature(database)
        entries = self._entries
        m = _obs.ACTIVE
        with self._lock:
            entry = entries.get(key)
            if entry is not None:
                cached_signature, facts = entry
                if cached_signature == signature and facts.matches(run_program):
                    entries.move_to_end(key)
                    if m is not None:
                        m.inc("plan_cache.hits")
                    return facts
                if m is not None:
                    m.inc("plan_cache.invalidations")
            elif m is not None:
                m.inc("plan_cache.misses")
        facts = ProgramFacts.analyze(run_program, database=database)
        with self._lock:
            entries[key] = (signature, facts)
            entries.move_to_end(key)
            while len(entries) > self.capacity:
                entries.popitem(last=False)
        return facts

    def __len__(self):
        return len(self._entries)

    def clear(self):
        with self._lock:
            self._entries.clear()

    def __repr__(self):
        return "PlanCache(%d entries, capacity=%d)" % (len(self), self.capacity)


#: Shared default instance for callers that want cross-run caching without
#: owning a cache object (the CLI and benchmark harness use this one).
DEFAULT_PLAN_CACHE = PlanCache()
