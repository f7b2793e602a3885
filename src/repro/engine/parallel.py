"""Parallel ``Γ`` collection over hash-sharded partitions.

PARK's ``Γ`` operator matches every rule against one *fixed*
i-interpretation and only then incorporates the collected firings, so the
collect phase is embarrassingly parallel: the set of valid substitutions
is a pure function of ``(rule, I)``.  This module fans that work out
across persistent OS processes:

* each worker holds a full **replica** of the epoch's interpretation
  (``I∅`` shipped once per run, ``I+``/``I-`` marks streamed per round —
  both only grow within an epoch, so streaming the difference is exact);
* a worker matches each requested rule against the replica through a
  :class:`_ShardView` that restricts the rule's *outer* candidate scan to
  the rows owned by its shard (``stable_row_shard``, process-stable), so
  the workers partition the match space without partitioning the data —
  inner probes still see every row (a broadcast join);
* workers return **binding payloads** — tuples of raw constant values in
  sorted-variable order — not engine objects; the parent reconstructs
  :class:`~repro.core.groundings.RuleGrounding` instances itself (memoized),
  so no ``lang`` object is ever pickled.

**Determinism.**  Every firing's outer-loop row lives in exactly one
shard, so the shard-disjoint union over workers recovers exactly the
sequential match set (rules whose plans open with a ground check — or
bodyless rules — are matched identically by every worker and deduplicated
by the payload set).  The parent merges per-rule payload unions in sorted
order and the downstream consumers (``GammaResult``, conflicts, traces)
are order-insensitive, so a parallel run is fingerprint-identical to the
sequential engine — property-tested in
``tests/property/test_parallel.py``.

Workers are spawn-safe: the process-global intern table is re-seeded from
the parent's id→value prefix (:meth:`InternTable.load_prefix`) and later
values are interned in an identical deterministic order on every worker
(the base database and mark stream are sorted before shipping), which is
what makes native columnar id rows — and therefore shard assignment —
agree across workers.

Enable with ``REPRO_PARALLEL=N`` / ``--parallel N`` (N ≥ 2 workers); the
sequential path remains the oracle and is used whenever the executor
declines (tiny databases below ``REPRO_PARALLEL_THRESHOLD``, unknown
rules, or N < 2).
"""

from __future__ import annotations

import multiprocessing
import os
from time import perf_counter

from ..errors import EngineError
from ..lang.atoms import Atom
from ..lang.literals import Condition, Event
from ..lang.rules import Rule
from ..lang.substitution import Substitution
from ..lang.terms import Constant, Variable
from ..lang.updates import Update, UpdateOp
from ..obs import metrics as _obs


#: Databases smaller than this keep the sequential path: process fan-out
#: costs more than it saves on toy inputs.  Deliberately 0 by default so
#: the test suites exercise the parallel path everywhere; benchmarks and
#: production callers can raise it.
DEFAULT_THRESHOLD = 0


# -- wire codecs ---------------------------------------------------------------
#
# Rules, atoms, and marks cross the pipe as plain tuples of raw values —
# never as lang objects.  Rule/Atom/Substitution cache their hashes in
# instance state; pickling those caches into a spawn-started worker would
# ship hashes computed under the parent's string seed.  Raw values are
# also simply smaller.


def _encode_term(term):
    if isinstance(term, Variable):
        return ("v", term.name)
    return ("c", term.value)


def _decode_term(payload):
    kind, value = payload
    return Variable(value) if kind == "v" else Constant(value)


def _encode_atom(atom):
    return (atom.predicate, tuple(_encode_term(term) for term in atom.terms))


def _decode_atom(payload):
    predicate, terms = payload
    return Atom(predicate, tuple(_decode_term(term) for term in terms))


def _encode_literal(literal):
    if isinstance(literal, Event):
        return ("e", literal.op is UpdateOp.INSERT, _encode_atom(literal.atom))
    return ("k", literal.positive, _encode_atom(literal.atom))


def _decode_literal(payload):
    kind, flag, atom_payload = payload
    atom = _decode_atom(atom_payload)
    if kind == "e":
        op = UpdateOp.INSERT if flag else UpdateOp.DELETE
        return Event(Update(op, atom))
    return Condition(atom, positive=flag)


def _encode_rule(rule):
    head = rule.head
    return (
        rule.name,
        rule.priority,
        (head.is_insert, _encode_atom(head.atom)),
        tuple(_encode_literal(literal) for literal in rule.body),
    )


def _decode_rule(payload):
    name, priority, (is_insert, head_atom), body = payload
    op = UpdateOp.INSERT if is_insert else UpdateOp.DELETE
    head = Update(op, _decode_atom(head_atom))
    # The rule was validated when the parent built it; skip re-validation.
    return Rule.__new_unchecked__(
        head, tuple(_decode_literal(literal) for literal in body), name, priority
    )


def _encode_database(database):
    """``[(predicate, sorted raw rows)]`` in deterministic order.

    Sorted (predicates alphabetically, rows by repr) so every worker
    interns the constants in the same order — the cross-process id
    agreement that sharding native columnar rows relies on.
    """
    payload = []
    for predicate in database.predicates():
        rows = [
            tuple(term.value for term in atom.terms)
            for atom in database.atoms(predicate)
        ]
        rows.sort(key=repr)
        payload.append((predicate, rows))
    return payload


def _decode_database(payload):
    from ..storage.database import Database

    database = Database()
    for predicate, rows in payload:
        for row in rows:
            database.add(Atom(predicate, tuple(Constant(v) for v in row)))
    return database


def _encode_mark(update):
    return (
        update.is_insert,
        update.atom.predicate,
        tuple(term.value for term in update.atom.terms),
    )


def _decode_mark(payload):
    is_insert, predicate, values = payload
    op = UpdateOp.INSERT if is_insert else UpdateOp.DELETE
    return Update(op, Atom(predicate, tuple(Constant(v) for v in values)))


def _sorted_binding_variables(rule):
    """The rule's binding variables, sorted by name.

    Exactly the variables a matcher substitution covers (check-only
    literals never bind — rule safety bounds their variables by earlier
    binding literals), in exactly the canonical Substitution order — so
    ``zip(svars, payload)`` is the sorted binding tuple
    :meth:`Substitution._from_sorted` expects.
    """
    seen = set()
    for literal in rule.body:
        if literal.binds:
            seen |= literal.variables()
    return tuple(sorted(seen, key=lambda variable: variable.name))


# -- the shard view ------------------------------------------------------------


class _ShardView:
    """A FactsView proxy restricting a rule's outer scan to one shard.

    Armed before each rule's match, the *first* candidates call filters
    its rows by :func:`stable_row_shard` ownership and disarms; every
    later call — inner joins, hold checks, negation probes — passes
    through untouched.  Both backends drive exactly one outer candidate
    stream per match (the compiled program probes ``binds[0]`` once; the
    interpreted search's step 0 is the first candidates call), so this
    partitions the *match space* by outer row while each worker keeps the
    full relation contents for inner probes.

    Rows are filtered in whatever dialect the call serves (raw values or
    native ids); :func:`stable_row_shard` is process-stable on both, and
    all workers run the same backend, so the shards tile the outer scan
    identically everywhere.
    """

    __slots__ = ("inner", "nshards", "shard", "armed")

    def __init__(self, inner, nshards, shard):
        self.inner = inner
        self.nshards = nshards
        self.shard = shard
        self.armed = False

    def arm(self):
        self.armed = True

    def disarm(self):
        self.armed = False

    def _filter(self, rows):
        from ..storage.relation import stable_row_shard

        nshards = self.nshards
        shard = self.shard
        return [row for row in rows if stable_row_shard(row, nshards) == shard]

    def condition_candidates(self, predicate, arity, bound):
        rows = self.inner.condition_candidates(predicate, arity, bound)
        if self.armed:
            self.armed = False
            return self._filter(rows)
        return rows

    def event_candidates(self, op, predicate, arity, bound):
        rows = self.inner.event_candidates(op, predicate, arity, bound)
        if self.armed:
            self.armed = False
            return self._filter(rows)
        return rows

    def condition_candidates_key(self, predicate, arity, columns, key):
        rows = self.inner.condition_candidates_key(predicate, arity, columns, key)
        if self.armed:
            self.armed = False
            return self._filter(rows)
        return rows

    def event_candidates_key(self, op, predicate, arity, columns, key):
        rows = self.inner.event_candidates_key(op, predicate, arity, columns, key)
        if self.armed:
            self.armed = False
            return self._filter(rows)
        return rows

    # Everything non-candidate passes straight through.

    def condition_holds(self, atom):
        return self.inner.condition_holds(atom)

    def negation_holds(self, atom):
        return self.inner.negation_holds(atom)

    def event_holds(self, op, atom):
        return self.inner.event_holds(op, atom)

    def condition_holds_row(self, predicate, arity, row):
        return self.inner.condition_holds_row(predicate, arity, row)

    def negation_holds_row(self, predicate, arity, row):
        return self.inner.negation_holds_row(predicate, arity, row)

    def event_holds_row(self, op, predicate, arity, row):
        return self.inner.event_holds_row(op, predicate, arity, row)

    def register_lookup(self, predicate, arity, columns):
        self.inner.register_lookup(predicate, arity, columns)

    def estimate(self, predicate):
        return self.inner.estimate(predicate)


# -- the worker ----------------------------------------------------------------


class _WorkerState:
    """One worker's replica: rules, base database, per-epoch interpretation.

    Responses are shipped as **payload deltas** so each firing crosses the
    pipe at most once per epoch: ``("f", full)`` on a rule's first collect,
    ``("d", added, removed)`` afterwards, or ``None`` when nothing changed.
    Monotone rules (purely positive condition bodies) additionally keep a
    standing payload set per epoch and only match their delta variants
    against this shard's slice of the round's new ``+`` marks — exact for
    ``Γ`` because the interpretation only grows within an epoch, so a
    monotone rule's firing set grows too and every new firing contains at
    least one new atom.
    """

    def __init__(self, payload):
        from ..core.evaluation import _delta_variant, _is_monotone
        from ..storage.catalog import INTERNER
        from ..storage.relation import set_storage_backend
        from .match import set_matcher_backend

        # Never record into an inherited registry (fork copies the parent's
        # active Metrics): either install a fresh worker-local registry —
        # whose counter deltas ship back with each collect response — or
        # run silent when the parent run is unmetered.
        self.metrics = _obs.Metrics() if payload["metered"] else None
        self._counters_shipped = {}
        _obs.set_active(self.metrics)
        set_storage_backend(payload["storage"])
        set_matcher_backend(payload["matcher"])
        INTERNER.load_prefix(payload["intern"])
        self.rules = tuple(_decode_rule(rule) for rule in payload["rules"])
        self.svars = tuple(_sorted_binding_variables(rule) for rule in self.rules)
        # One delta variant per body literal of each monotone rule; the
        # variant binds the same variables, so the original svars order
        # extracts its payloads too.  Non-monotone rules get None and take
        # the full-rematch path every round.
        self.variants = tuple(
            tuple(
                _delta_variant(rule, position, literal)
                for position, literal in enumerate(rule.body)
            )
            if _is_monotone(rule)
            else None
            for rule in self.rules
        )
        self.base = _decode_database(payload["db"])
        self.nshards = payload["nshards"]
        self.shard = payload["shard"]
        self.replica = None
        self._last = {}  # rule index -> last responded payload set
        self._synced = {}  # rule index -> _insert_log position reflected
        self._insert_log = []  # this shard's share of the epoch's + marks

    def begin_epoch(self):
        from ..core.interpretation import IInterpretation

        self.replica = IInterpretation.from_database(self.base)
        self._last = {}
        self._synced = {}
        self._insert_log = []

    def collect(self, marks, rule_indices):
        from ..core.evaluation import _DeltaView, _shadow_atom
        from ..core.validity import InterpretationView
        from ..storage.database import Database
        from ..storage.relation import stable_row_shard
        from .match import match_rule

        replica = self.replica
        nshards = self.nshards
        shard = self.shard
        for mark in marks:
            update = _decode_mark(mark)
            replica.add_update(update)
            # Delta matching shards the *delta* instead of the outer scan:
            # each new atom is owned by exactly one worker, whose variant
            # match finds every firing that atom introduces.  mark[2] is
            # the raw value row — the same dialect on every worker.
            if update.is_insert and stable_row_shard(mark[2], nshards) == shard:
                self._insert_log.append(_shadow_atom(update.atom))
        view = _ShardView(InterpretationView(replica), nshards, shard)
        response = {}
        delta_views = {}  # log position -> _DeltaView over the unsharded view
        log = self._insert_log
        for index in rule_indices:
            rule = self.rules[index]
            svars = self.svars[index]
            variants = self.variants[index]
            synced = self._synced.get(index)
            if variants is not None and synced is not None:
                # Monotone rule with standing state: only the new marks
                # since this rule's last sync can introduce firings.
                standing = self._last[index]
                added = set()
                if synced < len(log):
                    delta_view = delta_views.get(synced)
                    if delta_view is None:
                        delta_db = Database()
                        for shadow in log[synced:]:
                            delta_db.add(shadow)
                        # Unsharded inner view: the delta rows themselves
                        # are this shard's slice, which partitions the
                        # new-match space across workers already.
                        delta_view = _DeltaView(view.inner, delta_db)
                        delta_views[synced] = delta_view
                    for variant in variants:
                        for bindings in match_rule(
                            variant, delta_view, freeze=False
                        ):
                            payload = tuple(
                                bindings[v].value for v in svars
                            )
                            if payload not in standing:
                                standing.add(payload)
                                added.add(payload)
                self._synced[index] = len(log)
                response[index] = (
                    ("d", sorted(added, key=repr), ()) if added else None
                )
                continue
            payloads = set()
            view.arm()
            for bindings in match_rule(rule, view, freeze=False):
                payloads.add(tuple(bindings[v].value for v in svars))
            view.disarm()  # zero-candidate matches never fired the filter
            previous = self._last.get(index)
            if variants is not None:
                # A monotone rule's first collect this epoch: the sharded
                # full match seeds the standing set.
                self._last[index] = payloads
                self._synced[index] = len(log)
                response[index] = ("f", sorted(payloads, key=repr))
            elif previous == payloads:
                # Unchanged since our previous response for this rule: the
                # parent keeps its per-worker set, so ship a "same" marker.
                response[index] = None
            elif previous is None:
                self._last[index] = payloads
                response[index] = ("f", sorted(payloads, key=repr))
            else:
                self._last[index] = payloads
                response[index] = (
                    "d",
                    sorted(payloads - previous, key=repr),
                    sorted(previous - payloads, key=repr),
                )
        return response, self._counter_deltas()

    def _counter_deltas(self):
        """Counter growth since the last response (parent merges these)."""
        if self.metrics is None:
            return None
        shipped = self._counters_shipped
        deltas = {}
        for name, value in self.metrics.counters.items():
            delta = value - shipped.get(name, 0)
            if delta:
                deltas[name] = delta
                shipped[name] = value
        return deltas


def _worker_main(conn):
    """Worker process entry point: serve requests until stop/EOF."""
    state = None
    try:
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "init":
                state = _WorkerState(message[1])
                conn.send(("ok",))
            elif kind == "epoch":
                state.begin_epoch()
                conn.send(("ok",))
            elif kind == "collect":
                firings, deltas = state.collect(message[1], message[2])
                conn.send(("firings", firings, deltas))
            elif kind == "stop":
                conn.send(("ok",))
                return
            else:
                conn.send(("error", "unknown request %r" % (kind,)))
                return
    except EOFError:
        return
    except BaseException as error:  # ship the failure, don't hang the parent
        try:
            conn.send(("error", "%s: %s" % (type(error).__name__, error)))
        except Exception:
            pass
        return


def _mp_context():
    # fork is cheapest (the child inherits compiled-rule caches and the
    # intern table, and load_prefix degenerates to a consistency check);
    # spawn-only platforms go through the full init payload instead.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context("spawn")


# -- the executor --------------------------------------------------------------


class ParallelExecutor:
    """Fans ``Γ`` collect-firings across persistent worker processes.

    Lifecycle: :meth:`begin_run` once per engine run (spawns workers,
    ships the program / intern prefix / base database; may decline),
    :meth:`begin_epoch` after every restart (workers rebuild their
    replica from ``I∅`` — the paper's restart, distributed), then
    :meth:`collect_all` per evaluation-strategy collect, and
    :meth:`close` in the engine's run teardown.
    """

    def __init__(self, nworkers, threshold=None):
        self.nworkers = int(nworkers)
        if threshold is None:
            threshold = int(os.environ.get("REPRO_PARALLEL_THRESHOLD") or DEFAULT_THRESHOLD)
        self.threshold = threshold
        self._procs = []
        self._conns = []
        self._running = False
        self._rules = ()
        self._index_of = {}
        self._svars = ()
        self._heads = ()
        self._instance_memo = {}
        self._worker_sets = []  # per worker: rule index -> payload set
        self._merged = {}  # rule index -> payload -> worker refcount
        self._sorted = {}  # rule index -> payloads sorted by repr
        self._shipped = set()
        self._shipped_stamp = -1

    # -- lifecycle --------------------------------------------------------------

    def begin_run(self, program_rules, database):
        """Start workers for one run.  Returns False to decline (stay sequential)."""
        from ..storage.catalog import INTERNER
        from ..storage.relation import get_storage_backend
        from .match import get_matcher_backend

        rules = tuple(program_rules)
        if self.nworkers < 2 or not rules or len(database) < self.threshold:
            return False
        self._rules = rules
        self._index_of = {}
        for position, rule in enumerate(rules):
            self._index_of.setdefault(rule, position)
        self._svars = tuple(_sorted_binding_variables(rule) for rule in rules)
        self._instance_memo = {}
        init = {
            "storage": get_storage_backend(),
            "matcher": get_matcher_backend(),
            "intern": INTERNER.snapshot_values(),
            "rules": tuple(_encode_rule(rule) for rule in rules),
            "db": _encode_database(database),
            "nshards": self.nworkers,
            # Metered runs get worker-local registries whose counter deltas
            # ride back on every collect; unmetered runs keep the workers on
            # the null-telemetry fast path.
            "metered": _obs.ACTIVE is not None,
        }
        context = _mp_context()
        for shard in range(self.nworkers):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(child_conn,),
                daemon=True,
                name="repro-gamma-%d" % shard,
            )
            process.start()
            child_conn.close()
            payload = dict(init)
            payload["shard"] = shard
            parent_conn.send(("init", payload))
            self._procs.append(process)
            self._conns.append(parent_conn)
        for conn in self._conns:
            self._recv(conn)
        self._running = True
        m = _obs.ACTIVE
        if m is not None:
            m.gauge("parallel.workers", self.nworkers)
        return True

    def begin_epoch(self):
        """Reset every worker's replica to ``I∅`` (run start and each restart)."""
        if not self._running:
            return
        self._shipped = set()
        self._shipped_stamp = -1
        self._worker_sets = [dict() for _ in self._conns]
        self._merged = {}
        self._sorted = {}
        for conn in self._conns:
            conn.send(("epoch",))
        for conn in self._conns:
            self._recv(conn)

    def close(self):
        """Stop all workers.  Idempotent; safe mid-failure."""
        self._running = False
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (OSError, ValueError):
                pass
        for process in self._procs:
            process.join(timeout=2)
            if process.is_alive():
                process.terminate()
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._procs = []
        self._conns = []

    # -- the collect ------------------------------------------------------------

    def collect_all(self, rules, blocked, interpretation, into):
        """Parallel twin of the strategies' ``_collect_all``.

        Matches *rules* against *interpretation* on the workers, merges
        the shard-disjoint payload unions deterministically (sorted per
        rule), reconstructs instances parent-side, and adds unblocked
        ones to *into* with the sequential path's exact dedup-and-count
        semantics.  Returns the number of instances new in *into*, or
        ``None`` to decline (caller falls back to sequential).
        """
        if not self._running:
            return None
        indices = []
        seen = set()
        for rule in rules:
            index = self._index_of.get(rule)
            if index is None:
                return None  # not a run-program rule: let the oracle handle it
            if index not in seen:
                # A program may list one rule twice; duplicates add nothing
                # (identical instances dedup in *into*) and must not reach
                # the worker, whose same-as-last marker would trigger on
                # the second pass within one request.
                seen.add(index)
                indices.append(index)
        if not indices:
            return 0
        marks = self._pending_marks(interpretation)
        message = ("collect", marks, tuple(indices))
        for conn in self._conns:
            conn.send(message)
        m = _obs.ACTIVE
        responses = []
        for conn in self._conns:
            reply = self._recv(conn)
            responses.append(reply[1])
            deltas = reply[2]
            if m is not None and deltas:
                # Fold the workers' match/storage/compiler counters into
                # the run's registry; timers stay worker-local (wall time
                # across processes does not sum meaningfully).
                for name, amount in deltas.items():
                    m.inc(name, amount)
        start = perf_counter() if m is not None else 0.0
        added = 0
        memo = self._instance_memo
        for index in indices:
            rule_start = perf_counter() if m is not None else 0.0
            self._apply_responses(index, responses)
            rule = self._rules[index]
            svars = self._svars[index]
            rule_added = 0
            for payload in self._sorted.get(index, ()):
                entry = memo.get((index, payload))
                if entry is None:
                    entry = self._build_instance(rule, svars, payload)
                    memo[(index, payload)] = entry
                instance, head = entry
                if instance in blocked:
                    continue
                bucket = into.get(head)
                if bucket is None:
                    into[head] = {instance}
                elif instance not in bucket:
                    bucket.add(instance)
                else:
                    continue
                rule_added += 1
            added += rule_added
            if m is not None:
                # Per-rule attribution so ``repro profile`` keeps working
                # under --parallel: firing counts are exact; the time is
                # the parent's merge share (match time lives on workers).
                m.observe_rule(
                    rule.describe(), perf_counter() - rule_start, rule_added
                )
                m.inc("eval.full_matches")
        if m is not None:
            m.inc("parallel.collects")
            m.observe("parallel.merge", perf_counter() - start)
        return added

    # -- internals --------------------------------------------------------------

    def _apply_responses(self, index, responses):
        """Fold one rule's worker responses into the merged payload state.

        Workers ship deltas (``None`` unchanged, ``("f", full)`` first
        response, ``("d", added, removed)`` after), so each payload is
        processed once per epoch instead of once per round.  The merged
        view refcounts payloads per worker (delta-sharded matches can be
        found by more than one worker) and keeps a repr-sorted list per
        rule incrementally — the deterministic iteration order the
        sequential oracle's fingerprint is compared against.
        """
        from bisect import bisect_left, insort

        merged = self._merged.get(index)
        if merged is None:
            merged = self._merged[index] = {}
            cache = self._sorted[index] = []
        else:
            cache = self._sorted[index]
        bulk = []
        for worker, response in enumerate(responses):
            payloads = response[index]
            if payloads is None:
                continue
            worker_set = self._worker_sets[worker].setdefault(index, set())
            if payloads[0] == "f":
                full = payloads[1]
                added = [p for p in full if p not in worker_set]
                removed = worker_set.difference(full)
            else:
                _, added, removed = payloads
            for payload in added:
                if payload in worker_set:
                    continue
                worker_set.add(payload)
                count = merged.get(payload, 0)
                merged[payload] = count + 1
                if count == 0:
                    bulk.append(payload)
            for payload in removed:
                if payload not in worker_set:
                    continue
                worker_set.discard(payload)
                count = merged[payload] - 1
                if count:
                    merged[payload] = count
                else:
                    del merged[payload]
                    # repr keys can collide only between equal payloads
                    # within one rule (raw value tuples), but scan forward
                    # defensively: equal keys are contiguous when sorted.
                    position = bisect_left(cache, repr(payload), key=repr)
                    while cache[position] != payload:
                        position += 1
                    del cache[position]
        if bulk:
            # Large influxes (a rule's first round) re-sort outright;
            # steady-state trickles insert in place.
            if len(bulk) > max(64, len(cache) // 4):
                cache.extend(bulk)
                cache.sort(key=repr)
            else:
                for payload in bulk:
                    insort(cache, payload, key=repr)

    @staticmethod
    def _build_instance(rule, svars, payload):
        from ..core.groundings import RuleGrounding

        substitution = Substitution._from_sorted(
            tuple(
                (variable, Constant(value))
                for variable, value in zip(svars, payload)
            )
        )
        instance = RuleGrounding(rule, substitution)
        return instance, instance.ground_head()

    def _pending_marks(self, interpretation):
        """The marks added since the last ship, sorted — exact within an epoch
        because ``I+``/``I-`` only grow between restarts."""
        count = interpretation.marked_count()
        if count == self._shipped_stamp:
            return ()
        marked = interpretation.marked_updates()
        shipped = self._shipped
        pending = [update for update in marked if update not in shipped]
        pending.sort(key=str)
        shipped.update(pending)
        self._shipped_stamp = count
        return tuple(_encode_mark(update) for update in pending)

    def _recv(self, conn):
        try:
            response = conn.recv()
        except EOFError:
            self.close()
            raise EngineError("parallel worker died unexpectedly")
        if response[0] == "error":
            self.close()
            raise EngineError("parallel worker failed: %s" % response[1])
        return response

    def __repr__(self):
        return "ParallelExecutor(nworkers=%d, running=%s)" % (
            self.nworkers,
            self._running,
        )
