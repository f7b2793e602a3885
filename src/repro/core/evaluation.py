"""Per-epoch evaluation strategies for the engine's ``Γ`` rounds.

``Γ``'s definition quantifies over *all* valid unblocked instances every
round; the naive strategy recomputes that set from scratch.  The other
strategies exploit how validity evolves *within one epoch*: ``I∅`` is
invariant and ``I+``/``I-`` only grow, so

* **positive condition literals** (``a`` valid iff ``a ∈ I∅ ∪ I+``) can
  only switch off→on;
* **event literals** (``+a`` valid iff ``+a ∈ I+``; ``-a`` iff
  ``-a ∈ I-``) can likewise only switch off→on — the Section 4.3 validity
  clauses read the marked sets directly, which grow inflationarily;
* **negated condition literals** can flip both ways (``not a`` loses
  validity when ``+a`` arrives, gains it when ``-a`` does).

The strategies:

* ``naive`` — textbook full rematch of every rule, every round.
* ``seminaive`` — rules whose bodies are purely positive conditions are
  *monotone*: full match in the epoch's first round, then per-round
  *delta* matching (a newly valid instance must read at least one atom
  inserted in round ``k-1``), with results accumulated.  Everything with
  negation or events is *volatile* and re-evaluated in full each round.
* ``incremental`` — widens the monotone fragment to include event
  literals (delta variants are generated for event literals just like
  condition literals, reading the round's new ``+``/``-`` marks), and
  adds **dirty-predicate scheduling** for the remaining negation-bearing
  rules: a volatile rule is only rematched when last round's new marks
  intersect the ``(predicate, op)`` marks its body reads; otherwise its
  previous firings are reused.  This is sound because every validity
  case for a literal over predicate ``p`` depends only on the atoms and
  marks over ``p`` — and each case reads specific polarities (see
  :func:`repro.engine.dependency.body_mark_index`) — while the blocked
  set is constant within an epoch.

Each strategy returns exactly the naive round's firings, so
``GammaResult`` — and therefore conflicts, blocking, traces and final
states — are bit-identical between the three.  That equivalence is
property-tested (``tests/property/test_evaluation_modes.py``) and the
speedup is measured by the A4 ablation benchmarks and
``benchmarks/run_benchmarks.py``.

Blocked sets only grow at restarts, so an evaluator is valid for exactly
one epoch; the engine constructs a fresh one after every restart.

Every strategy also maintains ``last_firing_count`` — the total number
of instances in the dict returned by the latest :meth:`compute` — so the
engine can track ``stats.firings_total`` without re-summing the firings
map each round when no listeners are attached.
"""

from __future__ import annotations

from time import perf_counter

from ..engine.dependency import body_mark_index, marks_touched
from ..engine.match import collect_rule_firings
from ..engine.views import FactsView
from ..lang.atoms import Atom
from ..lang.literals import Condition, Event
from ..lang.rules import Rule
from ..lang.updates import Update, UpdateOp
from ..obs import audit as _audit
from ..obs import metrics as _obs
from .groundings import RuleGrounding
from .validity import InterpretationView

_DELTA_PREFIX = "__delta__"


def _is_monotone(rule):
    """Purely positive condition body: the semi-naive monotone fragment."""
    return all(
        isinstance(literal, Condition) and literal.positive
        for literal in rule.body
    )


def _is_epoch_monotone(rule):
    """No negated conditions: valid instances only accumulate within an epoch.

    Positive conditions and event literals both read sets that grow
    inflationarily within one epoch (``I∅ ∪ I+`` and ``I+``/``I-``
    respectively), so their validity only switches off→on.
    """
    return not any(
        isinstance(literal, Condition) and not literal.positive
        for literal in rule.body
    )


def _shadow_atom(atom):
    return Atom(_DELTA_PREFIX + atom.predicate, atom.terms)


def _delta_variant(rule, index, literal):
    """*rule* with body literal *index* renamed into the delta namespace.

    The shadow literal keeps its kind: a positive condition reads the
    round's newly ``+``-marked atoms, an event literal ``±a`` reads the
    round's newly ``±``-marked atoms.  The variant bypasses safety
    re-validation (the original rule is safe and the variant only renames
    a predicate).
    """
    if isinstance(literal, Event):
        shadow = Event(Update(literal.op, _shadow_atom(literal.atom)))
    else:
        shadow = Condition(_shadow_atom(literal.atom), positive=True)
    body = rule.body[:index] + (shadow,) + rule.body[index + 1 :]
    return Rule.__new_unchecked__(rule.head, body, None, None)


class NaiveEvaluation:
    """The textbook strategy: full rematch of every rule, every round."""

    name = "naive"

    def __init__(self, program, blocked, executor=None):
        self.program = program
        self.blocked = frozenset(blocked)
        self._executor = executor
        self._frozen = {}  # previous round's Update -> frozenset, for reuse
        self.last_firing_count = 0

    def compute(self, interpretation, delta_updates=None):
        """All valid unblocked firings: ``{head Update: frozenset[RuleGrounding]}``."""
        view = InterpretationView(interpretation)
        firings = {}
        count = _collect_all(
            self.program,
            self.blocked,
            view,
            firings,
            self._executor,
            interpretation,
        )
        self.last_firing_count = count
        # Reuse last round's frozenset when a head's instance set did not
        # change — the common case in a converging fixpoint.  Downstream
        # consumers (provenance merging, result comparison) then get
        # identity fast paths instead of re-hashing every instance.
        previous = self._frozen
        frozen = {}
        for head, instances in firings.items():
            prior = previous.get(head)
            if prior is not None and prior == instances:
                frozen[head] = prior
            else:
                frozen[head] = frozenset(instances)
        self._frozen = frozen
        a = _audit.ACTIVE
        if a is not None:
            a.round(self.name, count)
        return dict(frozen)


class _DeltaView(FactsView):
    """Serves ``__delta__``-prefixed predicates from last round's new marks,
    everything else from the underlying interpretation view.

    *delta_plus* holds the newly ``+``-marked atoms (shadow-named) and
    backs shadow positive conditions and shadow ``+a`` event literals;
    *delta_minus* holds the newly ``-``-marked atoms and backs shadow
    ``-a`` event literals.  The semi-naive strategy only ever populates
    *delta_plus* (its monotone fragment has no event literals)."""

    __slots__ = ("inner", "delta_plus", "delta_minus")

    def __init__(self, inner, delta_plus, delta_minus=None):
        self.inner = inner
        self.delta_plus = delta_plus
        self.delta_minus = delta_minus

    def _is_shadow(self, predicate):
        return predicate.startswith(_DELTA_PREFIX)

    def condition_candidates(self, predicate, arity, bound):
        if self._is_shadow(predicate):
            relation = self.delta_plus.relation(predicate)
            if relation is None or relation.arity != arity:
                return ()
            return relation.candidates(bound)
        return self.inner.condition_candidates(predicate, arity, bound)

    def condition_holds(self, atom):
        if self._is_shadow(atom.predicate):
            return atom in self.delta_plus
        return self.inner.condition_holds(atom)

    def negation_holds(self, atom):
        return self.inner.negation_holds(atom)

    def _event_store(self, op):
        return self.delta_plus if op is UpdateOp.INSERT else self.delta_minus

    def event_candidates(self, op, predicate, arity, bound):
        if self._is_shadow(predicate):
            store = self._event_store(op)
            relation = store.relation(predicate) if store is not None else None
            if relation is None or relation.arity != arity:
                return ()
            return relation.candidates(bound)
        return self.inner.event_candidates(op, predicate, arity, bound)

    def event_holds(self, op, atom):
        if self._is_shadow(atom.predicate):
            store = self._event_store(op)
            return store is not None and atom in store
        return self.inner.event_holds(op, atom)

    def estimate(self, predicate):
        if self._is_shadow(predicate):
            total = self.delta_plus.count(predicate)
            if self.delta_minus is not None:
                total += self.delta_minus.count(predicate)
            return total
        return self.inner.estimate(predicate)

    # -- row-level fast paths (compiled matcher) ---------------------------------

    def condition_candidates_key(self, predicate, arity, columns, key):
        if self._is_shadow(predicate):
            relation = self.delta_plus.relation(predicate)
            if relation is None or relation.arity != arity:
                return ()
            return relation.candidates_key(columns, key)
        return self.inner.condition_candidates_key(predicate, arity, columns, key)

    def event_candidates_key(self, op, predicate, arity, columns, key):
        if self._is_shadow(predicate):
            store = self._event_store(op)
            relation = store.relation(predicate) if store is not None else None
            if relation is None or relation.arity != arity:
                return ()
            return relation.candidates_key(columns, key)
        return self.inner.event_candidates_key(op, predicate, arity, columns, key)

    def condition_holds_row(self, predicate, arity, row):
        if self._is_shadow(predicate):
            return self.delta_plus.has_row(predicate, arity, row)
        return self.inner.condition_holds_row(predicate, arity, row)

    def negation_holds_row(self, predicate, arity, row):
        return self.inner.negation_holds_row(predicate, arity, row)

    def event_holds_row(self, op, predicate, arity, row):
        if self._is_shadow(predicate):
            store = self._event_store(op)
            return store is not None and store.has_row(predicate, arity, row)
        return self.inner.event_holds_row(op, predicate, arity, row)

    def register_lookup(self, predicate, arity, columns):
        # Shadow relations hold one round's delta — too small and too
        # short-lived to be worth a composite index — so only forward
        # signatures over real predicates.
        if not self._is_shadow(predicate):
            self.inner.register_lookup(predicate, arity, columns)


def _instance_factory(rule, substitution):
    """Build the ``(RuleGrounding, ground head)`` pair for one match.

    Handed to :func:`collect_rule_firings`, whose compiled backend memoizes
    the result per slot tuple — so across rounds each distinct grounding
    pays this construction exactly once.
    """
    instance = RuleGrounding(rule, substitution)
    return instance, instance.ground_head()


def _collect_inner(rule, blocked, view, into):
    return collect_rule_firings(
        rule, rule, view, blocked, into, _instance_factory
    )


def _collect(rule, blocked, view, into):
    """Match *rule* against *view*, adding unblocked instances to *into*.

    Returns the number of instances that were actually new in *into*.
    With a metrics registry active, the pass is timed and attributed to
    the rule (the raw material of ``repro profile``); without one, the
    clocks are never read.
    """
    m = _obs.ACTIVE
    if m is None:
        return _collect_inner(rule, blocked, view, into)
    start = perf_counter()
    added = _collect_inner(rule, blocked, view, into)
    m.observe_rule(rule.describe(), perf_counter() - start, added)
    m.inc("eval.full_matches")
    return added


def _collect_all(rules, blocked, view, into, executor=None, interpretation=None):
    """Full-match *rules* into *into*; returns the number of new instances.

    With an *executor* (a :class:`repro.engine.parallel.ParallelExecutor`)
    and the backing *interpretation*, the whole collect is offered to the
    parallel workers first; the executor either returns the same
    added-count with identical dedup semantics, or declines (``None``)
    and the sequential oracle below runs instead.
    """
    if executor is not None and interpretation is not None:
        added = executor.collect_all(rules, blocked, interpretation, into)
        if added is not None:
            return added
    added = 0
    for rule in rules:
        added += _collect(rule, blocked, view, into)
    return added


def _collect_variant_inner(original_rule, variant_rule, blocked, view, into, touched):
    return collect_rule_firings(
        variant_rule, original_rule, view, blocked, into, _instance_factory, touched
    )


def _collect_variant(original_rule, variant_rule, blocked, view, into, touched=None):
    """Like :func:`_collect`, but grounding identity uses *original_rule*.

    Timed under the *original* rule's description, so a rule's profile
    aggregates its full matches and all of its delta-variant matches.
    """
    m = _obs.ACTIVE
    if m is None:
        return _collect_variant_inner(
            original_rule, variant_rule, blocked, view, into, touched
        )
    start = perf_counter()
    added = _collect_variant_inner(
        original_rule, variant_rule, blocked, view, into, touched
    )
    m.observe_rule(original_rule.describe(), perf_counter() - start, added)
    m.inc("eval.delta_matches")
    return added


class SemiNaiveEvaluation:
    """Accumulating delta evaluation for the monotone fragment."""

    name = "seminaive"

    def __init__(self, program, blocked, executor=None):
        self.blocked = frozenset(blocked)
        self._executor = executor
        self.monotone_rules = []
        self.volatile_rules = []
        for rule in program:
            (self.monotone_rules if _is_monotone(rule) else self.volatile_rules).append(
                rule
            )
        # One delta variant per positive body literal of each monotone rule,
        # with that literal's predicate renamed into the shadow namespace.
        # The variant keeps the original rule for grounding identity.
        self._variants = []  # (original_rule, variant_rule)
        for rule in self.monotone_rules:
            for index, literal in enumerate(rule.body):
                self._variants.append((rule, _delta_variant(rule, index, literal)))
        self._accumulated = {}  # Update -> set[RuleGrounding]
        self._frozen = {}  # Update -> frozenset[RuleGrounding], kept in sync
        self._monotone_total = 0
        self._first_round_done = False
        self.last_firing_count = 0

    @staticmethod
    def _delta_database(delta_updates):
        from ..storage.database import Database

        delta_db = Database()
        for update in delta_updates:
            if update.is_insert:
                delta_db.add(_shadow_atom(update.atom))
        return delta_db

    # -- the strategy ---------------------------------------------------------------

    def compute(self, interpretation, delta_updates=None):
        view = InterpretationView(interpretation)
        touched = set()

        if not self._first_round_done:
            # Epoch round 1: full match of the monotone fragment.
            self._monotone_total += _collect_all(
                self.monotone_rules,
                self.blocked,
                view,
                self._accumulated,
                self._executor,
                interpretation,
            )
            self._first_round_done = True
            touched.update(self._accumulated)
        elif delta_updates:
            delta_db = self._delta_database(delta_updates)
            if delta_db:
                delta_view = _DeltaView(view, delta_db)
                for original_rule, variant_rule in self._variants:
                    self._monotone_total += _collect_variant(
                        original_rule,
                        variant_rule,
                        self.blocked,
                        delta_view,
                        self._accumulated,
                        touched=touched,
                    )

        # Re-freeze only the heads this round's matching touched; the
        # accumulated map is append-only, so every other head's frozenset
        # is still current and the round's result is a shallow dict copy —
        # O(#heads) instead of O(#instances) per round.
        accumulated = self._accumulated
        frozen = self._frozen
        for head in touched:
            frozen[head] = frozenset(accumulated[head])

        count = self._monotone_total
        a = _audit.ACTIVE
        if not self.volatile_rules:
            self.last_firing_count = count
            if a is not None:
                a.round(self.name, count)
            return dict(frozen)

        firings = {head: set(instances) for head, instances in accumulated.items()}
        count += _collect_all(
            self.volatile_rules,
            self.blocked,
            view,
            firings,
            self._executor,
            interpretation,
        )
        self.last_firing_count = count
        if a is not None:
            a.round(self.name, count)
        return {head: frozenset(instances) for head, instances in firings.items()}


class IncrementalEvaluation:
    """Delta evaluation for the whole negation-free fragment plus
    dirty-predicate scheduling for the rest.

    Three refinements over :class:`SemiNaiveEvaluation`:

    * event literals join the monotone fragment (their validity is
      epoch-monotone too), with delta variants reading the round's new
      ``+``/``-`` marks;
    * the accumulated monotone firings are kept as ready frozensets that
      are re-frozen only for heads touched this round, so each round's
      result dict is a shallow copy instead of a deep one;
    * volatile (negation-bearing) rules cache their previous firings and
      are rematched only when last round's new marks touched one of the
      ``(predicate, op)`` marks their bodies read — a sound
      over-approximation since literal validity over ``p`` depends only on
      the marks over ``p`` (and positive conditions and events each read
      only one polarity; see
      :func:`repro.engine.dependency.body_mark_index`).
    """

    name = "incremental"

    def __init__(self, program, blocked, executor=None):
        self.blocked = frozenset(blocked)
        self._executor = executor
        self.monotone_rules = []
        self.volatile_rules = []
        for rule in program:
            (
                self.monotone_rules
                if _is_epoch_monotone(rule)
                else self.volatile_rules
            ).append(rule)
        self._variants = []  # (original_rule, variant_rule)
        for rule in self.monotone_rules:
            for index, literal in enumerate(rule.body):
                self._variants.append((rule, _delta_variant(rule, index, literal)))
        self._body_marks = body_mark_index(self.volatile_rules)
        self._accumulated = {}  # Update -> set[RuleGrounding]
        self._frozen = {}  # Update -> frozenset[RuleGrounding], kept in sync
        self._monotone_total = 0
        self._volatile_cache = {}  # rule -> {Update: frozenset[RuleGrounding]}
        self._first_round_done = False
        self.last_firing_count = 0

    # -- internals -------------------------------------------------------------

    @staticmethod
    def _delta_databases(delta_updates):
        from ..storage.database import Database

        delta_plus = Database()
        delta_minus = Database()
        for update in delta_updates:
            shadow = _shadow_atom(update.atom)
            (delta_plus if update.is_insert else delta_minus).add(shadow)
        return delta_plus, delta_minus

    def _collect_volatile(self, rule, view):
        staged = {}
        _collect(rule, self.blocked, view, staged)
        return {head: frozenset(instances) for head, instances in staged.items()}

    # -- the strategy ---------------------------------------------------------------

    def compute(self, interpretation, delta_updates=None):
        view = InterpretationView(interpretation)
        dirty = None  # None means "everything": the epoch's first round.

        if not self._first_round_done:
            self._monotone_total += _collect_all(
                self.monotone_rules,
                self.blocked,
                view,
                self._accumulated,
                self._executor,
                interpretation,
            )
            self._frozen = {
                head: frozenset(instances)
                for head, instances in self._accumulated.items()
            }
            self._first_round_done = True
        elif delta_updates:
            dirty = marks_touched(delta_updates)
            delta_plus, delta_minus = self._delta_databases(delta_updates)
            delta_view = _DeltaView(view, delta_plus, delta_minus)
            touched = set()
            for original_rule, variant_rule in self._variants:
                self._monotone_total += _collect_variant(
                    original_rule,
                    variant_rule,
                    self.blocked,
                    delta_view,
                    self._accumulated,
                    touched,
                )
            for head in touched:
                self._frozen[head] = frozenset(self._accumulated[head])
        else:
            dirty = frozenset()

        firings = dict(self._frozen)
        count = self._monotone_total
        m = _obs.ACTIVE
        for rule in self.volatile_rules:
            cached = self._volatile_cache.get(rule)
            if (
                cached is None
                or dirty is None
                or not dirty.isdisjoint(self._body_marks[rule])
            ):
                cached = self._collect_volatile(rule, view)
                self._volatile_cache[rule] = cached
                if m is not None:
                    m.inc("eval.volatile_rematched")
            elif m is not None:
                m.inc("eval.volatile_skipped_clean")
            for head, instances in cached.items():
                existing = firings.get(head)
                firings[head] = (
                    instances if existing is None else existing | instances
                )
                # Volatile instances embed their own rule, so they never
                # collide with monotone instances or other rules' caches.
                count += len(instances)
        self.last_firing_count = count
        a = _audit.ACTIVE
        if a is not None:
            a.round(self.name, count)
        return firings


EVALUATION_STRATEGIES = {
    "naive": NaiveEvaluation,
    "seminaive": SemiNaiveEvaluation,
    "incremental": IncrementalEvaluation,
}


def make_evaluation(name, program, blocked, executor=None):
    """Instantiate the strategy *name* for one epoch.

    *executor* is a parallel executor (a
    :class:`repro.engine.parallel.ParallelExecutor`, already started for
    this run) or ``None`` for sequential collection; the full-match
    collects route through it, with sequential fallback whenever it
    declines.
    """
    try:
        factory = EVALUATION_STRATEGIES[name]
    except KeyError:
        raise ValueError(
            "unknown evaluation strategy %r (known: %s)"
            % (name, ", ".join(sorted(EVALUATION_STRATEGIES)))
        )
    return factory(program, blocked, executor=executor)
