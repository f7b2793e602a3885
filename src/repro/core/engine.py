"""The PARK engine: ``PARK(D, P, U) = incorp(int(Θ^ω_{P_U}((∅, D))))``.

This is the production evaluation loop.  It implements exactly the ``Θ``
case split of :mod:`repro.core.transition` but works on one mutable
i-interpretation per epoch (instead of immutable bi-structures), records
provenance and statistics, and emits structured events to listeners so
the analysis layer can reproduce the paper's printed traces.

Termination needs no arbitrary cap: a consistent round either adds a
marked literal (``I`` strictly grows within the finite extended Herbrand
base) or is the fixpoint, and a resolution step strictly grows ``B``
within the finite set of rule groundings — the engine raises
:class:`NonTerminationError` only if a (buggy) policy configuration breaks
the latter invariant.  Optional ``max_rounds`` / ``max_restarts`` budgets
are available for defensive callers.

Telemetry follows the same opt-in pattern as listeners: construct with
``metrics=`` (a :class:`repro.obs.metrics.Metrics`) and/or ``tracer=``
(a :class:`repro.obs.tracing.Tracer`) and the run records phase timings,
counters, and nested engine/match/policy spans.  The metrics registry is
installed process-wide for the duration of the run so the matcher,
planner, and storage layers attribute their counters to it; with neither
option the loop takes the same null-telemetry fast path it always took
for listeners (one ``is None`` test per site — see DESIGN.md §7).

Static fast paths (DESIGN.md §8): construct with ``facts=True`` (analyze
at run start) or a precomputed :class:`~repro.lint.facts.ProgramFacts`,
and the run may (a) skip per-round conflict detection when the program is
statically conflict-free, (b) route a stratifiable program from the
``naive`` strategy onto ``seminaive``, and (c) prune statically-dead
rules from matcher compilation.  Each path is individually gated
(``facts_conflict_skip`` / ``facts_seminaive`` / ``facts_prune``) and
semantics-preserving: the run's fingerprint (atoms, blocked, rounds,
restarts, firings) is bit-identical to the ungated run.  Facts that do
not describe the run program ``P_U`` (transaction rules change the
emitters) are re-derived against it, with the run's database sharpening
liveness — soundness never rests on the caller.
"""

from __future__ import annotations

from time import perf_counter

from ..errors import NonTerminationError
from ..lang.program import Program
from ..obs import audit as _audit
from ..obs import metrics as _obs
from ..policies.base import as_policy
from ..storage.catalog import INTERNER
from ..storage.database import Database, ensure_storage
from ..storage.delta import Delta
from .blocking import BlockingMode, resolve_conflicts
from .conflicts import build_conflicts
from .consequence import GammaResult
from .eca import extend_with_updates
from .evaluation import EVALUATION_STRATEGIES, make_evaluation
from .incorporate import incorp
from .interpretation import IInterpretation
from .provenance import Provenance
from .result import ParkResult, RunStats


class EngineListener:
    """Receives structured events during a run.  All methods are no-ops here.

    Implementations: :class:`repro.analysis.trace.TraceRecorder` (records
    everything), :class:`repro.obs.tracing.TracingListener` (forwards the
    events into a span trace), or ad-hoc subclasses for progress reporting.
    """

    def on_start(self, program, database, policy_name):
        """A run begins; *program* already includes transaction rules."""

    def on_round(self, round_number, epoch, gamma_result):
        """``Γ`` was applied once; the result may be inconsistent."""

    def on_apply(self, round_number, epoch, interpretation):
        """A consistent round's updates were merged into ``I``."""

    def on_conflicts(self, round_number, epoch, conflicts, decisions, blocked_added):
        """Conflicts were detected and resolved; a restart follows."""

    def on_restart(self, epoch, blocked):
        """A new epoch begins from ``I∅`` with the enlarged blocked set."""

    def on_fixpoint(self, round_number, epoch, interpretation, blocked):
        """The final fixpoint was reached."""

    def on_finish(self, result):
        """The run is complete; *result* is the :class:`ParkResult`."""


def _coerce_program(program):
    if isinstance(program, Program):
        return program
    if isinstance(program, str):
        from ..lang.parser import parse_program

        return parse_program(program)
    return Program(tuple(program))


def _coerce_database(database):
    # A prebuilt Database may predate a storage-backend switch (tests and
    # benchmarks flip backends mid-process); converge it so a run never
    # mixes row and columnar relations.
    if isinstance(database, Database):
        return ensure_storage(database)
    if isinstance(database, str):
        return Database.from_text(database)
    return Database(database)


class ParkEngine:
    """A configured PARK evaluator: policy + blocking mode + telemetry.

    Engines are reusable and stateless across runs; every :meth:`run` is
    independent.
    """

    def __init__(
        self,
        policy=None,
        blocking_mode=BlockingMode.ALL,
        max_rounds=None,
        max_restarts=None,
        listeners=(),
        evaluation="naive",
        metrics=None,
        tracer=None,
        audit=None,
        facts=None,
        facts_conflict_skip=True,
        facts_seminaive=True,
        facts_prune=True,
        plan_cache=None,
    ):
        if policy is None:
            from ..policies.inertia import InertiaPolicy

            policy = InertiaPolicy()
        self.policy = as_policy(policy)
        if not isinstance(blocking_mode, BlockingMode):
            raise TypeError("blocking_mode must be a BlockingMode")
        self.blocking_mode = blocking_mode
        self.max_rounds = max_rounds
        self.max_restarts = max_restarts
        self.listeners = tuple(listeners)
        if evaluation not in EVALUATION_STRATEGIES:
            raise ValueError(
                "evaluation must be one of %s, got %r"
                % (", ".join(sorted(EVALUATION_STRATEGIES)), evaluation)
            )
        self.evaluation = evaluation
        self.metrics = metrics
        self.tracer = tracer
        # ``audit``: None (off), True (record a fresh DecisionTrail per
        # run), or a repro.obs.audit.DecisionTrail instance to record
        # into.  The trail rides on the result (``result.trail``).
        self.audit = audit
        # ``facts``: None (off), True (analyze at run start), or a
        # precomputed lint.facts.ProgramFacts for the program being run.
        self.facts = facts
        self.facts_conflict_skip = facts_conflict_skip
        self.facts_seminaive = facts_seminaive
        self.facts_prune = facts_prune
        # ``plan_cache``: an optional engine.plancache.PlanCache consulted
        # whenever facts must be (re)derived, so repeated runs of the same
        # program (ActiveDatabase commits, benchmark reps) skip re-analysis.
        self.plan_cache = plan_cache

    # -- events ----------------------------------------------------------------

    def _emit(self, method_name, *args):
        for listener in self.listeners:
            getattr(listener, method_name)(*args)

    # -- static facts -----------------------------------------------------------

    def _resolve_facts(self, run_program, original):
        """The :class:`ProgramFacts` to run under, or ``None`` when off.

        Precomputed facts are only trusted when they describe exactly the
        run program (transaction rules of ``P_U`` change the emittable
        sets); otherwise — and for ``facts=True`` — they are re-derived
        against the run program with the run's database sharpening
        liveness.  Either way the result is sound for this run.

        Re-derivation goes through :attr:`plan_cache` when one is set, so
        a repeat run of an unchanged program is a validated cache hit
        instead of a fresh analysis.
        """
        if self.facts is None:
            return None
        from ..lint.facts import ProgramFacts

        if isinstance(self.facts, ProgramFacts) and self.facts.matches(run_program):
            return self.facts
        if self.plan_cache is not None:
            return self.plan_cache.facts_for(run_program, original)
        return ProgramFacts.analyze(run_program, database=original)

    # -- the run -----------------------------------------------------------------

    def run(self, program, database, updates=None):
        """Compute ``PARK(D, P, U)`` and return a :class:`ParkResult`.

        *program* may be a :class:`Program`, an iterable of rules, or rule
        source text; *database* a :class:`Database`, an iterable of ground
        atoms, or fact source text; *updates* an iterable of ground
        :class:`~repro.lang.updates.Update` (the transaction's updates
        ``U``), empty or ``None`` for plain condition-action semantics.
        """
        base_program = _coerce_program(program)
        original = _coerce_database(database)
        if updates:
            run_program = extend_with_updates(base_program, updates)
        else:
            run_program = base_program

        tracer = self.tracer
        if self.metrics is None and tracer is None and self.audit is None:
            return self._run_loop(run_program, original)

        # Install the registries process-wide for the run so the matcher,
        # planner, storage, and conflict-resolution layers record into
        # them; restore the previous ones (usually None) even if the run
        # raises.
        previous = _obs.set_active(self.metrics) if self.metrics is not None else None
        if self.audit is not None:
            trail = (
                self.audit
                if isinstance(self.audit, _audit.DecisionTrail)
                else _audit.DecisionTrail()
            )
            previous_trail = _audit.set_active(trail)
        run_span = (
            tracer.begin(
                "engine.run",
                policy=self.policy.name,
                evaluation=self.evaluation,
                rules=len(run_program),
                atoms=len(original),
            )
            if tracer is not None
            else None
        )
        try:
            return self._run_loop(run_program, original)
        finally:
            if tracer is not None:
                # Also closes any round/match/policy spans a mid-run error
                # left open, stamping them with the failure time.
                tracer.end(run_span)
            if self.audit is not None:
                _audit.set_active(previous_trail)
            if self.metrics is not None:
                _obs.set_active(previous)

    def _run_loop(self, run_program, original):
        have_listeners = bool(self.listeners)
        tracer = self.tracer
        # Record into whatever registries are active — our own (installed
        # by run()) or ones the caller activated around the whole run.
        metrics = _obs.ACTIVE
        trail = _audit.ACTIVE
        self._emit("on_start", run_program, original, self.policy.name)

        # Static fast paths: each one is individually gated and preserves
        # the run's semantic fingerprint bit-for-bit (see class docstring).
        facts = self._resolve_facts(run_program, original)
        skip_conflict_scan = False
        evaluation_name = self.evaluation
        matcher_program = run_program
        if facts is not None:
            skip_conflict_scan = self.facts_conflict_skip and facts.conflict_free
            if (
                self.facts_seminaive
                and facts.stratifiable
                and evaluation_name == "naive"
            ):
                # Any strategy computes the same rounds; stratifiable
                # programs are where the monotone split pays off.
                evaluation_name = "seminaive"
            if self.facts_prune and facts.dead:
                # Dead rules can never fire, so the matcher need not
                # compile or probe them; firings are unchanged.
                matcher_program = facts.live_program(run_program)
            if metrics is not None:
                metrics.gauge(
                    "engine.facts_conflict_free", int(facts.conflict_free)
                )
                metrics.gauge("engine.facts_dead_rules", len(facts.dead))
                metrics.gauge(
                    "engine.facts_auto_seminaive",
                    int(evaluation_name != self.evaluation),
                )

        if trail is not None:
            trail.start(run_program, original, self.policy.name, evaluation_name)

        stats = RunStats()
        blocked = set()
        provenance = Provenance()
        interpretation = IInterpretation.from_database(original)
        epoch = 1
        evaluator = make_evaluation(evaluation_name, matcher_program, blocked)
        last_new_updates = None
        if metrics is not None:
            metrics.inc("engine.runs")
            metrics.gauge("engine.input_atoms", len(original))
            metrics.gauge("engine.program_rules", len(run_program))
            metrics.gauge("storage.intern_table_size", len(INTERNER))

        while True:
            stats.rounds += 1
            if self.max_rounds is not None and stats.rounds > self.max_rounds:
                raise NonTerminationError(
                    "PARK exceeded max_rounds=%d" % self.max_rounds
                )
            round_span = (
                tracer.begin("engine.round", round=stats.rounds, epoch=epoch)
                if tracer is not None
                else None
            )
            if metrics is not None:
                metrics.inc("engine.rounds")
                match_start = perf_counter()
            if tracer is not None:
                match_span = tracer.begin("match.gamma")
            firings = evaluator.compute(interpretation, last_new_updates)
            if tracer is not None:
                tracer.end(match_span)
            if metrics is not None:
                metrics.observe("phase.match", perf_counter() - match_start)
                metrics.inc("engine.firings", evaluator.last_firing_count)
            result = GammaResult(
                interpretation, firings, assume_consistent=skip_conflict_scan
            )
            # Firings are counted by the strategies as they collect them,
            # so the total is free whether or not anyone is listening.
            stats.firings_total += evaluator.last_firing_count
            if have_listeners:
                self._emit("on_round", stats.rounds, epoch, result)

            if result.is_consistent:
                provenance.record(result.firings, round_number=stats.rounds)
                if result.reached_fixpoint:
                    if tracer is not None:
                        tracer.end(round_span)
                    break
                last_new_updates = result.new_updates
                if metrics is not None:
                    apply_start = perf_counter()
                if tracer is not None:
                    apply_span = tracer.begin("engine.apply")
                if have_listeners:
                    # Listeners may retain the round's GammaResult, whose
                    # interpretation must stay the pre-apply state.
                    interpretation = result.apply()
                else:
                    # No outside observer: merge the round's updates in
                    # place instead of copying all three stores (indexes
                    # are maintained incrementally by the relations).
                    interpretation.add_updates(result.new_updates)
                if tracer is not None:
                    tracer.end(apply_span)
                    tracer.end(round_span)
                if metrics is not None:
                    metrics.observe("phase.apply", perf_counter() - apply_start)
                self._emit("on_apply", stats.rounds, epoch, interpretation)
                continue

            # Conflict branch of Θ: resolve, block, restart from I∅.
            if metrics is not None:
                policy_start = perf_counter()
            if tracer is not None:
                policy_span = tracer.begin(
                    "policy.resolve", round=stats.rounds, epoch=epoch
                )
            conflicts = build_conflicts(result, blocked, provenance)
            additions, decisions = resolve_conflicts(
                conflicts,
                self.policy,
                original,
                run_program,
                interpretation,
                blocked,
                restarts=stats.restarts,
                mode=self.blocking_mode,
            )
            if tracer is not None:
                tracer.end(policy_span)
            if metrics is not None:
                metrics.observe("phase.policy", perf_counter() - policy_start)
                metrics.inc("engine.conflicts_resolved", len(decisions))
            new_instances = additions - blocked
            if not new_instances:
                raise NonTerminationError(
                    "conflict resolution added no new blocked instances "
                    "(policy %s cannot make progress)" % self.policy.name
                )
            if have_listeners:
                self._emit(
                    "on_conflicts",
                    stats.rounds,
                    epoch,
                    tuple(conflicts),
                    tuple(decisions),
                    frozenset(new_instances),
                )
            blocked |= new_instances
            stats.restarts += 1
            stats.conflicts_resolved += len(decisions)
            if trail is not None:
                # Archive the dying epoch's provenance *before* the restart
                # clears it — the decision trail keeps what Θ discards.
                trail.blocked(new_instances)
                trail.archive_epoch(provenance)
                trail.restart(len(blocked))
            if (
                self.max_restarts is not None
                and stats.restarts > self.max_restarts
            ):
                raise NonTerminationError(
                    "PARK exceeded max_restarts=%d" % self.max_restarts
                )
            epoch += 1
            interpretation = interpretation.restarted()
            provenance.clear()
            evaluator = make_evaluation(evaluation_name, matcher_program, blocked)
            last_new_updates = None
            if metrics is not None:
                metrics.inc("engine.restarts")
            if tracer is not None:
                tracer.end(round_span)
            if have_listeners:
                self._emit("on_restart", epoch, frozenset(blocked))

        stats.blocked_instances = len(blocked)
        if trail is not None:
            trail.archive_epoch(provenance)
            trail.finish(stats)
        if metrics is not None:
            metrics.inc("engine.epochs", epoch)
            metrics.inc("engine.blocked_instances", len(blocked))
        if have_listeners:
            self._emit(
                "on_fixpoint", stats.rounds, epoch, interpretation, frozenset(blocked)
            )

        if metrics is not None:
            incorp_start = perf_counter()
        if tracer is not None:
            incorp_span = tracer.begin("engine.incorp")
        final_database = incorp(interpretation)
        if tracer is not None:
            tracer.end(incorp_span)
        if metrics is not None:
            metrics.observe("phase.incorp", perf_counter() - incorp_start)
            metrics.gauge("engine.result_atoms", len(final_database))
            # Re-stamped post-run: the run itself may have interned new
            # constants (transaction updates, derived heads).
            metrics.gauge("storage.intern_table_size", len(INTERNER))
        run_result = ParkResult(
            database=final_database,
            delta=Delta.diff(original, final_database),
            interpretation=interpretation,
            blocked=frozenset(blocked),
            stats=stats,
            policy_name=self.policy.name,
            provenance=provenance,
            metrics=metrics,
            trail=trail,
        )
        self._emit("on_finish", run_result)
        return run_result


def park(program, database, updates=None, policy=None, **engine_options):
    """One-shot convenience: ``park(P, D, U) -> ParkResult``.

    Equivalent to ``ParkEngine(policy=..., **engine_options).run(...)``.
    The default policy is the principle of inertia, matching the paper's
    running examples.

    >>> from repro.core.engine import park
    >>> park("p -> +q.", "p.").database == {"..."}  # doctest: +SKIP
    """
    engine = ParkEngine(policy=policy, **engine_options)
    return engine.run(program, database, updates=updates)
