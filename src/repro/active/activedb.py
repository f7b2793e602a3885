"""The active database facade: tables + triggers + transactional PARK commits.

This is the paper's "implementability on top of a commercial DBMS"
requirement made concrete: a small DBMS-shaped API where every commit runs
the PARK semantics over the registered rules and the transaction's update
set, then atomically applies the resulting delta.

    >>> from repro.active import ActiveDatabase
    >>> db = ActiveDatabase.from_text("emp(joe). active(joe). payroll(joe, 10).")
    >>> _ = db.add_rule("emp(X), not active(X), payroll(X, S) -> -payroll(X, S).")
    >>> with db.transaction() as tx:
    ...     _ = tx.delete("active", "joe")
    >>> db.rows("payroll")
    []
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

from ..core.blocking import BlockingMode
from ..core.engine import ParkEngine
from ..engine.plancache import PlanCache
from ..errors import LanguageError, TransactionError
from ..lang.atoms import Atom
from ..lang.program import Program
from ..lang.rules import Rule
from ..lang.terms import Constant
from ..obs import metrics as _obs
from ..policies.base import as_policy
from ..storage.database import Database
from .events import CommitRecord, EventLog
from .transaction import Transaction, TxState


class ActiveDatabase:
    """A database instance with registered active rules and a conflict policy."""

    def __init__(
        self,
        database=None,
        rules=(),
        policy=None,
        blocking_mode=BlockingMode.ALL,
        listeners=(),
        journal=None,
        audit=None,
    ):
        if database is None:
            database = Database()
        elif not isinstance(database, Database):
            database = Database(database)
        self._database = database
        if journal is not None and not hasattr(journal, "append"):
            from .journal import Journal

            journal = Journal(journal)
        self.journal = journal
        # ``audit``: None/False (off), True (record a decision trail per
        # commit; persisted to a ``<journal>.audit`` sidecar when a journal
        # is configured), a path, or an AuditLog instance.  The trail of
        # the latest commit always rides on the commit's ParkResult.
        self.audit_log = None
        # Not ``bool(audit)``: an AuditLog over an empty file has len 0.
        self._audit_enabled = audit is not None and audit is not False
        if self._audit_enabled:
            from ..obs.audit import SIDECAR_SUFFIX, AuditLog

            if isinstance(audit, AuditLog):
                self.audit_log = audit
            elif audit is not True:
                self.audit_log = AuditLog(audit)
            elif journal is not None:
                self.audit_log = AuditLog(journal.path + SIDECAR_SUFFIX)
        self._trail = None
        self._rules = []
        for rule in rules:
            self.add_rule(rule)
        if policy is None:
            from ..policies.inertia import InertiaPolicy

            policy = InertiaPolicy()
        self.policy = as_policy(policy)
        self.blocking_mode = blocking_mode
        self.listeners = tuple(listeners)
        self.log = EventLog()
        self._next_tx = 1
        self._open_tx = None
        # Cross-transaction plan cache: commits re-run the same rule set,
        # so program analysis is derived once and validated thereafter.
        self.plan_cache = PlanCache()

    # -- constructors ---------------------------------------------------------------

    @classmethod
    def from_text(cls, facts_text, rules_text="", **options):
        """Build from fact syntax and (optionally) rule syntax."""
        db = cls(Database.from_text(facts_text), **options)
        if rules_text:
            db.add_rules(rules_text)
        return db

    # -- schema & data access ----------------------------------------------------------

    @property
    def database(self):
        """The live underlying :class:`Database` (mutate at your own risk)."""
        return self._database

    def define_table(self, predicate, columns):
        """Declare a table's schema up front (otherwise inferred on first use)."""
        from ..storage.catalog import Schema

        self._database.catalog.declare(
            Schema(predicate, len(tuple(columns)), tuple(columns))
        )

    def rows(self, predicate):
        """All rows of *predicate* as sorted value tuples."""
        relation = self._database.relation(predicate)
        if relation is None:
            return []
        return sorted(relation.rows(), key=str)

    def contains(self, predicate_or_atom, *values):
        """Membership test: ``db.contains("emp", "joe")`` or ``db.contains(atom)``."""
        if isinstance(predicate_or_atom, Atom):
            return predicate_or_atom in self._database
        atom = Atom(predicate_or_atom, tuple(Constant(v) for v in values))
        return atom in self._database

    def select(self, predicate, *pattern):
        """Rows matching a pattern; ``None`` is a wildcard.

        ``db.select("payroll", "joe", None)`` returns the rows whose first
        column is ``"joe"``.
        """
        relation = self._database.relation(predicate)
        if relation is None:
            return []
        bound = {
            position: value
            for position, value in enumerate(pattern)
            if value is not None
        }
        return sorted(relation.candidates(bound), key=str)

    def __len__(self):
        return len(self._database)

    def query(self, body_text):
        """Ad-hoc conjunctive query with negation, e.g.
        ``db.query("payroll(X, S), not active(X)")``.

        Returns a list of ``{variable name: value}`` dicts, sorted.
        Event literals never hold against committed data (there are no
        pending updates outside a running PARK computation).
        """
        from ..engine.query import query_rows

        return query_rows(body_text, self._database)

    def ask(self, body_text):
        """Boolean query: ``db.ask("emp(joe), not active(joe)")``."""
        from ..engine.query import holds

        return holds(body_text, self._database)

    # -- rules ---------------------------------------------------------------------------

    def add_rule(self, rule):
        """Register one active rule (a Rule, trigger-built Rule, or rule text)."""
        if isinstance(rule, str):
            from ..lang.parser import parse_program

            parsed = parse_program(rule)
            if len(parsed) != 1:
                raise LanguageError(
                    "add_rule expects exactly one rule; got %d (use add_rules)"
                    % len(parsed)
                )
            rule = parsed[0]
        if not isinstance(rule, Rule):
            raise TypeError("not a rule: %r" % (rule,))
        # Re-validate the whole set so duplicate names and arity clashes
        # surface at registration, not at commit.
        Program(tuple(self._rules) + (rule,))
        self._rules.append(rule)
        return rule

    def add_rules(self, rules):
        """Register many rules (iterable of rules, or rule source text)."""
        if isinstance(rules, str):
            from ..lang.parser import parse_program

            rules = tuple(parse_program(rules))
        return [self.add_rule(r) for r in rules]

    def drop_rule(self, name):
        """Unregister the rule with the given name."""
        for index, rule in enumerate(self._rules):
            if rule.name == name:
                del self._rules[index]
                return rule
        raise KeyError(name)

    @property
    def program(self):
        """The registered rules as an immutable :class:`Program`."""
        return Program(tuple(self._rules))

    # -- transactions --------------------------------------------------------------------

    def transaction(self):
        """Open a transaction (usable as a context manager).

        One open transaction at a time: the PARK semantics is defined for a
        single update set ``U`` against a single instance ``D``.
        """
        if self._open_tx is not None and self._open_tx.state is TxState.ACTIVE:
            raise TransactionError(
                "transaction tx%d is still active" % self._open_tx.transaction_id
            )
        tx = Transaction(self, self._next_tx)
        self._next_tx += 1
        self._open_tx = tx
        return tx

    def insert(self, predicate_or_atom, *values):
        """Auto-commit convenience: one-update transaction, committed now."""
        with self.transaction() as tx:
            tx.insert(predicate_or_atom, *values)
        return tx.result

    def delete(self, predicate_or_atom, *values):
        """Auto-commit convenience: one-update transaction, committed now."""
        with self.transaction() as tx:
            tx.delete(predicate_or_atom, *values)
        return tx.result

    def refresh(self):
        """Run the rules with an empty update set (condition-action sweep).

        Useful after bulk-loading data directly into :attr:`database`.
        """
        with self.transaction() as tx:
            pass
        return tx.result

    # -- durability -----------------------------------------------------------------------

    def checkpoint(self, snapshot_path):
        """Persist the current contents and truncate the journal.

        After a checkpoint, :meth:`recover` needs only the snapshot plus
        commits journaled *since* — the classical WAL checkpoint.  The
        snapshot is written (and fsynced, file and directory) before the
        journal is discarded, so a crash between the two leaves a valid
        snapshot plus a redundant-but-replayable journal, never neither.

        The audit sidecar is deliberately *not* truncated: it is history,
        not redo state, and ``repro audit`` keeps answering questions
        about pre-checkpoint transactions.
        """
        from ..storage.textio import dump_database

        dump_database(self._database, snapshot_path)
        if self.journal is not None:
            self.journal.truncate()
        m = _obs.ACTIVE
        if m is not None:
            m.inc("journal.checkpoints")

    @contextmanager
    def group_commit(self, size=8):
        """Coalesce the journal fsyncs of the block's commits, *size* per barrier.

        Throughput mode for bursts of small auto-commit transactions: each
        commit is still journaled before it is applied, but the fsync
        happens once per *size* records (and once on exit) instead of per
        commit.  A crash inside the block can lose at most the un-fsynced
        suffix of the burst; recovery still yields a clean prefix of the
        committed history.  No-op when the database has no journal.
        """
        if self.journal is None:
            yield self
            return
        with self.journal.group_commit(size):
            yield self

    @classmethod
    def recover(cls, snapshot_path, journal_path, rules=(), **options):
        """Rebuild a database from a checkpoint snapshot plus a journal.

        Replays the journaled *deltas* (not the rules), so the recovered
        state is exactly what was committed even if the rule set changed.
        A torn final record (crash mid-append) is truncated off the file,
        and the recovered instance keeps journaling to the same file.

        Pass ``audit=True`` to keep appending decision trails to the
        journal's ``.audit`` sidecar; a torn final audit record (the
        sidecar is not fsynced per commit) is repaired the same way.
        """
        from ..storage.textio import load_database
        from .journal import Journal

        start = perf_counter()
        database = load_database(snapshot_path)
        journal = Journal(journal_path)
        records = journal.records()
        for record in records:
            record.delta.apply(database, in_place=True)
        journal.repair_tail()
        db = cls(database, rules=rules, journal=journal, **options)
        if records:
            db._next_tx = max(r.transaction_id for r in records) + 1
        if db.audit_log is not None:
            db.audit_log.repair_tail()
        m = _obs.ACTIVE
        if m is not None:
            m.inc("journal.recoveries")
            m.inc("journal.records_replayed", len(records))
            m.observe("journal.recovery", perf_counter() - start)
        return db

    # -- the commit path --------------------------------------------------------------------

    def _commit(self, tx):
        start = perf_counter()
        trail = None
        if self._audit_enabled:
            from ..obs.audit import DecisionTrail

            # One reusable trail per database: commits are serial and
            # ``trail.start`` resets it, so each commit records cleanly.
            if self._trail is None:
                self._trail = DecisionTrail()
            trail = self._trail
        engine = ParkEngine(
            policy=self.policy,
            blocking_mode=self.blocking_mode,
            listeners=self.listeners,
            facts=True,
            plan_cache=self.plan_cache,
            audit=trail,
        )
        result = engine.run(self.program, self._database, updates=tx.updates())
        # Write-ahead ordering: the journal record must be durable before
        # the delta touches the live database.  If the append fails (crash,
        # full disk), the database is unchanged and the transaction simply
        # never happened; the reverse order would acknowledge a commit the
        # journal knows nothing about.
        if self.journal is not None:
            self.journal.append(tx.transaction_id, tx.updates(), result.delta)
        result.delta.apply(self._database, in_place=True)
        # The decision trail is appended *after* the commit point: it is
        # observability, not part of the durability contract, so a failed
        # trail write is counted and must never un-commit an already-
        # journaled delta (the torn tail is repaired on the next append).
        m = _obs.ACTIVE
        if self.audit_log is not None and trail is not None:
            try:
                self.audit_log.append(tx.transaction_id, trail)
            except OSError:
                if m is not None:
                    m.inc("audit.append_failures")
        self.log.append(
            CommitRecord(
                transaction_id=tx.transaction_id,
                requested=tx.updates(),
                delta=result.delta,
                stats=result.stats,
                policy_name=result.policy_name,
                blocked_rules=tuple(result.blocked_rules()),
            )
        )
        if m is not None:
            m.inc("active.commits")
            m.inc("active.commit_updates", len(result.delta))
            m.observe("active.commit", perf_counter() - start)
        return result

    def __repr__(self):
        return "ActiveDatabase(%d atoms, %d rules, policy=%s)" % (
            len(self._database),
            len(self._rules),
            self.policy.name,
        )
