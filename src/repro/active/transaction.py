"""Transactions: staged update sets with savepoints.

A transaction collects the user's updates ``U`` without touching the
database; :meth:`commit` hands ``U`` to the PARK engine (building ``P_U``,
Section 4.3) and atomically applies the resulting delta.  Nothing is
visible to other readers until commit — the paper's semantics is defined
on the pre-transaction instance ``D``, and this facade keeps that contract
literal.

Savepoints are cursor marks into the staged update list: rolling back to a
savepoint discards the updates staged after it (cheap, since nothing has
been applied yet).
"""

from __future__ import annotations

import enum

from ..errors import TransactionError
from ..lang.atoms import Atom
from ..lang.terms import Constant
from ..lang.updates import Update, UpdateOp


class TxState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """A staged set of updates against an :class:`ActiveDatabase`."""

    def __init__(self, activedb, transaction_id):
        self._db = activedb
        self.transaction_id = transaction_id
        self._updates = []
        self._savepoints = {}
        self._state = TxState.ACTIVE
        self.result = None

    # -- state ------------------------------------------------------------------

    @property
    def state(self):
        return self._state

    def _require_active(self):
        if self._state is not TxState.ACTIVE:
            raise TransactionError(
                "transaction tx%d is %s" % (self.transaction_id, self._state.value)
            )

    # -- staging -----------------------------------------------------------------

    @staticmethod
    def _atom(predicate_or_atom, values):
        if isinstance(predicate_or_atom, Atom):
            if values:
                raise TransactionError(
                    "pass either an Atom or predicate+values, not both"
                )
            atom = predicate_or_atom
        else:
            atom = Atom(
                predicate_or_atom, tuple(Constant(v) for v in values)
            )
        if not atom.is_ground():
            raise TransactionError("transaction updates must be ground: %s" % atom)
        return atom

    def insert(self, predicate_or_atom, *values):
        """Stage an insertion: ``tx.insert("emp", "joe")`` or ``tx.insert(atom)``."""
        self._require_active()
        self._updates.append(
            Update(UpdateOp.INSERT, self._atom(predicate_or_atom, values))
        )
        return self

    def delete(self, predicate_or_atom, *values):
        """Stage a deletion."""
        self._require_active()
        self._updates.append(
            Update(UpdateOp.DELETE, self._atom(predicate_or_atom, values))
        )
        return self

    def updates(self):
        """The staged updates, de-duplicated, in staging order."""
        seen = set()
        result = []
        for update in self._updates:
            if update not in seen:
                seen.add(update)
                result.append(update)
        return tuple(result)

    # -- savepoints --------------------------------------------------------------

    def savepoint(self, name=None):
        """Mark the current staging position; returns the savepoint name."""
        self._require_active()
        if name is None:
            name = "sp_%d" % (len(self._savepoints) + 1)
        if name in self._savepoints:
            raise TransactionError("savepoint %r already exists" % name)
        self._savepoints[name] = len(self._updates)
        return name

    def rollback_to(self, name):
        """Discard updates staged after the named savepoint."""
        self._require_active()
        position = self._savepoints.get(name)
        if position is None:
            raise TransactionError("no such savepoint: %r" % name)
        del self._updates[position:]
        # Drop savepoints created after this one.
        self._savepoints = {
            n: p for n, p in self._savepoints.items() if p <= position
        }
        return self

    # -- completion ------------------------------------------------------------------

    def commit(self):
        """Run PARK over the staged updates and apply the result atomically.

        Returns the :class:`~repro.core.result.ParkResult`.  A conflicting
        *staged set* (both ``+a`` and ``-a``) is legitimate — the rules
        ``tx_i`` conflict and the policy resolves them, exactly as Section
        4.3 prescribes.
        """
        self._require_active()
        self.result = self._db._commit(self)
        self._state = TxState.COMMITTED
        return self.result

    def rollback(self):
        """Abandon the transaction; the database is untouched."""
        self._require_active()
        self._updates.clear()
        self._state = TxState.ABORTED

    # -- context manager ----------------------------------------------------------------

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._state is TxState.ACTIVE:
            if exc_type is None:
                # The block's owner may never see this tx (the auto-commit
                # helpers don't expose it), so a failed commit must not
                # leave it ACTIVE and wedge the database.
                try:
                    self.commit()
                except BaseException:
                    self.rollback()
                    raise
            else:
                self.rollback()
        return False

    def __repr__(self):
        return "Transaction(tx%d, %s, %d staged)" % (
            self.transaction_id,
            self._state.value,
            len(self._updates),
        )
