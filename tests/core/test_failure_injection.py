"""Failure injection: the engine must fail cleanly, never corrupt inputs.

A policy or listener that raises mid-run aborts the computation with the
original exception; the input database, the program, and the engine
object must remain intact and reusable.  The active-database facade must
leave its state untouched when a commit fails.
"""

import pytest

from repro.active import ActiveDatabase
from repro.core.engine import EngineListener, ParkEngine, park
from repro.errors import PolicyError
from repro.lang import parse_program
from repro.lang.atoms import atom
from repro.policies.base import Decision
from repro.policies.inertia import InertiaPolicy
from repro.storage.database import Database

CONFLICT = """
@name(r1) p -> +a.
@name(r2) p -> -a.
"""


class ExplodingPolicy(InertiaPolicy):
    name = "exploding"

    def select(self, context):
        raise RuntimeError("policy blew up")


class FlakyPolicy(InertiaPolicy):
    """Raises on the first call, then behaves."""

    name = "flaky"

    def __init__(self):
        self.calls = 0

    def select(self, context):
        self.calls += 1
        if self.calls == 1:
            raise RuntimeError("transient failure")
        return super().select(context)


class TestPolicyFailures:
    def test_exception_propagates(self):
        with pytest.raises(RuntimeError, match="policy blew up"):
            park(CONFLICT, "p.", policy=ExplodingPolicy())

    def test_input_database_untouched_after_failure(self):
        database = Database.from_text("p.")
        with pytest.raises(RuntimeError):
            park(CONFLICT, database, policy=ExplodingPolicy())
        assert database == Database.from_text("p.")

    def test_engine_reusable_after_failure(self):
        engine = ParkEngine(policy=FlakyPolicy())
        with pytest.raises(RuntimeError):
            engine.run(CONFLICT, "p.")
        # same engine, second run: the flaky policy now answers
        result = engine.run(CONFLICT, "p.")
        assert result.atoms == frozenset({atom("p")})

    def test_policy_returning_none_rejected(self):
        class Indecisive(InertiaPolicy):
            def select(self, context):
                return None

        with pytest.raises(PolicyError):
            park(CONFLICT, "p.", policy=Indecisive())

    def test_policy_flipping_decisions_still_terminates(self):
        """An adversarial policy that alternates answers cannot loop the
        engine: every resolution still strictly grows the blocked set."""

        class Flipper(InertiaPolicy):
            def __init__(self):
                self.turn = 0

            def select(self, context):
                self.turn += 1
                return Decision.INSERT if self.turn % 2 else Decision.DELETE

        program = """
        @name(i1) p -> +a. @name(d1) p -> -a.
        @name(i2) a2 -> +b. @name(d2) a2 -> -b.
        """
        result = park(program, "p. a2.", policy=Flipper())
        assert result.interpretation.is_consistent()


class TestListenerFailures:
    def test_listener_exception_aborts_run(self):
        class BadListener(EngineListener):
            def on_round(self, *args):
                raise ValueError("listener broke")

        database = Database.from_text("p.")
        engine = ParkEngine(listeners=[BadListener()])
        with pytest.raises(ValueError, match="listener broke"):
            engine.run("p -> +q.", database)
        assert database == Database.from_text("p.")


class TestFacadeFailures:
    def test_failed_commit_leaves_database_intact(self):
        db = ActiveDatabase.from_text("p.")
        db.add_rules(CONFLICT)
        tx = db.transaction()
        tx.insert("seed")
        db.policy = ExplodingPolicy()
        with pytest.raises(RuntimeError):
            tx.commit()
        # data unchanged, nothing logged
        assert db.database == Database.from_text("p.")
        assert len(db.log) == 0

    def test_new_transaction_possible_after_failed_commit(self):
        db = ActiveDatabase.from_text("p.")
        db.add_rules(CONFLICT)
        tx = db.transaction()
        db.policy = ExplodingPolicy()
        with pytest.raises(RuntimeError):
            tx.commit()
        db.policy = InertiaPolicy()
        # the failed transaction is still ACTIVE (commit did not complete);
        # roll it back explicitly and move on.
        tx.rollback()
        with db.transaction() as tx2:
            tx2.insert("q")
        assert db.contains("q")

    def test_failed_auto_commit_rolls_back_and_unwedges(self):
        # The auto-commit helpers never expose their tx, so a commit that
        # raises inside ``with db.transaction()`` must roll it back.
        db = ActiveDatabase.from_text("p.")
        db.add_rules(CONFLICT)
        db.policy = ExplodingPolicy()
        with pytest.raises(RuntimeError, match="policy blew up"):
            db.insert("seed")
        assert db.database == Database.from_text("p.")
        assert len(db.log) == 0
        db.policy = InertiaPolicy()
        db.insert("r")
        assert db.contains("r")
        assert len(db.log) == 1
