"""Reachability pass: PARK030 (dead rule) and PARK031 (unmatched event)."""

from repro.lang import parse_database
from repro.lint import analyze_text
from repro.storage.database import Database


def codes(report):
    return [d.code for d in report.diagnostics]


class TestUnmatchedEvents:
    def test_park031_points_at_the_event_literal(self):
        report = analyze_text("@name(ghost) p(X), +never(X) -> +q(X).")
        (diag,) = report.diagnostics
        assert diag.code == "PARK031"
        assert diag.severity == "warning"
        assert "+never" in diag.message
        assert "transaction" in diag.message
        assert diag.span.column == len("@name(ghost) p(X), ") + 1

    def test_polarity_matters(self):
        # +p is emitted, but the rule listens for -p.
        report = analyze_text("q(X) -> +p(X). -p(X) -> +r(X).")
        (diag,) = [d for d in report.diagnostics if d.code == "PARK031"]
        assert "-p" in diag.message

    def test_matched_event_is_clean(self):
        report = analyze_text("q(X) -> +p(X). +p(X) -> +r(X).")
        assert codes(report) == []

    def test_no_duplicate_park030_for_event_dead_rules(self):
        # The unmatched event already explains why the rule is dead.
        report = analyze_text("+never(X) -> +q(X).")
        assert codes(report) == ["PARK031"]


class TestDeadRules:
    def test_no_park030_without_a_database(self):
        # Without EDB knowledge any positive condition may be satisfiable.
        report = analyze_text("mystery(X) -> +q(X).")
        assert codes(report) == []

    def test_park030_with_database_knowledge(self):
        db = Database(parse_database("p(a)."))
        report = analyze_text("p(X) -> +q(X). empty(X) -> +r(X).", database=db)
        (diag,) = [d for d in report.diagnostics if d.code == "PARK030"]
        assert diag.severity == "warning"
        assert diag.rule_index == 1
        assert report.facts.dead == (1,)
        assert report.facts.database_aware

    def test_dead_rules_propagate_through_derivations(self):
        # idb is only derivable via a rule that is itself dead.
        db = Database(parse_database("p(a)."))
        text = "+never(X) -> +idb(X). idb(X) -> +out(X). p(X) -> +ok(X)."
        report = analyze_text(text, database=db)
        assert codes(report) == ["PARK031", "PARK030"]
        assert set(report.facts.dead) == {0, 1}

    def test_live_derivation_keeps_dependents_alive(self):
        db = Database(parse_database("p(a)."))
        text = "p(X) -> +idb(X). idb(X) -> +out(X)."
        report = analyze_text(text, database=db)
        assert codes(report) == []
        assert report.facts.dead == ()
