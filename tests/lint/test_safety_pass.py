"""Safety pass: PARK002 (unsafe head) and PARK003 (unsafe negation)."""

from repro.lint import analyze_text


def codes(report):
    return [d.code for d in report.diagnostics]


class TestUnsafeHead:
    def test_park002_reported_with_span(self):
        report = analyze_text("@name(bad) p(X) -> +q(X, Y).")
        (diag,) = report.diagnostics
        assert diag.code == "PARK002"
        assert diag.severity == "error"
        assert "Y" in diag.message
        assert diag.rule == "bad"
        assert diag.rule_index == 0
        # span points at the head, after the arrow
        assert diag.span.line == 1
        assert diag.span.column > len("@name(bad) p(X) ")

    def test_every_unbound_variable_listed(self):
        report = analyze_text("p(X) -> +q(Y, Z).")
        (diag,) = report.diagnostics
        assert diag.code == "PARK002"
        assert "Y" in diag.message and "Z" in diag.message

    def test_event_literals_bind(self):
        # Events are matched against the marked sets, so they bind.
        report = analyze_text("q(Y) -> +p(Y). +p(X) -> +q(X).")
        assert codes(report) == []


class TestUnsafeNegation:
    def test_park003_reported_per_literal(self):
        report = analyze_text("@name(neg) p(X), not r(X, Z) -> +s(X).")
        (diag,) = report.diagnostics
        assert diag.code == "PARK003"
        assert diag.severity == "error"
        assert "Z" in diag.message
        assert diag.rule_index == 0
        # span points at the negated literal, not the rule start
        assert diag.span.column == len("@name(neg) p(X), ") + 1

    def test_multiple_unsafe_rules_all_reported(self):
        text = "p(X) -> +q(X, Y).\np(X), not r(Z) -> +s(X).\n"
        report = analyze_text(text)
        assert codes(report) == ["PARK002", "PARK003"]
        assert [d.span.line for d in report.diagnostics] == [1, 2]

    def test_safe_program_is_clean(self):
        report = analyze_text("p(X), not r(X) -> +q(X).")
        assert codes(report) == []
