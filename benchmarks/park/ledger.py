"""The per-layer ledger: spans around each layer's public callables.

The program is not instrumented for this; :class:`Ledger` replaces the
callables listed in :data:`LAYERS` with timing wrappers for the duration
of one traced operation and puts the originals back afterwards.  A
module-level function is replaced in the namespace of the module that
calls it; a method is replaced on its class.

Each wrapper records a span (name, start, end, parent, op id) and adds
the span's *self* time — its duration minus the time covered by spans
nested in it — to its layer, so the layers' self times never overlap and
op wall time minus their sum is the time no layer accounts for
(``other``).  The counts behind the ratio metrics are taken in the same
wrappers, where the work happens.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

#: layer -> the (module, attribute path) callables whose self time it owns.
LAYERS = {
    "lang.parse": (
        ("repro.lang.parser", "parse_program"),
        ("repro.lang.parser", "parse_database"),
    ),
    "lint.analyze": (("repro.lint.facts", "ProgramFacts.analyze"),),
    "engine.plancache": (("repro.engine.plancache", "PlanCache.facts_for"),),
    "engine.compile": (("repro.engine.match", "compile_program"),),
    "core.eca": (("repro.core.engine", "extend_with_updates"),),
    "core.interpretation": (
        ("repro.core.interpretation", "IInterpretation.from_database"),
    ),
    "core.gamma": (
        ("repro.core.evaluation", "NaiveEvaluation.compute"),
        ("repro.core.evaluation", "SemiNaiveEvaluation.compute"),
        ("repro.core.evaluation", "IncrementalEvaluation.compute"),
    ),
    "core.consequence": (("repro.core.consequence", "GammaResult.__init__"),),
    "core.apply": (
        ("repro.core.interpretation", "IInterpretation.add_updates"),
        ("repro.core.consequence", "GammaResult.apply"),
    ),
    "core.provenance": (("repro.core.provenance", "Provenance.record"),),
    "core.conflicts": (("repro.core.engine", "build_conflicts"),),
    "core.blocking": (("repro.core.engine", "resolve_conflicts"),),
    "core.restart": (
        ("repro.core.interpretation", "IInterpretation.restarted"),
        ("repro.core.engine", "make_evaluation"),
    ),
    "core.incorp": (("repro.core.engine", "incorp"),),
    "storage.delta_diff": (("repro.storage.delta", "Delta.diff"),),
    "storage.delta_apply": (("repro.storage.delta", "Delta.apply"),),
    "active.journal": (("repro.active.journal", "Journal.append"),),
    "storage.fsio": (
        ("repro.storage.fsio", "RealFS.append"),
        ("repro.storage.fsio", "RealFS.sync"),
        ("repro.storage.fsio", "RealFS.sync_dir"),
    ),
    # The sidecar append, plus the decision-trail recording the engine
    # does for it during the run.
    "obs.audit": (
        ("repro.obs.audit", "AuditLog.append"),
        ("repro.obs.audit", "DecisionTrail.start"),
        ("repro.obs.audit", "DecisionTrail.archive_epoch"),
        ("repro.obs.audit", "DecisionTrail.finish"),
    ),
    "active.eventlog": (("repro.active.events", "EventLog.append"),),
}

#: Span name of the root span of each traced operation.
OP = "op"


def _after_compute(ledger, parent, args, kwargs, result):
    fired = args[0].last_firing_count
    ledger.counts["firings"] += fired
    ledger.epoch_firings += fired


def _after_restarted(ledger, parent, args, kwargs, result):
    ledger.counts["restarts"] += 1
    ledger.counts["wasted_firings"] += ledger.epoch_firings
    ledger.epoch_firings = 0


def _after_analyze(ledger, parent, args, kwargs, result):
    if parent == "engine.plancache":
        ledger.counts["analyze_in_cache"] += 1


def _after_journal_append(ledger, parent, args, kwargs, result):
    ledger.counts["journal_updates"] += len(result.delta)


def _after_fs_append(ledger, parent, args, kwargs, result):
    if kwargs.get("sync", args[3] if len(args) > 3 else True):
        ledger.counts["fsyncs"] += 1
    if parent == "active.journal":
        ledger.counts["journal_bytes"] += len(args[2])


def _after_fs_sync(ledger, parent, args, kwargs, result):
    ledger.counts["fsyncs"] += 1


_HOOKS = {
    "NaiveEvaluation.compute": _after_compute,
    "SemiNaiveEvaluation.compute": _after_compute,
    "IncrementalEvaluation.compute": _after_compute,
    "IInterpretation.restarted": _after_restarted,
    "ProgramFacts.analyze": _after_analyze,
    "Journal.append": _after_journal_append,
    "RealFS.append": _after_fs_append,
    "RealFS.sync": _after_fs_sync,
    "RealFS.sync_dir": _after_fs_sync,
}


class Ledger:
    """Spans and counts of traced operations, kept in memory.

    :meth:`run_op` runs one operation traced; the layer wrappers are
    installed only while it runs, so untraced operations run the
    unmodified program.
    """

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, op id)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.ops = 0
        self.op_wall_s = 0.0
        self.epoch_firings = 0
        self._stack = []  # open spans: [span id, layer, child seconds]
        self._next_id = 0
        self._op_id = None
        self._originals = []
        self._targets = [
            (layer, module, path)
            for layer, callables in LAYERS.items()
            for module, path in callables
        ]

    # -- patching ---------------------------------------------------------------

    def _install(self):
        for layer, module_name, path in self._targets:
            owner = importlib.import_module(module_name)
            *owners, attribute = path.split(".")
            for name in owners:
                owner = getattr(owner, name)
            # Read the raw attribute so classmethods keep their descriptor.
            original = vars(owner)[attribute]
            self._originals.append((owner, attribute, original))
            hook = _HOOKS.get(path)
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(layer, original.__func__, hook))
            else:
                wrapped = self._wrap(layer, original, hook)
            setattr(owner, attribute, wrapped)

    def _uninstall(self):
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def _wrap(self, layer, function, hook):
        ledger = self

        def traced(*args, **kwargs):
            stack = ledger._stack
            parent = stack[-1]
            frame = [ledger._next_id, layer, 0.0]
            ledger._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent[2] += duration
                ledger.self_s[layer] += duration - frame[2]
                ledger.calls[layer] += 1
                ledger.spans.append(
                    (frame[0], layer, start, end, parent[0], ledger._op_id)
                )
            if hook is not None:
                hook(ledger, parent[1], args, kwargs, result)
            return result

        return traced

    # -- operations -------------------------------------------------------------

    def run_op(self, op_id, operation):
        """Run ``operation()`` traced; returns ``(result, wall seconds)``.

        The wall time is measured exactly as for an untraced op, so the
        ratio of the two medians is the tracing overhead.
        """
        self._install()
        self._op_id = op_id
        root = [self._next_id, OP, 0.0]
        self._next_id += 1
        self._stack.append(root)
        self.epoch_firings = 0
        try:
            start = perf_counter()
            result = operation()
            end = perf_counter()
        finally:
            self._stack.pop()
            self._uninstall()
        wall = end - start
        self.spans.append((root[0], OP, start, end, None, op_id))
        self.ops += 1
        self.op_wall_s += wall
        return result, wall

    def totals(self):
        """The raw sums the per-layer metrics are computed from."""
        return {
            "ops": self.ops,
            "op_wall_s": self.op_wall_s,
            "calls": {layer: self.calls[layer] for layer in LAYERS},
            "self_s": {layer: self.self_s[layer] for layer in LAYERS},
            "counts": dict(self.counts),
        }

    def span_table(self):
        """All spans as a JSON-ready table."""
        return {
            "fields": ["id", "name", "start", "end", "parent", "op"],
            "spans": [list(span) for span in self.spans],
        }


def layer_metrics(totals, traced_p50_ms, untraced_p50_ms):
    """Per-layer metrics from :meth:`Ledger.totals` (summed over segments).

    Returns ``{name: value}``.  Ratios with an empty base read 0.
    """
    ops = max(totals["ops"], 1)
    wall = totals["op_wall_s"]
    counts = totals["counts"]
    metrics = {}
    covered = 0.0
    for layer in LAYERS:
        self_s = totals["self_s"][layer]
        covered += self_s
        metrics[layer + ".calls_per_op"] = totals["calls"][layer] / ops
        metrics[layer + ".self_ms_per_op"] = self_s * 1e3 / ops
        metrics[layer + ".share"] = self_s / wall if wall else 0.0
    other = wall - covered
    metrics["other.self_ms_per_op"] = other * 1e3 / ops
    metrics["other.share"] = other / wall if wall else 0.0

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    lookups = totals["calls"]["engine.plancache"]
    metrics["engine.plancache.hit_rate"] = (
        1.0 - ratio(counts.get("analyze_in_cache", 0), lookups) if lookups else 0.0
    )
    metrics["core.gamma.firings_per_op"] = counts.get("firings", 0) / ops
    metrics["core.gamma.restart_waste_ratio"] = ratio(
        counts.get("wasted_firings", 0), counts.get("firings", 0)
    )
    metrics["core.restart.restarts_per_op"] = counts.get("restarts", 0) / ops
    metrics["active.journal.bytes_per_update"] = ratio(
        counts.get("journal_bytes", 0), counts.get("journal_updates", 0)
    )
    metrics["storage.fsio.fsyncs_per_op"] = counts.get("fsyncs", 0) / ops
    metrics["trace.coverage"] = 1.0 - metrics["other.share"]
    metrics["trace.overhead"] = ratio(traced_p50_ms, untraced_p50_ms)
    return metrics
