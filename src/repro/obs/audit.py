"""The decision trail: a structured record of *why the run did what it did*.

The heart of the PARK semantics is its decision machinery —
``conflicts(P, I)``, ``SELECT``, ``blocked``, and ``Θ``'s restart from
``I∅`` — yet the plain engine discards exactly that story: provenance is
cleared on every restart and SELECT verdicts are never recorded.  A
:class:`DecisionTrail` captures it instead:

* every **conflict** triple ``(a, ins, del)`` with both deriver sets
  (and whether a side was completed from provenance — the stale case);
* every **SELECT verdict**: policy, decision, the winning side, and the
  losing instances that entered ``B``;
* every **grounding added to** ``B``;
* every **Θ restart** from ``I∅``;
* the per-epoch **provenance archive** — each epoch's derivation record
  is snapshotted *before* the restart clears it, so "lost in a restart"
  is answerable after the fact.

Recording follows the same null-telemetry fast path as
:mod:`repro.obs.metrics`: instrumented sites read the module-global
:data:`ACTIVE` and do nothing when it is ``None``::

    from ..obs import audit as _audit
    ...
    a = _audit.ACTIVE
    if a is not None:
        a.conflict(...)

The hooks live on the *cold* paths (conflict building, resolution,
restarts) plus one per-round call in each Γ strategy, so the disabled
overhead is one module-attribute load and a ``None`` test per round —
gated by the same interleaved benchmark as the metrics registry
(``benchmarks/run_benchmarks.py --metrics``).

Two layers:

* :class:`DecisionTrail` — the in-run recorder.  It keeps *live* objects
  (:class:`~repro.core.conflicts.Conflict`,
  :class:`~repro.core.groundings.RuleGrounding`) in per-epoch
  :class:`EpochArchive` records for the why-not explainer, and a parallel
  list of flat JSON-serializable event dicts for persistence and export.
* :class:`AuditLog` — the durable sidecar.  One CRC-framed record per
  committed transaction (``a1|tx=N|len=..|crc=..|<json>``, the same
  framing discipline as the v2 journal), written by
  :class:`~repro.active.activedb.ActiveDatabase` next to the commit
  journal so ``repro audit`` can answer "why did tx 17 delete q(a)?"
  after a process restart.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import StorageError
from ..storage.fsio import REAL_FS
from . import metrics as _obs

#: The installed decision trail, or ``None`` (auditing disabled).  Hot
#: paths read this through the module (``_audit.ACTIVE``) so installation
#: is visible everywhere without indirection — the same pattern as
#: :data:`repro.obs.metrics.ACTIVE`.
ACTIVE = None


def get_active():
    """The currently installed :class:`DecisionTrail`, or ``None``."""
    return ACTIVE


def set_active(trail):
    """Install *trail* process-wide (``None`` disables); returns the old one."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = trail
    return previous


def _render_update(update):
    from ..lang.pretty import render_update

    return render_update(update)


@dataclass
class EpochArchive:
    """Everything one restart epoch decided, kept as live objects.

    ``derivations`` snapshots the epoch's provenance (``Update ->
    frozenset[RuleGrounding]``) as it stood when the epoch ended — at the
    restart that would otherwise discard it, or at the final fixpoint.
    ``conflicts`` / ``decisions`` / ``blocked_added`` describe the
    resolution step that *ended* the epoch (empty for the final epoch,
    which ends in the fixpoint instead).
    """

    epoch: int
    derivations: Dict = field(default_factory=dict)
    conflicts: Tuple = ()
    decisions: Tuple = ()  # (conflict, Decision, policy_name) triples
    blocked_added: frozenset = frozenset()
    rounds: Tuple[int, int] = (0, 0)  # first and last global round number

    def derivers(self, update):
        """The archived deriving instances of *update*, possibly empty."""
        return self.derivations.get(update, frozenset())


class DecisionTrail:
    """Records one PARK run's decision events; reusable via :meth:`reset`.

    Attach with ``ParkEngine(audit=...)`` / ``park(..., audit=True)`` or
    install process-wide with :func:`set_active`.  After the run the
    trail rides on :attr:`ParkResult.trail
    <repro.core.result.ParkResult.trail>`.
    """

    __slots__ = ("events", "epochs", "program", "database", "policy_name",
                 "_round", "_epoch", "_current")

    def __init__(self):
        self.events: List[dict] = []
        self.epochs: List[EpochArchive] = []
        self.program = None
        self.database = None
        self.policy_name = None
        self._round = 0
        self._epoch = 1
        self._current = EpochArchive(epoch=1)

    def reset(self):
        """Drop everything recorded so far (a trail records one run)."""
        self.__init__()

    # -- recording hooks (engine / core call these) -------------------------------

    def _event(self, kind, **attrs):
        record = {"kind": kind, "epoch": self._epoch, "round": self._round}
        record.update(attrs)
        self.events.append(record)
        m = _obs.ACTIVE
        if m is not None:
            m.inc("audit.events")
        return record

    def start(self, program, database, policy_name, evaluation):
        """A run begins; *program* already includes transaction rules."""
        self.reset()
        self.program = program
        self.database = database
        self.policy_name = policy_name
        self._event(
            "start",
            policy=policy_name,
            evaluation=evaluation,
            rules=len(program),
            atoms=len(database),
        )

    def round(self, strategy, firings):
        """One Γ application finished (called by the evaluation strategy)."""
        self._round += 1
        current = self._current
        first, _ = current.rounds
        current.rounds = (first or self._round, self._round)
        self._event("round", strategy=strategy, firings=firings)

    def conflict(self, conflict, stale_ins=False, stale_dels=False):
        """One conflict triple was built, with both deriver sets.

        ``stale_ins`` / ``stale_dels`` flag a side that was completed from
        historical provenance because the current firings were empty (the
        stale-conflict case of :mod:`repro.core.conflicts`).
        """
        from ..core.groundings import sort_groundings

        self._current.conflicts = self._current.conflicts + (conflict,)
        event = self._event(
            "conflict",
            atom=str(conflict.atom),
            ins=[str(g) for g in sort_groundings(conflict.ins)],
            dels=[str(g) for g in sort_groundings(conflict.dels)],
        )
        if stale_ins or stale_dels:
            event["stale_side"] = "ins" if stale_ins else "dels"
            if stale_ins and stale_dels:
                event["stale_side"] = "both"
        m = _obs.ACTIVE
        if m is not None:
            m.inc("audit.conflicts")

    def verdict(self, policy_name, conflict, decision, losers):
        """``SELECT`` decided one conflict: record policy, winner, losers."""
        from ..core.groundings import sort_groundings

        decision_is_insert = decision.value == "insert"
        winners = conflict.side(decision_is_insert)
        self._current.decisions = self._current.decisions + (
            (conflict, decision, policy_name),
        )
        self._event(
            "verdict",
            atom=str(conflict.atom),
            policy=policy_name,
            decision=decision.value,
            winners=[str(g) for g in sort_groundings(winners)],
            losers=[str(g) for g in sort_groundings(losers)],
        )
        m = _obs.ACTIVE
        if m is not None:
            m.inc("audit.verdicts")

    def blocked(self, groundings):
        """Groundings actually added to ``B`` by this resolution step."""
        from ..core.groundings import sort_groundings

        ordered = sort_groundings(groundings)
        self._current.blocked_added = self._current.blocked_added | frozenset(
            ordered
        )
        for grounding in ordered:
            self._event(
                "blocked",
                grounding=str(grounding),
                rule=grounding.rule.describe(),
                head=_render_update(grounding.ground_head()),
            )

    def archive_epoch(self, provenance):
        """Snapshot *provenance* into the current epoch's archive.

        Called right before the restart clears it (and once more at the
        fixpoint for the final epoch) — the "archived instead of
        discarded" half of the decision trail.
        """
        derivations = {
            update: provenance.derivers(update) for update in provenance.updates()
        }
        self._current.derivations = derivations
        self._event(
            "epoch_end",
            derivations={
                _render_update(update): sorted(str(g) for g in instances)
                for update, instances in derivations.items()
            },
        )
        m = _obs.ACTIVE
        if m is not None:
            m.inc("audit.epochs_archived")

    def restart(self, blocked_total):
        """A new epoch begins from ``I∅`` with the enlarged blocked set."""
        self.epochs.append(self._current)
        self._epoch += 1
        self._current = EpochArchive(epoch=self._epoch)
        self._event("restart", blocked_total=blocked_total)
        m = _obs.ACTIVE
        if m is not None:
            m.inc("audit.restarts")

    def finish(self, stats):
        """The run reached its fixpoint; close the final epoch."""
        self.epochs.append(self._current)
        self._event(
            "finish",
            rounds=stats.rounds,
            restarts=stats.restarts,
            conflicts_resolved=stats.conflicts_resolved,
            blocked=stats.blocked_instances,
        )

    # -- queries -------------------------------------------------------------------

    @property
    def final_epoch(self):
        """The last (fixpoint) epoch's archive, or ``None`` mid-run."""
        return self.epochs[-1] if self.epochs else None

    def verdict_for(self, atom):
        """The last ``(conflict, Decision, policy_name, epoch)`` on *atom*.

        The *last* verdict is the binding one: an atom can conflict again
        in a later epoch after provenance completion changed a side.
        """
        found = None
        for archive in self.epochs or [self._current]:
            for conflict, decision, policy_name in archive.decisions:
                if conflict.atom == atom:
                    found = (conflict, decision, policy_name, archive.epoch)
        return found

    def lost_derivers(self, update):
        """``(epoch, derivers)`` for the last non-final epoch that derived
        *update*, or ``None`` — the "lost in a restart" lookup."""
        found = None
        for archive in self.epochs[:-1]:
            derivers = archive.derivers(update)
            if derivers:
                found = (archive.epoch, derivers)
        return found

    def events_for(self, atom_text):
        """All events mentioning *atom_text* (a rendered atom like ``q(a)``)."""
        needle = atom_text.strip()
        marked = ("+" + needle, "-" + needle)
        matches = []
        for event in self.events:
            if self._mentions(event, needle, marked):
                matches.append(event)
        return matches

    @staticmethod
    def _mentions(event, needle, marked):
        if event.get("atom") == needle:
            return True
        for key in ("winners", "losers", "ins", "dels"):
            for text in event.get(key, ()):
                if needle in text:
                    return True
        if needle in event.get("grounding", "") or event.get("head") in marked:
            return True
        for update_text, instances in event.get("derivations", {}).items():
            if update_text in marked or any(needle in g for g in instances):
                return True
        return False

    def to_events(self):
        """The flat, JSON-serializable event list (a copy)."""
        return [dict(event) for event in self.events]

    def __len__(self):
        return len(self.events)

    def __repr__(self):
        return "DecisionTrail(%d events, %d epochs)" % (
            len(self.events),
            len(self.epochs),
        )


# -- persistence --------------------------------------------------------------------

#: Sidecar suffix: a journal at ``commits.journal`` audits to
#: ``commits.journal.audit``.
SIDECAR_SUFFIX = ".audit"


@dataclass(frozen=True)
class AuditRecord:
    """One committed transaction's decision trail, as stored on disk."""

    transaction_id: int
    events: Tuple[dict, ...]

    def verdicts(self):
        return [e for e in self.events if e["kind"] == "verdict"]

    def restarts(self):
        return [e for e in self.events if e["kind"] == "restart"]

    def conflicts(self):
        return [e for e in self.events if e["kind"] == "conflict"]


def _render_audit_record(transaction_id, events):
    body = json.dumps(events, sort_keys=True, separators=(",", ":"))
    body_bytes = body.encode("utf-8")
    return "a1|tx=%d|len=%d|crc=%08x|%s" % (
        transaction_id,
        len(body_bytes),
        zlib.crc32(body_bytes) & 0xFFFFFFFF,
        body,
    )


def _parse_audit_record(line):
    parts = line.split("|", 4)
    if len(parts) != 5 or parts[0] != "a1":
        raise StorageError("malformed audit record %r" % line[:80])
    try:
        transaction_id = int(parts[1].split("=", 1)[1])
        length = int(parts[2].split("=", 1)[1])
        crc = int(parts[3].split("=", 1)[1], 16)
    except (IndexError, ValueError) as error:
        raise StorageError("malformed audit frame %r (%s)" % (line[:80], error))
    body = parts[4]
    body_bytes = body.encode("utf-8")
    if len(body_bytes) != length:
        raise StorageError(
            "torn audit record: body is %d bytes, frame says %d"
            % (len(body_bytes), length)
        )
    if zlib.crc32(body_bytes) & 0xFFFFFFFF != crc:
        raise StorageError("audit record fails its CRC: tx=%d" % transaction_id)
    try:
        events = json.loads(body)
    except ValueError as error:
        raise StorageError("audit record body is not JSON (%s)" % error)
    return AuditRecord(transaction_id=transaction_id, events=tuple(events))


class AuditLog:
    """An append-only, CRC-framed decision-trail log backed by one file.

    The framing discipline matches the v2 commit journal: one record per
    line, ``len`` over the body bytes so truncation can never masquerade
    as completeness, CRC-32 over the body against bit rot, and a torn
    *final* record tolerated (reported via :attr:`corrupt_tail`,
    physically truncated before the next append).  Corruption before
    intact records raises — that is damage, not a crash artifact.

    Unlike the journal, the audit log is observability, not correctness:
    appends are not individually fsynced (the journal's WAL record is the
    durability contract), so a crash may lose the trail of the very last
    commit while the commit itself recovers fine.
    """

    def __init__(self, path, fs=None):
        self.path = str(path)
        self.corrupt_tail: Optional[str] = None
        self._fs = fs if fs is not None else REAL_FS
        self._good_offset = 0
        self._needs_repair = False
        self._scanned = False

    # -- writing -------------------------------------------------------------------

    def append(self, transaction_id, trail_or_events):
        """Append one transaction's decision trail.

        *trail_or_events* is a :class:`DecisionTrail` or a pre-rendered
        event list.  Returns the :class:`AuditRecord` written.
        """
        if isinstance(trail_or_events, DecisionTrail):
            events = trail_or_events.to_events()
        else:
            events = list(trail_or_events)
        if not self._scanned:
            self._scan()
        if self._needs_repair:
            self.repair_tail()
        data = (_render_audit_record(transaction_id, events) + "\n").encode(
            "utf-8"
        )
        try:
            self._fs.append(self.path, data, sync=False)
        except Exception:
            # A failed write may leave a torn prefix past the good offset;
            # the next append truncates it before writing.
            self._needs_repair = True
            raise
        self._good_offset += len(data)
        m = _obs.ACTIVE
        if m is not None:
            m.inc("audit.records")
            m.inc("audit.bytes_written", len(data))
        return AuditRecord(transaction_id=transaction_id, events=tuple(events))

    def sync(self):
        """fsync the file (the journal's group-commit barrier calls this)."""
        if self._fs.exists(self.path):
            self._fs.sync(self.path)

    # -- reading -------------------------------------------------------------------

    def _scan(self) -> List[AuditRecord]:
        self.corrupt_tail = None
        self._needs_repair = False
        self._good_offset = 0
        self._scanned = True
        if not self._fs.exists(self.path):
            return []
        data = self._fs.read_bytes(self.path)
        lines = data.splitlines(keepends=True)
        last_content = -1
        for index, raw in enumerate(lines):
            if raw.strip():
                last_content = index
        records = []
        offset = 0
        for index, raw in enumerate(lines):
            end = offset + len(raw)
            if not raw.strip():
                offset = end
                continue
            failure = None
            text = raw.decode("utf-8", "replace")
            try:
                record = _parse_audit_record(text.rstrip("\n").rstrip("\r"))
            except StorageError as error:
                failure = error
            else:
                if not raw.endswith(b"\n"):
                    failure = StorageError(
                        "final audit record has no trailing newline"
                    )
            if failure is not None:
                if index >= last_content:
                    self.corrupt_tail = text
                    self._needs_repair = True
                    break
                raise failure
            records.append(record)
            self._good_offset = end
            offset = end
        if not self._needs_repair and data and not data.endswith(b"\n"):
            self._needs_repair = True
        return records

    def records(self) -> List[AuditRecord]:
        """All readable records, in append order (torn tail tolerated)."""
        return self._scan()

    def record_for(self, transaction_id):
        """The (last) record for *transaction_id*, or ``None``."""
        found = None
        for record in self.records():
            if record.transaction_id == transaction_id:
                found = record
        return found

    def repair_tail(self):
        """Physically truncate a torn final record; returns True if repaired."""
        if not self._scanned:
            self._scan()
        if not self._needs_repair:
            return False
        self._fs.truncate(self.path, self._good_offset)
        self.corrupt_tail = None
        self._needs_repair = False
        return True

    def __len__(self):
        return len(self.records())

    def __repr__(self):
        return "AuditLog(%r)" % self.path
