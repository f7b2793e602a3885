"""A failed audit-sidecar write never un-reports a durable commit.

The decision trail is appended after the commit point (journal record
fsynced, delta applied to the live database), so a full disk on the
sidecar must leave the commit reported, counted under
``audit.append_failures``, and recorded in the ``EventLog``.  The torn
prefix the failed write left behind is truncated before the next
commit's audit record lands.
"""

import errno

from repro.active import ActiveDatabase
from repro.active.journal import Journal
from repro.obs.audit import SIDECAR_SUFFIX, AuditLog
from repro.obs.metrics import Metrics
from repro.storage.fsio import RealFS

from .conftest import BASE_FACTS, RULES


class SidecarFullFS(RealFS):
    """Real file layer whose next sidecar append tears, then raises ENOSPC.

    Journal appends pass through untouched; only paths ending in the
    audit sidecar suffix are failed, and only while ``fail_sidecar`` is
    set.  Half of the record reaches the file before the error, as a
    write that ran out of space part-way would leave it.
    """

    def __init__(self):
        self.fail_sidecar = False
        self.failures = 0

    def append(self, path, data, sync=True):
        if self.fail_sidecar and path.endswith(SIDECAR_SUFFIX):
            self.fail_sidecar = False
            self.failures += 1
            super().append(path, data[: len(data) // 2], sync=False)
            raise OSError(errno.ENOSPC, "No space left on device", path)
        super().append(path, data, sync=sync)


def test_sidecar_enospc_keeps_commit_and_repairs_next_append(tmp_path):
    snapshot = str(tmp_path / "base.park")
    journal_path = str(tmp_path / "commits.journal")
    sidecar = journal_path + SIDECAR_SUFFIX
    fs = SidecarFullFS()
    db = ActiveDatabase.from_text(
        BASE_FACTS,
        journal=Journal(journal_path, fs=fs),
        audit=AuditLog(sidecar, fs=fs),
    )
    db.add_rules(RULES)
    db.checkpoint(snapshot)

    db.insert("p", "first")
    fs.fail_sidecar = True
    metrics = Metrics()
    with metrics.activate():
        result = db.insert("p", "second")
    assert fs.failures == 1
    assert result is not None and db.log.last().transaction_id == 2
    assert metrics.counter("audit.append_failures") == 1
    assert metrics.counter("active.commits") == 1
    assert db.contains("audit", "second")

    # Journal, live database and EventLog agree on both commits.
    journal_records = db.journal.records()
    assert [r.transaction_id for r in journal_records] == [1, 2]
    assert [r.transaction_id for r in db.log] == [1, 2]
    assert [r.delta for r in journal_records] == [r.delta for r in db.log]
    assert result.delta == db.log.last().delta
    recovered = ActiveDatabase.recover(snapshot, journal_path)
    assert recovered.database == db.database

    # The sidecar holds tx1 plus a torn tail; the next commit repairs it
    # before appending, so a cold reader sees a clean [1, 3].
    torn = AuditLog(sidecar)
    assert [r.transaction_id for r in torn.records()] == [1]
    assert torn.corrupt_tail is not None
    db.insert("p", "third")
    reader = AuditLog(sidecar)
    assert [r.transaction_id for r in reader.records()] == [1, 3]
    assert reader.corrupt_tail is None
    assert ActiveDatabase.recover(snapshot, journal_path).database == db.database
