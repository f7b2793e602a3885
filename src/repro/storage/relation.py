"""A single relation, in one of two storage layouts.

Every relation speaks two dialects:

* the **raw dialect** — the atom-level public API (:meth:`add`,
  :meth:`discard`, :meth:`rows`, :meth:`candidates`, ``in``) exchanges
  tuples of raw constant values (``("alice", 4200)``) in both layouts;
* the **native dialect** — the row-level API the compiled matcher uses
  (:meth:`candidates_key`, :meth:`has_native`, :meth:`row_set`) exchanges
  *storage-native* rows: raw tuples in the row layout, tuples of intern-table
  ids in the columnar layout.

:class:`Relation` is the original row-oriented layout and stays the oracle:
a hash set of raw value tuples with lazily-built single-column and composite
hash indexes.  :class:`ColumnarRelation` is the fast layout: rows are tuples
of integer ids from the shared :class:`~repro.storage.catalog.InternTable`,
stored both as per-column ``array('q')`` id arrays (dense, swap-delete) and
as a position dict for O(1) membership, with the same index machinery keyed
by ids.  Matching then compares and hashes machine integers instead of
boxed ``Constant`` objects, which is where the compiled matcher's ≥3x comes
from.

The active layout is process-global: ``REPRO_STORAGE`` (or the CLI's
``--storage``) selects ``columnar`` (default) or ``row``;
:func:`make_relation` is the factory the database uses.

Both layouts maintain one hash index per column, built the first time a
lookup binds that column, plus **composite indexes** keyed by a tuple of
columns.  The compiled matcher registers the bound-column signatures its
plans will probe (:meth:`Relation.register_index` — the "lookup-signature
handshake"); each index is materialized lazily on the first probe and
maintained incrementally by :meth:`add` / :meth:`discard` from then on, so
a multi-column probe is a single hash lookup instead of a best-bucket
scan-and-filter.
"""

from __future__ import annotations

import os
from array import array

from ..errors import SchemaError
from ..lang.terms import Constant
from ..obs import metrics as _obs
from .catalog import INTERNER


class Relation:
    """A named relation holding ground tuples of a fixed arity."""

    __slots__ = ("name", "arity", "_tuples", "_indexes", "_registered", "_composite")

    #: Storage layout tag; native rows equal raw rows in this layout.
    storage = "row"

    def __init__(self, name, arity, tuples=()):
        if arity < 0:
            raise SchemaError("relation %r: arity must be >= 0" % name)
        self.name = name
        self.arity = arity
        self._tuples = set()
        self._indexes = {}  # column -> {value -> set of tuples}
        self._registered = set()  # column tuples with a composite index
        self._composite = {}  # column tuple -> {value tuple -> set of tuples}
        for row in tuples:
            self.add(row)

    # -- mutation --------------------------------------------------------------

    def _check(self, row):
        if not isinstance(row, tuple):
            raise SchemaError(
                "relation %r: row must be a tuple, got %r" % (self.name, row)
            )
        if len(row) != self.arity:
            raise SchemaError(
                "relation %r has arity %d, got row of length %d: %r"
                % (self.name, self.arity, len(row), row)
            )

    def add(self, row):
        """Insert *row*; returns True if it was new."""
        self._check(row)
        if row in self._tuples:
            return False
        self._tuples.add(row)
        for column, index in self._indexes.items():
            index.setdefault(row[column], set()).add(row)
        for columns, index in self._composite.items():
            key = tuple(row[c] for c in columns)
            index.setdefault(key, set()).add(row)
        return True

    def discard(self, row):
        """Delete *row*; returns True if it was present."""
        self._check(row)
        if row not in self._tuples:
            return False
        self._tuples.discard(row)
        for column, index in self._indexes.items():
            bucket = index.get(row[column])
            if bucket is not None:
                bucket.discard(row)
                if not bucket:
                    del index[row[column]]
        for columns, index in self._composite.items():
            key = tuple(row[c] for c in columns)
            bucket = index.get(key)
            if bucket is not None:
                bucket.discard(row)
                if not bucket:
                    del index[key]
        return True

    def clear(self):
        """Remove all rows (indexes are dropped, not rebuilt).

        Registered composite signatures survive: they describe which probes
        the compiled plans make, not the data, so the indexes simply
        rematerialize on the next probe.
        """
        self._tuples.clear()
        self._indexes.clear()
        self._composite.clear()

    # -- access ------------------------------------------------------------------

    def __contains__(self, row):
        return row in self._tuples

    def __len__(self):
        return len(self._tuples)

    def __iter__(self):
        return iter(self._tuples)

    def rows(self):
        """A snapshot list of all rows (safe to mutate the relation while using)."""
        return list(self._tuples)

    def row_set(self):
        """The live set of *native* rows — read-only, must not be mutated.

        Native rows are raw rows in this layout; id tuples in the columnar
        one.  Use :meth:`decode_row` / :meth:`row_constants` to interpret
        them uniformly.
        """
        return self._tuples

    def has_native(self, row):
        """Membership test in the native dialect (raw rows here)."""
        return row in self._tuples

    def decode_row(self, row):
        """A native row as its raw value tuple (identity in this layout)."""
        return row

    def row_constants(self, row):
        """A native row as a tuple of :class:`Constant` terms."""
        return tuple(map(Constant, row))

    def _index_on(self, column):
        index = self._indexes.get(column)
        if index is None:
            index = {}
            for row in self._tuples:
                index.setdefault(row[column], set()).add(row)
            self._indexes[column] = index
            m = _obs.ACTIVE
            if m is not None:
                m.inc("storage.index_builds")
        return index

    # -- composite indexes ---------------------------------------------------------

    def register_index(self, columns):
        """Declare that lookups will bind exactly *columns* (sorted tuple).

        Trivial signatures are ignored: a single column uses the per-column
        index and a fully-bound probe is a plain membership test.  The
        composite index itself is built lazily on the first probe and then
        maintained incrementally, so registering is free until the signature
        is actually used.
        """
        columns = tuple(columns)
        if len(columns) < 2 or len(columns) >= self.arity:
            return
        self._registered.add(columns)

    def _composite_on(self, columns):
        index = self._composite.get(columns)
        if index is None:
            index = {}
            for row in self._tuples:
                index.setdefault(tuple(row[c] for c in columns), set()).add(row)
            self._composite[columns] = index
            m = _obs.ACTIVE
            if m is not None:
                m.inc("storage.composite_builds")
        return index

    def candidates_key(self, columns, key):
        """Rows whose *columns* (a sorted tuple of column indexes) equal *key*.

        The positional twin of :meth:`candidates`, used by the compiled
        matcher: the caller passes the prebuilt column tuple from the plan
        step plus the current key values, avoiding a per-probe dict.  An
        empty *columns* is a full scan; all columns bound is a membership
        test (*key* then *is* the row); one column uses the per-column
        index; anything else hits (and lazily builds) a composite index.
        Returns an iterable of rows; must not be retained across mutations.
        """
        count = len(columns)
        m = _obs.ACTIVE
        if not count:
            if m is not None:
                m.inc("storage.full_scans")
            return self._tuples
        if count == self.arity:
            # columns is sorted and distinct, so it is (0, ..., arity-1)
            # and key is the row itself.
            present = key in self._tuples
            if m is not None:
                m.inc("storage.index_lookups")
                if present:
                    m.inc("storage.index_hits")
            return (key,) if present else ()
        if count == 1:
            bucket = self._index_on(columns[0]).get(key[0])
        else:
            self._registered.add(columns)
            bucket = self._composite_on(columns).get(key)
        if m is not None:
            m.inc("storage.index_lookups")
            if bucket:
                m.inc("storage.index_hits")
        return bucket if bucket is not None else ()

    def candidates(self, bound):
        """Rows consistent with *bound*, a ``{column: value}`` mapping.

        With every column bound this is a single O(1) membership test.  A
        multi-column probe whose signature has a registered composite index
        is a single hash lookup; otherwise it uses the index on the most
        selective bound column and filters the rest.  With no bound columns
        this is a full scan.  Returns an iterable of rows; the result must
        not be retained across mutations.
        """
        m = _obs.ACTIVE
        if not bound:
            if m is not None:
                m.inc("storage.full_scans")
            return self._tuples
        if m is not None:
            m.inc("storage.index_lookups")
        if len(bound) == self.arity:
            # Fully bound: the only possible answer is the row itself.
            row = tuple(bound[column] for column in range(self.arity))
            present = row in self._tuples
            if present and m is not None:
                m.inc("storage.index_hits")
            return (row,) if present else ()
        if len(bound) > 1:
            columns = tuple(sorted(bound))
            if columns in self._registered:
                key = tuple(bound[c] for c in columns)
                bucket = self._composite_on(columns).get(key)
                if bucket and m is not None:
                    m.inc("storage.index_hits")
                return bucket if bucket is not None else ()
        best_column = None
        best_bucket = None
        for column, value in bound.items():
            bucket = self._index_on(column).get(value, ())
            if best_bucket is None or len(bucket) < len(best_bucket):
                best_column, best_bucket = column, bucket
            if not bucket:
                return ()
        if m is not None and best_bucket:
            m.inc("storage.index_hits")
        if len(bound) == 1:
            return best_bucket
        rest = [(c, v) for c, v in bound.items() if c != best_column]
        return (
            row for row in best_bucket if all(row[c] == v for c, v in rest)
        )

    def copy(self, with_indexes=False):
        """An independent copy sharing no mutable state.

        With ``with_indexes=True`` the hash indexes (single-column and
        composite) are carried over as per-bucket set copies — cheaper than
        rebuilding them from scratch on the first lookup, which matters on
        hot paths that copy a relation every evaluation round (``Γ``'s
        apply and epoch restarts).  Registered composite signatures are
        always carried: they are schema-level metadata, not data.
        """
        clone = Relation(self.name, self.arity)
        clone._tuples = set(self._tuples)
        clone._registered = set(self._registered)
        m = _obs.ACTIVE
        if m is not None:
            m.inc("storage.snapshot_copies")
        if with_indexes:
            if self._indexes:
                clone._indexes = {
                    column: {value: set(rows) for value, rows in index.items()}
                    for column, index in self._indexes.items()
                }
            if self._composite:
                clone._composite = {
                    columns: {key: set(rows) for key, rows in index.items()}
                    for columns, index in self._composite.items()
                }
        return clone

    def __eq__(self, other):
        if isinstance(other, Relation):
            return (
                self.name == other.name
                and self.arity == other.arity
                and self._tuples == other._tuples
            )
        if isinstance(other, ColumnarRelation):
            return other.__eq__(self)
        return NotImplemented

    def __hash__(self):
        raise TypeError("Relation is mutable and unhashable")

    def __repr__(self):
        return "Relation(%r, arity=%d, rows=%d)" % (self.name, self.arity, len(self))


class ColumnarRelation:
    """The columnar layout: rows are tuples of intern-table ids.

    Data lives twice, deliberately: per-column ``array('q')`` id arrays
    (``_columns``, dense, deletion by swap-with-last) for cache-friendly
    column scans and cheap index builds, and a ``row -> position`` dict
    (``_rows``) that doubles as the O(1) membership set and the iteration
    order (``_order`` is the inverse mapping, position → row).  All index
    structures bucket native id tuples, so every probe the compiled matcher
    makes — fully-bound membership, single-column, composite — hashes small
    ints only.

    The raw dialect encodes on the way in (:meth:`add` interns) and decodes
    on the way out (:meth:`rows`, :meth:`candidates`); a raw probe for a
    never-interned value answers "absent" without growing the table.
    """

    __slots__ = (
        "name",
        "arity",
        "_interner",
        "_rows",
        "_order",
        "_columns",
        "_indexes",
        "_registered",
        "_composite",
    )

    storage = "columnar"

    def __init__(self, name, arity, tuples=(), interner=None):
        if arity < 0:
            raise SchemaError("relation %r: arity must be >= 0" % name)
        self.name = name
        self.arity = arity
        self._interner = interner if interner is not None else INTERNER
        self._rows = {}  # native row -> position in _order/_columns
        self._order = []  # position -> native row
        self._columns = [array("q") for _ in range(arity)]
        self._indexes = {}  # column -> {id -> set of native rows}
        self._registered = set()
        self._composite = {}  # column tuple -> {id tuple -> set of native rows}
        for row in tuples:
            self.add(row)

    # -- mutation --------------------------------------------------------------

    def _check(self, row):
        if not isinstance(row, tuple):
            raise SchemaError(
                "relation %r: row must be a tuple, got %r" % (self.name, row)
            )
        if len(row) != self.arity:
            raise SchemaError(
                "relation %r has arity %d, got row of length %d: %r"
                % (self.name, self.arity, len(row), row)
            )

    def add(self, row):
        """Insert a *raw* row; returns True if it was new."""
        self._check(row)
        return self._add_native(self._interner.encode_row(row))

    def _add_native(self, row):
        rows = self._rows
        if row in rows:
            return False
        rows[row] = len(self._order)
        self._order.append(row)
        columns = self._columns
        for column, ident in enumerate(row):
            columns[column].append(ident)
        for column, index in self._indexes.items():
            index.setdefault(row[column], set()).add(row)
        for cols, index in self._composite.items():
            key = tuple(row[c] for c in cols)
            index.setdefault(key, set()).add(row)
        return True

    def discard(self, row):
        """Delete a *raw* row; returns True if it was present."""
        self._check(row)
        native = self._interner.try_encode_row(row)
        if native is None:
            return False
        return self._discard_native(native)

    def _discard_native(self, row):
        rows = self._rows
        position = rows.pop(row, None)
        if position is None:
            return False
        order = self._order
        last = order.pop()
        columns = self._columns
        if last is not row and last != row:
            order[position] = last
            rows[last] = position
            for column, ids in enumerate(columns):
                ids[position] = last[column]
                ids.pop()
        else:
            for ids in columns:
                ids.pop()
        for column, index in self._indexes.items():
            bucket = index.get(row[column])
            if bucket is not None:
                bucket.discard(row)
                if not bucket:
                    del index[row[column]]
        for cols, index in self._composite.items():
            key = tuple(row[c] for c in cols)
            bucket = index.get(key)
            if bucket is not None:
                bucket.discard(row)
                if not bucket:
                    del index[key]
        return True

    def clear(self):
        """Remove all rows (indexes dropped; registered signatures survive)."""
        self._rows.clear()
        self._order.clear()
        for ids in self._columns:
            del ids[:]
        self._indexes.clear()
        self._composite.clear()

    # -- access ------------------------------------------------------------------

    def __contains__(self, row):
        native = self._interner.try_encode_row(row)
        return native is not None and native in self._rows

    def __len__(self):
        return len(self._rows)

    def __iter__(self):
        decode = self._interner.decode_row
        return (decode(row) for row in self._rows)

    def rows(self):
        """A snapshot list of all *raw* rows."""
        decode = self._interner.decode_row
        return [decode(row) for row in self._order]

    def row_set(self):
        """The live view of *native* rows (id tuples) — read-only."""
        return self._rows.keys()

    def has_native(self, row):
        """Membership test on a native (id-tuple) row."""
        return row in self._rows

    def decode_row(self, row):
        """A native id-tuple row back to its raw value tuple."""
        return self._interner.decode_row(row)

    def row_constants(self, row):
        """A native row as a tuple of shared :class:`Constant` boxes."""
        constant_of = self._interner.constant_of
        return tuple(constant_of(ident) for ident in row)

    def column(self, column):
        """The dense id array for *column* — read-only, do not retain."""
        return self._columns[column]

    def _index_on(self, column):
        index = self._indexes.get(column)
        if index is None:
            index = {}
            for row in self._rows:
                index.setdefault(row[column], set()).add(row)
            self._indexes[column] = index
            m = _obs.ACTIVE
            if m is not None:
                m.inc("storage.index_builds")
        return index

    # -- composite indexes ---------------------------------------------------------

    def register_index(self, columns):
        """Declare a composite probe signature (see :meth:`Relation.register_index`)."""
        columns = tuple(columns)
        if len(columns) < 2 or len(columns) >= self.arity:
            return
        self._registered.add(columns)

    def _composite_on(self, columns):
        index = self._composite.get(columns)
        if index is None:
            index = {}
            for row in self._rows:
                index.setdefault(tuple(row[c] for c in columns), set()).add(row)
            self._composite[columns] = index
            m = _obs.ACTIVE
            if m is not None:
                m.inc("storage.composite_builds")
        return index

    def candidates_key(self, columns, key):
        """Native rows whose *columns* equal *key* — both sides id-encoded.

        Same contract as :meth:`Relation.candidates_key`, but the key is a
        tuple of intern ids and the returned rows are id tuples.  The
        compiled matcher encodes plan constants at compile time, so on the
        hot path this is integer hashing end to end.
        """
        count = len(columns)
        m = _obs.ACTIVE
        if not count:
            if m is not None:
                m.inc("storage.full_scans")
            return self._rows.keys()
        if count == self.arity:
            present = key in self._rows
            if m is not None:
                m.inc("storage.index_lookups")
                if present:
                    m.inc("storage.index_hits")
            return (key,) if present else ()
        if count == 1:
            bucket = self._index_on(columns[0]).get(key[0])
        else:
            self._registered.add(columns)
            bucket = self._composite_on(columns).get(key)
        if m is not None:
            m.inc("storage.index_lookups")
            if bucket:
                m.inc("storage.index_hits")
        return bucket if bucket is not None else ()

    def candidates(self, bound):
        """Raw rows consistent with *bound*, a ``{column: raw value}`` mapping.

        The raw-dialect twin of :meth:`candidates_key`: bound values are
        encoded (a never-interned value matches nothing) and matching rows
        are decoded on the way out.  This is the interpreted matcher's
        path; the compiled matcher never calls it.
        """
        m = _obs.ACTIVE
        decode = self._interner.decode_row
        if not bound:
            if m is not None:
                m.inc("storage.full_scans")
            return (decode(row) for row in self._rows)
        id_of = self._interner.id_of
        native_bound = {}
        for column, value in bound.items():
            ident = id_of(value)
            if ident is None:
                if m is not None:
                    m.inc("storage.index_lookups")
                return ()
            native_bound[column] = ident
        if m is not None:
            m.inc("storage.index_lookups")
        if len(native_bound) == self.arity:
            row = tuple(native_bound[column] for column in range(self.arity))
            present = row in self._rows
            if present and m is not None:
                m.inc("storage.index_hits")
            return (decode(row),) if present else ()
        if len(native_bound) > 1:
            columns = tuple(sorted(native_bound))
            if columns in self._registered:
                key = tuple(native_bound[c] for c in columns)
                bucket = self._composite_on(columns).get(key)
                if bucket and m is not None:
                    m.inc("storage.index_hits")
                if bucket is None:
                    return ()
                return (decode(row) for row in bucket)
        best_column = None
        best_bucket = None
        for column, ident in native_bound.items():
            bucket = self._index_on(column).get(ident, ())
            if best_bucket is None or len(bucket) < len(best_bucket):
                best_column, best_bucket = column, bucket
            if not bucket:
                return ()
        if m is not None and best_bucket:
            m.inc("storage.index_hits")
        if len(native_bound) == 1:
            return (decode(row) for row in best_bucket)
        rest = [(c, i) for c, i in native_bound.items() if c != best_column]
        return (
            decode(row)
            for row in best_bucket
            if all(row[c] == i for c, i in rest)
        )

    def copy(self, with_indexes=False):
        """An independent copy sharing only the (append-only) intern table."""
        clone = ColumnarRelation(self.name, self.arity, interner=self._interner)
        clone._rows = dict(self._rows)
        clone._order = list(self._order)
        clone._columns = [array("q", ids) for ids in self._columns]
        clone._registered = set(self._registered)
        m = _obs.ACTIVE
        if m is not None:
            m.inc("storage.snapshot_copies")
        if with_indexes:
            if self._indexes:
                clone._indexes = {
                    column: {ident: set(rows) for ident, rows in index.items()}
                    for column, index in self._indexes.items()
                }
            if self._composite:
                clone._composite = {
                    columns: {key: set(rows) for key, rows in index.items()}
                    for columns, index in self._composite.items()
                }
        return clone

    def __eq__(self, other):
        if isinstance(other, ColumnarRelation):
            if self.name != other.name or self.arity != other.arity:
                return False
            if other._interner is self._interner:
                return self._rows.keys() == other._rows.keys()
            return set(iter(self)) == set(iter(other))
        if isinstance(other, Relation):
            return (
                self.name == other.name
                and self.arity == other.arity
                and set(iter(self)) == other._tuples
            )
        return NotImplemented

    def __hash__(self):
        raise TypeError("ColumnarRelation is mutable and unhashable")

    def __repr__(self):
        return "ColumnarRelation(%r, arity=%d, rows=%d)" % (
            self.name,
            self.arity,
            len(self),
        )


# -- storage backend switch ------------------------------------------------------

_VALID_STORAGE = ("columnar", "row")
_storage = "columnar"


def set_storage_backend(name):
    """Select the storage layout for *newly created* relations.

    ``columnar`` (default) or ``row``.  Existing Database objects keep the
    layout they were built with; the engine converts inputs on entry (see
    ``ensure_storage``), so switching mid-process is safe as long as a
    single engine run sees one layout throughout — which ensure_storage
    guarantees.
    """
    if name not in _VALID_STORAGE:
        raise ValueError(
            "unknown storage backend %r; expected one of %s"
            % (name, ", ".join(_VALID_STORAGE))
        )
    global _storage
    _storage = name


def get_storage_backend():
    """The currently selected storage layout name."""
    return _storage


def make_relation(name, arity, tuples=(), interner=None):
    """A new relation in the currently selected storage layout."""
    if _storage == "columnar":
        return ColumnarRelation(name, arity, tuples, interner=interner)
    return Relation(name, arity, tuples)


set_storage_backend(os.environ.get("REPRO_STORAGE") or "columnar")
