"""The catalog: predicate schemas and the constant intern table.

A schema here is minimal — predicate name and arity, optionally with column
names for the active-database facade.  The catalog's job is the discipline a
commercial DBMS would impose: a predicate has one arity everywhere, and the
storage layer refuses rows that disagree.  The paper's "implementability on
top of a commercial DBMS" requirement motivates keeping this layer explicit.

The catalog also carries the :class:`InternTable` — the database-level
dictionary encoding every constant value as a small integer id.  The
columnar storage layout (:class:`repro.storage.relation.ColumnarRelation`)
stores rows as tuples of these ids and the compiled matcher scans them as
plain integers, so one shared, append-only table is what makes id-encoded
rows from *different* databases comparable (the engine freely mixes the
``I∅``/``I+``/``I-`` stores, per-round delta databases, and snapshot
copies of all of them).  Ids are never recycled: a live database may hold
any id ever handed out, so the table only grows — bounded by the active
domain of the process, which the ``storage.intern_table_size`` gauge
tracks.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import SchemaError
from ..lang.terms import Constant


class InternTable:
    """A bijection between constant values and dense integer ids.

    Append-only: :meth:`intern` hands out ids ``0, 1, 2, ...`` in first-seen
    order and an id stays valid for the life of the process.  The table
    also memoizes one :class:`~repro.lang.terms.Constant` box per id so the
    compiled matcher can decode a slot value into a shared term object
    (cached hash, identity-friendly) without allocating.

    Thread-safe: the already-interned fast path is a lock-free dict read
    (safe because ids are published *last*, after both side arrays hold the
    value, so any id a reader can observe round-trips through
    :meth:`value_of`); allocation takes a lock so two threads can never
    tear the ``_ids``/``_values`` append pair or hand out one id twice.
    """

    __slots__ = ("_ids", "_values", "_constants", "_lock")

    def __init__(self):
        self._ids = {}  # value -> id
        self._values = []  # id -> value
        self._constants = []  # id -> Constant (built lazily)
        self._lock = threading.Lock()

    def intern(self, value):
        """The id for *value*, allocating the next one on first sight."""
        ident = self._ids.get(value)
        if ident is None:
            with self._lock:
                ident = self._ids.get(value)
                if ident is None:
                    ident = len(self._values)
                    self._values.append(value)
                    self._constants.append(None)
                    # Publish the id last: readers that see it can decode it.
                    self._ids[value] = ident
        return ident

    def id_of(self, value):
        """The id for *value*, or ``None`` if it was never interned."""
        return self._ids.get(value)

    def value_of(self, ident):
        """The raw value for *ident* (must be a valid id)."""
        return self._values[ident]

    def constant_of(self, ident):
        """The shared :class:`Constant` boxing *ident*'s value."""
        constant = self._constants[ident]
        if constant is None:
            constant = Constant(self._values[ident])
            self._constants[ident] = constant
        return constant

    def encode_row(self, row):
        """*row* of raw values as a tuple of ids (interning as needed)."""
        return tuple(map(self.intern, row))

    def try_encode_row(self, row):
        """Like :meth:`encode_row` but ``None`` if any value is unseen.

        Membership probes use this: a row containing a never-interned value
        cannot be stored anywhere, so the caller can answer "absent"
        without growing the table.
        """
        ids = self._ids
        try:
            return tuple(ids[value] for value in row)
        except KeyError:
            return None

    def decode_row(self, row):
        """A tuple of ids back to its raw values."""
        values = self._values
        return tuple(values[ident] for ident in row)

    def __len__(self):
        return len(self._values)

    def __repr__(self):
        return "InternTable(%d values)" % len(self._values)


#: The process-wide intern table.  Module-level (rather than per-catalog)
#: because the engine builds many short-lived databases per run — delta
#: shadows, interpretation stores, incorp results — whose id spaces must
#: all be compatible; ``Catalog.copy`` shares it for the same reason.
INTERNER = InternTable()


def global_interner():
    """The shared process-wide :class:`InternTable`."""
    return INTERNER


@dataclass(frozen=True)
class Schema:
    """The schema of one predicate: name, arity, optional column names."""

    predicate: str
    arity: int
    columns: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        if self.arity < 0:
            raise SchemaError("schema %r: negative arity" % self.predicate)
        if self.columns is not None:
            if not isinstance(self.columns, tuple):
                object.__setattr__(self, "columns", tuple(self.columns))
            if len(self.columns) != self.arity:
                raise SchemaError(
                    "schema %r: %d column names for arity %d"
                    % (self.predicate, len(self.columns), self.arity)
                )

    def __str__(self):
        if self.columns:
            return "%s(%s)" % (self.predicate, ", ".join(self.columns))
        return "%s/%d" % (self.predicate, self.arity)


class Catalog:
    """A mutable registry of predicate schemas.

    Schemas may be declared up front (:meth:`declare`) or discovered on
    first use (:meth:`ensure`); in both cases later uses must agree on the
    arity.
    """

    def __init__(self, schemas=()):
        self._schemas = {}
        for schema in schemas:
            self.declare(schema)

    def declare(self, schema):
        """Register *schema*; re-declaring with a different arity fails."""
        if not isinstance(schema, Schema):
            raise TypeError("expected a Schema, got %r" % (schema,))
        existing = self._schemas.get(schema.predicate)
        if existing is not None and existing.arity != schema.arity:
            raise SchemaError(
                "predicate %r already declared with arity %d, cannot redeclare "
                "with arity %d" % (schema.predicate, existing.arity, schema.arity)
            )
        self._schemas[schema.predicate] = schema
        return schema

    def ensure(self, predicate, arity):
        """Fetch the schema for *predicate*, auto-declaring it if unknown."""
        existing = self._schemas.get(predicate)
        if existing is None:
            return self.declare(Schema(predicate, arity))
        if existing.arity != arity:
            raise SchemaError(
                "predicate %r has arity %d, used with arity %d"
                % (predicate, existing.arity, arity)
            )
        return existing

    def get(self, predicate):
        """The schema for *predicate*, or ``None`` if undeclared."""
        return self._schemas.get(predicate)

    def __contains__(self, predicate):
        return predicate in self._schemas

    def __iter__(self):
        return iter(sorted(self._schemas))

    def __len__(self):
        return len(self._schemas)

    def schemas(self):
        """All schemas, sorted by predicate name."""
        return [self._schemas[name] for name in sorted(self._schemas)]

    def copy(self):
        clone = Catalog()
        clone._schemas = dict(self._schemas)
        return clone

    def __repr__(self):
        return "Catalog(%s)" % ", ".join(str(s) for s in self.schemas())
