"""Relations with bag semantics, in the layouts Section 4.4 discusses.

The canonical representation is a dictionary from tuple-records to
integer multiplicities (how S-IFAQ types relations).  The data-layout
passes also use:

* **array layout** — a flat list of tuples (``Dictionary to Array``:
  most relations have multiplicity one),
* **trie layout** — nested dictionaries grouped by join attributes
  (``Dictionary to Trie``), optionally **sorted** for merge-style
  lookups (``Sorted Dictionary``).

Conversions are provided by this module and :mod:`repro.db.trie`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.db.schema import RelationSchema
from repro.runtime.values import DictValue, RecordValue


@dataclass(frozen=True)
class AppendDelta:
    """What one :meth:`Relation.append_rows` call changed.

    ``fresh`` counts *new distinct records* (appended at the end of the
    bag in insertion order — the property incremental consumers rely
    on); ``bumped`` counts rows that raised the multiplicity of a
    record that existed *before* the append.  A pure append
    (``bumped == 0``) leaves every pre-existing record's position and
    multiplicity untouched, so columnar caches can extend their arrays
    in place; a bump rewrites history and forces a rebuild.
    """

    relation: str
    #: distinct records before the append
    old_records: int
    #: distinct records after the append
    new_records: int
    #: rows absorbed by the appended tail (new records, or duplicates
    #: of a record this same batch created)
    fresh: int
    #: rows that bumped a record existing before this append
    bumped: int

    @property
    def pure_append(self) -> bool:
        return self.bumped == 0


@dataclass
class Relation:
    """A named relation: schema plus a bag of tuples.

    ``data`` maps :class:`RecordValue` tuples to positive integer
    multiplicities.  Most loaders produce multiplicity 1 throughout,
    which is what the dictionary-to-array layout pass exploits.
    """

    schema: RelationSchema
    data: dict[RecordValue, int]
    #: join attributes → distinct key count; cleared by append_rows
    _distinct_keys: dict[tuple[str, ...], int] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    # -- construction ---------------------------------------------------

    @staticmethod
    def from_rows(schema: RelationSchema, rows: Iterable[tuple]) -> "Relation":
        """Build from positional tuples following the schema order."""
        names = schema.attribute_names()
        data: dict[RecordValue, int] = {}
        for row in rows:
            if len(row) != len(names):
                raise ValueError(
                    f"row arity {len(row)} does not match schema "
                    f"{schema.name!r} with {len(names)} attributes"
                )
            rec = RecordValue(zip(names, row))
            data[rec] = data.get(rec, 0) + 1
        return Relation(schema, data)

    @staticmethod
    def from_dicts(schema: RelationSchema, rows: Iterable[dict[str, Any]]) -> "Relation":
        """Build from attribute-name dictionaries."""
        names = schema.attribute_names()
        return Relation.from_rows(schema, (tuple(r[n] for n in names) for r in rows))

    # -- streaming ingest --------------------------------------------------

    def append_rows(self, rows: Iterable[tuple]) -> AppendDelta:
        """Append positional tuples in place (bag union).

        Dict insertion order means new distinct records land *after*
        every existing record, so ``list(data)`` keeps its old prefix
        verbatim — the invariant the column store's delta extension
        and the backends' delta-run protocol build on.  Rows equal to a
        pre-existing record bump its multiplicity instead (reported as
        ``bumped``; such an append is not a pure extension and
        downstream caches must rebuild).  Duplicates *within* the
        appended batch stay pure: they raise the multiplicity of a
        record that is itself part of the appended tail.
        """
        names = self.schema.attribute_names()
        old_records = len(self.data)
        self._distinct_keys.clear()
        fresh = bumped = 0
        batch_new: set[RecordValue] = set()
        for row in rows:
            if len(row) != len(names):
                raise ValueError(
                    f"row arity {len(row)} does not match schema "
                    f"{self.schema.name!r} with {len(names)} attributes"
                )
            rec = RecordValue(zip(names, row))
            if rec in self.data:
                self.data[rec] += 1
                if rec in batch_new:
                    fresh += 1  # duplicate of a record this batch created
                else:
                    bumped += 1
            else:
                self.data[rec] = 1
                batch_new.add(rec)
                fresh += 1
        return AppendDelta(
            relation=self.schema.name,
            old_records=old_records,
            new_records=len(self.data),
            fresh=fresh,
            bumped=bumped,
        )

    # -- basic accessors -------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def tuple_count(self) -> int:
        """Total number of tuples (multiplicities included)."""
        return sum(self.data.values())

    def distinct_count(self) -> int:
        return len(self.data)

    def distinct_key_count(self, attrs: tuple[str, ...]) -> int:
        """Number of distinct ``attrs`` projections, memoized until the
        next :meth:`append_rows` (the planner orders join-tree children
        by it, once per plan)."""
        count = self._distinct_keys.get(attrs)
        if count is None:
            count = len({tuple(rec[a] for a in attrs) for rec in self.data})
            self._distinct_keys[attrs] = count
        return count

    def __iter__(self) -> Iterator[tuple[RecordValue, int]]:
        return iter(self.data.items())

    def attribute_values(self, name: str) -> list[Any]:
        """All values of one attribute (with multiplicities)."""
        out: list[Any] = []
        for rec, mult in self.data.items():
            out.extend([rec[name]] * mult)
        return out

    def active_domain(self, name: str) -> list[Any]:
        """Sorted distinct values of one attribute."""
        return sorted({rec[name] for rec in self.data})

    def filter(self, predicate) -> "Relation":
        """A new relation keeping tuples where ``predicate(record)`` holds."""
        return Relation(
            self.schema,
            {rec: m for rec, m in self.data.items() if predicate(rec)},
        )

    def project(self, names: Iterable[str]) -> "Relation":
        """Bag projection onto ``names`` (multiplicities accumulate)."""
        names = tuple(names)
        sub_schema = RelationSchema(
            self.schema.name,
            tuple(a for a in self.schema.attributes if a.name in names),
        )
        data: dict[RecordValue, int] = {}
        for rec, mult in self.data.items():
            proj = rec.project(names)
            data[proj] = data.get(proj, 0) + mult
        return Relation(sub_schema, data)

    # -- layouts -----------------------------------------------------------

    def to_value(self) -> DictValue:
        """The relation as an IFAQ runtime value: ``{{tuple → mult}}``."""
        return DictValue(self.data)

    def to_array(self) -> list[tuple[RecordValue, int]]:
        """Array layout: a flat tuple list (Section 4.4, Dictionary to Array)."""
        return list(self.data.items())

    def estimated_size_bytes(self) -> int:
        """A coarse in-memory size estimate (8 bytes per attribute value).

        Used by Table 1 reporting and by the mlpack-style memory-budget
        model in the baselines.
        """
        return self.tuple_count() * len(self.schema) * 8

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, {self.tuple_count()} tuples)"
