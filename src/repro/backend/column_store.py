"""Per-database shared columnar storage (plan-independent).

The :class:`ColumnStore` holds everything the vectorized NumPy backend
derives from a :class:`~repro.db.database.Database` that does **not**
depend on the batch plan being executed:

* per-relation row lists, multiplicity vectors, and float/raw columns;
* join-key codings — for a relation coded by a key-attribute tuple,
  the dense code of every row plus the code table size, representative
  rows, and uniqueness flag;
* parent→child code maps (for each row of a parent relation, the code
  of the child entry it joins, ``-1`` for dangling keys);
* per-column value codings (the group-by key tables);
* per-relation predicate masks for δ conditions.

This is the IFAQ static-memoization idea applied to the data layer:
the same database is scanned by many kernels — every feature's
group-by plan during tree fitting, every shard of a sharded execution,
every plan of a fused multi-plan batch — and all of them share one
columnar copy instead of rebuilding per (kernel, database) pairs.

**The store-sharing contract** (pinned by
``tests/backend/test_column_store.py`` and relied on by the sharded
executor, the fused multi-plan path and the serving layer):

1. *One store per live database* — :func:`column_store` returns the
   same instance for the same database object, process-wide, keyed by
   identity with a weak-reference guard (id reuse is detected; the
   store is evicted when the database is collected, and eagerly via
   :func:`evict_column_store`).
2. *Immutability between extensions* — relations must not be mutated
   in place while a store (or any prepared representation) exists for
   their database, **except** through the ingest seam: after
   :meth:`Database.append_rows` the owner calls
   :meth:`ColumnStore.extend_relation` (pure appends — arrays extend
   in place, codes stay stable) or
   :meth:`ColumnStore.invalidate_relation` (multiplicity bumps —
   every memo touching the relation drops and rebuilds lazily).
   Both bump :attr:`ColumnStore.data_version`, which prepared layouts
   revalidate, so stale per-plan wiring is never served.
3. *Renumbering invariance* — the dense codes handed out by the
   codings carry no semantic order; every downstream fold
   (``bincount`` views, presence masks, parent gathers) must be
   invariant under code renumbering, so the vectorized (sorted-order)
   and loop (first-seen) codings are interchangeable.
4. *Lazy construction* — only the relations, codings and columns a
   plan actually touches are materialized; :meth:`ColumnStore.stats`
   reports the resulting byte footprint for eviction policies.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from repro.db.database import Database


@dataclass(frozen=True)
class KeyCoding:
    """A relation's rows coded by one key-attribute tuple.

    The code numbering is an implementation detail: every downstream
    fold (``np.bincount`` views, presence masks, parent gathers) is
    invariant under renumbering, because rows of one code accumulate in
    row order and codes never interact.  The vectorized coding numbers
    keys in sorted order; the loop fallback in first-seen order.
    """

    #: per row: dense code of the row's key tuple
    codes: np.ndarray
    #: number of distinct key tuples (size of the code table)
    n_keys: int
    #: code → a representative row holding that key (last occurrence)
    key_row: np.ndarray
    #: True when every code maps to exactly one row (FK-style join)
    unique: bool
    #: key tuple → code (loop coding; consumed by parent-side code maps)
    table: dict | None = None
    #: sorted packed key values (vectorized coding; parent side uses
    #: ``searchsorted`` against these instead of the table)
    values: np.ndarray | None = None


class ColumnStore:
    """Shared per-relation ndarray columns and key codings for one database.

    All methods memoize: the first call pays the Python tuple-hashing
    loop, every later call — from any kernel, plan view, or fused batch
    member — returns the same arrays.  A lock guards the memo tables so
    sharded preparation from worker threads stays consistent.
    """

    def __init__(self, db: Database):
        # Weak: the registry maps db → store, so a strong edge back
        # would keep every database alive forever and make the
        # registry's weakref eviction dead code.  Columns are built
        # lazily from calls that hold the database anyway.
        self._db_ref = weakref.ref(db)
        self._lock = threading.RLock()
        #: bumped by every delta extension / invalidation; prepared
        #: layouts snapshot it at construction and rebuild on mismatch,
        #: so per-plan views never serve pre-ingest array snapshots
        self.data_version: int = 0
        #: predicate-free subtree evaluation results, keyed by the
        #: numpy backend's structural scan keys — rerooted plans share
        #: most subtrees verbatim, so their bottom-up passes meet here
        self.eval_cache: dict = {}
        self._records: dict[str, list] = {}
        self._mult: dict[str, np.ndarray] = {}
        self._float_cols: dict[tuple[str, str], np.ndarray] = {}
        self._raw_cols: dict[tuple[str, str], np.ndarray] = {}
        self._key_codings: dict[tuple[str, tuple[str, ...]], KeyCoding] = {}
        self._parent_codes: dict[tuple[str, str, tuple[str, ...]], np.ndarray] = {}
        self._column_codings: dict[tuple[str, str], tuple[list, np.ndarray]] = {}

    @property
    def db(self) -> Database:
        db = self._db_ref()
        if db is None:
            raise RuntimeError(
                "the database backing this ColumnStore was garbage-collected"
            )
        return db

    # -- per-relation arrays ----------------------------------------------

    def records(self, relation: str) -> list:
        with self._lock:
            recs = self._records.get(relation)
            if recs is None:
                recs = list(self.db.relation(relation).data)
                self._records[relation] = recs
            return recs

    def n_rows(self, relation: str) -> int:
        return len(self.records(relation))

    def mult(self, relation: str) -> np.ndarray:
        with self._lock:
            arr = self._mult.get(relation)
            if arr is None:
                arr = np.array(
                    list(self.db.relation(relation).data.values()), dtype=np.float64
                )
                self._mult[relation] = arr
            return arr

    def float_col(self, relation: str, attr: str) -> np.ndarray:
        with self._lock:
            col = self._float_cols.get((relation, attr))
            if col is None:
                col = np.array(
                    [rec[attr] for rec in self.records(relation)], dtype=np.float64
                )
                self._float_cols[(relation, attr)] = col
            return col

    def raw_col(self, relation: str, attr: str) -> np.ndarray:
        """Natural-dtype column (ints stay ints; used for coded features)."""
        with self._lock:
            col = self._raw_cols.get((relation, attr))
            if col is None:
                col = np.array([rec[attr] for rec in self.records(relation)])
                self._raw_cols[(relation, attr)] = col
            return col

    # -- join-key codings --------------------------------------------------

    def _packed_key_col(
        self, relation: str, key_attrs: tuple[str, ...]
    ) -> np.ndarray | None:
        """One ndarray carrying the key tuple per row, or ``None``.

        Single-attribute keys are the column itself; two integer
        attributes of moderate range pack collision-free into one int64
        (the C++ backend's packing, here with a range guard so negative
        and large surrogates fall back to the loop coding).
        """
        if len(key_attrs) == 1:
            return self.raw_col(relation, key_attrs[0])
        if len(key_attrs) == 2:
            a = self.raw_col(relation, key_attrs[0])
            b = self.raw_col(relation, key_attrs[1])
            if (
                a.size
                and np.issubdtype(a.dtype, np.integer)
                and np.issubdtype(b.dtype, np.integer)
                and int(np.abs(a).max()) < 2**30
                and int(np.abs(b).max()) < 2**31
            ):
                return a.astype(np.int64) * (1 << 32) + b.astype(np.int64)
        return None

    def key_coding(self, relation: str, key_attrs: tuple[str, ...]) -> KeyCoding:
        """Dense codes of ``relation``'s rows by their ``key_attrs`` tuple.

        Vectorized (``np.unique`` over the packed key column) when the
        key packs into one comparable ndarray; otherwise a first-seen
        Python loop.  Either way the last occurrence of a key is its
        representative row (the bag-join convention the engines share).
        """
        with self._lock:
            coding = self._key_codings.get((relation, key_attrs))
            if coding is not None:
                return coding
            coding = self._vectorized_key_coding(relation, key_attrs)
            if coding is None:
                coding = self._loop_key_coding(relation, key_attrs)
            self._key_codings[(relation, key_attrs)] = coding
            return coding

    def _vectorized_key_coding(
        self, relation: str, key_attrs: tuple[str, ...]
    ) -> KeyCoding | None:
        packed = self._packed_key_col(relation, key_attrs)
        if packed is None:
            return None
        try:
            values, codes = np.unique(packed, return_inverse=True)
        except TypeError:  # incomparable object column
            return None
        codes = codes.astype(np.intp, copy=False)
        key_row = np.empty(len(values), dtype=np.intp)
        # Duplicate fancy indices keep the last write: last occurrence.
        key_row[codes] = np.arange(len(codes), dtype=np.intp)
        return KeyCoding(
            codes=codes,
            n_keys=len(values),
            key_row=key_row,
            unique=len(values) == len(codes),
            values=values,
        )

    def _loop_key_coding(self, relation: str, key_attrs: tuple[str, ...]) -> KeyCoding:
        records = self.records(relation)
        table: dict[tuple, int] = {}
        codes = np.empty(len(records), dtype=np.intp)
        key_row: list[int] = []
        unique = True
        for i, rec in enumerate(records):
            key = tuple(rec[a] for a in key_attrs)
            code = table.get(key)
            if code is None:
                table[key] = code = len(table)
                key_row.append(i)
            else:
                key_row[code] = i  # last occurrence wins (bag join)
                unique = False
            codes[i] = code
        return KeyCoding(
            codes=codes,
            n_keys=len(table),
            key_row=np.array(key_row, dtype=np.intp),
            unique=unique,
            table=table,
        )

    def parent_codes(
        self, parent: str, child: str, key_attrs: tuple[str, ...]
    ) -> np.ndarray:
        """For each ``parent`` row, the child key-table code (-1 dangling)."""
        with self._lock:
            codes = self._parent_codes.get((parent, child, key_attrs))
            if codes is not None:
                return codes
            coding = self.key_coding(child, key_attrs)
            codes = None
            if coding.values is not None:
                packed = self._packed_key_col(parent, key_attrs)
                if packed is not None:
                    try:
                        pos = np.searchsorted(coding.values, packed)
                    except TypeError:
                        pos = None
                    if pos is not None:
                        clipped = np.minimum(pos, max(coding.n_keys - 1, 0))
                        hit = (
                            (coding.values[clipped] == packed)
                            if coding.n_keys
                            else np.zeros(len(packed), dtype=bool)
                        )
                        codes = np.where(hit, clipped, -1).astype(np.intp, copy=False)
            if codes is None:
                table = coding.table
                if table is None:
                    # Vectorized child coding but unpackable parent
                    # side: rebuild a tuple-keyed table from the child
                    # records (codes are per-row, duplicates agree).
                    table = {
                        tuple(rec[a] for a in key_attrs): int(coding.codes[i])
                        for i, rec in enumerate(self.records(child))
                    }
                records = self.records(parent)
                codes = np.empty(len(records), dtype=np.intp)
                for i, rec in enumerate(records):
                    codes[i] = table.get(tuple(rec[a] for a in key_attrs), -1)
            self._parent_codes[(parent, child, key_attrs)] = codes
            return codes

    # -- value codings (group-by key tables) ------------------------------

    def column_coding(self, relation: str, attr: str) -> tuple[list, np.ndarray]:
        """Dense codes for one column (the group-by key tables).

        Vectorized via ``np.unique`` (codes in sorted-value order) with
        a first-seen loop fallback for incomparable object columns; the
        key list always holds native Python values, so group
        dictionaries compare equal to the interpreted engine's.  Code
        numbering is bijection-invariant for every group fold.
        """
        with self._lock:
            coding = self._column_codings.get((relation, attr))
            if coding is not None:
                return coding
            col = self.raw_col(relation, attr)
            try:
                values, codes = np.unique(col, return_inverse=True)
                coding = (values.tolist(), codes.astype(np.intp, copy=False))
            except TypeError:
                records = self.records(relation)
                table: dict[Any, int] = {}
                codes = np.empty(len(records), dtype=np.intp)
                for i, rec in enumerate(records):
                    codes[i] = table.setdefault(rec[attr], len(table))
                coding = (list(table), codes)
            self._column_codings[(relation, attr)] = coding
            return coding

    # -- streaming ingest: delta extension & invalidation ------------------

    @staticmethod
    def _scan_key_mentions(scan_key: tuple, relation: str) -> bool:
        """Whether a structural scan key's subtree touches ``relation``."""
        rel, _parent_key, _owned, children = scan_key
        if rel == relation:
            return True
        return any(ColumnStore._scan_key_mentions(c, relation) for c in children)

    def _drop_eval_entries(self, relation: str) -> int:
        stale = [k for k in self.eval_cache if self._scan_key_mentions(k, relation)]
        for key in stale:
            del self.eval_cache[key]
        return len(stale)

    def _lookup_codes(
        self, child: str, key_attrs: tuple[str, ...], coding: KeyCoding, records: list
    ) -> np.ndarray:
        """Child key-table codes for a short record list (-1 dangling)."""
        table = coding.table
        if table is None:
            table = {
                tuple(rec[a] for a in key_attrs): int(coding.codes[i])
                for i, rec in enumerate(self.records(child))
            }
        codes = np.empty(len(records), dtype=np.intp)
        for i, rec in enumerate(records):
            codes[i] = table.get(tuple(rec[a] for a in key_attrs), -1)
        return codes

    def extend_relation(self, relation: str) -> int:
        """Extend memos in place after a **pure append** to ``relation``.

        The delta half of the ingest contract: appended records extend
        the relation's record list, multiplicity vector and columns;
        codings keep every existing code stable (new keys/values get
        fresh codes at the end — safe by the renumbering-invariance
        contract) so group dictionaries and cached delta states stay
        addressable.  What cannot be extended is dropped and rebuilds
        lazily:

        * vectorized (sorted-values) key codings of the relation —
          appending would break sortedness;
        * parent→child code maps where the relation is the *child* — a
          previously dangling parent row may join a newly appended key;
        * memoized subtree evaluations whose scan key touches the
          relation (and only those — sibling subtrees stay cached).

        Callers must hold off concurrent readers (the serving layer's
        writer barrier); only call after ``AppendDelta.pure_append``
        ingests — multiplicity bumps need :meth:`invalidate_relation`.
        Returns the number of memo entries invalidated.
        """
        with self._lock:
            db_rel = self.db.relation(relation)
            all_records = list(db_rel.data)
            n_total = len(all_records)
            invalidated = 0

            recs = self._records.get(relation)
            if recs is not None and len(recs) < n_total:
                recs.extend(all_records[len(recs):])

            arr = self._mult.get(relation)
            if arr is not None and len(arr) < n_total:
                tail = list(db_rel.data.values())[len(arr):]
                self._mult[relation] = np.concatenate(
                    [arr, np.array(tail, dtype=np.float64)]
                )

            for (rel, attr), col in list(self._float_cols.items()):
                if rel == relation and len(col) < n_total:
                    tail_vals = np.array(
                        [rec[attr] for rec in all_records[len(col):]],
                        dtype=np.float64,
                    )
                    self._float_cols[(rel, attr)] = np.concatenate([col, tail_vals])
            for (rel, attr), col in list(self._raw_cols.items()):
                if rel == relation and len(col) < n_total:
                    tail_raw = np.array([rec[attr] for rec in all_records[len(col):]])
                    self._raw_cols[(rel, attr)] = np.concatenate([col, tail_raw])

            for (rel, attrs), coding in list(self._key_codings.items()):
                if rel != relation or len(coding.codes) == n_total:
                    continue
                if coding.table is None:
                    # Sorted-values coding: appending breaks sortedness.
                    del self._key_codings[(rel, attrs)]
                    invalidated += 1
                    continue
                tail_records = all_records[len(coding.codes):]
                table = coding.table  # owned by this coding alone
                tail_codes = np.empty(len(tail_records), dtype=np.intp)
                key_row = list(coding.key_row)
                unique = coding.unique
                for j, rec in enumerate(tail_records):
                    key = tuple(rec[a] for a in attrs)
                    code = table.get(key)
                    row = len(coding.codes) + j
                    if code is None:
                        table[key] = code = len(table)
                        key_row.append(row)
                    else:
                        key_row[code] = row  # last occurrence wins (bag join)
                        unique = False
                    tail_codes[j] = code
                self._key_codings[(rel, attrs)] = KeyCoding(
                    codes=np.concatenate([coding.codes, tail_codes]),
                    n_keys=len(table),
                    key_row=np.array(key_row, dtype=np.intp),
                    unique=unique,
                    table=table,
                )

            # Directional parent→child maps: with the relation as the
            # child, previously dangling parent rows may now join — drop;
            # with the relation as the parent, extend with tail lookups.
            for key in [k for k in self._parent_codes if k[1] == relation]:
                del self._parent_codes[key]
                invalidated += 1
            for key in [k for k in self._parent_codes if k[0] == relation]:
                _parent, child, attrs = key
                codes = self._parent_codes[key]
                if len(codes) == n_total:
                    continue
                tail_records = all_records[len(codes):]
                coding = self.key_coding(child, attrs)
                tail_codes = self._lookup_codes(child, attrs, coding, tail_records)
                self._parent_codes[key] = np.concatenate([codes, tail_codes])

            for (rel, attr), (keys, codes) in list(self._column_codings.items()):
                if rel != relation or len(codes) == n_total:
                    continue
                lookup = {v: i for i, v in enumerate(keys)}
                tail_records = all_records[len(codes):]
                tail_codes = np.empty(len(tail_records), dtype=np.intp)
                for i, rec in enumerate(tail_records):
                    value = rec[attr]
                    code = lookup.get(value)
                    if code is None:
                        lookup[value] = code = len(keys)
                        keys.append(value)  # in place: codes stay stable
                    tail_codes[i] = code
                self._column_codings[(rel, attr)] = (
                    keys, np.concatenate([codes, tail_codes])
                )

            invalidated += self._drop_eval_entries(relation)
            self.data_version += 1
            _STATS.delta_extends += 1
            _STATS.memo_invalidations += invalidated
            return invalidated

    def invalidate_relation(self, relation: str) -> int:
        """Drop every memo touching ``relation`` (non-pure ingests).

        The fallback half of the ingest contract: a multiplicity bump
        rewrites a pre-existing record in place, so extended arrays
        would carry stale prefixes — everything derived from the
        relation (and every subtree evaluation whose scan key touches
        it) drops and rebuilds lazily on next use.  Returns the number
        of memo entries invalidated.
        """
        with self._lock:
            invalidated = 0
            if self._records.pop(relation, None) is not None:
                invalidated += 1
            if self._mult.pop(relation, None) is not None:
                invalidated += 1
            for memo in (self._float_cols, self._raw_cols, self._column_codings):
                for key in [k for k in memo if k[0] == relation]:
                    del memo[key]
                    invalidated += 1
            for key in [k for k in self._key_codings if k[0] == relation]:
                del self._key_codings[key]
                invalidated += 1
            for key in [k for k in self._parent_codes if relation in k[:2]]:
                del self._parent_codes[key]
                invalidated += 1
            invalidated += self._drop_eval_entries(relation)
            self.data_version += 1
            _STATS.memo_invalidations += invalidated
            return invalidated

    # -- size accounting ---------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Approximate memory footprint of the store's memo tables.

        ``ndarray_bytes`` sums ``nbytes`` over every materialized
        column, multiplicity vector, key/parent/value coding and cached
        eval-array; ``record_rows`` counts the Python record-list rows
        (shared with the database, so they are reported but not priced
        into the byte estimate).  Long-lived serving processes can
        watch ``approx_bytes`` per database (it is reported in
        :meth:`~repro.serving.service.AggregateService.stats_dict`) and
        evict stores with :func:`evict_column_store`.

        Every call walks the memo tables afresh, so arrays replaced or
        extended in place are always re-measured; callers are reports,
        not hot loops.
        """

        def _nbytes(obj) -> int:
            if isinstance(obj, np.ndarray):
                return obj.nbytes
            if isinstance(obj, (tuple, list)):
                return sum(_nbytes(o) for o in obj)
            if isinstance(obj, dict):
                return sum(_nbytes(o) for o in obj.values())
            return 0

        with self._lock:
            ndarray_bytes = 0
            for arr in self._mult.values():
                ndarray_bytes += arr.nbytes
            for table in (self._float_cols, self._raw_cols, self._parent_codes):
                for arr in table.values():
                    ndarray_bytes += arr.nbytes
            for coding in self._key_codings.values():
                ndarray_bytes += coding.codes.nbytes + coding.key_row.nbytes
                if coding.values is not None:
                    ndarray_bytes += coding.values.nbytes
            for _keys, codes in self._column_codings.values():
                ndarray_bytes += codes.nbytes
            eval_bytes = _nbytes(self.eval_cache)
            return {
                "relations": len(self._records),
                "record_rows": sum(len(r) for r in self._records.values()),
                "key_codings": len(self._key_codings),
                "parent_code_maps": len(self._parent_codes),
                "column_codings": len(self._column_codings),
                "eval_entries": len(self.eval_cache),
                "ndarray_bytes": int(ndarray_bytes),
                "eval_bytes": int(eval_bytes),
                "approx_bytes": int(ndarray_bytes + eval_bytes),
            }

    # -- predicate masks ---------------------------------------------------

    def predicate_masks(
        self, predicates, relations: Iterable[str] | None = None
    ) -> dict[str, np.ndarray]:
        """Per-relation alive masks for δ conditions.

        Structured conditions (objects exposing ``feature``/``op``/
        ``threshold``, i.e. the CART learner's
        :class:`~repro.ml.regression_tree.Condition`) evaluate
        vectorized on the owning relation's column; opaque callables
        fall back to a per-record loop over that relation only.
        ``relations`` restricts the mask set (a plan view passes the
        relations of its tree); predicates on absent relations are
        ignored, matching the per-plan behaviour.
        """
        masks: dict[str, np.ndarray] = {}
        if not predicates:
            return masks
        wanted = set(relations) if relations is not None else None
        for rel_name, preds in predicates.items():
            if not preds or rel_name not in self.db.relations:
                continue
            if wanted is not None and rel_name not in wanted:
                continue
            records = self.records(rel_name)
            mask = np.ones(len(records), dtype=bool)
            for p in preds:
                feature = getattr(p, "feature", None)
                op = getattr(p, "op", None)
                if feature is not None and op in ("<=", ">"):
                    col = self.raw_col(rel_name, feature)
                    threshold = p.threshold
                    mask &= col <= threshold if op == "<=" else col > threshold
                else:
                    mask &= np.fromiter(
                        (bool(p(rec)) for rec in records),
                        dtype=bool,
                        count=len(records),
                    )
            masks[rel_name] = mask
        return masks


# -- process-wide store registry -------------------------------------------


@dataclass
class StoreStats:
    """Build/hit counters for the store registry (benchmark reporting)."""

    builds: int = 0
    hits: int = 0
    #: pure-append delta extensions applied (streaming ingest)
    delta_extends: int = 0
    #: memo entries dropped by delta extension / relation invalidation
    memo_invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.builds + self.hits
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, int | float]:
        return {
            "builds": self.builds,
            "hits": self.hits,
            "hit_rate": round(self.hit_rate, 4),
            "delta_extends": self.delta_extends,
            "memo_invalidations": self.memo_invalidations,
        }


_STORES: dict[int, tuple[weakref.ref, ColumnStore]] = {}
# Reentrant: building a store allocates, allocation can run the cyclic
# collector, and a collected database's eviction callback then takes
# this lock on the thread already holding it.
_STORES_LOCK = threading.RLock()
_STATS = StoreStats()


def column_store(db: Database) -> ColumnStore:
    """The shared :class:`ColumnStore` for ``db``, built once per database.

    Keyed by database identity; the weak reference both guards against
    id reuse and evicts the store when the database is collected, so
    long-lived processes (the kernel cache outlives databases) do not
    pin dead columnar copies.
    """
    key = id(db)
    with _STORES_LOCK:
        entry = _STORES.get(key)
        if entry is not None:
            db_ref, store = entry
            if db_ref() is db:
                _STATS.hits += 1
                return store
        store = ColumnStore(db)
        _STATS.builds += 1
        _STORES[key] = (weakref.ref(db, lambda _ref: _evict(key)), store)
        return store


def _evict(key: int) -> None:
    stores, lock = _STORES, _STORES_LOCK
    if stores is None or lock is None:  # interpreter shutdown
        return
    with lock:
        stores.pop(key, None)


def peek_column_store(db: Database) -> ColumnStore | None:
    """The cached store for ``db`` if one exists — never builds.

    Monitoring paths (the serving layer's per-database size report)
    use this so asking "how big is the store?" does not itself
    materialize a store for databases that only ever ran on
    non-columnar backends.
    """
    with _STORES_LOCK:
        entry = _STORES.get(id(db))
        if entry is not None:
            db_ref, store = entry
            if db_ref() is db:
                return store
    return None


def evict_column_store(db: Database) -> bool:
    """Drop the cached store for ``db`` (if any); returns whether one existed.

    The registry already evicts stores when their database is
    collected; this is the eager variant for serving processes that
    unregister a database while still holding other references to it.
    """
    key = id(db)
    with _STORES_LOCK:
        entry = _STORES.get(key)
        if entry is None or entry[0]() is not db:
            return False
        del _STORES[key]
        return True


def column_store_stats() -> StoreStats:
    """Process-wide store build/hit counters."""
    return _STATS


def reset_column_store_stats() -> None:
    _STATS.builds = 0
    _STATS.hits = 0
    _STATS.delta_extends = 0
    _STATS.memo_invalidations = 0


def clear_column_stores() -> int:
    """Drop every cached store (tests / memory pressure); returns count."""
    with _STORES_LOCK:
        n = len(_STORES)
        _STORES.clear()
    return n
