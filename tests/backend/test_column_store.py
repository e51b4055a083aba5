"""The shared per-database ColumnStore: memoization, codings, lifecycle."""

import gc
import weakref

import numpy as np
import pytest

from repro.backend import column_store
from repro.backend.column_store import ColumnStore
from repro.db import Database, Relation, RelationSchema
from repro.ir.types import INT, REAL


def _db():
    fact = Relation.from_rows(
        RelationSchema.of("F", [("k", INT), ("y", REAL)]),
        [(i % 4, float(i)) for i in range(20)],
    )
    dim = Relation.from_rows(
        RelationSchema.of("D", [("k", INT), ("a", REAL)]),
        [(k, float(10 * k)) for k in range(4)],
    )
    return Database.of(fact, dim)


class TestMemoization:
    def test_same_store_per_database(self):
        db = _db()
        assert column_store(db) is column_store(db)

    def test_columns_and_codings_are_memoized(self):
        db = _db()
        store = column_store(db)
        assert store.mult("F") is store.mult("F")
        assert store.raw_col("F", "y") is store.raw_col("F", "y")
        assert store.key_coding("D", ("k",)) is store.key_coding("D", ("k",))
        assert store.parent_codes("F", "D", ("k",)) is store.parent_codes(
            "F", "D", ("k",)
        )


class TestKeyCodings:
    def test_vectorized_matches_loop_coding(self):
        """Sorted-order codes describe the same key partition as the
        first-seen loop codes (renumbering-invariant join semantics)."""
        db = _db()
        store = ColumnStore(db)
        fast = store._vectorized_key_coding("F", ("k",))
        slow = store._loop_key_coding("F", ("k",))
        assert fast is not None
        assert fast.n_keys == slow.n_keys
        assert fast.unique == slow.unique
        # Same rows grouped together, same representative rows per key.
        for coding in (fast, slow):
            by_code = {}
            for row, code in enumerate(coding.codes):
                by_code.setdefault(int(code), []).append(row)
        fast_groups = {tuple(np.flatnonzero(fast.codes == c)) for c in range(fast.n_keys)}
        slow_groups = {tuple(np.flatnonzero(slow.codes == c)) for c in range(slow.n_keys)}
        assert fast_groups == slow_groups
        assert set(fast.key_row.tolist()) == set(slow.key_row.tolist())

    def test_dangling_parent_keys_code_minus_one(self):
        fact = Relation.from_rows(
            RelationSchema.of("F", [("k", INT), ("y", REAL)]), [(0, 1.0), (9, 2.0)]
        )
        dim = Relation.from_rows(
            RelationSchema.of("D", [("k", INT), ("a", REAL)]), [(0, 1.0)]
        )
        db = Database.of(fact, dim)
        store = ColumnStore(db)
        assert store.parent_codes("F", "D", ("k",)).tolist() == [0, -1]

    def test_two_attribute_int_keys_pack(self):
        left = Relation.from_rows(
            RelationSchema.of("L", [("a", INT), ("b", INT), ("x", REAL)]),
            [(1, 2, 1.0), (1, 3, 2.0), (1, 2, 3.0)],
        )
        db = Database.of(left)
        store = ColumnStore(db)
        coding = store.key_coding("L", ("a", "b"))
        assert coding.values is not None  # vectorized path taken
        assert coding.n_keys == 2
        assert coding.codes[0] == coding.codes[2] != coding.codes[1]

    def test_negative_wide_keys_fall_back_to_loop(self):
        left = Relation.from_rows(
            RelationSchema.of("L", [("a", INT), ("b", INT), ("x", REAL)]),
            [(2**40, -5, 1.0), (0, 7, 2.0)],
        )
        db = Database.of(left)
        store = ColumnStore(db)
        coding = store.key_coding("L", ("a", "b"))
        assert coding.table is not None  # loop path taken
        assert coding.n_keys == 2


class TestStats:
    def test_stats_track_materialized_memos(self):
        db = _db()
        store = column_store(db)
        empty = store.stats()
        assert empty["relations"] == 0
        assert empty["approx_bytes"] == 0

        store.mult("F")
        store.float_col("F", "y")
        store.key_coding("D", ("k",))
        store.parent_codes("F", "D", ("k",))
        store.column_coding("F", "k")
        stats = store.stats()
        assert stats["relations"] >= 2
        assert stats["record_rows"] == 24
        assert stats["key_codings"] == 1
        assert stats["parent_code_maps"] == 1
        assert stats["column_codings"] == 1
        # Byte estimate covers at least the arrays we can count directly.
        floor = store.mult("F").nbytes + store.float_col("F", "y").nbytes
        assert stats["ndarray_bytes"] >= floor
        assert stats["approx_bytes"] >= stats["ndarray_bytes"]

    def test_stats_include_eval_cache_arrays(self):
        db = _db()
        store = column_store(db)
        base = store.stats()["approx_bytes"]
        store.eval_cache["scan-key"] = (np.ones(100), np.ones(100, dtype=bool))
        stats = store.stats()
        assert stats["eval_entries"] == 1
        assert stats["eval_bytes"] >= 800
        assert stats["approx_bytes"] > base

    def test_evict_column_store(self):
        from repro.backend import evict_column_store, peek_column_store

        db = _db()
        assert peek_column_store(db) is None  # peek never builds
        store = column_store(db)
        assert peek_column_store(db) is store
        assert evict_column_store(db)
        assert peek_column_store(db) is None
        assert not evict_column_store(db)


class TestLifecycle:
    def test_store_does_not_pin_the_database(self):
        """The registry's weakref eviction must actually fire: the
        store holds its database weakly, so dropping the last user
        reference collects both the database and the cached store."""
        db = _db()
        store_ref = weakref.ref(column_store(db))
        db_ref = weakref.ref(db)
        del db
        gc.collect()
        assert db_ref() is None
        assert store_ref() is None

    def test_dead_store_raises_on_lazy_access(self):
        db = _db()
        store = column_store(db)
        store.mult("F")  # built while the database is alive
        del db
        gc.collect()
        assert store.mult("F") is not None  # memoized arrays survive
        with pytest.raises(RuntimeError, match="garbage-collected"):
            store.records("D")  # unbuilt relation needs the database

    def test_collection_during_store_build_does_not_deadlock(self, monkeypatch):
        """A database collected while another's store is being built
        evicts its entry from inside the registry's critical section."""
        import threading

        doomed = _db()
        column_store(doomed)
        doomed.cycle = doomed  # only the cyclic collector frees it
        doomed_ref = weakref.ref(doomed)
        del doomed
        original_init = ColumnStore.__init__

        def init_then_collect(self, db):
            original_init(self, db)
            gc.collect()  # runs the doomed database's eviction callback

        monkeypatch.setattr(ColumnStore, "__init__", init_then_collect)
        build_thread = threading.Thread(target=column_store, args=(_db(),), daemon=True)
        build_thread.start()
        build_thread.join(timeout=10)
        assert not build_thread.is_alive(), "store registry deadlocked"
        assert doomed_ref() is None
