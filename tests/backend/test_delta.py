"""Incremental maintenance: column-store delta extension + delta runs.

The load-bearing contract mirrors the block protocol's: a maintained
state advanced by ``run_delta`` / ``run_groupby_delta`` after a pure
root append must reproduce — with ``==`` on float dictionaries, i.e.
bit identity — the result a *from-scratch* full recompute produces on a
deep copy of the mutated database, for every backend shape (single
numpy, sharded threads, sharded worker processes) and shard count.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.aggregates import build_join_tree, covar_batch, variance_batch
from repro.backend import (
    NumpyBackend,
    ProcessKernelExecutor,
    PythonKernelBackend,
    ShardedBackend,
    build_batch_plan,
    column_store,
    column_store_stats,
    evict_column_store,
    reset_column_store_stats,
)
from repro.backend.column_store import ColumnStore
from repro.backend.layout import LAYOUT_SORTED
from repro.db import Database, Relation
from repro.ml.regression_tree import Condition

FEATURES = ["cityf", "price"]
LABEL = "units"

PRICE_PREDICATES = {"I": [Condition("price", "<=", 25.0)]}
#: a root (S) predicate cutting both the fixture's and the appended rows
UNITS_PREDICATES = {"S": [Condition("units", ">", 5.0), Condition("units", "<=", 1030.0)]}


@pytest.fixture(scope="module")
def pool():
    executor = ProcessKernelExecutor(workers=2)
    yield executor
    executor.shutdown()


def plain_plan(db, query):
    tree = build_join_tree(db.schema(), query.relations, stats=db.statistics())
    return build_batch_plan(db, tree, covar_batch(FEATURES, label=LABEL))


def groupby_plan(db, query, attr="price"):
    tree = build_join_tree(db.schema(), query.relations, stats=db.statistics())
    return build_batch_plan(db, tree, variance_batch(LABEL), group_attr=attr)


def sale_rows(start, count):
    """Appended sales rows, distinct from the fixture's (units > 10)."""
    return [
        (i % 12, i % 5, 1000.0 + i * 0.5) for i in range(start, start + count)
    ]


def fresh_plain(kernel, db, predicates=None):
    """From-scratch recompute: a deep copy gets its own fresh store."""
    return NumpyBackend(block_size=16).execute(kernel, copy.deepcopy(db), predicates)


def fresh_groupby(kernel, db, predicates=None):
    return NumpyBackend(block_size=16).run_groupby(
        kernel, copy.deepcopy(db), predicates
    )


class TestColumnStoreDelta:
    def test_extend_keeps_old_prefix_bitwise(self, int_star_db):
        store = column_store(int_star_db)
        old_mult = store.mult("S").copy()
        old_units = store.float_col("S", "units").copy()
        old_n = len(old_mult)
        reset_column_store_stats()
        int_star_db.append_rows("S", sale_rows(0, 23))
        store.extend_relation("S")
        assert len(store.mult("S")) == old_n + 23
        assert np.array_equal(store.mult("S")[:old_n], old_mult)
        assert np.array_equal(store.float_col("S", "units")[:old_n], old_units)
        assert column_store_stats().delta_extends == 1

    def test_extend_preserves_column_coding_codes(self, int_star_db):
        store = column_store(int_star_db)
        keys, codes = store.column_coding("S", "units")
        old_keys = list(keys)
        old_codes = codes.copy()
        int_star_db.append_rows("S", sale_rows(100, 9))
        store.extend_relation("S")
        new_keys, new_codes = store.column_coding("S", "units")
        # Old codes are stable; unseen values get fresh codes at the end.
        assert new_keys[: len(old_keys)] == old_keys
        assert np.array_equal(new_codes[: len(old_codes)], old_codes)
        assert len(new_keys) > len(old_keys)

    def test_extend_drops_only_touching_eval_entries(
        self, int_star_db, int_star_query
    ):
        plan = groupby_plan(int_star_db, int_star_query)
        backend = NumpyBackend(block_size=16)
        kernel = backend.compile_plan(plan, LAYOUT_SORTED)
        backend.run_groupby(kernel, int_star_db)  # populate the memo
        store = column_store(int_star_db)
        before = set(store.eval_cache)
        assert before
        int_star_db.append_rows("S", sale_rows(200, 5))
        store.extend_relation("S")
        after = set(store.eval_cache)
        assert after < before  # S-rooted entries dropped...
        for scan_key in after:  # ...and every survivor avoids S
            assert not ColumnStore._scan_key_mentions(scan_key, "S")

    def test_invalidate_relation_forces_rebuild(self, int_star_db):
        store = column_store(int_star_db)
        n_before = len(store.mult("S"))
        total_before = store.mult("S").sum()
        # A duplicate of an existing record is a multiplicity bump —
        # not a pure append — so the caller must invalidate.
        first_row = tuple(next(iter(int_star_db.relation("S").data)).values())
        delta = int_star_db.append_rows("S", [first_row])
        assert not delta.pure_append
        store.invalidate_relation("S")
        assert len(store.mult("S")) == n_before  # distinct count unchanged
        assert store.mult("S").sum() == total_before + 1  # but the bag grew

    def test_stats_see_extension(self, int_star_db):
        store = column_store(int_star_db)
        store.records("S")
        store.mult("S")
        first = store.stats()
        int_star_db.append_rows("S", sale_rows(300, 50))
        store.extend_relation("S")
        second = store.stats()
        assert second["approx_bytes"] > first["approx_bytes"]
        assert second["record_rows"] == first["record_rows"] + 50


class TestNumpyDelta:
    @pytest.mark.parametrize("append_sizes", [[1], [37], [5, 64, 300]])
    def test_plain_delta_bit_identical(
        self, int_star_db, int_star_query, append_sizes
    ):
        backend = NumpyBackend(block_size=16)
        plan = plain_plan(int_star_db, int_star_query)
        kernel = backend.compile_plan(plan, LAYOUT_SORTED)
        result, state = backend.run_maintained(kernel, int_star_db)
        assert result == backend.execute(kernel, int_star_db)
        start = 0
        for size in append_sizes:
            int_star_db.append_rows("S", sale_rows(start, size))
            column_store(int_star_db).extend_relation("S")
            result, state = backend.run_delta(kernel, int_star_db, state)
            assert result == fresh_plain(kernel, int_star_db)
            start += size

    @pytest.mark.parametrize("attr", ["price", "units"])
    @pytest.mark.parametrize("append_sizes", [[1], [5, 64, 300]])
    def test_groupby_delta_bit_identical(
        self, int_star_db, int_star_query, attr, append_sizes
    ):
        """``units`` groups grow with every append (new coding codes);
        ``price`` groups are stable — both must fold bit-identically."""
        backend = NumpyBackend(block_size=16)
        plan = groupby_plan(int_star_db, int_star_query, attr)
        kernel = backend.compile_plan(plan, LAYOUT_SORTED)
        result, state = backend.run_groupby_maintained(kernel, int_star_db)
        assert result == backend.run_groupby(kernel, int_star_db)
        start = 0
        for size in append_sizes:
            int_star_db.append_rows("S", sale_rows(start, size))
            column_store(int_star_db).extend_relation("S")
            result, state = backend.run_groupby_delta(kernel, int_star_db, state)
            assert result == fresh_groupby(kernel, int_star_db)
            start += size

    def test_groupby_delta_with_predicates(self, int_star_db, int_star_query):
        backend = NumpyBackend(block_size=16)
        plan = groupby_plan(int_star_db, int_star_query)
        kernel = backend.compile_plan(plan, LAYOUT_SORTED)
        result, state = backend.run_groupby_maintained(
            kernel, int_star_db, PRICE_PREDICATES
        )
        int_star_db.append_rows("S", sale_rows(0, 90))
        column_store(int_star_db).extend_relation("S")
        result, state = backend.run_groupby_delta(
            kernel, int_star_db, state, PRICE_PREDICATES
        )
        assert result == fresh_groupby(kernel, int_star_db, PRICE_PREDICATES)

    @pytest.mark.parametrize(
        "predicates", [PRICE_PREDICATES, UNITS_PREDICATES], ids=["dimension", "root"]
    )
    def test_plain_delta_with_predicates(self, int_star_db, int_star_query, predicates):
        backend = NumpyBackend(block_size=16)
        kernel = backend.compile_plan(plain_plan(int_star_db, int_star_query), LAYOUT_SORTED)
        result, state = backend.run_maintained(kernel, int_star_db, predicates)
        assert result == backend.execute(kernel, int_star_db, predicates)
        int_star_db.append_rows("S", sale_rows(0, 90))
        column_store(int_star_db).extend_relation("S")
        result, state = backend.run_delta(kernel, int_star_db, state, predicates)
        assert result == fresh_plain(kernel, int_star_db, predicates)

    def test_foreign_state_rejected(self, int_star_db, int_star_query):
        backend = NumpyBackend(block_size=16)
        plain = backend.compile_plan(
            plain_plan(int_star_db, int_star_query), LAYOUT_SORTED
        )
        other = backend.compile_plan(
            build_batch_plan(
                int_star_db,
                build_join_tree(
                    int_star_db.schema(),
                    int_star_query.relations,
                    stats=int_star_db.statistics(),
                ),
                covar_batch(["price"], label=LABEL),
            ),
            LAYOUT_SORTED,
        )
        _, state = backend.run_maintained(plain, int_star_db)
        with pytest.raises(ValueError, match="belongs to kernel"):
            backend.run_delta(other, int_star_db, state)

    def test_rebuilt_store_coding_rejected(self, int_star_db, int_star_query):
        """After the group coding grew, a state folded against a fresh
        (rebuilt, sorted) store must refuse rather than misfold."""
        backend = NumpyBackend(block_size=16)
        plan = groupby_plan(int_star_db, int_star_query, "units")
        kernel = backend.compile_plan(plan, LAYOUT_SORTED)
        _, state = backend.run_groupby_maintained(kernel, int_star_db)
        int_star_db.append_rows("S", sale_rows(0, 40))
        column_store(int_star_db).extend_relation("S")
        _, state = backend.run_groupby_delta(kernel, int_star_db, state)
        evict_column_store(int_star_db)  # rebuild → canonical sorted coding
        int_star_db.append_rows("S", sale_rows(40, 10))
        with pytest.raises(ValueError, match="different group coding"):
            backend.run_groupby_delta(kernel, int_star_db, state)

    def test_shrunk_database_rejected(self, int_star_db, int_star_query):
        backend = NumpyBackend(block_size=16)
        plan = plain_plan(int_star_db, int_star_query)
        kernel = backend.compile_plan(plan, LAYOUT_SORTED)
        _, state = backend.run_maintained(kernel, int_star_db)
        sales = int_star_db.relation("S")
        sales.data.pop(next(iter(sales.data)))
        evict_column_store(int_star_db)
        with pytest.raises(ValueError, match="shrank"):
            backend.run_delta(kernel, int_star_db, state)

    def test_unextended_store_rejected(self, int_star_db, int_star_query):
        """``append_rows`` without ``extend_relation``: the store's root
        snapshot is short of the live relation, and a delta computed
        from it would silently serve the pre-append result — both the
        single-shot and sharded entry points must refuse instead."""
        backend = NumpyBackend(block_size=16)
        plain = backend.compile_plan(
            plain_plan(int_star_db, int_star_query), LAYOUT_SORTED
        )
        group = backend.compile_plan(  # "units" keeps the plan rooted at S
            groupby_plan(int_star_db, int_star_query, "units"), LAYOUT_SORTED
        )
        _, vstate = backend.run_maintained(plain, int_star_db)
        _, gstate = backend.run_groupby_maintained(group, int_star_db)
        int_star_db.append_rows("S", sale_rows(0, 20))  # no extend_relation
        with pytest.raises(ValueError, match="stale"):
            backend.run_delta(plain, int_star_db, vstate)
        with pytest.raises(ValueError, match="stale"):
            backend.run_groupby_delta(group, int_star_db, gstate)
        sharded = ShardedBackend(inner=backend, shards=2)
        with pytest.raises(ValueError, match="stale"):
            sharded.run_delta(plain, int_star_db, vstate)
        with pytest.raises(ValueError, match="stale"):
            sharded.run_groupby_delta(group, int_star_db, gstate)


class TestShardedDelta:
    """Delta runs dispatch through shard threads and worker processes
    with the same bit-identity guarantee as full runs."""

    @pytest.mark.parametrize("shards", [1, 2, 5])
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_plain_delta(self, pool, int_star_db, int_star_query, shards, mode):
        inner = NumpyBackend(block_size=16)
        plan = plain_plan(int_star_db, int_star_query)
        kernel = inner.compile_plan(plan, LAYOUT_SORTED)
        sharded = ShardedBackend(
            inner=inner, shards=shards, mode=mode, executor=pool
        )
        result, state = sharded.run_maintained(kernel, int_star_db)
        assert result == fresh_plain(kernel, int_star_db)
        for start, size in ((0, 18), (18, 120)):
            int_star_db.append_rows("S", sale_rows(start, size))
            column_store(int_star_db).extend_relation("S")
            result, state = sharded.run_delta(kernel, int_star_db, state)
            assert result == fresh_plain(kernel, int_star_db)

    @pytest.mark.parametrize("shards", [1, 2, 5])
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_groupby_delta_growing_groups(
        self, pool, int_star_db, int_star_query, shards, mode
    ):
        """Group by ``units``: every append adds unseen group values, so
        worker processes (fresh canonical coding) exercise the
        remap-onto-extended-coding path."""
        inner = NumpyBackend(block_size=16)
        plan = groupby_plan(int_star_db, int_star_query, "units")
        kernel = inner.compile_plan(plan, LAYOUT_SORTED)
        sharded = ShardedBackend(
            inner=inner, shards=shards, mode=mode, executor=pool
        )
        result, state = sharded.run_groupby_maintained(kernel, int_star_db)
        assert result == fresh_groupby(kernel, int_star_db)
        for start, size in ((0, 18), (18, 120)):
            int_star_db.append_rows("S", sale_rows(start, size))
            column_store(int_star_db).extend_relation("S")
            result, state = sharded.run_groupby_delta(kernel, int_star_db, state)
            assert result == fresh_groupby(kernel, int_star_db)

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_groupby_delta_with_predicates(
        self, pool, int_star_db, int_star_query, mode
    ):
        inner = NumpyBackend(block_size=16)
        plan = groupby_plan(int_star_db, int_star_query)
        kernel = inner.compile_plan(plan, LAYOUT_SORTED)
        sharded = ShardedBackend(
            inner=inner, shards=3, mode=mode, executor=pool
        )
        result, state = sharded.run_groupby_maintained(
            kernel, int_star_db, PRICE_PREDICATES
        )
        int_star_db.append_rows("S", sale_rows(0, 75))
        column_store(int_star_db).extend_relation("S")
        result, state = sharded.run_groupby_delta(
            kernel, int_star_db, state, PRICE_PREDICATES
        )
        assert result == fresh_groupby(kernel, int_star_db, PRICE_PREDICATES)

    @pytest.mark.parametrize(
        "predicates", [PRICE_PREDICATES, UNITS_PREDICATES], ids=["dimension", "root"]
    )
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_plain_delta_with_predicates(
        self, pool, int_star_db, int_star_query, mode, predicates
    ):
        inner = NumpyBackend(block_size=16)
        kernel = inner.compile_plan(plain_plan(int_star_db, int_star_query), LAYOUT_SORTED)
        sharded = ShardedBackend(inner=inner, shards=3, mode=mode, executor=pool)
        result, state = sharded.run_maintained(kernel, int_star_db, predicates)
        assert result == fresh_plain(kernel, int_star_db, predicates)
        int_star_db.append_rows("S", sale_rows(0, 75))
        column_store(int_star_db).extend_relation("S")
        result, state = sharded.run_delta(kernel, int_star_db, state, predicates)
        assert result == fresh_plain(kernel, int_star_db, predicates)


def empty_root(db, plan):
    """A database sharing ``db``'s relations except the plan's root,
    which keeps its schema but has no rows."""
    root = db.relation(plan.root.relation)
    return Database({**db.relations, root.name: Relation(root.schema, {})})


#: (inner backend, shard mode or None for single-shot, maintained kinds)
EMPTY_ROOT_ROUTES = [
    ("numpy", None, ("plain", "groupby")),
    ("python", None, ()),
    ("numpy", "thread", ("plain", "groupby")),
    ("numpy", "process", ("plain", "groupby")),
    ("python", "thread", ("plain",)),
    ("python", "process", ("plain",)),
]


class TestEmptyRoot:
    """Every route folds an empty root relation to the zero vector (or
    no groups), and a maintained state over it advances like any other."""

    @staticmethod
    def _kernels(backend, db, query):
        plain = backend.compile_plan(plain_plan(db, query), LAYOUT_SORTED)
        # "units" keeps the group-by plan rooted at S, like the plain one.
        group = backend.compile_plan(groupby_plan(db, query, "units"), LAYOUT_SORTED)
        assert plain.plan.root.relation == group.plan.root.relation == "S"
        return plain, group

    @pytest.mark.parametrize("inner,mode,maintained", EMPTY_ROOT_ROUTES)
    def test_empty_root_folds_to_zero(
        self, pool, int_star_db, int_star_query, inner, mode, maintained
    ):
        backend = {"numpy": NumpyBackend, "python": PythonKernelBackend}[inner](
            block_size=16
        )
        if mode is not None:
            backend = ShardedBackend(inner=backend, shards=2, mode=mode, executor=pool)
        plain, group = self._kernels(backend, int_star_db, int_star_query)
        db = empty_root(int_star_db, plain.plan)
        zeros = plain.result_dict([0.0] * plain.plan.num_aggregates)
        assert backend.execute(plain, db) == zeros
        assert backend.run_groupby(group, db) == {}
        if "plain" in maintained:
            assert backend.run_maintained(plain, db)[0] == zeros
        if "groupby" in maintained:
            assert backend.run_groupby_maintained(group, db)[0] == {}

    @pytest.mark.parametrize("mode", [None, "thread", "process"])
    def test_first_append_after_empty_root(
        self, pool, int_star_db, int_star_query, mode
    ):
        backend = NumpyBackend(block_size=16)
        if mode is not None:
            backend = ShardedBackend(inner=backend, shards=2, mode=mode, executor=pool)
        plain, group = self._kernels(backend, int_star_db, int_star_query)
        db = empty_root(int_star_db, plain.plan)
        _, vstate = backend.run_maintained(plain, db)
        _, gstate = backend.run_groupby_maintained(group, db)
        db.append_rows("S", sale_rows(0, 37))
        column_store(db).extend_relation("S")
        assert backend.run_delta(plain, db, vstate)[0] == fresh_plain(plain, db)
        assert backend.run_groupby_delta(group, db, gstate)[0] == fresh_groupby(group, db)
