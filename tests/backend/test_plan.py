"""Physical plans and data loaders."""

from repro.aggregates import build_join_tree, covar_batch
from repro.backend.layout import (
    LAYOUT_ARRAYS,
    LAYOUT_BASELINE,
    LAYOUT_SCALARIZED,
    LAYOUT_SORTED,
    FIGURE_7B_LADDER,
    LayoutOptions,
)
from repro.backend.plan import (
    build_batch_plan,
    prepare_arrays,
    prepare_data,
    prepare_dicts,
    prepare_sorted,
    prepare_tuple_dicts,
)
from repro.db import Database, Relation


def make_plan(db, query):
    batch = covar_batch(["cityf", "price"], label="units")
    tree = build_join_tree(db.schema(), query.relations, stats=db.statistics())
    return build_batch_plan(db, tree, batch)


class TestBuildPlan:
    def test_columns_cover_keys_and_owned(self, int_star_db, int_star_query):
        plan = make_plan(int_star_db, int_star_query)
        root = plan.root
        assert set(root.columns) >= {"item", "store", "units"}
        for child in root.children:
            assert set(child.parent_key) <= set(child.columns)

    def test_owned_per_spec_alignment(self, int_star_db, int_star_query):
        plan = make_plan(int_star_db, int_star_query)
        assert all(
            len(n.owned_per_spec) == plan.num_aggregates for n in plan.root.walk()
        )

    def test_attr_owned_exactly_once(self, int_star_db, int_star_query):
        plan = make_plan(int_star_db, int_star_query)
        for i, spec in enumerate(plan.batch.specs):
            total = sum(len(n.owned_per_spec[i]) for n in plan.root.walk())
            assert total == spec.degree


class TestDistinctKeyMemo:
    """The planner orders children by distinct join keys, memoized on
    the relation until its next append."""

    def test_relation_append_invalidates(self, int_star_db):
        sales = int_star_db.relation("S")
        assert sales.distinct_key_count(("store",)) == 5
        sales.append_rows([(0, 5, 1.0)])
        assert sales.distinct_key_count(("store",)) == 6

    def test_database_append_invalidates(self, int_star_db):
        sales = int_star_db.relation("S")
        assert sales.distinct_key_count(("store",)) == 5
        int_star_db.append_rows("S", [(0, 5, 1.0), (0, 6, 1.0)])
        assert sales.distinct_key_count(("store",)) == 7

    def test_memo_is_not_part_of_equality(self, int_star_db):
        sales = int_star_db.relation("S")
        copy = Relation(sales.schema, dict(sales.data))
        sales.distinct_key_count(("item",))
        assert sales == copy

    def test_rebuilt_plan_after_order_flipping_append(self, int_star_db, int_star_query):
        before = make_plan(int_star_db, int_star_query)
        assert [c.relation for c in before.root.children] == ["R", "I"]
        # 15 new stores: S now has more distinct stores (20) than items
        # (12), so R must move after I in the root's child order.
        int_star_db.append_rows("S", [(0, s, 1.0) for s in range(5, 20)])
        rebuilt = make_plan(int_star_db, int_star_query)
        fresh_db = Database.of(
            *(Relation(r.schema, dict(r.data)) for r in int_star_db)
        )
        assert [c.relation for c in rebuilt.root.children] == ["I", "R"]
        assert rebuilt == make_plan(fresh_db, int_star_query)

    def test_key_stats_dict_is_filled(self, int_star_db, int_star_query):
        tree = build_join_tree(
            int_star_db.schema(), int_star_query.relations, stats=int_star_db.statistics()
        )
        key_stats: dict = {}
        plan = build_batch_plan(
            int_star_db, tree, covar_batch(["cityf", "price"], label="units"),
            key_stats=key_stats,
        )
        assert key_stats == {("S", ("store",)): 5, ("S", ("item",)): 12}
        assert plan == make_plan(int_star_db, int_star_query)


class TestLoaders:
    def test_arrays_row_shape(self, int_star_db, int_star_query):
        plan = make_plan(int_star_db, int_star_query)
        data = prepare_arrays(int_star_db, plan)
        node = plan.root
        row = data[node.relation][0]
        assert len(row) == len(node.columns) + 1  # + multiplicity

    def test_sorted_is_sorted(self, int_star_db, int_star_query):
        plan = make_plan(int_star_db, int_star_query)
        data = prepare_sorted(int_star_db, plan)
        for child in plan.root.children:
            idx = [child.column_index(a) for a in child.parent_key]
            keys = [tuple(r[i] for i in idx) for r in data[child.relation]]
            assert keys == sorted(keys)

    def test_dict_loaders_preserve_counts(self, int_star_db, int_star_query):
        plan = make_plan(int_star_db, int_star_query)
        tuples = prepare_tuple_dicts(int_star_db, plan)
        dicts = prepare_dicts(int_star_db, plan)
        for node in plan.root.walk():
            rel = int_star_db.relation(node.relation)
            assert sum(tuples[node.relation].values()) == rel.tuple_count()
            assert sum(dicts[node.relation].values()) == rel.tuple_count()

    def test_prepare_data_dispatch(self, int_star_db, int_star_query):
        plan = make_plan(int_star_db, int_star_query)
        assert isinstance(prepare_data(int_star_db, plan, LAYOUT_BASELINE)["S"], dict)
        assert isinstance(prepare_data(int_star_db, plan, LAYOUT_SCALARIZED)["S"], dict)
        assert isinstance(prepare_data(int_star_db, plan, LAYOUT_ARRAYS)["S"], list)
        assert isinstance(prepare_data(int_star_db, plan, LAYOUT_SORTED)["S"], list)


class TestLayoutPresets:
    def test_ladder_is_monotone(self):
        flags_on = []
        for _, layout in FIGURE_7B_LADDER:
            on = sum(
                [layout.static_records, layout.scalar_replacement,
                 layout.dict_to_array, layout.sorted_trie]
            )
            flags_on.append(on)
        assert flags_on == sorted(flags_on)

    def test_with_override(self):
        l = LayoutOptions().with_(sorted_trie=True)
        assert l.sorted_trie and not l.dict_to_array
