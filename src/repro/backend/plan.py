"""Physical plans for aggregate-batch kernels.

A :class:`BatchPlan` fixes everything the code generators need to emit
a specialized kernel: the view-tree shape, the column order of every
relation, which columns each aggregate multiplies at each node, and the
join-key column positions.  The same plan drives the Python and the C++
backend, and the data loaders that prepare relation arrays in the
plan's column order.

**The fingerprint contract** (pinned by ``tests/backend/test_cache.py``
and relied on by the kernel cache, the on-disk source spill and the
serving layer's request coalescing):

1. :meth:`BatchPlan.fingerprint` covers *everything the generated code
   depends on* — tree shape, per-relation column orders, join keys,
   per-spec owned columns, aggregate names, the group attribute, the
   layout flags and the backend's kernel key.  Equal fingerprints ⇒
   byte-identical kernels, so a cached kernel may be substituted for a
   fresh compile anywhere, including across processes.
2. δ predicates are **not** part of the fingerprint: they are
   execution-time arguments, which is what lets one cached group-by
   kernel serve every tree node / filtered serving request.
3. :meth:`BatchPlan.scan_fingerprint` drops the group attribute and
   column orders only: equal scan fingerprints ⇒ the same tree walk
   multiplying the same columns, so a fused execution may compute the
   per-row aggregate values once per scan group and fold them under
   each member's own group coding (the numpy backend's
   ``run_groupby_many`` sharing).
4. Any change to a code generator's output for the same plan must bump
   ``repro.backend.cache.CODEGEN_TAG`` — fingerprints deliberately do
   not hash the generator version.
5. Plans are immutable once :func:`build_batch_plan` returns, so
   fingerprints are memoized per ``(layout, backend)`` on the plan
   instance: a tree node or serving request resolving its kernel pays
   one dict lookup, not a sha256 over the whole plan (and, for a
   :class:`MultiBatchPlan`, over every member).  The memo is not part
   of plan equality and travels with the plan through ``pickle``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields

from repro.aggregates.batch import AggregateBatch
from repro.aggregates.engine import assign_attribute_owners, _owned_attrs
from repro.aggregates.join_tree import JoinTreeNode
from repro.db.database import Database


@dataclass
class NodePlan:
    """Per-relation physical information."""

    relation: str
    #: join attributes with the parent (empty at root)
    parent_key: tuple[str, ...]
    #: one entry per child: its join attributes, in child order
    child_keys: list[tuple[str, ...]] = field(default_factory=list)
    children: list["NodePlan"] = field(default_factory=list)
    #: column order used for this relation's prepared array
    columns: tuple[str, ...] = ()
    #: per batch spec: the columns this node multiplies (with repeats)
    owned_per_spec: list[tuple[str, ...]] = field(default_factory=list)

    def column_index(self, attr: str) -> int:
        return self.columns.index(attr)

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()


@dataclass
class BatchPlan:
    """A complete physical plan for one aggregate batch.

    When ``group_attr`` is set the plan is a *group-by* plan: the root
    is the relation owning the grouping attribute (the tree is rerooted
    during planning), the grouping column is part of the root's column
    order, and kernels compiled from the plan produce one aggregate
    vector per group value instead of a single vector.  Group-by plans
    are first-class cacheable kernels: the tree learner's per-node
    batches share one fingerprint per feature, so every node after the
    first is a :class:`~repro.backend.cache.KernelCache` hit.
    """

    root: NodePlan
    batch: AggregateBatch
    #: grouping attribute (``None`` for plain scalar batches)
    group_attr: str | None = None
    #: (layout, backend) → fingerprint; see contract point 5
    _fingerprints: dict = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @property
    def num_aggregates(self) -> int:
        return len(self.batch.specs)

    @property
    def is_groupby(self) -> bool:
        return self.group_attr is not None

    def fingerprint(self, layout=None, backend: str = "") -> str:
        """A stable identity for kernel caching.

        Covers everything the code generators consume — the tree shape,
        per-relation column orders, join keys, the per-spec owned
        columns, the batch's aggregate names — plus the layout flags and
        the backend's kernel key.  Two plans with equal fingerprints
        generate byte-identical kernels, so the kernel compiled at
        ``IFAQCompiler.compile`` time can be reused for every later
        execution and across repeated compilations.
        """
        memo = self._fingerprints.get((layout, backend))
        if memo is not None:
            return memo
        parts: list[str] = [backend]
        if self.group_attr is not None:
            parts.append(f"groupby={self.group_attr}")
        if layout is not None:
            parts.append(
                ",".join(f"{f.name}={getattr(layout, f.name)}" for f in fields(layout))
            )
        for node in self.root.walk():
            parts.append(
                "|".join(
                    (
                        node.relation,
                        ",".join(node.parent_key),
                        ";".join(",".join(k) for k in node.child_keys),
                        ",".join(node.columns),
                        ";".join(",".join(o) for o in node.owned_per_spec),
                    )
                )
            )
        for spec in self.batch:
            parts.append(spec.name + ":" + ",".join(spec.attrs))
        digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]
        self._fingerprints[(layout, backend)] = digest
        return digest

    def scan_fingerprint(self) -> str:
        """Identity of the plan's *scan* — everything except the
        grouping attribute and column orders.

        Two group-by plans with equal scan fingerprints walk the same
        tree, multiply the same per-spec columns, and join on the same
        keys; only the grouping column differs.  A fused multi-plan
        execution computes the per-row aggregate values once per scan
        fingerprint and folds them under each member's group coding —
        the static-memoization/code-motion sharing of the paper applied
        across plans of one batch.
        """
        parts: list[str] = []
        for node in self.root.walk():
            parts.append(
                "|".join(
                    (
                        node.relation,
                        ",".join(node.parent_key),
                        ";".join(",".join(k) for k in node.child_keys),
                        ";".join(",".join(o) for o in node.owned_per_spec),
                    )
                )
            )
        for spec in self.batch:
            parts.append(spec.name + ":" + ",".join(spec.attrs))
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


@dataclass
class MultiBatchPlan:
    """A fused bundle of group-by plans executed as one kernel.

    The tree learner's per-node work is one group-by batch **per
    feature** over the same database with the same δ predicates; a
    :class:`MultiBatchPlan` submits all of them at once so backends can
    share work across members — the NumPy backend shares the columnar
    store, the predicate masks, and (for members with equal
    :meth:`BatchPlan.scan_fingerprint`) the entire bottom-up value
    pass, folding each member with its own group coding.

    Multi-plans are cacheable kernels like any single plan: the
    fingerprint combines the member fingerprints, so the same feature
    set compiles once and every later tree node is a cache hit.
    """

    plans: list[BatchPlan]
    #: (layout, backend) → fingerprint; see contract point 5
    _fingerprints: dict = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not self.plans:
            raise ValueError("MultiBatchPlan needs at least one member plan")
        for p in self.plans:
            if not p.is_groupby:
                raise ValueError(
                    "MultiBatchPlan members must be group-by plans; "
                    f"plan for batch {p.batch!r} is plain"
                )

    @property
    def is_groupby(self) -> bool:
        return True

    @property
    def group_attr(self) -> tuple[str, ...]:
        """The member grouping attributes (plural, in member order)."""
        return tuple(p.group_attr for p in self.plans)

    @property
    def num_aggregates(self) -> int:
        return self.plans[0].num_aggregates

    def fingerprint(self, layout=None, backend: str = "") -> str:
        memo = self._fingerprints.get((layout, backend))
        if memo is None:
            parts = ["multi"] + [p.fingerprint(layout, backend) for p in self.plans]
            memo = hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]
            self._fingerprints[(layout, backend)] = memo
        return memo


def build_batch_plan(
    db: Database,
    tree: JoinTreeNode,
    batch: AggregateBatch,
    group_attr: str | None = None,
    key_stats: dict | None = None,
) -> BatchPlan:
    """Derive the physical plan from a join tree and a batch.

    Children are ordered by ascending distinct-key count in the parent,
    so the trie layout groups on the most-shared keys first — the outer
    trie levels amortize child-view lookups and per-aggregate partial
    products over the largest groups (the factorization the
    dictionary-to-trie pass exists for).

    With ``group_attr`` the tree is rerooted at the attribute's owning
    relation (the LMFAO multi-root trick) and the grouping column joins
    the root's column order, producing a group-by plan.

    The distinct-key counts come from
    :meth:`~repro.db.relation.Relation.distinct_key_count`, memoized on
    the relation until its next append, so planning many plans over one
    database (one group-by per tree feature, every serving batch) counts
    each ``(relation, join_attrs)`` pair once.  ``key_stats`` is kept
    only for the benchmark harness, which passes a dict; it receives
    the counts, keyed by ``(relation, join_attrs)``.
    """
    if group_attr is not None:
        from repro.aggregates.join_tree import reroot

        owner = assign_attribute_owners(tree, db, [group_attr])[group_attr]
        if tree.relation != owner:
            tree = reroot(tree, owner, db.schema())
    owners = assign_attribute_owners(tree, db, batch.all_attributes())

    def distinct_keys(parent: JoinTreeNode, child: JoinTreeNode) -> int:
        count = db.relation(parent.relation).distinct_key_count(child.join_attrs)
        if key_stats is not None:
            key_stats[(parent.relation, child.join_attrs)] = count
        return count

    def build(node: JoinTreeNode, is_root: bool = False) -> NodePlan:
        ordered = sorted(node.children, key=lambda c: distinct_keys(node, c))
        node = JoinTreeNode(node.relation, node.join_attrs, ordered)
        children = [build(c) for c in node.children]
        owned = [_owned_attrs(spec, owners, node.relation) for spec in batch]
        needed: dict[str, None] = {}
        for a in node.join_attrs:
            needed.setdefault(a, None)
        for c in node.children:
            for a in c.join_attrs:
                needed.setdefault(a, None)
        for attrs in owned:
            for a in attrs:
                needed.setdefault(a, None)
        if is_root and group_attr is not None:
            needed.setdefault(group_attr, None)
        return NodePlan(
            relation=node.relation,
            parent_key=node.join_attrs,
            child_keys=[c.join_attrs for c in node.children],
            children=children,
            columns=tuple(needed),
            owned_per_spec=owned,
        )

    return BatchPlan(root=build(tree, is_root=True), batch=batch, group_attr=group_attr)


def prepare_arrays(db: Database, plan: BatchPlan) -> dict[str, list[tuple]]:
    """Relations as flat row arrays in plan column order.

    Each row is ``(col0, ..., colk, multiplicity)``.  This is the
    loader for the *Dictionary to Array* layout; the paper does not
    count loading/indexing time, and neither do the benchmarks.
    """
    data: dict[str, list[tuple]] = {}
    for node in plan.root.walk():
        rel = db.relation(node.relation)
        rows = []
        for rec, mult in rel.data.items():
            rows.append(tuple(rec[a] for a in node.columns) + (mult,))
        data[node.relation] = rows
    return data


def prepare_dicts(db: Database, plan: BatchPlan) -> dict[str, dict]:
    """Relations in the canonical dictionary layout (record → mult).

    Records are plain string-keyed dicts so the generated "dictionary
    layout" code pays the hashing/boxing cost the paper's unoptimized
    representation pays.
    """
    data: dict[str, dict] = {}
    for node in plan.root.walk():
        rel = db.relation(node.relation)
        data[node.relation] = {
            tuple(sorted(dict(rec).items())): mult for rec, mult in rel.data.items()
        }
    return data


def prepare_tuple_dicts(db: Database, plan: BatchPlan) -> dict[str, dict]:
    """Relations as dictionaries keyed by positional tuples (static
    records, but still the dictionary collection layout)."""
    data: dict[str, dict] = {}
    for node in plan.root.walk():
        rel = db.relation(node.relation)
        data[node.relation] = {
            tuple(rec[a] for a in node.columns): mult
            for rec, mult in rel.data.items()
        }
    return data


def prepare_data(db: Database, plan: BatchPlan, options) -> dict:
    """Choose the loader matching the layout options."""
    if options.sorted_trie or getattr(options, "hash_trie", False):
        return prepare_sorted(db, plan)
    if options.dict_to_array:
        return prepare_arrays(db, plan)
    if options.static_records:
        return prepare_tuple_dicts(db, plan)
    return prepare_dicts(db, plan)


def prepare_sorted(db: Database, plan: BatchPlan) -> dict[str, list[tuple]]:
    """Array layout with every relation sorted by its join keys.

    The root sorts by the concatenation of its child keys (the trie
    grouping order); other relations sort by their parent key, which
    makes the views they produce naturally ordered for merge lookups.
    """
    data = prepare_arrays(db, plan)
    for node in plan.root.walk():
        if node.parent_key:
            idx = [node.column_index(a) for a in node.parent_key]
        else:
            idx = [
                node.column_index(a)
                for key in node.child_keys
                for a in key
            ]
        if idx:
            data[node.relation].sort(key=lambda row: tuple(row[i] for i in idx))
    return data
