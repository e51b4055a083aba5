"""Concrete execution backends: engine, generated Python, C++.

These are the three physical strategies the :class:`IFAQCompiler`
previously dispatched to through string comparisons; each is now a
first-class :class:`~repro.backend.base.ExecutionBackend` so it can be
registered, cached, wrapped (sharded) and swapped without touching the
driver.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.aggregates.engine import (
    apply_predicates,
    compute_batch_mode,
    compute_groupby_tree,
)
from repro.aggregates.join_tree import JoinTreeNode
from repro.backend.base import (
    ExecutionBackend,
    Kernel,
    block_ranges,
    merge_vectors,
    require_groupby,
    require_multi,
    require_plain,
)
from repro.backend.codegen_cpp import (
    generate_cpp_kernel,
    group_attr_is_key,
    write_binary_data,
)
from repro.backend.codegen_python import GeneratedKernel, generate_python_kernel
from repro.backend.compile_cpp import compile_kernel
from repro.backend.layout import LayoutOptions
from repro.backend.plan import BatchPlan, prepare_data
from repro.db.database import Database
from repro.db.query import JoinQuery

#: Root rows per execution block of the Python backend.  Blocks are the
#: unit the sharded executor distributes; keeping the block structure
#: identical in single-shot and sharded runs makes their results
#: bit-identical (same partials, same merge order).
DEFAULT_BLOCK_SIZE = 4096


def tree_from_plan(plan: BatchPlan) -> JoinTreeNode:
    """Reconstruct the logical join tree a physical plan was built from."""

    def build(node) -> JoinTreeNode:
        return JoinTreeNode(
            node.relation,
            join_attrs=node.parent_key,
            children=[build(c) for c in node.children],
        )

    return build(plan.root)


@dataclass
class EngineBackend(ExecutionBackend):
    """Interpret the view tree in Python (Section 4.3 engines).

    ``aggregate_mode`` picks the strategy ladder rung; ``query`` (when
    known) preserves the caller's join order for the materialized mode.
    """

    aggregate_mode: str = "trie"
    query: JoinQuery | None = None

    name = "engine"

    @property
    def kernel_key(self) -> str:
        return f"engine:{self.aggregate_mode}"

    def compile_plan(self, plan: BatchPlan, layout: LayoutOptions) -> Kernel:
        return Kernel(
            backend=self.name,
            fingerprint=plan.fingerprint(layout, self.kernel_key),
            plan=plan,
            layout=layout,
            source=None,
            entry=tree_from_plan(plan),
        )

    def execute(self, kernel: Kernel, db: Database, predicates=None) -> dict[str, float]:
        require_plain(kernel)
        return compute_batch_mode(
            db, kernel.entry, kernel.plan.batch, self.aggregate_mode,
            query=self.query, predicates=predicates,
        )

    def run_groupby(self, kernel: Kernel, db: Database, predicates=None) -> dict:
        require_groupby(kernel)
        # The kernel's tree is already rooted at the group attribute's
        # owner (planning rerooted it), so this is a straight scan.
        return compute_groupby_tree(
            db, kernel.entry, kernel.plan.batch, kernel.plan.group_attr, predicates
        )


@dataclass
class PythonKernelBackend(ExecutionBackend):
    """Execute the generated specialized Python kernel.

    Execution is block-structured: views are built once, then the root
    relation is folded in fixed-size row blocks whose partial vectors
    are merged left-to-right with the ring monoid.  The block layout
    depends only on the data (never on worker count), so the sharded
    wrapper can farm blocks out to threads and still reproduce the
    single-shot result bit for bit.
    """

    block_size: int = DEFAULT_BLOCK_SIZE

    name = "python"

    def compile_plan(self, plan: BatchPlan, layout: LayoutOptions) -> Kernel:
        from repro.backend.cache import load_kernel_source, store_kernel_source

        fingerprint = plan.fingerprint(layout, self.kernel_key)
        source = load_kernel_source(fingerprint)
        warm = source is not None
        if warm:
            try:
                namespace = GeneratedKernel(source=source).compile_module()
            except Exception:
                warm = False  # corrupt spill: fall through and regenerate
        if not warm:
            source = generate_python_kernel(plan, layout).source
            try:
                store_kernel_source(fingerprint, source)
            except OSError:
                pass  # read-only temp dir: persistence is best-effort
            namespace = GeneratedKernel(source=source).compile_module()
        return Kernel(
            backend=self.name,
            fingerprint=fingerprint,
            plan=plan,
            layout=layout,
            source=source,
            entry=namespace,
            meta={"supports_blocks": not plan.is_groupby, "source_cached": warm},
        )

    # -- block protocol (plain kernels; also driven by ShardedBackend) ---

    def prepare(self, kernel: Kernel, db: Database, predicates=None, base: int = 0):
        """Load the δ-filtered data in plan layout and build the views
        once: ``(state, n_rows)``.  The full state serves any block
        range, so ``base`` needs no special case.

        δ conditions are per-relation and record-local, so filtering the
        input relations is equivalent to predicates in the scans (and
        keeps the generated kernel predicate-free and cacheable).
        """
        data = prepare_data(apply_predicates(db, predicates), kernel.plan, kernel.layout)
        views = kernel.entry["build_views"](data)
        return (data, views), len(data[kernel.plan.root.relation])

    def run_block(self, kernel: Kernel, state, lo: int, hi: int) -> list[float]:
        data, views = state
        # A root δ leaves fewer rows than a sharded caller's unfiltered
        # block layout covers: blocks past the end fold nothing.
        n_rows = len(data[kernel.plan.root.relation])
        return kernel.entry["scan_root"](data, views, min(lo, n_rows), min(hi, n_rows))

    # -- single-shot execution -------------------------------------------

    def execute(self, kernel: Kernel, db: Database, predicates=None) -> dict[str, float]:
        require_plain(kernel)
        state, n_rows = self.prepare(kernel, db, predicates)
        partials = [
            self.run_block(kernel, state, lo, hi)
            for lo, hi in block_ranges(n_rows, self.block_size)
        ]
        return kernel.result_dict(
            merge_vectors(partials) or [0.0] * kernel.plan.num_aggregates
        )

    def run_groupby(self, kernel: Kernel, db: Database, predicates=None) -> dict:
        require_groupby(kernel)
        state, _ = self.prepare(kernel, db, predicates)
        return kernel.entry["scan_root"](*state)

    def run_groupby_many(
        self, kernel: Kernel, db: Database, predicates=None
    ) -> list[dict]:
        # Fused bundles share the δ-filtered database across members —
        # the record-level predicate scan runs once, not once per plan.
        require_multi(kernel)
        db = apply_predicates(db, predicates)
        return [self.run_groupby(member, db) for member in kernel.entry]


@dataclass
class CppKernelBackend(ExecutionBackend):
    """Compile the generated C++ with ``g++ -O3`` and run the binary.

    Compilation happens in :meth:`compile_plan` (content-hash cached by
    :mod:`repro.backend.compile_cpp` on top of the kernel cache), so
    execution only pays data serialization and the subprocess.
    """

    name = "cpp"

    def compile_plan(self, plan: BatchPlan, layout: LayoutOptions) -> Kernel:
        fingerprint = plan.fingerprint(layout, self.kernel_key)
        generated = generate_cpp_kernel(plan, layout, fingerprint=fingerprint)
        compiled = compile_kernel(generated)
        return Kernel(
            backend=self.name,
            fingerprint=fingerprint,
            plan=plan,
            layout=layout,
            source=generated.source,
            entry=compiled,
            compile_seconds=compiled.compile_seconds,
            meta={
                "binary_cached": compiled.cached,
                "group_is_key": plan.is_groupby and group_attr_is_key(plan),
            },
        )

    def execute(self, kernel: Kernel, db: Database, predicates=None) -> dict[str, float]:
        require_plain(kernel)
        db = apply_predicates(db, predicates)
        with tempfile.TemporaryDirectory() as tmp:
            data_path = Path(tmp) / "data.bin"
            write_binary_data(db, kernel.plan, data_path, kernel.layout)
            _, values = kernel.entry.run(data_path)
        return kernel.result_dict(values)

    def run_groupby(self, kernel: Kernel, db: Database, predicates=None) -> dict:
        require_groupby(kernel)
        db = apply_predicates(db, predicates)
        with tempfile.TemporaryDirectory() as tmp:
            data_path = Path(tmp) / "data.bin"
            write_binary_data(db, kernel.plan, data_path, kernel.layout)
            _, lines = kernel.entry.run_lines(data_path)
        # Key columns travel as int64; everything else as double.
        group_is_key = kernel.meta.get("group_is_key", False)
        key_of = int if group_is_key else float
        groups: dict = {}
        for line in lines:
            parts = line.split()
            groups[key_of(parts[0])] = [float(v) for v in parts[1:]]
        return groups

    def run_groupby_many(
        self, kernel: Kernel, db: Database, predicates=None
    ) -> list[dict]:
        # One δ-filter pass shared by every member binary invocation.
        require_multi(kernel)
        db = apply_predicates(db, predicates)
        return [self.run_groupby(member, db) for member in kernel.entry]
