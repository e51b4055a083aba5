"""The execution-backend protocol (the RACO-style pluggable algebra).

Execution of an aggregate batch is split into two phases behind one
small interface:

* :meth:`ExecutionBackend.compile_plan` lowers a :class:`BatchPlan`
  under a :class:`LayoutOptions` into a :class:`Kernel` — a reusable,
  cacheable artifact (generated source, compiled binary, interpreter
  closure, …);
* :meth:`ExecutionBackend.execute` runs a kernel against a database
  (under optional δ predicates) and returns the aggregate vector as a
  ``{spec.name: value}`` dictionary.

Keeping the two phases separate is what makes the kernel cache
(:mod:`repro.backend.cache`) and the sharded wrapper
(:mod:`repro.backend.parallel`) possible: a kernel compiled once can be
executed many times, against many (sub-)databases, from many threads.

Concrete backends live in :mod:`repro.backend.executors`; they are
looked up by name through :mod:`repro.backend.registry`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

from repro.backend.layout import LayoutOptions
from repro.backend.plan import BatchPlan, MultiBatchPlan
from repro.db.database import Database
from repro.runtime.rings import v_add


@dataclass
class Kernel:
    """A compiled execution artifact for one (plan, layout, backend).

    ``entry`` is backend-specific: the generated-Python module
    namespace, a :class:`~repro.backend.compile_cpp.CompiledKernel`
    handle, or the engine's reconstructed join tree.  For multi-plan
    kernels (``plan`` is a :class:`MultiBatchPlan`) ``entry`` is the
    list of member kernels, in member order.  ``source`` is the
    generated source text when the backend generates code (``None`` for
    interpreting backends).
    """

    backend: str
    fingerprint: str
    plan: BatchPlan | MultiBatchPlan
    layout: LayoutOptions
    source: str | None = None
    entry: Any = None
    compile_seconds: float = 0.0
    meta: dict = field(default_factory=dict)

    def result_dict(self, values: list[float]) -> dict[str, float]:
        """Map a positional aggregate vector back to spec names."""
        return {spec.name: values[i] for i, spec in enumerate(self.plan.batch)}


class ExecutionBackend(ABC):
    """One physical evaluation strategy for aggregate batches."""

    #: registry name of the backend (class attribute on subclasses)
    name: str = "abstract"

    @property
    def kernel_key(self) -> str:
        """The component of the kernel-cache key owned by this backend.

        Backends whose kernels are interchangeable (e.g. a sharded
        wrapper around an inner backend) share the inner key so cached
        kernels are shared too.
        """
        return self.name

    @abstractmethod
    def compile_plan(self, plan: BatchPlan, layout: LayoutOptions) -> Kernel:
        """Lower the plan to a reusable kernel."""

    @abstractmethod
    def execute(self, kernel: Kernel, db: Database, predicates=None) -> dict[str, float]:
        """Run the kernel over ``db`` and return ``{name: value}``.

        ``predicates`` are per-relation δ conditions applied at
        execution time (they are not part of the kernel identity, so
        one cached kernel serves every δ).
        """

    def run_groupby(self, kernel: Kernel, db: Database, predicates=None) -> dict:
        """Run a group-by kernel: ``{group value: [aggregate values]}``,
        under ``predicates`` like :meth:`execute`.  Backends that can
        lower group-by plans override this."""
        raise NotImplementedError(
            f"backend {self.name!r} does not support group-by plans"
        )

    # -- fused multi-plan group-by ----------------------------------------

    def compile_multi(
        self, mplan: MultiBatchPlan, layout: LayoutOptions, members: list[Kernel]
    ) -> Kernel:
        """Bundle precompiled member kernels into one multi-plan kernel.

        ``members`` come from the kernel cache (one per member plan, in
        member order), so a feature whose single-plan kernel was already
        compiled is not compiled again.  Backends with a genuinely fused
        execution override this to attach their sharing metadata; the
        default bundle simply executes members one by one.
        """
        return Kernel(
            backend=self.name,
            fingerprint=mplan.fingerprint(layout, self.kernel_key),
            plan=mplan,
            layout=layout,
            entry=list(members),
            meta={"multi": True},
        )

    def run_groupby_many(
        self, kernel: Kernel, db: Database, predicates=None
    ) -> list[dict]:
        """Run a multi-plan kernel: one group dictionary per member plan.

        The default runs each member kernel through :meth:`run_groupby`
        — correct for every backend (and exactly equivalent to issuing
        the plans separately).  Backends that can share work across
        members (one data pass, shared predicate masks) override this.
        """
        require_multi(kernel)
        return [self.run_groupby(member, db, predicates) for member in kernel.entry]


def run_plan(backend: ExecutionBackend, kernel: Kernel, db: Database, predicates=None):
    """One run of any kernel, the entry point picked by the plan's shape:
    ``{name: value}`` for a plain plan, a group dict for a group-by, one
    group dict per member for a :class:`MultiBatchPlan`."""
    if isinstance(kernel.plan, MultiBatchPlan):
        return backend.run_groupby_many(kernel, db, predicates)
    if kernel.plan.is_groupby:
        return backend.run_groupby(kernel, db, predicates)
    return backend.execute(kernel, db, predicates)


def require_plain(kernel: Kernel) -> None:
    """Reject group-by kernels where a scalar batch is expected."""
    if kernel.plan.is_groupby:
        raise ValueError(
            f"kernel {kernel.fingerprint} is a group-by kernel "
            f"(group_attr={kernel.plan.group_attr!r}); use run_groupby"
        )


def require_groupby(kernel: Kernel) -> None:
    """Reject scalar kernels where a group-by batch is expected."""
    if not kernel.plan.is_groupby:
        raise ValueError(
            f"kernel {kernel.fingerprint} is not a group-by kernel; use execute"
        )
    if isinstance(kernel.plan, MultiBatchPlan):
        raise ValueError(
            f"kernel {kernel.fingerprint} is a multi-plan kernel; use run_groupby_many"
        )


def require_multi(kernel: Kernel) -> None:
    """Reject single-plan kernels where a multi-plan bundle is expected."""
    if not isinstance(kernel.plan, MultiBatchPlan):
        raise ValueError(
            f"kernel {kernel.fingerprint} is not a multi-plan kernel; "
            f"use execute/run_groupby"
        )


def block_ranges(n_rows: int, size: int, base: int = 0) -> list[tuple[int, int]]:
    """Canonical root-row blocks covering ``[aligned(base), n_rows)``.

    Blocks start at multiples of ``size``, so the layout depends only
    on the row count and the block size — never on how the blocks are
    later distributed.  ``base`` > 0 (a delta run) starts at the block
    holding row ``base``: the trailing ranges of the full layout that a
    pure root append can have touched.
    """
    size = max(1, size)
    start = (base // size) * size
    return [(lo, min(lo + size, n_rows)) for lo in range(start, n_rows, size)]


def merge_vectors(partials: list[list[float]]) -> list[float]:
    """Fold partial aggregate vectors with the ring monoid ``v_add``.

    The fold is strictly left-to-right in list order — the same order
    the maintained-state finish (``numpy_backend.finish_fold``) adds the
    *same* canonically ordered block partials in, which is what makes
    sharded results bit-identical to single-shot results.
    """
    if not partials:
        return []
    acc = list(partials[0])
    for part in partials[1:]:
        for i, v in enumerate(part):
            acc[i] = v_add(acc[i], v)
    return acc


def merge_results(partials: list[dict[str, float]]) -> dict[str, float]:
    """Merge named partial results with ``v_add`` (shard order)."""
    if not partials:
        return {}
    acc = dict(partials[0])
    for part in partials[1:]:
        for k, v in part.items():
            acc[k] = v_add(acc.get(k, 0.0), v)
    return acc


def merge_group_results(partials: list[dict]) -> dict:
    """Merge per-shard group-by results with ``v_add`` (shard order).

    Each partial maps ``group value → [aggregate values]``; a group
    seen by several shards has its vectors folded component-wise, so a
    partition of the group-by plan's root relation merges exactly like
    scalar batches do.
    """
    acc: dict = {}
    for part in partials:
        for key, vec in part.items():
            cur = acc.get(key)
            if cur is None:
                acc[key] = list(vec)
            else:
                for i, v in enumerate(vec):
                    cur[i] = v_add(cur[i], v)
    return acc
