"""The end-to-end IFAQ compiler driver (paper Figures 1 and 3).

Chains the layers::

    D-IFAQ program
      → high-level optimizations            (Section 4.1)
      → schema specialization + typecheck   (Section 4.2)
      → aggregate extraction + join tree    (Section 4.3)
      → physical plan + kernel compilation  (backend registry + cache)
      → batch execution                     (engine / Python / C++ / sharded)
      → residual program execution          (generated Python function)

Every stage's artifact is kept on :class:`CompilationArtifacts` so the
micro-benchmarks can time any stage's output in isolation and tests can
inspect intermediate programs.

Execution is delegated to a pluggable
:class:`~repro.backend.base.ExecutionBackend` resolved once through
:mod:`repro.backend.registry` — ``backend`` accepts a registered name
(``"engine"``, ``"python"``, ``"cpp"``, ``"numpy"``, ``"sharded"``) or
a ready instance (e.g. ``ShardedBackend(inner="cpp", shards=8)``).  The kernel
built during :meth:`IFAQCompiler.compile` is stored on the artifacts
and is the kernel executed; repeated compilations of the same program
and layout hit the :class:`~repro.backend.cache.KernelCache`.

Compile once: an init bound to a numeric literal (``alpha = 0.01``,
``iterations = 20``) is a *run-time parameter*.  No stage reads its
value — each init is optimized on its own and a literal stays a
literal — so programs that differ only in parameter values share every
stage's output.  :meth:`IFAQCompiler.compile` keeps the last
:data:`COMPILE_CACHE_SIZE` compilations keyed by the program with its
parameter values erased (their types kept) plus everything else the
stages read: the database object, its relations and version vector, the
query, ``q_var``, ``aggregate_mode``, ``layout`` and the backend's
kernel key.  A hit skips the whole frontend and only re-binds the
parameter inits; an ``append_rows`` or a reassigned ``backend`` /
``layout`` is a miss.

The residual — what extraction leaves of the program, for BGD the loop
over the covar matrix — is generated once per compilation as a Python
function (:func:`~repro.interp.codegen.compile_residual`) taking the
parameters as arguments, so a hit re-runs the same function with the new
values.  :meth:`IFAQCompiler.run_artifacts` executes residuals only that
way; the :class:`~repro.interp.Interpreter` is the oracle the generated
code is tested against.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, fields, replace
from typing import Any, Literal

from repro.aggregates.batch import AggregateBatch
from repro.aggregates.engine import compute_batch_materialized
from repro.aggregates.extract import extract_program_aggregates
from repro.aggregates.join_tree import JoinTreeNode, build_join_tree
from repro.backend.base import ExecutionBackend, Kernel
from repro.backend.cache import CacheStats, KernelCache, default_kernel_cache
from repro.backend.layout import LAYOUT_SORTED, LayoutOptions
from repro.backend.plan import BatchPlan, build_batch_plan
from repro.backend.registry import get_backend
from repro.db.database import Database
from repro.db.query import JoinQuery
from repro.interp.codegen import ResidualFunction, compile_residual
from repro.ir.expr import Const, Expr
from repro.ir.program import Program
from repro.ir.types import REAL, RecordType
from repro.opt.pipeline import HighLevelOptimizer
from repro.runtime.values import RecordValue
from repro.typing.specialize import schema_specialize
from repro.typing.typecheck import typecheck_program

AggregateMode = Literal["materialized", "pushdown", "merged", "trie"]
#: kept for backwards compatibility; any registered name now works
Backend = Literal["engine", "python", "cpp", "numpy", "sharded"]

#: compilations an :class:`IFAQCompiler` keeps for parameter-only re-runs
COMPILE_CACHE_SIZE = 8

#: the record the residual reads the batch's aggregates from
AGGS_VAR = "__aggs"


def _parameters(program: Program) -> dict[str, Const]:
    """The run-time parameters: inits bound once, to a numeric literal."""
    names = [name for name, _ in program.inits]
    return {
        name: value
        for name, value in program.inits
        if names.count(name) == 1
        and isinstance(value, Const)
        and isinstance(value.value, (int, float))
        and not isinstance(value.value, bool)
    }


def _program_key(program: Program, parameters: dict[str, Const]) -> tuple:
    """A canonical, hashable image of ``program`` with each parameter's
    value replaced by its Python type.

    Every other literal is keyed by its type and ``repr`` too: derived
    dataclass equality has ``Const(1) == Const(1.0) == Const(True)`` (and
    ``Const(0.0) == Const(-0.0)``), so structural equality alone would let
    programs that type-check or evaluate differently share an entry.
    """
    inits = tuple(
        (name, ("param", type(value.value), value.type) if name in parameters else _literal_key(value))
        for name, value in program.inits
    )
    parts = (program.init, program.cond, program.body)
    return (inits, program.state, *map(_literal_key, parts))


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _literal_key(node: Any) -> Any:
    if isinstance(node, Const):
        return (Const, type(node.value), repr(node.value), node.type)
    if isinstance(node, Expr):
        cls = type(node)
        return (cls, *(_literal_key(getattr(node, n)) for n in _field_names(cls)))
    if isinstance(node, tuple):
        return tuple(_literal_key(x) for x in node)
    return node


@dataclass
class CompilationArtifacts:
    """Per-stage outputs of one compilation."""

    source: Program
    optimized: Program
    specialized: Program
    residual: Program
    batch: AggregateBatch
    join_tree: JoinTreeNode | None
    plan: BatchPlan | None
    #: ``residual`` generated as Python — what ``run_artifacts`` executes
    residual_fn: ResidualFunction = field(repr=False, compare=False)
    kernel_source: str | None = None
    compile_seconds: float = 0.0
    state_type: Any = None
    #: the compiled execution artifact — the exact kernel ``compute_batch``
    #: runs (no regeneration between compile and execute)
    kernel: Kernel | None = None


@dataclass
class IFAQCompiler:
    """Compiles and runs IFAQ programs against a database.

    Parameters
    ----------
    db, query
        The input database and the feature-extraction join query.
    aggregate_mode
        Which Section 4.3 strategy the engine backend uses.
    backend
        A registered backend name — ``engine`` interprets the view
        tree, ``python`` executes a generated specialized kernel,
        ``cpp`` compiles the generated C++ with g++ (resolving to the
        Python backend when no toolchain is available), ``numpy``
        lowers the plan to columnar ndarray operations, ``sharded``
        wraps an inner backend over K root shards — or any
        :class:`ExecutionBackend` instance.
    layout
        Data-layout options for the generated kernels (Section 4.4).
    kernel_cache
        Where compiled kernels are looked up; defaults to the
        process-wide cache.

    ``compile_stats`` counts hits and misses of the compile cache (see
    the module docstring).
    """

    db: Database
    query: JoinQuery
    aggregate_mode: AggregateMode = "trie"
    backend: str | ExecutionBackend = "python"
    layout: LayoutOptions = field(default_factory=lambda: LAYOUT_SORTED)
    q_var: str = "Q"
    kernel_cache: KernelCache | None = None

    compile_stats: CacheStats = field(default_factory=CacheStats, init=False, compare=False)

    _backend_impl: ExecutionBackend | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _resolved_from: tuple = field(default=(), init=False, repr=False, compare=False)
    _compiled: OrderedDict = field(default_factory=OrderedDict, init=False, repr=False, compare=False)
    _compiled_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    # -- backend resolution ----------------------------------------------

    @property
    def backend_impl(self) -> ExecutionBackend:
        """The resolved execution backend, resolved again only after
        ``backend``, ``aggregate_mode`` or ``query`` is reassigned."""
        spec = (self.backend, self.aggregate_mode, self.query)
        if self._backend_impl is None or any(a is not b for a, b in zip(spec, self._resolved_from)):
            self._backend_impl = get_backend(
                self.backend, aggregate_mode=self.aggregate_mode, query=self.query
            )
            self._resolved_from = spec
        return self._backend_impl

    def _cache(self) -> KernelCache:
        return self.kernel_cache if self.kernel_cache is not None else default_kernel_cache()

    # -- compilation -----------------------------------------------------

    def compile(self, program: Program) -> CompilationArtifacts:
        """Compile ``program``, reusing a cached compilation of the same
        program when only its parameter values differ."""
        parameters = _parameters(program)
        db = self.db
        key = (
            _program_key(program, parameters),
            id(db),
            tuple(map(id, db)),
            db.version_vector(),
            self.query,
            self.q_var,
            self.aggregate_mode,
            self.layout,
            self.backend_impl.kernel_key,
        )
        with self._compiled_lock:
            entry = self._compiled.get(key)
            if entry is None:
                self.compile_stats.misses += 1
            else:
                self._compiled.move_to_end(key)
                self.compile_stats.hits += 1
        if entry is None:
            # The entry pins the database and its relations, so the ids
            # in its key cannot be reused while it lives.  Kernels are not
            # kept: they pin column-store arrays.
            entry = (self._frontend(program, parameters), (db, tuple(db)))
            with self._compiled_lock:
                self._compiled[key] = entry
                while len(self._compiled) > COMPILE_CACHE_SIZE:
                    self._compiled.popitem(last=False)
                    self.compile_stats.evictions += 1

        def bind(stage: Program) -> Program:
            return stage.with_inits(
                tuple((name, parameters.get(name, value)) for name, value in stage.inits)
            )

        cached = entry[0]
        artifacts = replace(
            cached,
            source=program,
            optimized=bind(cached.optimized),
            specialized=bind(cached.specialized),
            residual=bind(cached.residual),
        )
        if artifacts.plan is not None:
            kernel = self._cache().get_or_compile(self.backend_impl, artifacts.plan, self.layout)
            artifacts.kernel = kernel
            artifacts.kernel_source = kernel.source
            artifacts.compile_seconds = kernel.compile_seconds
        return artifacts

    def _frontend(self, program: Program, parameters: dict[str, Const]) -> CompilationArtifacts:
        """Every stage up to the physical plan and the generated residual
        (the kernel is attached by :meth:`compile`)."""
        optimizer = HighLevelOptimizer(stats=dict(self.db.statistics()))
        optimized = optimizer.optimize_program(program)

        relation_types = {
            rel.name: rel.schema.ifaq_type() for rel in self.db
        }
        specialized = schema_specialize(optimized, relation_types)
        state_type = typecheck_program(specialized, relation_types)

        residual, batch = extract_program_aggregates(
            specialized, q_var=self.q_var, aggs_var=AGGS_VAR
        )
        residual_types = dict(relation_types)
        if len(batch):
            residual_types[AGGS_VAR] = RecordType(tuple((name, REAL) for name in batch.names()))
        residual_fn = compile_residual(residual, residual_types, parameters)

        join_tree = None
        plan = None
        if len(batch):
            join_tree = build_join_tree(
                self.db.schema(), self.query.relations, stats=dict(self.db.statistics())
            )
            plan = build_batch_plan(self.db, join_tree, batch)

        return CompilationArtifacts(
            source=program,
            optimized=optimized,
            specialized=specialized,
            residual=residual,
            batch=batch,
            join_tree=join_tree,
            plan=plan,
            residual_fn=residual_fn,
            state_type=state_type,
        )

    # -- execution ---------------------------------------------------------

    def compute_batch(self, artifacts: CompilationArtifacts) -> dict[str, float]:
        """Evaluate the extracted batch directly over the database."""
        batch = artifacts.batch
        if not len(batch):
            return {}
        if artifacts.plan is None:
            # No join tree (e.g. a batch over a single relation outside
            # the query): fall back to the materializing oracle.
            return compute_batch_materialized(self.db, self.query, batch)
        kernel = artifacts.kernel
        expected = artifacts.plan.fingerprint(self.layout, self.backend_impl.kernel_key)
        if kernel is None or kernel.fingerprint != expected:
            # Artifacts compiled elsewhere (or under another backend):
            # resolve the right kernel through the cache.
            kernel = self._cache().get_or_compile(
                self.backend_impl, artifacts.plan, self.layout
            )
            artifacts.kernel = kernel
            artifacts.kernel_source = kernel.source
            artifacts.compile_seconds = kernel.compile_seconds
        return self.backend_impl.execute(kernel, self.db)

    def run(self, program: Program) -> Any:
        """Compile, evaluate the batch, and execute the residual program."""
        artifacts = self.compile(program)
        return self.run_artifacts(artifacts)

    def run_artifacts(self, artifacts: CompilationArtifacts) -> Any:
        """Evaluate the batch, then run the generated residual on it."""
        aggs = self.compute_batch(artifacts)
        residual = artifacts.residual_fn
        # Bind only the relations the residual still reads (usually none:
        # the LR residual reads just ``__aggs``).
        env = {
            name: self.db.relation(name).to_value()
            for name in residual.free_vars
            if name in self.db
        }
        if aggs:
            env[AGGS_VAR] = RecordValue(aggs)
        return residual.run(artifacts.residual, env)
