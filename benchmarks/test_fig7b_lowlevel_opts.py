"""Figure 7b — impact of the low-level (data layout) optimizations.

The paper's ladder for the covar-matrix computation, least → most
optimized:

1. optimized aggregates, compiled (Scala there → generated Python here,
   dictionary layout),
2. + record removal (static records + scalar replacement),
3. compilation to C++ with explicit memory management (~2×),
4. + dictionary to array (~1.4×),
5. dictionary-to-trie with **sorted** tries instead of hash-table
   tries (~5× there).

Python rungs run via generated-and-exec'd kernels; C++ rungs compile
with g++ -O3.  The shape check uses a paper-regime workload (hundreds
of thousands of facts, large join-key domains — hash lookups must miss
cache for layout to matter) and prints every rung's time.  Tier-1
asserts what each optimization changes in the generated code: record
removal drops per-row record dictionaries and string-keyed accesses,
dictionary-to-array stores relations in vectors instead of hash maps.
The orderings that are robust across hardware — each Python rung
improves on the previous, C++ dominates Python by orders of magnitude,
arrays beat hash-map relations — are asserted only under ``-m timing``.
The paper's sorted-vs-hash *trie* gap (5×) additionally relies on the
real datasets' clustered key order; with uniformly random synthetic keys
the two trie variants land close together (see EXPERIMENTS.md).
"""

import tempfile
import time
from pathlib import Path

import pytest

from repro.aggregates import build_join_tree, covar_batch
from repro.backend.codegen_cpp import generate_cpp_kernel, write_binary_data
from repro.backend.codegen_python import generate_python_kernel
from repro.backend.compile_cpp import compile_kernel, gxx_available
from repro.backend.layout import (
    LAYOUT_ARRAYS,
    LAYOUT_BASELINE,
    LAYOUT_HASH_TRIE,
    LAYOUT_SCALARIZED,
    LAYOUT_SORTED,
)
from repro.backend.plan import build_batch_plan, prepare_data
from repro.bench import emit, emit_header, format_seconds
from repro.data import star_schema

_CASE = {}


def setup_case(n_facts=400_000, dim_size=60_000):
    """A paper-regime workload: large fact table, large key domains."""
    key = (n_facts, dim_size)
    if key not in _CASE:
        ds = star_schema(
            n_facts=n_facts, n_dims=2, dim_size=dim_size, attrs_per_dim=2,
            fact_attrs=1, seed=3,
        )
        batch = covar_batch(ds.features, label=ds.label)
        tree = build_join_tree(
            ds.db.schema(), ds.query.relations, stats=ds.db.statistics()
        )
        plan = build_batch_plan(ds.db, tree, batch)
        _CASE[key] = (ds, plan)
    return _CASE[key]


PY_RUNGS = (
    ("py compiled (dict layout)", LAYOUT_BASELINE),
    ("py record removal", LAYOUT_SCALARIZED),
)
CPP_RUNGS = (
    ("cpp + memory mgmt (hash)", LAYOUT_SCALARIZED),
    ("cpp dict-to-array", LAYOUT_ARRAYS),
    ("cpp hash trie", LAYOUT_HASH_TRIE),
    ("cpp sorted trie", LAYOUT_SORTED),
)


@pytest.mark.parametrize("label,layout", PY_RUNGS, ids=[r[0] for r in PY_RUNGS])
@pytest.mark.benchmark(group="fig7b-lowlevel")
def test_fig7b_python_rung(benchmark, label, layout):
    ds, plan = setup_case(n_facts=20_000, dim_size=3_000)
    fn = generate_python_kernel(plan, layout).compile()
    data = prepare_data(ds.db, plan, layout)
    values = benchmark.pedantic(fn, args=(data,), rounds=3, iterations=1)
    assert values[0] > 0


@pytest.mark.parametrize("label,layout", CPP_RUNGS, ids=[r[0] for r in CPP_RUNGS])
@pytest.mark.benchmark(group="fig7b-lowlevel")
def test_fig7b_cpp_rung(benchmark, label, layout):
    if not gxx_available():
        pytest.skip("g++ not available")
    ds, plan = setup_case(n_facts=20_000, dim_size=3_000)
    compiled = compile_kernel(generate_cpp_kernel(plan, layout, repetitions=5))
    with tempfile.TemporaryDirectory() as tmp:
        data_path = Path(tmp) / "data.bin"
        write_binary_data(ds.db, plan, data_path, layout)

        def run():
            seconds, values = compiled.run(data_path)
            assert values[0] > 0
            return seconds

        kernel_seconds = benchmark.pedantic(run, rounds=3, iterations=1)
    emit(f"  [{label}] kernel-internal time: {format_seconds(kernel_seconds)}")


def measure_ladder():
    """Every rung once: kernel seconds and generated source, by label."""
    ds, plan = setup_case()

    def run_cpp(case_plan, case_ds, layout):
        generated = generate_cpp_kernel(case_plan, layout, repetitions=5)
        compiled = compile_kernel(generated)
        with tempfile.TemporaryDirectory() as tmp:
            data_path = Path(tmp) / "data.bin"
            write_binary_data(case_ds.db, case_plan, data_path, layout)
            seconds, _ = compiled.run(data_path)
        return seconds, generated.source

    timings, sources = {}, {}
    # Rungs 1–3 compare Python vs C++ on one (smaller) workload:
    # the Python kernels are ~100× slower, so the paper's rung-2→3
    # "compile to C++" claim is checked at a size Python can run.
    ds_small, plan_small = setup_case(n_facts=20_000, dim_size=3_000)
    for label, layout in PY_RUNGS:
        generated = generate_python_kernel(plan_small, layout)
        fn = generated.compile()
        data = prepare_data(ds_small.db, plan_small, layout)
        timings[label] = min(_timed(fn, data) for _ in range(3))
        sources[label] = generated.source
    timings["cpp @ python workload"], _ = run_cpp(plan_small, ds_small, LAYOUT_SCALARIZED)
    # Rungs 3–5 compare the C++ layouts at the paper-regime scale.
    for label, layout in CPP_RUNGS:
        timings[label], sources[label] = run_cpp(plan, ds, layout)

    emit_header("Figure 7b — covar computation (paper-regime star join)")
    emit("  Python rungs: 20k facts / 3k keys;  C++ rungs: 400k facts / 60k keys")
    for label in timings:
        emit(f"  {label:<28s} {format_seconds(timings[label]):>12s}")
    return timings, sources


def test_fig7b_ordering():
    """What each rung's optimization changes in the generated source.

    Source shape needs no data pass and no compiler: the six sources are
    generated directly (the timed ladder is ``test_fig7b_timing_ordering``).
    """
    _, plan = setup_case(n_facts=20_000, dim_size=3_000)
    sources = {label: generate_python_kernel(plan, layout).source for label, layout in PY_RUNGS}
    sources.update(
        (label, generate_cpp_kernel(plan, layout, repetitions=5).source)
        for label, layout in CPP_RUNGS
    )

    # Record removal: no per-row record dictionary, no string-keyed access.
    dict_layout, removed = sources["py compiled (dict layout)"], sources["py record removal"]
    assert "rec = dict(row)" in dict_layout and "rec['" in dict_layout
    assert "dict(row)" not in removed and "rec['" not in removed
    # Dictionary to array: relations live in vectors, not hash maps.
    hash_map, arrays = sources["cpp + memory mgmt (hash)"], sources["cpp dict-to-array"]
    assert "std::unordered_map<int64_t, Row_" in hash_map and "std::vector<Row_" not in hash_map
    assert "std::vector<Row_" in arrays and "std::unordered_map<int64_t, Row_" not in arrays


@pytest.mark.timing
def test_fig7b_timing_ordering():
    if not gxx_available():
        pytest.skip("g++ not available")
    timings, _ = measure_ladder()
    # Robust orderings (see module docstring).
    assert timings["py record removal"] < timings["py compiled (dict layout)"] * 1.05
    assert timings["cpp @ python workload"] < timings["py record removal"]
    assert timings["cpp dict-to-array"] < timings["cpp + memory mgmt (hash)"]
    # The sorted-trie rung is reported but not asserted: its advantage
    # over hash tries depends on key clustering the synthetic data lacks
    # and is noise-sensitive on shared hardware (see EXPERIMENTS.md).


def _timed(fn, data) -> float:
    start = time.perf_counter()
    fn(data)
    return time.perf_counter() - start
