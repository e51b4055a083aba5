"""Section 5 "Compilation Overhead" — g++ time for generated kernels.

The paper reports 4.3 s / 8.3 s (Retailer LR / trees) and 9.7 s / 2.4 s
(Favorita); the shape to reproduce is simply that compile times sit in
the seconds range and scale with the number of generated aggregate
statements (Retailer's 35-attribute covar kernel is the big one).

The kernel-cache benchmark measures what the registry refactor buys:
recompiling the same program/layout is a cache hit that skips code
generation entirely, so per-iteration or per-refit recompiles cost
microseconds instead of the cold-compile time.
"""

import pytest

from benchmarks.conftest import ifaq_backend, load_dataset
from repro.aggregates import build_join_tree, covar_batch
from repro.backend import KernelCache, get_backend
from repro.backend.codegen_cpp import generate_cpp_kernel
from repro.backend.compile_cpp import compile_kernel, gxx_available
from repro.backend.layout import LAYOUT_SORTED
from repro.backend.plan import build_batch_plan
from repro.bench import emit, emit_header, emit_kernel_cache, record_extra_info


# Retailer's 35-attribute kernel takes g++ tens of seconds and asserts
# nothing favorita's does not, so it runs only under ``-m timing``.
@pytest.mark.parametrize(
    "name", ["favorita", pytest.param("retailer", marks=pytest.mark.timing)]
)
@pytest.mark.benchmark(group="compilation-overhead")
def test_gcc_compile_time(benchmark, name, tmp_path):
    if not gxx_available():
        pytest.skip("g++ not available")
    ds = load_dataset(name, "small")
    batch = covar_batch(ds.features, label=ds.label)
    tree = build_join_tree(ds.db.schema(), ds.query.relations, stats=ds.db.statistics())
    from repro.backend.plan import build_batch_plan

    plan = build_batch_plan(ds.db, tree, batch)
    kernel = generate_cpp_kernel(plan, LAYOUT_SORTED)

    def compile_fresh():
        # a private work dir defeats the content-hash cache
        import tempfile

        with tempfile.TemporaryDirectory() as work:
            return compile_kernel(kernel, work_dir=work).compile_seconds

    seconds = benchmark.pedantic(compile_fresh, rounds=1, iterations=1)
    emit_header(f"Compilation overhead — {ds.name}")
    emit(f"  {len(batch)} aggregates, g++ -O3: {seconds:.2f} s")
    assert seconds > 0


@pytest.mark.parametrize("name", ["favorita", "retailer"])
@pytest.mark.benchmark(group="kernel-cache")
def test_kernel_cache_hit(benchmark, name):
    """A second compilation of the same plan/layout is a cache hit."""
    import time

    ds = load_dataset(name, "small")
    batch = covar_batch(ds.features, label=ds.label)
    tree = build_join_tree(ds.db.schema(), ds.query.relations, stats=ds.db.statistics())
    plan = build_batch_plan(ds.db, tree, batch)

    cache = KernelCache()
    backend = get_backend(ifaq_backend())

    started = time.perf_counter()
    cold = cache.get_or_compile(backend, plan, LAYOUT_SORTED)
    cold_seconds = time.perf_counter() - started

    warm = benchmark.pedantic(
        lambda: cache.get_or_compile(backend, plan, LAYOUT_SORTED),
        rounds=5, iterations=1,
    )
    assert warm is cold  # the cached kernel, not a regeneration
    assert cache.stats.hits >= 1 and cache.stats.misses == 1

    emit_header(f"Kernel cache — {ds.name} (backend={backend.name})")
    emit(f"  cold compile: {cold_seconds:.4f} s")
    emit_kernel_cache(cache.stats)
    record_extra_info(
        benchmark,
        kernel_cache=cache.stats.as_dict(),
        cold_compile_seconds=cold_seconds,
    )
