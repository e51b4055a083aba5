"""Serving workloads: ``serve_read`` and ``serve_ingest``.

One process, one event-loop thread: the ``CLIENTS`` logical clients are
coroutines, the service's thread pool is pinned to ``WORKERS``.  Requests
are generated from the seed before timing starts.
"""

from __future__ import annotations

import asyncio
import itertools
import random
from dataclasses import dataclass, field

from repro import KernelCache
from repro.aggregates import build_join_tree, covar_batch, variance_batch
from repro.aggregates.engine import assign_attribute_owners
from repro.backend import (
    MultiBatchPlan,
    build_batch_plan,
    evict_column_store,
    get_backend,
)
from repro.backend.column_store import column_store_stats, reset_column_store_stats
from repro.backend.layout import LAYOUT_SORTED
from repro.data import favorita, retailer
from repro.ml import Condition
from repro.serving import (
    AggregateRequest,
    AggregateService,
    GroupByRequest,
    MultiGroupByRequest,
)

import e2e_spec as spec
from e2e_harness import Run, fingerprint_us, median, now, peak_rss_mb, percentile

MAKERS = {"favorita": favorita, "retailer": retailer}
#: every SAMPLE_STRIDE-th op keeps its response for the oracle
SAMPLE_STRIDE = 16
MAX_SAMPLES = 240


@dataclass
class Bundle:
    """One registered database and what the request generator needs."""

    name: str
    ds: object
    fact: str
    features: list          # Zipf rank order: the dataset's own feature order
    cum_weights: list
    owners: dict            # feature -> owning relation
    grids: dict             # feature -> threshold grid
    covars: list            # the small pool of covar batches
    variance: object
    ingest_pool: list = field(default_factory=list)
    ingest_log: list = field(default_factory=list)   # row batches, in apply order
    ingests_inflight: int = 0


def _make_bundle(name: str, ds, rng: random.Random, sizes) -> Bundle:
    db = ds.db
    tree = build_join_tree(db.schema(), tuple(db.relations), stats=dict(db.statistics()))
    owners = assign_attribute_owners(tree, db, ds.features)
    # Popularity follows the dataset's feature order for every seed: which
    # relation owns the hot attributes decides what a request costs, and the
    # seed is meant to change rows, thresholds and arrivals, not the work.
    features = list(ds.features)
    weights = [1.0 / (rank + 1) ** spec.ZIPF_S for rank in range(len(features))]
    grids = {}
    for f in features:
        domain = db.relation(owners[f]).active_domain(f)
        lo, hi = domain[0], domain[-1]
        grids[f] = [lo + (hi - lo) * (i + 0.5) / sizes["grid"] for i in range(sizes["grid"])]
    k = max(2, len(features) // 2)
    covars = [
        covar_batch(sorted(rng.sample(features, k)), label=ds.label)
        for _ in range(sizes["covar_subsets"])
    ]
    fact = ds.query.relations[0]
    return Bundle(
        name=name, ds=ds, fact=fact, features=features,
        cum_weights=list(itertools.accumulate(weights)), owners=owners, grids=grids,
        covars=covars, variance=variance_batch(ds.label),
        ingest_pool=[tuple(rec.values()) for rec in ds.test_db.relation(fact).data],
    )


def _delta(bundle: Bundle, rng: random.Random) -> dict:
    feature = rng.choice(bundle.features)
    op = rng.choice(("<=", ">"))
    return {bundle.owners[feature]: [Condition(feature, op, rng.choice(bundle.grids[feature]))]}


def _make_requests(bundles, rng: random.Random, count: int) -> list[tuple]:
    """``count`` seeded read requests as ``(kind, bundle, request)``.

    Every block of ``MIX_BLOCK`` requests holds each kind in exactly its
    ``READ_MIX`` share, split evenly over the databases, in seeded order.
    The latency distribution steps wherever one kind ends and the next
    begins; with shares left to chance, a percentile next to a step would
    follow the draw and not the service.
    """
    per_bundle = spec.MIX_BLOCK // len(bundles)
    block = [
        (kind, bundle)
        for kind, share in spec.READ_MIX.items()
        for bundle in bundles
        for _ in range(round(share * per_bundle))
    ]
    out = []
    while len(out) < count:
        rng.shuffle(block)
        for kind, bundle in block:
            hot = rng.choices(bundle.features, cum_weights=bundle.cum_weights)[0]
            if kind == "groupby":
                request = GroupByRequest(bundle.name, bundle.variance, hot)
            elif kind == "groupby_filtered":
                request = GroupByRequest(bundle.name, bundle.variance, hot, predicates=_delta(bundle, rng))
            elif kind == "multi_filtered":
                width = rng.randint(4, min(8, len(bundle.features)))
                request = MultiGroupByRequest(
                    bundle.name, bundle.variance, tuple(rng.sample(bundle.features, width)),
                    predicates=_delta(bundle, rng),
                )
            else:
                request = AggregateRequest(bundle.name, rng.choice(bundle.covars))
            out.append((kind, bundle, request))
    return out[:count]


async def _build(run: Run, rng_seed: int):
    """One full set-up: data, service, registration, every fingerprint warm."""
    sizes = run.sizes
    rng = random.Random(rng_seed)
    service = AggregateService(
        backend="numpy", executor="thread", max_workers=spec.WORKERS, kernel_cache=KernelCache()
    )
    bundles = []
    first_run = cold = 0.0
    for name, maker in MAKERS.items():
        ds = maker(scale=sizes["scale"], seed=run.seed)
        service.register_database(name, ds.db)
        bundle = _make_bundle(name, ds, rng, sizes)
        bundles.append(bundle)
        warm = [GroupByRequest(name, bundle.variance, f) for f in bundle.features]
        warm += [AggregateRequest(name, batch) for batch in bundle.covars]
        for index, request in enumerate(warm):  # one at a time, each a first request
            t0 = now()
            await service.submit(request)
            elapsed = now() - t0
            cold += elapsed
            if index == 0:  # the run that builds this database's column store
                first_run += elapsed
        # the δ-filtered and fused paths, once each
        await service.submit(GroupByRequest(name, bundle.variance, bundle.features[0], predicates=_delta(bundle, rng)))
        await service.submit(MultiGroupByRequest(name, bundle.variance, tuple(bundle.features[:4]), predicates=_delta(bundle, rng)))
    # The cold op: every fingerprint of both databases answered once.  (Single
    # first requests span 0.3 ms to 120 ms; their median sits on an edge.)
    run.cold_ms.append(cold * 1e3)
    return service, bundles, first_run


class _Recorder:
    """Read latencies per (phase, kind), failures, and the oracle's sample."""

    def __init__(self, run: Run):
        self.run = run
        self.ms: dict[tuple, list[float]] = {}
        self.samples: list[tuple] = []
        self._index = itertools.count()

    def latencies(self, phase: str, kind: str | None = None) -> list[float]:
        return [
            v for (p, k), values in self.ms.items() if p == phase and kind in (None, k) for v in values
        ]

    async def read(self, service, phase, kind, bundle, request, due=None):
        run = self.run
        index = next(self._index)
        version = bundle.ds.db.relation_version(bundle.fact)
        quiet = bundle.ingests_inflight == 0
        run.attempted += 1
        t0 = now()
        try:
            with run.tracer.span("op", op=index):
                response = await service.submit(request)
        except Exception as exc:  # noqa: BLE001 — a refused or failed request is a failed op
            run.fail(f"{kind} request raised {type(exc).__name__}: {exc}")
            return None
        latency = now() - (due if due is not None else t0)
        self.ms.setdefault((phase, kind), []).append(latency * 1e3)
        unambiguous = (
            quiet
            and bundle.ingests_inflight == 0
            and bundle.ds.db.relation_version(bundle.fact) == version
        )
        if index % SAMPLE_STRIDE == 0 and unambiguous and len(self.samples) < MAX_SAMPLES:
            self.samples.append((kind, bundle, request, version, response))
        return response


async def _closed_loop(run: Run, service, requests, seconds: float, recorder: _Recorder, ingest=None):
    """``CLIENTS`` coroutines each send their next op when the last returned."""
    cursor = itertools.count()
    deadline = now() + seconds
    every = run.sizes.get("ingest_every")

    async def client():
        while now() < deadline:
            position = next(cursor)
            if ingest is not None and position % every == every - 1 and await ingest(position):
                run.measured_ops += 1
                continue
            kind, bundle, request = requests[position % len(requests)]
            if await recorder.read(service, "closed", kind, bundle, request) is not None:
                run.measured_ops += 1

    with run.measured():
        await asyncio.gather(*(client() for _ in range(spec.CLIENTS)))


async def _open_loop(run: Run, service, requests, seconds: float, recorder: _Recorder) -> list[float]:
    """Seeded Poisson arrivals at the fixed rate; latency counts from the
    due time.  Returns how late (ms) the generator sent each request."""
    rng = random.Random(run.seed + 7)
    rate = run.sizes["rate_rps"]
    late_ms: list[float] = []
    tasks = []
    start = due = now()
    for kind, bundle, request in requests:
        due += rng.expovariate(rate)
        if due - start > seconds:
            break
        await asyncio.sleep(max(0.0, due - now()))
        late_ms.append(max(0.0, now() - due) * 1e3)
        tasks.append(asyncio.ensure_future(recorder.read(service, "open", kind, bundle, request, due=due)))
    await asyncio.gather(*tasks)
    return late_ms


# -- oracle ---------------------------------------------------------------------


class _Oracle:
    """Sequential single-shot evaluation on an independent, equal database."""

    def __init__(self, run: Run, bundle: Bundle):
        self.bundle = bundle
        self.db = MAKERS[bundle.name](scale=run.sizes["scale"], seed=run.seed).db
        self.backend = get_backend("numpy")
        self.cache = KernelCache()
        self.version = 0
        tree = build_join_tree(self.db.schema(), tuple(self.db.relations), stats=dict(self.db.statistics()))
        key_stats: dict = {}
        # Plans come from the pre-ingest statistics, exactly as the service
        # memoized them, so both sides associate their float sums alike.
        self.plans = {
            f: build_batch_plan(self.db, tree, bundle.variance, group_attr=f, key_stats=key_stats)
            for f in bundle.features
        }
        self.plans.update(
            {batch: build_batch_plan(self.db, tree, batch, key_stats=key_stats) for batch in bundle.covars}
        )

    def advance(self, version: int) -> None:
        while self.version < version:
            self.db.append_rows(self.bundle.fact, self.bundle.ingest_log[self.version])
            self.version += 1
            evict_column_store(self.db)  # a fresh store: full recompute

    def _groupby(self, attr, predicates):
        kernel = self.cache.get_or_compile(self.backend, self.plans[attr], LAYOUT_SORTED)
        return self.backend.run_groupby(kernel, self.db, predicates)

    def expected(self, kind, request):
        if kind == "covar":
            kernel = self.cache.get_or_compile(self.backend, self.plans[request.batch], LAYOUT_SORTED)
            return self.backend.execute(kernel, self.db)
        if kind == "multi_filtered":
            return {a: self._groupby(a, request.predicates) for a in request.group_attrs}
        return self._groupby(request.group_attr, request.predicates)


def _verify(run: Run, bundles, samples, max_versions: int = 4) -> None:
    """Check sampled responses with ``==`` at the version they were served."""
    checked = 0
    for bundle in bundles:
        mine = [s for s in samples if s[1] is bundle]
        versions = sorted({s[3] for s in mine})
        if len(versions) > max_versions:  # evenly spaced checkpoints
            step = (len(versions) - 1) / (max_versions - 1)
            versions = sorted({versions[round(i * step)] for i in range(max_versions)})
        oracle = _Oracle(run, bundle)
        for version in versions:
            oracle.advance(version)
            for kind, _b, request, at, response in mine:
                if at == version:
                    checked += 1
                    run.check(
                        response == oracle.expected(kind, request),
                        f"{bundle.name} {kind} response differs from the sequential oracle at version {version}",
                    )
    run.notes["oracle_checked"] = checked
    run.check(checked > 0, "no serving response was verified")


# -- layer metrics ---------------------------------------------------------------


def _service_layers(run: Run, service, ingests: int, cache_before) -> None:
    """Counters of the closed loop; call before any other phase adds to them."""
    report = service.stats_dict()
    s = report["service"]
    cache = service.kernel_cache.stats
    requests = max(1, s["requests"])
    ops = max(1, run.measured_ops)
    store = column_store_stats()
    run.layer.update({
        "serving.runs_per_request": s["runs"] / requests,
        "serving.coalesced_share": s["coalesced"] / requests,
        "serving.fused_share": s["fused_requests"] / requests,
        "serving.view_hit_share": s["view_hits"] / requests,
        "serving.coalesce_rate": s["coalesce_rate"],
        "serving.ingest_delta_runs_per_ingest": s["delta_runs"] / max(1, ingests),
        "serving.ingest_full_recomputes_per_ingest": s["full_recomputes"] / max(1, ingests),
        "serving.ingest_delta_s": s["delta_seconds_total"] / max(1, s["delta_runs"]),
        "serving.ingest_full_s": s["full_seconds_total"] / max(1, s["full_recomputes"]),
        "backend.cache.hits_per_op": (cache.hits - cache_before[0]) / ops,
        "backend.cache.misses_per_op": (cache.misses - cache_before[1]) / ops,
        "backend.column_store.builds_per_op": store.builds / ops,
        "backend.column_store.hits_per_op": store.hits / ops,
        "backend.column_store.memo_invalidations_per_ingest": store.memo_invalidations / max(1, ingests),
        "backend.column_store.delta_extends_per_ingest": store.delta_extends / max(1, ingests),
        "backend.column_store.approx_bytes": sum(
            (d["column_store"] or {}).get("approx_bytes", 0) for d in report["databases"].values()
        ),
    })


async def _probes(run: Run, service, bundle: Bundle) -> None:
    """Direct calls into the numpy backend on the workload's own kernels,
    and the service's per-request overhead on top of them (idle service)."""
    rng = random.Random(run.seed + 11)
    db, backend = bundle.ds.db, service.backend
    tree = build_join_tree(db.schema(), tuple(db.relations), stats=dict(db.statistics()))
    hot = bundle.features[0]

    t0 = now()
    plan = build_batch_plan(db, tree, bundle.variance, group_attr=hot)
    run.layer["backend.plan.build_s"] = now() - t0
    run.layer["backend.plan.fingerprint_us"] = fingerprint_us(plan, backend)

    def timed(fn, *args):
        t0 = now()
        fn(*args)
        return now() - t0

    kernel = service.kernel_cache.get_or_compile(backend, plan, LAYOUT_SORTED)
    covar = service.kernel_cache.get_or_compile(
        backend, build_batch_plan(db, tree, bundle.covars[0]), LAYOUT_SORTED
    )
    attrs = bundle.features[: min(6, len(bundle.features))]
    multi = service.kernel_cache.get_or_compile(
        backend,
        MultiBatchPlan([build_batch_plan(db, tree, bundle.variance, group_attr=a) for a in attrs]),
        LAYOUT_SORTED,
    )
    run.layer["backend.numpy_backend.execute_s"] = median([timed(backend.execute, covar, db) for _ in range(3)])
    run.layer["backend.numpy_backend.groupby_s"] = median([timed(backend.run_groupby, kernel, db) for _ in range(5)])
    filtered = median([timed(backend.run_groupby, kernel, db, _delta(bundle, rng)) for _ in range(10)])
    run.layer["backend.numpy_backend.groupby_filtered_s"] = filtered
    run.layer["backend.numpy_backend.groupby_many_s"] = median(
        [timed(backend.run_groupby_many, multi, db, _delta(bundle, rng)) for _ in range(5)]
    )
    fact_rows = len(db.relation(bundle.fact).data)
    run.layer["backend.numpy_backend.rows_per_s"] = fact_rows / filtered if filtered else 0.0

    overhead = []
    for _ in range(20):
        predicates = _delta(bundle, rng)
        t0 = now()
        await service.submit(GroupByRequest(bundle.name, bundle.variance, hot, predicates=predicates))
        served = now() - t0
        overhead.append((served - timed(backend.run_groupby, kernel, db, predicates)) * 1e3)
    run.layer["serving.overhead_ms"] = median(overhead)


# -- the two workloads ------------------------------------------------------------


def _ingester(run: Run, service, target: Bundle):
    """The write op of ``serve_ingest``: append the next held-out rows.

    Appends go to one database, so every ingest refreshes the same
    registration's views; reads of the other database never meet a writer.
    """
    rows_per = run.sizes["ingest_rows"]

    async def ingest(position: int) -> bool:
        at = len(target.ingest_log) * rows_per
        rows = target.ingest_pool[at : at + rows_per]
        if len(rows) < rows_per:
            return False  # held-out rows used up: the slot becomes a read
        target.ingest_log.append(rows)
        target.ingests_inflight += 1
        run.attempted += 1
        t0 = now()
        try:
            with run.tracer.span("op", op=f"ingest-{position}"):
                report = await service.ingest(target.name, target.fact, rows)
        except Exception as exc:  # noqa: BLE001 — a failed write is a failed op
            run.fail(f"ingest raised {type(exc).__name__}: {exc}")
            return False
        finally:
            target.ingests_inflight -= 1
        run.op_ms.append((now() - t0) * 1e3)
        run.check(report["pure_append"], "held-out rows were not a pure append")
        return True

    return ingest


async def _serve(run: Run, with_ingest: bool) -> None:
    service = None
    for rep in range(run.setup_reps):
        if service is not None:
            await service.close()
            service = bundles = None
        with run.timed_setup():
            service, bundles, first_run = await _build(run, run.seed + rep)
    try:
        run.layer["backend.column_store.first_run_s"] = first_run
        count = 400 if run.smoke else 8000
        requests = _make_requests(bundles, random.Random(run.seed), count)
        service.stats.reset()
        cache_before = (service.kernel_cache.stats.hits, service.kernel_cache.stats.misses)
        reset_column_store_stats()
        recorder = _Recorder(run)

        # serve_ingest is one closed loop.  serve_read gives the closed loop
        # the first part of its time, for capacity (ops_per_s), and the open
        # loop the rest: latency is what a user sees at a rate the service
        # keeps up with, not CLIENTS / ops_per_s of a saturated service.
        closed_seconds = run.seconds * (1.0 if with_ingest else run.sizes["closed_share"])
        await _closed_loop(
            run, service, requests, closed_seconds, recorder,
            _ingester(run, service, bundles[-1]) if with_ingest else None,
        )
        reads = recorder.latencies("closed")
        run.layer["serving.read_p50_ms"] = median(reads)
        run.layer["serving.read_p99_ms"] = percentile(reads, 99)
        _service_layers(run, service, len(run.op_ms), cache_before)
        if not with_ingest:
            service.stats.reset()
            arrivals = _make_requests(bundles, random.Random(run.seed + 3), count)
            late_ms = await _open_loop(run, service, arrivals, run.seconds - closed_seconds, recorder)
            run.op_ms = recorder.latencies("open")
            run.rss_mb = peak_rss_mb()  # measured() closed with the closed loop
            run.layer["serving.open_p50_ms"] = median(run.op_ms)
            run.layer["serving.open_p95_ms"] = percentile(run.op_ms, 95)
            run.layer["serving.gen_late_ms"] = median(late_ms)
        # Queue wait since the last reset: over the phase that timed the primary op.
        waited = service.stats_dict()["service"]
        run.layer["serving.queue_wait_mean_ms"] = waited["queue_seconds_mean"] * 1e3
        run.layer["serving.queue_wait_max_ms"] = waited["queue_seconds_max"] * 1e3
        if run.tracer.enabled:
            await _probes(run, service, bundles[-1])
    finally:
        await service.close()
    _verify(run, bundles, recorder.samples)


def serve_read(run: Run) -> None:
    asyncio.run(_serve(run, with_ingest=False))


def serve_ingest(run: Run) -> None:
    asyncio.run(_serve(run, with_ingest=True))
