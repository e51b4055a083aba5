"""Async aggregate serving over the compiled-kernel stack.

Layer map::

    requests.py   AggregateRequest / GroupByRequest / MultiGroupByRequest
                  + predicate_key (the δ half of the coalescing identity)
    stats.py      ServiceStats / FingerprintStats counters
    policies.py   fault-tolerance policies: request deadlines
                  (DeadlineExceeded), bounded admission (QueueFull),
                  RetryPolicy backoff, CircuitBreaker degradation
    faults.py     deterministic fault injection: FaultSchedule plus the
                  FaultyBackend / FaultyExecutor wrappers
    service.py    AggregateService: asyncio front end with per-fingerprint
                  request coalescing, adaptive group-by fusion, a bounded
                  thread pool (degrading inline behind one circuit
                  breaker), database registration/eviction hooks, and
                  streaming ingest maintaining cached results as
                  materialized views (delta folds, not recomputes)

See ``docs/SERVING.md`` for the end-to-end tour (the Reliability
section covers deadlines, admission, retries and breakers),
``examples/serving_tour.py`` for a runnable quickstart, and
``examples/streaming_ingest.py`` for the ingest path.
"""

from repro.serving.faults import (
    CorruptSpill,
    Delay,
    Every,
    Fail,
    FaultSchedule,
    FaultyBackend,
    FaultyExecutor,
    Hold,
    KillWorker,
    Sometimes,
    corrupt_spilled_sources,
)
from repro.serving.policies import (
    CircuitBreaker,
    DeadlineExceeded,
    QueueFull,
    RetryPolicy,
    TransientError,
)
from repro.serving.requests import (
    AggregateRequest,
    GroupByRequest,
    MultiGroupByRequest,
    Request,
    predicate_key,
)
from repro.serving.service import (
    DEFAULT_SERVICE_WORKERS,
    MAX_VIEWS_PER_DB,
    AggregateService,
    DatabaseNotRegistered,
)
from repro.serving.stats import FingerprintStats, ServiceStats

__all__ = [
    "AggregateRequest",
    "AggregateService",
    "CircuitBreaker",
    "CorruptSpill",
    "DEFAULT_SERVICE_WORKERS",
    "DatabaseNotRegistered",
    "DeadlineExceeded",
    "Delay",
    "Every",
    "Fail",
    "FaultSchedule",
    "FaultyBackend",
    "FaultyExecutor",
    "FingerprintStats",
    "GroupByRequest",
    "Hold",
    "KillWorker",
    "MAX_VIEWS_PER_DB",
    "MultiGroupByRequest",
    "QueueFull",
    "Request",
    "RetryPolicy",
    "ServiceStats",
    "Sometimes",
    "TransientError",
    "corrupt_spilled_sources",
    "predicate_key",
]
