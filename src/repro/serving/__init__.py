"""Async aggregate serving over the compiled-kernel stack.

Layer map::

    requests.py   AggregateRequest / GroupByRequest / MultiGroupByRequest
                  + predicate_key (the δ half of the coalescing identity)
    stats.py      ServiceStats / FingerprintStats counters
    service.py    AggregateService: asyncio front end with per-fingerprint
                  request coalescing, adaptive group-by fusion, a bounded
                  thread pool, request deadlines (DeadlineExceeded) and
                  bounded admission (QueueFull), database
                  registration/eviction hooks, and streaming ingest
                  maintaining cached results as materialized views
                  (delta folds, not recomputes)

See ``docs/SERVING.md`` for the end-to-end tour (the Reliability
section covers deadlines, admission and failures),
``examples/serving_tour.py`` for a runnable quickstart, and
``examples/streaming_ingest.py`` for the ingest path.
"""

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
    DeadlineExceeded,
    QueueFull,
)
from repro.serving.stats import FingerprintStats, ServiceStats

__all__ = [
    "AggregateRequest",
    "AggregateService",
    "DEFAULT_SERVICE_WORKERS",
    "DatabaseNotRegistered",
    "DeadlineExceeded",
    "FingerprintStats",
    "GroupByRequest",
    "MAX_VIEWS_PER_DB",
    "MultiGroupByRequest",
    "QueueFull",
    "Request",
    "ServiceStats",
    "predicate_key",
]
