"""Serving-layer counters: coalescing, fusion, queue latency, ingest.

:class:`ServiceStats` is owned by one :class:`~repro.serving.service.
AggregateService` and mutated only from its event loop, so the counters
need no locking.  ``as_dict`` flattens the counters into one
JSON-friendly dict; :meth:`~repro.serving.service.AggregateService.
stats_dict` adds the kernel cache's counters and each registered
database's column-store byte estimate, which is the report the
serving benchmark reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class FingerprintStats:
    """Per-plan-fingerprint request accounting."""

    requests: int = 0
    #: requests answered by an execution another request started
    coalesced: int = 0
    #: requests executed as members of a fused multi-plan kernel
    fused: int = 0
    #: kernel executions actually performed for this fingerprint
    runs: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "requests": self.requests,
            "coalesced": self.coalesced,
            "fused": self.fused,
            "runs": self.runs,
        }


@dataclass
class ServiceStats:
    """Aggregate counters for one :class:`AggregateService`."""

    #: requests submitted
    requests: int = 0
    #: dispatched units whose run succeeded.  A unit is one queued
    #: entry: its creator's request plus every waiter coalesced onto
    #: it, so coalesced waiters and view hits are counted in neither
    #: ``completed`` nor ``errors``; a fused run adds one per member
    completed: int = 0
    #: dispatched units whose run raised (same unit as ``completed``)
    errors: int = 0
    #: requests that piggybacked on an in-flight execution of the same
    #: (database, fingerprint, predicates) key instead of running
    coalesced: int = 0
    #: group-by requests executed as members of a fused multi-plan run
    fused_requests: int = 0
    #: kernel executions performed (every coalesced/fused request above
    #: is a request *not* counted here — the whole point)
    runs: int = 0
    #: runs that executed a fused MultiBatchPlan bundle
    fused_runs: int = 0
    #: waiters cancelled with DeadlineExceeded (queued or in flight)
    deadline_timeouts: int = 0
    #: submissions rejected with QueueFull by bounded admission
    queue_rejections: int = 0
    #: queued units cancelled before dispatch because every waiter left
    #: (they never occupied a pool slot)
    cancelled_queued: int = 0
    #: runs that completed after their last waiter had already timed out
    abandoned_runs: int = 0
    #: requests answered straight from a maintained materialized view
    view_hits: int = 0
    #: ingest batches applied via AggregateService.ingest
    ingests: int = 0
    #: rows appended across all ingests
    ingest_rows: int = 0
    #: maintained views refreshed by an incremental delta run
    delta_runs: int = 0
    #: maintained views refreshed by a full recompute (non-root or
    #: non-pure ingests, or backends without the delta protocol)
    full_recomputes: int = 0
    #: register_database calls absorbed as idempotent re-registrations
    reregistrations: int = 0
    #: wall-clock seconds spent in delta maintenance runs
    delta_seconds_total: float = 0.0
    #: wall-clock seconds spent in ingest-time full recomputes
    full_seconds_total: float = 0.0
    #: seconds dispatched units spent queued before their run started
    #: (``queue_seconds_mean`` divides by ``completed + errors``)
    queue_seconds_total: float = 0.0
    queue_seconds_max: float = 0.0
    #: request, coalescing, fusion and run counts per plan fingerprint
    per_fingerprint: dict[str, FingerprintStats] = field(default_factory=dict)

    def fingerprint(self, fp: str) -> FingerprintStats:
        stats = self.per_fingerprint.get(fp)
        if stats is None:
            stats = self.per_fingerprint[fp] = FingerprintStats()
        return stats

    @property
    def coalesce_rate(self) -> float:
        """Fraction of requests that never paid for their own kernel run."""
        if not self.requests:
            return 0.0
        return (self.coalesced + max(0, self.fused_requests - self.fused_runs)) / self.requests

    @property
    def delta_speedup(self) -> float:
        """Mean full-recompute seconds over mean delta-run seconds.

        The ingest-path headline number: how much cheaper maintaining a
        view incrementally is than recomputing it.  0.0 until both
        paths have run at least once.
        """
        if not self.delta_runs or not self.full_recomputes:
            return 0.0
        delta_mean = self.delta_seconds_total / self.delta_runs
        full_mean = self.full_seconds_total / self.full_recomputes
        return full_mean / delta_mean if delta_mean > 0 else 0.0

    def reset(self) -> None:
        """Zero every counter (benchmarks separating warmup from measurement)."""
        self.__init__()

    def record_queue_latency(self, seconds: float) -> None:
        self.queue_seconds_total += seconds
        self.queue_seconds_max = max(self.queue_seconds_max, seconds)

    def as_dict(self) -> dict:
        dispatched = self.completed + self.errors
        return {
            "requests": self.requests,
            "completed": self.completed,
            "errors": self.errors,
            "coalesced": self.coalesced,
            "fused_requests": self.fused_requests,
            "runs": self.runs,
            "fused_runs": self.fused_runs,
            "deadline_timeouts": self.deadline_timeouts,
            "queue_rejections": self.queue_rejections,
            "cancelled_queued": self.cancelled_queued,
            "abandoned_runs": self.abandoned_runs,
            "view_hits": self.view_hits,
            "ingests": self.ingests,
            "ingest_rows": self.ingest_rows,
            "delta_runs": self.delta_runs,
            "full_recomputes": self.full_recomputes,
            "reregistrations": self.reregistrations,
            "delta_seconds_total": round(self.delta_seconds_total, 6),
            "full_seconds_total": round(self.full_seconds_total, 6),
            "delta_speedup": round(self.delta_speedup, 4),
            "coalesce_rate": round(self.coalesce_rate, 4),
            "queue_seconds_total": round(self.queue_seconds_total, 6),
            "queue_seconds_max": round(self.queue_seconds_max, 6),
            "queue_seconds_mean": round(
                self.queue_seconds_total / dispatched, 6
            ) if dispatched else 0.0,
            "per_fingerprint": {
                fp: s.as_dict() for fp, s in self.per_fingerprint.items()
            },
        }
