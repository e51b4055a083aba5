"""Fault-tolerance policies for the serving layer.

The serving stack coalesces, fuses, shards and incrementally maintains
aggregate runs, but until this module existed a single hung worker or
queue pile-up stalled every waiter forever.  Four small, composable
primitives fix that:

* :class:`DeadlineExceeded` / request deadlines — every ``submit`` can
  carry a relative deadline (seconds); it is enforced while the request
  is queued *and* while its run is in flight, and a request abandoned
  by all of its waiters before dispatch is cancelled outright so it
  never occupies a pool slot.
* :class:`QueueFull` / bounded admission — per-database queue caps with
  a policy: ``"reject"`` answers over-cap submissions immediately with
  backpressure, ``"wait"`` parks them until a slot frees (still subject
  to the deadline), so one hot database cannot starve the rest.
* :class:`RetryPolicy` — exponential backoff with **deterministic
  seeded jitter** for transient failures (a sharded backend's worker
  that stayed dead through its shard retries).  Retrying is safe because kernels are
  pure: a retried run recomputes the same fold over the same data and
  is bit-identical to the clean path.
* :class:`CircuitBreaker` — repeated failures on the thread pool trip
  the breaker and runs degrade to inline execution on the event loop;
  after ``reset_seconds`` the breaker
  half-opens and a probe run decides between recovery (``closed``) and
  another ``open`` period.

Everything here is deterministic under test: the retry jitter comes
from a seeded RNG, and the breaker takes an injectable ``clock`` so
tests advance time explicitly instead of sleeping.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable


class DeadlineExceeded(TimeoutError):
    """The request's deadline expired before a result was produced.

    Raised to the waiter only: a run already in flight keeps executing
    (threads cannot be interrupted) and its result feeds any remaining
    waiters, but a run *all* of whose waiters have gone is cancelled
    before dispatch.
    """


class QueueFull(RuntimeError):
    """Admission control rejected the request: the target database's
    pending-run queue is at its cap (``queue_policy="reject"``)."""


class TransientError(RuntimeError):
    """A transient executor failure that is safe to retry.

    Kernels are pure functions of (plan, layout, database), so a rerun
    after a transient fault returns a bit-identical result.  The fault
    harness (:mod:`repro.serving.faults`) raises this to model respawn
    windows and flaky infrastructure;
    :class:`~repro.backend.process_pool.WorkerError` is the organic
    equivalent (a sharded backend's worker died mid-run).
    """


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic, seeded jitter.

    Attempt ``k`` (1-based) sleeps ``min(max_delay, base_delay *
    2**(k-1))`` scaled by ``1 + jitter * u`` where ``u`` is the next
    draw of a ``random.Random(seed)`` stream — so two services built
    with the same policy back off on the *same* schedule, and tests can
    set ``base_delay=0`` to retry immediately.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def rng(self) -> random.Random:
        return random.Random(self.seed)

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry ``attempt`` (1-based), jittered from ``rng``."""
        raw = min(self.max_delay, self.base_delay * (2 ** max(0, attempt - 1)))
        if self.jitter and raw:
            raw *= 1.0 + self.jitter * rng.random()
        return raw

    def as_dict(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "base_delay": self.base_delay,
            "max_delay": self.max_delay,
            "jitter": self.jitter,
        }


@dataclass
class CircuitBreaker:
    """A consecutive-failure circuit breaker with half-open probes.

    States: ``closed`` (normal), ``open`` (the stage is skipped and
    runs degrade inline), ``half_open`` (the reset period
    elapsed; the next run probes the stage — success closes the
    breaker, failure reopens it).  Only *transient* failures are
    recorded: a planning error or a bad batch says nothing about the
    health of the executor.

    ``clock`` is injectable so tests drive the reset window explicitly
    instead of sleeping.
    """

    name: str = "thread"
    failure_threshold: int = 5
    reset_seconds: float = 30.0
    clock: Callable[[], float] = time.monotonic
    on_transition: Callable[[str, str, str], None] | None = field(
        default=None, repr=False
    )

    state: str = field(default="closed", init=False)
    failures: int = field(default=0, init=False)
    opened_at: float = field(default=0.0, init=False)
    trips: int = field(default=0, init=False)
    recoveries: int = field(default=0, init=False)
    transitions: list = field(default_factory=list, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )

    def _to(self, state: str) -> None:
        if state == self.state:
            return
        previous, self.state = self.state, state
        self.transitions.append((previous, state))
        if state == "open":
            self.trips += 1
            self.opened_at = self.clock()
        elif state == "closed" and previous in ("open", "half_open"):
            self.recoveries += 1
        if self.on_transition is not None:
            self.on_transition(self.name, previous, state)

    def allow(self) -> bool:
        """Whether the guarded stage may run now.

        An open breaker whose reset period has elapsed transitions to
        ``half_open`` and allows the call through as the probe.
        """
        if self.state == "closed":
            return True
        if self.state == "open":
            if self.clock() - self.opened_at >= self.reset_seconds:
                self._to("half_open")
                return True
            return False
        return True  # half_open: probe

    def record_success(self) -> None:
        self.failures = 0
        if self.state != "closed":
            self._to("closed")

    def record_failure(self) -> None:
        self.failures += 1
        if self.state == "half_open" or self.failures >= self.failure_threshold:
            self._to("open")

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "state": self.state,
            "failures": self.failures,
            "failure_threshold": self.failure_threshold,
            "reset_seconds": self.reset_seconds,
            "trips": self.trips,
            "recoveries": self.recoveries,
            "transitions": [list(t) for t in self.transitions],
        }
