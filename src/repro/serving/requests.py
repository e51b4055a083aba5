"""Request types accepted by the serving layer, and their plan identity.

A request names a *registered database* plus the work to run over it:

* :class:`AggregateRequest` — a plain scalar batch, answered with the
  ``{spec.name: value}`` dictionary ``execute`` returns;
* :class:`GroupByRequest` — one group-by batch, answered with the
  ``{group value: [aggregate values]}`` dictionary ``run_groupby``
  returns;
* :class:`MultiGroupByRequest` — one batch grouped by several
  attributes at once (the regression-tree per-node shape), answered
  with ``{group_attr: {group value: [values]}}``.

Requests carry optional per-relation δ ``predicates`` exactly like the
engines do.  Predicates are *execution-time* state — they are not part
of the kernel identity — but they are part of the **request identity**:
two requests only coalesce when their predicates are provably equal
(see :func:`predicate_key`).

Requests may also carry a ``deadline`` — a *relative* budget in
seconds, measured from submission.  It is serving-time state only
(never part of the kernel or coalescing identity): the service cancels
the waiter with :class:`~repro.serving.service.DeadlineExceeded` when
the budget expires while the request is queued or in flight.  An
explicit ``deadline=`` argument to ``submit`` overrides it; the
service's ``default_deadline`` applies when both are ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.aggregates.batch import AggregateBatch


@dataclass(frozen=True)
class AggregateRequest:
    """A plain scalar aggregate batch over a registered database."""

    database: str
    batch: AggregateBatch
    predicates: Mapping[str, Sequence] | None = field(default=None, compare=False)
    deadline: float | None = field(default=None, compare=False)


@dataclass(frozen=True)
class GroupByRequest:
    """One group-by aggregate batch (``{group value: [values]}``)."""

    database: str
    batch: AggregateBatch
    group_attr: str
    predicates: Mapping[str, Sequence] | None = field(default=None, compare=False)
    deadline: float | None = field(default=None, compare=False)


@dataclass(frozen=True)
class MultiGroupByRequest:
    """One batch grouped by several attributes, fused into one kernel."""

    database: str
    batch: AggregateBatch
    group_attrs: tuple[str, ...]
    predicates: Mapping[str, Sequence] | None = field(default=None, compare=False)
    deadline: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "group_attrs", tuple(self.group_attrs))
        if not self.group_attrs:
            raise ValueError("MultiGroupByRequest needs at least one group attribute")


Request = AggregateRequest | GroupByRequest | MultiGroupByRequest


def predicate_key(predicates: Mapping[str, Sequence] | None) -> tuple:
    """A hashable identity for a δ predicate set, for coalescing.

    Structured conditions exposing ``feature``/``op``/``threshold``
    (the CART learner's :class:`~repro.ml.regression_tree.Condition`)
    compare **structurally**, so two clients asking for the same split
    region coalesce even when they built their own condition objects.
    Opaque callables compare by object identity — conservative, never
    wrong: structurally-equal-but-distinct callables simply don't
    coalesce.
    """
    if not predicates:
        return ()
    parts: list[tuple] = []
    for rel in sorted(predicates):
        preds = predicates[rel]
        if not preds:
            continue
        ids: list[Any] = []
        for p in preds:
            feature = getattr(p, "feature", None)
            op = getattr(p, "op", None)
            threshold = getattr(p, "threshold", None)
            if feature is not None and op is not None:
                ids.append(("cond", feature, op, threshold))
            else:
                ids.append(("id", id(p)))
        parts.append((rel, tuple(sorted(ids, key=repr))))
    return tuple(parts)
