"""Approximate structural equality for runtime values.

Optimizations reassociate floating-point arithmetic, so semantic
preservation is checked up to relative tolerance.  Comparison recurses
through records, dictionaries and sets; dictionary keys must match
exactly (they are categorical/join values, never derived floats).
"""

from __future__ import annotations

import math
from typing import Any

from repro.runtime.values import DictValue, FieldValue, RecordValue, SetValue, VariantValue


def values_close(a: Any, b: Any, rel_tol: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    """Recursive approximate equality across the IFAQ value domain."""
    if isinstance(a, bool) or isinstance(b, bool):
        return bool(a) == bool(b)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)
    if isinstance(a, FieldValue) and isinstance(b, FieldValue):
        return a.name == b.name
    if isinstance(a, RecordValue) and isinstance(b, RecordValue):
        if set(a.field_names()) != set(b.field_names()):
            return False
        return all(values_close(a[k], b[k], rel_tol, abs_tol) for k in a.field_names())
    if isinstance(a, VariantValue) and isinstance(b, VariantValue):
        return a.tag == b.tag and values_close(a.value, b.value, rel_tol, abs_tol)
    if isinstance(a, DictValue) and isinstance(b, DictValue):
        # Compare modulo zero entries: {{k → 0}} and {{}} are the same
        # bag (constructors normally drop zeros, but hand-built values
        # in tests may carry them).
        from repro.runtime.rings import is_zero as _is_zero

        keys = set(a.keys()) | set(b.keys())
        return all(
            values_close(a.get(k, 0), b.get(k, 0), rel_tol, abs_tol) for k in keys
        )
    if isinstance(a, SetValue) and isinstance(b, SetValue):
        return set(a.elements()) == set(b.elements())
    # Mixed scalar-vs-collection: a scalar zero equals an empty collection
    # (the polymorphic additive identity), and a collection whose
    # payloads are all within ``abs_tol`` of zero — a scale by an
    # underflowed factor yields the scalar 0 on one side and subnormal
    # payloads on the other.
    if isinstance(a, (int, float)) and a == 0:
        return _near_zero(b, abs_tol)
    if isinstance(b, (int, float)) and b == 0:
        return _near_zero(a, abs_tol)
    return a == b


def _near_zero(v: Any, abs_tol: float) -> bool:
    """Is ``v`` within ``abs_tol`` of its domain's additive identity?"""
    from repro.runtime.rings import is_zero

    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return abs(v) <= abs_tol
    if isinstance(v, (RecordValue, DictValue)):
        return all(_near_zero(x, abs_tol) for x in v.values())
    return is_zero(v)
