"""Algebraic laws of the runtime ring, property-checked with hypothesis.

Σ folds with ``v_add`` and factorization commutes ``v_mul``, so the
optimizer's correctness rests on these laws holding across the whole
value domain (numbers, records, dictionaries).
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.runtime.rings import is_zero, v_add, v_mul, v_neg
from repro.runtime.values import DictValue, RecordValue

from compare import values_close

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
scalars = st.one_of(st.integers(min_value=-1000, max_value=1000), finite_floats)

FIELD_NAMES = ("u", "v")


@st.composite
def records(draw):
    return RecordValue({name: draw(finite_floats) for name in FIELD_NAMES})


@st.composite
def dicts(draw):
    keys = draw(st.lists(st.integers(0, 6), max_size=4, unique=True))
    return DictValue({k: draw(finite_floats) for k in keys})


same_domain_pairs = st.one_of(
    st.tuples(scalars, scalars),
    st.tuples(records(), records()),
    st.tuples(dicts(), dicts()),
)

same_domain_triples = st.one_of(
    st.tuples(scalars, scalars, scalars),
    st.tuples(records(), records(), records()),
    st.tuples(dicts(), dicts(), dicts()),
)


@given(same_domain_pairs)
def test_addition_commutative(pair):
    a, b = pair
    assert values_close(v_add(a, b), v_add(b, a), rel_tol=1e-9, abs_tol=1e-6)


@given(same_domain_triples)
def test_addition_associative(triple):
    a, b, c = triple
    assert values_close(
        v_add(v_add(a, b), c), v_add(a, v_add(b, c)), rel_tol=1e-6, abs_tol=1e-4
    )


@given(same_domain_pairs)
def test_zero_is_identity(pair):
    a, _ = pair
    assert values_close(v_add(a, 0), a)
    assert values_close(v_add(0, a), a)


@given(same_domain_pairs)
def test_additive_inverse(pair):
    a, _ = pair
    assert is_zero(v_add(a, v_neg(a))) or values_close(
        v_add(a, v_neg(a)), 0, abs_tol=1e-6
    )


@given(scalars, same_domain_pairs)
def test_scalar_distributes_over_addition(s, pair):
    a, b = pair
    left = v_mul(s, v_add(a, b))
    right = v_add(v_mul(s, a), v_mul(s, b))
    assert values_close(left, right, rel_tol=1e-6, abs_tol=1e-3)


@given(scalars, scalars, same_domain_pairs)
# s * t underflows to 0.0 while t * a keeps a subnormal payload.
@example(0.5, 5e-324, (RecordValue({"u": 0.0, "v": 2.0}), RecordValue({"u": 0.0, "v": 0.0})))
def test_scalar_multiplication_associative(s, t, pair):
    a, _ = pair
    assert values_close(
        v_mul(s, v_mul(t, a)), v_mul(s * t, a), rel_tol=1e-6, abs_tol=1e-3
    )


@given(same_domain_pairs)
def test_multiplication_commutative(pair):
    a, b = pair
    assert values_close(v_mul(a, b), v_mul(b, a), rel_tol=1e-9, abs_tol=1e-6)


@given(dicts(), dicts(), dicts())
def test_dict_multiplication_distributes(a, b, c):
    left = v_mul(a, v_add(b, c))
    right = v_add(v_mul(a, b), v_mul(a, c))
    assert values_close(left, right, rel_tol=1e-6, abs_tol=1e-3)
