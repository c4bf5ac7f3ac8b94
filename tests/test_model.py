"""Cardinality semiring, ordering, and sequence permutation equality."""

import itertools

import pytest
from hypothesis import given, strategies as st

from cardinality_tables import ADD_TABLE, JOIN_TABLE, LE_TABLE, MUL_TABLE
from grql.model import (
    ALL_CARDINALITIES,
    AT_LEAST_ONE,
    AT_MOST_ONE,
    Cardinality,
    EMPTY,
    INF,
    IntVal,
    MANY,
    ONE,
    ObjVal,
    ScalarType,
    StoredRefType,
    StrVal,
    card_add,
    card_if_join,
    card_le,
    card_mul,
    invis,
    seq_perm_eq,
    vis,
)

MODES = ALL_CARDINALITIES
PAIRS = list(itertools.product(MODES, MODES))


def test_exactly_five_inhabitants():
    assert len(MODES) == 5
    with pytest.raises(ValueError):
        Cardinality(1, 0)
    with pytest.raises(ValueError):
        Cardinality(2, 2)


@pytest.mark.parametrize("a,b", PAIRS)
def test_add_matches_table(a, b):
    assert card_add(a, b) == ADD_TABLE[(a, b)]


@pytest.mark.parametrize("a,b", PAIRS)
def test_mul_matches_table(a, b):
    assert card_mul(a, b) == MUL_TABLE[(a, b)]


@pytest.mark.parametrize("a,b", PAIRS)
def test_le_matches_table(a, b):
    assert card_le(a, b) == LE_TABLE[(a, b)]


@pytest.mark.parametrize("a,b", PAIRS)
def test_if_join_matches_table(a, b):
    assert card_if_join(a, b) == JOIN_TABLE[(a, b)]


def test_add_examples():
    for m in MODES:
        assert card_add(EMPTY, m) == m
    assert card_add(AT_MOST_ONE, ONE) == AT_LEAST_ONE
    assert card_add(ONE, ONE) == AT_LEAST_ONE


def test_mul_examples():
    for m in MODES:
        assert card_mul(ONE, m) == m
    assert card_mul(AT_LEAST_ONE, MANY) == MANY
    assert card_mul(EMPTY, AT_LEAST_ONE) == EMPTY


def test_le_examples():
    assert card_le(ONE, MANY)
    assert not card_le(AT_LEAST_ONE, ONE)
    assert card_le(EMPTY, EMPTY)


def test_if_join_examples():
    assert card_if_join(ONE, ONE) == ONE
    assert card_if_join(EMPTY, AT_LEAST_ONE) == MANY
    assert card_if_join(AT_MOST_ONE, AT_LEAST_ONE) == MANY


def test_semiring_laws_exhaustive():
    for a, b in PAIRS:
        assert card_add(a, b) == card_add(b, a)
        assert card_mul(a, b) == card_mul(b, a)
    for a in MODES:
        assert card_add(EMPTY, a) == a
        assert card_mul(ONE, a) == a
        assert card_mul(EMPTY, a) == EMPTY
    for a, b, c in itertools.product(MODES, repeat=3):
        assert card_add(card_add(a, b), c) == card_add(a, card_add(b, c))
        assert card_mul(card_mul(a, b), c) == card_mul(a, card_mul(b, c))
        assert card_mul(a, card_add(b, c)) == card_add(card_mul(a, b), card_mul(a, c))


def test_partial_order_laws():
    for a in MODES:
        assert card_le(a, a)
    for a, b in PAIRS:
        if card_le(a, b) and card_le(b, a):
            assert a == b
    for a, b, c in itertools.product(MODES, repeat=3):
        if card_le(a, b) and card_le(b, c):
            assert card_le(a, c)


def _lengths(m: Cardinality) -> list[int]:
    hi = 3 if m.hi == INF else int(m.hi)
    return [n for n in range(0, hi + 1) if m.admits(n)]


@given(st.sampled_from(PAIRS), st.data())
def test_concat_length_in_added_mode(pair, data):
    a, b = pair
    la = data.draw(st.sampled_from(_lengths(a)))
    lb = data.draw(st.sampled_from(_lengths(b)))
    assert card_add(a, b).admits(la + lb)


@given(st.sampled_from(PAIRS), st.data())
def test_repeated_length_in_multiplied_mode(pair, data):
    # n sequences of length within a, concatenated, land within a * b when
    # n is within b
    a, b = pair
    n = data.draw(st.sampled_from(_lengths(b)))
    parts = [data.draw(st.sampled_from(_lengths(a))) for _ in range(n)]
    assert card_mul(a, b).admits(sum(parts))


# -- sequence permutation equality ------------------------------------------

def test_perm_eq_paper_example():
    assert seq_perm_eq([IntVal(3), IntVal(4), IntVal(4)],
                       [IntVal(4), IntVal(3), IntVal(4)])


def test_perm_eq_trivial():
    assert seq_perm_eq([], [])
    assert not seq_perm_eq([IntVal(3)], [IntVal(3), IntVal(3)])


def test_perm_eq_respects_multiplicity():
    assert not seq_perm_eq([IntVal(3), IntVal(3)], [IntVal(3), IntVal(4)])


def test_perm_eq_compares_shapes_and_visibility():
    from grql.model import olabel

    a = ObjVal("7", {olabel("rating"): vis([IntVal(4)])})
    b = ObjVal("7", {olabel("rating"): invis([IntVal(4)])})
    assert not seq_perm_eq([a], [b])
    assert seq_perm_eq([a], [ObjVal("7", {olabel("rating"): vis([IntVal(4)])})])


@given(st.lists(st.integers(-5, 5), max_size=6), st.randoms())
def test_perm_eq_invariant_under_permutation(xs, rnd):
    vals = [IntVal(x) for x in xs]
    shuffled = list(vals)
    rnd.shuffle(shuffled)
    assert seq_perm_eq(vals, shuffled)


@given(st.lists(st.integers(-3, 3), max_size=5), st.lists(st.integers(-3, 3), max_size=5))
def test_perm_eq_is_multiset_equality(xs, ys):
    assert seq_perm_eq([IntVal(x) for x in xs], [IntVal(y) for y in ys]) == (
        sorted(xs) == sorted(ys)
    )


def test_values_are_not_cross_type_equal():
    # BoolVal(True) must not collide with IntVal(1)
    from grql.model import BoolVal

    assert not seq_perm_eq([BoolVal(True)], [IntVal(1)])
    assert not seq_perm_eq([StrVal("1")], [IntVal(1)])


def test_stored_ref_type_rejects_a_link_property_without_at():
    # the one place the link-property label kind is enforced
    with pytest.raises(ValueError, match="link property label expected"):
        StoredRefType("T", (("z", (ScalarType.INT, ONE)),))
