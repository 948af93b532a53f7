"""Unit tests for the dyadic rectangle layer."""

import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvcalc.dyadic_core import (
    MAX_DIM,
    Rect,
    corner_projections,
    count_rects,
    enumerate_rects,
    halve,
    rect_Il,
    rect_Ir,
    rect_intersect,
    word_interval,
)
from nvcalc.element_algebra import _random_leaves
from oracles import RectRelation, contains_point, corners, is_partition, rect_relation

F = Fraction

words = st.text(alphabet="01", min_size=0, max_size=8)
word_tuples = st.lists(words, min_size=1, max_size=3)


def all_words(max_len):
    for k in range(1, max_len + 1):
        for bits in itertools.product("01", repeat=k):
            yield "".join(bits)


# ---------------------------------------------------------------------------
# binary words


def test_word_value_examples():
    """A word's value is the left end of its interval."""
    assert word_interval("")[0] == 0
    assert word_interval("0")[0] == 0
    assert word_interval("1")[0] == F(1, 2)
    assert word_interval("011")[0] == F(3, 8)
    assert word_interval("1101")[0] == F(13, 16)


def test_word_interval_examples():
    assert word_interval("") == (F(0), F(1))
    assert word_interval("01") == (F(1, 4), F(1, 2))
    assert word_interval("111") == (F(7, 8), F(1))


@given(words)
def test_word_interval_width_and_bounds(w):
    lo, hi = word_interval(w)
    assert hi - lo == F(1, 2 ** len(w))
    assert 0 <= lo < hi <= 1


@given(words)
def test_word_prefix_means_nesting(w):
    lo, hi = word_interval(w)
    for bit in "01":
        slo, shi = word_interval(w + bit)
        assert lo <= slo < shi <= hi


# ---------------------------------------------------------------------------
# rectangles


def test_rect_basic_properties():
    r = Rect(("01", "1"))
    assert r.dim == 2
    assert r.depth == 3
    assert r.volume == F(1, 8)
    assert r.intervals() == ((F(1, 4), F(1, 2)), (F(1, 2), F(1)))


def test_rect_cube_and_halves():
    assert Rect.cube(3) == Rect(("", "", ""))
    assert Rect.cube(1).volume == 1
    assert rect_Il(2) == Rect(("0", ""))
    assert rect_Ir(2) == Rect(("1", ""))
    with pytest.raises(ValueError):
        Rect.cube(0)
    assert Rect.cube(MAX_DIM).dim == MAX_DIM
    past = MAX_DIM + 1
    with pytest.raises(ValueError, match=f"^dimension must be <= {MAX_DIM}, got {past}$"):
        Rect.cube(past)


def test_rect_rejects_bad_words():
    with pytest.raises(ValueError):
        Rect(("02",))
    with pytest.raises(ValueError):
        Rect((" 0",))
    with pytest.raises(ValueError):
        Rect(())
    with pytest.raises(ValueError):
        Rect(("2",))
    with pytest.raises(ValueError):
        Rect((0,))


@given(word_tuples, word_tuples)
def test_trusted_rect_matches_public_constructor(ws, other):
    public, trusted, b = Rect(tuple(ws)), Rect._trusted(tuple(ws)), Rect(tuple(other))
    assert trusted == public and hash(trusted) == hash(public)
    assert repr(trusted) == repr(public)
    assert (trusted < b, trusted > b, b < trusted) == (public < b, public > b, b < public)
    assert sorted([b, trusted]) == sorted([public, b])


def test_halve():
    lo, hi = halve(Rect(("0", "1")), 2)
    assert lo == Rect(("0", "10"))
    assert hi == Rect(("0", "11"))
    parent = Rect(("0", "1"))
    assert rect_relation(parent, lo) is RectRelation.A_CONTAINS_B
    assert rect_relation(lo, hi) is RectRelation.DISJOINT
    assert lo.volume + hi.volume == parent.volume
    with pytest.raises(ValueError):
        halve(parent, 3)
    with pytest.raises(ValueError):
        halve(parent, 0)


# ---------------------------------------------------------------------------
# relations and intersections


def test_rect_relation_all_five_outcomes():
    a = Rect(("0", ""))
    assert rect_relation(a, a) is RectRelation.EQUAL
    assert rect_relation(a, Rect(("01", ""))) is RectRelation.A_CONTAINS_B
    assert rect_relation(Rect(("01", "")), a) is RectRelation.B_CONTAINS_A
    assert rect_relation(a, Rect(("1", ""))) is RectRelation.DISJOINT
    # containment directions differ across coordinates -> partial overlap
    assert (
        rect_relation(Rect(("0", "")), Rect(("", "0")))
        is RectRelation.PARTIAL_OVERLAP
    )


def test_rect_relation_dim_mismatch():
    with pytest.raises(ValueError):
        rect_relation(Rect(("0",)), Rect(("0", "")))
    with pytest.raises(ValueError):
        rect_intersect(Rect(("0",)), Rect(("0", "")))


@given(words, words)
def test_one_dimensional_nesting_dichotomy(u, v):
    """1-D rectangles are never partially overlapping: equal, nested, or disjoint."""
    rel = rect_relation(Rect((u,)), Rect((v,)))
    assert rel is not RectRelation.PARTIAL_OVERLAP
    (alo, ahi), (blo, bhi) = word_interval(u), word_interval(v)
    if rel is RectRelation.EQUAL:
        assert (alo, ahi) == (blo, bhi)
    elif rel is RectRelation.A_CONTAINS_B:
        assert alo <= blo and bhi <= ahi
    elif rel is RectRelation.B_CONTAINS_A:
        assert blo <= alo and ahi <= bhi
    else:
        assert ahi <= blo or bhi <= alo


@given(words, words, words, words)
def test_intersect_agrees_with_relation(u1, u2, v1, v2):
    a, b = Rect((u1, u2)), Rect((v1, v2))
    rel = rect_relation(a, b)
    m = rect_intersect(a, b)
    if rel is RectRelation.DISJOINT:
        assert m is None
    elif rel in (RectRelation.EQUAL, RectRelation.A_CONTAINS_B):
        assert m == b
    elif rel is RectRelation.B_CONTAINS_A:
        assert m == a
    else:
        assert m is not None
        assert rect_relation(a, m) is RectRelation.A_CONTAINS_B
        assert rect_relation(b, m) is RectRelation.A_CONTAINS_B


def test_contains_point_half_open():
    r = Rect(("0",))
    assert contains_point(r, (F(0),))
    assert contains_point(r, (F(1, 4),))
    assert not contains_point(r, (F(1, 2),))
    r2 = Rect(("1", "0"))
    assert contains_point(r2, (F(1, 2), F(0)))
    assert not contains_point(r2, (F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        contains_point(r, (F(0), F(0)))


# ---------------------------------------------------------------------------
# partitions and patterns


def test_is_partition_cases():
    assert is_partition([Rect.cube(2)])
    assert is_partition([rect_Il(2), rect_Ir(2)])
    assert is_partition([Rect(("00",)), Rect(("01",)), Rect(("1",))])
    # overlap
    assert not is_partition([Rect(("0",)), Rect(("01",)), Rect(("1",))])
    # hole
    assert not is_partition([Rect(("00",)), Rect(("1",))])
    assert not is_partition([])
    with pytest.raises(ValueError):
        is_partition([Rect(("0",)), Rect(("0", ""))])


# ---------------------------------------------------------------------------
# corners


def test_corners_three_cell_example():
    p = [Rect(("0", "")), Rect(("1", "0")), Rect(("1", "1"))]
    cs = corners(p)
    assert len(cs) == 8
    assert (F(1, 2), F(1, 2)) in cs
    assert cs == frozenset(
        itertools.product((F(0), F(1, 2), F(1)), (F(0), F(1, 2), F(1)))
    ) - {(F(0), F(1, 2))}


def test_corners_one_dimensional():
    p = [Rect(("00",)), Rect(("01",)), Rect(("1",))]
    assert corners(p) == frozenset({(F(0),), (F(1, 4),), (F(1, 2),), (F(1),)})
    assert corner_projections(p) == (
        frozenset({F(0), F(1, 4), F(1, 2), F(1)}),
    )


def test_corner_projections_two_dimensional():
    p = [Rect(("0", "")), Rect(("1", "0")), Rect(("1", "1"))]
    g1, g2 = corner_projections(p)
    assert g1 == frozenset({F(0), F(1, 2), F(1)})
    assert g2 == frozenset({F(0), F(1, 2), F(1)})


# ---------------------------------------------------------------------------
# enumeration


def test_count_and_enumerate_examples():
    assert count_rects(1, 2) == 6
    assert count_rects(2, 1) == 4
    got = [r.words for r in enumerate_rects(1, 2)]
    assert got == [("0",), ("1",), ("00",), ("01",), ("10",), ("11",)]
    got2 = [r.words for r in enumerate_rects(2, 1)]
    assert got2 == [("", "0"), ("", "1"), ("0", ""), ("1", "")]


@pytest.mark.parametrize("n,D", [(1, 6), (2, 4), (3, 3)])
def test_enumerate_rects_is_complete_and_deterministic(n, D):
    rects = list(enumerate_rects(n, D))
    assert len(rects) == count_rects(n, D)
    assert len(set(rects)) == len(rects)
    assert all(1 <= r.depth <= D for r in rects)  # the whole cube is excluded
    assert rects == list(enumerate_rects(n, D))
    assert rects == sorted(rects, key=lambda r: (r.depth, tuple(map(len, r.words)), r.words))
    # per-depth census: compositions of k into n parts, two letters per slot
    from math import comb

    for k in range(1, D + 1):
        assert sum(1 for r in rects if r.depth == k) == comb(k + n - 1, n - 1) * 2**k


def test_enumerate_rects_at_high_dimension_visits_only_valid_length_vectors():
    """At n = 20 there are 3^20 vectors in {0, 1, 2}^20 but only 230 of total
    length 1 or 2; enumeration must walk those alone, so this returns at once."""
    rects = list(enumerate_rects(20, 2))
    assert len(rects) == count_rects(20, 2) == 880
    assert rects == sorted(rects, key=lambda r: (r.depth, tuple(map(len, r.words)), r.words))


def test_enumerate_rects_builds_without_validation():
    """Its words are made from "01", so no rectangle it yields is checked
    again; the order is total depth, then length vector, then words."""
    with mock.patch.object(Rect, "__post_init__") as check:
        rects = list(enumerate_rects(2, 4))
    assert not check.called
    ws = ["", *all_words(4)]
    expected = sorted(
        ((a, b) for a in ws for b in ws if 1 <= len(a) + len(b) <= 4),
        key=lambda w: (len(w[0]) + len(w[1]), len(w[0]), w),
    )
    assert [r.words for r in rects] == expected
    assert all(Rect(r.words) == r for r in rects)


def test_enumerate_rects_argument_errors():
    with pytest.raises(ValueError):
        list(enumerate_rects(0, 2))
    with pytest.raises(ValueError):
        list(enumerate_rects(1, -1))


# ---------------------------------------------------------------------------
# the 1-D subdivision dichotomy


def test_interval_versus_pattern_dichotomy_exhaustive():
    """Every dyadic interval either nests in a single piece of a 1-D pattern
    or has both endpoints on the pattern's corner grid (exhaustive, depth 6)."""
    patterns = [
        [Rect(("00",)), Rect(("01",)), Rect(("1",))],
        [Rect(("0",)), Rect(("1",))],
        [Rect(("000",)), Rect(("001",)), Rect(("01",)), Rect(("1",))],
        [Rect(("",))],
    ]
    rng = random.Random(3)
    patterns += [
        _random_leaves(rng, rng.randint(2, 9), Rect.cube(1)) for _ in range(6)
    ]
    for p in patterns:
        grid = {pt[0] for pt in corners(p)}
        for w in all_words(6):
            r = Rect((w,))
            nests = any(
                rect_relation(r, cell)
                in (RectRelation.EQUAL, RectRelation.B_CONTAINS_A)
                for cell in p
            )
            lo, hi = word_interval(w)
            assert nests or (lo in grid and hi in grid)
