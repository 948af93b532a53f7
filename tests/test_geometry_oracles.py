"""The word kernel's geometric answers against the rectangle-form oracles.

``rect_intersect`` and ``in_X`` answer "do rectangles meet" and "is the
coset in X" on word tuples, and the oracle ``is_partition`` answers "do they
tile the cube" with ``rect_intersect``.  The oracles in ``tests/oracles.py``
answer the same questions through the five-way ``rect_relation`` and
``affine_extension``; both must agree on hypothesis draws in dimensions
1..3.  ``f_P_probe`` finds the rectangles
that hold a corner of a pattern one coordinate at a time; the oracle
``corner_members`` tests every corner point.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from nvcalc.dyadic_core import Rect, rect_Il, rect_intersect
from nvcalc.element_algebra import _random_leaves, inverse, random_element
from nvcalc.ends_cocycle import (
    CosetRep,
    coset_of,
    coset_translate,
    f_P_probe,
    in_X,
)
from nvcalc.words_generators import gen_set_S
from oracles import (
    RectRelation,
    affine_extension,
    corner_members,
    is_partition,
    rect_relation,
    rect_to_coset,
)

words = st.text(alphabet="01", max_size=4)
nonempty_words = st.text(alphabet="01", min_size=1, max_size=3)


def rects(n):
    return st.tuples(*[words] * n).map(Rect)


@st.composite
def pairs_by_outcome(draw):
    """A rectangle pair built to have a given relation, with that relation."""
    n = draw(st.integers(1, 3))
    outcomes = list(RectRelation)
    if n == 1:  # 1-D intervals never partially overlap
        outcomes.remove(RectRelation.PARTIAL_OVERLAP)
    outcome = draw(st.sampled_from(outcomes))
    base = draw(st.lists(words, min_size=n, max_size=n))
    grow = draw(st.lists(words, min_size=n, max_size=n))
    d = draw(st.integers(0, n - 1))
    grow[d] += draw(nonempty_words)  # at least one coordinate strictly narrower
    narrow = [w + s for w, s in zip(base, grow)]
    if outcome is RectRelation.EQUAL:
        a, b = base, base
    elif outcome is RectRelation.A_CONTAINS_B:
        a, b = base, narrow
    elif outcome is RectRelation.B_CONTAINS_A:
        a, b = narrow, base
    elif outcome is RectRelation.DISJOINT:
        a, b = list(base), draw(st.lists(words, min_size=n, max_size=n))
        a[d] = base[d] + "0" + grow[d]
        b[d] = base[d] + "1" + b[d]
    else:  # narrower in coordinate d on one side, in another coordinate on the other
        e = (d + 1) % n
        a, b = list(base), list(base)
        a[d] = narrow[d]
        b[e] = base[e] + draw(nonempty_words)
    return outcome, Rect(tuple(a)), Rect(tuple(b))


@given(pairs_by_outcome())
@settings(max_examples=300, deadline=None)
def test_rect_intersect_agrees_with_rect_relation_on_all_five_outcomes(case):
    outcome, a, b = case
    assert rect_relation(a, b) is outcome
    m = rect_intersect(a, b)
    if outcome is RectRelation.DISJOINT:
        assert m is None
    elif outcome in (RectRelation.EQUAL, RectRelation.A_CONTAINS_B):
        assert m == b
    elif outcome is RectRelation.B_CONTAINS_A:
        assert m == a
    else:
        assert m not in (None, a, b)
        assert rect_relation(a, m) is RectRelation.A_CONTAINS_B
        assert rect_relation(b, m) is RectRelation.A_CONTAINS_B


def is_partition_rects(rs):
    """The rectangle-form partition test: nonempty, volume 1, no pair meets."""
    if not rs or sum(r.volume for r in rs) != 1:
        return False
    return all(
        rect_relation(a, b) is RectRelation.DISJOINT
        for i, a in enumerate(rs)
        for b in rs[i + 1 :]
    )


@st.composite
def rect_lists(draw):
    """Tilings, tilings with one rectangle dropped, doubled or moved to a
    random one of the same depth (volume 1, overlapping), and short lists."""
    n = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 10**6)))
    kind = draw(st.sampled_from(["tiling", "drop", "double", "move", "short"]))
    if kind == "short":
        return draw(st.lists(rects(n), max_size=3))
    rs = _random_leaves(rng, draw(st.integers(1, 10)), Rect.cube(n))
    i = rng.randrange(len(rs))
    if kind == "drop":
        del rs[i]
    elif kind == "double":
        rs.append(rs[i])
    elif kind == "move":
        bits = ["".join(rng.choice("01") for _ in range(len(w))) for w in rs[i].words]
        rs[i] = Rect(tuple(bits))
    return rs


@given(rect_lists())
@settings(max_examples=300, deadline=None)
def test_is_partition_agrees_with_rect_relation_form(rs):
    assert is_partition(rs) == is_partition_rects(rs)


def in_X_by_extension(c: CosetRep):
    ext = affine_extension(c.restriction, rect_Il(c.n))
    return None if ext is None else ext.ran


@given(st.integers(0, 10**6), st.integers(1, 3), st.booleans())
@settings(max_examples=120, deadline=None)
def test_in_X_agrees_with_affine_extension_on_cosets_and_translates(seed, n, in_family):
    """Cosets of random elements (mostly outside X) and of witnesses of random
    rectangles (inside X), and their translates by every letter of S."""
    rng = random.Random(seed)
    if in_family:
        lengths = [rng.randint(1, 3)] + [rng.randint(0, 2) for _ in range(n - 1)]
        r = Rect(tuple("".join(rng.choices("01", k=m)) for m in lengths))
        k = rect_to_coset(r)
    else:
        k = random_element(n, rng.randint(1, 8), rng)
    base = coset_of(k)
    cosets = [base] + [coset_translate(s, base) for _, s in gen_set_S(n)]
    for c in cosets:
        assert in_X(c) == in_X_by_extension(c)
    if in_family:
        assert in_X(cosets[0]) == r


PROBE_DEPTHS = {1: 6, 2: 4, 3: 3}


@given(st.integers(0, 10**6), st.integers(1, 3), st.sampled_from(["closed", "half_open"]))
@settings(max_examples=60, deadline=None)
def test_probe_corner_members_match_the_corner_points(seed, n, corner_mode):
    """A random element or a letter of S or its inverse."""
    rng = random.Random(seed)
    letters = [e for _, g in gen_set_S(n) for e in (g, inverse(g))]
    if rng.random() < 0.5:
        g = random_element(n, rng.randint(1, 24), rng)
    else:
        g = rng.choice(letters)
    result = f_P_probe(g, PROBE_DEPTHS[n], corner_mode)
    expected = corner_members(result.pattern, PROBE_DEPTHS[n], corner_mode)
    assert result.members_corner_meets == expected
