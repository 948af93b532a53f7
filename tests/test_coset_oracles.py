"""The coset engine against the full-representative paths it replaced.

The references below translate a coset by composing with its whole
representative (``coset_of(compose(g, k))``), build the X-coset of a
rectangle from the witness ``rect_to_coset``, and decide failing rectangles
one by one with ``affine_extension(restrict(g, r), r)``.  The fast paths must
give ``==`` restriction tuples and the same rectangle sets.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvcalc.dyadic_core import Rect, enumerate_rects, rect_Il
from nvcalc.element_algebra import (
    AffinePiece,
    affine_extension,
    compose,
    inverse,
    random_element,
    restrict,
)
from nvcalc.ends_cocycle import (
    CosetRep,
    _failing_rects,
    coset_of,
    coset_translate,
    rect_to_coset,
    sym_diff_truncated,
)
from nvcalc.words_generators import gen_set_S

# ---------------------------------------------------------------------------
# reference implementations


def failing_rects_brute_force(g, depth):
    """Every rectangle of depth <= ``depth``, the whole cube included."""
    rects = [Rect.cube(g.dim), *enumerate_rects(g.dim, depth)]
    return {r for r in rects if affine_extension(restrict(g, r), r) is None}


def letters(n):
    return [e for _, g in gen_set_S(n) for e in (g, inverse(g))]


# ---------------------------------------------------------------------------
# properties


@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_coset_translate_matches_full_representative(seed, n, steps):
    """Chains of translations by random elements and by letters of S and
    their inverses, from the coset of a random element."""
    rng = random.Random(seed)
    k = random_element(n, rng.randint(1, 24), rng)
    c = coset_of(k)
    gens = letters(n)
    for _ in range(steps):
        if rng.random() < 0.5:
            g = random_element(n, rng.randint(1, 24), rng)
        else:
            g = rng.choice(gens)
        k = compose(g, k)
        c = coset_translate(g, c)
        assert c == coset_of(k)


@pytest.mark.parametrize("n, depth", [(1, 6), (2, 6), (3, 4)])
def test_base_coset_is_the_witness_coset(n, depth):
    il = rect_Il(n)
    for r in enumerate_rects(n, depth):
        if r.depth >= 1:
            assert CosetRep(n, (AffinePiece(il, r),)) == coset_of(rect_to_coset(r))


def test_coset_translate_dimension_mismatch():
    with pytest.raises(ValueError):
        coset_translate(gen_set_S(2)[0][1], coset_of(random_element(1, 3, 0)))


@pytest.mark.parametrize("n, depth", [(2, 6), (3, 3)])
def test_failing_rects_match_brute_force(n, depth):
    """The pruned search finds exactly the rectangles the per-rectangle
    oracle rejects, and the truncation's counts are the per-depth recounts."""
    for g in letters(n):
        found = _failing_rects(g, depth)
        assert len(found) == len(set(found))
        assert set(found) == failing_rects_brute_force(g, depth)
        t = sym_diff_truncated(g, depth)
        members = [m.rect for m in t.out_side] + list(t.in_side)
        assert list(t.counts) == [
            sum(1 for r in members if r.depth <= d) for d in range(depth + 1)
        ]
