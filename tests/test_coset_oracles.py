"""The coset engine against the full-representative paths it replaced.

The references below translate a coset by composing with its whole
representative (``coset_of(compose(g, k))``), build the X-coset of a
rectangle from the witness ``rect_to_coset``, decide failing rectangles one
by one with ``affine_extension(restrict(g, r), r)``, and search them breadth
first with one ``is_affine_on`` test per frontier rectangle, without the
cylinder lemma.  The fast paths must give ``==`` restriction tuples and the
same rectangle sets, level by level.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvcalc.dyadic_core import Rect, enumerate_rects, halve, rect_Il
from nvcalc.element_algebra import (
    AffinePiece,
    affine_extension,
    compose,
    inverse,
    is_affine_on,
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


def failing_rects_bfs(g, depth):
    """The pruned search with every frontier rectangle tested afresh."""
    failing = []
    frontier = {Rect.cube(g.dim)}
    coords = range(1, g.dim + 1)
    for d in range(depth + 1):
        frontier = [r for r in frontier if is_affine_on(g, r) is None]
        failing.extend(frontier)
        if d < depth:
            frontier = {c for r in frontier for k in coords for c in halve(r, k)}
    return failing


def by_level(rects, depth):
    return [sorted(r for r in rects if r.depth == d) for d in range(depth + 1)]


def domain_cut(g):
    """L_d: the longest coordinate-d domain word among g's pieces."""
    return [max(len(p.dom.words[d]) for p in g.pieces) for d in range(g.dim)]


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


@given(st.integers(0, 10**6), st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_cylinder_lemma(seed, n):
    """g is one substitution on r iff on tau(r), r's words cut to L_d."""
    rng = random.Random(seed)
    g = random_element(n, rng.randint(1, 24), rng)
    cut = domain_cut(g)
    words = tuple(
        "".join(rng.choice("01") for _ in range(rng.randint(0, c + 4))) for c in cut
    )
    r = Rect(words)
    tau_r = Rect(tuple(w[:c] for w, c in zip(words, cut)))
    assert (affine_extension(restrict(g, r), r) is None) == (
        affine_extension(restrict(g, tau_r), tau_r) is None
    )


LEVEL_DEPTHS = {1: 6, 2: 6, 3: 4}


@given(st.integers(0, 10**6), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_failing_rects_match_bfs_on_random_elements(seed, n):
    rng = random.Random(seed)
    g = random_element(n, rng.randint(1, 24), rng)
    depth = LEVEL_DEPTHS[n]
    assert _failing_rects(g, depth) == by_level(failing_rects_bfs(g, depth), depth)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_failing_rects_match_bfs_on_letters(n):
    depth = LEVEL_DEPTHS[n]
    for g in letters(n):
        assert _failing_rects(g, depth) == by_level(failing_rects_bfs(g, depth), depth)


@pytest.mark.parametrize("n, depth", [(2, 6), (3, 3)])
def test_failing_rects_match_brute_force(n, depth):
    """The pruned search finds exactly the rectangles the per-rectangle
    oracle rejects, and the truncation's counts are the per-depth recounts."""
    for g in letters(n):
        levels = _failing_rects(g, depth)
        found = [r for level in levels for r in level]
        assert len(found) == len(set(found))
        assert set(found) == failing_rects_brute_force(g, depth)
        assert len(levels) == depth + 1
        for d, level in enumerate(levels):
            assert all(r.depth == d for r in level) and level == sorted(level)
        t = sym_diff_truncated(g, depth)
        members = [m.rect for m in t.out_side] + list(t.in_side)
        assert list(t.counts) == [
            sum(1 for r in members if r.depth <= d) for d in range(depth + 1)
        ]
