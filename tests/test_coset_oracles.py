"""The coset engine against the full-representative paths it replaced.

The references below translate a coset by composing with its whole
representative (``coset_of(compose(g, k))``), build the X-coset of a
rectangle from the witness ``rect_to_coset``, decide failing rectangles one
by one with ``affine_extension(restrict(g, r), r)``, search them breadth
first with one ``is_affine_on`` test per frontier rectangle, without the
cylinder lemma, and search them level by level with one test per cut
rectangle.  The fast paths (coset translation on restrictions, and the
failing rectangles expanded from ``failing_cylinders``) must give ``==``
restriction tuples and the same rectangle lists, level by level.  The
memoised cocycle identity check must give the checks of the reference that
translates afresh and compares every coset pair by the word walk.
"""

import random
from collections import Counter
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvcalc.dyadic_core import Rect, count_rects, enumerate_rects, halve, rect_Il
from nvcalc.element_algebra import (
    AffinePiece,
    _affine_target,
    _agrees,
    compose,
    expansion,
    inverse,
    is_affine_on,
    random_element,
    restrict,
)
from nvcalc.ends_cocycle import (
    CosetRep,
    _cylinder_levels,
    cocycle_counts,
    cocycle_identity_check,
    coset_eq,
    coset_of,
    coset_translate,
    failing_cylinders,
    sym_diff_truncated,
)
from nvcalc.words_generators import gen_set_S
from oracles import affine_extension, cocycle_identity_reference, rect_to_coset
from test_kernel_oracles import pinwheel_element

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


def failing_rects_memoised(g, depth):
    """The level-by-level search over every failing rectangle, one sorted
    list per depth 0..``depth``, testing each cut rectangle tau(R) once."""
    n = g.dim
    cut = [slice(c) for c in domain_cut(g)]
    verdicts = {}

    def fails(words):
        key = tuple(map(str.__getitem__, words, cut))
        if key not in verdicts:
            verdicts[key] = is_affine_on(g, Rect._trusted(key)) is None
        return verdicts[key]

    moves = [(k, b) for k in range(n) for b in "01"]
    levels, frontier = [], {("",) * n}
    while frontier and len(levels) <= depth:
        ws = sorted(filter(fails, frontier))
        levels.append(list(map(Rect._trusted, ws)))
        if len(levels) <= depth:
            frontier = {w[:k] + (w[k] + b,) + w[k + 1 :] for w in ws for k, b in moves}
    return levels + [[] for _ in range(depth + 1 - len(levels))]


def cylinder_levels(g, depth):
    """The failing rectangles per depth, expanded from g's cylinders."""
    return _cylinder_levels(*failing_cylinders(g, depth), depth)


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


IDENTITY_DEPTHS = {1: 3, 2: 3, 3: 2}


def triples(report):
    return [(c.section, c.label, c.holds) for c in report.checks]


@given(st.integers(0, 10**6), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_cocycle_identity_matches_unmemoised_reference(seed, n):
    """g and h are each a random element or a letter of S or its inverse."""
    rng = random.Random(seed)
    g, h = (
        random_element(n, rng.randint(1, 24), rng)
        if rng.random() < 0.5
        else rng.choice(letters(n))
        for _ in range(2)
    )
    depth = IDENTITY_DEPTHS[n]
    assert triples(cocycle_identity_check(g, h, depth)) == triples(
        cocycle_identity_reference(g, h, depth)
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cocycle_identity_translates_each_pair_once_per_call(monkeypatch, n):
    """No (element, coset) pair is translated twice within one call, and a
    second call translates the same pairs again: no memo outlives a call."""
    import nvcalc.ends_cocycle as ec

    calls = []
    spy = lambda g, c: calls.append((g, c)) or coset_translate(g, c)  # noqa: E731
    monkeypatch.setattr(ec, "coset_translate", spy)
    g, h = letters(n)[0], letters(n)[-1]
    depth = IDENTITY_DEPTHS[n]
    first = cocycle_identity_check(g, h, depth)
    once = Counter(calls)
    assert max(once.values()) == 1
    assert len(once) < 11 * len(first.checks) // 3  # 11 per rectangle unshared
    calls.clear()
    assert triples(cocycle_identity_check(g, h, depth)) == triples(first)
    assert Counter(calls) == once


def test_coset_eq_compares_tables_before_the_word_walk():
    """Identical restriction tables never reach ``_agrees``; the same coset
    with one piece halved on both sides differs as a table and is still
    equal, through ``_agrees``; a different coset is not equal."""
    rng = random.Random(5)
    for n in (1, 2, 3):
        c = coset_of(random_element(n, 12, rng))
        p, k = c.restriction[0], n - 1
        halves = [
            AffinePiece._trusted(
                p.dom_words[:k] + (p.dom_words[k] + b,) + p.dom_words[k + 1 :],
                p.ran_words[:k] + (p.ran_words[k] + b,) + p.ran_words[k + 1 :],
            )
            for b in "01"
        ]
        halved = CosetRep(n, tuple(sorted([*halves, *c.restriction[1:]])))
        other = coset_translate(rng.choice(letters(n)), c)
        with mock.patch("nvcalc.ends_cocycle._agrees", wraps=_agrees) as walk:
            assert coset_eq(c, CosetRep(n, c.restriction))
            assert walk.call_count == 0
            assert halved.restriction != c.restriction
            assert coset_eq(c, halved) and coset_eq(halved, c)
            assert walk.call_count == 2
            assert other == c or not coset_eq(c, other)


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
    assert cylinder_levels(g, depth) == by_level(failing_rects_bfs(g, depth), depth)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_failing_rects_match_bfs_on_letters(n):
    depth = LEVEL_DEPTHS[n]
    for g in letters(n):
        assert cylinder_levels(g, depth) == by_level(failing_rects_bfs(g, depth), depth)


def counts_from_levels(g, depth):
    """The cumulative counts of X Δ gX summed from the listed cylinder
    levels of the g^{-1} and g searches, depth 0 (the cube) left out."""
    out, into = (_cylinder_levels(*failing_cylinders(h, depth), depth) for h in (inverse(g), g))
    return tuple(accumulate((len(a) + len(b) for a, b in zip(out[1:], into[1:])), initial=0))


def check_cylinders(g, depth):
    """Expanded cylinders equal the memoised search level by level, the
    closed-form sizes are the level lengths, and the cut tuples stay in the
    box, which bounds the search whatever the depth."""
    cut, cylinders = failing_cylinders(g, depth)
    levels = _cylinder_levels(cut, cylinders, depth)
    assert levels == failing_rects_memoised(g, depth)
    assert cocycle_counts(g, depth).counts == counts_from_levels(g, depth)
    assert all(len(w) <= c for t in cylinders for w, c in zip(t, cut))
    assert failing_cylinders(g, 10**9) == failing_cylinders(g, sum(cut))


@given(st.integers(0, 10**6), st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_cylinders_match_memoised_search_on_random_elements(seed, n):
    rng = random.Random(seed)
    check_cylinders(random_element(n, rng.randint(1, 24), rng), LEVEL_DEPTHS[n])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cylinders_match_memoised_search_on_letters(n):
    for g in letters(n):
        check_cylinders(g, LEVEL_DEPTHS[n])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cylinder_search_makes_no_more_affinity_tests(n):
    """The cylinder search runs the shared affinity routine at most as often
    as the memoised search does through ``is_affine_on`` (once per cut
    rectangle), and less often over each n's letters: a tuple met by one
    piece is not tested."""
    depth = LEVEL_DEPTHS[n]
    totals = Counter()
    for g in letters(n):
        with mock.patch(
            "nvcalc.element_algebra._affine_target", wraps=_affine_target
        ) as old:
            failing_rects_memoised(g, depth)
        with mock.patch("nvcalc.ends_cocycle._affine_target", wraps=_affine_target) as new:
            failing_cylinders(g, depth)
        assert new.call_count <= old.call_count
        totals.update(old=old.call_count, new=new.call_count)
    assert totals["new"] < totals["old"]


@pytest.mark.parametrize("embedded", [False, True], ids=["top", "embedded"])
@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_cylinders_match_memoised_search_on_pinwheels(embedded, seed):
    """n = 3 tables built on the pinwheel, a cell that no coordinate halves."""
    check_cylinders(pinwheel_element(random.Random(seed), embedded), LEVEL_DEPTHS[3])


def test_cylinders_match_memoised_search_on_a_large_pinwheel():
    """A 1,028-piece pinwheel over the whole cube, each expansion in the
    shortest coordinate its piece does not span, so no coordinate halves
    the cube and the halving tree's candidates are the whole table.  Its
    box (L = (10, 9, 9)) is too large to search whole, so the depth stays
    finite."""
    rng = random.Random(1)
    g = pinwheel_element(rng, embedded=False)
    while len(g.pieces) < 1028:
        i = rng.randrange(len(g.pieces))
        words = g.pieces[i].dom_words
        d = min((d for d in range(3) if words[d]), key=lambda d: len(words[d]))
        g = expansion(g, i, d + 1)
    cut, cylinders = failing_cylinders(g, 5)
    assert len(g.pieces) == 1028 and "_tree" not in vars(g)  # never built
    levels = _cylinder_levels(cut, cylinders, 5)
    assert levels == failing_rects_memoised(g, 5)
    assert cocycle_counts(g, 5).counts == counts_from_levels(g, 5)


def test_cylinder_search_rejects_negative_depth():
    with pytest.raises(ValueError, match="depth must be >= 0"):
        failing_cylinders(letters(1)[0], -1)


@pytest.mark.parametrize("n, depth", [(2, 6), (3, 3)])
def test_failing_rects_match_brute_force(n, depth):
    """The cylinder levels hold exactly the rectangles the per-rectangle
    oracle rejects, and the truncation's counts are the per-depth recounts."""
    for g in letters(n):
        levels = cylinder_levels(g, depth)
        found = [r for level in levels for r in level]
        assert len(found) == len(set(found))
        assert set(found) == failing_rects_brute_force(g, depth)
        assert len(levels) == depth + 1
        for d, level in enumerate(levels):
            assert all(r.depth == d for r in level) and level == sorted(level)
        t = sym_diff_truncated(g, depth)
        members = t.out_side + t.in_side
        assert list(t.counts) == [
            sum(1 for r in members if r.depth <= d) for d in range(depth + 1)
        ]
        # each side lists at most every rectangle of depth 1..depth
        assert t.total <= 2 * count_rects(n, depth)
