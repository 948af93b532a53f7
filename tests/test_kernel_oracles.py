"""The indexed element kernel against the plain scans it replaced.

The reference functions below are the all-pairs ``compose`` through
``rect_intersect`` and ``image_of``, the linear-scan ``restrict`` and
``apply``, the rectangle-level ``coset_eq``, the restart-after-every-merge
``merge_pieces`` and the one-compose-per-unit ``eval_word``.  The fast paths
(the word-tuple kernel, with or without the halving tree over an element's
domains) must give the same piece tables (``==``, not just ``equals``), the
same points and the same verdicts.  The tree's candidates are checked against
``rect_intersect`` directly.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvcalc import element_algebra
from nvcalc.dyadic_core import Rect, rect_intersect
from nvcalc.element_algebra import (
    AffinePiece,
    Element,
    _Run,
    _candidates,
    _compose_pieces,
    _dom_words,
    _merge_partner,
    apply,
    compose,
    element_from_json,
    equals,
    element_to_json,
    expansion,
    identity,
    inverse,
    is_affine_on,
    merge_pieces,
    random_element,
    restrict,
)
from nvcalc.ends_cocycle import CosetRep, coset_eq, coset_of
from nvcalc.words_generators import (
    eval_word,
    gen_set_S,
    make_C,
    make_pi,
    make_pibar,
    make_X,
)
from oracles import (
    affine_extension,
    apply_point_fractions,
    contains_point,
    embed_in_half,
    expansion_rebuild,
    image_of,
    restrict_to,
)

# ---------------------------------------------------------------------------
# reference implementations


def compose_pieces_all_pairs(g, pieces):
    out = []
    for ph in pieces:
        for pg in g.pieces:
            m = rect_intersect(ph.ran, pg.dom)
            if m is not None:
                out.append(AffinePiece(image_of(ph.inverted(), m), image_of(pg, m)))
    return out


def compose_all_pairs(g, h):
    return Element.from_pieces(compose_pieces_all_pairs(g, h.pieces))


def coset_eq_rects(a, b):
    for p in a.restriction:
        for q in b.restriction:
            m = rect_intersect(p.dom, q.dom)
            if m is not None and image_of(p, m) != image_of(q, m):
                return False
    return True


def restrict_linear(g, r):
    out = []
    for piece in g.pieces:
        m = rect_intersect(piece.dom, r)
        if m is not None:
            out.append(restrict_to(piece, m))
    return tuple(sorted(out, key=lambda p: p.dom.words))


def apply_linear(g, p):
    for piece in g.pieces:
        if contains_point(piece.dom, p):
            return apply_point_fractions(piece, p)
    raise ValueError(f"no piece contains {p}")


def merge_pieces_restart(pieces):
    current = {p.dom.words: p for p in pieces}
    changed = True
    while changed:
        changed = False
        for key in sorted(current):
            a = current[key]
            for d in range(a.dim):
                w = a.dom.words[d]
                if not w.endswith("0"):
                    continue
                sibling_key = key[:d] + (w[:-1] + "1",) + key[d + 1:]
                b = current.get(sibling_key)
                if b is None:
                    continue
                merged = _merge_partner(a, b, d)
                if merged is None:
                    continue
                del current[key]
                del current[sibling_key]
                current[merged.dom.words] = merged
                changed = True
                break
            if changed:
                break
    return tuple(sorted(current.values(), key=lambda p: p.dom.words))


# ---------------------------------------------------------------------------
# inputs: random elements and finer copies of them


def refined(g, rng, count):
    """The same map, ``count`` random expansions finer.  In n >= 2 most of
    them split a coordinate other than 1, so many pieces share a
    coordinate-1 word."""
    for _ in range(count):
        g = expansion(g, rng.randrange(len(g.pieces)), rng.randint(1, g.dim))
    return g


def random_rect(rng, n):
    return Rect(
        tuple(
            "".join(rng.choice("01") for _ in range(rng.randint(0, 6)))
            for _ in range(n)
        )
    )


def random_point(rng, n):
    out = []
    for _ in range(n):
        bits = rng.randint(0, 9)
        out.append(Fraction(rng.randrange(2**bits), 2**bits))
    return tuple(out)


elements = st.tuples(
    st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 24), st.integers(0, 24)
)

#: Small table sizes, from one-leaf trees up.
around_cut_off = st.integers(1, 9)


def build(seed, n, size, expansions):
    rng = random.Random(seed)
    g = random_element(n, size, rng)
    return rng, g, refined(g, rng, expansions)


def power_tables(rng, other):
    """For n <= 2, ``X[d,0]^k`` for a random d and 1 <= |k| <= 150, its
    inverse, and its composites with ``other`` on either side: deep tables
    whose domains one coordinate separates, runs from eight pieces on."""
    n = other.dim
    if n > 2:
        return []
    k = rng.choice((-1, 1)) * rng.randint(1, 150)
    g = eval_word(f"X[{rng.randint(1, n)},0]^{k}", n)
    return [g, inverse(g), compose(g, other), compose(other, g)]


def deep_table(rng):
    """``compose(random_element(2, 24, rng), X[1,0]^150)``: an n = 2 table of
    up to about 1,200 pieces whose deep domains lie under halving-tree nodes
    as well as in runs."""
    return compose(random_element(2, 24, rng), eval_word("X[1,0]^150", 2))


def lower_corner(words):
    return tuple(Fraction(int(w or "0", 2), 2 ** len(w)) for w in words)


# ---------------------------------------------------------------------------
# properties


@given(elements)
@settings(max_examples=80, deadline=None)
def test_compose_matches_all_pairs(spec):
    rng, g, fine = build(*spec)
    h = refined(random_element(g.dim, rng.randint(1, 24), rng), rng, rng.randint(0, 24))
    pairs = ((g, h), (h, g), (fine, h), (h, fine), (fine, inverse(fine)), (g, inverse(fine)))
    for a, b in pairs:
        assert compose(a, b) == compose_all_pairs(a, b)


@given(st.integers(0, 10**6), st.integers(1, 3), around_cut_off, around_cut_off)
@settings(max_examples=120, deadline=None)
def test_compose_pieces_match_all_pairs_around_the_cut_off(seed, n, size_g, size_h):
    """Whole tables and partial piece lists (in any order), composed with
    tables of 1 to 9 pieces."""
    rng = random.Random(seed)
    g = random_element(n, size_g, rng)
    h = random_element(n, size_h, rng)
    assert len(g.pieces) == size_g
    part = rng.sample(h.pieces, rng.randint(1, size_h))
    for a, pieces in ((g, h.pieces), (h, g.pieces), (g, part), (h, part)):
        assert sorted(_compose_pieces(a, pieces)) == sorted(
            compose_pieces_all_pairs(a, pieces)
        )


@given(st.integers(0, 10**6), st.integers(1, 3), around_cut_off)
@settings(max_examples=120, deadline=None)
def test_coset_eq_matches_the_rectangle_form(seed, n, size):
    """Equal cosets with different tables (k and k h, h fixing I_l, and a
    refined k), unequal ones, and letters of S and their inverses."""
    rng = random.Random(seed)
    k = random_element(n, size, rng)
    others = [
        compose(k, embed_in_half(random_element(n, rng.randint(1, 6), rng), "right")),
        refined(k, rng, rng.randint(1, 12)),
        random_element(n, rng.randint(1, 12), rng),
        rng.choice([e for _, g in gen_set_S(n) for e in (g, inverse(g))]),
    ]
    a = coset_of(k)
    for other in others:
        b = coset_of(other)
        # unmerged restrictions too: tables that differ, cosets that may not
        b_raw = CosetRep(n, restrict(other, Rect(("0",) + ("",) * (n - 1))))
        for x, y in ((a, b), (b, a), (a, b_raw), (b_raw, a)):
            assert coset_eq(x, y) == coset_eq_rects(x, y)
    assert coset_eq(a, coset_of(others[0])) and coset_eq(a, coset_of(others[1]))


def test_coset_eq_skips_pairs_disjoint_in_a_later_coordinate():
    """Domains ("0", "0") and ("0", "1") share coordinate 1 but not 2: their
    differing coordinate-1 images must not make the cosets unequal."""
    a = CosetRep(
        2,
        (
            AffinePiece(Rect(("0", "0")), Rect(("10", "0"))),
            AffinePiece(Rect(("0", "1")), Rect(("11", "1"))),
        ),
    )
    b = CosetRep(
        2,
        (
            AffinePiece(Rect(("0", "00")), Rect(("10", "00"))),
            AffinePiece(Rect(("0", "01")), Rect(("10", "01"))),
            AffinePiece(Rect(("0", "1")), Rect(("11", "1"))),
        ),
    )
    assert coset_eq_rects(a, b) and coset_eq(a, b) and coset_eq(b, a)
    c = CosetRep(2, a.restriction[:1] + (AffinePiece(Rect(("0", "1")), Rect(("10", "1"))),))
    assert not coset_eq_rects(a, c) and not coset_eq(a, c)


@given(elements)
@settings(max_examples=60, deadline=None)
def test_hash_is_the_table_hash(spec):
    """Equal tables built apart hash equal, and the hash is the dataclass
    hash of (dim, pieces), computed once."""
    rng, g, fine = build(*spec)
    h = random_element(g.dim, rng.randint(1, 24), rng)
    for e, again in (
        (compose(fine, h), Element(g.dim, tuple(compose_all_pairs(fine, h).pieces))),
        (g, Element.from_pieces(reversed(g.pieces))),
        (inverse(fine), Element.from_pieces(p.inverted() for p in fine.pieces)),
    ):
        assert e == again and e is not again
        assert hash(e) == hash(Element(e.dim, e.pieces)) == hash(again)
        assert hash(e) == hash((e.dim, e.pieces))
        assert {e: 1}[again] == 1
    assert "_hash" in g.__dict__


@given(elements)
@settings(max_examples=60, deadline=None)
def test_word_tuple_pieces_match_the_rectangle_form(spec):
    """A piece is its two word tuples.  ``_trusted(words)`` and the public
    ``AffinePiece(Rect, Rect)`` build equal pieces with one hash and one sort
    position; ``dom`` and ``ran`` are ``Rect`` views of the words; pieces
    order as the (dom, ran) rectangle pairs did, and tables as by
    ``dom.words``; no instance keeps a ``__dict__``; the JSON text names
    each piece's ``dom.words`` and ``ran.words`` and reads back bit for bit."""
    rng, g, fine = build(*spec)
    pieces = list(fine.pieces) + [p.inverted() for p in g.pieces]
    rng.shuffle(pieces)
    for p in pieces:
        public = AffinePiece(Rect(p.dom.words), Rect(p.ran.words))
        trusted = AffinePiece._trusted(p.dom_words, p.ran_words)
        assert trusted == public == p and hash(trusted) == hash(public)
        assert sorted([public, *pieces]).index(public) == sorted(pieces).index(p)
        assert type(p.dom) is type(p.ran) is Rect
        assert (p.dom, p.ran) == (Rect(p.dom_words), Rect(p.ran_words))
        assert not hasattr(p, "__dict__") and not hasattr(p.dom, "__dict__")
        with pytest.raises(AttributeError):
            p.dom_words = p.ran_words
    assert sorted(pieces) == sorted(pieces, key=lambda p: (p.dom, p.ran))
    by_dom = sorted(pieces, key=lambda p: p.dom.words)
    assert sorted(pieces, key=_dom_words) == by_dom
    assert Element.from_pieces(pieces).pieces == tuple(by_dom)
    for e in (fine, inverse(g)):
        text = element_to_json(e)
        assert json.loads(text)["pieces"] == [
            {"dom": list(p.dom.words), "ran": list(p.ran.words)} for p in e.pieces
        ]
        back = element_from_json(text)
        assert back == e and element_to_json(back) == text


@given(elements)
@settings(max_examples=80, deadline=None)
def test_restrict_and_apply_match_linear_scans(spec):
    """Random and refined tables, deep power tables and, at n = 2, a
    ``deep_table``.  ``apply`` is also queried at the lower corner of every
    domain (of 152 at most, as many as ``X[1,0]^150`` has; against the
    linear scan at four of them), at points of denominator 61 and at the
    points outside the cube with one coordinate -1/2, -1/3, 1 or 3/2, where
    it raises, as the linear scan does at one of them."""
    rng, g, fine = build(*spec)
    deep = [deep_table(rng)] if g.dim == 2 else []
    for e in (g, fine, *power_tables(rng, fine), *deep):
        for _ in range(6):
            r = random_rect(rng, e.dim)
            assert restrict(e, r) == restrict_linear(e, r)
            assert is_affine_on(e, r) == affine_extension(restrict_linear(e, r), r)
            p = random_point(rng, e.dim)
            q = tuple(Fraction(rng.randrange(61), 61) for _ in range(e.dim))
            for x in (p, q):
                assert apply(e, x) == apply_linear(e, x)
        some = e.pieces if len(e.pieces) <= 152 else rng.sample(e.pieces, 152)
        corners = [(p, lower_corner(p.dom_words)) for p in some]
        for piece, corner in corners:  # the pieces tile, so only its own holds it
            assert apply(e, corner) == piece.apply_point(corner)
        for _, corner in rng.sample(corners, min(4, len(corners))):
            assert apply(e, corner) == apply_linear(e, corner)
        inside = random_point(rng, e.dim)
        outside = [
            inside[:d] + (x,) + inside[d + 1 :]
            for d in range(e.dim)
            for x in (Fraction(-1, 2), Fraction(-1, 3), Fraction(1), Fraction(3, 2))
        ]
        for path, points in ((apply, outside), (apply_linear, [rng.choice(outside)])):
            for x in points:
                with pytest.raises(ValueError, match="no piece contains"):
                    path(e, x)


@given(elements)
@settings(max_examples=80, deadline=None)
def test_merge_pieces_matches_restart_scan(spec):
    """Random, refined, composed and restricted tables, an n = 3 pinwheel
    table with expanded cells, and a cascade in which merging the halves of
    x_1 in [1/2, 1) lets the already scanned key of [0, 1/2) merge with it:
    every input order gives the restart scan's table."""
    rng, g, fine = build(*spec)
    other = random_element(g.dim, rng.randint(1, 24), rng)
    rest = ("",) * (g.dim - 1)
    cascade = [AffinePiece(Rect((w, *rest)), Rect((w, *rest))) for w in ("0", "10", "11")]
    assert merge_pieces(cascade) == (AffinePiece(Rect.cube(g.dim), Rect.cube(g.dim)),)
    for pieces in (
        fine.pieces,
        refined(fine, rng, 40).pieces,
        compose(fine, other).pieces,
        restrict(fine, random_rect(rng, g.dim)),
        refined(pinwheel_element(rng, rng.random() < 0.5), rng, 12).pieces,
        cascade,
    ):
        expected = merge_pieces_restart(pieces)
        for order in (pieces, pieces[::-1], rng.sample(pieces, len(pieces))):
            assert merge_pieces(order) == expected


def meeting(e, r):
    """The pieces of ``e`` whose domains meet ``r``, by ``rect_intersect``."""
    return {p for p in e.pieces if rect_intersect(p.dom, r) is not None}


def leaf_sizes(e):
    """The number of pieces in each leaf of ``e``'s halving tree, each piece
    of a run counting as its own cell: a run's bisection returns one piece
    or a block that all meets the query."""
    todo, sizes = [e._tree], []
    while todo:
        node = todo.pop()
        if type(node) is list:
            todo += node[2:]
        elif type(node) is _Run:
            sizes += [1] * len(node.pieces)
        else:
            sizes.append(len(node))
    return sorted(sizes)


def near_rect(rng, words):
    """A rectangle whose word in each coordinate is a prefix or an extension
    of that coordinate's word in ``words``."""
    return Rect(
        tuple(
            w[: rng.randint(0, len(w))]
            if rng.random() < 0.5
            else w + "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
            for w in words
        )
    )


@given(st.integers(0, 10**6), st.integers(1, 3), around_cut_off, st.integers(0, 24))
@settings(max_examples=150, deadline=None)
def test_candidates_hold_every_piece_that_meets_the_query(seed, n, size, expansions):
    """Random and refined tables of every size from one piece, queried with
    random rectangles and with rectangles around a piece's domain: no piece
    that meets the query is missing or repeated, also on deep power tables.
    For n <= 2 every leaf holds one piece (a run's pieces count one each)
    and no other piece is returned."""
    rng, g, fine = build(seed, n, size, expansions)
    for e in (g, fine, *power_tables(rng, fine)):
        queries = [random_rect(rng, n) for _ in range(6)]
        queries += [near_rect(rng, rng.choice(e.pieces).dom_words) for _ in range(6)]
        exact = n <= 2
        if exact:
            assert leaf_sizes(e) == [1] * len(e.pieces)
        for r in queries:
            got = _candidates(e, r.words)
            assert len(set(got)) == len(got)
            assert meeting(e, r) <= set(got)
            if exact:
                assert set(got) == meeting(e, r)


#: Five 3-D cells that tile the cube and span it in coordinates 1, 2 and 3
#: (the first three), so no coordinate of the pattern can be halved.
PINWHEEL = (("", "0", "0"), ("0", "", "1"), ("1", "1", ""), ("1", "0", "1"), ("0", "1", "0"))


def pinwheel_element(rng, embedded):
    """An element whose domains are the pinwheel, or the pinwheel inside the
    half x_1 < 1/2 beside the cell ("1", "", ""), expanded to 7-18 pieces but
    never in a coordinate that one of its pieces spans, so that the
    pinwheel's cell stays one leaf of the tree."""
    cell = ("0", "", "") if embedded else ("", "", "")
    doms = [(cell[0] + a, b, c) for a, b, c in PINWHEEL]
    doms += [("1", "", "")] if embedded else []
    rans = random_element(3, len(doms), rng).pieces
    g = Element.from_pieces(AffinePiece(Rect(d), p.ran) for d, p in zip(doms, rans))
    target = 6 + rng.randint(1, 12)
    while len(g.pieces) < target:
        i, d = rng.choice(
            [
                (i, d)
                for i, p in enumerate(g.pieces)
                for d in range(3)
                if len(p.dom_words[d]) > len(cell[d])
            ]
        )
        g = expansion(g, i, d + 1)
    return g


@pytest.mark.parametrize("embedded", [False, True], ids=["top", "embedded"])
@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_the_pinwheel_leaf_through_every_kernel_path(embedded, seed):
    """A leaf of several pieces, which only n >= 3 allows: ``compose``,
    ``equals``, ``restrict``, ``is_affine_on`` and ``apply`` on a pinwheel
    table agree with the all-pairs compose and the rectangle scans."""
    rng = random.Random(seed)
    g = pinwheel_element(rng, embedded)
    assert leaf_sizes(g)[-1] >= len(PINWHEEL)
    h = refined(random_element(3, rng.randint(1, 24), rng), rng, rng.randint(0, 12))
    for a, b in ((g, h), (h, g), (g, inverse(g)), (inverse(h), g)):
        assert compose(a, b) == compose_all_pairs(a, b)
    for other in (h, refined(g, rng, 6), pinwheel_element(rng, embedded)):
        trivial = all(p.is_trivial for p in compose_all_pairs(g, inverse(other)).pieces)
        assert equals(g, other) == trivial
    assert equals(g, refined(g, rng, 6))
    for _ in range(12):
        for r in (near_rect(rng, rng.choice(g.pieces).dom_words), random_rect(rng, 3)):
            assert meeting(g, r) <= set(_candidates(g, r.words))
            assert restrict(g, r) == restrict_linear(g, r)
            assert is_affine_on(g, r) == affine_extension(restrict_linear(g, r), r)
        p = random_point(rng, 3)
        q = tuple(Fraction(rng.randrange(1, 61), 61) for _ in range(3))
        for x in (p, q):
            assert apply(g, x) == apply_linear(g, x)


@pytest.mark.parametrize("seed", range(4))
def test_apply_makes_one_candidates_call(monkeypatch, seed):
    """``apply`` finds its piece through exactly one ``_candidates`` lookup,
    the one every other kernel path makes, with the point's words as deep as
    each coordinate's longest domain word: on a run, a tree of one-piece
    leaves, a pinwheel leaf and a random n = 3 table."""
    rng = random.Random(seed)
    tables = (
        eval_word("X[1,0]^40", 1),
        deep_table(rng),
        pinwheel_element(rng, embedded=seed % 2 == 1),
        refined(random_element(3, 24, rng), rng, 12),
    )
    asked, lookup = [], element_algebra._candidates

    def counted(g, words):
        asked.append(words)
        return lookup(g, words)

    monkeypatch.setattr(element_algebra, "_candidates", counted)
    for e in tables:
        for piece in rng.sample(e.pieces, min(8, len(e.pieces))):
            for p in (lower_corner(piece.dom_words), random_point(rng, e.dim)):
                asked.clear()
                assert apply(e, p) == apply_linear(e, p)
                assert len(asked) == 1
                assert tuple(map(len, asked[0])) == e._cut


def coordinate(rng):
    """A value in [0, 1): of denominator 2^20, 3, 61 or a random one up to
    10^6, or the int 0."""
    q = rng.choice((2**20, 3, 61, rng.randint(1, 10**6), None))
    return 0 if q is None else Fraction(rng.randrange(q), q)


def outcome(f, *args):
    """``f``'s image with the type of each coordinate, or its ValueError's
    message."""
    try:
        image = f(*args)
    except ValueError as exc:
        return str(exc)
    return image, type(image), [type(y) for y in image]


@given(st.integers(0, 10**6), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_integer_apply_matches_the_fraction_formula(seed, n):
    """``apply`` and ``apply_point`` give the ``Fraction`` formula's images,
    value and type, on a random refined table, ``X[d,0]^k`` (1 <= |k| <=
    150) and their composite: at points of denominator 2^20, 3 and 61 or up
    to 10^6, with int coordinates, at domain corners and inside sampled
    domains.  Outside the cube, and for ``apply_point`` outside its domain,
    both raise the formula's ValueError, message for message."""
    rng = random.Random(seed)
    g = refined(random_element(n, rng.randint(1, 24), rng), rng, rng.randint(0, 24))
    k = rng.choice((-1, 1)) * rng.randint(1, 150)
    power = eval_word(f"X[{rng.randint(1, n)},0]^{k}", n)
    for e in (g, power, compose(g, power)):
        some = rng.sample(e.pieces, min(6, len(e.pieces)))
        points = [tuple(coordinate(rng) for _ in range(n)) for _ in range(6)]
        points += [lower_corner(p.dom_words) for p in some]
        points += [
            tuple(
                (int(w or "0", 2) + Fraction(coordinate(rng))) / 2 ** len(w)
                for w in p.dom_words
            )
            for p in some
        ]
        for x in points:
            assert outcome(apply, e, x) == outcome(apply_linear, e, x)
            for piece in some:
                assert outcome(piece.apply_point, x) == outcome(apply_point_fractions, piece, x)
        d = rng.randrange(n)
        for y in (-1, 1, 2, Fraction(-1, 3), Fraction(3, 2), Fraction(10**6, 10**6 - 1)):
            x = points[0][:d] + (y,) + points[0][d + 1 :]
            message = f"no piece contains {x}; element invalid or point outside cube"
            assert outcome(apply, e, x) == message
            for piece in some:
                assert outcome(piece.apply_point, x) == outcome(apply_point_fractions, piece, x)


@given(n=st.integers(1, 3), size=st.integers(1, 24), seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_expansion_inserts_the_halves_where_the_rebuild_sorts_them(n, size, seed):
    """A chain of eight expansions, each table for table the full
    ``Element.from_pieces`` rebuild, and each table sorted by domain."""
    rng = random.Random(seed)
    g = random_element(n, size, rng)
    for _ in range(8):
        i, d = rng.randrange(len(g.pieces)), rng.randint(1, n)
        fine = expansion(g, i, d)
        assert fine == expansion_rebuild(g, i, d)
        assert list(fine.pieces) == sorted(fine.pieces, key=_dom_words)
        g = fine


@pytest.mark.parametrize("n", [1, 2])
def test_a_power_of_x_is_one_run(n):
    """``X[1,0]^k`` has k + 2 domains that coordinate 1 alone separates, so
    from eight pieces on its tree is one run of all of them, however deep
    the words; below eight the cell halves, one piece per leaf."""
    for k in (1, 4, 5):
        assert type(eval_word(f"X[1,0]^{k}", n)._tree) is list
    for k in (6, 7, 64, 150):
        tree = eval_word(f"X[1,0]^{k}", n)._tree
        assert type(tree) is _Run and tree.by == 0 and len(tree.pieces) == k + 2


def test_powers_by_squaring_match_the_per_exponent_loop():
    """Exponents +-1..130; the unreduced table of ``C[d,i]^k`` has about 2^k
    pieces (on either path), so C stops at +-10."""
    n = 2
    generators = (
        ("X[1,0]", make_X(1, 0, n), 130),
        ("X[2,1]", make_X(2, 1, n), 130),
        ("C[2,1]", make_C(2, 1, n), 10),
        ("P[1]", make_pi(1, n), 130),
        ("Pb[0]", make_pibar(0, n), 130),
    )
    for label, gen, top in generators:
        for sign, e in ((1, gen), (-1, inverse(gen))):
            acc = identity(n)
            for k in range(1, top + 1):
                acc = compose_all_pairs(acc, e)
                assert eval_word(f"{label}^{sign * k}", n) == acc, (label, sign * k)
