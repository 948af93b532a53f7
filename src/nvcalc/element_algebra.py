"""Exact group arithmetic for piecewise prefix-substitution bijections.

An *affine piece* ``dom -> ran`` holds two same-length word tuples,
``dom_words`` and ``ran_words`` (``dom`` and ``ran`` are ``Rect`` views), and
denotes the affine bijection that, in each coordinate, replaces the prefix
``dom_words[d]`` by ``ran_words[d]`` (slope ``2**(len(dom_d) - len(ran_d))``).

An *element* is a finite set of affine pieces whose domains form a partition
of the unit cube and whose ranges form another; such a piece table induces a
self-bijection of the cube.  Composition, inversion, equality, restriction,
affinity tests, reduction, expansion, fuzz generation, and a bit-exact JSON
round-trip are provided.  Everything is immutable and exact.

Words are checked at the boundary (the public ``Rect`` and ``AffinePiece``
constructors, the word parser, JSON loading); rectangles and pieces cut from
valid ones are built unchecked from words with ``_trusted``.  One word walk,
``_compose_pieces``, serves ``compose``, ``restrict``, ``equals``, coset
equality and the ``eval_word`` fold, which starts from its first factor's
pieces.  A candidate whose domain equals the range it meets skips the walk.
Every lookup, ``apply``'s too, asks ``_candidates`` of a halving tree over
each element's domains, cached; a cell that one coordinate's words already
separate is one run, bisected by the query's word, so a run has no width.

Convention: ``compose(g, h)`` is the map "apply h first, then g" (so a word
written ``g h`` acts on the cube through its right factor first).  This is the
single global convention under which the whole relation suite of
:mod:`nvcalc.words_generators` passes.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left, bisect_right, insort
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from heapq import heappop, heappush
from operator import attrgetter
from typing import Iterable, Sequence

from nvcalc.dyadic_core import (
    Point,
    Rect,
    halve,
    rect_intersect,
)

__all__ = [
    "AffinePiece",
    "Element",
    "apply",
    "compose",
    "element_depth",
    "element_from_json",
    "element_to_json",
    "equals",
    "expansion",
    "identity",
    "inverse",
    "is_affine_on",
    "is_identity",
    "is_identity_on",
    "merge_pieces",
    "random_element",
    "restrict",
    "simplify",
    "support",
    "validate",
]


@dataclass(frozen=True, order=True, slots=True, init=False)
class AffinePiece:
    """One prefix substitution ``dom -> ran`` between same-dimension rectangles,
    held as their two word tuples; ``dom`` and ``ran`` are ``Rect`` views."""

    dom_words: tuple[str, ...]
    ran_words: tuple[str, ...]

    def __init__(self, dom: Rect, ran: Rect) -> None:
        if dom.dim != ran.dim:
            raise ValueError("domain and range must share a dimension")
        _set_dom(self, dom.words)
        _set_ran(self, ran.words)

    @classmethod
    def _trusted(
        cls, dom_words: tuple[str, ...], ran_words: tuple[str, ...]
    ) -> "AffinePiece":
        """Internal: a piece of valid same-length word tuples, unchecked."""
        p = object.__new__(cls)
        _set_dom(p, dom_words)
        _set_ran(p, ran_words)
        return p

    @property
    def dom(self) -> Rect:
        return Rect._trusted(self.dom_words)

    @property
    def ran(self) -> Rect:
        return Rect._trusted(self.ran_words)

    @property
    def dim(self) -> int:
        return len(self.dom_words)

    @property
    def is_trivial(self) -> bool:
        """True iff the substitution fixes its domain pointwise."""
        return self.dom_words == self.ran_words

    def apply_point(self, p: Point) -> Point:
        """Exact image of a point of the (half-open) domain, on integers: for
        x = a/b, s/b is x's place in u's interval; one Fraction per coordinate."""
        out = []
        for u, v, x in zip(self.dom_words, self.ran_words, p):
            a, b = x.numerator, x.denominator
            s = (a << len(u)) - int(u or "0", 2) * b
            if not 0 <= s < b:
                raise ValueError(f"{x} outside domain word {u!r}")
            out.append(Fraction(int(v or "0", 2) * b + s, b << len(v)))
        return tuple(out)

    def inverted(self) -> "AffinePiece":
        return AffinePiece._trusted(self.ran_words, self.dom_words)


#: The slots' own setters: they bypass the frozen ``__setattr__``.
_set_dom = AffinePiece.dom_words.__set__
_set_ran = AffinePiece.ran_words.__set__
_dom_words = attrgetter("dom_words")
_Run = namedtuple("_Run", "by words pieces")  # see Element._tree


@dataclass(frozen=True)
class Element:
    """A piecewise prefix-substitution bijection of the unit cube.

    ``pieces`` are kept sorted by domain words, so equal piece tables compare
    and hash equal.
    """

    dim: int
    pieces: tuple[AffinePiece, ...]

    @staticmethod
    def from_pieces(pieces: Iterable[AffinePiece]) -> "Element":
        ps = tuple(sorted(pieces, key=_dom_words))
        if not ps:
            raise ValueError("an element needs at least one piece")
        dim = len(ps[0].dom_words)
        if any(len(p.dom_words) != dim for p in ps):
            raise ValueError("mixed dimensions in piece table")
        return Element(dim, ps)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass hash of (dim, pieces), computed once per table."""
        return hash((self.dim, self.pieces))

    @cached_property
    def _cut(self) -> tuple[int, ...]:
        """The cylinder lemma's L: the longest domain word in each coordinate."""
        return tuple(max(map(len, ws)) for ws in zip(*map(_dom_words, self.pieces)))

    @cached_property
    def _tree(self) -> list | tuple:
        """The halving tree over the domain pattern, read only by
        ``_candidates``.  A node ``[d, k, lo, hi]`` halves its cell at letter
        k of coordinate d, which no piece in the cell spans; the coordinate
        the cell is sorted by comes first, as it halves by bisection.  A leaf
        is the tuple of the cell's pieces, or a ``_Run``: a cell of eight or
        more pieces (fewer halve as fast as they bisect) whose words in the
        coordinate it is sorted by are prefix-free, kept whole and bisected
        by the query's word, so it has no width; tiling pieces with disjoint
        words in one coordinate span the cell in every other.  Any other leaf
        holds several pieces only where no coordinate halves.  For n <= 2
        every cell of two or more disjoint pieces halves: a piece spanning it
        in coordinate 1 and one spanning it in coordinate 2 would meet.  For
        n = 3 the pinwheel ("", "0", "0"), ("0", "", "1"), ("1", "1", ""),
        ("1", "0", "1"), ("0", "1", "0") does not."""
        top: list = [None]
        work = [(top, 0, sorted(self.pieces, key=_dom_words), (0,) * self.dim, 0)]
        while work:  # each cell is sorted by its words in coordinate `by`
            node, slot, cell, depths, by = work.pop()
            if len(cell) > 7:
                ws = [p.dom_words[by] for p in cell]
                if not any(map(str.startswith, ws[1:], ws)):
                    node[slot] = _Run(by, ws, tuple(cell))
                    continue
            for d in (by, *range(self.dim)) if len(cell) > 1 else ():
                k = depths[d]
                if d != by:
                    if any(len(p.dom_words[d]) <= k for p in cell):
                        continue
                    cell = sorted(cell, key=lambda p: p.dom_words[d])
                elif len(cell[0].dom_words[d]) <= k:  # shortest word sorts first
                    continue
                i = bisect_left(cell, "1", key=lambda p: p.dom_words[d][k])
                node[slot] = child = [d, k, None, None]
                sub = depths[:d] + (k + 1,) + depths[d + 1:]
                work += ((child, 2, cell[:i], sub, d), (child, 3, cell[i:], sub, d))
                break
            else:
                node[slot] = tuple(cell)
        return top[0]


def _candidates(g: Element, words: tuple[str, ...]) -> Sequence[AffinePiece]:
    """The pieces of ``g`` that may meet the rectangle ``words``: the leaves of
    g's tree reached by following, at each node ``[d, k, lo, hi]``, the child
    named by letter k of ``words[d]``, or both if the word has none; a run
    bisects to the one piece whose word there ``words[d]`` extends, or else
    to the block of pieces whose words extend it.  For n <= 2 these are
    exactly the pieces that meet it; the callers' word walks drop the others.
    Every lookup in g's pieces, ``apply``'s included, goes through here."""
    todo, out = [g._tree], []
    while todo:
        node = todo.pop()
        while type(node) is list:
            d, k, lo, hi = node
            w = words[d]
            if len(w) <= k:
                todo.append(hi)
                node = lo
            else:
                node = lo if w[k] == "0" else hi
        if type(node) is tuple:
            out += node
            continue
        d, ws, pieces = node
        i = bisect_right(ws, words[d])
        if i and words[d].startswith(ws[i - 1]):
            out.append(pieces[i - 1])
        else:
            out += pieces[i : bisect_left(ws, words[d] + "2", i)]
    return out


def identity(n: int) -> Element:
    """The identity element: one trivial piece on the whole cube."""
    cube = Rect.cube(n)
    return Element.from_pieces([AffinePiece(cube, cube)])


def validate(e: Element) -> bool:
    """True iff the domains and the ranges (the domains of ``inverse(e)``)
    each tile the cube: the volumes sum to 1 and each domain meets only
    itself among its ``_candidates``.  That is every pair that can meet: a
    cell of the halving tree halves only at a letter all its pieces have, and
    a run skips only pieces whose (prefix-free) words there miss the query's."""
    for g in (e, inverse(e)):
        if sum(p.dom.volume for p in g.pieces) != 1:
            return False
        for p in g.pieces:
            meets = (rect_intersect(p.dom, q.dom) for q in _candidates(g, p.dom_words))
            if sum(r is not None for r in meets) != 1:
                return False
    return True


def compose(g: Element, h: Element) -> Element:
    """The element acting as "apply ``h`` first, then ``g``" (i.e. g∘h).

    Pairs each piece of h with the candidate pieces of g its range may meet
    (``_compose_pieces``).  The table refines both factors', so composing is
    associative table for table: ``(f∘g)∘h`` and ``f∘(g∘h)`` have equal
    piece tables."""
    if g.dim != h.dim:
        raise ValueError(f"dimension mismatch: {g.dim} vs {h.dim}")
    return Element(g.dim, tuple(sorted(_compose_pieces(g, h.pieces), key=_dom_words)))


#: The most pieces one composition may produce; past it ``compose`` raises
#: ValueError instead of running for minutes (``C[2,1]^k`` has 2^k + 1 pieces).
MAX_PIECES = 2**16


def _compose_pieces(g: Element, pieces: Iterable[AffinePiece]) -> list[AffinePiece]:
    """The pieces of g∘p for each piece p, straight from the four word tuples.

    A candidate pg whose domain is p's range yields p.dom -> pg.ran as it is.
    Else, per coordinate, p's range word r and pg's domain word u meet when
    u extends r (p's domain word plus u's extra letters, to pg's range word)
    or r extends u (p's domain word, to pg's range word plus r's extra
    letters); any other pair is disjoint.  Callers check dimensions and pass
    valid pieces (the ``eval_word`` fold passes its accumulated list, which
    starts as its first factor's pieces).  Raises ValueError past ``MAX_PIECES``."""
    out = []
    trusted = AffinePiece._trusted
    for ph in pieces:
        hd, hr = ph.dom_words, ph.ran_words
        for pg in _candidates(g, hr):
            if pg.dom_words == hr:
                out.append(trusted(hd, pg.ran_words))
                continue
            dom, ran = [], []
            for a, r, u, b in zip(hd, hr, pg.dom_words, pg.ran_words):
                if u.startswith(r):
                    dom.append(a + u[len(r):])
                    ran.append(b)
                elif r.startswith(u):
                    dom.append(a)
                    ran.append(b + r[len(u):])
                else:
                    break
            else:
                out.append(trusted(tuple(dom), tuple(ran)))
        if len(out) > MAX_PIECES:
            raise ValueError(f"a composition would exceed {MAX_PIECES} pieces")
    return out


def inverse(g: Element) -> Element:
    """Swap every piece's domain and range."""
    pieces = sorted(map(AffinePiece.inverted, g.pieces), key=_dom_words)
    return Element(g.dim, tuple(pieces))


def apply(g: Element, p: Point) -> Point:
    """Exact image of a point of the half-open cube (no coordinate equals 1).
    Coordinate d = a/b is read once, on integers, as the word of ``g._cut[d]``
    bits c of ``(a << c) // b``; the point lies in the one of those words'
    ``_candidates`` whose domain words prefix them."""
    if len(p) != g.dim:
        raise ValueError(f"point dimension {len(p)} != element dimension {g.dim}")
    ab = [(x.numerator, x.denominator) for x in p]
    if all(0 <= a < b for a, b in ab):
        words = tuple(bin((a << c) // b + (1 << c))[3:] for (a, b), c in zip(ab, g._cut))
        for piece in _candidates(g, words):
            if all(map(str.startswith, words, piece.dom_words)):
                return piece.apply_point(p)
    raise ValueError(f"no piece contains {p}; element invalid or point outside cube")


def is_identity(g: Element) -> bool:
    """True iff every piece's substitution is trivial."""
    return all(p.is_trivial for p in g.pieces)


def equals(g: Element, h: Element) -> bool:
    """Semantic equality of induced maps: ``g∘h^{-1}`` is the identity.
    Identical piece tables are the same map and answer without a word walk."""
    if g.dim != h.dim:
        raise ValueError(f"dimension mismatch: {g.dim} vs {h.dim}")
    return g.pieces == h.pieces or _agrees(g, h.pieces)


def _agrees(g: Element, pieces: Iterable[AffinePiece]) -> bool:
    """Whether ``g`` and the pieces agree wherever their domains meet: the
    pieces of g∘p^{-1} are all trivial."""
    overlaps = _compose_pieces(g, map(AffinePiece.inverted, pieces))
    return all(p.is_trivial for p in overlaps)


def restrict(g: Element, r: Rect) -> tuple[AffinePiece, ...]:
    """The pieces of ``g`` cut down to ``r``; their domains partition ``r``.
    This is g composed with the one piece r -> r (``_compose_pieces``)."""
    if g.dim != r.dim:
        raise ValueError(f"dimension mismatch: {g.dim} vs {r.dim}")
    out = _compose_pieces(g, (AffinePiece._trusted(r.words, r.words),))
    return tuple(sorted(out, key=_dom_words))


def is_affine_on(g: Element, r: Rect) -> AffinePiece | None:
    """The restriction of ``g`` to ``r`` as one substitution, if it is one.

    Returns the piece with domain exactly ``r``, or None when the restriction
    is genuinely piecewise.  Note that agreeing slopes and continuity are not
    enough: the restriction counts as affine only when its image is again a
    standard dyadic rectangle, i.e. when it is a prefix substitution.
    The test oracle in ``tests/oracles.py`` recovers it from ``restrict(g, r)``.
    """
    if g.dim != r.dim:
        raise ValueError(f"dimension mismatch: {g.dim} vs {r.dim}")
    target = _affine_target(_candidates(g, r.words), r.words)
    return None if target is None else AffinePiece._trusted(r.words, target)


def _affine_target(pieces: Iterable[AffinePiece], words: tuple[str, ...]) -> tuple | None:
    """The range words W of the one substitution ``words`` -> W on which the
    ``pieces`` meeting the rectangle ``words`` agree, or None; pieces that
    miss it are skipped.  A piece that cuts a word w to w + s must have range
    word W + s."""
    target = None
    for piece in pieces:
        out, fits = [], True
        for w, u, v in zip(words, piece.dom_words, piece.ran_words):
            if u.startswith(w):  # the piece cuts w to u = w + s: v must be W + s
                fits = fits and v.endswith(u[len(w):])
                out.append(v[: len(v) - len(u) + len(w)])
            elif w.startswith(u):  # w lies inside u
                out.append(v + w[len(u):])
            else:
                break  # disjoint from the rectangle
        else:  # the piece meets the rectangle, so only now may it reject it
            if not fits or (target is not None and out != target):
                return None
            target = out
    return None if target is None else tuple(target)


def is_identity_on(g: Element, r: Rect) -> bool:
    """True iff ``g`` restricted to ``r`` is the trivial substitution."""
    ext = is_affine_on(g, r)
    return ext is not None and ext.is_trivial


def _merge_partner(a: AffinePiece, b: AffinePiece, d: int) -> AffinePiece | None:
    """Merge two pieces whose domains are the 0- and 1-halves of a rectangle in
    coordinate d, if their ranges are the same halves of a rectangle in the
    same coordinate; the merged substitution restricts back to both inputs."""
    u, v = a.dom_words, a.ran_words
    w = v[d][:-1]
    if v[d] != w + "0" or b.ran_words != v[:d] + (w + "1",) + v[d + 1:]:
        return None
    return AffinePiece._trusted(u[:d] + (u[d][:-1],) + u[d + 1:], v[:d] + (w,) + v[d + 1:])


def merge_pieces(pieces: Iterable[AffinePiece]) -> tuple[AffinePiece, ...]:
    """Greedily merge sibling piece pairs until none applies (deterministic):
    the least domain key that has a merge partner merges first, at its first
    such coordinate.  Works on any piece collection with pairwise-disjoint
    domains.  For dimension 1 each piece has at most one merge partner and the
    result is the unique fully reduced table; for higher dimensions a piece may
    pair in several coordinates, so the result is reduced but not canonical.
    A merge can make only the merged key, or a key that is it with one
    trailing ``1`` made ``0``, newly mergeable: both go back on the heap.
    """
    current: dict[tuple[str, ...], AffinePiece] = {
        p.dom_words: p for p in pieces
    }
    if len(current) < 2:
        return tuple(current.values())
    heap = sorted(current)
    while heap:
        key = heappop(heap)
        if key not in current:  # merged away, or a zero side never present
            continue
        for d, w in enumerate(key):
            if not w.endswith("0"):  # build the n-tuple key only for a 0-word
                continue
            sibling_key = key[:d] + (w[:-1] + "1",) + key[d + 1:]
            if sibling_key in current:
                merged = _merge_partner(current[key], current[sibling_key], d)
                if merged is not None:
                    break
        else:
            continue
        del current[key], current[sibling_key]
        new = merged.dom_words
        current[new] = merged
        heappush(heap, new)
        for c, u in enumerate(new):
            if u.endswith("1"):
                heappush(heap, new[:c] + (u[:-1] + "0",) + new[c + 1:])
    return tuple(current[k] for k in sorted(current))


def simplify(g: Element) -> Element:
    """Equal element with greedily merged pieces.  For n = 1 this is the unique
    reduced form; for n >= 2 it is a table with no mergeable pair, and one map
    can have two such tables, so only ``equals`` decides equality there."""
    return Element(g.dim, merge_pieces(g.pieces))


def support(g: Element) -> tuple[Rect, ...]:
    """Domains of the nontrivial pieces of the reduced table, sorted."""
    return tuple(
        p.dom for p in simplify(g).pieces if not p.is_trivial
    )


def expansion(g: Element, piece_index: int, d: int) -> Element:
    """Replace one piece by its two ``d``-halves on both sides (same map),
    inserted into the sorted table."""
    if not 0 <= piece_index < len(g.pieces):
        raise ValueError(f"piece index {piece_index} out of range")
    pieces = list(g.pieces)
    target = pieces.pop(piece_index)
    for dom, ran in zip(halve(target.dom, d), halve(target.ran, d)):
        insort(pieces, AffinePiece._trusted(dom.words, ran.words), key=_dom_words)
    return Element(g.dim, tuple(pieces))


def element_depth(g: Element) -> int:
    """Max total depth over g's piece table as given (domains and ranges);
    pass ``simplify(g)`` for the depth of the reduced table."""
    return max(len("".join(w)) for p in g.pieces for w in (p.dom_words, p.ran_words))


def _random_leaves(rng: random.Random, leaves: int, cell: Rect) -> list[Rect]:
    """``cell`` halved at random into ``leaves`` cells, left to right.  Draws
    the left count, then the coordinate, then recurses left and right."""
    if leaves == 1:
        return [cell]
    left = rng.randint(1, leaves - 1)
    lo, hi = halve(cell, rng.randint(1, cell.dim))
    return _random_leaves(rng, left, lo) + _random_leaves(rng, leaves - left, hi)


def random_element(n: int, size: int, seed: int | random.Random) -> Element:
    """Deterministic fuzz element: two random halvings of the cube into
    ``size`` cells each, and a random pairing."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if not 1 <= size <= MAX_PIECES:
        raise ValueError(f"size must be in 1..{MAX_PIECES}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    doms = _random_leaves(rng, size, Rect.cube(n))
    rans = _random_leaves(rng, size, Rect.cube(n))
    pairing = list(range(size))
    rng.shuffle(pairing)
    return Element.from_pieces(
        AffinePiece(doms[i], rans[pairing[i]]) for i in range(size)
    )


def element_to_json_dict(g: Element) -> dict:
    """Plain-dict form: ``{"n": 2, "pieces": [{"dom": [...], "ran": [...]}]}``."""
    return {
        "n": g.dim,
        "pieces": [
            {"dom": list(p.dom_words), "ran": list(p.ran_words)}
            for p in g.pieces
        ],
    }


def element_from_json_dict(data: dict) -> Element:
    pieces = data.get("pieces") if type(data) is dict else None
    if type(pieces) is not list or "n" not in data:
        raise ValueError("the top level must be an object with n and a pieces array")
    n = data["n"]
    if type(n) is not int:
        raise ValueError(f"n must be an integer, not {type(n).__name__}")
    if any(type(p) is not dict or not p.keys() >= {"dom", "ran"} for p in pieces):
        raise ValueError("each piece must be an object with dom and ran")
    words = [(p["dom"], p["ran"]) for p in pieces]
    if any(type(w) is not list for pair in words for w in pair):
        raise ValueError("dom and ran must be arrays of words")
    e = Element.from_pieces(AffinePiece(Rect(tuple(u)), Rect(tuple(v))) for u, v in words)
    if e.dim != n:
        raise ValueError(f"declared dimension {n} != piece dimension {e.dim}")
    return e


def element_to_json(g: Element) -> str:
    """Canonical JSON text (sorted pieces, fixed separators): bit-exact round-trip."""
    return json.dumps(element_to_json_dict(g), sort_keys=True, separators=(",", ":"))


def element_from_json(text: str) -> Element:
    return element_from_json_dict(json.loads(text))
