"""Rectangle-form answers to the two geometric questions, kept as oracles.

The program answers "do two rectangles meet" with ``rect_intersect`` and
"is g one substitution on R" with ``is_affine_on``, both on word tuples.  The
functions here answer the same questions the older way, one rectangle at a
time: the five-way ``rect_relation``, the piece methods ``image_of`` and
``restrict_to`` (as functions of the piece), and ``affine_extension``, which
recovers the one substitution from a restricted piece table.  ``corners``
lists a pattern's corner points, 2^n per cell, and ``corner_members`` tests
rectangles against them point by point, the reference for ``f_P_probe``'s
per-coordinate test.  Tests import them to check the word kernel against
them.  ``cocycle_identity_reference``
is the cocycle identity check with every translation made afresh and every
coset pair compared by the word walk, the reference for the memoised one.

``embed_in_half`` and ``normalizer_commutation_check`` are premises about the
half-cube stabiliser H that only tests use: copies of an element inside one
coordinate-1 half, and the checks that such copies commute, that a
right-half copy lies in H, and that conjugating one by ``X[1,1]`` keeps it
in H (through ``in_H(coset_of(...))``).  ``in_H`` and ``slope_exponents``
are the membership test for H and a piece's slopes, which only tests use.

``is_partition``, ``contains_point`` and ``rect_to_coset`` are checks the
program itself never needs: whether rectangles tile the cube, by volume and
an all-pairs disjointness test (``validate``'s oracle), whether a point lies
in a rectangle, interval by interval (the reference for ``apply``'s prefix
test of the point's bits), and a witness k for the X-coset of a rectangle r,
the canonical element sending I_l onto r by one substitution and a staircase
of the right half onto the complement of r.

``eval_word_fold`` and ``expansion_rebuild`` build what the program builds
once or in place: a word's value with every generator and inverse made
afresh and one composition per unit of exponent, and an expansion as a full
``Element.from_pieces`` rebuild (re-sort and dimension check).
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterable, Sequence

from nvcalc.dyadic_core import (
    Point,
    Rect,
    enumerate_rects,
    halve,
    rect_Il,
    rect_Ir,
    rect_intersect,
    word_interval,
)
from nvcalc.element_algebra import (
    AffinePiece,
    Element,
    _agrees,
    compose,
    equals,
    identity,
    inverse,
    random_element,
)
from nvcalc.ends_cocycle import (
    CosetRep,
    complement_partition,
    coset_of,
    coset_translate,
)
from nvcalc.reporting import CheckReport, CheckResult
from nvcalc.words_generators import make_C, make_pi, make_pibar, make_X, parse_word


class RectRelation(enum.Enum):
    """Containment relation between two rectangles of equal dimension."""

    DISJOINT = "disjoint"
    A_CONTAINS_B = "a_contains_b"
    B_CONTAINS_A = "b_contains_a"
    EQUAL = "equal"
    PARTIAL_OVERLAP = "partial_overlap"


def _word_relation(a: str, b: str) -> RectRelation:
    """1-D nesting dichotomy: intervals are equal, nested, or disjoint."""
    if a == b:
        return RectRelation.EQUAL
    if b.startswith(a):
        return RectRelation.A_CONTAINS_B
    if a.startswith(b):
        return RectRelation.B_CONTAINS_A
    return RectRelation.DISJOINT


def rect_relation(a: Rect, b: Rect) -> RectRelation:
    """Exact containment relation between same-dimension rectangles.

    Partial overlap happens only when the containment direction differs
    across coordinates; interiors intersect iff no coordinate pair is
    prefix-incomparable.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    per_coord = [_word_relation(x, y) for x, y in zip(a.words, b.words)]
    if any(rel is RectRelation.DISJOINT for rel in per_coord):
        return RectRelation.DISJOINT
    narrowing = {RectRelation.EQUAL, RectRelation.A_CONTAINS_B}
    widening = {RectRelation.EQUAL, RectRelation.B_CONTAINS_A}
    if all(rel is RectRelation.EQUAL for rel in per_coord):
        return RectRelation.EQUAL
    if all(rel in narrowing for rel in per_coord):
        return RectRelation.A_CONTAINS_B
    if all(rel in widening for rel in per_coord):
        return RectRelation.B_CONTAINS_A
    return RectRelation.PARTIAL_OVERLAP


def is_partition(rects: Iterable[Rect]) -> bool:
    """True iff the rectangles tile the unit cube.

    Checked exactly: volumes sum to 1 and all pairs have disjoint interiors.
    The empty collection is not a partition.
    """
    rs = list(rects)
    if not rs:
        return False
    dim = rs[0].dim
    if any(r.dim != dim for r in rs):
        raise ValueError("mixed dimensions")
    if sum(r.volume for r in rs) != 1:
        return False
    for i, a in enumerate(rs):
        for b in rs[i + 1 :]:
            if rect_intersect(a, b) is not None:
                return False
    return True


def contains_point(r: Rect, p: Point) -> bool:
    """Half-open membership: every coordinate satisfies ``lo <= x < hi``."""
    if len(p) != r.dim:
        raise ValueError(f"point dimension {len(p)} != rect dimension {r.dim}")
    for w, x in zip(r.words, p):
        lo, hi = word_interval(w)
        if not (lo <= x < hi):
            return False
    return True


def corners(cells: Sequence[Rect]) -> frozenset[Point]:
    """All corner points of the cells (deduplicated).

    Each cell contributes the ``2^n`` points whose d-th coordinate is either
    endpoint of its d-th interval; the upper endpoint may equal 1.
    """
    return frozenset(p for r in cells for p in itertools.product(*r.intervals()))


def corner_members(
    pattern: Sequence[Rect], depth: int, corner_mode: str
) -> tuple[Rect, ...]:
    """The rectangles of depth 1..``depth`` whose closure ("closed") or
    half-open extent ("half_open") holds a corner of ``pattern``, each
    rectangle tested against every corner point."""

    def closed(r: Rect, p: Point) -> bool:
        return all(lo <= x <= hi for (lo, hi), x in zip(r.intervals(), p))

    meets = contains_point if corner_mode == "half_open" else closed
    points = corners(pattern)
    rects = enumerate_rects(pattern[0].dim, depth)
    return tuple(r for r in rects if any(meets(r, q) for q in points))


def image_of(piece: AffinePiece, sub: Rect) -> Rect:
    """Image under ``piece`` of a rectangle nested in its domain."""
    words = []
    for u, v, w in zip(piece.dom.words, piece.ran.words, sub.words):
        if not w.startswith(u):
            raise ValueError(f"{sub} is not nested in domain {piece.dom}")
        words.append(v + w[len(u):])
    return Rect(tuple(words))


def restrict_to(piece: AffinePiece, sub: Rect) -> AffinePiece:
    """The same map, restricted to a rectangle nested in the domain."""
    return AffinePiece(sub, image_of(piece, sub))


def slope_exponents(piece: AffinePiece) -> tuple[int, ...]:
    """Per-coordinate slope exponents e_d with slope ``2**e_d``."""
    return tuple(len(u) - len(v) for u, v in zip(piece.dom_words, piece.ran_words))


def in_H(c: CosetRep) -> bool:
    """Whether c = kH is the trivial coset, i.e. k fixes I_l pointwise."""
    return all(p.is_trivial for p in c.restriction)


def rect_to_coset(r: Rect) -> Element:
    """A witness element k with k(I_l) = ``r`` (so kH is the X-coset of r).

    Builds the canonical representative: I_l is sent onto ``r`` by one
    substitution, and the right half is cut into ``r.depth`` staircase cells
    ``10, 110, ..., 1^(m-1)0, 1^m`` (coordinate 1) matched in order with the
    complement partition of ``r``.
    """
    if r.depth == 0:
        raise ValueError("the whole cube is not the image of I_l under any element")
    n = r.dim
    comps = complement_partition(r)
    m = len(comps)
    pieces = [AffinePiece(rect_Il(n), r)]
    for j, target in enumerate(comps, start=1):
        word1 = "1" * j + ("0" if j < m else "")
        pieces.append(AffinePiece(Rect((word1,) + ("",) * (n - 1)), target))
    return Element.from_pieces(pieces)


def affine_extension(
    pieces: Sequence[AffinePiece], r: Rect
) -> AffinePiece | None:
    """Single prefix substitution on ``r`` agreeing with ``pieces``, if any.

    ``pieces`` must be affine pieces whose domains are nested in ``r`` and
    tile it.  If one substitution ``r -> W`` restricts to every piece, it is
    returned; otherwise None.  The candidate is forced by any single piece:
    writing the piece's domain as ``r`` extended by a suffix ``s`` per
    coordinate, its range must be ``W`` extended by the same suffix, so ``W``
    is recovered by stripping ``s``; if stripping is impossible, or any
    piece disagrees with the candidate, no extension exists.
    """
    if not pieces:
        return None
    first = pieces[0]
    target = []
    for rw, u, v in zip(r.words, first.dom.words, first.ran.words):
        if not u.startswith(rw):
            raise ValueError("piece domain not nested in the target rectangle")
        s = u[len(rw):]
        if s:
            if not v.endswith(s):
                return None
            target.append(v[: len(v) - len(s)])
        else:
            target.append(v)
    candidate = AffinePiece(r, Rect(tuple(target)))
    for piece in pieces:
        if image_of(candidate, piece.dom).words != piece.ran.words:
            return None
    return candidate


def cocycle_identity_reference(g: Element, h: Element, depth: int = 2) -> CheckReport:
    """``cocycle_identity_check`` with no memo: all five translations of
    every test coset are computed, repeats included, and the two cosets are
    compared by the word walk alone, never by their tables."""
    n = g.dim
    gh = compose(g, h)
    gh_inv = inverse(gh)
    g_inv = inverse(g)
    h_inv = inverse(h)
    il = rect_Il(n)
    report = CheckReport("cocycle_identity", n, {"depth": depth})
    for r in enumerate_rects(n, depth):
        base = CosetRep(n, (AffinePiece(il, r),))  # the X-coset of r
        name = ",".join(w or "e" for w in r.words)
        for label, c in (
            (f"R[{name}]", base),
            (f"g.R[{name}]", coset_translate(g, base)),
            (f"gh.R[{name}]", coset_translate(gh, base)),
        ):
            stepwise = coset_translate(h_inv, coset_translate(g_inv, c))
            composed = Element(n, coset_translate(gh_inv, c).restriction)
            report.checks.append(
                CheckResult(
                    "cocycle_identity",
                    f"pi_gh = pi_g + g.pi_h at {label}",
                    _agrees(composed, stepwise.restriction),
                )
            )
    return report


def embed_in_half(e: Element, side: str) -> Element:
    """Copy of e acting inside one coordinate-1 half and fixing the other.

    ``side`` is "left" or "right"; the copy prefixes the half's letter to
    every coordinate-1 domain and range word and a single identity piece
    covers the other half.
    """
    if side not in ("left", "right"):
        raise ValueError(f"unknown side {side!r}")
    bit, other = ("0", rect_Ir(e.dim)) if side == "left" else ("1", rect_Il(e.dim))
    pieces = [
        AffinePiece(
            Rect((bit + p.dom_words[0],) + p.dom_words[1:]),
            Rect((bit + p.ran_words[0],) + p.ran_words[1:]),
        )
        for p in e.pieces
    ]
    pieces.append(AffinePiece(other, other))
    return Element.from_pieces(pieces)


def normalizer_commutation_check(
    n: int, samples: int = 5, seed: int = 0
) -> CheckReport:
    """Sanity checks for the half-cube subgroup H used by the coset space.

    Random elements embedded into opposite halves must commute; every
    right-half embedding lies in H; and conjugating a right-half element by
    a generator supported on the left half (``X[1,1]``) stays in H — checked
    on random samples and on the fixed witness swapping the two quarters of
    the right half.
    """
    report = CheckReport(
        "normalizer_commutation", n, {"samples": samples, "seed": seed}
    )
    x11 = make_X(1, 1, n)
    x11_inv = inverse(x11)

    def run_case(tag: str, left_src: Element, right_src: Element) -> None:
        a = embed_in_half(left_src, "left")
        b = embed_in_half(right_src, "right")
        report.checks.append(
            CheckResult(
                "disjoint_supports_commute",
                f"{tag}: left and right embeddings commute",
                equals(compose(a, b), compose(b, a)),
            )
        )
        report.checks.append(
            CheckResult(
                "right_embedding_in_H",
                f"{tag}: right embedding fixes I_l",
                in_H(coset_of(b)),
            )
        )
        conj = compose(compose(x11_inv, b), x11)
        report.checks.append(
            CheckResult(
                "conjugation_preserves_H",
                f"{tag}: X[1,1]^-1 h X[1,1] stays in H",
                in_H(coset_of(conj)) and equals(conj, b),
            )
        )

    swap = Element.from_pieces(
        [
            AffinePiece(
                Rect(("0",) + ("",) * (n - 1)), Rect(("1",) + ("",) * (n - 1))
            ),
            AffinePiece(
                Rect(("1",) + ("",) * (n - 1)), Rect(("0",) + ("",) * (n - 1))
            ),
        ]
    )
    run_case("witness(half-swap)", swap, swap)
    for s in range(samples):
        a = random_element(n, 4, seed * 1000 + 2 * s)
        b = random_element(n, 4, seed * 1000 + 2 * s + 1)
        run_case(f"sample{s}", a, b)
    return report


def eval_word_fold(word: str, n: int) -> Element:
    """``eval_word`` with nothing cached: each letter's generator comes from
    the uncached body of its ``make_*`` builder, a negative letter's through
    ``inverse``, and each unit of an exponent is one left composition."""
    makers = {"X": make_X, "C": make_C, "P": make_pi, "Pb": make_pibar}
    acc = identity(n)
    for sym in reversed(parse_word(word).symbols):
        make = makers[sym.kind].__wrapped__
        e = make(sym.i, n) if sym.d is None else make(sym.d, sym.i, n)
        e = inverse(e) if sym.exp < 0 else e
        for _ in range(abs(sym.exp)):
            acc = compose(e, acc)
    return acc


def expansion_rebuild(g: Element, piece_index: int, d: int) -> Element:
    """``expansion`` by rebuilding the whole table through ``from_pieces``."""
    if not 0 <= piece_index < len(g.pieces):
        raise ValueError(f"piece index {piece_index} out of range")
    target = g.pieces[piece_index]
    rest = [p for i, p in enumerate(g.pieces) if i != piece_index]
    halves = zip(halve(target.dom, d), halve(target.ran, d))
    rest.extend(AffinePiece(dom, ran) for dom, ran in halves)
    return Element.from_pieces(rest)
