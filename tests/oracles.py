"""Rectangle-form answers to the two geometric questions, kept as oracles.

The program answers "do two rectangles meet" with ``rect_intersect`` and
"is g one substitution on R" with ``is_affine_on``, both on word tuples.  The
functions here answer the same questions the older way, one rectangle at a
time: the five-way ``rect_relation``, the piece methods ``image_of`` and
``restrict_to`` (as functions of the piece), and ``affine_extension``, which
recovers the one substitution from a restricted piece table.  Tests import
them to check the word kernel against them.  ``cocycle_identity_reference``
is the cocycle identity check with every translation made afresh and every
coset pair compared by the word walk, the reference for the memoised one.
"""

from __future__ import annotations

import enum
from typing import Sequence

from nvcalc.dyadic_core import Rect, enumerate_rects, rect_Il
from nvcalc.element_algebra import AffinePiece, Element, _agrees, compose, inverse
from nvcalc.ends_cocycle import CosetRep, coset_translate
from nvcalc.reporting import CheckReport, CheckResult


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
