"""Coset combinatorics on the left half-cube and the truncated end cocycle.

Let H be the subgroup of elements acting as the identity on the left half
``I_l = [0,1/2) x I^(n-1)``.  A left coset ``kH`` is determined by the
restriction of ``k`` to ``I_l``.  Inside the coset space sits the family

    X = { kH : k restricted to I_l is a single prefix substitution },

and ``kH |-> k(I_l)`` identifies X with the set of proper standard dyadic
rectangles (depth >= 1; the whole cube is impossible, since the right half
must land somewhere disjoint).  Translation by g sends ``kH`` to ``(gk)H``
and acts on the restriction alone: ``(gk)|I_l = g o (k|I_l)``.  Membership
questions about ``gX`` reduce to whether g acts as a single substitution on a
given rectangle:

    X - gX  <-> { R proper : g^{-1} is not one substitution on R },
    gX - X  <-> { R proper : g is not one substitution on R }.

Cylinder lemma: let L_d be the longest coordinate-d domain word of g's pieces
and tau(R) cut each word w_d of R to its first L_d letters.  Then g is one
substitution on R iff on tau(R); failing sets are finite unions of cylinders.
Proof sketch: once len(w_d) >= L_d, the same pieces meet R and its halves in
d, each piece word u_d is a prefix of w_d, and halving appends one letter to
every coordinate-d target v_d + w_d[len(u_d):]: agreement is unchanged.

So the search runs over cut tuples T (len(T_d) <= L_d), a finite box.
Failing tuples are closed under dropping a last letter (a substitution on a
rectangle restricts to one on each child), so a pruned breadth-first search
that extends only unsaturated coordinates (len(T_d) < L_d) finds every
failing T.  Each T carries the list of g's pieces that meet it, cut from
its parent's list in the extended coordinate; T is tested on that list
alone, and not at all when one piece meets it (T then lies inside that
piece's domain).  The failing rectangles of depth d
are the cylinder members: T with e = d - |T| letters appended to its s
saturated coordinates in every way, C(e+s-1, s-1) * 2^e of them (one, at
e = 0, when s = 0).  Counts therefore need no member at all.

The module computes these truncated symmetric differences with a
stabilised/growing verdict, checks the cocycle identity
``pi_gh(c) = pi_g(c) + pi_h(g^{-1} c)`` for ``pi_g = chi_gX - chi_X`` along
independently composed paths, probes the separating point-evaluation maps
attached to an element's domain pattern, and sweeps word balls over the
finite generating set to compare piece counts against a properness bound.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate, chain
from operator import eq, le, lt

from nvcalc.dyadic_core import (
    Point,
    Rect,
    corner_projections,
    count_rects,
    enumerate_rects,
    rect_Il,
    rect_intersect,
)
from nvcalc.element_algebra import (
    AffinePiece,
    Element,
    _affine_target,
    _agrees,
    _compose_pieces,
    compose,
    element_depth,
    identity,
    inverse,
    merge_pieces,
    restrict,
    simplify,
)
from nvcalc.reporting import CheckReport, CheckResult
from nvcalc.words_generators import _check_suite_dim, _generator_inverse, gen_set_S

__all__ = [
    "CosetRep",
    "FPProbeResult",
    "GridViolation",
    "TruncatedCocycle",
    "alpha_points",
    "cocycle_counts",
    "cocycle_identity_check",
    "complement_partition",
    "coset_eq",
    "coset_of",
    "coset_translate",
    "f_P_probe",
    "failing_cylinders",
    "in_X",
    "properness_bound_check",
    "sym_diff_truncated",
]


@dataclass(frozen=True)
class CosetRep:
    """A left coset kH, carried as the restriction of k to I_l.

    ``restriction`` is the merged piece table of k on I_l.  It determines the
    coset, and it is all a translation needs, since (gk)|I_l = g o (k|I_l).
    The coset functions below take a ``CosetRep``; ``coset_of`` makes one
    from an element.
    """

    n: int
    restriction: tuple[AffinePiece, ...]


def coset_of(k: Element) -> CosetRep:
    """The coset kH of an element."""
    return CosetRep(k.dim, merge_pieces(restrict(k, rect_Il(k.dim))))


def coset_eq(a: CosetRep, b: CosetRep) -> bool:
    """Whether two cosets agree, i.e. the representatives agree on I_l:
    identical restriction tables at once, else (tables differ when unmerged,
    or merged differently in n >= 2) the pieces of a∘b^{-1} on the tables'
    overlaps, from ``compose``'s word walk, are all trivial."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    same = a.restriction == b.restriction
    return same or _agrees(Element(a.n, a.restriction), b.restriction)


def coset_translate(g: Element, c: CosetRep) -> CosetRep:
    """The translated coset g . kH = (gk)H, from (gk)|I_l = g o (k|I_l)."""
    if g.dim != c.n:
        raise ValueError(f"dimension mismatch: {g.dim} vs {c.n}")
    return CosetRep(c.n, merge_pieces(_compose_pieces(g, c.restriction)))


def in_X(c: CosetRep) -> Rect | None:
    """The X-membership certificate of a coset kH, or None: the rectangle
    k(I_l) when k is a single prefix substitution on I_l.  Membership in a
    translate gX is ``in_X(coset_translate(inverse(g), c))``."""
    target = _affine_target(c.restriction, rect_Il(c.n).words)
    return None if target is None else Rect._trusted(target)


def complement_partition(r: Rect) -> tuple[Rect, ...]:
    """Partition of the cube minus ``r`` into ``r.depth`` rectangles.

    Peels one sibling per letter: for each coordinate d in order and each
    proper prefix p of the coordinate word, emit the rectangle that pins
    coordinates before d to their full words, coordinate d to p with the next
    letter flipped, and later coordinates to the whole interval.
    """
    out: list[Rect] = []
    for d, w in enumerate(r.words):
        for k in range(len(w)):
            flipped = w[:k] + ("1" if w[k] == "0" else "0")
            words = r.words[:d] + (flipped,) + ("",) * (r.dim - d - 1)
            out.append(Rect(words))
    return tuple(out)


def failing_cylinders(
    g: Element, depth: int
) -> tuple[tuple[int, ...], list[tuple[str, ...]]]:
    """L, g's longest domain word per coordinate, and the failing cut tuples
    T (len(T_d) <= L_d) with |T| <= ``depth``, in (|T|, words) order.

    The breadth-first search extends only unsaturated coordinates, so it
    meets each T once and ends inside the finite box (module docstring).
    T carries the pieces that meet it: the root all of g's, a child those of
    its parent's whose word in the extended coordinate is a prefix or an
    extension of the child's.  A T met by one piece passes untested.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n, cut = g.dim, g._cut
    found, level = [], {("",) * n: g.pieces}
    for _ in range(min(depth, sum(cut)) + 1):
        failing = [
            w for w in sorted(level)
            if len(level[w]) > 1 and _affine_target(level[w], w) is None
        ]
        if not failing:
            break
        found += failing
        meets, level = level, {}
        for w in failing:  # a piece meeting w meets w[k] + b unless its
            for k in range(n):  # word goes on past w[k] with the other letter
                m = len(w[k])
                for b in "01" if m < cut[k] else ():
                    t = w[:k] + (w[k] + b,) + w[k + 1 :]
                    level[t] = level.get(t) or [
                        p for p in meets[w] if p.dom_words[k][m : m + 1] in ("", b)
                    ]
    return cut, found


def _cylinder_levels(
    cut: tuple[int, ...], cylinders: list[tuple[str, ...]], depth: int
) -> list[list[Rect]]:
    """The rectangles of depth <= ``depth`` cut to one of ``cylinders``, one
    sorted list per depth: T with each saturated coordinate extended by the
    j-letter words ``tails[j]``, built once per call up to j = depth - |T|."""
    levels: list[list[tuple[str, ...]]] = [[] for _ in range(depth + 1)]
    tails = [[""]]
    for t in cylinders:
        size = sum(map(len, t))
        members = [(size, t)]
        for k, c in enumerate(cut):
            if len(t[k]) == c:
                while len(tails) <= depth - size:
                    tails.append([x + b for x in tails[-1] for b in "01"])
                members = [
                    (m + j, w[:k] + (w[k] + x,) + w[k + 1 :])
                    for m, w in members
                    for j in range(depth - m + 1)
                    for x in tails[j]
                ]
        for m, w in members:
            levels[m].append(w)
    return [list(map(Rect._trusted, sorted(level))) for level in levels]


def _check_depth(depth: int) -> None:
    """Reject a depth the count path does not take: a negative one, or
    ``MAX_MEMBERS`` or more (a truncation lists depth + 1 counts)."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth >= MAX_MEMBERS:
        raise ValueError(f"depth must be < {MAX_MEMBERS}, got {depth}")


_GROWING_FINDING = (
    "open finding: cumulative member counts are still increasing at "
    "truncation depth {depth}. If the translate of the coset family by this "
    "element differed from the family in only finitely many cosets (almost "
    "invariance), the counts would plateau below the truncation depth; no "
    "plateau is visible here. This is recorded as an observation about the "
    "truncation, not as a check failure, and says nothing about depths "
    "beyond the truncation."
)


@dataclass(frozen=True)
class TruncatedCocycle:
    """The symmetric difference X Δ gX enumerated up to a rectangle depth.

    The record stores its counts and members and derives every other field
    from the counts.  ``counts[d]`` is the number of members of depth <= d on
    both sides together, so ``depth`` is ``len(counts) - 1`` and ``total`` is
    ``counts[-1]``.  ``out_side`` lists X - gX (cosets named by their
    rectangles); ``in_side`` lists the rectangles R whose g-translates make
    up gX - X; both are empty when only the counts were computed, as for
    ``probe``, which slices the deepest counts, and ``properness``, where g
    and g^{-1} share one.  ``norm`` is the Euclidean norm of the truncated
    difference indicator, sqrt(total).  The verdict is ``STABLE(k)`` with k
    the least depth whose count equals the total, when k < depth, and
    ``GROWING`` when new members still appear at the last level searched.  A
    GROWING verdict is a statement about this truncation only, never a claim
    about the untruncated symmetric difference; ``open_finding`` spells that
    out, flagging the tension with the expectation that every translate of
    the coset family differs from it in only finitely many cosets.
    """

    counts: tuple[int, ...]
    out_side: tuple[Rect, ...] = ()
    in_side: tuple[Rect, ...] = ()

    @property
    def depth(self) -> int:
        return len(self.counts) - 1

    @property
    def total(self) -> int:
        return self.counts[-1]

    @property
    def norm(self) -> float:
        return math.sqrt(self.total)

    @property
    def stable_depth(self) -> int | None:
        d = self.counts.index(self.total)
        return d if d < self.depth else None

    @property
    def verdict(self) -> str:
        return "GROWING" if self.stable_depth is None else f"STABLE({self.stable_depth})"

    @property
    def open_finding(self) -> str | None:
        growing = self.stable_depth is None
        return _GROWING_FINDING.format(depth=self.depth) if growing else None

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "out_side": [list(r.words) for r in self.out_side],
            "in_side": [list(r.words) for r in self.in_side],
            "counts_by_depth": list(self.counts),
            "verdict": self.verdict,
            "stable_depth": self.stable_depth,
            "total": self.total,
            "norm": self.norm,
            "open_finding": self.open_finding,
        }


#: The most members one truncation may list: past it ``sym_diff_truncated``
#: raises ValueError before expanding any (``X[1,0]``, n = 2, depth 30: 6.4e9).
#: Counts stop below the same depth: a truncation lists depth + 1 of them.
MAX_MEMBERS = 2**18


def sym_diff_truncated(g: Element, depth: int) -> TruncatedCocycle:
    """Enumerate X Δ gX over rectangles of depth <= ``depth``.

    A member of X - gX is a proper rectangle on which g^{-1} is not one
    substitution; a member of gX - X is the g-translate of the coset of a
    proper rectangle on which g is not one substitution.  The whole cube
    (depth 0) is excluded: it never names a coset in X.  The counts come
    from the closed form; raises ValueError as soon as their running total
    passes ``MAX_MEMBERS``, before any member is listed.
    """
    too_many = f"the truncation at depth {depth} has more than {MAX_MEMBERS} members"
    counts, sides = _closed_counts(g, inverse(g), depth, MAX_MEMBERS, too_many)
    levels = (chain.from_iterable(_cylinder_levels(*side, depth)[1:]) for side in sides)
    return TruncatedCocycle(counts, *map(tuple, levels))


def cocycle_counts(g: Element, depth: int) -> TruncatedCocycle:
    """``sym_diff_truncated(g, depth)`` with both member lists left empty:
    the same counts, verdict and norm, in closed form from the cylinders.
    Raises ValueError when the total is too large for a float norm."""
    too_large = f"the total at depth {depth} is too large for a float norm"
    counts, _ = _closed_counts(g, inverse(g), depth, sys.float_info.max, too_large)
    return TruncatedCocycle(counts)


def _closed_counts(
    g: Element, g_inv: Element, depth: int, limit: float, error: str
) -> tuple:
    """The one count path: the cumulative counts of X Δ gX, summed in closed
    form from the searches of g^{-1} (X - gX) and of g (gX - X), returned
    with the two searches; no member is built.  A failing cut tuple T with
    s >= 1 saturated coordinates has C(e+s-1, s-1) * 2^e members of depth
    |T| + e, one with s = 0 only itself; depth 0, the cube, names no coset
    and is skipped.  Raises ValueError for a depth ``_check_depth`` rejects,
    before either search, and ValueError(``error``) the moment the running
    total passes ``limit``, which stops a huge sum early.  At one depth
    g^{-1} has g's counts, since its two searches are g's swapped:
    ``properness_bound_check`` counts each pair {g, g^{-1}} once."""
    _check_depth(depth)
    sides = [failing_cylinders(h, depth) for h in (g_inv, g)]
    sizes, total = [0] * (depth + 1), 0
    for cut, cylinders in sides:
        for t in cylinders:
            size, s = sum(map(len, t)), sum(map(eq, map(len, t), cut))
            for e in range(size == 0, depth - size + 1 if s else 1):  # no cube
                k = math.comb(e + s - 1, e) << e if s else 1
                sizes[size + e] += k
                total += k
                if total > limit:
                    raise ValueError(error)
    return tuple(accumulate(sizes[1:], initial=0)), sides


def cocycle_identity_check(
    g: Element, h: Element, depth: int = 2
) -> CheckReport:
    """Check ``pi_gh(c) = pi_g(c) + pi_h(g^{-1} c)`` on a family of cosets.

    ``pi_g(c) = [c in gX] - [c in X]``.  The right side telescopes to
    ``[h^{-1} g^{-1} c in X] - [c in X]``, so the identity says that
    (gh)^{-1}.c and h^{-1}.(g^{-1}.c) have the same X-membership.  Each check
    asserts the stronger statement that the two cosets are equal; the left
    translates by the single composed element (gh)^{-1}, the right stepwise
    by g^{-1} and then h^{-1}, so the two follow genuinely different paths
    through the group arithmetic.  Test cosets: every proper rectangle of
    depth <= ``depth`` plus its g- and gh-translates.  Translations are
    memoised per call, by (element, coset): both paths are still computed,
    and nothing outlives the call.
    """
    if g.dim != h.dim:
        raise ValueError(f"dimension mismatch: {g.dim} vs {h.dim}")
    n = g.dim
    gh = compose(g, h)
    gh_inv = inverse(gh)
    g_inv = inverse(g)
    h_inv = inverse(h)
    il = rect_Il(n)
    translate = cache(coset_translate)
    report = CheckReport("cocycle_identity", n, {"depth": depth})
    for r in enumerate_rects(n, depth):
        base = CosetRep(n, (AffinePiece(il, r),))  # the X-coset of r
        name = ",".join(w or "e" for w in r.words)
        for label, c in (
            (f"R[{name}]", base),
            (f"g.R[{name}]", translate(g, base)),
            (f"gh.R[{name}]", translate(gh, base)),
        ):
            stepwise = translate(h_inv, translate(g_inv, c))
            report.checks.append(
                CheckResult(
                    "cocycle_identity",
                    f"pi_gh = pi_g + g.pi_h at {label}",
                    coset_eq(translate(gh_inv, c), stepwise),
                )
            )
    return report


def alpha_points(n: int) -> tuple[Point, ...]:
    """The probe points: (1/4, 0, ..., 0) and, per later coordinate i, the
    point with 1/2 in slot i and 0 elsewhere.  All lie in I_l."""
    halves = (tuple(Fraction(int(d == i), 2) for d in range(n)) for i in range(1, n))
    return ((Fraction(1, 4),) + (Fraction(0),) * (n - 1), *halves)


@dataclass(frozen=True)
class GridViolation:
    """One probe value falling off the corner grid of the pattern."""

    rect: Rect
    alpha_index: int  # 1-based probe point index
    coord: int  # 1-based coordinate
    value: Fraction


@dataclass(frozen=True)
class FPProbeResult:
    """Separating-map probe attached to an element's domain pattern P.

    ``pattern`` holds the cells of P: the domains of g's reduced piece table,
    in table order, which is sorted by domain words.
    ``members`` are the proper rectangles of depth <= depth that are not
    contained in any single cell of P (the membership test used throughout);
    ``members_corner_meets`` is the companion predicate — rectangles whose
    closure (or half-open extent, per ``corner_mode``) meets a corner of P —
    kept side by side for comparison.  Derived from these: for each member
    R, ``values[R]`` lists the images of the probe points under the canonical
    representative of the coset named by R; ``grid_violations`` records every
    value coordinate that misses the corresponding corner-projection grid of
    P; ``injective`` says whether the full value tuple separates the members.
    """

    n: int
    depth: int
    corner_mode: str
    pattern: tuple[Rect, ...]
    members: tuple[Rect, ...]
    members_corner_meets: tuple[Rect, ...]

    @cached_property
    def values(self) -> dict[Rect, tuple[Point, ...]]:
        # any k in r's X-coset sends I_l (corner 0) and its alphas x to lo + x * s
        il, alphas, out = rect_Il(self.n).intervals(), alpha_points(self.n), {}
        for r in self.members:
            maps = [(lo, (hi - lo) / (b - a)) for (lo, hi), (a, b) in zip(r.intervals(), il)]
            out[r] = tuple(tuple(lo + x * s for (lo, s), x in zip(maps, p)) for p in alphas)
        return out

    @property
    def grid_violations(self) -> tuple[GridViolation, ...]:
        grids = corner_projections(self.pattern)
        return tuple(
            GridViolation(r, ai, d + 1, x)
            for r, imgs in self.values.items()
            for ai, img in enumerate(imgs, start=1)
            for d, x in enumerate(img)
            if x not in grids[d]
        )

    @property
    def injective(self) -> bool:
        return len(set(self.values.values())) == len(self.members)

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "corner_mode": self.corner_mode,
            "pattern": [list(r.words) for r in self.pattern],
            "members": [list(r.words) for r in self.members],
            "members_corner_meets": [list(r.words) for r in self.members_corner_meets],
            "values": [
                {"rect": list(r.words), "points": [[str(x) for x in p] for p in imgs]}
                for r, imgs in self.values.items()
            ],
            "grid_violations": [
                {
                    "rect": list(v.rect.words),
                    "alpha_index": v.alpha_index,
                    "coord": v.coord,
                    "value": str(v.value),
                }
                for v in self.grid_violations
            ],
            "injective": self.injective,
        }


def f_P_probe(
    g: Element, depth: int, corner_mode: str = "closed"
) -> FPProbeResult:
    """Probe the point-evaluation maps attached to g's domain pattern.

    ``corner_mode`` is "closed" (corners may lie on the boundary of a member
    rectangle) or "half_open" (members must contain the corner in the
    half-open sense); it only affects the companion corner-meets member list.
    A cell has a corner in r iff in every coordinate one of its endpoints
    lies in r's interval.  Raises ValueError, before any rectangle is listed,
    when depth 1..``depth`` holds more than ``MAX_MEMBERS`` rectangles, or
    more than 2^20 probe values (n points of n coordinates per rectangle).
    """
    if corner_mode not in ("closed", "half_open"):
        raise ValueError(f"unknown corner mode {corner_mode!r}")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n = g.dim
    # count_rects(n, D) >= 2^D grows with D, so counting up to the budget's
    # bit length decides the comparison without a long sum for a huge depth.
    rects = count_rects(n, min(depth, MAX_MEMBERS.bit_length()))
    if rects > MAX_MEMBERS:
        raise ValueError(f"depth {depth} lists more than {MAX_MEMBERS} rectangles")
    if rects * n * n > 2**20:
        raise ValueError(f"depth {depth} in dimension {n}: over {2**20} probe values")
    below = le if corner_mode == "closed" else lt  # a corner against r's top
    pattern = tuple(p.dom for p in simplify(g).pieces)
    cells = [cell.intervals() for cell in pattern]
    members: list[Rect] = []
    corner_members: list[Rect] = []
    for r in enumerate_rects(n, depth):
        if not any(rect_intersect(r, cell) == r for cell in pattern):
            members.append(r)
        box = r.intervals()
        if any(
            all(lo <= a and below(a, hi) or lo <= b and below(b, hi)
                for (lo, hi), (a, b) in zip(box, cell))
            for cell in cells
        ):
            corner_members.append(r)
    return FPProbeResult(
        n, depth, corner_mode, pattern, tuple(members), tuple(corner_members)
    )


def _ball_elements(
    n: int, radius: int
) -> list[tuple[str, Element]]:
    """Distinct elements of the word ball of the given radius over S and
    inverses as reduced tables, labelled by a shortest word reaching each;
    includes the identity (empty word).  Reduced tables tell elements apart
    only for n = 1: for n >= 2 one map can have two (see ``simplify``)."""
    letters: list[tuple[str, Element]] = []
    for label, e in gen_set_S(n):
        letters.append((label, e))
        letters.append((f"({label})^-1", _generator_inverse(e)))

    ident = identity(n)  # one piece: already reduced
    seen: dict[Element, str] = {ident: ""}
    frontier: list[tuple[str, Element]] = [("", ident)]
    for _ in range(radius):
        nxt: list[tuple[str, Element]] = []
        for label, e in frontier:
            for l_label, l_elem in letters:
                g = simplify(compose(e, l_elem))
                if g not in seen:
                    seen[g] = f"{label} {l_label}".strip()
                    nxt.append((seen[g], g))
        frontier = nxt
    return [(label, g) for g, label in seen.items()]


def properness_bound_check(
    n: int, ball_radius: int, depth: int | None = None
) -> CheckReport:
    """Piece-count bound over a word ball of the finite generating set.

    For every distinct element g in the ball of the given radius over S and
    inverses, count X Δ gX from its cylinders (no member is built).  With
    ``depth=None`` each element is truncated at its own reduced table depth
    plus one, which decides finiteness exactly in dimension 1: a failing
    saturated cut tuple (module docstring) keeps the counts growing at every
    depth, and without one every failing word is shorter than L <= table
    depth, so the truncation is STABLE with the exact total.  An integer
    fixes one truncation depth for all.  When the truncation stabilises with
    total m (the squared norm of the cocycle value), assert that the reduced piece
    table of g has at most (m + 4)^n cells — a small symmetric difference
    forces a coarse element, the quantitative heart of properness of the
    coset action.  Elements whose truncation is still growing are reported
    as findings, never asserted either way.  ``params["bound_slack"]`` is
    the sorted histogram ``[[bound - pieces, count], ...]`` over the stable
    elements.  Records are memoised per element, and g^{-1} is handed g's
    (``_closed_counts``).  Raises ValueError once a total passes
    10^(4300 // n) - 5: past it, (total + 4)^n would not print within
    Python's default 4,300-digit int-to-str limit.
    """
    _check_suite_dim(n)  # S has about 3n letters of n words: its cost is n^2
    if ball_radius < 0:
        raise ValueError("ball radius must be >= 0")
    if depth is not None:
        _check_depth(depth)  # before the ball, which costs far more
    size, sphere = 1, 6 * n + 4  # the free group's ball: L = 6n + 4 letters in
    for _ in range(ball_radius):  # S ∪ S^-1 give L (L - 1)^(r - 1) words of length r
        size, sphere = size + sphere, sphere * (6 * n + 3)
        if size > MAX_MEMBERS:
            raise ValueError(f"ball radius {ball_radius}: over {MAX_MEMBERS} words")
    report = CheckReport(
        "properness_bound",
        n,
        {
            "ball_radius": ball_radius,
            "depth": "adaptive" if depth is None else depth,
        },
    )
    elements = _ball_elements(n, ball_radius)
    slack: Counter[int] = Counter()
    known: dict[Element, TruncatedCocycle] = {}  # the ball holds g^{-1}: count it once
    limit = 10 ** (4300 // n) - 5  # the total: (total + 4)^n fits 4,300 digits
    for label, g in elements:  # g is reduced: its depth and size are final
        pieces = len(g.pieces)
        d = depth if depth is not None else element_depth(g) + 1  # also g^{-1}'s
        if (t := known.get(g)) is None:  # g^{-1}'s counts at d are g's: sides swap
            too_large = f"the total at depth {d} is too large to report"
            g_inv = inverse(g)
            counts = _closed_counts(g, g_inv, d, limit, too_large)[0]
            t = known[g] = known[g_inv] = TruncatedCocycle(counts)
        bound = (t.total + 4) ** n
        word = label or "<empty>"
        if t.stable_depth is not None:
            slack[bound - pieces] += 1
            report.checks.append(
                CheckResult(
                    "piece_bound",
                    f"{word}: pieces {pieces} <= ({t.total}+4)^{n} = {bound}",
                    pieces <= bound,
                )
            )
        else:
            report.checks.append(
                CheckResult(
                    "piece_bound",
                    f"{word}: truncation still growing at depth {d} "
                    f"(total so far {t.total}, pieces {pieces})",
                    True,
                    asserted=False,
                    note="no bound claimed for a growing truncation",
                )
            )
    report.params["num_elements"] = len(elements)
    report.params["num_stable"] = stable = sum(slack.values())
    report.params["num_growing"] = len(elements) - stable
    report.params["bound_slack"] = [[s, slack[s]] for s in sorted(slack)]
    return report
