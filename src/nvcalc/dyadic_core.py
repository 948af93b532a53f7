"""Exact standard dyadic rectangles: intersection, corners, and enumeration.

A *binary word* ``w = b1 b2 ... bk`` (a ``str`` over ``'0'``/``'1'``) encodes
the half-open interval ``[0.b1b2...bk, 0.b1b2...bk + 2^-k)`` inside ``[0, 1)``;
the empty word encodes ``[0, 1)`` itself.  An n-dimensional *rectangle* is an
n-tuple of binary words and encodes the product of its coordinate intervals.
A *pattern* is a finite set of rectangles that partition the unit cube; it
has no type of its own, since the domains of an element's piece table, in
table order, are one pattern and its ranges are another.

All arithmetic is exact: endpoints and corner coordinates are
``fractions.Fraction`` values with power-of-two denominators.  Rectangles are
always half-open, so the coordinate value 1 can occur only in corner points,
never in membership tests.  Every value here is immutable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator, Sequence

__all__ = [
    "Point",
    "Rect",
    "corner_projections",
    "count_rects",
    "enumerate_rects",
    "halve",
    "rect_Il",
    "rect_Ir",
    "rect_intersect",
    "word_interval",
]

#: An exact point of the closed unit cube: a tuple of dyadic rationals.
Point = tuple[Fraction, ...]

#: The largest dimension accepted.  At it ``eval`` of one generator takes
#: about 0.4 s on a 2-vCPU machine; past it n-tuples cost seconds and gigabytes.
MAX_DIM = 2**16


def word_interval(w: str) -> tuple[Fraction, Fraction]:
    """Half-open interval ``[lo, hi)`` encoded by ``w``; the empty word gives [0, 1)."""
    lo = Fraction(int(w or "0", 2), 2 ** len(w))
    return lo, lo + Fraction(1, 2 ** len(w))


@dataclass(frozen=True, order=True, slots=True)
class Rect:
    """A standard dyadic rectangle: one binary word per coordinate.

    Total depth is the sum of the word lengths; the volume is ``2**-depth``.
    The all-empty tuple encodes the whole unit cube.
    """

    words: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.words:
            raise ValueError("a rectangle needs at least one coordinate")
        for w in self.words:
            if not isinstance(w, str) or any(c not in "01" for c in w):
                raise ValueError(f"binary word must be a str over '0'/'1', got {w!r}")

    @classmethod
    def _trusted(cls, words: tuple[str, ...]) -> "Rect":
        """Internal: a rectangle cut from valid ones, built without the check."""
        r = object.__new__(cls)
        _set_words(r, words)
        return r

    @property
    def dim(self) -> int:
        return len(self.words)

    @property
    def depth(self) -> int:
        return sum(len(w) for w in self.words)

    @property
    def volume(self) -> Fraction:
        return Fraction(1, 2**self.depth)

    def intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(word_interval(w) for w in self.words)

    @staticmethod
    def cube(n: int) -> "Rect":
        """The whole unit cube in dimension ``n``, checked against ``MAX_DIM``
        before any n-tuple is built."""
        if n < 1:
            raise ValueError("dimension must be >= 1")
        if n > MAX_DIM:
            raise ValueError(f"dimension must be <= {MAX_DIM}, got {n}")
        return Rect(("",) * n)


#: The slot's own setter: it bypasses the frozen ``__setattr__``.
_set_words = Rect.words.__set__


def rect_Il(n: int) -> Rect:
    """The left half-cube ``[0, 1/2) x I^(n-1)``."""
    return Rect(("0",) + ("",) * (n - 1))


def rect_Ir(n: int) -> Rect:
    """The right half-cube ``[1/2, 1) x I^(n-1)``."""
    return Rect(("1",) + ("",) * (n - 1))


def halve(r: Rect, d: int) -> tuple[Rect, Rect]:
    """Split ``r`` along 1-based coordinate ``d`` into its two halves."""
    if not 1 <= d <= r.dim:
        raise ValueError(f"coordinate {d} out of range for dimension {r.dim}")
    w = r.words
    lo = Rect._trusted(w[: d - 1] + (w[d - 1] + "0",) + w[d:])
    hi = Rect._trusted(w[: d - 1] + (w[d - 1] + "1",) + w[d:])
    return lo, hi


def rect_intersect(a: Rect, b: Rect) -> Rect | None:
    """Intersection of two rectangles (a rectangle again, or None if empty)."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    out = []
    for x, y in zip(a.words, b.words):
        if y.startswith(x):
            out.append(y)
        elif x.startswith(y):
            out.append(x)
        else:
            return None
    return Rect._trusted(tuple(out))


def corner_projections(cells: Sequence[Rect]) -> tuple[frozenset[Fraction], ...]:
    """Per-coordinate projections of the corner set of the cells."""
    proj: list[set[Fraction]] = [set() for _ in range(cells[0].dim)]
    for r in cells:
        for d, (lo, hi) in enumerate(r.intervals()):
            proj[d].update((lo, hi))
    return tuple(frozenset(s) for s in proj)


def count_rects(n: int, D: int) -> int:
    """Number of rectangles of total depth in [1, D] in dimension n."""
    return sum(comb(k + n - 1, n - 1) * 2**k for k in range(1, D + 1))


def enumerate_rects(n: int, D: int) -> Iterator[Rect]:
    """Every rectangle of total depth 1..D exactly once, deterministic order.

    Order: by total depth, then by per-coordinate length vector, then by the
    word tuple, all ascending.  The whole cube (depth 0) is excluded.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if D < 0:
        raise ValueError("depth bound must be >= 0")
    for k in range(1, D + 1):
        # stars and bars: n - 1 bars among k + n - 1 slots make one length
        # vector summing to k, and the bars come in ascending lexicographic order
        for bars in itertools.combinations(range(k + n - 1), n - 1):
            ends = (-1, *bars, k + n - 1)
            lengths = [b - a - 1 for a, b in zip(ends, ends[1:])]
            coords: list[Sequence[str]] = [
                ["".join(bits) for bits in itertools.product("01", repeat=m)]
                for m in lengths
            ]
            for words in itertools.product(*coords):
                yield Rect._trusted(words)  # words over "01": nothing to check
