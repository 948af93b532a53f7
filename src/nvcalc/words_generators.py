"""Generator families, the word language, and the machine-checked suites.

Four families of named generators act on the n-cube (piece tables below write
the coordinate-1 word first; unmentioned coordinates carry the empty word):

- ``X[d,i]`` — splits one cell and shifts: for d = 1 the base table is
  (00)->(0), (01)->(10), (1)->(11); for d >= 2 it is (00;e)->(0;e),
  (01;e)->(1;0), (1;e)->(1;1) in coordinates (1, d).
- ``P[i]`` — a 3-cell block rotation in coordinate 1: (00)->(00), (01)->(1),
  (1)->(01).
- ``Pb[i]`` — the half swap in coordinate 1: (0)->(1), (1)->(0).
- ``C[d,i]`` (d >= 2) — a coordinate transfer: (0;e)->(e;0), (1;e)->(e;1).

For i >= 1 each generator acts inside ``[0, 2^-i) x I^(n-1)`` as the affine
copy of its base case and fixes everything else: prefix ``0^i`` to every
coordinate-1 word of the base table and add the fixed cells (1), (01), ...,
(0^(i-1) 1).

The module also provides the word grammar ``X[d,i]^e ...`` with a parser and
formatter, evaluation of words to elements (right factor acts first), the
ten-family relation suite, the conjugation/recovery identities behind the
finite generating set, and the identity-on-rectangle / commutator premises
used by the fixed-point argument for that set.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import Callable, Sequence

from nvcalc.dyadic_core import Rect, rect_Ir
from nvcalc.element_algebra import (
    AffinePiece,
    Element,
    _compose_pieces,
    _dom_words,
    compose,
    equals,
    MAX_PIECES,
    identity,
    inverse,
    is_identity_on,
)
from nvcalc.reporting import CheckReport, CheckResult

__all__ = [
    "GenSymbol",
    "Word",
    "corollary_checks",
    "eval_word",
    "format_word",
    "gen_set_S",
    "gen_set_S1",
    "gen_set_S1prime",
    "gen_set_S2",
    "left_quarter",
    "make_C",
    "make_X",
    "make_pi",
    "make_pibar",
    "parse_word",
    "premise_checks",
    "relation_suite",
]


@dataclass(frozen=True)
class GenSymbol:
    """One generator occurrence: kind, indices, and a nonzero exponent."""

    kind: str  # "X", "C", "P", "Pb"
    d: int | None
    i: int
    exp: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("X", "C", "P", "Pb"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind in ("X", "C"):
            if self.d is None:
                raise ValueError(f"{self.kind} symbols need a coordinate index")
        elif self.d is not None:
            raise ValueError(f"{self.kind} symbols take no coordinate index")
        if self.i < 0:
            raise ValueError("generator index must be >= 0")
        if self.exp == 0:
            raise ValueError("exponent must be nonzero")

    def format(self) -> str:
        head = (
            f"{self.kind}[{self.d},{self.i}]"
            if self.d is not None
            else f"{self.kind}[{self.i}]"
        )
        return head if self.exp == 1 else f"{head}^{self.exp}"


@dataclass(frozen=True)
class Word:
    """A formal product of generator symbols; the empty word is the identity."""

    symbols: tuple[GenSymbol, ...] = ()


_TERM_RE = re.compile(
    r"^(?:(X|C)\[(\d+),(\d+)\]|(Pb|P)\[(\d+)\])(?:\^(-?\d+))?$"
)


@lru_cache(maxsize=1024)  # bounded, as ``re``'s pattern cache: terms are user text
def _parse_term(tok: str) -> GenSymbol | str:
    """One term's symbol, or the message ``"bad term"`` / ``"zero exponent
    in"`` for ``parse_word`` to raise with the term's own position."""
    tm = _TERM_RE.match(tok)
    if tm is None:
        return "bad term"
    xc_kind, xc_d, xc_i, p_kind, p_i, exp_s = tm.groups()
    exp = int(exp_s) if exp_s is not None else 1
    if exp == 0:
        return "zero exponent in"
    if xc_kind is not None:
        return GenSymbol(xc_kind, int(xc_d), int(xc_i), exp)
    return GenSymbol(p_kind, None, int(p_i), exp)


def parse_word(text: str) -> Word:
    """Parse ``"X[1,0]^-1 P[3]"``-style words (terms separated by whitespace).

    Each distinct term text is matched and converted once, by a memo of at
    most 1,024 terms.  Raises ValueError with the character position of the
    offending term.  Out-of-range indices for a given dimension are
    deliberately not checked here; they surface when the word is evaluated.
    """
    symbols = []
    for m in re.finditer(r"\S+", text):
        sym = _parse_term(m[0])
        if isinstance(sym, str):
            raise ValueError(f"syntax error at position {m.start()}: {sym} {m[0]!r}")
        symbols.append(sym)
    return Word(tuple(symbols))


def format_word(word: Word) -> str:
    """Canonical text of a word; inverse of :func:`parse_word`."""
    return " ".join(sym.format() for sym in word.symbols)


def _check_index(i: int, note: str = "") -> None:
    """An index must lie in 0..256: building index i costs about i^2 (i + 2 or
    more pieces, words of up to i + 2 letters), at most ``MAX_PIECES``.
    ``note`` ends the message for an index past that bound."""
    if i < 0:
        raise ValueError("index must be >= 0")
    if i * i > MAX_PIECES:
        raise ValueError(f"index must be <= {isqrt(MAX_PIECES)}, got {i}{note}")


def _generator(n: int, base: list[tuple[dict, dict]], i: int) -> Element:
    """A generator from its sparse {coordinate: word} base table, raised to
    index ``i``: conjugated into [0, 2^-i) x I^(n-1) by prefixing ``0^i`` to
    every coordinate-1 word on both sides, with the fixed cells (1), (01),
    ..., (0^(i-1) 1) added, so it fixes everything outside that slab."""
    _check_index(i)
    Rect.cube(n)  # checks n before the tables' n-tuples are built

    def rect(words: dict[int, str]) -> Rect:  # prefixed in coordinate 1 only
        words = {**words, 1: "0" * i + words.get(1, "")}
        return Rect(tuple(words.get(d, "") for d in range(1, n + 1)))

    pieces = [AffinePiece(rect(dom), rect(ran)) for dom, ran in base]
    fixed = (Rect(("0" * j + "1",) + ("",) * (n - 1)) for j in range(i))
    return Element.from_pieces(pieces + [AffinePiece(c, c) for c in fixed])


@lru_cache(maxsize=None)
def make_X(d: int, i: int, n: int) -> Element:
    """The splitting generator ``X[d,i]`` acting on the n-cube."""
    if not 1 <= d <= n:
        raise ValueError(f"X coordinate {d} out of range for dimension {n}")
    if d == 1:
        base = [
            ({1: "00"}, {1: "0"}),
            ({1: "01"}, {1: "10"}),
            ({1: "1"}, {1: "11"}),
        ]
    else:
        base = [
            ({1: "00", d: ""}, {1: "0", d: ""}),
            ({1: "01", d: ""}, {1: "1", d: "0"}),
            ({1: "1", d: ""}, {1: "1", d: "1"}),
        ]
    return _generator(n, base, i)


@lru_cache(maxsize=None)
def make_C(d: int, i: int, n: int) -> Element:
    """The coordinate-transfer generator ``C[d,i]`` (needs 2 <= d <= n)."""
    if n < 2 or not 2 <= d <= n:
        raise ValueError(f"C coordinate {d} out of range for dimension {n}")
    base = [
        ({1: "0", d: ""}, {1: "", d: "0"}),
        ({1: "1", d: ""}, {1: "", d: "1"}),
    ]
    return _generator(n, base, i)


@lru_cache(maxsize=None)
def make_pi(i: int, n: int) -> Element:
    """The block-rotation generator ``P[i]``."""
    base = [
        ({1: "00"}, {1: "00"}),
        ({1: "01"}, {1: "1"}),
        ({1: "1"}, {1: "01"}),
    ]
    return _generator(n, base, i)


@lru_cache(maxsize=None)
def make_pibar(i: int, n: int) -> Element:
    """The half-swap generator ``Pb[i]``."""
    base = [
        ({1: "0"}, {1: "1"}),
        ({1: "1"}, {1: "0"}),
    ]
    return _generator(n, base, i)


@lru_cache(maxsize=None)
def _generator_inverse(e: Element) -> Element:
    """The inverse of a generator or of a letter of S, built once (with its
    halving tree) per element."""
    return inverse(e)


def _symbol_element(sym: GenSymbol, n: int) -> Element:
    """A symbol's generator, or its cached inverse.  The ``make_*`` builders
    are looked up when it runs, so a patch or a tracer of them is reached."""
    make = {"X": make_X, "C": make_C, "P": make_pi, "Pb": make_pibar}[sym.kind]
    e = make(sym.i, n) if sym.d is None else make(sym.d, sym.i, n)
    return _generator_inverse(e) if sym.exp < 0 else e


#: The most letters an ``eval_word`` step may hold (pieces x n x longest word):
#: ``X[1,0]^k`` has k + 2 pieces but words of up to k + 1 letters.
MAX_LETTERS = 2**26


def _check_letters(pieces: Sequence[AffinePiece], n: int) -> int:
    """The longest word; ValueError if pieces x n x it pass ``MAX_LETTERS``."""
    longest = max(max(map(len, p.dom_words + p.ran_words)) for p in pieces)
    if len(pieces) * n * longest > MAX_LETTERS:
        raise ValueError(f"a power or product would hold over {MAX_LETTERS} letters")
    return longest


def eval_word(word: Word | str, n: int) -> Element:
    """Evaluate a word to an element; the right factor acts first.

    ``n`` is checked once, at the boundary, by ``Rect.cube(n)``.  The fold runs
    on bare piece lists from the first factor's pieces (the empty word gives
    ``identity(n)``), sorting once.  Generators, their inverses and the S2
    quotients are built once per dimension, and terms once per distinct text
    (``parse_word``, at most 1,024 kept); squares ``e^(2^j)`` and results by
    word are not cached.  A step's longest word is bounded (i + 2 at index i,
    summed by a fold, doubled by a square) and read exactly once pieces x n x
    bound pass ``MAX_LETTERS``: ValueError if that passes it too."""
    if isinstance(word, str):
        word = parse_word(word)
    Rect.cube(n)
    acc, acc_max = None, 0
    for sym in reversed(word.symbols):
        # e**k by squaring, folded in from the left (composing is associative
        # table for table): the left factor is e or a square, never the list.
        e, k, e_max = _symbol_element(sym, n), abs(sym.exp), sym.i + 2
        while k:
            if k & 1:
                acc = e.pieces if acc is None else _compose_pieces(e, acc)
                acc_max += e_max
                if len(acc) * n * acc_max > MAX_LETTERS:
                    acc_max = _check_letters(acc, n)
            k >>= 1
            if k:
                e, e_max = compose(e, e), 2 * e_max
                if len(e.pieces) * n * e_max > MAX_LETTERS:
                    e_max = _check_letters(e.pieces, n)
    if acc is None:
        return identity(n)
    return Element(n, tuple(sorted(acc, key=_dom_words)))


#: The largest dimension the suites take: their checks cost about n^3 (at n = 32,
#: ``relation_suite`` takes 1.6 s and ``corollary_checks`` 0.6 s on a 2-vCPU machine).
MAX_SUITE_DIM = 32


def _check_suite_dim(n: int) -> None:
    """Before a suite's first identity: 1 <= n <= ``MAX_SUITE_DIM``."""
    Rect.cube(n)  # n >= 1 and n <= MAX_DIM, with every command's messages
    if n > MAX_SUITE_DIM:
        raise ValueError(f"dimension must be <= {MAX_SUITE_DIM} for a suite, got {n}")


def _words_equal(lhs: str, rhs: str, n: int) -> bool:
    return equals(eval_word(lhs, n), eval_word(rhs, n))


def _identity_adder(report: CheckReport, n: int) -> Callable[[str, str, str], None]:
    """``add(section, lhs, rhs)``: append the check that two words are equal."""
    return lambda section, lhs, rhs: report.checks.append(
        CheckResult(section, f"{lhs} = {rhs}", _words_equal(lhs, rhs, n))
    )


def relation_suite(n: int, i_max: int = 3) -> CheckReport:
    """Instantiate and check the ten defining relation families.

    Every admissible combination of coordinates and indices up to ``i_max``
    is checked by exact element equality; families involving ``C`` are
    skipped when n = 1.  The side conditions are part of each family's
    definition and are instantiated exactly as stated.
    """
    _check_suite_dim(n)
    if i_max < 3:
        raise ValueError("i_max must be >= 3 to reach every family")
    extra = 1 if n == 1 else 2  # X[d,i+1]; C[d,i+2] if n >= 2
    note = f" (i_max must be <= {isqrt(MAX_PIECES) - extra} in dimension {n})"
    _check_index(i_max + extra, note)
    report = CheckReport("relation_suite", n, {"i_max": i_max})
    ds = range(1, n + 1)
    dps = range(2, n + 1)
    idx = range(0, i_max + 1)

    add = _identity_adder(report, n)
    for i in idx:
        for j in idx:
            if not i < j:
                continue
            for d in ds:
                for d2 in ds:
                    add("XX_shift", f"X[{d2},{j}] X[{d},{i}]", f"X[{d},{i}] X[{d2},{j+1}]")
                for d2 in dps:
                    add("CX_shift", f"C[{d2},{j}] X[{d},{i}]", f"X[{d},{i}] C[{d2},{j+1}]")
                for y in ("P", "Pb"):
                    add("YX_shift", f"{y}[{j}] X[{d},{i}]", f"X[{d},{i}] {y}[{j+1}]")
    for j in idx:
        for i in idx:
            if not i > j + 1:
                continue
            for d in ds:
                add("PX_commute", f"P[{j}] X[{d},{i}]", f"X[{d},{i}] P[{j}]")
            for d2 in dps:
                add("PC_commute", f"P[{j}] C[{d2},{i}]", f"C[{d2},{i}] P[{j}]")
    for j in idx:
        for i in idx:
            if abs(i - j) > 2:
                add("PP_commute", f"P[{j}] P[{i}]", f"P[{i}] P[{j}]")
    for j in idx:
        for i in idx:
            if j > i + 1:
                add("PbP_commute", f"Pb[{j}] P[{i}]", f"P[{i}] Pb[{j}]")
    for i in idx:
        add("PbX_braid", f"Pb[{i}] X[1,{i}]", f"P[{i}] Pb[{i+1}]")
        for d2 in dps:
            add("CX_braid", f"C[{d2},{i}] X[1,{i}]", f"X[{d2},{i}] C[{d2},{i+2}] P[{i+1}]")
        for d in ds:
            add("PX_braid", f"P[{i}] X[{d},{i}]", f"X[{d},{i+1}] P[{i}] P[{i+1}]")
    return report


def _x0_conjugate(d: int, k: int, middle: str) -> str:
    """The word ``X[d,0]^-k middle X[d,0]^k``, with no exponent 1 written."""
    exp, exp2 = ("" if e == 1 else f"^{e}" for e in (-k, k))
    return f"X[{d},0]{exp} {middle} X[{d},0]{exp2}"


def corollary_checks(n: int, i_max: int = 4) -> CheckReport:
    """Conjugation identities raising indices, and the two recoveries.

    Checks that every higher-index generator is the stated conjugate of a
    low-index one, and that ``Pb[0]`` and ``C[d',0]`` are recovered as words
    over the finite generating set S (via the rearranged braid relations).
    """
    _check_suite_dim(n)
    if i_max < 2:
        raise ValueError("i_max must be >= 2 to reach every family")
    note = f" (i_max must be <= {isqrt(MAX_PIECES)} in dimension {n})"
    _check_index(i_max, note)  # X[d,i_max]
    report = CheckReport("corollary_checks", n, {"i_max": i_max})

    add = _identity_adder(report, n)
    for d in range(1, n + 1):
        for i in range(2, i_max + 1):
            k = i - 1
            add(
                "X_conjugation",
                f"X[{d},{i}]",
                f"X[{d},0]^-{k} X[{d},1] X[{d},0]^{k}",
            )
    for y in ("P", "Pb"):
        for d in range(1, n + 1):
            for i in (1, 2, 4, 5):
                if i > i_max + 1:
                    continue
                add(f"{y}_conjugation", f"{y}[{i}]", _x0_conjugate(d, i - 3, f"{y}[3]"))
    for dp in range(2, n + 1):
        for d in range(1, n + 1):
            for i in (1, 3, 4):
                if i > i_max:
                    continue
                add("C_conjugation", f"C[{dp},{i}]", _x0_conjugate(d, i - 2, f"C[{dp},2]"))
    add("Pb0_recovery", "Pb[0]", "P[0] Pb[1] X[1,0]^-1")
    add("Pb0_recovery", "Pb[0]", "P[0] X[1,0]^2 Pb[3] X[1,0]^-3")
    for dp in range(2, n + 1):
        add("C0_recovery", f"C[{dp},0]", f"X[{dp},0] C[{dp},2] P[1] X[1,0]^-1")
        add(
            "C0_recovery",
            f"C[{dp},0]",
            f"X[{dp},0] C[{dp},2] X[1,0]^2 P[3] X[1,0]^-3",
        )
    return report


def left_quarter(n: int) -> Rect:
    """The rectangle ``[0, 1/4) x I^(n-1)``."""
    return Rect(("00",) + ("",) * (n - 1))


def gen_set_S1(n: int) -> list[tuple[str, Element]]:
    """Finite set S1: generators acting as the identity on the right half."""
    xs = [(f"X[{d},1]", make_X(d, 1, n)) for d in range(1, n + 1)]
    return xs + gen_set_S1prime(n)


def gen_set_S1prime(n: int) -> list[tuple[str, Element]]:
    """S1 without the X generators."""
    out = [(f"C[{d},2]", make_C(d, 2, n)) for d in range(2, n + 1)]
    out += [("P[3]", make_pi(3, n)), ("Pb[3]", make_pibar(3, n))]
    return out


@lru_cache(maxsize=None)
def _x_quotient(d: int, n: int) -> tuple[str, Element]:
    """The S2 letter ``X[d,1] X[d,0]^-1`` with its element, built once."""
    word = f"X[{d},1] X[{d},0]^-1"
    return word, eval_word(word, n)


def gen_set_S2(n: int) -> list[tuple[str, Element]]:
    """Finite set S2: generators acting as the identity on the left quarter."""
    return [_x_quotient(d, n) for d in range(1, n + 1)] + [("P[0]", make_pi(0, n))]


def gen_set_S(n: int) -> list[tuple[str, Element]]:
    """The finite generating set S = S1 ∪ S2 (P[0] and the X-quotients included);
    the two lists share no label."""
    return gen_set_S1(n) + gen_set_S2(n)


def premise_checks(n: int) -> CheckReport:
    """Identity-on-rectangle and commutator premises for the set S.

    Asserted checks: (a) S1 elements are the identity on the right half;
    (b) S2 elements are the identity on the left quarter; (c) each
    ``X[d,1] X[d,0]^-1`` commutes with every Z in S1'; (d) ``P[0]`` commutes
    with every Z in S1'.

    The pairs (``P[0]``, ``X[d,1]``) genuinely do not commute — the defining
    relations only make ``P[j]`` and ``X[d,i]`` commute for i > j+1 — so
    those pairs are computed and reported as findings, never asserted.
    """
    _check_suite_dim(n)
    report = CheckReport("premise_checks", n)
    s2 = gen_set_S2(n)
    for section, letters, rect, text in (
        ("identity_on_right_half", gen_set_S1(n), rect_Ir(n), "[1/2,1)"),
        ("identity_on_left_quarter", s2, left_quarter(n), "[0,1/4)"),
    ):
        for label, e in letters:
            fixes = is_identity_on(e, rect)
            report.checks.append(
                CheckResult(section, f"{label} fixes {text} x I^(n-1)", fixes)
            )
    s1p = gen_set_S1prime(n)
    *quotients, (_, p0) = s2  # the X[d,1] X[d,0]^-1, then P[0]
    for w_label, w in quotients:
        for z_label, z in s1p:
            report.checks.append(
                CheckResult(
                    "commutators_with_X_quotient",
                    f"[{w_label}, {z_label}] = 1",
                    equals(compose(w, z), compose(z, w)),
                )
            )
    finding = (
        "observed non-commutation, as the defining relations predict (P[j] and "
        "X[d,i] commute only for i > j+1); recorded as data"
    )
    for z_label, z in gen_set_S1(n):
        in_s1prime = not z_label.startswith("X")
        report.checks.append(
            CheckResult(
                "commutators_with_P0",
                f"[P[0], {z_label}] = 1",
                equals(compose(p0, z), compose(z, p0)),
                asserted=in_s1prime,
                note="" if in_s1prime else finding,
            )
        )
    return report
