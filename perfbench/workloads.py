"""Seeded op lists for the nvcalc benchmark workloads.

``build(workload, seed)`` imports nvcalc and returns the workload's ops.  Each
op is one call into nvcalc's public API plus an independent check of its
result and a canonical JSON form of that result for the results digest.

Op closures look nvcalc functions up through module attributes at call time
(``nv.compose``, ``cli.main``), so the tracer's wrappers see every call.

Sizes are stratified: the seed chooses which words, elements and points an
op uses, never how many ops of each size a pass holds, so passes built from
different seeds cost about the same.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import nvcalc as nv
from nvcalc import cli
from nvcalc import words_generators as wg


@dataclass(frozen=True)
class Op:
    """One timed call (``call``), its result check and its digest form."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    encode: Callable[[Any], Any]


def _letters(n: int) -> list[tuple[str, str]]:
    """The generating set S in dimension n and its inverses, as
    ``(word, inverse word)`` pairs of word text."""
    out = []
    for label, _ in wg.gen_set_S(n):
        word = nv.parse_word(label)
        inv = nv.Word(
            tuple(
                nv.GenSymbol(s.kind, s.d, s.i, -s.exp)
                for s in reversed(word.symbols)
            )
        )
        inv_label = nv.format_word(inv)
        out += [(label, inv_label), (inv_label, label)]
    return out


def _random_word(rng: random.Random, n: int, length: int) -> tuple[str, str]:
    """A seeded word over S and its inverses with no letter next to its own
    inverse; returns the word and its inverse word."""
    letters = _letters(n)
    picked: list[tuple[str, str]] = []
    while len(picked) < length:
        w, w_inv = rng.choice(letters)
        if picked and picked[-1][1] == w:
            continue
        picked.append((w, w_inv))
    word = " ".join(w for w, _ in picked)
    inverse = " ".join(w_inv for _, w_inv in reversed(picked))
    return word, inverse


def _nontrivial_word(rng: random.Random, n: int, length: int) -> tuple[str, nv.Element]:
    """A seeded word as in ``_random_word`` whose element is not the identity
    (``Pb[3] Pb[3]`` is), with that element."""
    while True:
        word, _ = _random_word(rng, n, length)
        g = nv.eval_word(word, n)
        if not nv.is_identity(nv.simplify(g)):
            return word, g


def _identities() -> list[tuple[int, str, str]]:
    """Every identity the relation suite (``i_max`` = 3) and the corollary
    suite check for n = 1, 2, 3, as ``(n, lhs, rhs)`` word texts.

    The suites are run with their word comparison replaced by a recorder, so
    the instance lists stay exactly the library's without evaluating them.
    """
    found: list[tuple[int, str, str]] = []
    original = wg._words_equal
    wg._words_equal = lambda lhs, rhs, n: found.append((n, lhs, rhs)) or True
    try:
        for n in (1, 2, 3):
            nv.relation_suite(n, i_max=3)
            nv.corollary_checks(n)
    finally:
        wg._words_equal = original
    return found


def _suites(rng: random.Random) -> list[Op]:
    """Every suite identity, both sides conjugated by one seeded word of
    length 0, 1 or 2 (each length used for a third of the identities)."""
    identities = _identities()
    lengths = [k % 3 for k in range(len(identities))]
    rng.shuffle(lengths)
    ops = []
    for (n, lhs, rhs), length in zip(identities, lengths):
        c, c_inv = _random_word(rng, n, length)
        lhs_c = f"{c} {lhs} {c_inv}".strip()
        rhs_c = f"{c} {rhs} {c_inv}".strip()
        ops.append(
            Op(
                "identity",
                lambda lhs=lhs_c, rhs=rhs_c, n=n: nv.equals(
                    nv.eval_word(lhs, n), nv.eval_word(rhs, n)
                ),
                lambda r: r is True,
                lambda r: r,
            )
        )
    rng.shuffle(ops)
    return ops


#: Elements per (dimension, piece count) in ``tables``; each gives five ops.
TABLE_SIZES = ((16, 8), (64, 4), (256, 2))

#: Five exponent strata for the power words of ``tables``.
POWER_STRATA = ((40, 48), (58, 66), (76, 84), (94, 102), (112, 120))


def _refined(rng: random.Random, g: nv.Element) -> nv.Element:
    """The same map with a quarter more pieces, by seeded expansions."""
    for _ in range(len(g.pieces) // 4):
        g = nv.expansion(g, rng.randrange(len(g.pieces)), rng.randint(1, g.dim))
    return g


def _points(rng: random.Random, n: int, count: int = 4) -> list[tuple]:
    return [
        tuple(Fraction(rng.randrange(2**20), 2**20) for _ in range(n))
        for _ in range(count)
    ]


def _table_ops(rng: random.Random, n: int, size: int) -> list[Op]:
    a = nv.random_element(n, size, rng)
    b = nv.random_element(n, size, rng)
    fine = _refined(rng, a)
    pts = _points(rng, n)

    def composed_ok(ab: nv.Element) -> bool:
        return all(nv.apply(ab, p) == nv.apply(a, nv.apply(b, p)) for p in pts)

    def inverse_ok(a_inv: nv.Element) -> bool:
        return nv.is_identity(nv.compose(a, a_inv))

    def images_ok(images: list) -> bool:
        a_inv = nv.inverse(a)
        return [nv.apply(a_inv, q) for q in images] == pts

    return [
        Op("compose", lambda: nv.compose(a, b), composed_ok, nv.element_to_json),
        Op("inverse", lambda: nv.inverse(a), inverse_ok, nv.element_to_json),
        Op(
            "simplify",
            lambda: nv.simplify(fine),
            lambda s: len(s.pieces) <= len(fine.pieces) and nv.equals(s, a),
            nv.element_to_json,
        ),
        Op("equals", lambda: nv.equals(a, fine), lambda r: r is True, lambda r: r),
        Op(
            "apply",
            lambda: [nv.apply(a, p) for p in pts],
            images_ok,
            lambda imgs: [[str(x) for x in q] for q in imgs],
        ),
    ]


def _power_op(rng: random.Random, n: int, d: int, lo: int, hi: int) -> Op:
    k = rng.randint(lo, hi)
    pts = _points(rng, n)

    def power_ok(g: nv.Element) -> bool:
        x = nv.make_X(d, 0, n)
        for p in pts:
            q = p
            for _ in range(k):
                q = nv.apply(x, q)
            if nv.apply(g, p) != q:
                return False
        return True

    return Op(
        "power",
        lambda: nv.eval_word(f"X[{d},0]^{k}", n),
        power_ok,
        nv.element_to_json,
    )


def _tables(rng: random.Random) -> list[Op]:
    """Random elements at n = 1, 2 with 16, 64 and 256 pieces, and one power
    word ``X[d,0]^k`` per exponent stratum for each of (n, d) = (1, 1),
    (2, 1), (2, 2)."""
    ops = []
    for n in (1, 2):
        for size, count in TABLE_SIZES:
            for _ in range(count):
                ops += _table_ops(rng, n, size)
    for n, d in ((1, 1), (2, 1), (2, 2)):
        for lo, hi in POWER_STRATA:
            ops.append(_power_op(rng, n, d, lo, hi))
    rng.shuffle(ops)
    return ops


#: n = 1 words per length 1..8 for ``sym_diff_truncated(g, 10)``.
N1_WORDS_PER_LENGTH = 12
#: n = 2 words per length 1, 2 for ``sym_diff_truncated(g, 8)``.
N2_WORDS_PER_LENGTH = 6
#: n = 1 pairs for ``cocycle_identity_check(g, h, 5)``, by word length.
PAIR_LENGTHS = (1,) * 5 + (2,) * 5

#: Where the CLI ops write their envelopes and traced runs their spans.
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def _consistent(t) -> bool:
    """The truncation's counts, members and verdict agree with each other."""
    counts = list(t.counts)
    return (
        counts == sorted(counts)
        and counts[-1] == t.total == len(t.out_side) + len(t.in_side)
        and (t.verdict == "GROWING") == (t.stable_depth is None)
    )


def _sym_diff_op(rng: random.Random, n: int, length: int, depth: int) -> Op:
    _, g = _nontrivial_word(rng, n, length)
    expected = "STABLE" if n == 1 else "GROWING"
    return Op(
        f"sym_diff_n{n}",
        lambda: nv.sym_diff_truncated(g, depth),
        lambda t: _consistent(t) and t.verdict.startswith(expected),
        lambda t: t.to_dict(),
    )


def _identity_check_op(rng: random.Random, length: int) -> Op:
    _, g = _nontrivial_word(rng, 1, length)
    _, h = _nontrivial_word(rng, 1, length)
    return Op(
        "cocycle_identity",
        lambda: nv.cocycle_identity_check(g, h, 5),
        lambda rep: rep.all_pass,
        lambda rep: rep.to_dict(),
    )


def _cli_op(argv: list[str]) -> Op:
    """In-process ``nvcalc`` run writing its envelope to a temp file; the
    result is the exit code and the envelope bytes."""

    def call() -> tuple[int, bytes]:
        fd, path = tempfile.mkstemp(suffix=".json", dir=OUT_DIR)
        os.close(fd)
        try:
            code = cli.main(argv + ["--output", path])
            with open(path, "rb") as fh:
                return code, fh.read()
        finally:
            os.unlink(path)

    def ok(result: tuple[int, bytes]) -> bool:
        code, text = result
        return code == 0 and json.loads(text)["ok"] is True

    return Op(
        f"cli_{argv[0]}",
        call,
        ok,
        lambda r: [r[0], hashlib.sha256(r[1]).hexdigest()],
    )


def _cocycle(rng: random.Random) -> list[Op]:
    """The coset-cocycle engine: stabilising n = 1 truncations, growing
    n = 2 truncations, cocycle identity checks and two CLI sweeps."""
    os.makedirs(OUT_DIR, exist_ok=True)
    ops = []
    for length in range(1, 9):
        for _ in range(N1_WORDS_PER_LENGTH):
            ops.append(_sym_diff_op(rng, 1, length, 10))
    for length in (1, 2):
        for _ in range(N2_WORDS_PER_LENGTH):
            ops.append(_sym_diff_op(rng, 2, length, 8))
    for length in PAIR_LENGTHS:
        ops.append(_identity_check_op(rng, length))
    ops.append(_cli_op(["properness", "--n", "1", "--ball", "3"]))
    word, _ = _nontrivial_word(rng, 2, 1)
    ops.append(_cli_op(["cocycle", "--n", "2", "--word", word, "--depth", "9"]))
    rng.shuffle(ops)
    return ops


_BUILDERS = {"suites": _suites, "tables": _tables, "cocycle": _cocycle}


def build(workload: str, seed: int) -> list[Op]:
    """The op list of ``workload`` for ``seed`` (same seed, same ops)."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
