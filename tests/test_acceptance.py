"""Acceptance suite: one test per release criterion, each independently oracled.

Run with ``pytest -v tests/test_acceptance.py`` to get a per-criterion
pass/fail line.  Every numeric expectation in here was computed by a method
independent of the implementation under test (interval arithmetic oracles,
closed-form counts, or hand computation) before being frozen.
"""

import itertools
import json
import random
import re
import time
from fractions import Fraction

import pytest

from nvcalc.dyadic_core import (
    Rect,
    enumerate_rects,
    word_interval,
)
from nvcalc.element_algebra import (
    apply,
    compose,
    element_depth,
    element_from_json,
    element_from_json_dict,
    element_to_json,
    element_to_json_dict,
    equals,
    identity,
    inverse,
    is_identity,
    random_element,
    simplify,
    validate,
)
from nvcalc.ends_cocycle import (
    _ball_elements,
    cocycle_identity_check,
    f_P_probe,
    properness_bound_check,
    sym_diff_truncated,
)
from nvcalc.words_generators import (
    GenSymbol,
    Word,
    corollary_checks,
    eval_word,
    format_word,
    gen_set_S1prime,
    make_C,
    make_X,
    make_pi,
    make_pibar,
    parse_word,
    premise_checks,
    relation_suite,
)
from oracles import slope_exponents

F = Fraction


# ---------------------------------------------------------------------------
# independent oracles


def one_dim_not_substitution(g, w):
    """Brute-force 1-D oracle: is g something other than a single prefix
    substitution on the interval of the binary word ``w``?

    Works directly on interval endpoints: clips every piece of g to the
    interval, then demands one global slope, continuity at the junctions, and
    an image that is again a standard dyadic interval.  Shares no code with
    ``is_affine_on`` or the ``affine_extension`` oracle in ``tests/oracles.py``.
    """
    lo, hi = word_interval(w)
    subs = []
    for p in g.pieces:
        plo, phi = p.dom.intervals()[0]
        a, b = max(lo, plo), min(hi, phi)
        if a < b:
            slope = F(2) ** slope_exponents(p)[0]
            qlo = p.ran.intervals()[0][0]
            subs.append((a, b, slope, qlo + (a - plo) * slope))
    subs.sort()
    slope0 = subs[0][2]
    end_val = subs[0][3] + (subs[0][1] - subs[0][0]) * slope0
    for a, b, s, fa in subs[1:]:
        if s != slope0 or fa != end_val:
            return True
        end_val = fa + (b - a) * s
    img_lo = subs[0][3]
    width = (hi - lo) * slope0
    if not (0 <= img_lo and img_lo + width <= 1):
        return True
    if width.numerator != 1 or width.denominator & (width.denominator - 1):
        return True  # width is not a power of two
    return (img_lo / width).denominator != 1  # left end off the width grid


def one_dim_failing_words(g, depth):
    out = set()
    for k in range(1, depth + 1):
        for bits in itertools.product("01", repeat=k):
            w = "".join(bits)
            if one_dim_not_substitution(g, w):
                out.add(w)
    return out


def two_dim_probe_oracle(g, depth):
    """Independent n=2 probe: membership, probe values, grids, violations,
    all recomputed from raw interval endpoints."""
    cells = [p.dom.intervals() for p in simplify(g).pieces]
    grids = [set(), set()]
    for cell in cells:
        for d, (lo, hi) in enumerate(cell):
            grids[d].update((lo, hi))
    alphas = [(F(1, 4), F(0)), (F(0), F(1, 2))]
    members, values, violations = set(), {}, set()
    for r in enumerate_rects(2, depth):
        rows = r.intervals()
        inside_one_cell = any(
            all(clo <= lo and hi <= chi for (lo, hi), (clo, chi) in zip(rows, cell))
            for cell in cells
        )
        if inside_one_cell:
            continue
        members.add(r.words)
        (lo1, hi1), (lo2, hi2) = rows
        imgs = []
        for ai, (a1, a2) in enumerate(alphas, start=1):
            v1 = lo1 + (hi1 - lo1) * 2 * a1  # first coordinate comes from [0,1/2)
            v2 = lo2 + (hi2 - lo2) * a2
            imgs.append((v1, v2))
            for ci, v in enumerate((v1, v2), start=1):
                if v not in grids[ci - 1]:
                    violations.add((r.words, ai, ci, v))
        values[r.words] = tuple(imgs)
    return members, values, violations


# ---------------------------------------------------------------------------
# criterion 1: the defining relations hold


def test_criterion_1_defining_relations():
    """All defining-relation instances pass for n in {1,2,3} at index bound 3,
    with at least 150 instances in dimension 3, in under a minute."""
    t0 = time.monotonic()
    counts = {}
    for n in (1, 2, 3):
        report = relation_suite(n, 3)
        assert report.all_pass, report.failures
        counts[n] = len(report.checks)
    assert counts[3] >= 150
    assert counts == {1: 34, 2: 90, 3: 170}
    assert time.monotonic() - t0 < 60


# ---------------------------------------------------------------------------
# criterion 2: conjugation and recovery identities


def test_criterion_2_corollary_identities():
    """Index-raising conjugations and the two low-index recoveries are exact
    element identities for n in {1,2,3}."""
    for n, count in ((1, 13), (2, 32), (3, 57)):
        report = corollary_checks(n)
        assert report.all_pass, report.failures
        assert len(report.checks) == count


# ---------------------------------------------------------------------------
# criterion 3: finite-generating-set premises


def test_criterion_3_generating_set_premises():
    """For n in {2,3}: the identity-on-rectangle premises hold, the asserted
    commutator families (each splitter quotient and the low block rotation
    against every non-splitter finite generator) hold — six families at n=2,
    eight at n=3 — and the genuinely non-commuting pairs are recorded as
    non-asserted findings."""
    for n, families in ((2, 6), (3, 8)):
        report = premise_checks(n)
        assert report.all_pass, report.failures
        secs = report.section_counts()
        assert secs["identity_on_right_half"][0] == secs["identity_on_right_half"][1] > 0
        assert secs["identity_on_left_quarter"][0] == secs["identity_on_left_quarter"][1] > 0

        def z_of(label):
            return re.fullmatch(r"\[(.+), (.+)\] = 1", label).group(2)

        asserted_families = {
            (c.section, z_of(c.label))
            for c in report.checks
            if c.asserted and c.section.startswith("commutators")
        }
        assert len(asserted_families) == families
        assert {z for _, z in asserted_families} == {
            lbl for lbl, _ in gen_set_S1prime(n)
        }
        findings = report.findings
        assert [f.label for f in findings] == [
            f"[P[0], X[{d},1]] = 1" for d in range(1, n + 1)
        ]
        assert all(not f.holds for f in findings)


# ---------------------------------------------------------------------------
# criterion 4: fuzzed group laws


def test_criterion_4_group_law_fuzz():
    """1000 pseudo-random triples per dimension: exact associativity, identity
    and inverse laws, apply/compose consistency at a random dyadic point, and
    equality after simplification — in under two minutes."""
    t0 = time.monotonic()
    for n in (1, 2, 3):
        rng = random.Random(1000 + n)
        for _ in range(1000):
            g = random_element(n, rng.randint(1, 6), rng)
            h = random_element(n, rng.randint(1, 6), rng)
            k = random_element(n, rng.randint(1, 6), rng)
            assert validate(g) and validate(h) and validate(k)
            assert compose(compose(g, h), k) == compose(g, compose(h, k))
            assert compose(g, identity(n)) == g
            assert compose(identity(n), g) == g
            assert is_identity(compose(g, inverse(g)))
            assert is_identity(compose(inverse(g), g))
            p = tuple(F(rng.randrange(256), 256) for _ in range(n))
            assert apply(compose(g, h), p) == apply(g, apply(h, p))
            assert equals(simplify(g), g)
    assert time.monotonic() - t0 < 120


# ---------------------------------------------------------------------------
# criterion 5: 1-D truncated symmetric differences against a brute force


def test_criterion_5_cocycle_stabilization_and_brute_force():
    """In dimension 1: every generator and every word of length at most 4
    over the finite generating set stabilizes by (reduced element depth + 1);
    the frozen cardinalities |X Δ gX| = 2 for the basic splitter and 0 for
    the half swap hold; the enumerated member sets agree with an independent
    interval brute force to depth 10; and the cocycle identity holds at every
    coset enumerated to depth 10."""
    generators = (
        [make_X(1, i, 1) for i in range(5)]
        + [make_pi(i, 1) for i in range(5)]
        + [make_pibar(i, 1) for i in range(5)]
    )
    ball = _ball_elements(1, 4)
    assert len(ball) == 1078
    for g in generators + [e for _, e in ball]:
        t = sym_diff_truncated(g, element_depth(simplify(g)) + 1)
        assert t.stable_depth is not None

    # frozen cardinalities
    x = make_X(1, 0, 1)
    t = sym_diff_truncated(x, 8)
    assert t.total == 2
    assert [m.words for m in t.out_side] == [("1",)]
    assert [r.words for r in t.in_side] == [("0",)]
    assert sym_diff_truncated(make_pibar(0, 1), 8).total == 0

    # brute-force cross-check at depth 10
    for g in [
        x,
        make_pibar(0, 1),
        compose(x, x),
        eval_word("P[0] X[1,0]", 1),
        make_X(1, 1, 1),
        eval_word("X[1,1] X[1,0]^-1", 1),
    ]:
        t = sym_diff_truncated(g, 10)
        assert {r.words[0] for r in t.in_side} == one_dim_failing_words(g, 10)
        assert {m.words[0] for m in t.out_side} == one_dim_failing_words(
            inverse(g), 10
        )

    # the cocycle identity over every coset from a depth-10 enumeration
    rep = cocycle_identity_check(x, x, depth=10)
    assert rep.all_pass
    assert len(rep.checks) == 3 * (2**11 - 2)
    assert cocycle_identity_check(x, make_pibar(0, 1), depth=6).all_pass
    assert cocycle_identity_check(
        eval_word("P[0] X[1,0]", 1), inverse(x), depth=5
    ).all_pass


# ---------------------------------------------------------------------------
# criterion 6: properness bound over the radius-4 word ball


def test_criterion_6_properness_bound_over_word_ball():
    """Every one of the 1078 distinct elements of the radius-4 word ball over
    the finite generating set stabilizes, and its reduced piece count is at
    most (|X Δ gX| + 4), in under five minutes."""
    t0 = time.monotonic()
    report = properness_bound_check(1, 4)
    assert report.all_pass, report.failures
    assert report.params["num_elements"] == 1078
    assert report.params["num_growing"] == 0
    assert report.params["num_stable"] == 1078
    assert set(report.section_counts()) == {"piece_bound"}
    # re-check the bound directly for one nontrivial element
    g = eval_word("X[1,1] X[1,0]^-1 Pb[3]", 1)
    t = sym_diff_truncated(g, element_depth(simplify(g)) + 1)
    assert t.stable_depth is not None
    assert len(simplify(g).pieces) <= t.total + 4
    assert time.monotonic() - t0 < 300


# ---------------------------------------------------------------------------
# criterion 7: the 2-D half swap keeps growing


def test_criterion_7_halfswap_growth_in_two_dimensions():
    """For the coordinate-1 half swap in dimension 2, each side of the
    truncated symmetric difference has exactly 2^(D+1) - 2 members at every
    truncation depth D in 2..8 (strip-counting oracle: the members are the
    rectangles whose first interval straddles 1/2), the verdict is GROWING,
    and the run is flagged with an open finding."""
    pb2 = make_pibar(0, 2)
    for D in range(2, 9):
        t = sym_diff_truncated(pb2, D)
        straddlers = {
            r.words
            for r in enumerate_rects(2, D)
            if r.intervals()[0][0] < F(1, 2) < r.intervals()[0][1]
        }
        assert len(straddlers) == 2 ** (D + 1) - 2
        assert {m.words for m in t.out_side} == straddlers
        assert {r.words for r in t.in_side} == straddlers
        assert t.total == 2 * (2 ** (D + 1) - 2)
        assert t.counts == tuple(
            2 * (2 ** (d + 1) - 2) for d in range(D + 1)
        )
        assert t.verdict == "GROWING"
        assert t.stable_depth is None
        assert t.open_finding is not None


# ---------------------------------------------------------------------------
# criterion 8: probe values land on the corner grid


def test_criterion_8_probe_grid_and_injectivity():
    """In dimension 1 every generator's probe has zero grid violations and
    separates the members at depth 8; in dimension 2 the probe output matches
    an independent interval-arithmetic enumeration exactly."""
    for g in (
        [make_X(1, i, 1) for i in range(4)]
        + [make_pi(i, 1) for i in range(4)]
        + [make_pibar(i, 1) for i in range(4)]
    ):
        result = f_P_probe(g, 8)
        assert result.grid_violations == ()
        assert result.injective

    for g in [
        make_pibar(0, 2),
        make_C(2, 0, 2),
        make_X(2, 0, 2),
        make_pi(0, 2),
        eval_word("C[2,0] Pb[0]", 2),
    ]:
        result = f_P_probe(g, 2)
        members, values, violations = two_dim_probe_oracle(g, 2)
        assert {m.words for m in result.members} == members
        assert {
            (v.rect.words, v.alpha_index, v.coord, v.value)
            for v in result.grid_violations
        } == violations
        assert {r.words: vals for r, vals in result.values.items()} == values
        assert result.injective == (len(set(values.values())) == len(values))

    # frozen 2-D example: the half swap at depth 1
    frozen = f_P_probe(make_pibar(0, 2), 1)
    assert [
        (v.rect.words, v.alpha_index, v.coord, v.value)
        for v in frozen.grid_violations
    ] == [
        (("", "0"), 2, 2, F(1, 4)),
        (("", "1"), 1, 2, F(1, 2)),
        (("", "1"), 2, 2, F(3, 4)),
    ]


# ---------------------------------------------------------------------------
# criterion 9: serialization round-trips


def test_criterion_9_serialization_roundtrips():
    """100 fuzzed words survive format/parse unchanged and 200 fuzzed elements
    survive the JSON round-trip bit-exactly."""
    rng = random.Random(99)
    for _ in range(100):
        symbols = []
        for _ in range(rng.randrange(0, 8)):
            n = rng.randint(1, 3)
            kind = rng.choice(["X", "C", "P", "Pb"] if n >= 2 else ["X", "P", "Pb"])
            if kind == "X":
                d = rng.randint(1, n)
            elif kind == "C":
                d = rng.randint(2, n)
            else:
                d = None
            exp = rng.choice([-3, -2, -1, 1, 2, 3])
            symbols.append(GenSymbol(kind, d, rng.randint(0, 9), exp))
        w = Word(tuple(symbols))
        text = format_word(w)
        assert parse_word(text) == w
        assert format_word(parse_word(text)) == text

    for i in range(200):
        n = 1 + i % 3
        g = random_element(n, rng.randint(1, 8), rng)
        text = element_to_json(g)
        back = element_from_json(text)
        assert back == g
        assert element_to_json(back) == text
        assert element_from_json_dict(json.loads(text)) == g
        assert element_to_json_dict(back) == json.loads(text)
