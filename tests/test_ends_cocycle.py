"""Unit tests for cosets, the truncated symmetric difference, and the probes."""

import json
import math
from fractions import Fraction
from functools import reduce
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvcalc.dyadic_core import (
    Rect,
    count_rects,
    enumerate_rects,
    rect_Il,
    rect_Ir,
)
from nvcalc.element_algebra import (
    AffinePiece,
    Element,
    apply,
    compose,
    equals,
    identity,
    inverse,
    random_element,
    simplify,
    validate,
)
from nvcalc import ends_cocycle
from nvcalc.ends_cocycle import (
    CosetRep,
    TruncatedCocycle,
    alpha_points,
    cocycle_counts,
    cocycle_identity_check,
    complement_partition,
    coset_eq,
    coset_of,
    coset_translate,
    f_P_probe,
    failing_cylinders,
    in_X,
    properness_bound_check,
    sym_diff_truncated,
)
from nvcalc.words_generators import eval_word, gen_set_S, make_X, make_pi, make_pibar
from oracles import (
    embed_in_half,
    in_H,
    is_partition,
    normalizer_commutation_check,
    rect_to_coset,
)

F = Fraction

X1 = make_X(1, 0, 1)
PB1 = make_pibar(0, 1)
PB2 = make_pibar(0, 2)


# ---------------------------------------------------------------------------
# complements and canonical representatives


def test_complement_partition_examples():
    assert [r.words for r in complement_partition(Rect(("00", "")))] == [
        ("1", ""),
        ("01", ""),
    ]
    assert [r.words for r in complement_partition(Rect(("01",)))] == [
        ("1",),
        ("00",),
    ]
    assert [r.words for r in complement_partition(Rect(("1", "0")))] == [
        ("0", ""),
        ("1", "1"),
    ]


@pytest.mark.parametrize("n,D", [(1, 4), (2, 3)])
def test_complement_partition_tiles_the_cube(n, D):
    for r in enumerate_rects(n, D):
        comps = complement_partition(r)
        assert len(comps) == r.depth
        assert is_partition(list(comps) + [r])


def test_rect_to_coset_witness():
    for n, D in [(1, 4), (2, 3)]:
        for r in enumerate_rects(n, D):
            k = rect_to_coset(r)
            assert validate(k)
            assert in_X(coset_of(k)) == r
    with pytest.raises(ValueError):
        rect_to_coset(Rect.cube(2))


def test_rect_to_coset_of_left_half_is_identity():
    assert equals(rect_to_coset(rect_Il(1)), identity(1))
    assert simplify(rect_to_coset(rect_Il(1))) == identity(1)
    assert equals(rect_to_coset(rect_Il(2)), identity(2))


# ---------------------------------------------------------------------------
# cosets


def test_coset_eq_takes_coset_reps():
    c = coset_of(rect_to_coset(Rect(("01",))))
    assert coset_eq(c, CosetRep(1, c.restriction))
    with pytest.raises(ValueError):
        coset_eq(coset_of(identity(1)), coset_of(identity(2)))


def test_coset_unchanged_by_right_factor_fixing_left_half():
    h = embed_in_half(random_element(1, 4, 3), "right")
    for k in (X1, PB1, rect_to_coset(Rect(("110",)))):
        assert in_H(coset_of(h))
        assert coset_eq(coset_of(k), coset_of(compose(k, h)))
        assert not coset_eq(coset_of(k), coset_of(compose(k, PB1)))  # PB1 moves I_l


def test_coset_translate_composes():
    g1, g2 = X1, make_pi(0, 1)
    c = coset_of(rect_to_coset(Rect(("01",))))
    lhs = coset_translate(compose(g1, g2), c)
    rhs = coset_translate(g1, coset_translate(g2, c))
    assert coset_eq(lhs, rhs)


def test_in_H():
    assert in_H(coset_of(identity(1)))
    assert in_H(coset_of(identity(2)))
    assert not in_H(coset_of(PB1))
    assert not in_H(coset_of(PB2))
    assert in_H(coset_of(embed_in_half(PB1, "right")))


def test_in_X_certificates():
    assert in_X(coset_of(identity(1))) == rect_Il(1)
    assert in_X(coset_of(PB1)) == rect_Ir(1)
    assert in_X(coset_of(make_pi(0, 1))) is None  # two slopes on I_l
    assert in_X(coset_of(X1)) is None  # two slopes on I_l as well
    assert in_X(coset_of(inverse(X1))) == Rect(("00",))


def test_in_gX_example():
    # the coset named by the right half leaves the translated family under X1
    c = coset_of(rect_to_coset(rect_Ir(1)))
    assert in_X(coset_translate(inverse(X1), c)) is None
    # but the identity translate keeps it
    assert in_X(coset_translate(identity(1), c)) == rect_Ir(1)


# ---------------------------------------------------------------------------
# truncated symmetric difference


def test_sym_diff_splitter_frozen():
    t = sym_diff_truncated(X1, 8)
    assert t.verdict == "STABLE(1)"
    assert t.stable_depth == 1
    assert t.total == 2
    assert [m.words for m in t.out_side] == [("1",)]
    assert [r.words for r in t.in_side] == [("0",)]
    assert t.counts == (0, 2, 2, 2, 2, 2, 2, 2, 2)
    assert t.norm == pytest.approx(math.sqrt(2))
    assert t.open_finding is None


def test_sym_diff_square_frozen():
    t = sym_diff_truncated(compose(X1, X1), 8)
    assert t.verdict == "STABLE(2)"
    assert t.total == 4
    assert sorted(m.words[0] for m in t.out_side) == ["1", "11"]
    assert sorted(r.words[0] for r in t.in_side) == ["0", "00"]


def test_sym_diff_halfswap_trivial_in_one_dimension():
    t = sym_diff_truncated(PB1, 6)
    assert t.verdict == "STABLE(0)"
    assert t.total == 0
    assert t.counts == (0,) * 7
    assert t.norm == 0.0


@pytest.mark.parametrize("D", [2, 3, 4])
def test_sym_diff_halfswap_grows_in_two_dimensions(D):
    t = sym_diff_truncated(PB2, D)
    assert t.verdict == "GROWING"
    assert t.stable_depth is None
    assert len(t.out_side) == len(t.in_side) == 2 ** (D + 1) - 2
    assert t.open_finding is not None
    assert "depth" in t.open_finding


def test_sym_diff_counts_monotone_and_verdict_reaffirmed():
    for g in (X1, compose(X1, X1), eval_word("P[0] X[1,0]", 1)):
        t = sym_diff_truncated(g, 6)
        assert all(a <= b for a, b in zip(t.counts, t.counts[1:]))
        again = sym_diff_truncated(g, 7)
        assert again.stable_depth == t.stable_depth
        assert again.total == t.total
    with pytest.raises(ValueError):
        sym_diff_truncated(X1, -1)


@pytest.mark.parametrize(
    "word, n, D",
    [
        (w, 1, 8)
        for w in ("X[1,0]", "Pb[0] X[1,1]^-1", "X[1,0]^3 P[1]", "X[1,0]^-2 X[1,2]")
    ]
    + [(w, 2, 5) for w in ("Pb[0]", "C[2,0]", "X[2,0] X[1,1]")],
)
def test_at_depth_matches_a_fresh_search(word, n, D):
    """The truncation at depth d <= D is a prefix of the one at D: its counts
    and its members of depth <= d, since the search is exact."""
    g = eval_word(word, n)
    full = sym_diff_truncated(g, D)
    for d in range(D + 1):
        sides = (
            tuple(r for r in side if r.depth <= d) for side in (full.out_side, full.in_side)
        )
        prefix = TruncatedCocycle(full.counts[: d + 1], *sides)
        assert prefix == sym_diff_truncated(g, d)


def test_member_budget_trips_before_any_member_is_built(monkeypatch):
    g = eval_word("C[2,0]", 2)
    t = sym_diff_truncated(g, 5)
    monkeypatch.setattr(ends_cocycle, "MAX_MEMBERS", t.total)
    assert sym_diff_truncated(g, 5) == t
    monkeypatch.setattr(ends_cocycle, "MAX_MEMBERS", t.total - 1)
    with mock.patch("nvcalc.ends_cocycle._cylinder_levels") as expand:
        message = f"^the truncation at depth 5 has more than {t.total - 1} members$"
        with pytest.raises(ValueError, match=message):
            sym_diff_truncated(g, 5)
    assert not expand.called
    counts = cocycle_counts(g, 5)
    assert (counts.counts, counts.verdict, counts.norm) == (t.counts, t.verdict, t.norm)


def test_member_budget_never_counts_rectangles(monkeypatch):
    """The budget check reads the closed-form total, so however deep the
    truncation, no rectangle is counted."""
    spy = mock.Mock(wraps=ends_cocycle.count_rects)
    monkeypatch.setattr(ends_cocycle, "count_rects", spy)
    g = eval_word("X[1,0]", 1)
    t = sym_diff_truncated(g, 5000)
    assert not spy.called
    assert t.total == sym_diff_truncated(g, 10).total and t.stable_depth is not None


def test_count_paths_stop_at_their_limit():
    """A growing truncation's sums stop once the total passes the caller's
    limit: at depth 200,000 the exact total of ``Pb[0]`` (n = 2) would have
    some 60,000 digits, and the error line would print them all."""
    g, depth = eval_word("Pb[0]", 2), 200_000
    budget = ends_cocycle.MAX_MEMBERS
    message = f"^the truncation at depth {depth} has more than {budget} members$"
    with pytest.raises(ValueError, match=message):
        sym_diff_truncated(g, depth)
    message = f"^the total at depth {depth} is too large for a float norm$"
    with pytest.raises(ValueError, match=message):
        cocycle_counts(g, depth)


def test_count_paths_stop_below_the_member_budget(monkeypatch):
    """Every count path lists depth + 1 counts, so each rejects a depth of
    ``MAX_MEMBERS`` or more; a huge depth is rejected before its list exists."""
    message = f"depth must be < {ends_cocycle.MAX_MEMBERS}, got {10**12}"
    with pytest.raises(ValueError, match=message):
        cocycle_counts(X1, 10**12)
    monkeypatch.setattr(ends_cocycle, "MAX_MEMBERS", 40)
    assert sym_diff_truncated(X1, 39).counts == (0,) + (2,) * 39
    assert cocycle_counts(X1, 39).total == 2
    assert properness_bound_check(1, 1, depth=39).all_pass
    for count in (
        lambda: sym_diff_truncated(X1, 40),
        lambda: cocycle_counts(X1, 40),
        lambda: properness_bound_check(1, 1, depth=40),
    ):
        with pytest.raises(ValueError, match="depth must be < 40, got 40"):
            count()



def test_count_paths_check_the_depth_before_any_search(monkeypatch):
    """A depth of ``MAX_MEMBERS`` or more, or a negative one, is rejected
    before either cylinder search runs."""
    search = mock.Mock(wraps=failing_cylinders)
    monkeypatch.setattr(ends_cocycle, "failing_cylinders", search)
    budget = ends_cocycle.MAX_MEMBERS
    for count in (sym_diff_truncated, cocycle_counts):
        with pytest.raises(ValueError, match=f"^depth must be < {budget}, got {budget}$"):
            count(X1, budget)
        with pytest.raises(ValueError, match="^depth must be >= 0$"):
            count(X1, -1)
    assert not search.called
    assert cocycle_counts(X1, 3).total == 2 and search.call_count == 2

#: The letters of S and their inverses, per dimension.
LETTERS = {n: [e for _, g in gen_set_S(n) for e in (g, inverse(g))] for n in (1, 2)}


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_truncation_record_derives_every_verdict_field_from_its_counts(data):
    """The record stores counts and members; the rest follows the counts.
    The stable depth is the first index of the final count, if that index
    is before the last one."""
    n = data.draw(st.sampled_from([1, 2]), label="n")
    word = data.draw(st.lists(st.sampled_from(LETTERS[n]), max_size=3), label="word")
    depth = data.draw(st.integers(0, 6), label="depth")
    g = reduce(compose, word, identity(n))
    t = sym_diff_truncated(g, depth)
    members = t.out_side + t.in_side
    assert t.depth == depth == len(t.counts) - 1
    for d in range(depth + 1):
        assert t.counts[d] == sum(1 <= m.depth <= d for m in members)
    assert t.total == len(t.out_side) + len(t.in_side)
    first = t.counts.index(t.counts[-1])
    stable = first if first < len(t.counts) - 1 else None
    assert t.stable_depth == stable
    assert t.verdict == ("GROWING" if stable is None else f"STABLE({stable})")
    assert (t.open_finding is None) == (stable is not None)
    assert t.open_finding is None or f"truncation depth {depth}." in t.open_finding
    assert t.norm == math.sqrt(t.total)
    assert cocycle_counts(g, depth) == TruncatedCocycle(t.counts)


@given(
    st.integers(1, 3), st.integers(1, 12), st.integers(0, 2**32 - 1), st.integers(0, 8)
)
@settings(max_examples=60, deadline=None)
def test_an_inverse_has_the_same_counts(n, size, seed, depth):
    """X Δ g^{-1}X has the counts of X Δ gX at every depth: the two searches
    of g^{-1} are those of g, swapped.  ``properness_bound_check`` memoises
    one record per pair {g, g^{-1}} on this ground.  Up to depth 6 the
    members are listed too: g^{-1}'s record is g's with the two sides
    swapped."""
    g = random_element(n, size, seed)
    assert cocycle_counts(inverse(g), depth).counts == cocycle_counts(g, depth).counts
    if depth <= 6:
        t = sym_diff_truncated(g, depth)
        assert sym_diff_truncated(inverse(g), depth) == TruncatedCocycle(
            t.counts, t.in_side, t.out_side
        )


def test_sym_diff_identity_is_empty():
    t = sym_diff_truncated(identity(1), 5)
    assert t.total == 0 and t.verdict == "STABLE(0)"


def test_sym_diff_to_dict_is_json_ready():
    d = sym_diff_truncated(X1, 4).to_dict()
    json.dumps(d)
    assert d["out_side"] == [["1"]]
    assert d["in_side"] == [["0"]]
    assert d["verdict"] == "STABLE(1)"
    assert d["counts_by_depth"] == [0, 2, 2, 2, 2]
    assert d["total"] == 2


def test_membership_indicator_is_plus_minus_one():
    for g in (X1, PB1, make_pi(0, 1)):
        for r in enumerate_rects(1, 3):
            c = coset_of(rect_to_coset(r))
            in_gX = in_X(coset_translate(inverse(g), c))
            pi_g = (in_gX is not None) - (in_X(c) is not None)
            assert pi_g in (-1, 0, 1)


# ---------------------------------------------------------------------------
# the cocycle identity


def test_cocycle_identity_small_cases():
    rep = cocycle_identity_check(X1, PB1, depth=3)
    assert rep.all_pass
    rep2 = cocycle_identity_check(X1, identity(1), depth=3)
    assert rep2.all_pass
    rep3 = cocycle_identity_check(PB2, make_X(2, 0, 2), depth=2)
    assert rep3.all_pass
    assert len(rep3.checks) == 3 * 16  # three cosets per proper rectangle
    with pytest.raises(ValueError):
        cocycle_identity_check(X1, PB2)


def _four_term_identity(g, h, depth):
    """Per test coset, whether pi_gh(c) = pi_g(c) + pi_h(g^{-1} c) literally."""

    def pi(k, c):
        in_kX = in_X(coset_translate(inverse(k), c))
        return (in_kX is not None) - (in_X(c) is not None)

    gh = compose(g, h)
    holds = []
    for r in enumerate_rects(g.dim, depth):
        base = coset_of(rect_to_coset(r))
        for c in (base, coset_translate(g, base), coset_translate(gh, base)):
            rhs = pi(g, c) + pi(h, coset_translate(inverse(g), c))
            holds.append(pi(gh, c) == rhs)
    return holds


@pytest.mark.parametrize(
    "g, h, depth",
    [(X1, PB1, 3), (X1, identity(1), 3), (PB2, make_X(2, 0, 2), 2)],
    ids=["X_Pb", "X_e", "Pb_X2"],
)
def test_cocycle_identity_matches_four_term_oracle(g, h, depth):
    oracle = _four_term_identity(g, h, depth)
    assert all(oracle)
    assert [c.holds for c in cocycle_identity_check(g, h, depth).checks] == oracle


# ---------------------------------------------------------------------------
# probe points, grid check


def test_alpha_points():
    assert alpha_points(1) == ((F(1, 4),),)
    assert alpha_points(3) == (
        (F(1, 4), F(0), F(0)),
        (F(0), F(1, 2), F(0)),
        (F(0), F(0), F(1, 2)),
    )


def test_f_P_probe_splitter():
    r = f_P_probe(X1, 8)
    assert [m.words for m in r.members] == [("0",)]
    assert r.grid_violations == ()
    assert r.injective
    assert r.values[Rect(("0",))] == ((F(1, 4),),)


@pytest.mark.parametrize("n, depth", [(1, 7), (2, 4), (3, 3)])
def test_f_P_probe_values_are_the_witness_images(n, depth):
    """Each member's values, read off the one piece I_l -> R, are the images
    of the probe points under the whole witness ``rect_to_coset(R)``."""
    letters = [e for _, s in gen_set_S(n) for e in (s, inverse(s))]
    randoms = [random_element(n, size, seed) for seed, size in enumerate((4, 9, 16))]
    checked = 0
    for g in letters + randoms:
        result = f_P_probe(g, depth)
        for r in result.members:
            k = rect_to_coset(r)
            assert result.values[r] == tuple(apply(k, a) for a in alpha_points(n))
            checked += 1
    assert checked


def test_f_P_probe_rectangle_budget_trips_before_listing(monkeypatch):
    """The budget boundary is exact, and a huge depth is rejected at once."""
    budget, unbounded = count_rects(1, 5), f_P_probe(X1, 5)
    monkeypatch.setattr(ends_cocycle, "MAX_MEMBERS", budget)
    assert f_P_probe(X1, 5) == unbounded
    monkeypatch.setattr(ends_cocycle, "MAX_MEMBERS", budget - 1)
    with mock.patch("nvcalc.ends_cocycle.enumerate_rects") as listing:
        for depth in (5, 10**9):
            with pytest.raises(ValueError, match=f"depth {depth} lists more than"):
                f_P_probe(X1, depth)
    assert not listing.called


def test_f_P_probe_value_table_bound_admits_dimension_20():
    """880 rectangles of depth 1..2 in dimension 20: at most 880 * 20 * 20
    = 352,000 probe values, under the 2^20 bound."""
    assert count_rects(20, 2) * 20 * 20 <= 2**20
    result = f_P_probe(make_pi(0, 20), 2)
    assert len(result.members) == 837 and len(result.pattern) == 3


def test_f_P_probe_value_table_bound_trips_before_listing():
    """1,920 rectangles in dimension 30 would carry 1,728,000 values."""
    assert count_rects(30, 2) * 30 * 30 > 2**20
    with mock.patch("nvcalc.ends_cocycle.enumerate_rects") as listing:
        with pytest.raises(ValueError, match="dimension 30: over 1048576 probe values"):
            f_P_probe(make_pi(0, 30), 2)
    assert not listing.called


def test_f_P_probe_halfswap_two_dimensions_frozen():
    r = f_P_probe(PB2, 1)
    assert [m.words for m in r.members] == [("", "0"), ("", "1")]
    got = [
        (v.rect.words, v.alpha_index, v.coord, v.value)
        for v in r.grid_violations
    ]
    assert got == [
        (("", "0"), 2, 2, F(1, 4)),
        (("", "1"), 1, 2, F(1, 2)),
        (("", "1"), 2, 2, F(3, 4)),
    ]
    assert r.injective


def test_f_P_probe_corner_modes_differ():
    closed = f_P_probe(X1, 3, "closed")
    half = f_P_probe(X1, 3, "half_open")
    sc = {m.words for m in closed.members_corner_meets}
    sh = {m.words for m in half.members_corner_meets}
    assert sh < sc
    assert ("011",) in sc - sh  # touches 1/2 only at its closed right edge
    # the primary member list ignores the corner mode
    assert closed.members == half.members
    with pytest.raises(ValueError):
        f_P_probe(X1, 3, "open")


def test_f_P_probe_to_dict_is_json_ready():
    d = f_P_probe(PB2, 1).to_dict()
    json.dumps(d)
    assert d["members"] == [["", "0"], ["", "1"]]
    assert len(d["grid_violations"]) == 3
    assert d["grid_violations"][0]["value"] == "1/4"


# ---------------------------------------------------------------------------
# properness bound over word balls


def test_properness_bound_small_ball_adaptive():
    rep = properness_bound_check(1, 2)
    assert rep.all_pass
    assert rep.params["num_elements"] == 44
    assert rep.params["num_growing"] == 0
    assert rep.params["depth"] == "adaptive"


def test_properness_bound_fixed_depth():
    rep = properness_bound_check(1, 2, depth=8)
    assert rep.all_pass
    assert rep.params["depth"] == 8
    assert rep.params["num_growing"] == 0


def test_properness_growing_elements_become_findings():
    # depth 0 truncations never stabilise for nontrivial elements
    rep = properness_bound_check(1, 1, depth=0)
    assert rep.all_pass  # growing rows are findings, not failures
    assert rep.params["num_growing"] > 0
    assert all(not c.asserted for c in rep.findings)
    # n = 2, radius 1: only the identity stabilises; the tallies are the rows
    rep = properness_bound_check(2, 1)
    asserted = sum(c.asserted for c in rep.checks)
    assert (rep.params["num_stable"], rep.params["num_growing"]) == (1, 13)
    assert rep.params["num_stable"] == asserted
    assert rep.params["num_growing"] == len(rep.findings)
    assert asserted + len(rep.findings) == rep.params["num_elements"]


@pytest.mark.parametrize(
    "n, radius, ok",
    [
        (1, 5, True),
        (1, 6, False),
        (2, 4, True),
        (2, 5, False),
        (3, 4, True),
        (3, 5, False),
        (1, 10**18, False),
    ],
)
def test_properness_bounds_the_ball_before_building_it(n, radius, ok):
    """The free group's ball over the 6n + 4 letters of S ∪ S^-1 (73,811
    words at n = 1, R = 5; 664,301 at R = 6) must hold at most
    ``MAX_MEMBERS`` words."""
    with mock.patch("nvcalc.ends_cocycle._ball_elements", side_effect=StopIteration):
        with pytest.raises(StopIteration if ok else ValueError):
            properness_bound_check(n, radius)


def test_properness_rejects_negative_radius():
    with pytest.raises(ValueError, match="ball radius"):
        properness_bound_check(1, -1)


@pytest.mark.parametrize(
    "depth, message", [(-1, "depth must be >= 0"), (2**18, "depth must be < ")]
)
def test_properness_rejects_a_depth_before_building_the_ball(depth, message):
    with mock.patch("nvcalc.ends_cocycle._ball_elements") as ball:
        with pytest.raises(ValueError, match=message):
            properness_bound_check(1, 5, depth)
    assert not ball.called


def test_properness_totals_stop_before_a_label_passes_4300_digits():
    """The total is capped so that ``(total + 4)^n`` prints within
    Python's default 4,300-digit int-to-str limit.  At n = 2 and radius 1,
    depth 7,139 still reports (its growing labels print totals of over 2,000
    digits) and depth 7,140 is rejected, naming the depth."""
    rep = properness_bound_check(2, 1, 7139)
    assert max(len(c.label) for c in rep.checks) > 2000
    assert json.dumps(rep.to_dict())
    with pytest.raises(ValueError, match="the total at depth 7140 is too large"):
        properness_bound_check(2, 1, 7140)


# ---------------------------------------------------------------------------
# the half-cube subgroup


def test_embed_in_half():
    e = embed_in_half(PB1, "left")
    assert apply(e, (F(0),)) == (F(1, 4),)
    assert apply(e, (F(3, 4),)) == (F(3, 4),)
    r = embed_in_half(PB1, "right")
    assert apply(r, (F(1, 2),)) == (F(3, 4),)
    assert apply(r, (F(0),)) == (F(0),)
    assert validate(e) and validate(r)
    with pytest.raises(ValueError):
        embed_in_half(PB1, "top")


def test_disjoint_embeddings_commute():
    a = embed_in_half(X1, "left")
    b = embed_in_half(make_pi(0, 1), "right")
    assert equals(compose(a, b), compose(b, a))


@pytest.mark.parametrize("n", [1, 2])
def test_normalizer_commutation_suite(n):
    rep = normalizer_commutation_check(n, samples=3, seed=1)
    assert rep.all_pass
    assert set(rep.section_counts()) == {
        "disjoint_supports_commute",
        "right_embedding_in_H",
        "conjugation_preserves_H",
    }
    assert len(rep.checks) == 12  # (1 witness + 3 samples) x 3 checks
