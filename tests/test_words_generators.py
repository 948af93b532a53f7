"""Unit tests for the generator families, word language, and check suites."""

import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nvcalc.dyadic_core import MAX_DIM, Rect, rect_Ir
from nvcalc.element_algebra import (
    Element,
    apply,
    compose,
    equals,
    identity,
    inverse,
    is_identity,
    is_identity_on,
    validate,
)
from nvcalc import words_generators
from nvcalc.words_generators import (
    GenSymbol,
    Word,
    corollary_checks,
    eval_word,
    format_word,
    gen_set_S,
    gen_set_S1,
    gen_set_S1prime,
    gen_set_S2,
    left_quarter,
    make_C,
    make_X,
    make_pi,
    make_pibar,
    parse_word,
    premise_checks,
    relation_suite,
)
from oracles import eval_word_fold

F = Fraction


def table(e):
    return [(p.dom.words, p.ran.words) for p in e.pieces]


# ---------------------------------------------------------------------------
# symbols and parsing


def test_gensymbol_validation():
    GenSymbol("X", 1, 0)
    GenSymbol("Pb", None, 3, -2)
    with pytest.raises(ValueError):
        GenSymbol("Q", None, 0)
    with pytest.raises(ValueError):
        GenSymbol("X", None, 0)  # X needs a coordinate
    with pytest.raises(ValueError):
        GenSymbol("P", 1, 0)  # P takes no coordinate
    with pytest.raises(ValueError):
        GenSymbol("P", None, -1)
    with pytest.raises(ValueError):
        GenSymbol("P", None, 0, 0)  # zero exponent


def test_parse_format_roundtrip():
    text = "X[1,0]^-1 C[2,2] P[3]^2 Pb[0]"
    w = parse_word(text)
    assert format_word(w) == text
    assert [s.kind for s in w.symbols] == ["X", "C", "P", "Pb"]
    assert [s.exp for s in w.symbols] == [-1, 1, 2, 1]
    assert parse_word(format_word(w)) == w


def test_parse_empty_word():
    assert parse_word("") == Word(())
    assert parse_word("   ") == Word(())
    assert format_word(Word(())) == ""
    assert is_identity(eval_word("", 2))


def test_parse_error_positions():
    with pytest.raises(ValueError, match="position 0"):
        parse_word("X[1]")
    with pytest.raises(ValueError, match="position 7"):
        parse_word("X[1,0] P[1,2]")
    with pytest.raises(ValueError, match="zero exponent"):
        parse_word("X[1,0]^0")
    with pytest.raises(ValueError, match="position 0"):
        parse_word("Pb[2,0]")
    digits = "1" * 5000  # past int()'s 4,300-digit limit: a bad term, not its error
    for term in (f"P[{digits}]", f"X[1,0]^{digits}", f"X[1,0]^-{digits}", f"C[{digits},1]"):
        with pytest.raises(ValueError) as err:
            parse_word(f"X[1,0] {term}")
        assert str(err.value) == f"syntax error at position 7: bad term {term!r}"
    assert parse_word(f"P[{'0' * 4299}1]") == Word((GenSymbol("P", None, 1),))


def test_memoised_terms_keep_their_own_positions_and_errors():
    """The term memo keeps a bad term's verdict, not its message: the term
    reports its own position in each word, raises again on every parse, and
    a zero exponent is still one after its base term was cached."""
    words_generators._parse_term.cache_clear()
    for _ in range(2):
        for text, at in (("P[1,2]", 0), ("X[1,0] P[1,2]", 7)):
            with pytest.raises(ValueError) as err:
                parse_word(text)
            assert str(err.value) == f"syntax error at position {at}: bad term 'P[1,2]'"
    assert parse_word("X[1,0] X[01,0]") == Word((GenSymbol("X", 1, 0),) * 2)
    with pytest.raises(ValueError) as err:
        parse_word("X[1,0] X[1,0]^0")
    assert str(err.value) == "syntax error at position 7: zero exponent in 'X[1,0]^0'"


@st.composite
def gen_symbols(draw):
    """Any symbol of the four kinds: indices up to 999, exponents +-1..+-999."""
    kind = draw(st.sampled_from(("X", "C", "P", "Pb")))
    d = draw(st.integers(1 + (kind == "C"), 999)) if kind in ("X", "C") else None
    exp = draw(st.integers(1, 999)) * draw(st.sampled_from((1, -1)))
    return GenSymbol(kind, d, draw(st.integers(0, 999)), exp)


@given(st.lists(gen_symbols(), max_size=6))
@settings(max_examples=200, deadline=None)
def test_parse_word_inverts_format_word(symbols):
    word = Word(tuple(symbols))
    assert parse_word(format_word(word)) == word


def test_term_memo_is_bounded():
    """Parsing more distinct terms than the memo holds leaves it at its bound."""
    bound = words_generators._parse_term.cache_parameters()["maxsize"]
    for i in range(bound + 50):
        assert parse_word(f"P[{i}]") == Word((GenSymbol("P", None, i),))
    assert words_generators._parse_term.cache_info().currsize <= bound


def test_exponent_one_formats_bare():
    assert GenSymbol("X", 2, 1, 1).format() == "X[2,1]"
    assert GenSymbol("X", 2, 1, -1).format() == "X[2,1]^-1"


# ---------------------------------------------------------------------------
# base tables (coordinate-1 word first, unmentioned coordinates empty)


def test_base_table_X1():
    assert table(make_X(1, 0, 1)) == [
        (("00",), ("0",)),
        (("01",), ("10",)),
        (("1",), ("11",)),
    ]


def test_base_table_X_higher_coordinate():
    assert table(make_X(2, 0, 2)) == [
        (("00", ""), ("0", "")),
        (("01", ""), ("1", "0")),
        (("1", ""), ("1", "1")),
    ]


def test_base_table_pi():
    assert table(make_pi(0, 1)) == [
        (("00",), ("00",)),
        (("01",), ("1",)),
        (("1",), ("01",)),
    ]


def test_base_table_pibar():
    assert table(make_pibar(0, 1)) == [(("0",), ("1",)), (("1",), ("0",))]


def test_base_table_C():
    assert table(make_C(2, 0, 2)) == [
        (("0", ""), ("", "0")),
        (("1", ""), ("", "1")),
    ]


def test_index_raising_structure():
    assert table(make_X(1, 1, 1)) == [
        (("000",), ("00",)),
        (("001",), ("010",)),
        (("01",), ("011",)),
        (("1",), ("1",)),
    ]
    got = table(make_pibar(2, 1))
    assert (("001",), ("000",)) in got and (("000",), ("001",)) in got
    assert (("01",), ("01",)) in got and (("1",), ("1",)) in got
    assert table(make_X(2, 1, 2)) == [
        (("000", ""), ("00", "")),
        (("001", ""), ("01", "0")),
        (("01", ""), ("01", "1")),
        (("1", ""), ("1", "")),
    ]
    assert table(make_C(2, 2, 2)) == [
        (("000", ""), ("00", "0")),
        (("001", ""), ("00", "1")),
        (("01", ""), ("01", "")),
        (("1", ""), ("1", "")),
    ]


@pytest.mark.parametrize("i", [1, 2, 3])
def test_raised_generators_fix_the_right_half(i):
    for n in (1, 2):
        for e in [make_X(1, i, n), make_pi(i, n), make_pibar(i, n)] + (
            [make_X(2, i, n), make_C(2, i, n)] if n == 2 else []
        ):
            assert is_identity_on(e, rect_Ir(n))
            assert validate(e)


def test_generator_range_errors():
    with pytest.raises(ValueError):
        make_X(2, 0, 1)
    with pytest.raises(ValueError):
        make_X(0, 0, 1)
    with pytest.raises(ValueError):
        make_C(2, 0, 1)  # C needs dimension >= 2
    with pytest.raises(ValueError):
        make_C(1, 0, 2)
    with pytest.raises(ValueError):
        make_X(1, -1, 1)
    with pytest.raises(ValueError):
        make_pi(-1, 1)


def test_generator_index_bound():
    """Indices 0..256 build (256^2 = MAX_PIECES); 257 and beyond raise, the
    coordinate check first."""
    assert len(make_pi(256, 1).pieces) == 259
    assert len(make_C(2, 256, 2).pieces) == 258
    for build in (
        lambda i: make_X(1, i, 1),
        lambda i: make_C(2, i, 2),
        lambda i: make_pi(i, 1),
        lambda i: make_pibar(i, 1),
    ):
        with pytest.raises(ValueError, match="index must be <= 256, got 257"):
            build(257)
        with pytest.raises(ValueError, match="index must be >= 0"):
            build(-1)
    with pytest.raises(ValueError, match="coordinate 2 out of range"):
        make_X(2, 10**8, 1)


# ---------------------------------------------------------------------------
# word evaluation


def test_eval_word_right_factor_first():
    w = eval_word("P[0] X[1,0]", 1)
    x, p0 = make_X(1, 0, 1), make_pi(0, 1)
    assert equals(w, compose(p0, x))
    pt = (F(1, 8),)
    assert apply(w, pt) == apply(p0, apply(x, pt)) == (F(1, 2),)
    assert apply(w, (F(5, 8),)) == (F(13, 32),)


def test_eval_word_exponents_and_inverses():
    x = make_X(1, 0, 1)
    assert eval_word("X[1,0]^2", 1) == compose(identity(1), compose(x, x))
    assert is_identity(eval_word("X[1,0]^-1 X[1,0]", 1))
    assert equals(eval_word("X[1,0]^-2", 1), inverse(compose(x, x)))


@st.composite
def signed_words(draw):
    """A dimension 1..3 and a word of 1..4 letters over every family that
    the dimension has, exponents in -9..9 (up to three squarings), at least
    one of them negative.  ``C[d,i]^k`` has 2^k + 1 pieces, so the C letters'
    exponents add up to at most 9 in absolute value, below ``MAX_PIECES``."""
    n = draw(st.integers(1, 3))
    symbols, c_left = [], 9
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("X", "P", "Pb") + (("C",) if n > 1 and c_left else ())))
        d = draw(st.integers(1 + (kind == "C"), n)) if kind in ("X", "C") else None
        top = c_left if kind == "C" else 9
        exp = draw(st.sampled_from([e for e in range(-top, top + 1) if e]))
        c_left -= abs(exp) if kind == "C" else 0
        symbols.append(GenSymbol(kind, d, draw(st.integers(0, 3)), exp))
    if all(s.exp > 0 for s in symbols):
        symbols[0] = replace(symbols[0], exp=-symbols[0].exp)
    return n, format_word(Word(tuple(symbols)))


@given(signed_words())
@example((2, "X[1,0] C[2,0]^-1"))  # the bare-list fold ends unsorted here
@example((1, "X[1,0]^-1 P[1]^2"))  # the fold starts from a square
@example((2, "C[2,1]^-4"))  # one letter: the fold is its fourth power
@settings(max_examples=80, deadline=None)
def test_eval_word_with_inverse_letters_matches_the_uncached_fold(case):
    """Cached generator inverses and powers by squaring give, table for
    table, the fold through ``inverse(make_*)`` one unit at a time."""
    n, word = case
    assert eval_word(word, n) == eval_word_fold(word, n)


@pytest.mark.parametrize("n", [1, 2])
def test_letter_bound_trips_where_pieces_times_n_times_longest_first_passes_it(
    monkeypatch, n
):
    """Each step of ``X[1,0]^k`` holds some X[1,0]^j, j <= k: j + 2 pieces
    with words of up to j + 1 letters.  So with the bound set to the letters
    of X[1,0]^30, the powers up to 30 evaluate and every later one is
    rejected, as is a letter folded onto X[1,0]^30 that lengthens its words."""
    for k in (1, 30, 31):
        g = eval_word(f"X[1,0]^{k}", n)
        longest = max(len(w) for p in g.pieces for w in p.dom_words + p.ran_words)
        assert (len(g.pieces), longest) == (k + 2, k + 1)
    bound = 32 * n * 31
    monkeypatch.setattr(words_generators, "MAX_LETTERS", bound)
    message = f"^a power or product would hold over {bound} letters$"
    for k in range(1, 41):
        if (k + 2) * n * (k + 1) <= bound:
            eval_word(f"X[1,0]^{k}", n)
        else:
            with pytest.raises(ValueError, match=message):
                eval_word(f"X[1,0]^{k}", n)
    eval_word("X[1,0]^30 P[0]", n)  # 32 pieces, words of up to 31 letters
    with pytest.raises(ValueError, match=message):  # a fold adds its bound:
        eval_word("P[0] X[1,0]^30", n)  # 33 pieces, words of up to 32 letters


@pytest.mark.parametrize(
    "word, n, power",
    [("P[0]^99999999999", 1, 1), ("P[0]^-99999999998", 2, 0), ("Pb[3]^99999999999", 1, 1)],
)
def test_torsion_powers_pass_the_letter_bound(word, n, power):
    """A torsion square's word bound doubles past ``MAX_LETTERS``, and the
    exact recount, which finds its words still short, lets it go on."""
    base = word.split("^")[0]
    assert equals(eval_word(word, n), eval_word(" ".join([base] * power), n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_empty_word_is_the_identity_table(n):
    assert eval_word("", n) == identity(n)


@pytest.mark.parametrize("word, n", [("P[0]", 0), ("X[1,0]", -1), ("", 0)])
def test_eval_word_rejects_dimension_below_one(word, n):
    with pytest.raises(ValueError, match="^dimension must be >= 1$"):
        eval_word(word, n)


@pytest.mark.parametrize(
    "build",
    [
        lambda n: make_X(2, 0, n),
        lambda n: make_C(2, 1, n),
        lambda n: make_pi(0, n),
        lambda n: make_pibar(3, n),
    ],
    ids=["X", "C", "P", "Pb"],
)
def test_generators_check_the_dimension_bound_first(build):
    """Each builder checks n against ``MAX_DIM`` before its first n-tuple."""
    with pytest.raises(ValueError, match=f"^dimension must be <= {MAX_DIM}, got 100000000$"):
        build(10**8)


def test_eval_word_rejects_out_of_range_coordinates():
    with pytest.raises(ValueError):
        eval_word("C[2,0]", 1)
    with pytest.raises(ValueError):
        eval_word("X[3,0]", 2)


def test_shift_relation_holds_pointwise():
    lhs = eval_word("P[0] X[1,0]", 1)
    rhs = eval_word("X[1,1] P[0] P[1]", 1)
    assert equals(lhs, rhs)
    for num in range(0, 16):
        pt = (F(num, 16),)
        assert apply(lhs, pt) == apply(rhs, pt)


# ---------------------------------------------------------------------------
# the relation suite


@pytest.mark.parametrize("n,count", [(1, 34), (2, 90), (3, 170)])
def test_relation_suite_counts_and_verdict(n, count):
    report = relation_suite(n, 3)
    assert len(report.checks) == count
    assert report.all_pass
    assert not report.findings


def test_relation_suite_sections():
    secs1 = set(relation_suite(1, 3).section_counts())
    assert secs1 == {
        "XX_shift",
        "YX_shift",
        "PX_commute",
        "PP_commute",
        "PbP_commute",
        "PbX_braid",
        "PX_braid",
    }
    secs2 = set(relation_suite(2, 3).section_counts())
    assert secs2 == secs1 | {"CX_shift", "PC_commute", "CX_braid"}


def test_relation_suite_argument_errors():
    with pytest.raises(ValueError):
        relation_suite(0, 3)
    with pytest.raises(ValueError):
        relation_suite(1, 2)


class _Evaluated(Exception):
    """A suite got past its index check to its first identity."""


@pytest.mark.parametrize("suite", [relation_suite, corollary_checks, premise_checks])
def test_suite_dimension_budget_is_checked_before_any_identity(monkeypatch, suite):
    """A suite's checks cost about n^3: ``MAX_SUITE_DIM`` starts evaluating,
    one above it raises before the first identity."""
    def first(*args):
        raise _Evaluated

    monkeypatch.setattr(words_generators, "_words_equal", first)
    monkeypatch.setattr(words_generators, "is_identity_on", first)
    top = words_generators.MAX_SUITE_DIM
    with pytest.raises(_Evaluated):
        suite(top)
    message = f"^dimension must be <= {top} for a suite, got {top + 1}$"
    with pytest.raises(ValueError, match=message):
        suite(top + 1)


@pytest.mark.parametrize(
    "suite, n, top, evaluates",
    [
        (relation_suite, 1, 255, False),
        (relation_suite, 2, 254, False),
        (corollary_checks, 1, 256, True),
    ],
    ids=["relations-n1", "relations-n2", "corollaries"],
)
def test_suite_index_bound_is_checked_before_any_identity(monkeypatch, suite, n, top, evaluates):
    """The largest index a suite builds is i_max + 1 for the relations at
    n = 1, i_max + 2 at n >= 2 (``C[d,i+2]``) and i_max for the corollaries
    (from i_max = 5 on).  It gets the generators' bound (256) before any
    word is evaluated: the top i_max passes it, one above it raises.  The top
    i_max of the corollaries (265 identities) then starts evaluating; the
    relations there list 227,464 and 517,150, over the identity budget, which
    stops them unevaluated."""
    import nvcalc.words_generators as wg

    calls = []
    spy = lambda lhs, rhs, n: calls.append(lhs + rhs) or True  # noqa: E731
    monkeypatch.setattr(wg, "_words_equal", spy)
    assert suite(n, 6).all_pass
    top_index = max(int(i) for c in calls for i in re.findall(r"(\d+)\]", c))
    assert top_index == 6 + 256 - top

    def first(lhs, rhs, n):
        raise _Evaluated

    monkeypatch.setattr(wg, "_words_equal", first)
    if evaluates:
        with pytest.raises(_Evaluated):
            suite(n, top)
    else:
        message = f"^the suite has over {wg.MAX_IDENTITIES} identities to check$"
        with pytest.raises(ValueError, match=message):
            suite(n, top)
    for i_max in (top + 1, 100000):
        message = f"index must be <= 256, got {i_max + 256 - top}"
        with pytest.raises(ValueError, match=message):
            suite(n, i_max)


@pytest.mark.parametrize("n, top", [(1, 256), (4, 128), (16, 64), (32, 45)])
def test_corollary_cost_budget_is_checked_before_any_identity(monkeypatch, n, top):
    """The corollaries' conjugations cost about n * i_max^2: the largest i_max
    with n * i_max^2 <= ``MAX_COROLLARY_COST`` reaches the identity list, one
    above it raises before the list is made, naming that i_max (at n = 1 the
    index bound, 256, comes first)."""
    def first(*args):
        raise _Evaluated

    monkeypatch.setattr(words_generators, "_checked", first)
    with pytest.raises(_Evaluated):
        corollary_checks(n, top)
    message = (
        f"the corollaries take n * i_max^2 <= 65536: i_max must be <= {top}"
        f" in dimension {n}, got {top + 1}"
    )
    if n == 1:
        message = "index must be <= 256, got 257"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        corollary_checks(n, top + 1)


def test_relation_suite_catches_corrupted_splitter(monkeypatch):
    import nvcalc.words_generators as wg

    orig = wg.make_X

    def corrupt(d, i, n):
        e = orig(d, i, n)
        if (d, i) == (1, 0):
            ps = list(e.pieces)
            a, b = ps[1], ps[2]
            ps[1] = type(a)(a.dom, b.ran)
            ps[2] = type(b)(b.dom, a.ran)
            return Element.from_pieces(ps)
        return e

    monkeypatch.setattr(wg, "make_X", corrupt)
    assert not wg.relation_suite(1, 3).all_pass


def test_relation_suite_catches_corrupted_halfswap(monkeypatch):
    import nvcalc.words_generators as wg

    orig = wg.make_pibar

    def corrupt(i, n):
        if i == 0:
            return identity(n)  # silently drop the swap
        return orig(i, n)

    monkeypatch.setattr(wg, "make_pibar", corrupt)
    assert not wg.relation_suite(1, 3).all_pass


# ---------------------------------------------------------------------------
# corollaries


@pytest.mark.parametrize("n,count", [(1, 13), (2, 32), (3, 57)])
def test_corollary_checks_counts_and_verdict(n, count):
    report = corollary_checks(n)
    assert len(report.checks) == count
    assert report.all_pass


def test_corollary_checks_reach_every_section():
    # i_max = 2 is the least index that still instantiates X_conjugation
    assert "X_conjugation" in corollary_checks(2, 2).section_counts()
    for i_max in (1, 0, -1):
        with pytest.raises(ValueError, match="i_max must be >= 2"):
            corollary_checks(1, i_max)


def test_conjugation_identity_independently():
    # X[1,2] = X[1,0]^-1 X[1,1] X[1,0], assembled without the word parser
    x0, x1 = make_X(1, 0, 1), make_X(1, 1, 1)
    chain = compose(compose(inverse(x0), x1), x0)
    assert equals(chain, make_X(1, 2, 1))


def test_recovery_identity_independently():
    # Pb[0] = P[0] Pb[1] X[1,0]^-1, assembled without the word parser
    chain = compose(compose(make_pi(0, 1), make_pibar(1, 1)), inverse(make_X(1, 0, 1)))
    assert equals(chain, make_pibar(0, 1))


# ---------------------------------------------------------------------------
# generating sets and premises


def test_generating_set_sizes():
    assert [lbl for lbl, _ in gen_set_S1(1)] == ["X[1,1]", "P[3]", "Pb[3]"]
    assert [lbl for lbl, _ in gen_set_S2(1)] == ["X[1,1] X[1,0]^-1", "P[0]"]
    assert len(gen_set_S(1)) == 5
    assert len(gen_set_S1(3)) == 7
    assert len(gen_set_S1prime(3)) == 4
    assert len(gen_set_S2(3)) == 4
    assert len(gen_set_S(3)) == 11
    labels = [lbl for lbl, _ in gen_set_S(3)]
    assert len(set(labels)) == len(labels)


#: The letters of S in order: S1, then S2.
S_LABELS = {
    1: ["X[1,1]", "P[3]", "Pb[3]", "X[1,1] X[1,0]^-1", "P[0]"],
    2: [
        "X[1,1]", "X[2,1]", "C[2,2]", "P[3]", "Pb[3]",
        "X[1,1] X[1,0]^-1", "X[2,1] X[2,0]^-1", "P[0]",
    ],
    3: [
        "X[1,1]", "X[2,1]", "X[3,1]", "C[2,2]", "C[3,2]", "P[3]", "Pb[3]",
        "X[1,1] X[1,0]^-1", "X[2,1] X[2,0]^-1", "X[3,1] X[3,0]^-1", "P[0]",
    ],
}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gen_set_S_is_S1_then_S2_with_distinct_labels(n):
    labels = [lbl for lbl, _ in gen_set_S(n)]
    assert labels == S_LABELS[n]
    assert len(set(labels)) == len(labels)
    assert gen_set_S(n) == gen_set_S1(n) + gen_set_S2(n)


def test_gen_set_elements_match_labels():
    for n in (1, 2):
        for lbl, e in gen_set_S(n):
            assert equals(e, eval_word(lbl, n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cached_generating_sets_match_a_fresh_evaluation(n):
    """S, S1 and S2 hold their labels and, table for table, the elements of a
    fresh evaluation; editing a returned list leaves the next call as it was."""
    s1_size = len(gen_set_S1prime(n)) + n
    for build, labels in (
        (gen_set_S, S_LABELS[n]),
        (gen_set_S1, S_LABELS[n][:s1_size]),
        (gen_set_S2, S_LABELS[n][s1_size:]),
    ):
        expected = [(lbl, eval_word_fold(lbl, n)) for lbl in labels]
        got = build(n)
        assert got == expected == [(lbl, eval_word(lbl, n)) for lbl in labels]
        got[0] = ("junk", identity(n))
        got.append(got[0])
        assert build(n) == expected


def test_left_quarter():
    assert left_quarter(1) == Rect(("00",))
    assert left_quarter(3) == Rect(("00", "", ""))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_premise_checks_pass(n):
    report = premise_checks(n)
    assert report.all_pass
    secs = report.section_counts()
    assert secs["identity_on_right_half"] == (len(gen_set_S1(n)),) * 2
    assert secs["identity_on_left_quarter"] == (len(gen_set_S2(n)),) * 2


def test_premise_findings_record_noncommuting_pairs():
    report = premise_checks(2)
    findings = report.findings
    assert [f.label for f in findings] == [
        "[P[0], X[1,1]] = 1",
        "[P[0], X[2,1]] = 1",
    ]
    assert all(not f.holds for f in findings)
    assert all(f.note for f in findings)
    # findings never affect the verdict
    assert report.all_pass
