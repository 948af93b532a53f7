"""End-to-end tests for the command-line interface."""

import hashlib
import json
import time
from unittest import mock

import pytest

from nvcalc import cli, element_algebra
from nvcalc.cli import main
from nvcalc.dyadic_core import MAX_DIM
from nvcalc.element_algebra import MAX_PIECES, element_to_json, random_element
from nvcalc.ends_cocycle import MAX_MEMBERS, sym_diff_truncated
from nvcalc.words_generators import MAX_LETTERS, eval_word


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# exit codes


def test_equal_words_exit_zero(capsys):
    code, payload, _ = run_json(
        capsys, ["equal", "--n", "1", "--w1", "Pb[0] Pb[0]", "--w2", ""]
    )
    assert code == 0
    assert payload["ok"] is True
    assert payload["report"] == {"equal": True}


def test_unequal_words_exit_one(capsys):
    code, payload, _ = run_json(
        capsys, ["equal", "--n", "1", "--w1", "Pb[0]", "--w2", ""]
    )
    assert code == 1
    assert payload["ok"] is False
    assert payload["report"] == {"equal": False}


def test_long_flag_spellings(capsys):
    code, payload, _ = run_json(
        capsys,
        ["equal", "--n", "1", "--word1", "X[1,0]^-1 X[1,0]", "--word2", ""],
    )
    assert code == 0 and payload["report"]["equal"] is True


def test_bad_word_exit_two(capsys):
    code, out, err = run(capsys, ["equal", "--n", "1", "--w1", "X[1", "--w2", ""])
    assert code == 2
    assert out == ""
    assert "error" in err


def test_missing_word_exit_two(capsys):
    code, _, err = run(capsys, ["equal", "--n", "1", "--w1", "X[1,0]"])
    assert code == 2 and "word2" in err


@pytest.mark.parametrize(
    "i, first, second, other",
    [
        (1, "--word1", "--w1", "--w2"),
        (1, "--w1", "--word1", "--w2"),
        (2, "--word2", "--w2", "--w1"),
        (2, "--w2", "--word2", "--w1"),
    ],
)
def test_operand_given_twice_exit_two(capsys, i, first, second, other):
    """An operand given by both its flag and its alias is refused, not
    silently resolved in favour of one of them."""
    argv = ["equal", "--n", "1", first, "P[0]", second, "X[1,0]", other, "P[0]"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: give --word{i} or --w{i}, not both\n"


def test_unknown_subcommand_exit_two(capsys):
    assert run(capsys, ["frobnicate"])[0] == 2


def test_missing_subcommand_exit_two(capsys):
    assert run(capsys, [])[0] == 2


def test_removed_simplify_subcommand_exit_two(capsys):
    """``eval`` prints the reduced table; there is no second name for it."""
    code, out, err = run(capsys, ["simplify", "--n", "1", "--word", "X[1,0]"])
    assert code == 2 and out == ""
    assert "invalid choice" in err


def test_version_exit_zero(capsys):
    code, out, _ = run(capsys, ["--version"])
    assert code == 0
    assert out.startswith("nvcalc ")


def test_unknown_flag_exit_two(capsys):
    assert run(capsys, ["eval", "--n", "1", "--word", "X[1,0]", "--bogus"])[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["relations", "--n", "1", "--imax", "2"],
        ["cocycle", "--n", "1", "--word", "X[1,0]", "--depth", "-1"],
        ["random", "--n", "1", "--size", "0"],
    ],
    ids=lambda argv: argv[0],
)
def test_library_value_error_exit_two(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["properness", "--n", "1", "--ball", "-1"], "ball radius must be >= 0"),
        (["properness", "--n", "1", "--ball", "1", "--depth", "-1"], "depth must be >= 0"),
        (["corollaries", "--n", "1", "--imax", "0"], "i_max must be >= 2"),
        (["corollaries", "--n", "2", "--imax", "1"], "i_max must be >= 2"),
        (["random", "--n", "0"], "dimension must be >= 1"),
        (["eval", "--n", "0", "--word", "X[1,0]"], "error: dimension must be >= 1\n"),
        (
            ["probe", "--n", "2", "--word", "Pb[0]", "--depths", "1100"],
            "the total at depth 1100 is too large for a float norm",
        ),
        (
            ["cocycle", "--n", "2", "--word", "X[1,0]", "--depth", "30"],
            f"error: the truncation at depth 30 has more than {MAX_MEMBERS} members\n",
        ),
        (["eval", "--n", "1", "--word", "P[99999999]"], "index must be <= 256"),
        (["relations", "--n", "1", "--imax", "100000"], "index must be <= 256"),
        (
            ["relations", "--n", "2", "--imax", "255"],
            "error: index must be <= 256, got 257 (i_max must be <= 254 in dimension 2)\n",
        ),
        (
            ["corollaries", "--n", "1", "--imax", "257"],
            "error: index must be <= 256, got 257 (i_max must be <= 256 in dimension 1)\n",
        ),
        (
            ["fprobe", "--n", "1", "--word", "X[1,0]", "--depth", "40"],
            f"depth 40 lists more than {MAX_MEMBERS} rectangles",
        ),
        (
            ["cocycle", "--n", "1", "--word", "X[1,0]", "--depth", "300000"],
            f"error: depth must be < {MAX_MEMBERS}, got 300000\n",
        ),
        (
            ["probe", "--n", "1", "--word", "X[1,0]", "--depths", "0..2000"],
            f"error: depths 0..2000 would write 2003001 counts, more than {MAX_MEMBERS}\n",
        ),
        (
            ["properness", "--n", "2", "--ball", "1", "--depth", "15000"],
            "error: the total at depth 15000 is too large to report\n",
        ),
        (["properness", "--n", "0", "--ball", "1"], "error: dimension must be >= 1\n"),
        (
            ["properness", "--n", "-1", "--ball", "1000"],
            "error: dimension must be >= 1\n",
        ),
        (
            ["fprobe", "--n", "2", "--word", "X[1,0]", "--depth", "-1"],
            "error: depth must be >= 0\n",
        ),
        (["relations", "--n", "1000"], "error: dimension must be <= 32 for a suite, got 1000\n"),
        (["corollaries", "--n", "33"], "error: dimension must be <= 32 for a suite, got 33\n"),
        (["premises", "--n", "33"], "error: dimension must be <= 32 for a suite, got 33\n"),
        (
            ["properness", "--n", "33", "--ball", "0"],
            "error: dimension must be <= 32 for a suite, got 33\n",
        ),
        (
            ["properness", "--n", "100000", "--ball", "0"],
            f"error: dimension must be <= {MAX_DIM}, got 100000\n",
        ),
        (
            ["relations", "--n", "32", "--imax", "254"],
            "error: the suite has over 16384 identities to check\n",
        ),
        (
            ["eval", "--n", "1", "--word", f"X[1,0] P[{'1' * 5000}]"],
            "error: syntax error at position 7: bad term 'P[11111",
        ),
        (
            ["corollaries", "--n", "32", "--imax", "256"],
            "error: the corollaries take n * i_max^2 <= 65536:"
            " i_max must be <= 45 in dimension 32, got 256\n",
        ),
    ],
    ids=[
        "properness-ball",
        "properness-depth",
        "corollaries-imax0",
        "corollaries-imax1",
        "random-n",
        "eval-n",
        "probe-depth",
        "cocycle-depth",
        "eval-index",
        "relations-index",
        "relations-imax-n2",
        "corollaries-imax-n1",
        "fprobe-depth",
        "cocycle-count-depth",
        "probe-count-budget",
        "properness-total",
        "properness-n0",
        "properness-n-negative",
        "fprobe-negative-depth",
        "relations-n",
        "corollaries-n",
        "premises-n",
        "properness-n33",
        "properness-n100000",
        "relations-identities",
        "eval-index-digits",
        "corollaries-cost",
    ],
)
def test_boundary_inputs_exit_two(capsys, argv, message):
    """Inputs that once gave a silent wrong answer (the radius-0 ball, a
    suite without its X_conjugation section), an internal error or another
    check's message (properness below dimension 1, a negative fprobe depth),
    and inputs past a size limit (a total too large for a float norm, a
    6.4e9-member list, a properness label past Python's 4,300-digit integer
    printing limit, a generator index of 10^8 whose table costs i^2 to
    build, a relation suite reaching index 100001, rejected before its first
    identity, a 2^41-rectangle enumeration, more than ``MAX_MEMBERS``
    counts, a suite past its dimension budget, whose checks cost about n^3,
    the properness ball past it, whose set S costs n^2 before the radius is
    read, a relation suite of 6.7e7 identities, a 5,000-digit index, the
    corollaries at n = 32 and i_max = 256, whose conjugations cost about
    n * i_max^2).  A suite's index and cost errors name the largest i_max
    allowed; those cases, the suites' dimension budget and the count budgets
    give the whole stderr line."""
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--word", "P[0]"],
        ["apply", "--word", "X[1,0]", "--point", "0"],
        ["random"],
        ["relations"],
        ["premises"],
        ["properness", "--ball", "0"],
    ],
    ids=lambda argv: argv[0],
)
def test_dimension_past_the_bound_exits_two(capsys, argv):
    """``--n`` past ``MAX_DIM`` is rejected before any n-tuple is built: the
    n-tuples of ``eval --n 4000000`` alone take seconds and gigabytes."""
    code, out, err = run(capsys, [*argv, "--n", "100000000"])
    assert (code, out) == (2, "")
    assert err == f"error: dimension must be <= {MAX_DIM}, got 100000000\n"


def test_word_past_the_piece_budget_exits_two(capsys):
    """``C[2,1]^20`` has 2^20 + 1 pieces; building it once took 38 s."""
    code, out, err = run(capsys, ["eval", "--n", "2", "--word", "C[2,1]^20"])
    assert code == 2
    assert out == ""
    assert err == f"error: a composition would exceed {MAX_PIECES} pieces\n"



@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--n", "1", "--word", "X[1,0]^65000"],
        ["eval", "--n", "1", "--word", "X[1,0]^99999999999"],
        ["eval", "--n", "3000", "--word", "C[2,1]^12"],
    ],
    ids=["X-65000", "X-1e11", "C-n3000"],
)
def test_word_past_the_letter_budget_exits_two(capsys, argv):
    """Powers with few pieces but long words: ``X[1,0]^65000`` was killed
    for memory, and ``X[1,0]^99999999999`` took 7 GB before ``MAX_PIECES``
    tripped."""
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: a power or product would hold over {MAX_LETTERS} letters\n"

APPLY_X = ["apply", "--n", "1", "--word", "X[1,0]", "--point"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (APPLY_X + ["1e-99999999"], "exponent above 4300"),
        (APPLY_X + ["1e-9999999999"], "exponent above 4300"),
        (APPLY_X + ["1e-4300"], "coordinate '1e-4300': over 4300 digits"),
        (APPLY_X + ["0.5e-4300"], "coordinate '0.5e-4300': over 4300 digits"),
        (APPLY_X + ["0." + "0" * 4300 + "1"], "over 4300 digits"),
        (["random", "--n", "1", "--size", "200000"], f"size must be in 1..{MAX_PIECES}"),
        (["properness", "--n", "1", "--ball", "100"], f"over {MAX_MEMBERS} words"),
        (["properness", "--n", "1", "--ball", "6"], f"over {MAX_MEMBERS} words"),
        (["eval", "--element-file", "NESTED"], "bad element file: maximum recursion"),
    ],
    ids=[
        "point-exp-8", "point-exp-10", "point-digits", "point-half-digits",
        "point-mantissa", "random-size", "ball-100", "ball-6", "nested",
    ],
)
def test_unbounded_inputs_exit_two_at_once(tmp_path, capsys, argv, message):
    """Inputs whose cost had no bound: a point whose exponent ``Fraction``
    expands digit by digit, a point whose reduced fraction or mantissa passes
    Python's 4,300-digit limit on int strings (once its "Exceeds the limit"
    text), a random table past ``MAX_PIECES``, a word ball
    whose free-group bound passes ``MAX_MEMBERS``, and an element file
    nested past the recursion limit (once a traceback)."""
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200_000, encoding="utf-8")
    argv = [str(nested) if a == "NESTED" else a for a in argv]
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "point, value", [("2.5e-1", "1/4"), ("25E-2", "1/4"), ("1e-0004", "1/10000")]
)
def test_apply_point_with_an_exponent(capsys, point, value):
    code, payload, _ = run_json(capsys, APPLY_X + [point])
    assert code == 0
    assert payload["report"]["point"] == [value]


@pytest.mark.parametrize("point, head", [("1e-4299", "1/1"), ("1.5e-4299", "3/2")])
def test_apply_point_at_the_digit_bound(capsys, point, head):
    """The reduced denominators 10^4299 and 2 * 10^4299 have 4,300 digits,
    the most that print; 1.5e-4299 is 15/10^4300 before it is reduced."""
    code, payload, _ = run_json(capsys, APPLY_X + [point])
    assert code == 0
    assert payload["report"]["point"] == [head + "0" * 4299]


def test_apply_image_past_the_digit_bound_exits_two(capsys):
    """The point 1e-4299 prints, but under ``X[1,0]^-4`` its image has the
    denominator 16 * 10^4299, 4,301 digits (once Python's "Exceeds the
    limit" text)."""
    argv = ["apply", "--n", "1", "--word", "X[1,0]^-4", "--point", "1e-4299"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: image of point '1e-4299': over 4300 digits\n"


# ---------------------------------------------------------------------------
# computation commands


def test_eval_reports_reduced_table(capsys):
    code, payload, _ = run_json(capsys, ["eval", "--n", "1", "--word", "X[1,0]"])
    assert code == 0
    rep = payload["report"]
    assert rep["piece_count"] == 3
    assert rep["depth"] == 2
    assert rep["element"]["pieces"] == [
        {"dom": ["00"], "ran": ["0"]},
        {"dom": ["01"], "ran": ["10"]},
        {"dom": ["1"], "ran": ["11"]},
    ]


def test_eval_requires_n_with_word(capsys):
    assert run(capsys, ["eval", "--word", "X[1,0]"])[0] == 2


def test_apply_point(capsys):
    code, payload, _ = run_json(
        capsys,
        ["apply", "--n", "1", "--word", "P[0] X[1,0]", "--point", "5/8"],
    )
    assert code == 0
    assert payload["report"] == {"point": ["5/8"], "image": ["13/32"]}


def test_apply_point_validation(capsys):
    base = ["apply", "--n", "2", "--word", "Pb[0]"]
    assert run(capsys, base + ["--point", "1/2"])[0] == 2  # wrong arity
    assert run(capsys, base + ["--point", "3/2,0"])[0] == 2  # outside cube
    assert run(capsys, base + ["--point", "x,0"])[0] == 2  # not rational


def test_support_command(capsys):
    code, payload, _ = run_json(
        capsys, ["support", "--n", "1", "--word", "Pb[0]"]
    )
    assert code == 0
    assert payload["report"] == {"support": [["0"], ["1"]], "count": 2}


def test_cocycle_command_frozen(capsys):
    code, payload, _ = run_json(
        capsys, ["cocycle", "--n", "1", "--word", "X[1,0]", "--depth", "8"]
    )
    assert code == 0
    rep = payload["report"]
    assert rep["verdict"] == "STABLE(1)"
    assert rep["total"] == 2
    assert rep["out_side"] == [["1"]]
    assert rep["in_side"] == [["0"]]
    assert rep["open_finding"] is None


def test_probe_depth_ranges(capsys):
    code, payload, _ = run_json(
        capsys, ["probe", "--n", "2", "--word", "Pb[0]", "--depths", "2..4"]
    )
    assert code == 0
    surveys = payload["report"]["surveys"]
    assert [s["depth"] for s in surveys] == [2, 3, 4]
    assert [s["total"] for s in surveys] == [12, 28, 60]
    assert all(s["verdict"] == "GROWING" for s in surveys)
    assert all(s["open_finding"] for s in surveys)
    assert all("out_side" not in s for s in surveys)


@pytest.mark.parametrize("n, word", [(2, "Pb[0]"), (2, "X[1,0]"), (1, "X[1,0] P[0]")])
def test_deep_probe_agrees_with_member_lists(capsys, n, word):
    """A probe to depth 40 (2^40-scale totals, counted in closed form) reads
    at depths 0..8 what a fresh expanded truncation at each depth reads."""
    code, payload, _ = run_json(
        capsys, ["probe", "--n", str(n), "--word", word, "--depths", "0..40"]
    )
    assert code == 0
    surveys = payload["report"]["surveys"]
    assert [s["depth"] for s in surveys] == list(range(41))
    g = eval_word(word, n)
    for d in range(9):
        expected = sym_diff_truncated(g, d).to_dict()
        del expected["out_side"], expected["in_side"]
        assert surveys[d] == expected


def test_probe_count_budget_is_exact(capsys, monkeypatch):
    """A survey at depth d writes d + 1 counts.  The budget admits a depth
    list writing exactly ``MAX_MEMBERS`` counts, and rejects one more before
    any search or any list of depths, however long the range."""
    monkeypatch.setattr(cli, "MAX_MEMBERS", 10)
    base = ["probe", "--n", "1", "--word", "X[1,0]", "--depths"]
    for depths in ("0..3", "9", "1..3"):  # 10, 10 and 9 counts
        assert run(capsys, base + [depths])[0] == 0
    with mock.patch("nvcalc.cli.cocycle_counts") as search:
        for depths, written in (
            ("0..4", 15),
            ("10", 11),
            ("4..5", 11),
            ("0..1000000000000", 500000000001500000000001),
        ):
            code, out, err = run(capsys, base + [depths])
            assert code == 2 and out == ""
            assert err == (
                f"error: depths {depths} would write {written} counts, more than 10\n"
            )
    assert not search.called


def test_probe_single_depth_and_errors(capsys):
    code, payload, _ = run_json(
        capsys, ["probe", "--n", "1", "--word", "X[1,0]", "--depths", "3"]
    )
    assert code == 0
    assert [s["depth"] for s in payload["report"]["surveys"]] == [3]
    assert run(capsys, ["probe", "--n", "1", "--word", "X[1,0]", "--depths", "a..b"])[0] == 2
    assert run(capsys, ["probe", "--n", "1", "--word", "X[1,0]", "--depths", "4..2"])[0] == 2


def test_relations_corollaries_premises_commands(capsys):
    for cmd, extra in (("relations", []), ("corollaries", []), ("premises", [])):
        code, payload, _ = run_json(capsys, [cmd, "--n", "1"] + extra)
        assert code == 0
        assert payload["ok"] is True
        assert payload["report"]["all_pass"] is True
    code, payload, _ = run_json(capsys, ["relations", "--n", "1", "--imax", "4"])
    assert code == 0
    assert payload["report"]["params"] == {"i_max": 4}


def test_fprobe_command(capsys):
    code, payload, _ = run_json(
        capsys,
        ["fprobe", "--n", "2", "--word", "Pb[0]", "--depth", "1"],
    )
    assert code == 0
    rep = payload["report"]
    assert rep["members"] == [["", "0"], ["", "1"]]
    assert len(rep["grid_violations"]) == 3
    assert rep["injective"] is True
    code2, payload2, _ = run_json(
        capsys,
        [
            "fprobe", "--n", "2", "--word", "Pb[0]", "--depth", "1",
            "--corner-mode", "half_open",
        ],
    )
    assert code2 == 0
    assert payload2["config"]["corner_mode"] == "half_open"


def test_fprobe_value_table_bound_exits_two(capsys):
    """Dimension 30 at depth 2 would list 1,920 rectangles with 30 probe
    points of 30 coordinates each; the run stops before the first."""
    argv = ["fprobe", "--n", "30", "--word", "P[0]", "--depth", "2"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: depth 2 in dimension 30: over 1048576 probe values\n"


def test_properness_command(capsys):
    code, payload, _ = run_json(capsys, ["properness", "--n", "1", "--ball", "2"])
    assert code == 0
    rep = payload["report"]
    assert rep["all_pass"] is True
    assert rep["params"]["num_elements"] == 44
    assert rep["params"]["depth"] == "adaptive"
    slack = rep["params"]["bound_slack"]
    assert sum(count for _, count in slack) == rep["params"]["num_stable"]
    assert all(s >= 0 for s, _ in slack)
    assert slack == sorted(slack)


def test_random_command_deterministic(capsys):
    a = run(capsys, ["random", "--n", "2", "--seed", "7"])
    b = run(capsys, ["random", "--n", "2", "--seed", "7"])
    c = run(capsys, ["random", "--n", "2", "--seed", "8"])
    assert a[0] == b[0] == c[0] == 0
    assert a[1] == b[1]
    assert a[1] != c[1]
    payload = json.loads(a[1])
    assert payload["report"]["piece_count_raw"] == 6  # default size


# ---------------------------------------------------------------------------
# element files


def test_element_file_roundtrip(tmp_path, capsys):
    g = random_element(2, 5, 21)
    path = tmp_path / "g.json"
    path.write_text(element_to_json(g), encoding="utf-8")
    code, payload, _ = run_json(
        capsys, ["eval", "--element-file", str(path)]
    )
    assert code == 0
    assert payload["config"]["n"] == 2
    code2, payload2, _ = run_json(
        capsys,
        ["apply", "--element-file", str(path), "--point", "1/4,1/4"],
    )
    assert code2 == 0
    assert payload2["report"]["point"] == ["1/4", "1/4"]


def test_element_file_dimension_cross_check(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(element_to_json(random_element(2, 4, 0)), encoding="utf-8")
    assert run(capsys, ["eval", "--n", "3", "--element-file", str(path)])[0] == 2


def test_element_file_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run(capsys, ["eval", "--element-file", str(missing)])[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 1}', encoding="utf-8")
    assert run(capsys, ["eval", "--element-file", str(bad)])[0] == 2


@pytest.mark.parametrize(
    "pieces, argv",
    [
        (  # overlapping domains
            [{"dom": ["0"], "ran": ["0"]}, {"dom": ["0"], "ran": ["1"]}],
            ["cocycle", "--depth", "3"],
        ),
        ([{"dom": ["0"], "ran": ["0"]}], ["apply", "--point", "3/4"]),  # no cover
    ],
    ids=["overlap", "gap"],
)
def test_element_file_must_partition_the_cube(tmp_path, capsys, pieces, argv):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 1, "pieces": pieces}), encoding="utf-8")
    code, out, err = run(capsys, argv + ["--element-file", str(path)])
    assert code == 2
    assert out == ""
    assert err == "error: bad element file: pieces do not partition the cube\n"


#: The shape error of a file that is not an object with ``n`` and ``pieces``.
TOP_LEVEL = "the top level must be an object with n and a pieces array"

#: The n = 2 quarters ("0","1") and ("1","0") swapped, each written as one
#: string: read letter by letter, this file is a valid element.
QUARTER_SWAP = [("00", "00"), ("01", "10"), ("10", "01"), ("11", "11")]


@pytest.mark.parametrize(
    "data, message",
    [
        (
            {"n": 2, "pieces": [{"dom": d, "ran": r} for d, r in QUARTER_SWAP]},
            "dom and ran must be arrays of words",
        ),
        ({"n": True, "pieces": [{"dom": [""], "ran": [""]}]}, "n must be an integer, not bool"),
        ({"n": "1", "pieces": [{"dom": [""], "ran": [""]}]}, "n must be an integer, not str"),
        ([1], TOP_LEVEL),
        (None, TOP_LEVEL),
        ({"n": 1}, TOP_LEVEL),
        ({"n": 1, "pieces": "ab"}, TOP_LEVEL),
        ({"n": 1, "pieces": [["0"]]}, "each piece must be an object with dom and ran"),
    ],
    ids=[
        "string-dom", "bool-n", "string-n",
        "array", "null", "no-pieces", "string-pieces", "array-piece",
    ],
)
def test_element_file_fields_must_have_json_types(tmp_path, capsys, data, message):
    """A string ``dom`` once read as one word per letter, ``"n": true`` as
    n = 1, and ``"n": "1"`` gave "declared dimension 1 != piece dimension 1".
    A file of the wrong shape exited with Python's own error text, such as
    "'NoneType' object is not subscriptable", which names no field."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, ["eval", "--element-file", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: bad element file: {message}\n"


def test_element_file_bad_word_exit_two(tmp_path, capsys):
    pieces = [{"dom": ["0a"], "ran": ["0"]}, {"dom": ["1"], "ran": ["1"]}]
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 1, "pieces": pieces}), encoding="utf-8")
    code, out, err = run(capsys, ["eval", "--element-file", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "'0a'" in err


def test_large_element_file_validates_through_the_halving_tree(tmp_path, capsys):
    """Each piece is checked against its halving-tree candidates, not every
    other piece: the all-pairs check took over 10 s at 4,096 pieces."""
    path = tmp_path / "g.json"
    path.write_text(element_to_json(random_element(2, 16384, 1)), encoding="utf-8")
    start = time.perf_counter()
    code, payload, _ = run_json(capsys, ["support", "--element-file", str(path)])
    assert time.perf_counter() - start < 5
    assert code == 0 and payload["config"]["n"] == 2


def test_element_file_with_overlapping_domains_in_two_dimensions(tmp_path, capsys):
    """Half-volume domains that meet in a quarter: the volumes sum to 1."""
    pieces = [{"dom": ["0", ""], "ran": ["0", ""]}, {"dom": ["", "1"], "ran": ["1", ""]}]
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 2, "pieces": pieces}), encoding="utf-8")
    code, out, err = run(capsys, ["support", "--element-file", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: bad element file: pieces do not partition the cube\n"


def test_word_and_element_file_are_exclusive(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(element_to_json(random_element(1, 3, 1)), encoding="utf-8")
    code = run(
        capsys,
        ["eval", "--n", "1", "--word", "X[1,0]", "--element-file", str(path)],
    )[0]
    assert code == 2


# ---------------------------------------------------------------------------
# output handling and determinism


def test_json_output_byte_identical_across_runs(capsys):
    argv = ["relations", "--n", "2"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2
    argv2 = ["cocycle", "--n", "1", "--word", "X[1,0] Pb[0]", "--depth", "6"]
    _, o1, _ = run(capsys, argv2)
    _, o2, _ = run(capsys, argv2)
    assert o1 == o2


#: SHA-256 of the JSON envelope of sweeps whose output must not change when
#: the engine under them is rebuilt, and of the README's command examples.
#: Update a hash only with a change that means to change that command's
#: output, and say so.
PINNED_OUTPUTS = {
    "cocycle-n2": (
        ["cocycle", "--n", "2", "--word", "X[1,0]", "--depth", "9"],
        "3122664d082d8f97c0c2acea8838802d6191eaf0acd8c21dba1c42fb508848b3",
    ),
    "cocycle-n1": (
        ["cocycle", "--n", "1", "--word", "X[1,0] Pb[0]", "--depth", "8"],
        "95dcebc4d7b6c7c75156ce567ce3ca3e24c29dd05944af77915824ed55658e78",
    ),
    "properness-n1": (
        ["properness", "--n", "1", "--ball", "3"],
        "23326a65f63fa2251036c4756d5488dcf100a84131136070d9a9855893377cc7",
    ),
    "properness-n2": (
        ["properness", "--n", "2", "--ball", "1"],
        "f2383b6c5139a8a9dde32d34e258ab49e3df2191229ceb962e21c26dfd83ed0c",
    ),
    "probe-n1": (
        ["probe", "--n", "1", "--word", "X[1,0] P[0]", "--depths", "0..7"],
        "b5456b6c52ecb39e3c9b9c10290fbfc62ad0cdd173f48930604d4834648e600d",
    ),
    "fprobe-n2": (
        ["fprobe", "--n", "2", "--word", "X[1,0]", "--depth", "4"],
        "4a84360a59627ae5fa4df249fc2fb2c0111366c42c282fac75b9685ad62a988f",
    ),
    "cocycle-n3": (
        ["cocycle", "--n", "3", "--word", "X[1,0]", "--depth", "6"],
        "b335cc99796c856c05607f17b46e520b739d45cae93d15e3aa22c3d5a81bb848",
    ),
    "cocycle-n2-C": (
        ["cocycle", "--n", "2", "--word", "C[2,0]", "--depth", "10"],
        "331bb538940c2fca0b71264a3995006a89cefb308975697927b1b3fa3e141e4e",
    ),
    "probe-n2": (
        ["probe", "--n", "2", "--word", "Pb[0]", "--depths", "0..10"],
        "8a9843db27a54114d34454b542b17358b1b43a6ef30212a5f8b44a373e7e5a3b",
    ),
    "properness-n2-ball2": (
        ["properness", "--n", "2", "--ball", "2"],
        "66c2b4a2a9578045682ff36c6abe80895f01db314d919577a839a0c447938869",
    ),
    "probe-n2-12": (
        ["probe", "--n", "2", "--word", "Pb[0]", "--depths", "0..12"],
        "ab016203dd624697d676cfdf03823c834562691fdd3687c315c761241866612d",
    ),
    "properness-n3": (
        ["properness", "--n", "3", "--ball", "1"],
        "1eedb2741a61fbd4678c722897fe1e91a9c0f1e6f5daef000fb8bf1087ebe037",
    ),
    "fprobe-n1-half-open": (
        [
            "fprobe", "--n", "1", "--word", "P[0]", "--depth", "6",
            "--corner-mode", "half_open",
        ],
        "f54ca2e1f6b42bcc8d16798b5d24e0e96d6033e782d3061a276e6d44032fbcd7",
    ),
    "eval-n2": (
        ["eval", "--n", "2", "--word", "C[2,0] Pb[0]"],
        "c77886ef7029021fdfd290168b6cafb7ab9083fe5b66af1db642380054c41c14",
    ),
    # the README's examples that need no element file
    "readme-eval": (
        ["eval", "--n", "1", "--word", "X[1,0] P[2]^-1"],
        "871121a4786253729f051b0eafdddef47183735fb9cf497880c07937fea3a751",
    ),
    "readme-equal": (
        ["equal", "--n", "1", "--w1", "Pb[0] Pb[0]", "--w2", ""],
        "d5f42c496db43953df3d062addc00da17a85951dc77ceb3babed94df3e57de2f",
    ),
    "readme-apply": (
        ["apply", "--n", "2", "--word", "C[2,0]", "--point", "1/4,0"],
        "a89d4b8ac10cb4384e698208aebf298270ad241490143d2e7cd9703536a02a49",
    ),
    "readme-support": (
        ["support", "--n", "1", "--word", "Pb[3]"],
        "c49804b2fcea54c4e86757c16dee59618031e3ee24d2daebb2392a3af67a1ac0",
    ),
    "readme-relations": (
        ["relations", "--n", "3", "--imax", "3"],
        "0adb94a1f6404e86748c7d5cd9110a1278c0975e321c31956c2600793adf5ce0",
    ),
    "readme-corollaries": (
        ["corollaries", "--n", "2"],
        "8ee6bdf3a78aa81639c2b56e858283e53ce4af18726bf1c672aefbec7c075292",
    ),
    "readme-premises": (
        ["premises", "--n", "3"],
        "febc45e2eebe479f11c0d209694ca144ec652e5026b2da2d1b983c0bd6caf4ec",
    ),
    "readme-cocycle": (
        ["cocycle", "--n", "1", "--word", "X[1,0]", "--depth", "8"],
        "8288c914df950753e6d11f062b3669af4e2d77393cc85bc6deba09942208556e",
    ),
    "readme-probe": (
        ["probe", "--n", "2", "--word", "Pb[0]", "--depths", "2..6"],
        "aec49ab9b66e25df273b76a655443bbc18760c69da10f863009c24e72990c3ea",
    ),
    "readme-fprobe": (
        [
            "fprobe", "--n", "2", "--word", "Pb[0]", "--depth", "2",
            "--corner-mode", "closed",
        ],
        "2971c2c264c449c2382ae4e1086d7a6146d298c63546bd556454c27120ac2e33",
    ),
    "readme-properness": (
        ["properness", "--n", "1", "--ball", "4"],
        "4a9d9d897a72aa1d484f6c9c4e244462e7f0eac39fd0e45d410acc3e5f9b7166",
    ),
    "readme-random": (
        ["random", "--n", "2", "--size", "6", "--seed", "7"],
        "d553f8e23cf3be2920df59e3f8f702ddf4bafde8109fbc870da634cd2a69cd5a",
    ),
}


@pytest.mark.parametrize(
    "argv, digest", PINNED_OUTPUTS.values(), ids=list(PINNED_OUTPUTS)
)
def test_json_output_pinned_across_commits(capsys, argv, digest):
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


#: SHA-256 of the ``--format text`` stdout of every subcommand, on the
#: README's commands.  Update a hash only with a change that means to change
#: that text.
PINNED_TEXT = {
    "eval": (
        ["eval", "--n", "1", "--word", "X[1,0] P[2]^-1"],
        "34165971aca9ea4131bd4961d245ca4316c96a8a2cd119f63962846fe7604ab6",
    ),
    "equal": (
        ["equal", "--n", "1", "--w1", "Pb[0] Pb[0]", "--w2", ""],
        "465b5d17af7ecc1179b77787d06757942d57409510be4f1640dc396465c16234",
    ),
    "apply": (
        ["apply", "--n", "2", "--word", "C[2,0]", "--point", "1/4,0"],
        "f1e112609c38d4258450e7193101b9fa733ed41dab84b7aefa2417528b0846b7",
    ),
    "support": (
        ["support", "--n", "1", "--word", "Pb[3]"],
        "8085dcc5528f745c7604e0ba1a0531659c03df183a593ee064e829f1e2c2a785",
    ),
    "relations": (
        ["relations", "--n", "3", "--imax", "3"],
        "8f6c3e41a85c3c2451a5a71174ba4ca219edb98fd2aa4de64028259d66c7cb5f",
    ),
    "corollaries": (
        ["corollaries", "--n", "2"],
        "a0240857341f36d5c0dbb89a7b191905690b3696ee2588ebb218b476061cb00e",
    ),
    "premises": (
        ["premises", "--n", "3"],
        "ac75bc576addde176bd52be0b9e3c8b28896340483d2c4c352cc6a64d46ec95f",
    ),
    "cocycle": (
        ["cocycle", "--n", "1", "--word", "X[1,0]", "--depth", "8"],
        "875e3d96edfe85dd4c16d74b17a7ce116c78e37abaa2f04ca6dd46fabb17b641",
    ),
    "probe": (
        ["probe", "--n", "2", "--word", "Pb[0]", "--depths", "2..6"],
        "dabd855f542da9acd69e14383ff13c6f7c8ce573ebde36b42e6a6d8c51ba0120",
    ),
    "fprobe": (
        [
            "fprobe", "--n", "2", "--word", "Pb[0]", "--depth", "2",
            "--corner-mode", "closed",
        ],
        "5dfb389e1d9ef1844901f0a3bd4454ec0081c781f7d7d2b89a113d5da9b9fe5e",
    ),
    "properness": (
        ["properness", "--n", "1", "--ball", "4"],
        "18cb72b1a7f091acd91f70fbc691afbdefc4d8b7d184fc1cabc7f671466c4229",
    ),
    "random": (
        ["random", "--n", "2", "--size", "6", "--seed", "7"],
        "656241d7301132eb551e731beebafa3fd6b502001954b4218e4f046a8140102e",
    ),
}


@pytest.mark.parametrize("argv, digest", PINNED_TEXT.values(), ids=list(PINNED_TEXT))
def test_text_output_pinned_across_commits(capsys, argv, digest):
    code, out, _ = run(capsys, argv + ["--format", "text"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_pins_cover_every_subcommand():
    assert set(PINNED_TEXT) == set(cli.COMMANDS)


@pytest.mark.parametrize(
    "name, argv",
    [
        ("properness_bound_check", ["properness", "--n", "1", "--ball", "1"]),
        ("relation_suite", ["relations", "--n", "1"]),
    ],
)
def test_runners_look_up_library_functions_when_they_run(capsys, name, argv):
    """A patch of ``nvcalc.cli.<name>`` (the benchmark tracer makes one)
    reaches the call: no command row holds the function object itself."""
    with mock.patch(f"nvcalc.cli.{name}", wraps=getattr(cli, name)) as spy:
        code, out, _ = run(capsys, argv)
    assert code == 0 and out
    spy.assert_called_once()


def test_in_process_runs_carry_no_state(capsys):
    """The parser is built once per process, and no run leaves anything in
    it: after ``random --seed 5``, ``random`` prints seed 0's bytes, and after
    a text run and a usage error a JSON run prints what it prints first."""
    sequences = (
        (["random", "--n", "1", "--seed", "5"], ["random", "--n", "1"]),
        (
            ["eval", "--n", "1", "--word", "X[1,0]", "--format", "text"],
            ["eval", "--n", "1", "--word", "X[1,0]", "--bogus"],
            ["eval", "--n", "1", "--word", "X[1,0]"],
        ),
    )
    runs = []
    for argvs in sequences:
        first = []
        for argv in argvs:
            cli.build_parser.cache_clear()
            first.append(run(capsys, argv))
        runs.append([run(capsys, argv) for argv in argvs])
        assert runs[-1] == first
    (seeded, unseeded), (text, usage, plain) = runs
    assert unseeded == run(capsys, ["random", "--n", "1", "--seed", "0"]) != seeded
    assert usage[0] == 2 and "error: unrecognized arguments: --bogus" in usage[2]
    assert text[1] != plain[1]
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--n", "2", "--word", "C[2,0] Pb[0]"],
        ["random", "--n", "2", "--seed", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_summary_reduces_the_table_once(capsys, argv):
    """``eval`` and ``random`` merge the table once and read its depth from
    the merged table."""
    with mock.patch(
        "nvcalc.element_algebra.merge_pieces", wraps=element_algebra.merge_pieces
    ) as merge:
        code, out, _ = run(capsys, argv)
    assert code == 0 and out
    assert merge.call_count == 1


def test_envelope_shape(capsys):
    _, payload, _ = run_json(capsys, ["eval", "--n", "1", "--word", "P[0]"])
    assert set(payload) == {"tool", "version", "command", "config", "ok", "report"}
    assert payload["tool"] == "nvcalc"
    assert payload["command"] == "eval"
    assert payload["config"]["n"] == 1
    assert payload["config"]["word"] == "P[0]"
    assert "threads" not in payload["config"]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(
        capsys,
        ["eval", "--n", "1", "--word", "X[1,0]", "--output", str(target)],
    )
    assert code == 0
    assert out == ""  # everything went to the file
    on_disk = json.loads(target.read_text(encoding="utf-8"))
    assert on_disk["command"] == "eval"
    code2, out2, _ = run(capsys, ["eval", "--n", "1", "--word", "X[1,0]"])
    assert target.read_text(encoding="utf-8") == out2


def test_output_file_unwritable_exit_two(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "out.json"
    code = run(
        capsys,
        ["eval", "--n", "1", "--word", "X[1,0]", "--output", str(target)],
    )[0]
    assert code == 2


def test_text_format(capsys):
    code, out, _ = run(
        capsys,
        ["cocycle", "--n", "1", "--word", "X[1,0]", "--depth", "4",
         "--format", "text"],
    )
    assert code == 0
    assert "verdict: STABLE(1)" in out
    assert "RESULT: PASS" in out
    code2, out2, _ = run(
        capsys,
        ["equal", "--n", "1", "--w1", "Pb[0]", "--w2", "", "--format", "text"],
    )
    assert code2 == 1
    assert "RESULT: FAIL" in out2


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--n", "1", "--word", "X[1,0]"],
        ["equal", "--n", "1", "--w1", "Pb[0]", "--w2", ""],
        ["apply", "--n", "1", "--word", "X[1,0]", "--point", "1/4"],
        ["support", "--n", "1", "--word", "Pb[1]"],
        ["relations", "--n", "1"],
        ["corollaries", "--n", "1"],
        ["premises", "--n", "2"],
        ["cocycle", "--n", "2", "--word", "Pb[0]", "--depth", "2"],
        ["probe", "--n", "1", "--word", "X[1,0]", "--depths", "0..3"],
        ["fprobe", "--n", "2", "--word", "Pb[0]", "--depth", "1"],
        ["properness", "--n", "1", "--ball", "1"],
        ["random", "--n", "2", "--seed", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_text_format_every_command(capsys, argv):
    code, out, _ = run(capsys, argv + ["--format", "text"])
    assert code in (0, 1)
    assert out.startswith("nvcalc ")
    assert out.endswith(("RESULT: PASS\n", "RESULT: FAIL\n"))


def test_text_format_surfaces_open_finding(capsys):
    code, out, _ = run(
        capsys,
        ["probe", "--n", "2", "--word", "Pb[0]", "--depths", "2..3",
         "--format", "text"],
    )
    assert code == 0
    assert "open finding" in out
