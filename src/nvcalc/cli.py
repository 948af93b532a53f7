"""Command-line interface: exact computations with deterministic JSON output.

Each subcommand is one row of ``COMMANDS``; ``nvcalc --help`` lists them.

Exit status: 0 when every asserted check passed (or the command is pure
computation), 1 when any asserted check failed (for ``equal``: the words
disagree), 2 on usage errors and invalid inputs.  Output is JSON by default
(``--format text`` for a human summary); with identical configuration and
seed the JSON output is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Any, Callable, NamedTuple

from nvcalc import __version__
from nvcalc.dyadic_core import Point
from nvcalc.element_algebra import (
    Element,
    apply as apply_element,
    element_depth,
    element_from_json,
    element_to_json_dict,
    equals,
    random_element,
    simplify,
    support,
    validate,
)
from nvcalc.ends_cocycle import (
    MAX_MEMBERS,
    TruncatedCocycle,
    cocycle_counts,
    f_P_probe,
    properness_bound_check,
    sym_diff_truncated,
)
from nvcalc.words_generators import (
    corollary_checks,
    eval_word,
    premise_checks,
    relation_suite,
)

__all__ = ["main"]


class UsageError(Exception):
    """Invalid arguments or inputs; maps to exit status 2."""


def _parse_point(text: str, n: int) -> Point:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise UsageError(f"point has {len(parts)} coordinates, expected {n}")
    coords = []
    for p in parts:
        # Fraction expands 10**exponent and the report prints the reduced
        # fraction: bound both as Python bounds int digits (4,300)
        mantissa, _, exponent = p.lower().replace("_", "").partition("e")
        exponent = exponent.lstrip("+-").lstrip("0")
        if exponent.isdecimal() and (len(exponent) > 4 or int(exponent) > 4300):
            raise UsageError(f"coordinate {p!r}: exponent above 4300")
        try:
            x = Fraction(p) if sum(map(str.isdecimal, mantissa)) <= 4300 else None
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad coordinate {p!r}: {exc}") from exc
        if x is None or x.denominator >= 10**4300:  # 0 <= x < 1: num < den
            raise UsageError(f"coordinate {p!r}: over 4300 digits")
        if not 0 <= x < 1:
            raise UsageError(f"coordinate {p} outside [0, 1)")
        coords.append(x)
    return tuple(coords)


def _parse_depths(text: str) -> list[int]:
    """The depths of ``lo..hi`` or of one depth; each survey writes its d + 1
    counts, so a list writing more than ``MAX_MEMBERS`` is rejected unbuilt."""
    text = text.strip()
    lo_s, dots, hi_s = text.partition("..")
    try:
        lo, hi = int(lo_s), int(hi_s if dots else lo_s)
    except ValueError as exc:
        raise UsageError(f"bad depth{' range' if dots else ''} {text!r}") from exc
    if lo < 0 and not dots:
        raise UsageError("depth must be >= 0")
    if lo < 0 or hi < lo:
        raise UsageError(f"bad depth range {text!r}")
    written = (hi - lo + 1) * (lo + hi + 2) // 2
    if written > MAX_MEMBERS:
        raise UsageError(
            f"depths {text} would write {written} counts, more than {MAX_MEMBERS}"
        )
    return list(range(lo, hi + 1))


def _load_element(args: argparse.Namespace) -> Element:
    """Element from --word or --element-file, consistent with --n."""
    if args.element_file:
        try:
            with open(args.element_file, "r", encoding="utf-8") as fh:
                g = element_from_json(fh.read())
        except OSError as exc:
            raise UsageError(f"cannot read element file: {exc}") from exc
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise UsageError(f"bad element file: {exc}") from exc
        if not validate(g):
            raise UsageError("bad element file: pieces do not partition the cube")
        if args.n is not None and g.dim != args.n:
            raise UsageError(
                f"element file has dimension {g.dim}, but --n {args.n} given"
            )
        args.n = g.dim
        return g
    if args.n is None:
        raise UsageError("--n is required with --word")
    return eval_word(args.word, args.n)


def _summary(g: Element) -> tuple[dict[str, Any], bool]:
    reduced = simplify(g)
    return {
        "element": element_to_json_dict(reduced),
        "piece_count": len(reduced.pieces),
        "piece_count_raw": len(g.pieces),
        "depth": element_depth(reduced),
    }, True


def _report(report: Any) -> tuple[dict[str, Any], bool]:
    return report.to_dict(), report.all_pass


def _equal(args: argparse.Namespace) -> tuple[dict[str, Any], bool]:
    for i, (word, w) in enumerate(((args.word1, args.w1), (args.word2, args.w2)), 1):
        if word is not None and w is not None:
            raise UsageError(f"give --word{i} or --w{i}, not both")
    w1 = args.word1 if args.word1 is not None else args.w1
    w2 = args.word2 if args.word2 is not None else args.w2
    if w1 is None or w2 is None:
        raise UsageError("equal needs --word1/--w1 and --word2/--w2")
    same = equals(eval_word(w1, args.n), eval_word(w2, args.n))
    return {"equal": same}, same


def _apply(args: argparse.Namespace) -> tuple[dict[str, Any], bool]:
    g = _load_element(args)
    p = _parse_point(args.point, args.n)
    image = apply_element(g, p)
    if any(y.denominator >= 10**4300 for y in image):  # as for the point
        raise UsageError(f"image of point {args.point!r}: over 4300 digits")
    return {"point": list(map(str, p)), "image": list(map(str, image))}, True


def _support(args: argparse.Namespace) -> tuple[dict[str, Any], bool]:
    rects = support(_load_element(args))
    return {"support": [list(r.words) for r in rects], "count": len(rects)}, True


def _probe(args: argparse.Namespace) -> tuple[dict[str, Any], bool]:
    g = _load_element(args)
    depths = _parse_depths(args.depths)
    counts = cocycle_counts(g, max(depths)).counts  # the search is exact: slice it
    surveys = [TruncatedCocycle(counts[: d + 1]).to_dict() for d in depths]
    for entry in surveys:
        del entry["out_side"], entry["in_side"]
    return {"depths": depths, "surveys": surveys}, True


def _rects(rects: list[list[str]], empty: str) -> str:
    return " ".join(",".join(w or "e" for w in r) for r in rects) or empty


def _checks_text(report: dict[str, Any]) -> list[str]:
    lines = [
        f"  {name}: {counts['passed']}/{counts['total']} passed"
        for name, counts in report["sections"].items()
    ]
    lines += [
        f"  FAIL [{c['section']}] {c['label']}"
        for c in report["checks"]
        if c["asserted"] and not c["holds"]
    ]
    findings = sum(not c["asserted"] for c in report["checks"])
    if findings:
        lines.append(f"  findings (not asserted): {findings}")
    return lines


def _truncation_text(report: dict[str, Any]) -> list[str]:
    lines = [
        f"  verdict: {report['verdict']}",
        f"  total members: {report['total']}",
        f"  counts by depth: {report['counts_by_depth']}",
    ]
    if report.get("open_finding"):
        lines.append(f"  {report['open_finding']}")
    return lines + [
        "  X - gX: " + _rects(report["out_side"], "(none)"),
        "  gX - X: " + _rects(report["in_side"], "(none)"),
    ]


def _element_text(report: dict[str, Any]) -> list[str]:
    lines = [
        f"  ({_rects([p['dom']], '')}) -> ({_rects([p['ran']], '')})"
        for p in report["element"]["pieces"]
    ]
    return lines + [f"  pieces: {report['piece_count']}"]


def _surveys_text(report: dict[str, Any]) -> list[str]:
    lines, finding = [], None
    for s in report["surveys"]:
        lines.append(f"  depth {s['depth']}: total {s['total']}, {s['verdict']}")
        finding = s.get("open_finding") or finding
    return lines + ([f"  {finding}"] if finding else [])


def _fprobe_text(report: dict[str, Any]) -> list[str]:
    return [
        f"  members: {len(report['members'])}",
        f"  grid violations: {len(report['grid_violations'])}",
        f"  injective: {report['injective']}",
    ]


class Command(NamedTuple):
    """One subcommand.  ``run`` returns (report payload, ok) and ``render``
    the body lines of ``--format text``; ``element`` adds the exclusive
    ``--word``/``--element-file`` source and makes ``--n`` optional; ``args``
    holds the command's own ``(flag, add_argument keywords)`` pairs.  A runner
    names library functions in its body, looked up when it runs, so that
    rebinding ``nvcalc.cli.<name>`` (a tracer, a test's patch) reaches the
    call; a function object stored in a row would escape it."""

    help: str
    run: Callable[[argparse.Namespace], tuple[dict[str, Any], bool]]
    render: Callable[[dict[str, Any]], list[str]]
    element: bool = False
    args: tuple[tuple[str, dict[str, Any]], ...] = ()


_POINT_HELP = "comma-separated rationals, e.g. 1/4,1/2"
_ADAPTIVE_HELP = "truncation depth (default: adaptive, element depth + 1)"
_CORNER_OPT = ("--corner-mode", dict(choices=("closed", "half_open"), default="closed"))
_DEPTH_OPT = ("--depth", dict(type=int, required=True))
COMMANDS: dict[str, Command] = {
    "eval": Command(
        "evaluate a word to an element",
        lambda a: _summary(_load_element(a)), _element_text, element=True,
    ),
    "equal": Command(
        "decide equality of two words", _equal, lambda r: [f"  equal: {r['equal']}"],
        args=(
            ("--word1", {}), ("--word2", {}),
            ("--w1", dict(help="alias for --word1")),
            ("--w2", dict(help="alias for --word2")),
        ),
    ),
    "apply": Command(
        "apply an element to a point", _apply, lambda r: [f"  image: {r['image']}"],
        element=True, args=(("--point", dict(required=True, help=_POINT_HELP)),),
    ),
    "support": Command(
        "support rectangles of an element", _support,
        lambda r: ["  support: " + _rects(r["support"], "(empty)")], element=True,
    ),
    "relations": Command(
        "defining-relation suite", lambda a: _report(relation_suite(a.n, a.imax)),
        _checks_text, args=(("--imax", dict(type=int, default=3)),),
    ),
    "corollaries": Command(
        "conjugation/recovery identity suite",
        lambda a: _report(corollary_checks(a.n, a.imax)),
        _checks_text, args=(("--imax", dict(type=int, default=4)),),
    ),
    "premises": Command(
        "finite-generating-set premise suite",
        lambda a: _report(premise_checks(a.n)), _checks_text,
    ),
    "cocycle": Command(
        "truncated symmetric difference X Δ gX",
        lambda a: (sym_diff_truncated(_load_element(a), a.depth).to_dict(), True),
        _truncation_text, element=True, args=(_DEPTH_OPT,),
    ),
    "probe": Command(
        "cocycle survey over truncation depths", _probe, _surveys_text, element=True,
        args=(("--depths", dict(required=True, help="e.g. '1..8' or '5'")),),
    ),
    "fprobe": Command(
        "pattern probe values and grid check",
        lambda a: (f_P_probe(_load_element(a), a.depth, a.corner_mode).to_dict(), True),
        _fprobe_text, element=True, args=(_DEPTH_OPT, _CORNER_OPT),
    ),
    "properness": Command(
        "piece-count bound over a word ball",
        lambda a: _report(properness_bound_check(a.n, a.ball, a.depth)),
        _checks_text,
        args=(
            ("--ball", dict(type=int, required=True, help="word-ball radius")),
            ("--depth", dict(type=int, help=_ADAPTIVE_HELP)),
        ),
    ),
    "random": Command(
        "deterministic random element",
        lambda a: _summary(random_element(a.n, a.size, a.seed)),
        _element_text,
        args=(
            ("--size", dict(type=int, default=6, help="leaves per pattern")),
            ("--seed", dict(type=int, default=0)),
        ),
    ),
}


def _config_echo(args: argparse.Namespace) -> dict[str, Any]:
    skip = {"command", "format", "output"}
    return {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in skip and v is not None
    }


def _render_text(envelope: dict[str, Any]) -> str:
    lines = [
        f"nvcalc {envelope['version']} — {envelope['command']}",
        "config: " + ", ".join(f"{k}={v}" for k, v in envelope["config"].items()),
    ]
    lines += COMMANDS[envelope["command"]].render(envelope["report"])
    lines.append("RESULT: " + ("PASS" if envelope["ok"] else "FAIL"))
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvcalc",
        description="Exact pattern-pair calculus on the dyadic n-cube.",
    )
    parser.add_argument("--version", action="version", version=f"nvcalc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help)
        sp.add_argument(
            "--n", type=int, required=not cmd.element, help="dimension of the cube"
        )
        sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.add_argument("--output", default=None, help="write output to file")
        if cmd.element:
            group = sp.add_mutually_exclusive_group(required=True)
            group.add_argument("--word", help="generator word, e.g. 'X[1,0] P[2]^-1'")
            group.add_argument("--element-file", help="path to a piece-table JSON file")
        for flag, kwargs in cmd.args:
            sp.add_argument(flag, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        report, ok = COMMANDS[args.command].run(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    envelope = {
        "tool": "nvcalc",
        "version": __version__,
        "command": args.command,
        "config": _config_echo(args),
        "ok": ok,
        "report": report,
    }
    if args.format == "json":
        text = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    else:
        text = _render_text(envelope)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
