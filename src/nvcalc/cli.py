"""Command-line interface: exact computations with deterministic JSON output.

Subcommands

  eval         evaluate a generator word to an element (piece table)
  equal        decide whether two words define the same element
  apply        apply a word/element to an exact rational point
  support      reduced support rectangles of a word/element
  simplify     reduced piece table of a word/element
  relations    run the defining-relation suite
  corollaries  run the conjugation/recovery identity suite
  premises     run the finite-generating-set premise suite
  cocycle      truncated symmetric difference X Δ gX with verdict
  probe        cocycle survey over a range of truncation depths
  fprobe       pattern probe: members, probe-point values, grid violations
  properness   piece-count bound over a word ball of the generating set
  random       deterministic pseudo-random element for a seed

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
from typing import Any

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
        try:
            x = Fraction(p)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad coordinate {p!r}: {exc}") from exc
        if not 0 <= x < 1:
            raise UsageError(f"coordinate {p} outside [0, 1)")
        coords.append(x)
    return tuple(coords)


def _parse_depths(text: str) -> list[int]:
    """The depths of ``lo..hi`` or of one depth; each survey writes its d + 1
    counts, so a list writing more than ``MAX_MEMBERS`` is rejected unbuilt."""
    text = text.strip()
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError as exc:
            raise UsageError(f"bad depth range {text!r}") from exc
        if lo < 0 or hi < lo:
            raise UsageError(f"bad depth range {text!r}")
    else:
        try:
            lo = hi = int(text)
        except ValueError as exc:
            raise UsageError(f"bad depth {text!r}") from exc
        if lo < 0:
            raise UsageError("depth must be >= 0")
    written = (hi - lo + 1) * (lo + hi + 2) // 2
    if written > MAX_MEMBERS:
        raise UsageError(
            f"depths {text} would write {written} counts, more than {MAX_MEMBERS}"
        )
    return list(range(lo, hi + 1))


def _load_element(args: argparse.Namespace) -> Element:
    """Element from --word or --element-file, consistent with --n."""
    if getattr(args, "element_file", None):
        try:
            with open(args.element_file, "r", encoding="utf-8") as fh:
                g = element_from_json(fh.read())
        except OSError as exc:
            raise UsageError(f"cannot read element file: {exc}") from exc
        except (ValueError, KeyError, TypeError) as exc:
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


def _element_summary(g: Element) -> dict[str, Any]:
    reduced = simplify(g)
    return {
        "element": element_to_json_dict(reduced),
        "piece_count": len(reduced.pieces),
        "piece_count_raw": len(g.pieces),
        "depth": element_depth(g),
    }


def _run(args: argparse.Namespace) -> tuple[dict[str, Any], bool]:
    """Execute one subcommand; returns (report payload, ok)."""
    cmd = args.command
    if cmd == "eval":
        g = _load_element(args)
        return _element_summary(g), True
    if cmd == "equal":
        w1 = args.word1 if args.word1 is not None else args.w1
        w2 = args.word2 if args.word2 is not None else args.w2
        if w1 is None or w2 is None:
            raise UsageError("equal needs --word1/--w1 and --word2/--w2")
        g = eval_word(w1, args.n)
        h = eval_word(w2, args.n)
        same = equals(g, h)
        return {"equal": same}, same
    if cmd == "apply":
        g = _load_element(args)
        p = _parse_point(args.point, args.n)
        image = apply_element(g, p)
        return {"point": list(map(str, p)), "image": list(map(str, image))}, True
    if cmd == "support":
        g = _load_element(args)
        rects = support(g)
        return (
            {"support": [list(r.words) for r in rects], "count": len(rects)},
            True,
        )
    if cmd == "simplify":
        g = _load_element(args)
        return _element_summary(g), True
    if cmd == "relations":
        report = relation_suite(args.n, args.imax)
        return report.to_dict(), report.all_pass
    if cmd == "corollaries":
        report = corollary_checks(args.n, args.imax)
        return report.to_dict(), report.all_pass
    if cmd == "premises":
        report = premise_checks(args.n)
        return report.to_dict(), report.all_pass
    if cmd == "cocycle":
        g = _load_element(args)
        t = sym_diff_truncated(g, args.depth)
        return t.to_dict(), True
    if cmd == "probe":
        g = _load_element(args)
        depths = _parse_depths(args.depths)
        full = cocycle_counts(g, max(depths))
        surveys = []
        for d in depths:
            entry = full.at_depth(d).to_dict()
            del entry["out_side"], entry["in_side"]
            surveys.append(entry)
        return {"depths": depths, "surveys": surveys}, True
    if cmd == "fprobe":
        g = _load_element(args)
        result = f_P_probe(g, args.depth, args.corner_mode)
        return result.to_dict(), True
    if cmd == "properness":
        report = properness_bound_check(args.n, args.ball, args.depth)
        return report.to_dict(), report.all_pass
    if cmd == "random":
        g = random_element(args.n, args.size, args.seed)
        return _element_summary(g), True
    raise UsageError(f"unknown command {cmd!r}")


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
        "config: "
        + ", ".join(f"{k}={v}" for k, v in envelope["config"].items()),
    ]
    report = envelope["report"]
    if "sections" in report and "checks" in report:
        for name, counts in report["sections"].items():
            lines.append(
                f"  {name}: {counts['passed']}/{counts['total']} passed"
            )
        failures = [
            c for c in report["checks"] if c["asserted"] and not c["holds"]
        ]
        for c in failures:
            lines.append(f"  FAIL [{c['section']}] {c['label']}")
        findings = [c for c in report["checks"] if not c["asserted"]]
        if findings:
            lines.append(f"  findings (not asserted): {len(findings)}")
    elif "verdict" in report:
        lines.append(f"  verdict: {report['verdict']}")
        lines.append(f"  total members: {report['total']}")
        lines.append(f"  counts by depth: {report['counts_by_depth']}")
        if report.get("open_finding"):
            lines.append(f"  {report['open_finding']}")
        lines.append(
            "  X - gX: " + (
                " ".join(",".join(w or "e" for w in r) for r in report["out_side"])
                or "(none)"
            )
        )
        lines.append(
            "  gX - X: " + (
                " ".join(",".join(w or "e" for w in r) for r in report["in_side"])
                or "(none)"
            )
        )
    elif "element" in report:
        for piece in report["element"]["pieces"]:
            dom = ",".join(w or "e" for w in piece["dom"])
            ran = ",".join(w or "e" for w in piece["ran"])
            lines.append(f"  ({dom}) -> ({ran})")
        lines.append(f"  pieces: {report['piece_count']}")
    elif "surveys" in report:
        for s in report["surveys"]:
            lines.append(
                f"  depth {s['depth']}: total {s['total']}, {s['verdict']}"
            )
        if any(s.get("open_finding") for s in report["surveys"]):
            last = [s for s in report["surveys"] if s.get("open_finding")][-1]
            lines.append(f"  {last['open_finding']}")
    elif "members" in report:
        lines.append(f"  members: {len(report['members'])}")
        lines.append(f"  grid violations: {len(report['grid_violations'])}")
        lines.append(f"  injective: {report['injective']}")
    elif "equal" in report:
        lines.append(f"  equal: {report['equal']}")
    elif "image" in report:
        lines.append(f"  image: {report['image']}")
    elif "support" in report:
        lines.append(
            "  support: "
            + (
                " ".join(",".join(w or "e" for w in r) for r in report["support"])
                or "(empty)"
            )
        )
    lines.append("RESULT: " + ("PASS" if envelope["ok"] else "FAIL"))
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvcalc",
        description="Exact pattern-pair calculus on the dyadic n-cube.",
    )
    parser.add_argument(
        "--version", action="version", version=f"nvcalc {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser, *, n_required: bool = True) -> None:
        sp.add_argument(
            "--n",
            type=int,
            required=n_required,
            default=None,
            help="dimension of the cube",
        )
        sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.add_argument("--output", default=None, help="write output to file")

    def element_source(sp: argparse.ArgumentParser) -> None:
        group = sp.add_mutually_exclusive_group(required=True)
        group.add_argument("--word", help="generator word, e.g. 'X[1,0] P[2]^-1'")
        group.add_argument(
            "--element-file", help="path to a piece-table JSON file"
        )

    sp = sub.add_parser("eval", help="evaluate a word to an element")
    common(sp, n_required=False)
    element_source(sp)

    sp = sub.add_parser("equal", help="decide equality of two words")
    common(sp)
    sp.add_argument("--word1", default=None)
    sp.add_argument("--word2", default=None)
    sp.add_argument("--w1", default=None, help="alias for --word1")
    sp.add_argument("--w2", default=None, help="alias for --word2")

    sp = sub.add_parser("apply", help="apply an element to a point")
    common(sp, n_required=False)
    element_source(sp)
    sp.add_argument(
        "--point", required=True, help="comma-separated rationals, e.g. 1/4,1/2"
    )

    sp = sub.add_parser("support", help="support rectangles of an element")
    common(sp, n_required=False)
    element_source(sp)

    sp = sub.add_parser("simplify", help="reduced piece table of an element")
    common(sp, n_required=False)
    element_source(sp)

    sp = sub.add_parser("relations", help="defining-relation suite")
    common(sp)
    sp.add_argument("--imax", type=int, default=3)

    sp = sub.add_parser("corollaries", help="conjugation/recovery identity suite")
    common(sp)
    sp.add_argument("--imax", type=int, default=4)

    sp = sub.add_parser("premises", help="finite-generating-set premise suite")
    common(sp)

    sp = sub.add_parser("cocycle", help="truncated symmetric difference X Δ gX")
    common(sp, n_required=False)
    element_source(sp)
    sp.add_argument("--depth", type=int, required=True)

    sp = sub.add_parser("probe", help="cocycle survey over truncation depths")
    common(sp, n_required=False)
    element_source(sp)
    sp.add_argument("--depths", required=True, help="e.g. '1..8' or '5'")

    sp = sub.add_parser("fprobe", help="pattern probe values and grid check")
    common(sp, n_required=False)
    element_source(sp)
    sp.add_argument("--depth", type=int, required=True)
    sp.add_argument(
        "--corner-mode", choices=("closed", "half_open"), default="closed"
    )

    sp = sub.add_parser("properness", help="piece-count bound over a word ball")
    common(sp)
    sp.add_argument("--ball", type=int, required=True, help="word-ball radius")
    sp.add_argument(
        "--depth",
        type=int,
        default=None,
        help="truncation depth (default: adaptive, element depth + 1)",
    )

    sp = sub.add_parser("random", help="deterministic random element")
    common(sp)
    sp.add_argument("--size", type=int, default=6, help="leaves per pattern")
    sp.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        report, ok = _run(args)
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
