"""Span tracer for nvcalc's public functions, installed from outside ``src/``.

``Tracer.install()`` replaces every public nvcalc function at every module
binding that holds it (the modules use ``from ... import``, so one function
can sit in several namespaces) with one shared wrapper.  While an op is open
(``with tracer.op(i, kind)``) each wrapped call appends a span
``(name, start, end, parent, op_id)``; outside an op (result checks) the
wrappers only forward the call.  Counts are derived from call arguments and
results, never from hooks inside nvcalc.

``Rect.__post_init__`` is counted but gets no span: it runs millions of times
per pass, and its time stays in the self time of whichever span built the
rectangle.  ``enumerate_rects`` returns a generator, so its span covers only
the call; the rectangles it yields are counted as they are consumed.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import os
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import nvcalc
from nvcalc import cli, dyadic_core, element_algebra, ends_cocycle, reporting
from nvcalc import words_generators

LAYERS = (
    "dyadic_core",
    "element_algebra",
    "words_generators",
    "ends_cocycle",
    "cli",
    "reporting",
)
_MODULES = (
    nvcalc,
    dyadic_core,
    element_algebra,
    words_generators,
    ends_cocycle,
    cli,
    reporting,
)
GENERATOR_CACHES = (
    words_generators.make_X,
    words_generators.make_C,
    words_generators.make_pi,
    words_generators.make_pibar,
)


def _count_rects(counts: Counter, rects):
    for r in rects:
        counts["enumerate_rects.rects"] += 1
        yield r


def _output_bytes(argv: list[str]) -> int:
    if "--output" not in argv:
        return 0
    return os.path.getsize(argv[argv.index("--output") + 1])


def _hooks(counts: Counter) -> dict:
    """Per-function counters, from (args, result); each returns the result."""

    def rect_intersect(args, result):
        counts["rect_intersect.hits"] += result is not None
        return result

    def enumerate_rects(args, result):
        return _count_rects(counts, result)

    def compose(args, result):
        counts["compose.pair_tests"] += len(args[0].pieces) * len(args[1].pieces)
        counts["compose.pieces_out"] += len(result.pieces)
        return result

    def simplify(args, result):
        counts["simplify.pieces_in"] += len(args[0].pieces)
        counts["simplify.pieces_out"] += len(result.pieces)
        return result

    def is_affine_on(args, result):
        counts["is_affine_on.hits"] += result is not None
        return result

    def sym_diff_truncated(args, result):
        counts["sym_diff_truncated.members"] += result.total
        return result

    def cocycle_identity_check(args, result):
        counts["cocycle_identity_check.checks"] += len(result.checks)
        return result

    def properness_bound_check(args, result):
        counts["properness_bound_check.elements"] += result.params["num_elements"]
        counts["properness_bound_check.growing"] += result.params["num_growing"]
        return result

    def main(args, result):
        counts["cli.output_bytes"] += _output_bytes(args[0])
        return result

    def to_dict(args, result):
        counts["reporting.checks_serialized"] += len(args[0].checks)
        return result

    return {
        "dyadic_core.rect_intersect": rect_intersect,
        "dyadic_core.enumerate_rects": enumerate_rects,
        "element_algebra.compose": compose,
        "element_algebra.simplify": simplify,
        "element_algebra.is_affine_on": is_affine_on,
        "ends_cocycle.sym_diff_truncated": sym_diff_truncated,
        "ends_cocycle.cocycle_identity_check": cocycle_identity_check,
        "ends_cocycle.properness_bound_check": properness_bound_check,
        "cli.main": main,
        "reporting.to_dict": to_dict,
    }


def _is_nvcalc_function(obj) -> bool:
    """A plain or ``lru_cache``-wrapped function defined inside nvcalc."""
    is_fn = inspect.isfunction(obj) or hasattr(obj, "cache_info")
    return is_fn and getattr(obj, "__module__", "").startswith("nvcalc.")


class Tracer:
    """In-memory spans and counts for the calls made inside ops."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op_id: int | None = None
        self._hooks = _hooks(self.counts)
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack, hook = self.spans, self._stack, self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op_id = self._op_id
            if op_id is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, op_id)
            return hook(args, result) if hook else result

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every public nvcalc function at every binding, plus the
        ``Rect`` validation counter and ``CheckReport.to_dict``."""
        wrappers: dict[int, object] = {}
        for module in _MODULES:
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or not _is_nvcalc_function(obj):
                    continue
                if id(obj) not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[-1]
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{obj.__name__}")
                self._replace(module, attr, wrappers[id(obj)])

        post_init = dyadic_core.Rect.__post_init__
        counts = self.counts

        def counted_post_init(rect) -> None:
            if self._op_id is not None:
                counts["rect_validations"] += 1
            post_init(rect)

        self._replace(dyadic_core.Rect, "__post_init__", counted_post_init)
        self._replace(
            reporting.CheckReport,
            "to_dict",
            self._wrap(reporting.CheckReport.to_dict, "reporting.to_dict"),
        )

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    @contextmanager
    def op(self, op_id: int, kind: str):
        """Open the root span of one op; calls inside it are traced."""
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self._op_id = op_id
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._op_id = None
            self._stack.pop()
            self.spans[idx] = (f"op.{kind}", start, end, -1, op_id)

    def write(self, path: str) -> None:
        """Write the spans as gzipped tab-separated lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\top_id\n")
            for name, start, end, parent, op_id in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{op_id}\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times, calls and counts of the traced spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1

        def under(name: str, ancestor: str) -> int:
            """Spans called ``name`` with an ``ancestor`` span above them."""
            hits = 0
            for span in spans:
                if span[0] != name:
                    continue
                p = span[3]
                while p >= 0 and spans[p][0] != ancestor:
                    p = spans[p][3]
                hits += p >= 0
            return hits

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        c = self.counts
        m: dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(
                v for k, v in self_s.items() if k.startswith(layer + ".")
            )
        ri = calls["dyadic_core.rect_intersect"]
        m["dyadic_core.rect_intersect.calls"] = ri
        m["dyadic_core.rect_intersect.hit_ratio"] = ratio(c["rect_intersect.hits"], ri)
        m["dyadic_core.rect_validations"] = c["rect_validations"]
        m["dyadic_core.enumerate_rects.rects"] = c["enumerate_rects.rects"]

        ea = "element_algebra."
        m[ea + "compose.calls"] = calls[ea + "compose"]
        m[ea + "compose.self_s"] = self_s[ea + "compose"]
        m[ea + "compose.pair_tests"] = c["compose.pair_tests"]
        m[ea + "compose.pieces_out"] = c["compose.pieces_out"]
        m[ea + "compose.yield_ratio"] = ratio(
            c["compose.pieces_out"], c["compose.pair_tests"]
        )
        m[ea + "equals.calls"] = calls[ea + "equals"]
        m[ea + "equals.self_s"] = self_s[ea + "equals"]
        for fn in ("inverse", "restrict", "apply", "simplify"):
            m[f"{ea}{fn}.calls"] = calls[ea + fn]
        m[ea + "simplify.merge_ratio"] = ratio(
            c["simplify.pieces_in"] - c["simplify.pieces_out"], c["simplify.pieces_in"]
        )
        m[ea + "is_affine_on.calls"] = calls[ea + "is_affine_on"]
        m[ea + "is_affine_on.self_s"] = self_s[ea + "is_affine_on"]
        m[ea + "is_affine_on.hit_ratio"] = ratio(
            c["is_affine_on.hits"], calls[ea + "is_affine_on"]
        )

        wgn = "words_generators."
        m[wgn + "eval_word.calls"] = calls[wgn + "eval_word"]
        m[wgn + "eval_word.self_s"] = self_s[wgn + "eval_word"]
        m[wgn + "eval_word.compose_calls"] = under(ea + "compose", wgn + "eval_word")
        m[wgn + "parse_word.calls"] = calls[wgn + "parse_word"]

        ec = "ends_cocycle."
        sd = ec + "sym_diff_truncated"
        m[sd + ".calls"] = calls[sd]
        m[sd + ".self_s"] = self_s[sd]
        m[sd + ".members"] = c["sym_diff_truncated.members"]
        m[sd + ".affinity_tests"] = under(ea + "is_affine_on", sd)
        ci = ec + "cocycle_identity_check"
        m[ci + ".calls"] = calls[ci]
        m[ci + ".self_s"] = self_s[ci]
        m[ci + ".checks"] = c["cocycle_identity_check.checks"]
        m[ec + "coset_translate.calls"] = calls[ec + "coset_translate"]
        m[ec + "rect_to_coset.calls"] = calls[ec + "rect_to_coset"]
        pb = ec + "properness_bound_check"
        m[pb + ".self_s"] = self_s[pb]
        m[pb + ".elements"] = c["properness_bound_check.elements"]
        m[pb + ".growing_ratio"] = ratio(
            c["properness_bound_check.growing"], c["properness_bound_check.elements"]
        )

        m["cli.main.calls"] = calls["cli.main"]
        m["cli.output_bytes"] = c["cli.output_bytes"]
        m["reporting.to_dict.self_s"] = self_s["reporting.to_dict"]
        m["reporting.checks_serialized"] = c["reporting.checks_serialized"]
        return m


def cache_totals() -> tuple[int, int]:
    """Summed (hits, misses) of the four ``make_*`` generator caches."""
    infos = [fn.cache_info() for fn in GENERATOR_CACHES]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def clear_generator_caches() -> None:
    """Empty the four ``make_*`` caches (building the ops has filled them)."""
    for fn in GENERATOR_CACHES:
        fn.cache_clear()


class CacheCounter:
    """Generator-cache hits and misses inside op calls, not in their checks.
    Pass it to ``run_pass`` as its ``scope``."""

    def __init__(self) -> None:
        self.hits = self.misses = 0

    @contextmanager
    def op(self, op_id: int, kind: str):
        hits, misses = cache_totals()
        try:
            yield
        finally:
            after_hits, after_misses = cache_totals()
            self.hits += after_hits - hits
            self.misses += after_misses - misses

    def hit_ratio(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0
