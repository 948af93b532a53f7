"""nvcalc benchmark: one workload, timed end to end or traced per module.

    python3 perfbench/run.py --workload {suites,tables,cocycle}
        [--seed N] (--seconds S --trace 0 | --trace 1)

Untraced (``--trace 0``): set-up time is the least over fresh processes that
import nvcalc and build the workload's ops.  Then one warm-up pass, then the
workload's fixed number of timed passes over the op list, spread over
``--seconds``.  Each pass is a closed loop with one caller.  An op's latency
is the least over the timed passes.  Every op's result is checked and
digested outside its timed span.

Traced (``--trace 1``): two untraced passes, then one traced pass.  The first
pass starts from cleared generator caches and gives their hit ratio inside
the ops.  The second is the reference time for ``trace.overhead_ratio``.  The
traced pass gives every per-module metric.  Its spans are written to
``perfbench/out/`` at exit.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it name every metric with its
unit, ``failed_ops_ratio`` and the ``results_digest``.  Runs only from a
checkout that holds ``src/nvcalc``; exits with status 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter, sleep

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")

#: Seed used when ``--seed`` is not given (the hold-out seed is in README.md).
DEFAULT_SEED = 1
#: Fresh processes timed for ``setup_s``; the least is reported.
SETUP_RUNS = 20
#: Timed passes per untraced run.  The count is fixed, so the least per op
#: does not fall when faster code would fit more passes into ``--seconds``;
#: each fills about 30 s on a 2-vCPU Xeon at 2.0 GHz.
TIMED_PASSES = {"suites": 40, "tables": 9, "cocycle": 9}

# Runs in a fresh interpreter: the time from before ``import nvcalc`` to the
# built op list, printed in seconds.
_SETUP_PROBE = """
import sys
from time import perf_counter
sys.path[:0] = [sys.argv[1], sys.argv[2]]
start = perf_counter()
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]))
print(perf_counter() - start)
"""


def _timed_setup(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, BENCH_DIR, SRC_DIR, workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


class Pass:
    """Latencies, failures and the results digest of one pass over the ops."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failed = 0
        self.digest = hashlib.sha256()


def run_pass(ops, scope=None) -> Pass:
    """Run every op once in order.  Only the op call is timed; its check and
    digest run after the clock stops.  An op that raises counts as failed.
    ``scope.op(i, kind)``, if given, is entered around each op call."""
    p = Pass()
    # Each pass starts from the same collector state, so the garbage
    # collections inside it fall on the same ops every pass.
    gc.collect()
    for i, op in enumerate(ops):
        ctx = scope.op(i, op.kind) if scope else contextlib.nullcontext()
        start = perf_counter()
        try:
            with ctx:
                result = op.call()
            raised = False
        except Exception:
            traceback.print_exc(file=sys.stderr)
            raised = True
        p.latencies.append(perf_counter() - start)
        try:
            ok = not raised and op.check(result)
            encoded = op.encode(result) if ok else "FAILED"
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok, encoded = False, "FAILED"
        if not ok:
            p.failed += 1
            print(f"op {i} ({op.kind}) failed", file=sys.stderr)
        row = json.dumps([i, op.kind, encoded], sort_keys=True, separators=(",", ":"))
        p.digest.update(row.encode() + b"\n")
    return p


def _check_checkout() -> None:
    if not os.path.isfile(os.path.join(SRC_DIR, "nvcalc", "__init__.py")):
        sys.exit(f"error: no nvcalc sources at {SRC_DIR}; run from a full checkout")
    sys.path[:0] = [BENCH_DIR, SRC_DIR]


def _report(header: str, metrics: dict, passes: list[Pass], extra: list[str]) -> dict:
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    digests = {p.digest.hexdigest() for p in passes}
    print(header)
    for name, (value, unit) in metrics.items():
        print(f"  {name:58s} {value:.6g} {unit}")
    for line in extra:
        print("  " + line)
    print(f"  failed_ops_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    print(f"  results_digest sha256:{min(digests)}")
    if len(digests) != 1:
        print("  passes disagree on the results digest", file=sys.stderr)
    return {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def measure(workload: str, seed: int, seconds: float) -> dict:
    import workloads

    ops = workloads.build(workload, seed)
    setup_samples = [_timed_setup(workload, seed)]
    passes = [run_pass(ops)]  # warm-up: checked and digested, not timed
    timed: list[Pass] = []
    passes_wanted = TIMED_PASSES[workload]
    start = perf_counter()
    while len(timed) < passes_wanted:
        # Pass k starts no sooner than k/passes_wanted of the way through
        # --seconds, so the passes sample the whole window at any speed.
        wait = start + len(timed) * seconds / passes_wanted - perf_counter()
        if wait > 0:
            sleep(wait)
        timed.append(run_pass(ops))
        # Set-up probes between passes sample the same machine load as them.
        if len(setup_samples) < SETUP_RUNS:
            setup_samples.append(_timed_setup(workload, seed))
    while len(setup_samples) < SETUP_RUNS:
        setup_samples.append(_timed_setup(workload, seed))
    # The ops are deterministic, so slower passes of the same op differ only
    # by how much other load on the machine interfered: an op's latency is
    # the least of its timed passes (the reading that timeit's docs advise).
    # Set-up is deterministic work too, so it is read the same way.
    per_op = [min(lat) for lat in zip(*(p.latencies for p in timed))]
    total_s = sum(per_op)
    metrics = {
        "setup_s": (min(setup_samples), "s"),
        "total_s": (total_s, "s"),
        "ops_per_s": (len(ops) / total_s, "ops/s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(per_op, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    header = (
        f"{workload} seed={seed}: {len(timed)} timed passes of {len(ops)} ops "
        f"in {perf_counter() - start:.1f} s ({len(ops)} per-op latency samples, "
        f"each the least over the passes), {len(setup_samples)} set-up processes"
    )
    return _report(header, metrics, passes + timed, [])


def trace(workload: str, seed: int) -> dict:
    import tracer as tracing
    import workloads

    ops = workloads.build(workload, seed)
    tracing.clear_generator_caches()
    caches = tracing.CacheCounter()
    cold = run_pass(ops, caches)
    reference = run_pass(ops)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    span_file = os.path.join(workloads.OUT_DIR, f"spans-{workload}-{seed}.tsv.gz")
    tracer.write(span_file)

    layer = tracer.layer_metrics()
    layer["words_generators.generator_cache.hit_ratio"] = caches.hit_ratio()
    layer["trace.overhead_ratio"] = sum(traced.latencies) / sum(reference.latencies)
    metrics = {
        name: (value, _unit(name)) for name, value in sorted(layer.items())
    }
    header = (
        f"{workload} seed={seed}: traced pass of {len(ops)} ops, "
        f"{len(tracer.spans)} spans"
    )
    extra = [f"spans written to {os.path.relpath(span_file)}"]
    return _report(header, metrics, [cold, reference, traced], extra)


def _unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=TIMED_PASSES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, help="measuring time of an untraced run"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.trace and args.seconds is None:
        parser.error("--seconds is required with --trace 0")
    _check_checkout()
    if args.trace:
        result = trace(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
