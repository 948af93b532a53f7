"""Two traced runs with the same seed report identical counts.

Run with ``python3 -m pytest perfbench``.  Every per-layer metric except the
times (``*self_s``, ``trace.overhead_ratio``) is derived from counts, so it
must repeat exactly; so must the results digest.
"""

import json
import os
import subprocess
import sys

import pytest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def traced_run(workload: str, seed: int) -> tuple[dict, str]:
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--trace", "1"],
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    lines = out.stdout.strip().splitlines()
    digest = next(line.split()[-1] for line in lines if "results_digest" in line)
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", ["suites", "tables", "cocycle"])
def test_traced_counts_repeat_exactly(workload):
    (first, digest1), (second, digest2) = traced_run(workload, 5), traced_run(workload, 5)
    assert first["correct"] and second["correct"]
    assert digest1 == digest2

    def counts(result: dict) -> dict:
        return {
            name: m["value"]
            for name, m in result["metrics"].items()
            if m["unit"] != "s" and name != "trace.overhead_ratio"
        }

    assert counts(first) == counts(second)
    assert first["metrics"]["element_algebra.compose.pair_tests"]["value"] > 0
    assert first["metrics"]["dyadic_core.rect_validations"]["value"] > 0
    if workload == "cocycle":
        assert first["metrics"]["ends_cocycle.sym_diff_truncated.members"]["value"] > 0
