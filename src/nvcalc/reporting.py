"""Small shared report structures for the machine-checked suites.

A report is a flat list of named boolean checks.  A check can be *asserted*
(it counts toward ``all_pass``) or a *finding* (an observation recorded as
data — e.g. an expected non-commutation — that must never fail a run).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["CheckResult", "CheckReport"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check."""

    section: str
    label: str
    holds: bool
    asserted: bool = True
    note: str = ""


@dataclass
class CheckReport:
    """A named collection of check results with an overall verdict."""

    kind: str
    n: int
    params: dict[str, Any] = field(default_factory=dict)
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(c.holds for c in self.checks if c.asserted)

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if c.asserted and not c.holds]

    @property
    def findings(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.asserted]

    def section_counts(self) -> dict[str, tuple[int, int]]:
        """Per-section (passed, total) over asserted checks."""
        out: dict[str, list[int]] = {}
        for c in self.checks:
            if not c.asserted:
                continue
            got = out.setdefault(c.section, [0, 0])
            got[1] += 1
            if c.holds:
                got[0] += 1
        return {k: (v[0], v[1]) for k, v in sorted(out.items())}

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "n": self.n,
            "params": dict(self.params),
            "all_pass": self.all_pass,
            "num_checks": sum(1 for c in self.checks if c.asserted),
            "num_failures": len(self.failures),
            "sections": {
                k: {"passed": p, "total": t}
                for k, (p, t) in self.section_counts().items()
            },
            "checks": [
                {
                    "section": c.section,
                    "label": c.label,
                    "holds": c.holds,
                    "asserted": c.asserted,
                    **({"note": c.note} if c.note else {}),
                }
                for c in self.checks
            ],
        }

