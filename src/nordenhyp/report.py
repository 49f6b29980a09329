"""Named residual checks and the reports built from them."""
from __future__ import annotations

import math
from dataclasses import dataclass


def finite_or_none(value):
    """A value for strict JSON: a NaN or infinite float becomes None (null)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


@dataclass(frozen=True)
class Check:
    name: str
    residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return abs(self.residual) <= self.threshold

    def to_dict(self) -> dict:
        """Strict-JSON fields: a NaN or infinite residual is None (and never passes)."""
        return {
            "name": self.name,
            "residual": finite_or_none(float(self.residual)),
            "threshold": float(self.threshold),
            "passed": bool(self.passed),
        }


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max((abs(c.residual) for c in self.checks), default=0.0)

    def to_dict(self) -> dict:
        return {
            "passed": bool(self.passed),
            "checks": [c.to_dict() for c in sorted(self.checks, key=lambda c: c.name)],
        }

    def render_text(self) -> str:
        lines = []
        for c in sorted(self.checks, key=lambda c: c.name):
            tag = "PASS" if c.passed else "FAIL"
            lines.append(f"[{tag}] {c.name}: residual={c.residual:.3e} (<= {c.threshold:.1e})")
        lines.append("verdict: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)
