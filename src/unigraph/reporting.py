"""Condition records and reports shared by the battery and group suites."""
from __future__ import annotations

from dataclasses import dataclass

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"

__all__ = ["PASS", "FAIL", "NOT_APPLICABLE", "Condition", "ConditionReport"]


@dataclass(frozen=True)
class Condition:
    """One named check: status pass/fail/not-applicable plus an optional witness."""

    name: str
    status: str
    witness: object = None

    def to_dict(self) -> dict:
        d = {"name": self.name, "status": self.status}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


@dataclass(frozen=True)
class ConditionReport:
    """Ordered condition outcomes; the verdict excludes on any failure."""

    conditions: tuple[Condition, ...]

    @property
    def verdict(self) -> str:
        return "excluded" if any(c.status == FAIL for c in self.conditions) else "undecided"

    @property
    def first_failure(self) -> Condition | None:
        for c in self.conditions:
            if c.status == FAIL:
                return c
        return None

    def __getitem__(self, name: str) -> Condition:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "conditions": [c.to_dict() for c in self.conditions],
            "verdict": self.verdict,
        }
