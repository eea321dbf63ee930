"""Shared shape for verification results: a named check with both values,
and the error raised when a check inside a computation fails."""

from __future__ import annotations

from typing import NamedTuple


class TheoremCheck(NamedTuple):
    """One verified identity: pass/fail plus the two compared values."""

    name: str
    passed: bool
    lhs: object
    rhs: object

    def describe(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{verdict} {self.name}: {self.lhs} vs {self.rhs}"


class VerificationError(Exception):
    """A check made inside a computation failed.  That is a bug in lefgraph,
    not in the input, so the CLI exits 2; the message carries both compared
    values."""
