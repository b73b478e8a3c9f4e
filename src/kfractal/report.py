"""Validation findings shared by the graph and system checkers, and the
modes a metric system is validated in.

A finding is a named tuple; a report is a plain class that the checkers
append findings to.  Like every record of the package, neither is a
dataclass, so no command imports ``dataclasses`` (and, through it,
``inspect``)."""

from __future__ import annotations

from typing import NamedTuple

STRUCTURAL = "structural"
AXIOM = "axiom"

# the modes of a metric system: where its contraction ratio is enforced
STRICT = "strict"
RELAXED = "relaxed"


class Finding(NamedTuple):
    kind: str  # STRUCTURAL (malformed tables) or AXIOM (well-formed but invalid)
    code: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.code}: {self.subject}: {self.detail}"


class ValidationReport:
    findings: list[Finding]

    def __init__(self, findings: list[Finding] | None = None):
        self.findings = [] if findings is None else findings

    @property
    def ok(self) -> bool:
        return not self.findings

    def add(self, kind: str, code: str, subject: str, detail: str) -> None:
        self.findings.append(Finding(kind, code, subject, detail))

    def codes(self) -> set[str]:
        return {f.code for f in self.findings}

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(str(f) for f in self.findings)
