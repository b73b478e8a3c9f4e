"""Validation findings shared by the graph and system checkers, and the
modes a metric system is validated in."""

from __future__ import annotations

from dataclasses import dataclass, field

STRUCTURAL = "structural"
AXIOM = "axiom"

# the modes of a metric system: where its contraction ratio is enforced
STRICT = "strict"
RELAXED = "relaxed"


@dataclass(frozen=True)
class Finding:
    kind: str  # STRUCTURAL (malformed tables) or AXIOM (well-formed but invalid)
    code: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.code}: {self.subject}: {self.detail}"


@dataclass
class ValidationReport:
    findings: list[Finding] = field(default_factory=list)

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
