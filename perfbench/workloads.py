"""The benchmark's workloads: the CLI operations each one runs, and what
each operation must print to count as correct.

Every operation is expected to exit 0, print each of its verdict patterns
on some line of standard output, print none of the failure words, and
write its artifacts.  Anything else counts as a failed operation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

# The generated instance each workload receives (a key of generate.GENERATORS).
GENERATED = {"grid-attractor": "product", "sampled-coding": None, "exact-duality": "discrete"}

# Coverage needs enough samples to hold on every seed; 500 is too few for
# p2c, and 20000 passed on every seed tried for f3, t0 and s1.
CODING_COUNT = 20000

FAILURE_WORDS = re.compile(r"FAIL|NOT converged|DISAGREEMENT|INVALID|agree=False|Traceback")


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    verdicts: tuple[str, ...]   # regexes, each must match a line of stdout
    artifacts: tuple[str, ...]  # files the command must write into --out
    instance: str | None = None

    def check(self, exit_code: int, stdout: str, outdir: Path) -> list[str]:
        """Reasons this run is not the expected outcome (empty when it is)."""
        problems = []
        written = {p.name for p in outdir.iterdir()} if outdir.is_dir() else set()
        if exit_code != 0:
            problems.append(f"exit code {exit_code}, expected 0")
        lines = stdout.splitlines()
        for pattern in self.verdicts:
            if not any(re.search(pattern, line) for line in lines):
                problems.append(f"no line matches {pattern!r}")
        bad = [line for line in lines if FAILURE_WORDS.search(line)]
        if bad:
            problems.append(f"failure line {bad[0]!r}")
        missing = sorted(set(self.artifacts) - written)
        if missing:
            problems.append(f"missing artifacts {missing}")
        elif "attractor.csv" in self.artifacts:
            points = sum(int(n) for n in re.findall(r"^vertex \S+: points=(\d+)", stdout, re.M))
            with open(outdir / "attractor.csv") as fh:
                rows = sum(1 for _ in fh) - 1
            if rows != points:
                problems.append(f"attractor.csv has {rows} rows, the certificate {points} points")
        return problems


CONVERGED = r"^converged: iterations=\d+"


def _attractor(instance, label):
    return Op(f"attractor {label}", ("attractor", "--instance", instance),
              (CONVERGED, r"^vertex \S+: points=\d+ boxdim~"),
              ("attractor.csv", "certificate.txt"), instance)


def _diagonal(instance, label):
    return Op(f"diagonal {label}", ("diagonal", "--instance", instance),
              (r"^source:\s+converged", r"^collapse:\s+converged",
               r"^vertex \S+: distance \S+ \(tol \S+\) ok$"),
              ("diagonal.txt",), instance)


def _coding(instance, seed):
    return Op(f"coding {instance}",
              ("coding", "--instance", instance, "--count", str(CODING_COUNT),
               "--seed", str(seed)),
              (CONVERGED, r"^attractor-vs-coded \(tol \S+\): pass$",
               r"^invariance of the coded cloud: pass$"),
              ("coded.csv", "coding.txt"), instance)


_SWEEP = r"^density == fidelity on .*: 100% agreement$"


def _duality(instance, label):
    return Op(f"duality {label}", ("duality", "--instance", instance),
              (_SWEEP, r"degree \(1, 1\): dense=\S+ faithful=\S+ agree=True$",
               r"^twisted product up to \(2, 2\): all checks pass$"),
              ("duality.txt",), instance)


def _sweep(seed):
    # 1 + 256 exhaustive assignments for fiber sizes 1 and 2, plus at least
    # the 100,000 sampled ones at size 3.
    return Op("duality sweep-3", ("duality", "--max-fiber-size", "3", "--seed", str(seed)),
              (r"fiber sizes <= 3: (\d{7,}|[1-9]\d{5}) assignments, [1-9]\d* consistent",
               _SWEEP),
              ("duality.txt",))


def operations(workload: str, seed: int, generated: Path | None) -> list[Op]:
    gen = str(generated) if generated is not None else None
    if workload == "grid-attractor":
        return [_attractor("p2", "p2"), _attractor("p2c", "p2c"), _attractor("s1", "s1"),
                _attractor(gen, "generated"), _diagonal("p2c", "p2c"),
                _diagonal(gen, "generated")]
    if workload == "sampled-coding":
        return [_coding(name, seed) for name in ("f3", "t0", "s1")]
    if workload == "exact-duality":
        return [_duality("d1", "d1"), _duality("d2", "d2"), _duality("d3", "d3"),
                _duality(gen, "generated"), _sweep(seed)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = tuple(GENERATED)
