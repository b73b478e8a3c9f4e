"""Collapsing a rank-k system onto its rank-1 diagonal and comparing fixed
points.

The diagonal graph keeps one edge per degree-(1,..,1) path; equipping it
with the composite maps of those paths yields a rank-1 system over the same
fibers.  Computing both attractors on one grid and measuring the gap is the
finite form of the statement that the higher-rank construction produces no
sets a rank-1 system could not.
"""

from __future__ import annotations

from typing import NamedTuple

from .attractor import ConvergenceCertificate, SetTuple, refine_attractor
from .kgraph import diagonal_graph
from .systems import STRICT, MWSystem, extend_map


def diagonal_system(sys: MWSystem) -> MWSystem:
    """The rank-1 collapse: a strict system over the same fibers on the
    graph of ``diagonal_graph(sys.graph)``, whose ``edge_to_path`` expands
    each of its edges.

    Generators are the exact ``extend_map`` composites, so iterating the
    collapse at degree 1 performs bitwise the same arithmetic as iterating
    the source at the diagonal degree.  The declared ratio is ratio^k for a
    strict source; a relaxed source certifies its diagonal composites at the
    declared ratio directly.
    """
    dg = diagonal_graph(sys.graph)
    gens = {ident: extend_map(sys, lam) for ident, lam in dg.edge_to_path.items()}
    ratio = sys.ratio ** sys.graph.k if sys.mode == STRICT else sys.ratio
    return MWSystem(
        dg.graph,
        dict(sys.fibers),
        gens,
        ratio=ratio,
        mode=STRICT,
        name=f"{sys.name or 'system'}-diagonal",
    )


# ---------------------------------------------------------------------------
# attractor agreement


class DiagonalAgreement(NamedTuple):
    tol: float
    distances: dict[str, float]
    source_certificate: ConvergenceCertificate
    collapse_certificate: ConvergenceCertificate
    sets_source: SetTuple
    sets_collapse: SetTuple

    @property
    def passed(self) -> bool:
        return (
            self.source_certificate.converged
            and self.collapse_certificate.converged
            and all(d <= self.tol for d in self.distances.values())
        )

    def summary(self) -> str:
        lines = [
            f"source:   {self.source_certificate.summary()}",
            f"collapse: {self.collapse_certificate.summary()}",
        ]
        for v, d in sorted(self.distances.items()):
            verdict = "ok" if d <= self.tol else "FAIL"
            lines.append(f"vertex {v}: distance {d:.6g} (tol {self.tol:.6g}) {verdict}")
        return "\n".join(lines)


def check_diagonal_agreement(
    sys: MWSystem,
    tol: float,
    pitch: float,
    max_iter: int = 64,
) -> DiagonalAgreement:
    """Compute the source attractor at the diagonal degree and the collapsed
    system's attractor at degree 1 at the pitch, both refined from the same
    ``start_grids`` through the same levels to their lattice fixed points,
    then compare per vertex against tol.  A tol below the least error bound
    a run can claim raises ValueError before any step (``refine_attractor``).

    Because the collapsed generators are the same composites, the
    per-iteration clouds coincide exactly and the measured distances
    quantify only what the bookkeeping (degree handling, diagonal edge
    table) could have broken.
    """
    collapse = diagonal_system(sys)
    K_src, cert_src = refine_attractor(sys, sys.diagonal_degree, pitch, tol, max_iter=max_iter)
    K_col, cert_col = refine_attractor(collapse, (1,), pitch, tol, max_iter=max_iter)
    distances = K_src.vertex_distances(K_col, sys.metric)
    return DiagonalAgreement(tol, distances, cert_src, cert_col, K_src, K_col)
