"""The rank-1 collapse of a rank-k system, and its attractor.

The collapse keeps one edge per degree-(1,..,1) path, with the path's
composite map, over the same fibers, so its degree-1 operator is the
source's diagonal-degree operator; one operator has one fixed point
(Hutchinson, Indiana Univ. Math. J. 30, 1981).  The identity is checked
exactly, and the fixed point is computed once.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .attractor import ConvergenceCertificate, Operator, SetTuple, refine_attractor
from .kgraph import DiagonalGraph, Path, diagonal_edge_id, diagonal_graph
from .systems import STRICT, MWSystem, extend_map, float_bits


def diagonal_system(sys: MWSystem, dg: DiagonalGraph) -> MWSystem:
    """The rank-1 collapse: a strict system over the same fibers on the
    graph of ``dg = diagonal_graph(sys.graph)``, whose ``edge_to_path``
    expands each of its edges.

    Generators are the exact ``extend_map`` composites, so iterating the
    collapse at degree 1 performs bitwise the same arithmetic as iterating
    the source at the diagonal degree.  The declared ratio is ratio^k for a
    strict source; a relaxed source certifies its diagonal composites at the
    declared ratio directly.
    """
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


def operator_mismatches(op: Operator, collapse: MWSystem,
                        edge_to_path: dict[str, Path]) -> dict[str, str]:
    """Per vertex v where the collapse's degree-1 operator is not op, the
    source's diagonal-degree operator, how the first edge into v differs.

    Each edge e into v must be the path ``edge_to_path`` gives it (named for
    it by ``diagonal_edge_id``, of op's degree, with e's range and source),
    and its (generator, source) pair must use up one of op's pairs at v, bit
    for bit, until none is left.  Distinct edges name distinct paths, so the
    table is a bijection onto v's paths, and the pairs are equal as
    multisets: all that a union of images depends on."""
    g, found = collapse.graph, {}
    for v, pairs in op.maps.items():
        left = Counter((float_bits(m.matrix, m.shift), src) for m, src in pairs)
        for e in g.edges_with_range(1, v):
            src, p = g.edge(e).source_vertex, edge_to_path.get(e)
            if p is None or (diagonal_edge_id(p), p.degree, p.range_vertex,
                             p.source_vertex) != (e, op.degree, v, src):
                found[v] = f"edge {e} from {src} is tabled as {p!r}"
                break
            gen = collapse.generators[e]
            pair = (float_bits(gen.matrix, gen.shift), src)
            if not left[pair]:
                found[v] = f"edge {e}'s map from {src} is no degree {op.degree} path map left"
                break
            left[pair] -= 1
        else:
            if left.total():
                found[v] = f"{len(pairs) - left.total()} edges for {len(pairs)} paths"
    return found


class DiagonalAgreement(NamedTuple):
    """The collapse checked against the source's operator, and that
    operator's one run, which is None after a mismatch."""

    tol: float
    mismatches: dict[str, str]
    source_certificate: ConvergenceCertificate | None
    sets_source: SetTuple | None

    @property
    def passed(self) -> bool:
        return not self.mismatches and self.source_certificate.converged

    def summary(self) -> str:
        """A FAIL line per mismatched vertex; else the run's certificate,
        the collapse's too, and a distance of 0 between the fixed points,
        which are one."""
        if self.mismatches:
            return "\n".join(f"vertex {v}: {line} FAIL"
                             for v, line in sorted(self.mismatches.items()))
        cert = self.source_certificate.summary()
        return "\n".join([f"source:   {cert}", f"collapse: {cert}"] + [
            f"vertex {v}: distance 0 (tol {self.tol:.6g}) ok"
            for v in sorted(self.sets_source.clouds)])


def check_diagonal_agreement(sys: MWSystem, tol: float, pitch: float,
                             max_iter: int = 64) -> DiagonalAgreement:
    """Check that the collapse iterates the source's diagonal-degree
    operator (``operator_mismatches``), which must contract, and then refine
    its fixed point at the pitch once (``refine_attractor``)."""
    op = Operator.of(sys, sys.diagonal_degree)
    dg = diagonal_graph(sys.graph)
    mismatches = operator_mismatches(op, diagonal_system(sys, dg), dg.edge_to_path)
    if mismatches:
        return DiagonalAgreement(tol, mismatches, None, None)
    K, cert = refine_attractor(sys, op, pitch, tol, max_iter=max_iter)
    return DiagonalAgreement(tol, {}, cert, K)
