"""Command-line driver.

Subcommands: validate, attractor, coding, diagonal, duality.  Exit codes:
0 = all checks passed, 1 = checks failed, 2 = input/parse error,
3 = iteration did not converge.  Every numeric flag can also be set through
a KFRACTAL_* environment variable (flag wins); outputs are byte-identical
across runs with the same configuration and seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path as FsPath

from .attractor import SetTuple, compute_attractor
from .boxcount import dimension_estimate
from .coding import (
    check_intertwining,
    check_subsystem,
    coded_cloud,
    compare_attractor_coding,
    required_depth,
    sample_prefixes,
)
from .diagonal import check_diagonal_agreement
from .duality import (
    build_transformation_graph,
    check_density_fidelity,
    check_properness,
    density_fidelity_sweep,
    validate_discrete_system,
)
from .io import (
    InstanceFormatError,
    load_instance,
    packaged_instance,
    write_certificate,
    write_clouds_csv,
    write_diff_pgm,
    write_pgm,
)
from .kgraph import Path, validate_kgraph
from .systems import RELAXED, validate_system

PASS, FAIL, PARSE_ERROR, NO_CONVERGENCE = 0, 1, 2, 3

# the duality sweep tabulates all |T|^|T| self-maps of each fiber size up to
# this one: 46,656 maps at 6, 823,543 at 7
MAX_FIBER_SIZE = 6


def _env(name, default):
    return os.environ.get(f"KFRACTAL_{name.upper()}", default)


def _int_between(lo, hi=None):
    """argparse converter for an integer in [lo, hi] (no upper end if hi is None)."""
    span = f"from {lo} to {hi}" if hi is not None else f">= {lo}"

    def convert(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < lo or (hi is not None and value > hi):
            raise argparse.ArgumentTypeError(f"expected an integer {span}, got {text!r}")
        return value

    return convert


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag in one line, with the input-error exit code."""

    def error(self, message):
        self.exit(PARSE_ERROR, f"{self.prog}: error: {message}\n")


def _parse_degree(text, k):
    if text is None:
        return None
    parts = [int(x) for x in str(text).split(",")]
    if len(parts) == 1 and k > 1:
        parts = parts * k
    if len(parts) != k:
        raise InstanceFormatError(f"degree {text!r} has {len(parts)} entries, rank is {k}")
    return tuple(parts)


def _resolve_instance(arg):
    p = FsPath(arg)
    if p.exists():
        return load_instance(p)
    builtin = packaged_instance(arg)
    if builtin.exists():
        return load_instance(builtin)
    raise InstanceFormatError(f"no such instance file or builtin: {arg}")


def _load_system(args):
    kind, obj = _resolve_instance(args.instance)
    if kind == "mw" and getattr(args, "mode", None):
        obj.mode = args.mode
    return kind, obj


def _outdir(args) -> FsPath:
    out = FsPath(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _validate_graph_and_system(obj, kind):
    """(report lines, ok) for any instance kind."""
    lines = []
    ok = True
    graph = obj if kind == "graph" else obj.graph
    grep = validate_kgraph(graph)
    lines.append(f"graph: {'valid' if grep.ok else 'INVALID'}")
    if not grep.ok:
        ok = False
        lines.extend("  " + str(f) for f in grep.findings)
    if kind == "mw" and grep.ok:
        srep = validate_system(obj)
        lines.append(f"system ({obj.mode} mode, c={obj.ratio:g}): "
                     f"{'valid' if srep.ok else 'INVALID'}")
        if not srep.ok:
            ok = False
            lines.extend("  " + str(f) for f in srep.findings)
    elif kind == "discrete" and grep.ok:
        drep = validate_discrete_system(obj)
        lines.append(f"discrete system: {'valid' if drep.ok else 'INVALID'}")
        if not drep.ok:
            ok = False
            lines.extend("  " + str(f) for f in drep.findings)
    return lines, ok


def cmd_validate(args) -> int:
    kind, obj = _load_system(args)
    lines, ok = _validate_graph_and_system(obj, kind)
    out = _outdir(args)
    write_certificate("\n".join(lines), out / "validate.txt")
    print("\n".join(lines))
    return PASS if ok else FAIL


def _default_pitch(sys) -> float:
    return max(f.diameter() for f in sys.fibers.values()) / 512.0


def _prepare_mw(args):
    kind, obj = _load_system(args)
    if kind != "mw":
        raise InstanceFormatError(f"the {args.command} command needs a metric system")
    lines, ok = _validate_graph_and_system(obj, kind)
    if not ok:
        out = _outdir(args)
        write_certificate("\n".join(lines), out / "validate.txt")
        print("\n".join(lines))
        return None
    return obj


def cmd_attractor(args) -> int:
    sys_ = _prepare_mw(args)
    if sys_ is None:
        return FAIL
    out = _outdir(args)
    h = float(args.pitch) if args.pitch else _default_pitch(sys_)
    tol = float(args.tol) if args.tol else 4.0 * h
    degree = _parse_degree(args.degree, sys_.graph.k) or sys_.diagonal_degree
    C0 = SetTuple.from_fibers(sys_, h)
    K, cert = compute_attractor(sys_, degree, C0, tol=tol, max_iter=int(args.max_iter))

    write_clouds_csv(K, out / "attractor.csv")
    lines = [f"instance: {sys_.name or args.instance}",
             f"degree: {degree}", f"pitch: {h!r}", cert.summary()]
    for v in K.vertices():
        est = dimension_estimate(K, v, coarse=2)
        lines.append(f"vertex {v}: points={len(K.clouds[v])} boxdim~{est:.4f}")
        if sys_.dim == 2:
            write_pgm(K, v, out / f"attractor_{v}.pgm")
    write_certificate("\n".join(lines), out / "certificate.txt")
    print("\n".join(lines))
    return PASS if cert.converged else NO_CONVERGENCE


def cmd_coding(args) -> int:
    sys_ = _prepare_mw(args)
    if sys_ is None:
        return FAIL
    out = _outdir(args)
    h = float(args.pitch) if args.pitch else _default_pitch(sys_)
    tol = float(args.tol) if args.tol else 4.0 * h
    k = sys_.graph.k
    if args.degree:
        depth = _parse_degree(args.degree, k)
    else:
        per = required_depth(sys_, tol)
        if sys_.mode == RELAXED:
            depth = (per,) * k
        else:
            base = max(1, -(-per // k))
            depth = (base,) * k
    C0 = SetTuple.from_fibers(sys_, h)
    K, cert = compute_attractor(sys_, sys_.diagonal_degree, C0, tol=tol,
                                max_iter=int(args.max_iter))
    if not cert.converged:
        write_certificate(cert.summary(), out / "certificate.txt")
        print(cert.summary())
        return NO_CONVERGENCE
    T2, err = coded_cloud(sys_, depth, pitch=h, seed=int(args.seed),
                          count=int(args.count) if args.count else None)
    agree_tol = tol + 2.0 * h + 2.0 * err
    agree = compare_attractor_coding(sys_, K, T2, agree_tol)
    sub = check_subsystem(sys_, T2, tol=2.0 * h + 2.0 * err)
    lines = [
        f"instance: {sys_.name or args.instance}",
        f"depth: {depth}  coded-error: {err!r}",
        cert.summary(),
        f"attractor-vs-coded (tol {agree_tol:g}): {'pass' if agree else 'FAIL'}",
        f"invariance of the coded cloud: {'pass' if sub.passed else 'FAIL'}",
    ]
    failures = not agree or not sub.passed
    for e, d in sorted(sub.edge_distances.items()):
        lines.append(f"  edge {e}: one-sided distance {d:.6g}")
    if sys_.mode != RELAXED:
        # spot-check prepending one generator against mapping the coded point
        for ident in sorted(sys_.generators):
            e = sys_.graph.edge(ident)
            lam = Path(sys_.graph, e.range_vertex, (ident,))
            deep = tuple(max(c, depth[0]) for c in depth)
            prefixes = sample_prefixes(
                sys_.graph, e.source_vertex, deep, count=20,
                seed=int(args.seed), replace=True,
            )
            rep = check_intertwining(sys_, lam, prefixes, tol=max(tol, 8 * err))
            verdict = "pass" if rep.passed else "FAIL"
            lines.append(f"  prepend-vs-map for {ident}: {verdict} "
                         f"(max distance {rep.max_distance:.3g})")
            if not rep.passed:
                failures = True
                for path, dist, allowed in rep.failures[:3]:
                    lines.append(f"    offending path {path!r}: {dist:.3g} > {allowed:.3g}")
    write_clouds_csv(T2, out / "coded.csv")
    write_certificate("\n".join(lines), out / "coding.txt")
    print("\n".join(lines))
    return FAIL if failures else PASS


def cmd_diagonal(args) -> int:
    sys_ = _prepare_mw(args)
    if sys_ is None:
        return FAIL
    out = _outdir(args)
    h = float(args.pitch) if args.pitch else _default_pitch(sys_)
    tol = float(args.tol) if args.tol else 4.0 * h
    rep = check_diagonal_agreement(sys_, tol=tol, pitch=h, max_iter=int(args.max_iter))
    if not (rep.source_certificate.converged and rep.collapse_certificate.converged):
        write_certificate(rep.summary(), out / "diagonal.txt")
        print(rep.summary())
        return NO_CONVERGENCE
    write_certificate(rep.summary(), out / "diagonal.txt")
    if sys_.dim == 2 and args.render:
        for v in sys_.graph.vertices:
            write_diff_pgm(rep.sets_source, rep.sets_collapse, v,
                           out / f"diagonal_diff_{v}.pgm")
    print(rep.summary())
    return PASS if rep.passed else FAIL


def cmd_duality(args) -> int:
    out = _outdir(args)
    lines = []
    failed = False
    res = density_fidelity_sweep(max_fiber_size=args.max_fiber_size, seed=args.seed)
    lines.append(
        f"sweep over the 2+2-loop template, fiber sizes <= {args.max_fiber_size}: "
        f"{res.instances} assignments, {res.consistent} consistent"
        f"{' (sampled)' if res.sampled else ''}"
    )
    lines.append(
        f"density == fidelity on {res.degrees}: "
        f"{'100% agreement' if res.all_agree else f'{len(res.disagreements)} DISAGREEMENTS'}"
    )
    failed |= not res.all_agree

    if args.instance:
        kind, obj = _resolve_instance(args.instance)
        if kind != "discrete":
            raise InstanceFormatError("duality --instance needs a discrete system")
        vrep = validate_discrete_system(obj)
        if not vrep.ok:
            lines.append(str(vrep))
            failed = True
        else:
            k = obj.graph.k
            probe = [tuple(1 if i == j else 0 for i in range(k)) for j in range(k)]
            probe.append((1,) * k)
            for n in probe:
                verdict = check_density_fidelity(obj, n)
                lines.append(
                    f"instance {obj.name or args.instance} degree {n}: "
                    f"dense={verdict.k_dense} faithful={verdict.k_faithful} "
                    f"agree={verdict.agree}"
                )
                failed |= not verdict.agree
            tkg = build_transformation_graph(obj, (2,) * k)
            lines.append(
                f"twisted product up to {(2,) * k}: "
                f"{'all checks pass' if tkg.report.ok else str(tkg.report)}"
            )
            failed |= not tkg.report.ok
            prep = check_properness(obj)
            lines.append(f"properness: maps={prep.proper_maps} "
                         f"pullbacks={prep.proper_pullbacks} (tautological on finite fibers)")
    write_certificate("\n".join(lines), out / "duality.txt")
    print("\n".join(lines))
    return FAIL if failed else PASS


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="kfractal",
        description="Validate rank-k contraction systems, compute certified "
                    "attractors, and run the structural checks.",
        epilog="Environment overrides: KFRACTAL_PITCH, KFRACTAL_TOL, "
               "KFRACTAL_MAX_ITER, KFRACTAL_SEED, KFRACTAL_OUT.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, needs_instance=True):
        if needs_instance:
            p.add_argument("--instance", required=True,
                           help="instance file, or a builtin name (s1, p2, p2c, t0, f3, d1..d3)")
        p.add_argument("--pitch", default=_env("pitch", None),
                       help="grid pitch h (default: max fiber diameter / 512)")
        p.add_argument("--tol", default=_env("tol", None),
                       help="tolerance (default 4h)")
        p.add_argument("--max-iter", default=_env("max_iter", 64))
        p.add_argument("--seed", default=_env("seed", 0))
        p.add_argument("--out", default=_env("out", "out"), help="output directory")
        p.add_argument("--degree", default=None,
                       help="comma-separated degree vector (default: diagonal)")
        p.add_argument("--mode", default=None, help="override the declared mode")
        p.add_argument("--render", action="store_true", help="write extra rasters")

    common(sub.add_parser("validate", help="check the instance axioms"))
    common(sub.add_parser("attractor", help="iterate to the fixed point, export clouds"))
    p_cod = sub.add_parser("coding", help="compare prefix coding with the attractor")
    common(p_cod)
    p_cod.add_argument("--count", default=None, help="sample size (default exhaustive)")
    common(sub.add_parser("diagonal", help="compare against the rank-1 collapse"))
    p_dual = sub.add_parser("duality", help="exact density/fidelity sweep")
    p_dual.add_argument("--instance", default=None)
    p_dual.add_argument("--max-fiber-size", default=_env("max_fiber_size", 2),
                        type=_int_between(1, MAX_FIBER_SIZE),
                        help=f"largest fiber size swept, 1..{MAX_FIBER_SIZE} (default 2)")
    p_dual.add_argument("--seed", default=_env("seed", 0), type=_int_between(0),
                        help="seed of the sampled sizes (default 0)")
    p_dual.add_argument("--out", default=_env("out", "out"))
    return ap


COMMANDS = {
    "validate": cmd_validate,
    "attractor": cmd_attractor,
    "coding": cmd_coding,
    "diagonal": cmd_diagonal,
    "duality": cmd_duality,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except InstanceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
