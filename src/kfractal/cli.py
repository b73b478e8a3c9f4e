"""Command-line driver.

Subcommands: validate, attractor, coding, diagonal, duality.  Exit codes:
0 = all checks passed, 1 = checks failed, 2 = input/parse error,
3 = iteration did not converge.  Each subcommand accepts only the flags it
reads, and checks all of them before it creates ``--out`` or starts work:
attractor, coding and diagonal leave the checks of a run (its start grids,
contraction and ``--tol``) to the library, which refuses before the first
step (diagonal builds its operator first), and create ``--out`` once it
returns.  Outputs are byte-identical across runs with the same flags.  ``run`` is the process
entry point of ``python -m kfractal`` and of the ``kfractal`` script.

The numpy modules are imported when a command needs them: attractor,
coding, diagonal and validate on a metric system always do; validate on a
graph or a discrete system and duality never do.  ``duality`` itself is
imported only by the duality command and by validate on a discrete system.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from pathlib import Path as FsPath
from typing import NoReturn

from .io import (
    InstanceFormatError,
    load_instance,
    packaged_instance,
    write_certificate,
    write_clouds_csv,
    write_pgm,
)
from .kgraph import Path, validate_kgraph
from .report import RELAXED, STRICT, ValidationReport

PASS, FAIL, PARSE_ERROR, NO_CONVERGENCE = 0, 1, 2, 3

# the duality sweep tabulates all |T|^|T| self-maps of each fiber size up to
# this one: 46,656 maps at 6, 823,543 at 7
MAX_FIBER_SIZE = 6


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


def _positive_float(text):
    """argparse converter for a positive, finite float."""
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag in one line, with the input-error exit code."""

    def error(self, message):
        self.exit(PARSE_ERROR, f"{self.prog}: error: {message}\n")


def _parse_degree(text, k):
    if text is None:
        return None
    try:
        parts = [int(x) for x in str(text).split(",")]
    except ValueError:
        parts = None
    if parts is None or min(parts) < 0 or max(parts) == 0:
        raise InstanceFormatError(
            f"degree {text!r} must be non-negative integers, not all zero"
        )
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
    if kind == "mw" and args.mode:
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
        from .systems import validate_system

        srep = validate_system(obj)
        lines.append(f"system ({obj.mode} mode, c={obj.ratio:g}): "
                     f"{'valid' if srep.ok else 'INVALID'}")
        if not srep.ok:
            ok = False
            lines.extend("  " + str(f) for f in srep.findings)
    elif kind == "discrete" and grep.ok:
        from .duality import validate_discrete_system

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


def _pitch_and_tol(args, sys_) -> tuple[float, float]:
    """The grid pitch h (default: max fiber diameter / 512) and the
    tolerance, the largest error bound a run may claim (default 4h), of a
    metric command; a grid too large for some fiber, or no default pitch
    because every fiber is a point, is an input error."""
    from .systems import grid_bounds

    h = args.pitch
    if h is None:
        h = max(f.diameter() for f in sys_.fibers.values()) / 512.0
        if h <= 0:
            raise InstanceFormatError(
                "every fiber has diameter 0, so there is no default pitch: give --pitch")
    for v, f in sys_.fibers.items():
        try:
            grid_bounds(f.region, h)
        except ValueError as exc:
            raise InstanceFormatError(f"fiber {v!r}: {exc}") from None
    tol = args.tol if args.tol is not None else 4.0 * h
    if tol == math.inf:
        raise InstanceFormatError(f"the default --tol, 4·pitch, overflows at pitch {h!r}: give --tol")
    return h, tol


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
    from .attractor import refine_attractor
    from .boxcount import dimension_estimate

    sys_ = _prepare_mw(args)
    if sys_ is None:
        return FAIL
    h, tol = _pitch_and_tol(args, sys_)
    degree = _parse_degree(args.degree, sys_.graph.k) or sys_.diagonal_degree
    try:
        K, cert = refine_attractor(sys_, degree, h, tol, max_iter=args.max_iter)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None
    out = _outdir(args)

    write_clouds_csv(K, out / "attractor.csv")
    lines = [f"instance: {sys_.name or args.instance}",
             f"degree: {degree}", f"pitch: {h!r}", cert.summary()]
    for v in K.vertices():
        est = dimension_estimate(K, v)
        lines.append(f"vertex {v}: points={len(K.clouds[v])} boxdim~{est:.4f}")
        if sys_.dim == 2:
            write_pgm(K, v, out / f"attractor_{v}.pgm")
    write_certificate("\n".join(lines), out / "certificate.txt")
    print("\n".join(lines))
    return PASS if cert.converged else NO_CONVERGENCE


def cmd_coding(args) -> int:
    from .attractor import refine_attractor
    from .coding import (
        check_intertwining,
        check_subsystem,
        coded_cloud,
        coded_error,
        compare_attractor_coding,
        path_budget,
        require_codable,
        required_depth,
        sample_prefixes,
    )

    sys_ = _prepare_mw(args)
    if sys_ is None:
        return FAIL
    h, tol = _pitch_and_tol(args, sys_)
    # the coded cloud is compared within tol + 2h + 2·err; a threshold that
    # overflows to inf would pass without checking anything
    if tol + 2.0 * h == math.inf:
        raise InstanceFormatError(
            f"--tol {tol!r} plus 2·pitch overflows at pitch {h!r}: give a smaller --tol or --pitch")
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
    deep = tuple(max(c, depth[0]) for c in depth)
    try:
        require_codable(sys_, depth)
        path_budget(sys_.graph, depth, args.count)
        if deep != depth:
            # the spot checks below draw 20 prefixes at `deep`
            path_budget(sys_.graph, deep, 20)
        err = coded_error(sys_, depth)
        agree_tol = tol + 2.0 * h + 2.0 * err
        if agree_tol == math.inf:
            raise InstanceFormatError(
                f"the agreement threshold, --tol {tol!r} + 2·pitch + 2·coded error {err!r}, "
                "overflows")
        K, cert = refine_attractor(sys_, sys_.diagonal_degree, h, tol, max_iter=args.max_iter)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None
    out = _outdir(args)
    if not cert.converged:
        write_certificate(cert.summary(), out / "certificate.txt")
        print(cert.summary())
        return NO_CONVERGENCE
    T2 = coded_cloud(sys_, depth, pitch=h, seed=args.seed, count=args.count)
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
            rows = sample_prefixes(sys_.graph, e.source_vertex, deep, count=20, seed=args.seed)
            rep = check_intertwining(sys_, lam, rows, tol=max(tol, 8 * err))
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
    from .diagonal import check_diagonal_agreement

    sys_ = _prepare_mw(args)
    if sys_ is None:
        return FAIL
    h, tol = _pitch_and_tol(args, sys_)
    try:
        rep = check_diagonal_agreement(sys_, tol, h, max_iter=args.max_iter)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None
    out = _outdir(args)
    write_certificate(rep.summary(), out / "diagonal.txt")
    print(rep.summary())
    if rep.passed:
        return PASS
    return FAIL if rep.mismatches else NO_CONVERGENCE


def cmd_duality(args) -> int:
    from .duality import (
        check_density_fidelity,
        density_fidelity_sweep,
        twisted_product,
        validate_discrete_system,
    )

    obj = None
    if args.instance:
        kind, obj = _resolve_instance(args.instance)
        if kind != "discrete":
            raise InstanceFormatError("duality --instance needs a discrete system")
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
    unchecked = [size for size, n in res.consistent_by_size.items() if n == 0]
    if unchecked:
        lines.append(
            "unchecked fiber sizes (no consistent assignment drawn): "
            + ", ".join(map(str, unchecked))
        )
    failed |= not res.all_agree

    if obj is not None:
        vrep = validate_kgraph(obj.graph)
        if vrep.ok:
            vrep = validate_discrete_system(obj)
        if not vrep.ok:
            lines.append(str(vrep))
            failed = True
        else:
            k = obj.graph.k
            probe = [tuple(1 if i == j else 0 for i in range(k)) for j in range(k)]
            probe.append((1,) * k)
            # at rank 1 the diagonal degree is e_1
            for n in dict.fromkeys(probe):
                verdict = check_density_fidelity(obj, n)
                lines.append(
                    f"instance {obj.name or args.instance} degree {n}: "
                    f"dense={verdict.k_dense} faithful={verdict.k_faithful} "
                    f"agree={verdict.agree}"
                )
                failed |= not verdict.agree
            # a clean skeleton presents a k-graph at every degree, so in
            # particular up to (2, ..., 2); sources are allowed
            trep = ValidationReport([
                f for f in validate_kgraph(twisted_product(obj)).findings
                if f.code != "source-vertex"
            ])
            lines.append(
                f"twisted product up to {(2,) * k}: "
                f"{'all checks pass' if trep.ok else str(trep)}"
            )
            failed |= not trep.ok
    write_certificate("\n".join(lines), out / "duality.txt")
    print("\n".join(lines))
    return FAIL if failed else PASS


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="kfractal",
        description="Validate rank-k contraction systems, compute certified "
                    "attractors, and run the structural checks.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, help, iterates=True):
        """A subparser with validate's flags, plus the iteration flags if
        the command iterates the operator."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--instance", required=True,
                       help="instance file, or a builtin name (s1, p2, p2c, t0, f3, d1..d3)")
        p.add_argument("--mode", choices=(STRICT, RELAXED), help="override the declared mode")
        p.add_argument("--out", default="out", help="output directory")
        if iterates:
            p.add_argument("--pitch", type=_positive_float,
                           help="grid pitch h > 0 (default: max fiber diameter / 512)")
            p.add_argument("--tol", type=_positive_float,
                           help="the largest error bound a run may claim (4·pitch), > 0")
            p.add_argument("--max-iter", default=64, type=_int_between(1),
                           help="iteration limit of each refinement level >= 1 (default 64)")
        return p

    command("validate", "check the instance axioms", iterates=False)
    command("attractor", "iterate to the fixed point, export clouds").add_argument(
        "--degree", help="comma-separated degree vector (default: diagonal)")
    p_cod = command("coding", "compare prefix coding with the attractor")
    p_cod.add_argument("--degree", help="comma-separated coding depth (default: the least "
                                        "depth whose coded error is below the tolerance)")
    p_cod.add_argument("--seed", default=0, type=_int_between(0),
                       help="seed of the sampled prefixes (default 0)")
    p_cod.add_argument("--count", type=_int_between(1),
                       help="sample size >= 1 (default exhaustive)")
    command("diagonal", "check the rank-1 collapse's operator, then iterate it once")
    p_dual = sub.add_parser("duality", help="exact density/fidelity sweep")
    p_dual.add_argument("--instance", help="a discrete instance to check as well")
    p_dual.add_argument("--max-fiber-size", default=2,
                        type=_int_between(1, MAX_FIBER_SIZE),
                        help=f"largest fiber size swept, 1..{MAX_FIBER_SIZE} (default 2)")
    p_dual.add_argument("--seed", default=0, type=_int_between(0),
                        help="seed of the sampled sizes (default 0)")
    p_dual.add_argument("--out", default="out", help="output directory")
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


def run() -> NoReturn:
    """The process entry point: ``main()`` on ``sys.argv``, then exit with
    its code.

    Before exiting it moves every object into the permanent generation
    (``gc.freeze``), so the interpreter's last collection does not walk the
    tens of thousands that numpy and the package leave behind; the
    operating system reclaims them with the process.  A bad flag exits from
    inside ``main``, through argparse, before any command runs, and does not
    freeze.  In-process callers use ``main`` and keep normal collection.
    """
    code = main()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":  # pragma: no cover
    run()
