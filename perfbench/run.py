"""kfractal benchmark: fresh CLI processes on seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid-attractor --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the operations of the workload run back to back, each in
its own process (a closed loop with one client), until ``--seconds`` have
passed and every operation has run at least once.  The end-to-end metrics
are reported: ``setup_s`` (median of several fresh processes that import
``kfractal.cli`` and load the workload's instances), ``wall_s`` (summed
per-operation median wall time) and ``peak_rss_mb`` (largest child peak
RSS).

With ``--trace 1`` one untraced and one traced pass run; the traced pass
wraps the package's modules (see trace_child.py) and the per-layer metrics
are reported.  Both passes must write byte-identical artifacts.

Every operation's exit code, verdict lines and artifacts are checked; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run record with the machine
facts, calibration times and every operation's timings and artifact hashes
is written to ``.bench_work/records/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE.parent) not in sys.path:  # run as a script: make the package importable
    sys.path.insert(0, str(HERE.parent))

from perfbench import generate, layers, workloads  # noqa: E402

SETUP_REPEATS = 7
# A child still running this long after the run started is killed and
# counts as failed, so that a run ends within three minutes.
RUN_LIMIT_S = 165.0

SETUP_PROBE = """\
import sys
from pathlib import Path
import kfractal.cli
from kfractal.io import load_instance, packaged_instance
for arg in sys.argv[1:]:
    load_instance(arg if Path(arg).exists() else packaged_instance(arg))
"""

FACTS_PROBE = """\
import json, os, platform, numpy, scipy
import kfractal.cli
from kfractal import _kernels
print(json.dumps({"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "kernel_backend": _kernels.BACKEND, "machine": platform.machine()}))
"""


class Runner:
    """Runs child processes from the checkout root and records what they did."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        env = {k: v for k, v in os.environ.items() if not k.startswith("KFRACTAL_")}
        env["PYTHONPATH"] = str(root / "src")
        self.env = env
        self.traced_env = dict(env, PYTHONPATH=f"{root / 'src'}{os.pathsep}{root}")
        self.serial = 0
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def spawn(self, argv, env=None, cwd=None) -> dict:
        """Run argv to completion; wall time, rusage, exit code and output."""
        self.serial += 1
        cwd = cwd or self.work
        out_path = self.work / f"stdout-{self.serial}.txt"
        err_path = self.work / f"stderr-{self.serial}.txt"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            spawned = time.time()
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env or self.env,
                                    stdout=out, stderr=err, stdin=subprocess.DEVNULL)
            watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text()
        stderr = err_path.read_text()
        out_path.unlink()
        err_path.unlink()
        return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                "maxrss_mb": usage.ru_maxrss / 1024.0, "exit_code": proc.returncode,
                "spawned": spawned, "stdout": stdout, "stderr": stderr[-2000:]}

    def run_op(self, op: workloads.Op, traced: bool) -> dict:
        opdir = self.work / f"op-{self.serial + 1}"
        outdir = opdir / "out"
        opdir.mkdir()
        if traced:
            trace_path = opdir / "trace.json"
            argv = ["-m", "perfbench.trace_child", str(trace_path), *op.argv, "--out", str(outdir)]
            rec = self.spawn(argv, env=self.traced_env, cwd=opdir)
        else:
            argv = ["-m", "kfractal", *op.argv, "--out", str(outdir)]
            rec = self.spawn(argv, cwd=opdir)
        rec["op"] = op.name
        rec["problems"] = op.check(rec["exit_code"], rec["stdout"], outdir)
        rec["sha256"] = _hashes(outdir, rec["stdout"])
        if traced:
            try:
                rec["trace"] = json.loads(trace_path.read_text())
            except (OSError, ValueError) as exc:
                rec["problems"].append(f"no trace record: {exc}")
        del rec["stdout"]
        shutil.rmtree(opdir)
        return rec


def _hashes(outdir: Path, stdout: str) -> dict:
    out = {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    if outdir.is_dir():
        for path in sorted(outdir.rglob("*")):
            if path.is_file():
                out[str(path.relative_to(outdir))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def calibrate(reps: int = 3) -> list[float]:
    """Seconds for a fixed pure-Python loop, to show host speed drift."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i
        times.append(time.perf_counter() - start)
    return times


def prepare_inputs(runner: Runner, workload: str, seed: int):
    """Write the workload's generated instance and validate it with the CLI."""
    kind = workloads.GENERATED[workload]
    if kind is None:
        return None, []
    path = runner.work / f"{kind}-{seed}.json"
    path.write_text(generate.dumps(generate.GENERATORS[kind](seed)))
    rec = runner.spawn(["-m", "kfractal", "validate", "--instance", str(path),
                        "--out", str(runner.work / "validate")])
    lines = rec["stdout"].splitlines()
    problems = []
    if rec["exit_code"] != 0 or not lines or not all(line.endswith(": valid") for line in lines):
        problems.append(f"generated instance does not validate: {rec['stdout']!r} {rec['stderr']!r}")
    return path, [{"op": f"validate {path.name}", "problems": problems, "wall_s": rec["wall_s"],
                   "cpu_s": rec["cpu_s"], "exit_code": rec["exit_code"]}]


def setup_probe(runner: Runner, instances) -> float:
    rec = runner.spawn(["-c", SETUP_PROBE, *instances])
    if rec["exit_code"] != 0:
        raise RuntimeError(f"setup probe failed: {rec['stderr']}")
    return rec["wall_s"]


def timed_loop(runner: Runner, ops, seconds: float):
    """Closed loop, one client: operations back to back in list order, until
    the time is up and each has run at least once.

    A set-up probe runs before each operation (and after the loop until
    there are SETUP_REPEATS of them), so the set-up samples span the same
    stretch of host time as the operations they are compared with.
    """
    instances = list(dict.fromkeys(op.instance for op in ops if op.instance))
    records, setup = [], []
    start = time.perf_counter()
    i = 0
    while i < len(ops) or time.perf_counter() - start < seconds:
        setup.append(setup_probe(runner, instances))
        records.append(runner.run_op(ops[i % len(ops)], traced=False))
        i += 1
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_probe(runner, instances))
    return records, setup


def _repeat_problems(records) -> None:
    """Identical configuration must give identical artifacts on every repeat."""
    first = {}
    for rec in records:
        ref = first.setdefault(rec["op"], rec["sha256"])
        if rec["sha256"] != ref:
            rec["problems"].append("artifacts differ from the first run of this operation")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, ops, seconds: float, record: dict) -> dict:
    records, setup = timed_loop(runner, ops, seconds)
    _repeat_problems(records)
    per_op = {}
    for rec in records:
        per_op.setdefault(rec["op"], []).append(rec["wall_s"])
    record.update(setup_samples_s=setup, operations=records,
                  op_median_s={op: statistics.median(w) for op, w in per_op.items()})
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "wall_s": _metric(sum(statistics.median(w) for w in per_op.values()), "s"),
        "peak_rss_mb": _metric(max(rec["maxrss_mb"] for rec in records), "MB"),
    }


def traced(runner: Runner, ops, record: dict) -> dict:
    plain = [runner.run_op(op, traced=False) for op in ops]
    spanned = [runner.run_op(op, traced=True) for op in ops]
    for a, b in zip(plain, spanned):
        if a["sha256"] != b["sha256"]:
            b["problems"].append("traced artifacts differ from the untraced run")
    record.update(operations=plain + spanned)
    return layers.per_layer(plain, spanned)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "kfractal" / "cli.py").is_file():
        print(f"error: {root} is not a kfractal checkout (src/kfractal/cli.py is missing)",
              file=sys.stderr)
        return 2
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = root / ".bench_work" / f"{label}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, work)
    try:
        facts_rec = runner.spawn(["-c", FACTS_PROBE])
        if facts_rec["exit_code"] != 0:
            print(f"error: cannot import kfractal: {facts_rec['stderr']}", file=sys.stderr)
            return 2
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "machine": json.loads(facts_rec["stdout"]),
                  "calibration_start_s": calibrate()}
        generated, checks = prepare_inputs(runner, args.workload, args.seed)
        ops = workloads.operations(args.workload, args.seed, generated)
        if args.trace:
            metrics = traced(runner, ops, record)
        else:
            metrics = end_to_end(runner, ops, args.seconds, record)
        record["calibration_end_s"] = calibrate()
        records = checks + record["operations"]
        failed = sum(1 for rec in records if rec["problems"])
        record["run"] = {"cpu_s": sum(rec["cpu_s"] for rec in records),
                         "attempted": len(records), "failed": failed,
                         "fail_ratio": failed / len(records)}
        if args.trace:
            metrics["fail_ratio"] = _metric(record["run"]["fail_ratio"], "ratio")
        record["metrics"] = metrics
        records_dir = root / ".bench_work" / "records"
        records_dir.mkdir(exist_ok=True)
        (records_dir / f"{label}.json").write_text(json.dumps(record, indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for rec in records:
        for problem in rec["problems"]:
            print(f"FAILED {rec['op']}: {problem}")
    machine = record["machine"]
    calib = statistics.median(record["calibration_start_s"]), statistics.median(record["calibration_end_s"])
    print(f"{label}: {len(records)} operations, {failed} failed; nproc {machine['nproc']}, "
          f"kernel backend {machine['kernel_backend']}; calibration {calib[0]:.4f} s -> "
          f"{calib[1]:.4f} s; record .bench_work/records/{label}.json")
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
