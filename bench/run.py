"""End-to-end benchmark of the contractlab CLI.

Usage (from the repository root):

    python3 bench/run.py --workload analyze_n200 --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the harness runs ``python -m contractlab.cli`` (with
``src`` on the path) as a child process, one invocation after another
for ``--seconds`` seconds: a closed loop with one client.  It reports the
median wall time, CPU time and peak RSS of an invocation, the median
time a fresh interpreter takes to ``import contractlab.cli``, and the
share of invocations that succeed.  Times are scaled by a reference
process timed next to each sample (see ``REFERENCE``).  Every output is
checked against the numpy oracle in ``oracle.py``.

With ``--trace 1`` it imports the package in-process and alternates
untraced and traced ``cli.main`` calls for ``--seconds`` seconds, then
reports per-module span times and counts (see ``tracer.py``).

The last line of standard output is the result object; the line before
it is a report with the environment, the input properties and every
sample.  Inputs, the report and the spans of the last traced call are
written under ``.bench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"  # metric names and units

MIN_SETUP_SAMPLES = 7  # fresh-interpreter imports per run; setup_s is their median
MIN_INVOCATIONS = 3  # a run measures at least this many, even past --seconds
CHILD_TIMEOUT = 100.0  # seconds before an invocation is killed and counted failed

# The machine's speed drifts by up to a third over minutes (other tenants
# share its cores), so a run's raw medians depend on when it ran.  After
# each sample the harness times this fixed reference process, which
# shares nothing with contractlab, and reports times at the speed where
# the reference takes REFERENCE_S.  Raw times stay in the report.
REFERENCE = """\
import numpy as np
x = np.linspace(0.1, 0.9, 50)
A = np.full((50, 50), 0.02)
for _ in range(2000):
    x = A @ (3.9 * x * (1.0 - x))
    s = sum(i * 0.5 for i in range(40))
"""
REFERENCE_S = 0.2


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def run_child(cmd: list[str], env: dict, workdir: Path) -> Sample:
    """Run one child process; time it and take its own rusage from wait4."""
    out_path, err_path = workdir / "child.stdout", workdir / "child.stderr"
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=workdir)
        killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                  rss_mb=usage.ru_maxrss / 1024.0, code=proc.returncode,
                  stdout=out_path.read_text(), stderr=err_path.read_text())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def failure(code, stderr: str, errors: list[str]) -> str | None:
    if code != 0:
        return f"exit code {code}: {stderr.strip()[-300:]}"
    if "Traceback (most recent call last)" in stderr:
        return f"traceback on stderr: {stderr.strip()[-300:]}"
    if errors:
        return "oracle rejected output: " + "; ".join(errors[:5])
    return None


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


# ------------------------------------------------------------ environment


def _openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import numpy

    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def environment() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "contractlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    config = numpy.show_config(mode="dicts")
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": config.get("Build Dependencies"),
        "openblas_threads": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "load_model": "closed loop, one client, one invocation at a time",
    }


# ------------------------------------------------------------ runs


def end_to_end(case, seconds: float, workdir: Path) -> tuple[dict, dict]:
    env = child_env()
    base = [sys.executable]
    importer = base + ["-c", "import contractlab.cli"]
    reference = base + ["-c", REFERENCE]
    # The first import compiles bytecode; users pay that once, not per run.
    run_child(importer, env, workdir)

    # Sample k is invocation k (if any) and then import k, so setup_s
    # samples spread over the whole run; references k and k + 1 bracket it.
    cmd = base + ["-m", "contractlab.cli", *case.argv]
    samples, setup, failures = [], [], []
    refs = [run_child(reference, env, workdir)]
    deadline = perf_counter() + seconds
    while True:
        s = run_child(cmd, env, workdir)
        samples.append(s)
        problem = failure(s.code, s.stderr, case.check(s.stdout) if s.code == 0 else [])
        if problem:
            failures.append(problem)
        setup.append(run_child(importer, env, workdir))
        refs.append(run_child(reference, env, workdir))
        typical = statistics.median(x.wall_s for x in samples)
        if len(samples) >= MIN_INVOCATIONS and perf_counter() + typical > deadline:
            break
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(run_child(importer, env, workdir))
        refs.append(run_child(reference, env, workdir))
    invocation_failures = len(failures)
    failures += [f for s in setup + refs if (f := failure(s.code, s.stderr, []))]

    speed = [2.0 * REFERENCE_S / (a.wall_s + b.wall_s) for a, b in zip(refs, refs[1:])]
    raw = {"wall_s": [s.wall_s for s in samples], "cpu_s": [s.cpu_s for s in samples],
           "setup_s": [s.wall_s for s in setup]}
    scaled = {k: [v * f for v, f in zip(values, speed)] for k, values in raw.items()}
    rss = [s.rss_mb for s in samples]
    metrics = {k: statistics.median(v) for k, v in scaled.items()}
    metrics["peak_rss_mb"] = statistics.median(rss)
    metrics["success_rate"] = 1.0 - invocation_failures / len(samples)
    report = {
        "invocations": len(samples),
        "setup_imports": len(setup),
        "reference_runs": len(refs),
        "error_rate": invocation_failures / len(samples),
        **{k: quartiles(v) for k, v in scaled.items()},
        "peak_rss_mb": quartiles(rss),
        "raw": {k: quartiles(v) for k, v in raw.items()},
        "reference_s": quartiles([r.wall_s for r in refs]),
        "samples": [{"wall_s": s.wall_s, "cpu_s": s.cpu_s, "peak_rss_mb": s.rss_mb,
                     "speed": f} for s, f in zip(samples, speed)],
        "failures": failures,
    }
    return metrics, report


def traced(case, seconds: float, workdir: Path, spans_path: Path) -> tuple[dict, dict]:
    import tracer as tr

    tracers, untraced_walls, traced_walls, failures = [], [], [], []
    deadline = perf_counter() + seconds
    while True:
        t = tr.Tracer() if len(untraced_walls) > len(traced_walls) else None
        code, out, wall, error = tr.call_main(case.argv, t)
        problem = failure(code, error, case.check(out) if code == 0 else [])
        if t is None:
            untraced_walls.append(wall)
        else:
            tracers.append(t)
            traced_walls.append(wall)
        if problem:
            failures.append(problem)
        if traced_walls and perf_counter() + wall > deadline:
            break

    tracers[-1].dump(spans_path)
    metrics = tr.layer_metrics(tracers, untraced_walls, traced_walls)
    # The self times partition the root cli.main span, so they sum to the
    # traced wall time by construction and exceed the untraced wall by the
    # tracing overhead.  The check fails only if spans overlap (calls on
    # several threads) or the root span misses part of the call.
    self_sum = statistics.median(t.self_sum() for t in tracers)
    gap = self_sum - metrics["trace.inproc_wall_s"]
    if abs(gap) > abs(metrics["trace.overhead_s"]) + 0.01 * metrics["trace.inproc_wall_s"]:
        failures.append(f"span self times sum to {self_sum:.6f}s, {gap:+.6f}s off the "
                        f"untraced wall; tracing overhead is {metrics['trace.overhead_s']:.6f}s")
    report = {
        "rounds": len(untraced_walls) + len(traced_walls),
        "self_sum_s": self_sum,
        "self_sum_minus_inproc_wall_s": gap,
        "untraced_wall_s": quartiles(untraced_walls),
        "traced_wall_s": quartiles(traced_walls),
        "spans_per_call": len(tracers[-1].spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "failures": failures,
    }
    return metrics, report


def parse_args(argv=None):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    # SIGTERM unwinds like an exception, so children are killed and reaped
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    args = parse_args(argv)
    if not (SRC / "contractlab" / "cli.py").is_file():
        print(f"error: {SRC / 'contractlab'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        case = workloads.WORKLOADS[args.workload].build(args.seed, workdir)
        if args.trace:
            metrics, report = traced(case, args.seconds, workdir,
                                     WORK / f"spans_{args.workload}.jsonl")
            attempted = report["rounds"]
        else:
            metrics, report = end_to_end(case, args.seconds, workdir)
            attempted = (report["invocations"] + report["setup_imports"]
                         + report["reference_runs"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    listed = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    failed = len(report["failures"])
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs": case.properties,
              "environment": environment(), **report}
    (WORK / f"report_{args.workload}_trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str) + "\n")
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
