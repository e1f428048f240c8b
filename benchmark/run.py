"""Benchmark of the coupled-splitting CLI: solve, rp-expect and analyze.

One run measures one workload in this fresh process, as a closed loop with
one client: the workload's CLI commands run back to back through
`coupled_splitting.cli.main(argv)`, in passes of the same commands, until
--seconds have elapsed (at least two passes). Every command is one
operation; it fails when its exit code differs from the expected one or
when the benchmark's own check of its output fails. Artifacts must also be
byte-identical from pass to pass.

    python3 benchmark/run.py --workload solve --seed 0 --seconds 25 --trace 0

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 passes alternate between untraced and
traced, and it holds the per-layer metrics instead. --workload all runs
every workload, each in its own process, and prints one result line each.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported: on the few shared
# cores of a small host a second BLAS thread competes with other tenants
# for the core the interpreter needs, and the matrices here are too small
# to gain from it. The import probe's interpreter inherits the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
RESULTS_DIR = ROOT / ".bench_results"

SETUP_REPS = 5
MIN_PASSES = 2

# Host-speed probe. Shared hosts switch, for seconds to tens of seconds at a
# time, between speeds that differ by up to about 1.9 times, and CPU time
# slows with wall time, so the slowdown is the processor's own, not time
# spent descheduled. Every timed command is bracketed by a probe of fixed
# work, and an interval timer probes again every PROBE_EVERY_S while it
# runs; the probes' own time is taken out of the command's. Its time is
# then scaled by the mean of PROBE_REF_S / probe over these probes: the time
# the command would take on a host where the probe takes PROBE_REF_S.
# That seconds figure is what the end-to-end times report.
PROBE_REF_S = 0.002
PROBE_ROUNDS = 150
PROBE_EVERY_S = 0.05
_PROBE_RNG = np.random.default_rng(0)
_PROBE_M = _PROBE_RNG.standard_normal((12, 12))
_PROBE_M = _PROBE_M @ _PROBE_M.T + 12.0 * np.eye(12)
_PROBE_V = np.ones(12)

# The package import is timed in a fresh interpreter, probed the same way
# but with a pure-Python probe, since numpy must not be imported before the
# package. It prints the import's seconds without the probes', then every
# probe.
IMPORT_PROBE_REF_S = 0.002
IMPORT_PROBE = """
import signal, time

def probe():
    t0 = time.perf_counter()
    acc = 0
    for i in range(25000):
        acc += i * i
    return time.perf_counter() - t0

probes, paused = [probe()], 0.0

def probe_now(_signum, _frame):
    global paused
    t0 = time.perf_counter()
    probes.append(probe())
    paused += time.perf_counter() - t0

signal.signal(signal.SIGALRM, probe_now)
signal.setitimer(signal.ITIMER_REAL, 0.02, 0.02)
t0 = time.perf_counter()
import coupled_splitting.cli
signal.setitimer(signal.ITIMER_REAL, 0)
seconds = time.perf_counter() - t0 - paused
probes.append(probe())
print(seconds, *probes)
"""


def fail(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import the package from this checkout's src/, and nowhere else."""
    if not (SRC / "coupled_splitting" / "__init__.py").is_file():
        fail(f"no package source under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import coupled_splitting.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "coupled_splitting").resolve():
        fail(f"imported {cli.__file__}, not the package under {SRC}")
    return cli


def probe() -> float:
    """Seconds for a fixed mix of interpreter work and small numpy calls,
    like the program's own; used to scale timings to a reference speed."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(PROBE_ROUNDS):
        acc += float(np.linalg.solve(_PROBE_M, _PROBE_V) @ _PROBE_V) + 0.5 * i
    return time.perf_counter() - t0


def scaled(seconds: float, probes: list, ref: float = PROBE_REF_S) -> float:
    """`seconds` measured while `probes` were taken, scaled to a host on
    which the probe takes `ref`."""
    return seconds * statistics.fmean(ref / p for p in probes)


def probed(fn, *args):
    """Call fn(*args) while an interval timer probes every PROBE_EVERY_S;
    return its result, its wall time without the probes' own, and the
    probes taken during it."""
    inner, paused = [], [0.0]

    def probe_now(_signum, _frame):
        t0 = time.perf_counter()
        inner.append(probe())
        paused[0] += time.perf_counter() - t0

    previous = signal.signal(signal.SIGALRM, probe_now)
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = time.perf_counter()
        signal.signal(signal.SIGALRM, previous)
    return result, t1 - t0 - paused[0], inner


def time_import() -> float:
    """Scaled seconds to import the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    seconds, *probes = (float(v) for v in done.stdout.split())
    return scaled(seconds, probes, IMPORT_PROBE_REF_S)


def set_up(workload: str, seed: int, work: Path):
    """Build the workload SETUP_REPS times from the seed; return its
    commands and the median set-up time (package import in a fresh
    interpreter, plus generating, writing and referencing the instances),
    each part scaled by the probes around and during it."""
    times = []
    for _ in range(SETUP_REPS):
        shutil.rmtree(work, ignore_errors=True)
        before = probe()
        ops, seconds, inner = probed(workloads.build, workload, seed, work)
        times.append(scaled(seconds, [before, *inner, probe()]) + time_import())
    return ops, statistics.median(times)


class Runner:
    """Runs passes over a workload's commands and checks every result."""

    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.digests: dict = {}
        self.problems: list = []
        # the value returned by the library call a `solve` command makes;
        # trace.csv does not carry the final (x, mu)
        self.returned = None
        run_solver = cli.run_solver

        def capture(*args, **kwargs):
            self.returned = run_solver(*args, **kwargs)
            return self.returned

        cli.run_solver = capture

    def run_pass(self, tracer=None) -> dict:
        """One pass over the commands: each command's wall time, raw and
        scaled by the probes before, during and after it, and the pass's CPU
        time and artifact bytes. A traced pass is not probed during its
        commands, so that no probe falls inside a span."""
        times, scaled_times = [], []
        edge = probe()
        probes = [edge]
        cpu = 0.0
        written = 0
        for op in self.ops:
            self.returned = None
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                c0 = os.times()
                if tracer is None:
                    rc, seconds, inner = probed(self._call, op, None)
                else:
                    t0 = time.perf_counter()
                    rc = self._call(op, tracer)
                    seconds, inner = time.perf_counter() - t0, []
                c1 = os.times()
            times.append(seconds)
            edge_after = probe()
            scaled_times.append(scaled(seconds, [edge, *inner, edge_after]))
            edge = edge_after
            probes.append(edge)
            cpu += (c1.user - c0.user) + (c1.system - c0.system) - sum(inner)
            problems = checks.check_exit(rc, op.expected_rc)
            if not problems:
                problems = self._check(op)
            files = sorted(p for p in op.out.iterdir() if p.is_file()) if op.out.is_dir() else []
            written += sum(p.stat().st_size for p in files)
            digest = checks.digest(files)
            if self.digests.setdefault(op.label, digest) != digest:
                problems.append("artifacts differ from the first pass")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append((op.label, problems, sink.getvalue()[-2000:]))
        return {"times": times, "scaled": scaled_times, "probes": probes, "cpu": cpu, "written": written}

    def _call(self, op, tracer):
        """Run one command; return its exit code, or a description of the
        exception it raised."""
        try:
            if tracer is None:
                return self.cli.main(op.argv)
            return tracer.call("cli.main", self.cli.main, op.argv)
        except SystemExit as exc:
            return exc.code
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            return f"{type(exc).__name__}: {exc}"

    def _check(self, op) -> list:
        try:
            return op.check(op.out, self.returned)
        except (OSError, ValueError, KeyError, IndexError, AttributeError) as exc:
            return [f"output unreadable: {type(exc).__name__}: {exc}"]


def measure(runner: Runner, seconds: float, trace: bool, tracer=None, targets=None) -> dict:
    """Passes until `seconds` have elapsed; with trace, each round is one
    untraced pass followed by one traced pass. The process's peak memory is
    read after the first MIN_PASSES untraced passes, so that it does not
    depend on how many passes fit in the run."""
    plain, traced = [], []
    rss_mb = None
    deadline = time.perf_counter() + seconds
    while len(plain) < MIN_PASSES or time.perf_counter() < deadline:
        plain.append(runner.run_pass())
        if len(plain) == MIN_PASSES:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            tracer.counts = {}
            lo = tracer.mark()
            tracer.install(targets)
            try:
                stats = runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            stats["spans"] = tracer.summarize(lo, tracer.mark())
            stats["counts"] = dict(tracer.counts)
            traced.append(stats)
    return {"plain": plain, "traced": traced, "rss_mb": rss_mb}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def typical(passes: list, key: str = "scaled") -> float:
    """Sum over commands of each command's median time across passes."""
    return sum(statistics.median(col) for col in zip(*(p[key] for p in passes)))


def end_to_end(passes: dict, setup_s: float) -> dict:
    return {
        "wall_s": metric(typical(passes["plain"]), "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(passes["rss_mb"], "MiB"),
    }


def per_layer(passes: dict) -> dict:
    rows = []
    for p in passes["traced"]:
        row = tracing.layer_values(p["spans"], p["counts"])
        row["cli.bytes_written"] = p["written"]
        rows.append(row)
    out = {}
    for name, unit in tracing.LAYER_METRICS:
        if name == "process.cpu_s":
            value = min(p["cpu"] for p in passes["plain"])
        elif name == "trace.overhead_s":
            value = typical(passes["traced"]) - typical(passes["plain"])
        else:
            value = min(row[name] for row in rows)
        out[name] = metric(value, unit)
    return out


def run_one(args) -> int:
    cli = import_program()
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        ops, setup_s = set_up(args.workload, args.seed, work)
        runner = Runner(cli, ops)
        tracer = targets = None
        if args.trace:
            from coupled_splitting import model, rp, solvers, spectral

            tracer = tracing.Tracer()
            targets = tracing.layer_targets(cli, model, solvers, rp, spectral)
        passes = measure(runner, args.seconds, bool(args.trace), tracer, targets)
        if tracer is not None:
            RESULTS_DIR.mkdir(exist_ok=True)
            tracer.save(RESULTS_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    for label, problems, output in runner.problems:
        print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)
        if output.strip():
            print(output.rstrip(), file=sys.stderr)
    metrics = per_layer(passes) if args.trace else end_to_end(passes, setup_s)
    probes = [t for p in passes["plain"] for t in p["probes"]]
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"passes={len(passes['plain'])} attempted={runner.attempted} failed={runner.failed} "
        f"unscaled_wall_s={typical(passes['plain'], 'times')!r} probe_median_s={statistics.median(probes)!r}"
    )
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, one after the other."""
    status = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print(f"{name}: {lines[-1] if done.returncode == 0 and lines else f'exit {done.returncode}'}")
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
