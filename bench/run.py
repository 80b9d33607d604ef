"""Benchmark of the adahedge CLI, run from the root of a source checkout.

    python3 bench/run.py --workload iid_k4 --seed 0 --seconds 20 --trace 0

Each measured invocation is a fresh ``python3 -m adahedge.cli`` process
(``src/`` on PYTHONPATH), started and reaped by this script, which reads its
CPU time and peak RSS from ``os.wait4`` on that child.  The workload's
config, its output directory and every other file live in a temporary
directory under ``.bench_work/``; the program sees only the config.

``--trace 0`` repeats the invocation for ``--seconds`` and reports the
medians of the end-to-end metrics.  ``--trace 1`` runs, per pass, one
untraced invocation and one traced invocation at one worker, plus
``run_experiment`` alone at one and at two workers, and reports the
per-layer metrics (see ``tracing.py``).  Every output is checked (see
``workloads.py``); a run that fails the check counts in ``failed``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload in turn and prefixes each metric with its workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 9
# every child is killed this long after the run started, so a run always
# ends within the 180 s its caller allows
HARD_LIMIT_S = 170.0
SETUP_CODE = (
    "import sys\n"
    "from adahedge.cli import parse_config\n"
    "if len(sys.argv) > 1:\n"
    "    with open(sys.argv[1]) as fh:\n"
    "        parse_config(fh.read(), sys.argv[1])\n"
)


@dataclass
class Invocation:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


class Bench:
    """One benchmark run: its scratch directory, deadline and tallies."""

    def __init__(self):
        self.started = time.perf_counter()
        WORK.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(dir=WORK))
        self.numpy = "unknown"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def env(self, threads: int) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["ADAHEDGE_THREADS"] = str(threads)
        env["TMPDIR"] = str(self.dir)  # keep the children's temporary files in the checkout
        return env

    def invoke(self, argv: list[str], threads: int) -> Invocation:
        """Run one child to completion; wall, CPU and peak RSS are its own
        (CPU and RSS include the pool workers it reaps)."""
        with tempfile.TemporaryFile("w+", dir=self.dir) as out, tempfile.TemporaryFile(
            "w+", dir=self.dir
        ) as err:
            start = time.perf_counter()
            # its own session, so a timeout can kill the pool workers too
            proc = subprocess.Popen(
                argv,
                cwd=ROOT,
                env=self.env(threads),
                stdout=out,
                stderr=err,
                start_new_session=True,
            )
            left = HARD_LIMIT_S - (start - self.started)
            timer = threading.Timer(max(left, 1.0), os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Invocation(
                proc.returncode,
                out.read(),
                err.read(),
                wall,
                usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0,
            )

    def tally(self, problem):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.failures.append(problem)


def fits(start: float, seconds: float, last_s: float) -> bool:
    """Whether one more pass as long as the last still ends within ``seconds``."""
    return time.perf_counter() - start + last_s <= seconds


class WorkloadRun:
    """Config files, CLI arguments and output checks of one workload."""

    def __init__(self, bench: Bench, workload: wl.Workload, seed: int, tiny: bool, pinned):
        self.bench = bench
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.pinned = pinned  # file name -> sha256 the outputs must have, or None
        self.count = 0
        self.cfg_path = None  # config of the last prepare(), for run workloads

    def prepare(self) -> tuple[list[str], Path, str]:
        """CLI arguments naming a fresh output directory, and the config text."""
        self.count += 1
        outdir = self.bench.dir / f"out{self.count}"
        cfg_path = self.bench.dir / f"run{self.count}.cfg"
        text = ""
        if self.workload.is_run:
            text = wl.config_text(ROOT, self.workload, self.seed, outdir, self.tiny)
            cfg_path.write_text(text)
            self.cfg_path = cfg_path
        return wl.command(self.workload, self.seed, cfg_path), outdir, text

    def check(self, inv: Invocation, outdir: Path, cfg: str):
        if self.workload.is_run:
            problem = wl.check_run(inv.returncode, inv.stdout, outdir, cfg, self.pinned)
            shutil.rmtree(outdir, ignore_errors=True)
        else:
            problem = wl.check_verify(inv.returncode, inv.stdout)
        if problem is not None:
            problem = f"{self.workload.name}: {problem}; stderr: {inv.stderr[-300:]!r}"
        self.bench.tally(problem)
        return problem


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "adahedge.cli", *args]


def setup_probe(bench: Bench, cfg_path) -> Invocation:
    argv = [sys.executable, "-c", SETUP_CODE + "print(sys.modules['numpy'].__version__)"]
    if cfg_path is not None:
        argv.append(str(cfg_path))
    return bench.invoke(argv, 1)


def measure_e2e(bench: Bench, run: WorkloadRun, seconds: float) -> dict[str, float]:
    run.prepare()
    # the first probe compiles the bytecode cache, which users pay once
    bench.numpy = setup_probe(bench, run.cfg_path).stdout.strip()
    setups = []
    for _ in range(SETUP_SAMPLES):
        probe = setup_probe(bench, run.cfg_path)
        bench.tally(None if probe.returncode == 0 else f"setup probe: {probe.stderr[-300:]!r}")
        setups.append(probe.wall_s)

    threads = min(2, os.cpu_count() or 1)
    samples: list[Invocation] = []
    start = time.perf_counter()
    while not samples or fits(start, seconds, samples[-1].wall_s):
        argv, outdir, cfg = run.prepare()
        inv = bench.invoke(cli_argv(argv), threads)
        run.check(inv, outdir, cfg)
        samples.append(inv)
        # a child starts as a copy of this process, so its ru_maxrss never
        # reads below this process's own peak, which must stay under it
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if own >= inv.peak_rss_mb:
            raise RuntimeError(f"benchmark peak RSS {own:.1f} MB hides the child's peak RSS")

    walls = [s.wall_s for s in samples]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(s.cpu_s for s in samples),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
        "setup_s": statistics.median(setups),
    }
    print(
        f"{run.workload.name}: {len(samples)} invocations at {threads} workers, "
        f"wall min {min(walls):.3f} s max {max(walls):.3f} s; "
        f"{SETUP_SAMPLES} setup probes, min {min(setups):.3f} s max {max(setups):.3f} s"
    )
    if run.workload.is_run:
        rounds = wl.strategy_rounds(cfg)
        print(
            f"{run.workload.name}: rounds_per_s {rounds / metrics['wall_s']:.1f} 1/s "
            f"({rounds} strategy-rounds)"
        )
    return metrics


def traced_pass(bench: Bench, run: WorkloadRun) -> dict[str, float]:
    """One untraced and one traced invocation at one worker, plus the
    untraced run_experiment pool timing; returns the per-layer metrics."""
    argv, outdir, cfg = run.prepare()
    plain = bench.invoke(cli_argv(argv), 1)
    run.check(plain, outdir, cfg)

    argv, outdir, cfg = run.prepare()
    spans_path = bench.dir / "spans.json"
    traced_argv = [sys.executable, str(Path(tracing.__file__)), "cli", str(spans_path), "--", *argv]
    traced = bench.invoke(traced_argv, 1)
    if run.check(traced, outdir, cfg) is not None:
        return {}
    spans = tracing.load(spans_path)
    problems = tracing.check_tree(spans)
    bench.tally(f"{run.workload.name}: span tree: {problems}" if problems else None)
    # keep the last pass's spans for inspection
    shutil.copyfile(spans_path, WORK / f"spans-{run.workload.name}.json")
    metrics = tracing.layer_metrics(spans)
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s

    pool = {"s_t1": 0.0, "s_t2": 0.0}
    result_bytes = 0
    if run.workload.is_run:
        pool_argv = [sys.executable, str(Path(tracing.__file__)), "pool", str(run.cfg_path)]
        pool_inv = bench.invoke(pool_argv, 1)
        ok = pool_inv.returncode == 0
        bench.tally(None if ok else f"pool timing: {pool_inv.stderr[-300:]!r}")
        if ok:
            pool = json.loads(pool_inv.stdout.strip().splitlines()[-1])
        horizon = int(wl.config_value(cfg, "horizon_t"))
        reps = int(wl.config_value(cfg, "repetitions"))
        # regret, cumulative loss and eta: three float64 arrays per strategy and repetition
        result_bytes = 3 * horizon * 8 * len(wl.SLUGS) * reps
    metrics["simulation.run_experiment.s_t1"] = pool["s_t1"]
    metrics["simulation.run_experiment.s_t2"] = pool["s_t2"]
    metrics["simulation.run_experiment.parallel_eff"] = (
        pool["s_t1"] / (2.0 * pool["s_t2"]) if pool["s_t2"] > 0 else 0.0
    )
    metrics["simulation.run_experiment.result_bytes"] = result_bytes
    return metrics


def measure_traced(bench: Bench, run: WorkloadRun, seconds: float) -> dict[str, float]:
    passes: list[dict[str, float]] = []
    start = time.perf_counter()
    last_s = 0.0
    while not passes or fits(start, seconds, last_s):
        pass_start = time.perf_counter()
        metrics = traced_pass(bench, run)
        last_s = time.perf_counter() - pass_start
        if not metrics:
            break
        passes.append(metrics)
    if not passes:
        return {}
    out = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        exact = all(isinstance(v, int) for v in values)
        out[name] = statistics.median_low(values) if exact else statistics.median(values)
    return out


# a run is flagged as contended above this share of CPU time stolen by the
# hypervisor, or when the 1-minute load exceeds the core count
STEAL_LIMIT = 0.05


def read_loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def read_steal_s() -> float:
    """CPU seconds the hypervisor has given to other guests, all cores."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def provenance(start: tuple[float, str, float], numpy: str) -> dict:
    """Machine, versions and contention of a run that began at ``start``
    (``time.perf_counter()``, loadavg and steal seconds then)."""
    started, loadavg_start, steal_start = start
    nproc = os.cpu_count() or 1
    elapsed = time.perf_counter() - started
    steal_share = (read_steal_s() - steal_start) / (elapsed * nproc)
    loadavg_end = read_loadavg()
    loads = [float(x.split()[0]) for x in (loadavg_start, loadavg_end) if x[0].isdigit()]
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy,
        "commit": commit,
        "loadavg_start": loadavg_start,
        "loadavg_end": loadavg_end,
        "steal_share": steal_share,
        "contended": max(loads, default=0.0) > nproc or steal_share > STEAL_LIMIT,
    }


def bench_one(name: str, seed: int, seconds: float, trace: bool, tiny: bool):
    workload = wl.WORKLOADS[name]
    pinned = None
    if workload.is_run and seed == 0 and not tiny:
        pinned = wl.load_digests().get(name)
        if pinned is None:
            raise RuntimeError(f"no recorded digests for {name} in {wl.DIGESTS_FILE}")
    bench = Bench()
    try:
        run = WorkloadRun(bench, workload, seed, tiny, pinned)
        if trace:
            bench.numpy = setup_probe(bench, None).stdout.strip()
            metrics = measure_traced(bench, run, seconds)
        else:
            metrics = measure_e2e(bench, run, seconds)
    finally:
        bench.close()
    return bench, metrics


def metric_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument(
        "--seed", type=int, default=0, help="offset added to each workload's published seed"
    )
    parser.add_argument("--seconds", type=float, default=20.0, help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="shrunken workloads, outputs checked without digests"
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "adahedge" / "cli.py").is_file():
        print(f"error: {ROOT} has no src/adahedge/cli.py to benchmark", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    start = (time.perf_counter(), read_loadavg(), read_steal_s())
    units = metric_units(bool(args.trace))
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    failures: list[str] = []
    out: dict[str, dict] = {}
    for name in names:
        bench, metrics = bench_one(name, args.seed, args.seconds, bool(args.trace), args.tiny)
        attempted += bench.attempted
        failed += bench.failed
        failures += bench.failures
        missing = sorted(set(units) - set(metrics))
        if missing:
            failures.append(f"{name}: no value for {missing}")
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, value in metrics.items():
            unit = units.get(metric) or tracing.unit(metric)
            print(f"{name}  {metric:<46} {value:>14.6g} {unit}")
            if metric in units:
                out[prefix + metric] = {"value": value, "unit": unit}
        print(f"{name}  fail_ratio {bench.failed}/{bench.attempted}")

    info = provenance(start, bench.numpy)
    print("provenance " + json.dumps(info))
    if info["contended"]:
        print(
            f"WARNING: contended run: loadavg {info['loadavg_end']} on {info['nproc']} "
            f"cores, {info['steal_share']:.1%} of CPU time stolen"
        )
    for problem in failures:
        print(f"FAILED {problem}", file=sys.stderr)
    correct = failed == 0 and not failures
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
