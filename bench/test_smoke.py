"""Smoke test of the benchmark: every workload at a tiny size, traced and
untraced, the span tree of each traced run, the output check, and the
refusal to run outside a source checkout.

    python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_SPANS = {
    "cli.main",
    "cli.parse_config",
    "simulation.run_experiment",
    "simulation.generate",
    "strategies.run",
    "reports.write_trace_csvs",
    "reports.write_summary_csv",
    "reports.write_regret_svg",
}
VERIFY_SPANS = {
    "cli.main",
    "verify.run_suite",
    "simulation.generate",
    "strategies.run",
    "core.posterior_update",
    "core.mixability_gap",
    "core.mix_loss",
    "core.log_marginal_likelihood",
}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=175,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tiny_config(workload: wl.Workload) -> str:
    return wl.config_text(ROOT, workload, 1, ROOT / "unused", tiny=True)


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name):
    result = result_line(
        bench("--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0", "--tiny")
    )
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_traced_run_span_tree(name):
    result = result_line(
        bench("--workload", name, "--seed", "1", "--seconds", "1", "--trace", "1", "--tiny")
    )
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}

    spans = tracing.load(ROOT / ".bench_work" / f"spans-{name}.json")
    assert tracing.check_tree(spans) == []
    assert min(tracing.self_times(spans)) >= -1e-9
    names = {span[0] for span in spans}
    metrics = {key: m["value"] for key, m in result["metrics"].items()}
    workload = wl.WORKLOADS[name]
    if workload.is_run:
        assert RUN_SPANS <= names
        reps = int(wl.config_value(tiny_config(workload), "repetitions"))
        assert metrics["simulation.generate.calls"] == reps
        assert metrics["strategies.run.calls"] == len(wl.SLUGS) * reps
        assert metrics["strategies.run.segments"] >= len(wl.SLUGS) * reps
        assert metrics["verify.run_suite.pct"] == 0 and metrics["bounds.calls"] == 0
    else:
        assert VERIFY_SPANS <= names
        assert any(n.startswith("bounds.") for n in names)
        assert metrics["bounds.calls"] > 0 and metrics["core.posterior_update.calls"] > 0
        assert metrics["reports.write_trace_csvs.pct"] == 0


def test_check_tree_flags_a_child_outside_its_parent():
    good = [["cli.main", 0.0, 10.0, -1, None], ["cli.parse_config", 1.0, 2.0, 0, None]]
    assert tracing.check_tree(good) == []
    assert tracing.self_times(good) == [9.0, 1.0]
    bad = [["cli.main", 0.0, 1.0, -1, None], ["cli.parse_config", 0.5, 2.0, 0, None]]
    problems = tracing.check_tree(bad)
    assert any("outside its parent" in p for p in problems)
    assert any("negative self time" in p for p in problems)
    orphan = [["cli.main", 0.0, 1.0, -1, None], ["strategies.run", 0.1, 0.2, 0, None]]
    assert any("parent cli.main" in p for p in tracing.check_tree(orphan))


def test_output_check_catches_changed_bytes():
    bench_run = run.Bench()
    try:
        wrun = run.WorkloadRun(bench_run, wl.WORKLOADS["iid_k4"], 1, True, None)
        argv, outdir, cfg = wrun.prepare()
        inv = bench_run.invoke(run.cli_argv(argv), 1)
        assert wl.check_run(inv.returncode, inv.stdout, outdir, cfg, None) is None
        pinned = wl.digests(outdir)
        assert wl.check_run(inv.returncode, inv.stdout, outdir, cfg, pinned) is None

        trace = outdir / "trace_adahedge_phi2.csv"
        lines = trace.read_text().splitlines()
        fields = lines[-1].split(",")
        fields[1] = "0" if fields[1] != "0" else "1"
        trace.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
        assert "sha256 mismatch" in wl.check_run(inv.returncode, inv.stdout, outdir, cfg, pinned)
        assert "last regret" in wl.check_run(inv.returncode, inv.stdout, outdir, cfg, None)
    finally:
        bench_run.close()


def test_refuses_to_run_without_the_source_tree():
    run.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=run.WORK))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "iid_k4", "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
