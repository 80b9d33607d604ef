"""Span tracing for the benchmark's traced run, and the per-layer metrics
computed from the spans.

Run as a program, this file is the traced child process::

    python3 bench/tracing.py cli SPANS_JSON -- <adahedge CLI arguments>
    python3 bench/tracing.py pool CONFIG

``cli`` replaces the public names each adahedge module calls through with
timing wrappers, then runs ``adahedge.cli.main``.  Spans stay in memory as
``[name, start, end, parent, attrs]`` and are written to SPANS_JSON when the
command returns.  Nothing under ``src/`` is edited: a wrapper is bound in
the namespace where the caller looks the name up.  ``pool`` times
``run_experiment`` untraced at one and at two workers.

Importing this module needs only the standard library; adahedge is
imported by the two commands above.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

from workloads import SLUGS

CORE_FNS = (
    "posterior_update",
    "mixability_gap",
    "hedge_weights",
    "mix_loss",
    "log_marginal_likelihood",
)
# the parent each span name may have; the root is cli.main
PARENTS = {
    "cli.main": {None},
    "cli.parse_config": {"cli.main"},
    "verify.run_suite": {"cli.main"},
    "simulation.run_experiment": {"cli.main", "verify.run_suite"},
    "reports.write_regret_svg": {"cli.main"},
    "reports.write_trace_csvs": {"simulation.run_experiment"},
    "reports.write_summary_csv": {"simulation.run_experiment"},
    "simulation.generate": {"simulation.run_experiment", "verify.run_suite"},
    "strategies.run": {"simulation.run_experiment", "verify.run_suite"},
    **{f"core.{fn}": {"verify.run_suite"} for fn in CORE_FNS},
    "bounds": {"verify.run_suite"},  # every bounds.<fn> span
}
# float slack allowed on self time and on a child's interval inside its parent
_EPS = 1e-9


class Tracer:
    """Collects nested spans from wrapped calls in one thread."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []  # indices of the spans around the current call

    def wrap(self, name, fn, attrs=None):
        """``fn`` recording a span per call; ``attrs(result)`` adds counts."""
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if attrs is not None:
                span[4] = attrs(result)
            return result

        return timed

    def patch(self, module, attr, name, attrs=None):
        setattr(module, attr, self.wrap(name, getattr(module, attr), attrs))


def _run_attrs(trace):
    return {"slug": trace.kind.slug, "rounds": trace.horizon, "segments": trace.segments_started}


def _csv_attrs(paths):
    return {"bytes": sum(path.stat().st_size for path in paths)}


def install(tracer: Tracer) -> None:
    """Bind timing wrappers to the names the adahedge modules call through."""
    from types import SimpleNamespace

    from adahedge import bounds, cli, reports, simulation, verify

    tracer.patch(cli, "parse_config", "cli.parse_config")
    tracer.patch(cli, "run_experiment", "simulation.run_experiment")
    tracer.patch(cli, "write_regret_svg", "reports.write_regret_svg")
    tracer.patch(cli, "run_suite", "verify.run_suite")
    # run_experiment imports the CSV writers from reports when it is called
    tracer.patch(reports, "write_trace_csvs", "reports.write_trace_csvs", _csv_attrs)
    tracer.patch(reports, "write_summary_csv", "reports.write_summary_csv")
    for module in (simulation, verify):
        tracer.patch(module, "generate", "simulation.generate")
        tracer.patch(module, "run", "strategies.run", _run_attrs)
    tracer.patch(verify, "run_experiment", "simulation.run_experiment")
    for fn in CORE_FNS:
        tracer.patch(verify, fn, f"core.{fn}")
    # verify calls the calculators as bounds.<fn>: give it a traced module view
    verify.bounds = SimpleNamespace(
        **{
            name: tracer.wrap(f"bounds.{name}", value) if callable(value) else value
            for name, value in ((n, getattr(bounds, n)) for n in bounds.__all__)
        }
    )


def traced_cli(spans_path: str, argv: list[str]) -> int:
    from adahedge import cli

    tracer = Tracer()
    install(tracer)
    code = tracer.wrap("cli.main", cli.main)(argv)
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans}, fh)
    return code


def time_pool(cfg_path: str) -> int:
    """Print run_experiment seconds at 1 and 2 workers, writers off."""
    import dataclasses

    from adahedge.cli import parse_config
    from adahedge.simulation import run_experiment

    with open(cfg_path) as fh:
        config = parse_config(fh.read(), cfg_path)
    config = dataclasses.replace(config, output_dir=None)
    seconds = {}
    for threads in (1, 2):
        start = time.perf_counter()
        run_experiment(config, threads=threads)
        seconds[f"s_t{threads}"] = time.perf_counter() - start
    print(json.dumps(seconds))
    return 0


# ---------------------------------------------------------------------------
# analysis (parent side)


def load(path) -> list[list]:
    with open(path) as fh:
        return json.load(fh)["spans"]


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children of a span never overlap and
    their summed durations are the part of its interval they cover.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, covered)]


def check_tree(spans) -> list[str]:
    """Problems with the span tree: one cli.main root, every span inside its
    parent's interval under an allowed parent, no negative self time."""
    problems = []
    roots = [i for i, span in enumerate(spans) if span[3] < 0]
    if len(roots) != 1 or spans[roots[0]][0] != "cli.main":
        problems.append(f"expected one cli.main root, got {[spans[i][0] for i in roots]}")
    for i, (name, start, end, parent, _) in enumerate(spans):
        parent_name = spans[parent][0] if 0 <= parent < i else None
        layer = "bounds" if name.startswith("bounds.") else name
        if parent >= i:
            problems.append(f"span {i} {name}: parent {parent} is not an earlier span")
        elif parent_name not in PARENTS.get(layer, ()):
            problems.append(f"span {i} {name}: parent {parent_name}")
        if end < start:
            problems.append(f"span {i} {name}: ends before it starts")
        if parent_name is not None:
            p_start, p_end = spans[parent][1], spans[parent][2]
            if start < p_start - _EPS or end > p_end + _EPS:
                problems.append(f"span {i} {name}: outside its parent's interval")
        if len(problems) > 20:
            break
    for i, own in enumerate(self_times(spans)):
        if own < -_EPS:
            problems.append(f"span {i} {spans[i][0]}: negative self time {own}")
            break
    return problems


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer totals from one traced invocation's spans."""
    total = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    slug_s = defaultdict(float)
    slug_rounds = Counter()
    segments = 0
    csv_bytes = 0
    for span, self_s in zip(spans, self_times(spans)):
        name, start, end, _, attrs = span
        if name.startswith("bounds."):
            name = "bounds"
        total[name] += end - start
        own[name] += self_s
        calls[name] += 1
        if name == "strategies.run":
            slug_s[attrs["slug"]] += end - start
            slug_rounds[attrs["slug"]] += attrs["rounds"]
            segments += attrs["segments"]
        elif name == "reports.write_trace_csvs":
            csv_bytes += attrs["bytes"]

    m = {
        "cli.parse_config.s": total["cli.parse_config"],
        "simulation.generate.calls": calls["simulation.generate"],
        "simulation.generate.s": total["simulation.generate"],
        "simulation.run_experiment.merge_self_s": own["simulation.run_experiment"],
        "strategies.run.calls": calls["strategies.run"],
        "strategies.run.s": total["strategies.run"],
        "strategies.run.segments": segments,
    }
    for slug in SLUGS:
        rounds = slug_rounds[slug]
        m[f"strategies.run.us_per_round.{slug}"] = 1e6 * slug_s[slug] / rounds if rounds else 0.0
    m["reports.write_trace_csvs.s"] = total["reports.write_trace_csvs"]
    m["reports.write_trace_csvs.bytes"] = csv_bytes
    m["reports.write_summary_csv.s"] = total["reports.write_summary_csv"]
    m["reports.write_regret_svg.s"] = total["reports.write_regret_svg"]
    for fn in CORE_FNS:
        m[f"core.{fn}.calls"] = calls[f"core.{fn}"]
        m[f"core.{fn}.s"] = total[f"core.{fn}"]
    m["verify.run_suite.s"] = total["verify.run_suite"]
    m["verify.self_s"] = own["verify.run_suite"]
    m["bounds.calls"] = calls["bounds"]
    m["bounds.s"] = total["bounds"]
    # every layer time also as a share of the traced invocation, which a
    # layer the workload never calls reads as 0 without reporting a time
    wall = total["cli.main"]
    for name in list(m):
        if name.endswith((".s", "_s")):
            m[name[:-1] + "pct"] = 100.0 * m[name] / wall
    m["cli.main.s"] = wall
    return m


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith((".s", "_s", "_t1", "_t2")):
        return "s"
    if name.endswith("pct"):
        return "%"
    if name.endswith("bytes"):
        return "bytes"
    if ".us_per_round." in name:
        return "us"
    if name.endswith("_eff"):
        return "ratio"
    return "count"


def main(argv: list[str]) -> int:
    if len(argv) >= 3 and argv[0] == "cli" and argv[2] == "--":
        return traced_cli(argv[1], argv[3:])
    if len(argv) == 2 and argv[0] == "pool":
        return time_pool(argv[1])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
