"""The benchmark's workloads: the CLI command each one runs, the config it
generates from the seed, and the check its outputs must pass.

Every ``run`` workload is an ``adahedge run`` invocation on a config that
the benchmark writes itself: the workload's seed goes into ``base_seed``
and ``output_dir`` points at a fresh directory, so the program sees only
the config.  ``verify_quick`` passes its seed on the command line, since
``adahedge verify`` takes no config.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROSTER = "ftl, oracle_hedge, doubling_hedge(phi=2), adahedge(phi=2), variable_hedge"
SLUGS = ("ftl", "oracle_hedge", "doubling_hedge_phi2", "adahedge_phi2", "variable_hedge")
VERIFY_PROPERTIES = 10
DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"
_M64 = (1 << 64) - 1


@dataclass(frozen=True)
class Workload:
    """A workload; why each one is in the benchmark is in BENCHMARK.json."""

    name: str
    published_seed: int
    # run workloads only: where the config comes from and what it overrides
    base_cfg: Optional[str] = None  # shipped config under experiments/, or None
    keys: tuple[tuple[str, str], ...] = ()
    log_x: bool = False
    tiny_keys: tuple[tuple[str, str], ...] = ()

    @property
    def is_run(self) -> bool:
        return self.name != "verify_quick"


def _wide_probs(k: int) -> str:
    return ", ".join(repr(0.30 + 0.40 * i / (k - 1)) for i in range(k))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "iid_k4",
            published_seed=20110717,
            base_cfg="iid.cfg",
            keys=(("repetitions", "8"),),
            tiny_keys=(("horizon_t", "300"), ("repetitions", "3")),
        ),
        Workload(
            "alternating_t1e5",
            published_seed=1,
            base_cfg="alternating.cfg",
            log_x=True,
            tiny_keys=(("horizon_t", "2000"),),
        ),
        Workload(
            "wide_k256",
            published_seed=20110717,
            keys=(
                ("generator", "iid_bernoulli"),
                ("probs", _wide_probs(256)),
                ("horizon_t", "2000"),
                ("repetitions", "4"),
                ("strategies", ROSTER),
            ),
            tiny_keys=(("probs", _wide_probs(16)), ("horizon_t", "200"), ("repetitions", "2")),
        ),
        Workload(
            "verify_quick",
            published_seed=20110718,
        ),
    )
}


def workload_seed(workload: Workload, seed: int) -> int:
    """Seed the program sees: the workload's published seed shifted by the
    benchmark's ``--seed``, so ``--seed 0`` reproduces the published run."""
    return (workload.published_seed + seed) & _M64


_KEY_LINE = re.compile(r"^\s*([A-Za-z_]+)\s*=")


def config_text(root: Path, workload: Workload, seed: int, outdir: Path, tiny: bool) -> str:
    """The flat key=value config of a run workload.

    Starts from the shipped config when there is one and sets the workload's
    own keys, the seed and ``output_dir``; every other line is kept as is.
    """
    keys = dict(workload.keys)
    if tiny:
        keys.update(workload.tiny_keys)
    keys["base_seed"] = str(workload_seed(workload, seed))
    keys["output_dir"] = str(outdir)
    lines = []
    if workload.base_cfg is not None:
        for line in (root / "experiments" / workload.base_cfg).read_text().splitlines():
            match = _KEY_LINE.match(line.split("#", 1)[0])
            if match and match.group(1).lower() in keys:
                continue
            lines.append(line)
    lines += [f"{key} = {value}" for key, value in keys.items()]
    return "\n".join(lines) + "\n"


def config_value(text: str, key: str) -> str:
    for line in text.splitlines():
        name, eq, value = line.split("#", 1)[0].partition("=")
        if eq and name.strip().lower() == key:
            return value.strip()
    raise KeyError(key)


def strategy_rounds(text: str) -> int:
    """S * R * T: strategy-rounds one ``adahedge run`` of this config plays."""
    return (
        len(SLUGS)
        * int(config_value(text, "repetitions"))
        * int(config_value(text, "horizon_t"))
    )


def command(workload: Workload, seed: int, cfg_path: Path) -> list[str]:
    """CLI arguments after ``python3 -m adahedge.cli``."""
    if not workload.is_run:
        return ["verify", "--quick", "--seed", str(workload_seed(workload, seed))]
    return ["run", str(cfg_path)] + (["--log-x"] if workload.log_x else [])


def expected_files() -> list[str]:
    return [f"trace_{slug}.csv" for slug in SLUGS] + ["summary.csv", "regret.svg"]


def digests(outdir: Path) -> dict[str, str]:
    out = {}
    for name in expected_files():
        with open(outdir / name, "rb") as fh:
            out[name] = hashlib.file_digest(fh, "sha256").hexdigest()
    return out


def load_digests() -> dict:
    if not DIGESTS_FILE.exists():
        return {}
    return json.loads(DIGESTS_FILE.read_text())


def check_verify(returncode: int, stdout: str) -> Optional[str]:
    """None when the verify run passed, else what was wrong."""
    if returncode != 0:
        return f"exit code {returncode}"
    if f"all {VERIFY_PROPERTIES} properties passed" not in stdout:
        return "missing 'all 10 properties passed'"
    return None


def check_run(
    returncode: int, stdout: str, outdir: Path, cfg: str, pinned: Optional[dict]
) -> Optional[str]:
    """None when an ``adahedge run`` produced correct outputs, else why not.

    ``pinned`` maps file names to the sha256 digests recorded at the
    workload's published seed; it is None at other seeds, where the outputs
    are checked for internal consistency instead.
    """
    if returncode != 0:
        return f"exit code {returncode}"
    if f"wrote {len(SLUGS)} trace files" not in stdout:
        return "missing the 'wrote ... trace files' line"
    present = sorted(p.name for p in outdir.iterdir())
    if present != sorted(expected_files()):
        return f"output files {present}"
    if pinned is not None:
        got = digests(outdir)
        bad = [name for name in expected_files() if got[name] != pinned.get(name)]
        if bad:
            return f"sha256 mismatch in {bad}"
    return _check_consistency(outdir, cfg)


def _check_consistency(outdir: Path, cfg: str) -> Optional[str]:
    # rows are streamed: holding a trace in memory would raise this process's
    # peak RSS, which floors the peak RSS read for every later child
    horizon = int(config_value(cfg, "horizon_t"))
    reps = int(config_value(cfg, "repetitions"))
    seed = int(config_value(cfg, "base_seed"))
    with open(outdir / "summary.csv", newline="") as fh:
        summary = list(csv.reader(fh))[1:]
    if [row[0] for row in summary] != list(SLUGS):
        return f"summary strategies {[row[0] for row in summary]}"
    for slug, final, mean_segments, r, t, s in summary:
        if (int(r), int(t), int(s)) != (reps, horizon, seed):
            return f"summary row {slug}: repetitions/horizon/seed {r}/{t}/{s}"
        if not (math.isfinite(float(final)) and float(mean_segments) >= 1.0):
            return f"summary row {slug}: regret {final}, segments {mean_segments}"
        rows = events = 0
        last = None
        with open(outdir / f"trace_{slug}.csv", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for last in reader:
                rows += 1
                regret, cum_loss, eta = float(last[1]), float(last[2]), float(last[3])
                # FTL records eta = inf (the infinite-rate limit); NaN never passes
                if not (math.isfinite(regret) and math.isfinite(cum_loss) and eta > 0.0):
                    return f"trace_{slug}.csv round {last[0]}: {last[1:4]}"
                events += int(last[4])
        if rows != horizon or int(last[0]) != horizon:
            return f"trace_{slug}.csv has {rows} rows, expected {horizon}"
        if last[1] != final:
            return f"trace_{slug}.csv last regret {last[1]} != summary {final}"
        if events < reps:
            return f"trace_{slug}.csv: {events} segment starts over {reps} repetitions"
    svg = (outdir / "regret.svg").read_text()
    if svg.count("<polyline") != len(SLUGS) or not svg.rstrip().endswith("</svg>"):
        return "regret.svg is not one complete plot with a line per strategy"
    return None
