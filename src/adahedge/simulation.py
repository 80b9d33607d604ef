"""Loss-stream generators and a repeatable multi-repetition harness.

Randomness contract
-------------------
All randomness flows from one 64-bit counter-based generator (SplitMix64):
output ``i`` of stream ``s`` is ``mix64(s + i * GAMMA)`` where ``GAMMA`` is
the odd constant 0x9E3779B97F4A7C15 and ``mix64`` is the standard
xorshift-multiply finalizer; uniforms in [0, 1) take the top 53 bits.
Repetition ``r`` of an experiment uses the substream seed
``mix64(mix64(base_seed) ^ mix64((r + 1) * GAMMA))``.  Per round the draw
order is fixed (regime first where present, then action 1, then action 2,
...), so every stream is reproducible bit-for-bit from (base_seed, r)
alone, independent of platform, thread count or evaluation order.

Bernoulli sampling emits loss 1 exactly when the uniform draw is < p.

Because output ``i`` depends on ``i`` alone, a stream is generated in
blocks of rows written straight into its ``(T, K)`` array, each block
drawing its own run of counters.  Generation holds the stream plus one
block, and the stream's bits do not depend on the block size.

``run_experiment`` may fan its work out over a process pool capped by the
``ADAHEDGE_THREADS`` environment variable and by the CPU count.  A task is
one repetition's stream and a slice of the roster: the whole roster while
there are at least as many repetitions as workers, else one strategy, so a
single repetition still keeps every worker busy.  The parent adds each
strategy's regret, loss and rate arrays into that strategy's sums as they
arrive, in repetition order, and divides the sums in place into the means.
Every sum is therefore ``0 + r0 + r1 + ...`` whatever the thread count, and
aggregate output is byte-identical for every thread count.  The run holds
the means plus the tasks in flight, never every repetition's arrays.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from .core import _check_int, _check_real, _in_order, _shown
from .strategies import AdaHedge, DoublingHedge, _Kind, run

__all__ = [
    "THREADS_ENV",
    "IidBernoulli",
    "Correlated",
    "AlternatingPair",
    "FtlKiller",
    "GENERATORS",
    "ExperimentConfig",
    "AggregateResult",
    "SegmentStats",
    "derive_seed",
    "unit_uniforms",
    "generate",
    "run_experiment",
    "segment_statistics",
]

THREADS_ENV = "ADAHEDGE_THREADS"

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# most uniforms one generation block draws; a stream's bits do not depend on it.
# Freeing a block's 1 MiB of counters lifts glibc's dynamic mmap and trim
# thresholds above the strategy kernel's per-block arrays; at 2**16 those were
# unmapped and faulted in again every block (84k page faults against 32k at K=256)
_BLOCK = 2**17


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, a bijective avalanche, on a uint64 array in place."""
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def derive_seed(base_seed: int, index: int) -> int:
    """Substream seed for repetition ``index`` under ``base_seed``."""
    index = _check_int("repetition index", index, 0)
    base_seed = _check_int("base_seed", base_seed) & _M64
    x = _mix64(np.array([base_seed, (index + 1) * _GAMMA & _M64], dtype=np.uint64))
    return int(_mix64(x[:1] ^ x[1:])[0])


def _allocate(make, shape, dtype, name: str, value: int) -> np.ndarray:
    """``make(shape, dtype)``, or a MemoryError naming the size that asked for it."""
    try:
        return make(shape, dtype)
    except (ValueError, MemoryError):  # a size numpy cannot address, or bytes the OS lacks
        raise MemoryError(f"{name} = {value} is too long for one array") from None


def _uniforms(seed: int, start: int, out: np.ndarray) -> np.ndarray:
    """Uniforms ``start`` onwards of the stream ``seed`` in [0, 2**64),
    written into the float64 vector ``out``."""
    x = np.arange(start + 1, start + len(out) + 1, dtype=np.uint64)
    x *= np.uint64(_GAMMA)
    x += np.uint64(seed)
    _mix64(x)
    x >>= np.uint64(11)
    return np.multiply(x, 2.0**-53, out=out)


def unit_uniforms(seed: int, n: int) -> np.ndarray:
    """First ``n`` uniforms in [0, 1) of the SplitMix64 stream ``seed``."""
    n = _check_int("n", n, 0)
    seed = _check_int("seed", seed) & _M64
    out = _allocate(np.empty, n, np.float64, "n", n)
    for start in range(0, n, _BLOCK):
        _uniforms(seed, start, out[start : start + _BLOCK])
    return out


# ---------------------------------------------------------------------------
# generators


def _check_prob(name: str, value: float) -> float:
    return _check_real(f"probability {name}", value, 0, 1, low_in=True)


class _Generator:
    """A loss-stream generator over ``k`` actions; two unless it says otherwise."""

    k = 2


@dataclass(frozen=True)
class IidBernoulli(_Generator):
    """Independent 0/1 losses; action k suffers loss 1 with probs[k]."""

    probs: tuple[float, ...]

    def __init__(self, probs):
        probs = _in_order("probs", probs)
        probs = tuple(_check_prob(f"probs[{i}]", p) for i, p in enumerate(probs))
        if len(probs) < 2:
            raise ValueError(f"need at least 2 actions, got {len(probs)}")
        object.__setattr__(self, "probs", probs)

    @property
    def k(self) -> int:
        return len(self.probs)


@dataclass(frozen=True)
class Correlated(_Generator):
    """Two actions whose 0/1 losses share a per-round hard/easy regime.

    A hard round (probability ``hard_prob``) gives action 1 loss 1 with
    probability 1 - p1/t and action 2 loss 1 with probability 1 - p2/t;
    an easy round gives loss 0 with those same probabilities.
    """

    hard_prob: float = 0.3
    p1: float = 0.01
    p2: float = 0.02

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _check_prob(f.name, getattr(self, f.name)))


@dataclass(frozen=True)
class AlternatingPair(_Generator):
    """Deterministic two-action stream: odd rounds (a+eps, b-eps), even
    rounds (a-eps, b+eps).  Action 2's total falls behind by at least
    (b - a - 2*eps) per round pair."""

    a: float
    b: float
    eps: float

    def __post_init__(self):
        for f in fields(self):
            x = _check_real(f.name, getattr(self, f.name), 0, low_in=True)
            object.__setattr__(self, f.name, x)
        if not (0.0 < self.a - self.eps and self.b + self.eps < 1.0):
            raise ValueError("need 0 < a - eps and b + eps < 1")
        if not (self.b - self.a > 2.0 * self.eps):
            raise ValueError("need b - a > 2*eps so action 1 stays ahead")


@dataclass(frozen=True)
class FtlKiller(_Generator):
    """Deterministic leader trap: action 1 yields 0.5, 0, 1, 0, 1, ...;
    action 2 yields 0, 1, 0, 1, 0, ...  Leader play loses every round
    after the first."""


#: Every generator, by the name a config file gives it.
GENERATORS = {
    "iid_bernoulli": IidBernoulli,
    "correlated": Correlated,
    "alternating_pair": AlternatingPair,
    "ftl_killer": FtlKiller,
}


def generate(spec: _Generator, horizon_t: int, seed: int) -> np.ndarray:
    """Loss stream of shape (horizon_t, K) for one repetition seed."""
    t_total = _check_int("horizon_t", horizon_t, 1)
    seed = _check_int("seed", seed) & _M64
    if not isinstance(spec, tuple(GENERATORS.values())):
        raise TypeError(f"unknown generator spec {spec!r}")
    out = _allocate(np.empty, (t_total, spec.k), np.float64, "horizon_t", t_total)

    if isinstance(spec, IidBernoulli):
        k = spec.k
        rows = max(1, _BLOCK // k)
        probs = np.asarray(spec.probs)
        for r0 in range(0, t_total, rows):
            block = out[r0 : r0 + rows]
            _uniforms(seed, r0 * k, block.reshape(-1))
            np.less(block, probs, out=block)
        return out

    if isinstance(spec, Correlated):
        rows = _BLOCK // 3
        draws = np.empty(3 * min(rows, t_total))  # one block's uniforms, reused
        for r0 in range(0, t_total, rows):
            block = out[r0 : r0 + rows]
            u = _uniforms(seed, 3 * r0, draws[: 3 * len(block)]).reshape(-1, 3)
            tv = np.arange(r0 + 1, r0 + len(block) + 1, dtype=np.float64)
            hard = u[:, 0] < spec.hard_prob
            for j, p in enumerate((spec.p1, spec.p2)):
                q = p / tv
                np.less(u[:, j + 1], np.where(hard, 1.0 - q, q), out=block[:, j])
        return out

    if isinstance(spec, AlternatingPair):
        out[0::2, 0] = spec.a + spec.eps
        out[0::2, 1] = spec.b - spec.eps
        out[1::2, 0] = spec.a - spec.eps
        out[1::2, 1] = spec.b + spec.eps
        return out

    # FtlKiller
    out.fill(0.0)
    out[0, 0] = 0.5
    out[2::2, 0] = 1.0  # rounds 3, 5, 7, ...
    out[1::2, 1] = 1.0  # rounds 2, 4, 6, ...
    return out


# ---------------------------------------------------------------------------
# experiment harness


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a generator, a horizon, a strategy roster and a seed."""

    generator: _Generator
    horizon_t: int
    repetitions: int
    strategies: tuple[_Kind, ...]
    base_seed: int
    output_dir: Optional[Path] = None

    def __post_init__(self):
        if not isinstance(self.generator, _Generator):
            raise TypeError(f"generator must be a generator spec, got {self.generator!r}")
        object.__setattr__(self, "horizon_t", _check_int("horizon_t", self.horizon_t, 1))
        object.__setattr__(self, "repetitions", _check_int("repetitions", self.repetitions, 1))
        object.__setattr__(self, "base_seed", _check_int("base_seed", self.base_seed, 0, _M64))
        object.__setattr__(self, "strategies", tuple(_in_order("strategies", self.strategies)))
        if not self.strategies:
            raise ValueError("need at least one strategy")
        if not all(isinstance(kind, _Kind) for kind in self.strategies):
            raise TypeError(f"strategies must be strategy kinds, got {self.strategies!r}")
        slugs = [kind.slug for kind in self.strategies]
        if len(set(slugs)) != len(slugs):
            raise ValueError(f"duplicate strategies in roster: {slugs}")
        if self.output_dir is not None:
            raw = self.output_dir
            try:
                text = os.fspath(raw)
            except TypeError:  # not a path, or its __fspath__ gives neither str nor bytes
                text = None
            if not (isinstance(text, str) and text):  # "" would be the current directory
                raise ValueError(f"output_dir must be a non-empty str or path, got {_shown(raw)}")
            if "\0" in text:
                raise ValueError("output_dir contains a NUL byte")
            object.__setattr__(self, "output_dir", Path(text))

    @property
    def k(self) -> int:
        return self.generator.k

    @property
    def slugs(self) -> list[str]:
        return [kind.slug for kind in self.strategies]


@dataclass
class AggregateResult:
    """Across-repetition aggregates, keyed by strategy slug."""

    config: ExperimentConfig
    mean_regret: dict[str, np.ndarray]
    mean_cum_loss: dict[str, np.ndarray]
    mean_eta: dict[str, np.ndarray]
    segment_events: dict[str, np.ndarray]
    segments_started: dict[str, np.ndarray]

    @property
    def slugs(self) -> list[str]:
        return self.config.slugs

    @property
    def horizon(self) -> int:
        return self.config.horizon_t

    @property
    def repetitions(self) -> int:
        return self.config.repetitions


@dataclass(frozen=True)
class SegmentStats:
    mean: float
    histogram: dict[int, int]


def _resolve_threads(threads: Optional[int]) -> int:
    name, env = "threads", os.environ.get(THREADS_ENV)
    if threads is None and env is not None:
        try:
            name, threads = THREADS_ENV, int(env)
        except ValueError:  # text int() refuses is refused below, by name
            name, threads = THREADS_ENV, env
    threads = _check_int(name, (os.cpu_count() or 1) if threads is None else threads, 1)
    # a fork pool starts all its workers at once; more than the cores buy nothing
    return min(threads, os.cpu_count() or 1)


def _kept(trace) -> tuple:
    """The parts of a trace the merge reads; the rest is freed with it."""
    return trace.regret, trace.cum_agent_loss, trace.eta, tuple(trace.segment_starts)


def _simulate(config: ExperimentConfig, task: tuple[int, tuple[_Kind, ...]]) -> list[tuple]:
    """One task: the strategies ``kinds`` on repetition ``rep``'s stream.

    Returns one (regret, cumulative loss, eta, segment starts) tuple per
    kind; must stay a module-level function so process pools can pickle it.
    """
    rep, kinds = task
    stream = generate(config.generator, config.horizon_t, derive_seed(config.base_seed, rep))
    return [_kept(run(kind, stream)) for kind in kinds]


def _fold(result: AggregateResult, counts: dict, kinds, out: list[tuple]) -> None:
    """Add one task's arrays into the result's running sums, in place.

    A strategy's first repetition becomes its sum: ``0.0 + x`` computed
    into ``x`` is, bit for bit, the first step of a sum started from zeros
    (it turns -0.0 into 0.0), without a zero-filled array beside it.
    """
    for kind, (*arrays, starts) in zip(kinds, out):
        slug = kind.slug
        for sums, x in zip((result.mean_regret, result.mean_cum_loss, result.mean_eta), arrays):
            if slug in sums:
                sums[slug] += x
            else:
                sums[slug] = np.add(0.0, x, out=x)
        result.segment_events[slug][np.asarray(starts, dtype=np.int64) - 1] += 1
        counts[slug].append(len(starts))


def run_experiment(
    config: ExperimentConfig, *, threads: Optional[int] = None
) -> AggregateResult:
    """All repetitions of an experiment, merged in repetition order.

    The merge order (and therefore every float in the output) does not
    depend on ``threads``; the pool only changes wall-clock time.  When
    ``config.output_dir`` is set, trace and summary CSVs are written there.
    """
    threads = _resolve_threads(threads)
    reps = config.repetitions
    t_total = config.horizon_t
    slugs = config.slugs

    # a whole repetition per task, unless that leaves workers idle
    if reps >= threads:
        tasks = [(rep, config.strategies) for rep in range(reps)]
    else:
        tasks = [(rep, (kind,)) for rep in range(reps) for kind in config.strategies]
    worker = partial(_simulate, config)
    workers = min(threads, len(tasks))
    if workers == 1:
        results = map(worker, tasks)
        pool = None
    else:  # started before the sums exist, so its forked workers never hold them
        pool = ProcessPoolExecutor(max_workers=workers)
        chunk = max(1, -(-len(tasks) // (4 * workers)))
        results = pool.map(worker, tasks, chunksize=chunk)

    try:
        events = {s: _allocate(np.zeros, t_total, np.int64, "horizon_t", t_total) for s in slugs}
        # the three mean dicts gain each strategy's sums at its first task
        result = AggregateResult(config, {}, {}, {}, events, {})
        counts = {s: [] for s in slugs}
        for _, kinds in tasks:  # results arrive in task order
            _fold(result, counts, kinds, next(results))  # and are freed once folded
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    for means in (result.mean_regret, result.mean_cum_loss, result.mean_eta):
        for sums in means.values():
            sums /= reps
    result.segments_started = {s: np.asarray(counts[s], dtype=np.int64) for s in slugs}

    if config.output_dir is not None:
        from .reports import write_summary_csv, write_trace_csvs

        write_trace_csvs(result, config.output_dir)
        write_summary_csv(result, config.output_dir)
    return result


def segment_statistics(result: AggregateResult, strategy) -> SegmentStats:
    """Mean and histogram of segments started by a restart strategy.

    ``strategy`` may be the kind record or its slug; it must name an
    AdaHedge or DoublingHedge entry present in the result.
    """
    slug = strategy if isinstance(strategy, str) else strategy.slug
    for kind in result.config.strategies:
        if kind.slug == slug:
            if not isinstance(kind, (AdaHedge, DoublingHedge)):
                raise ValueError(f"{slug} is not a restart (doubling-type) strategy")
            counts = result.segments_started[slug]
            histogram: dict[int, int] = {}
            for c in counts.tolist():
                histogram[c] = histogram.get(c, 0) + 1
            return SegmentStats(
                mean=float(counts.sum() / len(counts)),
                histogram=dict(sorted(histogram.items())),
            )
    raise ValueError(f"strategy {slug!r} not present in this result")
