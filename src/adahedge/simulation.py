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

``run_experiment`` averages each strategy's traces over the repetitions.
One process makes a strategy's means from start to finish: it generates
the streams in repetition order, adds each run's regret, loss and rate
arrays into the strategy's sums, and divides the sums in place into the
means.  Every sum is therefore ``0 + r0 + r1 + ...``, and aggregate output
is byte-identical, whatever the thread count.  The sums, event counts and
segment counts live in shared anonymous mappings made before any worker
forks.  With more than one worker, a process pool capped by the
``ADAHEDGE_THREADS`` environment variable and by the CPU count runs one
task per strategy, so ``min(threads, strategies)`` run at once.  A task
carries only a strategy index and a trace path; the worker writes into the
mappings it inherited and then writes that strategy's trace CSV.  With one
worker or one strategy, or where the platform cannot fork, this process
does it all and writes the traces at the end.  ``_run_tasks`` runs other
independent calls, such as ``verify``'s properties, by the same pool rule.
"""

from __future__ import annotations

import errno
import math
import mmap
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields
from multiprocessing import get_all_start_methods, get_context
from pathlib import Path
from typing import Optional

import numpy as np

from . import reports
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
# workers share the parent's imports and patches; 3.14 makes forkserver Linux's default
_FORK = get_context("fork") if "fork" in get_all_start_methods() else None


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
    # a size numpy or mmap cannot address, or bytes the OS lacks
    except (ValueError, OverflowError, MemoryError, OSError) as exc:
        if isinstance(exc, OSError) and exc.errno != errno.ENOMEM:
            raise
        raise MemoryError(f"{name} = {value} is too long for one array") from None


def _shared(shape, dtype) -> np.ndarray:
    """Zeros in an anonymous shared mapping, which forked workers inherit."""
    region = mmap.mmap(-1, math.prod(shape) * np.dtype(dtype).itemsize)
    return np.frombuffer(region, dtype).reshape(shape)


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


def _columns(sums: np.ndarray) -> tuple:
    """One strategy's ``(4, T)`` rows of the mapping as its four trace columns:
    regret, cumulative loss and rate sums, and the int64 event counts."""
    return (*sums[:3], sums[3].view(np.int64))


def _accumulate(
    config: ExperimentConfig, region: np.ndarray, counts: np.ndarray, indices
) -> None:
    """The means of roster entries ``indices``, made in their rows of ``region``.

    Repetition by repetition, each entry's run on the stream is added into its
    sums and event counts, and its segment count goes to ``counts[i, rep]``.
    The sums start as the mapping's zeros, so each is ``0 + r0 + r1 + ...``
    bit for bit (the first step turns -0.0 into 0.0), then is divided by R.
    """
    reps = config.repetitions
    for rep in range(reps):
        stream = generate(config.generator, config.horizon_t, derive_seed(config.base_seed, rep))
        for i in indices:
            trace = run(config.strategies[i], stream)
            regret, loss, eta, events = _columns(region[i])
            regret += trace.regret
            loss += trace.cum_agent_loss
            eta += trace.eta
            events[np.asarray(trace.segment_starts, dtype=np.int64) - 1] += 1
            counts[i, rep] = len(trace.segment_starts)
            del trace  # before the next run
        del stream  # before the next stream
    for i in indices:
        region[i, :3] /= reps


_inherited = None  # in a pool worker, the parent's config and mappings


def _inherit(*shared) -> None:
    """Pool initializer; a forked worker gets ``shared`` by inheritance, unpickled."""
    global _inherited
    _inherited = shared


def _pool_workers(threads: int, tasks: int) -> int:
    """How many pool workers run ``tasks`` independent tasks at ``threads``:
    at most one per task, and 1, meaning this process, where there is no fork."""
    return 1 if _FORK is None else min(threads, tasks)


@contextmanager
def _fork_pool(workers: int, *shared):
    """A fork pool of ``workers`` processes that inherit ``shared`` (see
    ``_inherit``) and this process's imports and patches.  On leaving, a
    failed task cancels those not yet started."""
    pool = ProcessPoolExecutor(
        max_workers=workers, mp_context=_FORK, initializer=_inherit, initargs=shared
    )
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def _run_tasks(tasks: list) -> list:
    """``[fn(*args) for fn, *args in tasks]``, in a fork pool whose workers
    take the tasks in list order when there is more than one worker (see
    ``_resolve_threads``), else in this process.  A task goes to a worker as
    its module-level function and arguments; only its value comes back."""
    workers = _pool_workers(_resolve_threads(None), len(tasks))
    if workers == 1:
        return [fn(*args) for fn, *args in tasks]
    with _fork_pool(workers) as pool:
        futures = [pool.submit(*task) for task in tasks]
        return [future.result() for future in futures]


def _strategy(index: int, path: Optional[Path]) -> None:
    """Worker job: roster entry ``index``'s means in the inherited mapping,
    then its trace CSV at ``path`` if there is one; module-level so that
    process pools can pickle it."""
    config, region, counts = _inherited
    _accumulate(config, region, counts, (index,))
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        reports.write_trace_csv(path, _columns(region[index]))


def run_experiment(
    config: ExperimentConfig, *, threads: Optional[int] = None
) -> AggregateResult:
    """All repetitions of an experiment, averaged per strategy.

    One process makes each strategy's means from start to finish: this one
    for every strategy, or, with more than one worker, one pool worker per
    strategy, so at most ``min(threads, strategies)`` run at once.  A worker
    is sent only a strategy index and a trace path; its sums go to a shared
    mapping.  Every float in the output is therefore the same at any
    ``threads``.  When ``config.output_dir`` is set, trace and summary CSVs
    are written there, each trace by the process that made its means.
    """
    threads = _resolve_threads(threads)
    reps = config.repetitions
    t_total = config.horizon_t
    slugs = config.slugs
    outdir = config.output_dir

    # every strategy's three sums and event counts, and its segment counts,
    # before any worker forks
    region = _allocate(_shared, (len(slugs), 4, t_total), np.float64, "horizon_t", t_total)
    counts = _allocate(_shared, (len(slugs), reps), np.int64, "repetitions", reps)
    columns = zip(*map(_columns, region))  # each field's column of every strategy
    result = AggregateResult(
        config,
        *(dict(zip(slugs, field)) for field in columns),
        dict(zip(slugs, counts)),
    )

    workers = _pool_workers(threads, len(slugs))
    if workers == 1:
        _accumulate(config, region, counts, range(len(slugs)))
        if outdir is not None:
            reports.write_trace_csvs(result, outdir)
    else:
        paths = [None if outdir is None else reports.trace_path(outdir, s) for s in slugs]
        with _fork_pool(workers, config, region, counts) as pool:
            list(pool.map(_strategy, range(len(slugs)), paths))

    if outdir is not None:
        reports.write_summary_csv(result, outdir)
    return result


def segment_statistics(result: AggregateResult, strategy) -> SegmentStats:
    """Mean and histogram of segments started by a restart strategy.

    ``strategy`` may be the kind record or its slug; it must name an
    AdaHedge or DoublingHedge entry present in the result.
    """
    slug = strategy.slug if isinstance(strategy, _Kind) else strategy
    if not isinstance(slug, str):
        raise TypeError(f"strategy must be a strategy kind or its slug, got {_shown(strategy)}")
    for kind in result.config.strategies:
        if kind.slug == slug:
            if not isinstance(kind, (AdaHedge, DoublingHedge)):
                raise ValueError(f"{slug} is not a restart (doubling-type) strategy")
            counts = result.segments_started[slug]
            values, freq = np.unique(counts, return_counts=True)  # values come sorted
            histogram = dict(zip(values.tolist(), freq.tolist()))
            return SegmentStats(float(counts.sum() / len(counts)), histogram)
    raise ValueError(f"strategy {slug!r} not present in this result")
