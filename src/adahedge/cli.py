"""Command-line front end: experiment runner, bound calculator, verifier.

Exit codes: 0 success, 1 verification failure, 2 bad arguments or config,
3 I/O failure.  A command raises each refusal where it happens, and ``main``
alone maps a ``ValueError`` to 2 and an ``OSError`` to 3.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from concurrent.futures import BrokenExecutor
from dataclasses import MISSING, fields
from pathlib import Path

from . import bounds
from .reports import format_sig, write_regret_svg
from .simulation import GENERATORS, ExperimentConfig, _resolve_threads, run_experiment
from .strategies import KINDS, FollowTheLeader
from .verify import DEFAULT_SEED, run_suite

__all__ = ["ConfigError", "parse_config", "main"]


class ConfigError(ValueError):
    """Config-file problem, located by file and (when known) line number."""

    def __init__(self, path, line_no: int, message: str):
        self.path = str(path)
        self.line_no = line_no
        where = f"{path}:{line_no}" if line_no else str(path)
        super().__init__(f"{where}: {message}")


_STRATEGIES = {**KINDS, "follow_the_leader": FollowTheLeader}
# config keys: the experiment's own fields, then each generator's fields
_TOP_KEYS = {f.name for f in fields(ExperimentConfig)}
_INT_KEYS = [f.name for f in fields(ExperimentConfig) if f.type == "int"]
_ALL_KEYS = _TOP_KEYS | {f.name for cls in GENERATORS.values() for f in fields(cls)}


def _split_outside_parens(text: str, path, line_no: int) -> list[str]:
    parts, cur, depth = [], [], 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ConfigError(path, line_no, "unbalanced ')' in strategy list")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ConfigError(path, line_no, "unbalanced '(' in strategy list")
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _parse_strategy(entry: str, path, line_no: int):
    name, _, rest = entry.partition("(")
    name = name.strip().lower()
    if name not in _STRATEGIES:
        raise ConfigError(path, line_no, f"unknown strategy {name!r}")
    cls = _STRATEGIES[name]
    params = {}
    if rest:
        if not rest.endswith(")"):
            raise ConfigError(path, line_no, f"missing ')' in strategy {entry!r}")
        for item in rest[:-1].split(","):
            item = item.strip()
            if not item:
                continue
            key, eq, value = item.partition("=")
            if not eq:
                raise ConfigError(
                    path, line_no, f"expected key=value inside {entry!r}, got {item!r}"
                )
            key = key.strip().lower()
            if key in params:
                raise ConfigError(path, line_no, f"repeated parameter {key!r} in {entry!r}")
            try:
                params[key] = float(value.strip())
            except ValueError:
                raise ConfigError(
                    path, line_no, f"{key!r} in {entry!r} is not a number"
                )

    extra = set(params) - {f.name for f in fields(cls)}
    if extra:
        raise ConfigError(
            path, line_no, f"strategy {name!r} does not take parameter(s) {sorted(extra)}"
        )
    for f in fields(cls):
        if f.default is MISSING and f.name not in params:
            raise ConfigError(
                path, line_no, f"{name} requires {f.name}, e.g. {name}({f.name}=0.1)"
            )
    try:
        return cls(**params)
    except ValueError as exc:  # the kind's own parameter checks
        raise ConfigError(path, line_no, f"{name}: {exc}")


def _parse_float(raw: str, key: str, path, line_no: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(path, line_no, f"{key} must be a number, got {raw!r}")


def _parse_int(raw: str, key: str, path, line_no: int) -> int:
    try:
        return int(raw, 0)
    except ValueError:
        # a well-formed decimal literal fails only past int()'s digit limit
        # (sys.get_int_max_str_digits()), far beyond every key's range
        if re.fullmatch(r"[+-]?[1-9](?:_?[0-9])*", raw):
            digits = len(raw.lstrip("+-").replace("_", ""))
            raise ConfigError(
                path, line_no, f"{key} is out of range, got an integer of {digits} digits"
            )
        raise ConfigError(path, line_no, f"{key} must be an integer, got {raw!r}")


def parse_config(text: str, path="<config>") -> ExperimentConfig:
    """Parse the flat key=value experiment format into an ExperimentConfig.

    Unknown or duplicated keys, missing required keys and out-of-range
    values are reported with the offending line number.
    """
    entries: dict[str, tuple[str, int]] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(path, line_no, f"expected key = value, got {line!r}")
        key = key.strip().lower()
        value = value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(path, line_no, f"unknown key {key!r}")
        if key in entries:
            raise ConfigError(
                path, line_no, f"duplicate key {key!r} (first set on line {entries[key][1]})"
            )
        if not value:
            raise ConfigError(path, line_no, f"key {key!r} has an empty value")
        entries[key] = (value, line_no)

    def need(key: str) -> tuple[str, int]:
        if key not in entries:
            raise ConfigError(path, 0, f"missing required key {key!r}")
        return entries[key]

    gen_name, gen_line = need("generator")
    gen_name = gen_name.lower()
    if gen_name not in GENERATORS:
        raise ConfigError(
            path,
            gen_line,
            f"unknown generator {gen_name!r} (expected one of {sorted(GENERATORS)})",
        )
    gen_fields = fields(GENERATORS[gen_name])
    gen_keys = {f.name for f in gen_fields}
    for key, (_, line_no) in entries.items():
        if key not in _TOP_KEYS and key not in gen_keys:
            raise ConfigError(
                path, line_no, f"key {key!r} is not valid for generator {gen_name!r}"
            )
    params = {}
    for f in gen_fields:
        if f.name not in entries:
            if f.default is MISSING:
                raise ConfigError(
                    path, gen_line, f"generator {gen_name!r} requires key {f.name!r}"
                )
            continue
        raw, line_no = entries[f.name]
        if "tuple" in str(f.type):  # a comma-separated list, one per action
            params[f.name] = [_parse_float(p, f.name, path, line_no) for p in raw.split(",")]
        else:
            params[f.name] = _parse_float(raw, f.name, path, line_no)
    try:
        generator = GENERATORS[gen_name](**params)
    except ValueError as exc:  # generator invariant violations
        raise ConfigError(path, gen_line, str(exc))

    counts = {}
    for key in _INT_KEYS:
        raw, line_no = need(key)
        counts[key] = _parse_int(raw, key, path, line_no)
    raw, line_no = need("strategies")
    kinds = [
        _parse_strategy(entry, path, line_no)
        for entry in _split_outside_parens(raw, path, line_no)
    ]
    raw, _ = need("output_dir")
    try:
        return ExperimentConfig(generator=generator, strategies=kinds, output_dir=raw, **counts)
    except ValueError as exc:  # the config's own value rules
        # each names its key first; the roster's two name none
        message = str(exc)
        key = message.split()[0]
        raise ConfigError(path, entries.get(key, entries["strategies"])[1], message)


def _describe_generator(generator) -> str:
    name = next(n for n, cls in GENERATORS.items() if isinstance(generator, cls))
    params = []
    for f in fields(generator):
        value = getattr(generator, f.name)
        values = value if isinstance(value, tuple) else (value,)
        params.append(f"{f.name}={', '.join(map(format_sig, values))}")
    return f"{name}({', '.join(params)})" if params else name


def cmd_run(args) -> int:
    try:
        text = Path(args.config).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError:
        raise ValueError(f"{args.config}: config is not UTF-8 text") from None
    except OSError as exc:
        raise OSError(f"cannot read config: {exc}") from None
    config = parse_config(text, args.config)
    threads = _resolve_threads(None)

    if args.dry_run:
        print(f"config OK: {args.config}")
        print(f"  generator   {_describe_generator(config.generator)}  [K={config.k}]")
        print(f"  horizon     {config.horizon_t} rounds x {config.repetitions} repetitions")
        print(f"  strategies  {', '.join(config.slugs)}")
        print(f"  base_seed   {config.base_seed}")
        print(f"  output_dir  {config.output_dir}")
        print(f"  threads     {threads}")
        return 0

    try:
        result = run_experiment(config, threads=threads)
    except MemoryError:
        raise ValueError(
            f"out of memory for horizon_t = {config.horizon_t} and repetitions = "
            f"{config.repetitions}; lower horizon_t or repetitions"
        ) from None
    except BrokenExecutor:  # a pool worker was killed, say by the OS out of memory
        raise ValueError(
            f"a pool worker process died running horizon_t = {config.horizon_t} and "
            f"repetitions = {config.repetitions}; lower them or ADAHEDGE_THREADS"
        ) from None
    svg_path = write_regret_svg(
        result, Path(config.output_dir) / "regret.svg", log_x=args.log_x
    )
    for slug in config.slugs:
        print(
            f"{slug}: final mean regret {format_sig(result.mean_regret[slug][-1])}"
        )
    print(f"wrote {len(config.slugs)} trace files, summary.csv and {svg_path.name} to {config.output_dir}")
    return 0


# bound name -> (calculator, the flags it takes, in argument order)
_BOUNDS = {
    "budget": (bounds.budget, ("eta", "k")),
    "lemma2": (bounds.lemma2_bound, ("eta", "lstar", "k")),
    "eta-floor": (bounds.eta_floor, ("lstar", "k")),
    "theorem1": (bounds.theorem1_bound, ("lstar", "k")),
    "lemma3": (bounds.lemma3_bound, ("m", "k", "phi")),
    "factor": (bounds.theorem2_leading_factor, ("phi",)),
    "lemma4": (bounds.lemma4_bound, ("eta", "wstar")),
    "lemma5": (bounds.lemma5_ck, ("k", "alpha", "beta")),
    "intro-mstar": (bounds.intro_mstar, ("alpha", "phi")),
    "theorem3-mstar": (bounds.theorem3_mstar, ("alpha", "delta", "k", "phi")),
    "lemma6-tau": (bounds.lemma6_tau, ("mstar", "k", "alpha", "beta", "phi")),
}


def _evaluate_bound(args):
    fn, flags = _BOUNDS[args.name]
    if args.name == "lemma5" and args.eta is not None:
        # with --eta, lemma5 is the tail bound instead of its constant
        fn, flags = bounds.lemma5_bound, flags + ("eta",)
    for flag in flags:
        if getattr(args, flag) is None:
            raise ValueError(f"bounds {args.name} requires --{flag}")
    return fn(*(getattr(args, flag) for flag in flags))


def cmd_bounds(args) -> int:
    try:
        value = _evaluate_bound(args)
        if not math.isfinite(value):  # an overflow the closed form did not raise
            raise OverflowError
    except ArithmeticError as exc:  # overflow or underflow in the closed form
        raise ValueError(
            f"bounds {args.name} is not representable as a float for these "
            f"inputs ({type(exc).__name__})"
        ) from None
    if isinstance(value, int):
        print(value)
    else:
        print(format_sig(value))
    return 0


def cmd_verify(args) -> int:
    seed = DEFAULT_SEED if args.seed is None else args.seed
    _resolve_threads(None)  # the suite reads the thread count; refuse it first
    try:
        results, info = run_suite(full=args.full, seed=seed)
    except ValueError as exc:  # the seed, refused before any property runs
        raise ValueError(f"--{exc}") from None
    except BrokenExecutor:  # a pool worker was killed, say by the OS out of memory
        raise ValueError(
            "a pool worker process died running the property suite; lower ADAHEDGE_THREADS"
        ) from None
    profile = "--full" if args.full else "--quick"
    for res in results:
        line = f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}"
        if not res.passed:
            line += f"  [rerun: adahedge verify {profile} --seed {seed}]"
        print(line)
    for extra in info:
        print(f"INFO {extra}")
    failed = sum(1 for res in results if not res.passed)
    if failed:
        print(f"{failed} of {len(results)} properties failed (seed {seed})")
        return 1
    print(f"all {len(results)} properties passed (seed {seed})")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adahedge",
        description="Hedge-family online learning: experiments, bound calculators, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment described by a config file")
    p_run.add_argument("config", help="path to a key=value experiment config")
    p_run.add_argument(
        "--dry-run", action="store_true", help="validate and print the plan; simulate nothing"
    )
    p_run.add_argument(
        "--log-x", action="store_true", help="use a logarithmic round axis in regret.svg"
    )
    p_run.set_defaults(func=cmd_run)

    p_bounds = sub.add_parser("bounds", help="evaluate a closed-form guarantee")
    p_bounds.add_argument("name", choices=_BOUNDS)
    p_bounds.add_argument("--eta", type=float, help="learning rate")
    p_bounds.add_argument("--k", type=int, help="number of actions")
    p_bounds.add_argument("--lstar", type=float, help="best action's cumulative loss")
    p_bounds.add_argument("--phi", type=float, help="rate-division factor (> 1)")
    p_bounds.add_argument("--m", type=int, help="segment count")
    p_bounds.add_argument("--mstar", type=int, help="segment cap")
    p_bounds.add_argument("--alpha", type=float, help="divergence rate coefficient")
    p_bounds.add_argument("--beta", type=float, help="divergence rate exponent")
    p_bounds.add_argument("--delta", type=float, help="failure probability")
    p_bounds.add_argument("--wstar", type=float, help="weight of the leading action")
    p_bounds.set_defaults(func=cmd_bounds)

    p_verify = sub.add_parser("verify", help="run the numerical property suite")
    profile = p_verify.add_mutually_exclusive_group()
    profile.add_argument(
        "--quick", action="store_true", help="reduced sample counts (default)"
    )
    profile.add_argument(
        "--full", action="store_true", help="acceptance-scale samples plus the experiment report"
    )
    p_verify.add_argument("--seed", type=int, help=f"suite seed (default {DEFAULT_SEED})")
    p_verify.set_defaults(func=cmd_verify)

    return parser


_BOUND_FLAGS = {f"--{flag}" for _, flags in _BOUNDS.values() for flag in flags}


def _joined_bound_flags(argv: list[str]) -> list[str]:
    """``--flag value`` as ``--flag=value``: argparse takes a separate
    ``-1e300`` or ``-inf`` for an option, so joined, every value reaches its
    parameter's own rule."""
    out = []
    for arg in argv:
        if out and out[-1] in _BOUND_FLAGS and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["bounds"]:
        argv = _joined_bound_flags(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0 if code is None else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # a refused value exits 2, an I/O failure 3
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 3


if __name__ == "__main__":
    raise SystemExit(main())
