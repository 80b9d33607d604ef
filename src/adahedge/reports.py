"""CSV and SVG writers for aggregate experiment results.

Trace CSVs carry one row per round with the across-repetition means; the
summary CSV carries one row per strategy.  Floats are printed with nine
significant digits so identical results always serialise to identical
bytes.  The regret plot is a single self-contained SVG with one polyline
per strategy (no plotting dependency).
"""

from __future__ import annotations

import math
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np

__all__ = [
    "format_sig",
    "write_trace_csv",
    "write_trace_csvs",
    "write_summary_csv",
    "write_regret_svg",
]

TRACE_HEADER = ["round", "mean_regret", "mean_cum_loss", "mean_eta", "segment_events"]
SUMMARY_HEADER = [
    "strategy",
    "final_mean_regret",
    "mean_segments",
    "repetitions",
    "horizon",
    "seed",
]

_PALETTE = [
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#e377c2",
]

# rows as the csv module writes them: comma-separated and \r\n-terminated
_SIG = "%.9g"
_SUMMARY_ROW = f"%s,{_SIG},{_SIG},%s,%s,%s\r\n"


def format_sig(x: float) -> str:
    """Nine significant digits; inf/nan print as inf/nan."""
    return _SIG % float(x)


# Trace cells after the round with their separators, left-justified to the
# widest text the column's dtype can print: %.9g of a float64 is at most 16
# characters (-1.23456789e-100) and %d of an int64 at most 20
# (-9223372036854775808).  Neither format prints a space, so stripping the
# padding leaves the csv module's bytes.
_TRACE_CELLS = [
    ("%-16.9g,", np.float64),
    ("%-16.9g,", np.float64),
    ("%-16.9g,", np.float64),
    ("%-20d\r\n", np.int64),
]
_BLOCK = 1024  # rows per write; a larger block only raises peak memory


def _cells(fmt: str, dtype, column) -> np.ndarray:
    """The column's cells as an (n, width) byte grid, one % per distinct value.

    Values are told apart by their bits, so -0.0 and each NaN keep their own
    text, as in ``core._map``.
    """
    keys, inverse = np.unique(np.asarray(column, dtype).view(np.int64), return_inverse=True)
    values = keys.view(dtype).tolist()
    text = (fmt * len(values)) % tuple(values)
    return np.frombuffer(text.encode(), np.uint8).reshape(len(values), -1)[inverse]


def _round_cells(lo: int, hi: int) -> np.ndarray:
    """Rounds ``lo + 1`` to ``hi`` and their commas as an (n, width) byte
    grid, built from the digits; leading zeros become padding spaces."""
    powers = 10 ** np.arange(len(str(hi)) - 1, -1, -1)
    rounds = np.arange(lo + 1, hi + 1)[:, None]
    grid = np.full((hi - lo, len(powers) + 1), ord(","), np.uint8)
    grid[:, :-1] = rounds // powers % 10 + ord("0")
    grid[:, :-1][rounds < powers] = ord(" ")
    return grid


def write_trace_csv(path, columns) -> Path:
    """One trace CSV from a strategy's four columns in ``TRACE_HEADER``
    order after the round: mean regret, loss and rate, and event counts."""
    path = Path(path)
    n = len(columns[0])
    with open(path, "wb") as fh:
        fh.write((",".join(TRACE_HEADER) + "\r\n").encode())
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            cells = [_cells(*cell, c[lo:hi]) for cell, c in zip(_TRACE_CELLS, columns)]
            grid = np.hstack([_round_cells(lo, hi), *cells])
            fh.write(grid[grid != ord(" ")])
    return path


def write_trace_csvs(outdir, traces) -> list[Path]:
    """One trace_<slug>.csv in ``outdir`` per entry of ``traces``, which maps
    a strategy slug to its four columns (see ``write_trace_csv``); returns
    the paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    return [write_trace_csv(outdir / f"trace_{slug}.csv", c) for slug, c in traces.items()]


def write_summary_csv(result, outdir) -> Path:
    """summary.csv in ``outdir``: one row per roster entry, with its final
    mean regret and mean segment count, then the run's repetitions, horizon
    and seed; returns the path."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "summary.csv"
    cfg = result.config
    run = (cfg.repetitions, cfg.horizon_t, cfg.base_seed)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(SUMMARY_HEADER) + "\r\n")
        for slug in result.slugs:
            segs = result.segments_started[slug]
            final = result.mean_regret[slug][-1]
            fh.write(_SUMMARY_ROW % (slug, final, segs.sum() / len(segs), *run))
    return path


def _downsample(n: int, limit: int = 800) -> np.ndarray:
    """Round indices to plot: every stride-th plus the final one."""
    stride = max(1, -(-n // limit))
    idx = np.arange(0, n, stride)
    if idx[-1] != n - 1:
        idx = np.append(idx, n - 1)
    return idx


def write_regret_svg(result, path, *, log_x: bool = False) -> Path:
    """Mean-regret-per-round curves, one polyline per strategy."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)

    width, height = 880, 560
    left, right, top, bottom = 70, 190, 40, 60
    plot_w = width - left - right
    plot_h = height - top - bottom
    t_total = result.horizon

    def fx(t: float) -> float:
        if log_x:
            span = math.log10(t_total) if t_total > 1 else 1.0
            return left + plot_w * (math.log10(t) / span)
        if t_total > 1:
            return left + plot_w * ((t - 1.0) / (t_total - 1.0))
        return left + plot_w / 2.0

    y_max = 0.0
    for slug in result.slugs:
        y_max = max(y_max, float(np.max(result.mean_regret[slug])))
    if y_max <= 0.0:
        y_max = 1.0
    y_max *= 1.05

    def fy(v: float) -> float:
        return height - bottom - plot_h * (v / y_max)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
        f'y2="{height - bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" stroke="black"/>',
    ]

    # x ticks: decades when log scale, else six evenly spaced rounds
    if log_x:
        ticks = [10**d for d in range(0, int(math.log10(t_total)) + 1)]
        if ticks[-1] != t_total:
            ticks.append(t_total)
    else:
        ticks = sorted({int(v) for v in np.linspace(1, t_total, 6)})
    for t in ticks:
        x = fx(t)
        parts.append(
            f'<line x1="{x:.2f}" y1="{height - bottom}" x2="{x:.2f}" '
            f'y2="{height - bottom + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{height - bottom + 20}" text-anchor="middle">{t}</text>'
        )
    for v in np.linspace(0.0, y_max, 6):
        y = fy(v)
        parts.append(
            f'<line x1="{left - 5}" y1="{y:.2f}" x2="{left}" y2="{y:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.2f}" text-anchor="end">{v:.3g}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.2f}" y="{height - 15}" text-anchor="middle">round</text>'
    )
    parts.append(
        f'<text x="20" y="{top + plot_h / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 20 {top + plot_h / 2:.2f})">mean regret</text>'
    )
    parts.append(
        f'<text x="{left}" y="{top - 15}" font-size="14">'
        f"{escape(type(result.config.generator).__name__)} / "
        f"{result.repetitions} repetitions</text>"
    )

    idx = _downsample(t_total)
    rounds = idx + 1
    for i, slug in enumerate(result.slugs):
        color = _PALETTE[i % len(_PALETTE)]
        ys = result.mean_regret[slug][idx]
        pts = " ".join(
            f"{fx(float(t)):.2f},{fy(float(v)):.2f}" for t, v in zip(rounds, ys)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'
        )
        ly = top + 18 * i
        parts.append(
            f'<line x1="{width - right + 12}" y1="{ly:.2f}" x2="{width - right + 34}" '
            f'y2="{ly:.2f}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{width - right + 40}" y="{ly + 4:.2f}">{escape(slug)}</text>'
        )

    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")
    return path
