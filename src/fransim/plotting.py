"""Static SVG line charts for sweep results.

Charts are emitted as plain SVG text with fixed layout and number
formatting, so the same rows always produce byte-identical files;
that keeps plots regression-testable without image comparison.
"""

from __future__ import annotations

from collections import defaultdict

_COLORS = {
    "rate-hop": "#1f77b4",
    "fifo": "#d62728",
    "lru": "#2ca02c",
}
_FALLBACK_COLORS = ("#9467bd", "#8c564b", "#e377c2", "#7f7f7f")

_METRICS = (
    ("avg_hops", "average hops per interest"),
    ("cache_hits", "in-network cache hits"),
    ("fronthaul_packets", "fronthaul packets"),
)


def _nice_step(span: float) -> float:
    if span <= 0:
        return 1.0
    raw = span / 4
    magnitude = 10 ** len(str(int(raw))) / 10 if raw >= 1 else 1.0
    while magnitude > raw:
        magnitude /= 10
    for mult in (1, 2, 5, 10):
        if magnitude * mult >= raw:
            return magnitude * mult
    return magnitude * 10


def _fmt(value: float) -> str:
    text = f"{value:.2f}".rstrip("0").rstrip(".")
    return text or "0"


def line_chart(
    series: dict[str, list[tuple[float, float]]],
    *,
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """Render named (x, y) series as one 640 x 420 SVG line chart."""
    width, height = 640, 420
    left, right, top, bottom = 70, 20, 40, 50
    plot_w = width - left - right
    plot_h = height - top - bottom

    points = [pt for pts in series.values() for pt in pts]
    xs = sorted({x for x, _ in points}) or [0.0]
    y_max = max((y for _, y in points), default=1.0)
    y_step = _nice_step(y_max)
    y_top = y_step
    while y_top < y_max:
        y_top += y_step
    x_min, x_max = xs[0], xs[-1]
    x_span = (x_max - x_min) or 1.0

    def px(x: float) -> float:
        return left + (x - x_min) / x_span * plot_w

    def py(y: float) -> float:
        return top + plot_h - y / y_top * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]

    # Callers pass float coordinates formatted to two decimals.
    def text(x, y, size, body, anchor="middle", extra=""):
        align = f' text-anchor="{anchor}"' if anchor else ""
        out.append(
            f'<text x="{x}" y="{y}"{align} font-family="sans-serif" '
            f'font-size="{size}"{extra}>{body}</text>'
        )

    def line(x1, y1, x2, y2, stroke, extra=""):
        out.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{stroke}"{extra}/>'
        )

    text(f"{width / 2:.2f}", 22, 15, title)
    # Axes, gridlines, ticks.
    line(left, top, left, top + plot_h, "black")
    line(left, top + plot_h, left + plot_w, top + plot_h, "black")
    tick = 0.0
    while tick <= y_top + 1e-9:
        y = py(tick)
        line(left, f"{y:.2f}", left + plot_w, f"{y:.2f}", "#dddddd")
        text(left - 6, f"{y + 4:.2f}", 11, _fmt(tick), anchor="end")
        tick += y_step
    for x in xs:
        text(f"{px(x):.2f}", top + plot_h + 16, 11, _fmt(x))
    text(f"{left + plot_w / 2:.2f}", height - 10, 12, xlabel)
    mid = f"{top + plot_h / 2:.2f}"
    text(16, mid, 12, ylabel, extra=f' transform="rotate(-90 16 {mid})"')
    # Series lines, markers, legend.
    fallback = iter(_FALLBACK_COLORS)
    for idx, (name, pts) in enumerate(sorted(series.items())):
        color = _COLORS.get(name) or next(fallback)
        dots = [(f"{px(x):.2f}", f"{py(y):.2f}") for x, y in sorted(pts)]
        coords = " ".join(f"{x},{y}" for x, y in dots)
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        out.extend(f'<circle cx="{x}" cy="{y}" r="3" fill="{color}"/>'
                   for x, y in dots)
        ly = top + 8 + idx * 16
        line(left + 10, ly, left + 34, ly, color, ' stroke-width="2"')
        text(left + 40, ly + 4, 12, name, anchor=None)
    out.append("</svg>")
    return "\n".join(out) + "\n"


def sweep_charts(rows: list[dict]) -> dict[str, str]:
    """One chart per metric and D2D setting present in the rows.

    Values are averaged over seeds per (policy, F-UE count).
    """
    charts: dict[str, str] = {}
    for d2d in (False, True):
        subset = [r for r in rows if _truthy(r["d2d"]) == d2d]
        if not subset:
            continue
        for metric, label in _METRICS:
            acc: dict[tuple[str, int], list[float]] = defaultdict(list)
            for row in subset:
                acc[(row["policy"], int(row["n_fues"]))].append(
                    float(row[metric])
                )
            series: dict[str, list[tuple[float, float]]] = defaultdict(list)
            for (policy, n_fues), values in sorted(acc.items()):
                series[policy].append(
                    (float(n_fues), sum(values) / len(values))
                )
            suffix = "on" if d2d else "off"
            charts[_chart_name(metric, d2d)] = line_chart(
                dict(series),
                title=f"{label} (D2D {suffix})",
                xlabel="user devices",
                ylabel=label,
            )
    return charts


def _chart_name(metric: str, d2d: bool) -> str:
    """The file ``sweep_charts`` names a metric's chart at one D2D setting."""
    return f"{metric}_d2d_{'on' if d2d else 'off'}.svg"


def chart_names(d2d_options) -> set[str]:
    """Every chart file ``sweep_charts`` makes for rows at ``d2d_options``."""
    return {_chart_name(metric, d2d)
            for d2d in d2d_options for metric, _ in _METRICS}


def _truthy(value) -> bool:
    if isinstance(value, bool):
        return value
    return str(value).strip().lower() in ("1", "true", "on", "yes")
