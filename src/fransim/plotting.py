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
    width: int = 640,
    height: int = 420,
) -> str:
    """Render named (x, y) series as one SVG line chart."""
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
        f'<text x="{width / 2:.2f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    # Axes, gridlines, ticks.
    out.append(
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" '
        f'stroke="black"/>'
    )
    out.append(
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="black"/>'
    )
    tick = 0.0
    while tick <= y_top + 1e-9:
        y = py(tick)
        out.append(
            f'<line x1="{left}" y1="{y:.2f}" x2="{left + plot_w}" '
            f'y2="{y:.2f}" stroke="#dddddd"/>'
        )
        out.append(
            f'<text x="{left - 6}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>'
        )
        tick += y_step
    for x in xs:
        out.append(
            f'<text x="{px(x):.2f}" y="{top + plot_h + 16}" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'font-size="11">{_fmt(x)}</text>'
        )
    out.append(
        f'<text x="{left + plot_w / 2:.2f}" y="{height - 10}" '
        f'text-anchor="middle" font-family="sans-serif" '
        f'font-size="12">{xlabel}</text>'
    )
    out.append(
        f'<text x="16" y="{top + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {top + plot_h / 2:.2f})">{ylabel}</text>'
    )
    # Series lines, markers, legend.
    fallback = iter(_FALLBACK_COLORS)
    for idx, (name, pts) in enumerate(sorted(series.items())):
        color = _COLORS.get(name) or next(fallback)
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in sorted(pts))
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        for x, y in sorted(pts):
            out.append(
                f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" '
                f'fill="{color}"/>'
            )
        ly = top + 8 + idx * 16
        out.append(
            f'<line x1="{left + 10}" y1="{ly}" x2="{left + 34}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{left + 40}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="12">{name}</text>'
        )
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
            charts[f"{metric}_d2d_{suffix}.svg"] = line_chart(
                dict(series),
                title=f"{label} (D2D {suffix})",
                xlabel="user devices",
                ylabel=label,
            )
    return charts


def _truthy(value) -> bool:
    if isinstance(value, bool):
        return value
    return str(value).strip().lower() in ("1", "true", "on", "yes")
