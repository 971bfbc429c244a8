"""Dependency-light, deterministic SVG plots (scatter, line, heatmap).

No timestamps, no random ids: the same data always produces byte-identical
files, which the reproducibility checks rely on.
"""

from __future__ import annotations

import numpy as np

from .jsontext import write_lines

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 60, 20, 30, 45


def _fmt(v):
    return f"{v:.6g}"


def _scale(lo, hi, size, offset, flip=False):
    span = hi - lo
    if span == 0:
        span = 1.0

    def to_px(v):
        frac = (v - lo) / span
        if flip:
            frac = 1.0 - frac
        return offset + frac * size

    return to_px


def _axes_frame(x_lo, x_hi, y_lo, y_hi, title, xlabel, ylabel, desc):
    sx = _scale(x_lo, x_hi, _W - _ML - _MR, _ML)
    sy = _scale(y_lo, y_hi, _H - _MT - _MB, _MT, flip=True)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f"<desc>{desc}</desc>" if desc else "<desc/>",
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>',
        f'<text x="{_W / 2:.1f}" y="18" text-anchor="middle" '
        f'font-size="13">{title}</text>',
        f'<text x="{_W / 2:.1f}" y="{_H - 8}" text-anchor="middle" '
        f'font-size="11">{xlabel}</text>',
        f'<text x="14" y="{_H / 2:.1f}" text-anchor="middle" font-size="11" '
        f'transform="rotate(-90 14 {_H / 2:.1f})">{ylabel}</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{_H - _MB + 14}" text-anchor="middle" '
            f'font-size="9">{_fmt(xv)}</text>'
        )
        parts.append(
            f'<text x="{_ML - 4}" y="{sy(yv) + 3:.1f}" text-anchor="end" '
            f'font-size="9">{_fmt(yv)}</text>'
        )
    return parts, sx, sy


def _finite_range(arr):
    arr = np.asarray(arr, dtype=float).ravel()
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        return 0.0, 1.0
    lo, hi = float(arr.min()), float(arr.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    return lo, hi


def svg_scatter(path, xs, ys, title="", xlabel="", ylabel="", desc=""):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = np.isfinite(xs) & np.isfinite(ys)
    x_lo, x_hi = _finite_range(xs)
    y_lo, y_hi = _finite_range(ys)
    parts, sx, sy = _axes_frame(x_lo, x_hi, y_lo, y_hi, title, xlabel, ylabel, desc)
    # the scales map whole arrays with the per-point operations, in their order
    cx = map("%.2f".__mod__, sx(xs[keep]).tolist())
    cy = map("%.2f".__mod__, sy(ys[keep]).tolist())
    parts += [f'<circle cx="{x}" cy="{y}" r="1.2" fill="black"/>' for x, y in zip(cx, cy)]
    write_lines(path, parts + ["</svg>"])


def svg_line(path, xs, ys, title="", xlabel="", ylabel="", desc=""):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    x_lo, x_hi = _finite_range(xs)
    y_lo, y_hi = _finite_range(ys)
    parts, sx, sy = _axes_frame(x_lo, x_hi, y_lo, y_hi, title, xlabel, ylabel, desc)
    pts = []
    for x, y in zip(xs, ys):
        if np.isfinite(x) and np.isfinite(y):
            pts.append(f"{sx(x):.2f},{sy(y):.2f}")
        elif pts:
            parts.append(
                f'<polyline points="{" ".join(pts)}" fill="none" stroke="black"/>'
            )
            pts = []
    if pts:
        parts.append(f'<polyline points="{" ".join(pts)}" fill="none" stroke="black"/>')
    write_lines(path, parts + ["</svg>"])


_STOPS = np.array(
    [
        (0.0, (68, 1, 84)),
        (0.25, (59, 82, 139)),
        (0.5, (33, 145, 140)),
        (0.75, (94, 201, 98)),
        (1.0, (253, 231, 37)),
    ],
    dtype=object,
)


def _color(frac):
    frac = min(max(frac, 0.0), 1.0)
    for k in range(len(_STOPS) - 1):
        f0, c0 = _STOPS[k]
        f1, c1 = _STOPS[k + 1]
        if frac <= f1:
            w = 0.0 if f1 == f0 else (frac - f0) / (f1 - f0)
            rgb = [int(round(a + w * (b - a))) for a, b in zip(c0, c1)]
            return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"
    return "rgb(253,231,37)"


def svg_heatmap(path, values, x_coords, y_coords, title="", xlabel="", ylabel="", desc=""):
    """log10 values[i, j] at (x_coords[i], y_coords[j]); cells <= 0 or NaN are grey."""
    values = np.asarray(values, dtype=float)
    x = np.asarray(x_coords, dtype=float)
    y = np.asarray(y_coords, dtype=float)
    plot = np.log10(np.where(values > 0, values, np.nan))
    v_lo, v_hi = _finite_range(plot)
    parts, sx, sy = _axes_frame(
        float(x.min()), float(x.max()), float(y.min()), float(y.max()),
        title, xlabel, ylabel, desc,
    )
    cw = (_W - _ML - _MR) / len(x)
    ch = (_H - _MT - _MB) / len(y)
    for i in range(len(x)):
        for j in range(len(y)):
            px = _ML + i * cw
            py = _MT + (len(y) - 1 - j) * ch
            v = plot[i, j]
            fill = "rgb(200,200,200)" if not np.isfinite(v) else _color(
                (v - v_lo) / (v_hi - v_lo) if v_hi > v_lo else 0.5
            )
            parts.append(
                f'<rect x="{px:.2f}" y="{py:.2f}" width="{cw + 0.5:.2f}" '
                f'height="{ch + 0.5:.2f}" fill="{fill}"/>'
            )
    write_lines(path, parts + ["</svg>"])
