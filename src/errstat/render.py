"""Static SVG views of the matrix reports and the ECDF comparisons.

Correlation matrices use slanted ellipse glyphs (blue right-slanted for
positive, red left-slanted for negative, darker and thinner the stronger
the correlation).  SIP matrices use disks with area proportional to the
value over a blue-white-red scale centered on 0.5.  Rank probability
matrices are plain sequential heatmaps.  Everything is hand-built SVG
1.1; no plotting library is involved.
"""

import xml.etree.ElementTree as ET

import numpy as np

__all__ = [
    "render_matrix",
    "render_delta_ecdf",
    "render_abs_ecdf",
]

CORR_ELLIPSE = "corr_ellipse"
SIP_DISK = "sip_disk"
RANK_HEATMAP = "rank_heatmap"

_BLUE = (5, 113, 176)
_RED = (202, 0, 32)
_DARK = (8, 48, 107)
_WHITE = (255, 255, 255)


def _mix(c0, c1, t):
    t = min(1.0, max(0.0, t))
    return "#%02x%02x%02x" % tuple(round(a + (b - a) * t) for a, b in zip(c0, c1))


def _corr_color(v):
    return _mix(_WHITE, _BLUE if v >= 0 else _RED, abs(v))


def _sip_color(v):
    # Diverging blue (0) -> white (0.5) -> red (1).
    if v <= 0.5:
        return _mix(_BLUE, _WHITE, v / 0.5)
    return _mix(_WHITE, _RED, (v - 0.5) / 0.5)


def _canvas(size_px, height):
    """An SVG root size_px wide and `height` tall on a white background."""
    if size_px < 200:
        raise ValueError("size must be at least 200 px")
    root = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "version": "1.1",
            "width": str(size_px),
            "height": str(height),
            "viewBox": f"0 0 {size_px} {height}",
        },
    )
    ET.SubElement(root, "rect", {"x": "0", "y": "0", "width": str(size_px), "height": str(height), "fill": "white"})
    return root


def _text(parent, x, y, s, size=12, anchor="middle", transform=None, fill="#333333"):
    attrs = {
        "x": f"{x:.2f}",
        "y": f"{y:.2f}",
        "font-size": str(size),
        "font-family": "sans-serif",
        "text-anchor": anchor,
        "fill": fill,
    }
    if transform:
        attrs["transform"] = transform
    el = ET.SubElement(parent, "text", attrs)
    el.text = s
    return el


def _validate_matrix(values, kind):
    if kind not in (CORR_ELLIPSE, SIP_DISK, RANK_HEATMAP):
        raise ValueError(f"unknown matrix kind {kind!r}")
    v = np.asarray(values, dtype=float)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ValueError("need a square matrix")
    if kind == CORR_ELLIPSE:
        if np.any(np.abs(v) > 1.0 + 1e-9):
            raise ValueError("correlation values must be in [-1, 1]")
    elif kind == SIP_DISK:
        if np.any(v < -1e-9) or np.any(v > 1.0 + 1e-9):
            raise ValueError("SIP values must be in [0, 1]")
        if np.any(np.abs(np.diag(v)) > 1e-9):
            raise ValueError("SIP diagonal must be zero")
    elif kind == RANK_HEATMAP:
        if np.any(v < -1e-9) or np.any(np.abs(v.sum(axis=1) - 1.0) > 1e-6):
            raise ValueError("rank probability rows must sum to 1")
    return v


def render_matrix(values, labels, kind, size_px=600):
    """Render a K x K matrix as SVG with one glyph per cell.

    Rows are drawn in the order given; for SIP matrices the caller passes
    values and labels already sorted by decreasing MSIP.
    """
    root = _canvas(size_px, size_px)
    v = _validate_matrix(values, kind)
    k = v.shape[0]
    labels = [str(s) for s in labels]
    if len(labels) != k:
        raise ValueError("label count does not match matrix size")
    margin = max(80, size_px // 6)
    cell = (size_px - margin) / k

    for i, label in enumerate(labels):
        y = margin + (i + 0.5) * cell
        _text(root, margin - 8, y + 4, label, anchor="end")
        x = margin + (i + 0.5) * cell
        _text(root, x, margin - 8, label, transform=f"rotate(-45 {x:.2f} {margin - 8:.2f})", anchor="start")

    for i in range(k):
        for j in range(k):
            x0 = margin + j * cell
            y0 = margin + i * cell
            cx, cy = x0 + cell / 2, y0 + cell / 2
            ET.SubElement(
                root,
                "rect",
                {"x": f"{x0:.2f}", "y": f"{y0:.2f}", "width": f"{cell:.2f}", "height": f"{cell:.2f}",
                 "fill": "none", "stroke": "#cccccc", "stroke-width": "1"},
            )
            val = float(v[i, j])
            if kind == CORR_ELLIPSE:
                rx = 0.42 * cell
                ry = rx * (1.0 - 0.88 * min(1.0, abs(val)))
                angle = -45 if val >= 0 else 45
                ET.SubElement(
                    root,
                    "ellipse",
                    {"class": "glyph", "cx": f"{cx:.2f}", "cy": f"{cy:.2f}",
                     "rx": f"{rx:.2f}", "ry": f"{ry:.2f}",
                     "transform": f"rotate({angle} {cx:.2f} {cy:.2f})",
                     "fill": _corr_color(val), "stroke": "#666666", "stroke-width": "0.5"},
                )
            elif kind == SIP_DISK:
                r = 0.45 * cell * np.sqrt(max(0.0, val))
                ET.SubElement(
                    root,
                    "circle",
                    {"class": "glyph", "cx": f"{cx:.2f}", "cy": f"{cy:.2f}", "r": f"{r:.2f}",
                     "fill": _sip_color(val), "stroke": "#666666" if r > 0 else "none",
                     "stroke-width": "0.5"},
                )
            else:
                pad = 1.0
                ET.SubElement(
                    root,
                    "rect",
                    {"class": "glyph", "x": f"{x0 + pad:.2f}", "y": f"{y0 + pad:.2f}",
                     "width": f"{cell - 2 * pad:.2f}", "height": f"{cell - 2 * pad:.2f}",
                     "fill": _mix(_WHITE, _DARK, val)},
                )
                if val >= 0.005:
                    _text(root, cx, cy + 4, f"{val:.2f}", size=max(8, int(cell / 5)),
                          fill="#ffffff" if val > 0.55 else "#333333")
    return ET.tostring(root, encoding="unicode")


def _fmt(x):
    return "n/a" if x is None else f"{x:.3g}"


def _ecdf_axes(size_px, xlim, xticks):
    """A 4:3 canvas with the framed plot box, x ticks and 0 / 0.5 / 1 y ticks: (root, box, sx, sy)."""
    h = int(size_px * 0.75)
    root = _canvas(size_px, h)
    box = x0, y0, x1, y1 = (60, 40, size_px - 20, h - 40)

    def sx(x):
        return x0 + (x - xlim[0]) / (xlim[1] - xlim[0]) * (x1 - x0)

    def sy(y):
        return y1 - y * (y1 - y0)

    ET.SubElement(root, "rect", {"x": f"{x0:.2f}", "y": f"{y0:.2f}",
                                 "width": f"{x1 - x0:.2f}", "height": f"{y1 - y0:.2f}",
                                 "fill": "none", "stroke": "#333333", "stroke-width": "1"})
    for t in xticks:
        _text(root, sx(t), y1 + 16, f"{t:.3g}", size=10)
    for t in (0, 0.5, 1):
        _text(root, x0 - 6, sy(t) + 3, f"{t:.3g}", size=10, anchor="end")
    return root, box, sx, sy


def _step_points(xs, ys):
    """x and y arrays of the staircase that rises from 0 at xs[0] and steps to ys[i] at each xs[i]."""
    return np.concatenate((xs[:1], np.repeat(xs, 2))), np.repeat(np.concatenate(([0.0], ys)), 2)[:-1]


def _polyline(parent, xs, ys, stroke, width="1.5", dash=None, fill="none", cls=None):
    """A polyline through the pixel coordinates (xs[i], ys[i])."""
    attrs = {
        "points": " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(np.asarray(xs).tolist(), np.asarray(ys).tolist())),
        "fill": fill,
        "stroke": stroke,
        "stroke-width": width,
    }
    if dash:
        attrs["stroke-dasharray"] = dash
    if cls:
        attrs["class"] = cls
    return ET.SubElement(parent, "polyline", attrs)


def render_delta_ecdf(report, size_px=600):
    """ECDF of the absolute-error differences with band and annotations."""
    deltas = np.asarray(report.deltas)
    span = deltas.max() - deltas.min()
    pad = 0.05 * span if span > 0 else 1.0
    xlim = (deltas.min() - pad, deltas.max() + pad)
    root, box, sx, sy = _ecdf_axes(size_px, xlim, xticks=(xlim[0], 0.0, xlim[1]))

    band_x = np.concatenate((deltas, deltas[::-1]))
    band_y = np.concatenate((report.band_hi, report.band_lo[::-1]))
    _polyline(root, sx(band_x), sy(band_y), stroke="none", fill="#bdd7ee", cls="band")
    x, y = _step_points(deltas, report.ecdf)
    _polyline(root, sx(x), sy(y), stroke="#1f4e79", cls="ecdf")
    if xlim[0] < 0 < xlim[1]:
        _polyline(root, [sx(0)] * 2, [sy(0), sy(1)], stroke="#888888", width="1", dash="4,3")
    if report.uncertainty_bar is not None:
        for u in (-report.uncertainty_bar, report.uncertainty_bar):
            if xlim[0] < u < xlim[1]:
                _polyline(root, [sx(u)] * 2, [sy(0), sy(1)], stroke="#ed7d31", width="3", cls="ubar")

    lines = [f"{report.labels[0]} vs {report.labels[1]}"] + [
        f"{name} = {_fmt(c.value)} [{_fmt(c.lo)}, {_fmt(c.hi)}]"
        for name, c in (("SIP", report.sip), ("MG", report.mg), ("ML", report.ml), ("dMUE", report.delta_mue))
    ]
    for i, line in enumerate(lines):
        _text(root, 70, 58 + 15 * i, line, size=11, anchor="start")
    _text(root, (box[0] + box[2]) / 2, box[3] + 32, "difference of absolute errors", size=11)
    return ET.tostring(root, encoding="unicode")


def render_abs_ecdf(e1, e2, labels, size_px=600, stats=None):
    """ECDFs of two absolute-error sets with MUE (dotted) and Q95 (dashed) marks.

    `stats` is an optional mapping label -> (mue, q95) to draw the
    vertical markers.
    """
    a1 = np.sort(np.abs(np.asarray(e1, dtype=float)))
    a2 = np.sort(np.abs(np.asarray(e2, dtype=float)))
    hi = max(a1.max(), a2.max())
    xlim = (0.0, hi * 1.05 if hi > 0 else 1.0)
    root, box, sx, sy = _ecdf_axes(size_px, xlim, xticks=(0.0, xlim[1]))
    colors = ("#1f4e79", "#c55a11")
    for arr, color, label, k in ((a1, colors[0], labels[0], 0), (a2, colors[1], labels[1], 1)):
        x, y = _step_points(arr, np.arange(1, arr.size + 1) / arr.size)
        _polyline(root, sx(x), sy(y), stroke=color, cls="ecdf")
        _text(root, box[2] - 8, 58 + 15 * k, label, size=11, anchor="end", fill=color)
        if stats and label in stats:
            mue, q95 = stats[label]
            _polyline(root, [sx(mue)] * 2, [sy(0), sy(1)], stroke=color, width="1", dash="2,3")
            _polyline(root, [sx(q95)] * 2, [sy(0), sy(1)], stroke=color, width="1", dash="7,3")
    _text(root, (box[0] + box[2]) / 2, box[3] + 32, "absolute error", size=11)
    return ET.tostring(root, encoding="unicode")
