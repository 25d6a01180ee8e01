"""Deterministic SVG rendering of boards, trajectories, and markers.

Output is plain SVG text built from fixed-precision coordinates so the
same scene always renders byte-identically.  Segments of the two move
types are distinguished by color and dash; highlighted paths (rigid
cycles, usually) are drawn heavier in a third color.
"""

from __future__ import annotations

from dataclasses import dataclass

_TYPE1_COLOR = "#1f77b4"
_TYPE2_COLOR = "#d62728"
_HIGHLIGHT_COLOR = "#2ca02c"
_MARKER_COLOR = "#ff7f0e"
_CANVAS = 640  # the longer side of the picture, margins included


@dataclass(frozen=True)
class RenderPath:
    points: tuple
    first_segment_type: int = 1
    closed: bool = False
    highlight: bool = False


@dataclass(frozen=True)
class RenderSpec:
    paths: tuple = ()
    markers: tuple = ()  # (point, label) pairs


def _fmt(value):
    rounded = round(float(value), 3) + 0.0  # drop negative zero
    return f"{rounded:.3f}"


def render_svg(board, spec):
    xs = [c.x for c in board.corners]
    ys = [c.y for c in board.corners]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    width = max_x - min_x
    height = max_y - min_y
    margin = 40
    scale = (_CANVAS - 2 * margin) / max(width, height)
    canvas_w = 2 * margin + float(width * scale)
    canvas_h = 2 * margin + float(height * scale)

    def fx(v):
        return margin + float((v - min_x) * scale)

    def fy(v):
        return canvas_h - margin - float((v - min_y) * scale)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_fmt(canvas_w)}" height="{_fmt(canvas_h)}" '
        f'viewBox="0 0 {_fmt(canvas_w)} {_fmt(canvas_h)}">'
    ]
    outline = " ".join(
        f"{_fmt(fx(c.x))},{_fmt(fy(c.y))}" for c in board.corners
    )
    lines.append(
        f'<polygon points="{outline}" fill="#f8f8f8" '
        f'stroke="#333333" stroke-width="1"/>'
    )
    for path in spec.paths:
        pts = list(path.points)
        pairs = list(zip(pts, pts[1:]))
        if path.closed and len(pts) > 1:
            pairs.append((pts[-1], pts[0]))
        for i, (a, b) in enumerate(pairs):
            seg_type = path.first_segment_type if i % 2 == 0 else (
                3 - path.first_segment_type
            )
            color = _HIGHLIGHT_COLOR if path.highlight else (
                _TYPE1_COLOR if seg_type == 1 else _TYPE2_COLOR
            )
            w = "3" if path.highlight else "1.5"
            dash = ' stroke-dasharray="6 4"' if seg_type == 2 else ""
            lines.append(
                f'<line x1="{_fmt(fx(a[0]))}" y1="{_fmt(fy(a[1]))}" '
                f'x2="{_fmt(fx(b[0]))}" y2="{_fmt(fy(b[1]))}" '
                f'stroke="{color}" stroke-width="{w}"{dash}/>'
            )
    for point, label in spec.markers:
        px, py = _fmt(fx(point[0])), _fmt(fy(point[1]))
        lines.append(
            f'<circle cx="{px}" cy="{py}" r="4" fill="{_MARKER_COLOR}"/>'
        )
        if label:
            tx = _fmt(fx(point[0]) + 6)
            ty = _fmt(fy(point[1]) - 6)
            lines.append(
                f'<text x="{tx}" y="{ty}" font-family="sans-serif" '
                f'font-size="12" fill="#222222">{label}</text>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
