"""Floating-point bounce simulation.

A cheap numerical companion to the exact dynamics: the particle moves
along lines of two fixed slopes, alternating, and each step jumps to
the far intersection of the current line with the board boundary.
Useful for watching long orbits converge toward an attractor without
paying for exact arithmetic, and for probing slope pairs outside the
exactly-analyzed families.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, hypot, inf

# A step shorter than this halts the path, and a landing this close to a
# corner stops it there.
TOL = 1e-9


@dataclass(frozen=True)
class FloatPath:
    points: tuple  # (x, y) float pairs, start included
    stop_reason: str | None  # "halt" | "corner" | None


def distances(points, limit_set):
    """Each point's distance to the nearest point of limit_set."""
    reference = [(float(x), float(y)) for x, y in limit_set]
    return tuple(
        min(hypot(x - lx, y - ly) for lx, ly in reference)
        for x, y in points
    )


def simulate_float(board, slopes, start, first_move_type=1, steps=1000):
    """Bounce from start for at most the given number of steps.

    slopes are the two line slopes (finite; use the exact machinery for
    vertical moves).  Stops early when the far intersection is the
    current point (a closed end, as on an edge parallel to the move) or
    lands within TOL of a corner.
    """

    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    dirs = (1.0, float(slopes[0])), (1.0, float(slopes[1]))
    # each row over gcd(a, b), so (a, b) is primitive, as floats
    edges = []
    for a, b, c in board.rows:
        g = gcd(a, b)
        edges.append((a / g, b / g, c / g))
    corners = [(float(c.x), float(c.y)) for c in board.corners]
    x, y = float(start[0]), float(start[1])
    points = [(x, y)]
    move_type = first_move_type
    reason = None
    for _ in range(steps):
        dx, dy = dirs[move_type - 1]
        t_lo, t_hi = -inf, inf
        for nx, ny, off in edges:
            along = nx * dx + ny * dy
            height = nx * x + ny * y - off
            if abs(along) < 1e-15:
                if abs(height) <= TOL:  # the move runs along this edge
                    t_lo = t_hi = 0.0
                    break
                continue
            bound = -height / along
            if along > 0:
                t_lo = max(t_lo, bound)
            else:
                t_hi = min(t_hi, bound)
        t = t_lo if abs(t_lo) > abs(t_hi) else t_hi
        if abs(t) <= TOL:
            reason = "halt"
            break
        x, y = x + t * dx, y + t * dy
        points.append((x, y))
        move_type = 3 - move_type
        if min(hypot(x - cx, y - cy) for cx, cy in corners) <= TOL:
            reason = "corner"
            break
    return FloatPath(tuple(points), reason)
