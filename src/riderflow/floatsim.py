"""Floating-point bounce simulation.

A cheap numerical companion to the exact dynamics: the particle moves
along lines of two fixed slopes, alternating, and each step jumps to
the far intersection of the current line with the board boundary.
Useful for watching long orbits converge toward an attractor without
paying for exact arithmetic, and for probing slope pairs outside the
exactly-analyzed families.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import cycle, islice
from math import copysign, gcd, hypot, inf

from .geometry import _require_int, _require_move_type

# A step shorter than this halts the path, and a landing this close to a
# corner stops it there.
TOL = 1e-9


@dataclass(frozen=True)
class FloatPath:
    points: tuple  # (x, y) float pairs, start included
    stop_reason: str | None  # "halt" | "corner" | None


def distances(points, limit_set):
    """Each point's distance to the nearest point of limit_set.

    Equal to min(hypot(x - lx, y - ly)) over the limit set.  Its float
    pairs are sorted once, without duplicates; from each point's place
    the scan runs outwards until |x - lx| alone exceeds the best so far.
    In a run of equal lx it bisects past ly < y - best and leaves at
    ly > y + best: a float below fl(y - best) is below y - best, so a
    skipped point can only tie best, and a point costs a few hypot
    calls, not one per point of an edge.  Points equal as floats (+0.0
    and -0.0 too) share one distance.  ValueError if the set is empty.
    """
    reference = sorted({(float(x), float(y)) for x, y in limit_set})
    if not reference:
        raise ValueError("the limit set is empty")
    known = {}
    out = []
    for point in points:
        d = known.get(point)
        if d is None:
            d = known[point] = _nearest(reference, *point)
        out.append(d)
    return tuple(out)


def _nearest(reference, x, y):
    """min(hypot(x - lx, y - ly)) over reference, which is sorted."""
    right = bisect_left(reference, (x, y))
    # seeded from a candidate, not inf, so that a NaN distance stays NaN
    lx, ly = reference[min(right, len(reference) - 1)]
    best = hypot(x - lx, y - ly)
    for j, step in (right, 1), (right - 1, -1):
        while 0 <= j < len(reference):
            lx, ly = reference[j]
            if abs(x - lx) > best:
                break
            if ly < y - best or ly > y + best:
                # to the window's edge if it lies ahead, else past the run
                if step > 0:
                    key = (lx, y - best if ly < y - best else inf)
                    j = bisect_left(reference, key, j + 1)
                else:
                    key = (lx, y + best if ly > y + best else -inf)
                    j = bisect_right(reference, key, 0, j) - 1
            else:
                best = min(best, hypot(x - lx, y - ly))
                j += step
    return best


def _same_bits(p, q):
    """Float pairs equal with equal signs: +0.0 and -0.0 differ."""
    return p == q and all(
        copysign(1.0, a) == copysign(1.0, b) for a, b in zip(p, q)
    )


def simulate_float(board, slopes, start, first_move_type=1, steps=1000):
    """Bounce from start for at most the given number of steps.

    slopes are the two line slopes (finite; use the exact machinery for
    vertical moves).  Stops early when the far intersection is the
    current point (a closed end, as on an edge parallel to the move) or
    lands within TOL of a corner.

    A step is a function of the state (x, y, move type) alone, so once
    a state repeats an earlier one bit for bit the path repeats from
    there.  The state at the last power-of-two step is kept; when a new
    state equals it, the repeated block (the same tuples) fills the path
    up to `steps` points after the start.  Every halt and corner test in
    that block has passed already, so the path and its stop_reason are
    those of stepping to the end.
    """

    _require_int(steps, "steps")
    _require_move_type(first_move_type)
    # each row over gcd(a, b), so (a, b) is primitive, as floats
    edges = []
    for a, b, c in board.rows:
        g = gcd(a, b)
        edges.append((a / g, b / g, c / g))
    # per move type: its direction, the edges parallel to it, and the
    # others with their rate along the move
    moves = []
    for slope in slopes:
        dx, dy = 1.0, float(slope)
        parallel, crossing = [], []
        for nx, ny, off in edges:
            along = nx * dx + ny * dy
            if abs(along) < 1e-15:
                parallel.append((nx, ny, off))
            else:
                crossing.append((nx, ny, off, along))
        moves.append((dx, dy, parallel, crossing))
    corners = [(float(c.x), float(c.y)) for c in board.corners]
    x, y = float(start[0]), float(start[1])
    points = [(x, y)]
    move_type = first_move_type
    saved_step, saved_point, saved_type = 0, points[0], move_type
    reason = None
    for step in range(1, steps + 1):
        dx, dy, parallel, crossing = moves[move_type - 1]
        # on an edge parallel to the move, the move runs along it
        if any(abs(nx * x + ny * y - off) <= TOL for nx, ny, off in parallel):
            reason = "halt"
            break
        t_lo, t_hi = -inf, inf
        for nx, ny, off, along in crossing:
            height = nx * x + ny * y - off
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
        point = (x, y)
        points.append(point)
        move_type = 3 - move_type
        if min(hypot(x - cx, y - cy) for cx, cy in corners) <= TOL:
            reason = "corner"
            break
        if move_type == saved_type and _same_bits(point, saved_point):
            block = points[saved_step + 1:]
            points.extend(islice(cycle(block), steps - step))
            break
        if step & (step - 1) == 0:
            saved_step, saved_point, saved_type = step, point, move_type
    return FloatPath(tuple(points), reason)
