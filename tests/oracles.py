"""Independent references that production code is checked against.

`backtrack_count` enumerates every placement over per-cell attack
bitmasks; `count_pairs_formula` is the closed q = 2 count.  Neither
shares code with `riderflow.counting`.

`classify`, `antipode` and `stepped_trace` are the bounce step over
`Fraction` arithmetic: locate the point with one `Edge.side_of` per
edge, then clip the move line against every edge half-plane.  They
share no code with the integer kernel in `riderflow.dynamics`.
"""

from fractions import Fraction
from math import comb

from riderflow import (
    BoundaryLocation,
    InternalInvariantError,
    LocationKind,
    NotOnBoundary,
    Point2,
    Trajectory,
    TrajectoryStatus,
)


def _line_groups(move, n):
    """Cells grouped by the move line through them, as index lists."""
    groups = {}
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            key = x * move.d - y * move.c
            groups.setdefault(key, []).append((x - 1) * n + (y - 1))
    return groups


def attack_masks(moves, n):
    """Per-cell bitmask of attacked cells (self excluded)."""
    masks = [0] * (n * n)
    for move in moves:
        for cells in _line_groups(move, n).values():
            if len(cells) < 2:
                continue
            group = 0
            for i in cells:
                group |= 1 << i
            for i in cells:
                masks[i] |= group & ~(1 << i)
    return masks


def backtrack_count(moves, q, n):
    """Placements of q mutually nonattacking riders, by bitset backtracking."""
    if q < 0:
        raise ValueError(f"q must be nonnegative, got {q}")
    if q == 0:
        return 1
    if n <= 0:
        return 0
    masks = attack_masks(moves, n)

    def rec(avail, k):
        total = 0
        m = avail
        while m:
            low = m & -m
            m ^= low
            rest = m & ~masks[low.bit_length() - 1]
            if k == 2:
                total += rest.bit_count()
            elif rest:
                total += rec(rest, k - 1)
        return total

    full = (1 << (n * n)) - 1
    if q == 1:
        return n * n
    return rec(full, q)


def count_pairs_formula(moves, n):
    """Independent q = 2 check: all pairs minus collinear pairs.

    A pair attacking along both moves would have difference parallel to
    two independent vectors, so no pair is subtracted twice.
    """

    total = comb(n * n, 2)
    for move in moves:
        for cells in _line_groups(move, n).values():
            total -= comb(len(cells), 2)
    return total


def classify(board, point):
    """Interior, on edge i, at corner i, or outside, from `Edge.side_of`."""
    n = len(board.edges)
    zero = []
    for i, e in enumerate(board.edges):
        s = e.side_of(point)
        if s < 0:
            return BoundaryLocation(LocationKind.OUTSIDE)
        if s == 0:
            zero.append(i)
    if not zero:
        return BoundaryLocation(LocationKind.INTERIOR)
    if len(zero) == 2:
        i, j = zero
        if j == i + 1:
            return BoundaryLocation(LocationKind.CORNER, j)
        if i == 0 and j == n - 1:
            return BoundaryLocation(LocationKind.CORNER, 0)
    if len(zero) == 1:
        return BoundaryLocation(LocationKind.EDGE, zero[0])
    raise InternalInvariantError(f"point {point} lies on {len(zero)} edge lines")


def antipode(board, move, point):
    """Other boundary intersection of the move line, or `point` if it stops."""
    kind = classify(board, point).kind
    if kind is LocationKind.OUTSIDE:
        raise NotOnBoundary(f"{point} is outside the board")
    if kind is LocationKind.INTERIOR:
        raise NotOnBoundary(f"{point} is interior, not on the boundary")
    t_lo = None
    t_hi = None
    for edge in board.edges:
        nx, ny = edge.normal
        along = nx * move.c + ny * move.d
        height = edge.side_of(point)
        if along == 0:
            if height == 0:
                return point
            continue
        t = -Fraction(height, along)
        if along > 0:
            if t_lo is None or t > t_lo:
                t_lo = t
        elif t_hi is None or t < t_hi:
            t_hi = t
    if t_lo == t_hi:
        return point
    t = t_lo if t_lo != 0 else t_hi
    return Point2(point.x + t * move.c, point.y + t * move.d)


def stepped_trace(board, moves, start, first_move_type, max_points):
    """The Trajectory `trace` should return, stepped with `antipode` above."""
    points = [start]
    current = start
    move_type = first_move_type
    forward_stopped = cyclic = False
    while True:
        landing = antipode(board, moves[move_type - 1], current)
        if landing == current:
            forward_stopped = True
            break
        move_type = 3 - move_type
        if landing == start and move_type == first_move_type:
            cyclic = True
            break
        if landing in points:
            raise InternalInvariantError(f"{landing} revisited")
        if len(points) == max_points:
            break
        points.append(landing)
        current = landing
    backward = moves[2 - first_move_type]
    backward_stopped = antipode(board, backward, start) == start
    if cyclic:
        status = TrajectoryStatus.CYCLIC
    elif forward_stopped:
        status = (TrajectoryStatus.STOPPED_BOTH_ENDS if backward_stopped
                  else TrajectoryStatus.STOPPED_FORWARD)
    else:
        status = (TrajectoryStatus.STOPPED_BACKWARD if backward_stopped
                  else TrajectoryStatus.TRUNCATED)
    return Trajectory(tuple(points), first_move_type, status)
