"""Independent references that production code is checked against.

`backtrack_count` enumerates every placement over per-cell attack
bitmasks; `count_pairs_formula` is the closed q = 2 count.  Neither
shares code with `riderflow.counting`.

`classify`, `antipode` and `stepped_trace` are the bounce step over
`Fraction` arithmetic: locate the point with one `Edge.side_of` per
edge, then clip the move line against every edge half-plane.  They
share no code with the integer kernel in `riderflow.dynamics`.

`rigid_cycles` is the rigid-cycle search over `Fraction` affine
families, rooted with both first move types; it shares the bounce and
rank code with `riderflow.arrangement` but none of the search.
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
    classify_cycle,
    trace,
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


def _aff(a, b):
    return (Fraction(a), Fraction(b))


def _clip(lo, hi, f):
    """Intersect [lo, hi] with {t : f(t) >= 0} for f = (a, b), a*t + b."""
    a, b = f
    if a == 0:
        return (lo, hi) if b >= 0 else None
    bound = -b / a
    if a > 0:
        lo = max(lo, bound)
    else:
        hi = min(hi, bound)
    return (lo, hi) if lo <= hi else None


def _land(board, point_aff, move, edge_index):
    """Affine image of a point slid along `move` onto an edge line, plus
    the landing's edge parameter u as an affine function of t."""
    edge = board.edges[edge_index]
    nx, ny = edge.normal
    along = nx * move.c + ny * move.d
    if along == 0:
        return None
    fx, fy = point_aff
    height = _aff(
        nx * fx[0] + ny * fy[0],
        nx * fx[1] + ny * fy[1] - edge.offset,
    )
    tau = _aff(-Fraction(height[0], along), -Fraction(height[1], along))
    qx = _aff(fx[0] + tau[0] * move.c, fx[1] + tau[1] * move.c)
    qy = _aff(fy[0] + tau[0] * move.d, fy[1] + tau[1] * move.d)
    span_x = edge.head.x - edge.tail.x
    if span_x != 0:
        u = _aff(qx[0] / span_x, (qx[1] - edge.tail.x) / span_x)
    else:
        span_y = edge.head.y - edge.tail.y
        u = _aff(qy[0] / span_y, (qy[1] - edge.tail.y) / span_y)
    return (qx, qy), u


def _in_edge(lo, hi, u):
    """[lo, hi] clipped to 0 <= u(t) <= 1."""
    window = _clip(lo, hi, u)
    return window and _clip(window[0], window[1], (-u[0], 1 - u[1]))


def _at(path, t):
    return tuple(Point2(fx[0] * t + fx[1], fy[0] * t + fy[1]) for fx, fy in path)


def rigid_cycles(board, moves, max_length):
    """The rigid cycles `enumerate_rigid_cycles` should return.

    Depth-first search over bounce patterns with every path point an
    affine function of the start edge's parameter t in `Fraction`
    arithmetic, windows clipped by the landing edge's own parameter in
    [0, 1], rooted on every edge with both first move types.
    """
    n = len(board.edges)
    found = {}

    def accept(points, first_type, require_rigid):
        if len(set(points)) != len(points):
            return
        if any(board.classify(p).kind is not LocationKind.EDGE for p in points):
            return
        key = frozenset(points)
        if key in found:
            return
        traj = trace(board, moves, points[0], first_type, max_points=len(points))
        if traj.status is not TrajectoryStatus.CYCLIC or traj.points != points:
            raise InternalInvariantError(f"{points} does not re-trace to itself")
        verdict = classify_cycle(board, moves, traj)
        if not verdict.rigid:
            if require_rigid:
                raise InternalInvariantError(f"isolated closure {points} non-rigid")
            return
        found[key] = traj

    def family_scan(path, first_type, lo, hi):
        length = len(path)
        for i in range(length):
            for j in range(i + 2, length):
                if i == 0 and j == length - 1:
                    continue
                dx = _aff(path[i][0][0] - path[j][0][0], path[i][0][1] - path[j][0][1])
                dy = _aff(path[i][1][0] - path[j][1][0], path[i][1][1] - path[j][1][1])
                for move in moves:
                    g = (dx[0] * move.d - dy[0] * move.c, dx[1] * move.d - dy[1] * move.c)
                    if g[0] == 0:
                        continue
                    root = -g[1] / g[0]
                    if lo <= root <= hi:
                        accept(_at(path, root), first_type, require_rigid=False)

    def descend(path, current_edge, move_type, lo, hi, start_edge, first_type):
        depth = len(path)
        move = moves[move_type - 1]
        if depth >= 4 and depth % 2 == 0:
            landing = _land(board, path[-1], move, start_edge)
            window = landing and _in_edge(lo, hi, landing[1])
            if window:
                u = landing[1]
                closure = (u[0] - 1, u[1])
                if closure[0] != 0:
                    root = -closure[1] / closure[0]
                    if window[0] <= root <= window[1]:
                        accept(_at(path, root), first_type, require_rigid=True)
                elif closure[1] == 0:
                    family_scan(path, first_type, *window)
        if depth >= max_length:
            return
        for edge_index in range(start_edge, n):
            if edge_index == current_edge:
                continue
            landing = _land(board, path[-1], move, edge_index)
            window = landing and _in_edge(lo, hi, landing[1])
            if window:
                descend(path + [landing[0]], edge_index, 3 - move_type,
                        window[0], window[1], start_edge, first_type)

    if max_length >= 4:
        for start_edge, edge in enumerate(board.edges):
            p0 = (_aff(edge.head.x - edge.tail.x, edge.tail.x),
                  _aff(edge.head.y - edge.tail.y, edge.tail.y))
            for first_type in (1, 2):
                descend([p0], start_edge, first_type, Fraction(0), Fraction(1),
                        start_edge, first_type)
    return sorted(found.values(), key=lambda tr: (len(tr.points), tr.points))
