"""Hyperplane arrangements attached to piece configurations.

A configuration of q pieces on the board lives in R^{2q} (coordinates
x_1, y_1, ..., x_q, y_q).  The hyperplanes through it are the attack
constraints cross(z_i - z_j, m_r) = 0 that currently hold and the edge
fixations for every piece sitting on a boundary edge line.  The
configuration is a vertex when these reach full rank 2q.

This module also classifies cyclical trajectories (rigid versus not, by
the rank of their own configuration) and enumerates the rigid cycles of
a board exactly, by propagating one-parameter families of bounce
patterns and solving the closure condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import (
    InternalInvariantError,
    LocationKind,
    Point2,
)
from .dynamics import (
    Trajectory,
    TrajectoryStatus,
    antipode,
    other,
    trace,
)


class OutsideBoard(ValueError):
    pass


class NotCyclic(ValueError):
    pass


@dataclass(frozen=True)
class Hyperplane:
    """One constraint normal . w = offset on flattened configurations."""

    normal: tuple
    offset: Fraction
    kind: str  # "attack" or "fixation"


@dataclass(frozen=True)
class HyperplaneSystem:
    q: int
    hyperplanes: tuple

    def rank(self):
        return matrix_rank([h.normal for h in self.hyperplanes])

    def deficiency(self):
        return 2 * self.q - self.rank()

    def is_vertex(self):
        return self.rank() == 2 * self.q


def _eliminate(work, ncols, full_rank=False):
    """Row-reduce `work` in place to echelon form on its first ncols columns.

    Returns the number of pivots.  With `full_rank`, gives up and returns
    None at the first of those columns without a pivot.
    """
    nrows = len(work)
    width = len(work[0]) if work else 0
    rank = 0
    for col in range(ncols):
        for pivot in range(rank, nrows):
            if work[pivot][col] != 0:
                break
        else:
            if full_rank:
                return None
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        top = work[rank]
        lead = top[col]
        for r in range(rank + 1, nrows):
            row = work[r]
            if row[col] != 0:
                factor = row[col] / lead
                for c in range(col, width):
                    row[c] -= factor * top[c]
        rank += 1
        if rank == nrows:
            break
    return rank


def matrix_rank(rows):
    """Rank of a matrix given as an iterable of equal-length rows."""
    work = [[Fraction(v) for v in row] for row in rows]
    return _eliminate(work, len(work[0]) if work else 0)


def solve_square_system(rows, rhs):
    """Solve A x = b exactly; None when A is singular."""
    n = len(rows)
    work = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    if _eliminate(work, n, full_rank=True) is None:
        return None
    solution = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = work[r][n]
        for c in range(r + 1, n):
            acc -= work[r][c] * solution[c]
        solution[r] = acc / work[r][r]
    return solution


def _attack_normal(dim, i, j, move):
    """Normal of cross(z_i - z_j, move) = 0 in R^dim."""
    normal = [Fraction(0)] * dim
    normal[2 * i] = Fraction(move.d)
    normal[2 * i + 1] = Fraction(-move.c)
    normal[2 * j] = Fraction(-move.d)
    normal[2 * j + 1] = Fraction(move.c)
    return tuple(normal)


def _fixation_normal(dim, i, edge):
    """Normal of edge.normal . z_i = edge.offset in R^dim."""
    normal = [Fraction(0)] * dim
    normal[2 * i] = Fraction(edge.normal[0])
    normal[2 * i + 1] = Fraction(edge.normal[1])
    return tuple(normal)


def arrangement_of(board, moves, pieces):
    """All attack and fixation hyperplanes through a configuration."""
    pieces = tuple(p if isinstance(p, Point2) else Point2(*p) for p in pieces)
    q = len(pieces)
    for z in pieces:
        if not board.contains(z):
            raise OutsideBoard(f"piece at {z} is off the board")
    dim = 2 * q
    hyps = []
    for i in range(q):
        for j in range(i + 1, q):
            dx = pieces[i].x - pieces[j].x
            dy = pieces[i].y - pieces[j].y
            for move in moves:
                if dx * move.d - dy * move.c == 0:
                    hyps.append(
                        Hyperplane(
                            _attack_normal(dim, i, j, move),
                            Fraction(0),
                            "attack",
                        )
                    )
    for i, z in enumerate(pieces):
        for edge in board.edges:
            if edge.side_of(z) == 0:
                hyps.append(
                    Hyperplane(
                        _fixation_normal(dim, i, edge),
                        Fraction(edge.offset),
                        "fixation",
                    )
                )
    return HyperplaneSystem(q, tuple(hyps))


@dataclass(frozen=True)
class CycleClassification:
    length: int
    rank: int
    rigid: bool


def classify_cycle(board, moves, trajectory):
    """Rank test for a cyclical trajectory: full rank 2l means rigid."""
    if trajectory.status is not TrajectoryStatus.CYCLIC:
        raise NotCyclic(f"trajectory status is {trajectory.status.value}")
    system = arrangement_of(board, moves, trajectory.points)
    r = system.rank()
    l = len(trajectory.points)
    return CycleClassification(l, r, r == 2 * l)


def partition_into_trajectories(board, moves, points):
    """Split a finite set of boundary points into maximal trajectories.

    Two points are linked when one is the other's antipode under either
    move; each point has at most one link per move type, so components
    are alternating paths or cycles.  Output trajectories carry statuses
    describing each end: stopped when the antipode there is the
    identity, truncated when it leaves the given set.
    """

    points = sorted(
        {p if isinstance(p, Point2) else Point2(*p) for p in points}
    )
    pool = set(points)
    links = {}
    for p in points:
        for r in (1, 2):
            q = antipode(board, moves[r - 1], p)
            links[(p, r)] = q if (q != p and q in pool) else None

    def end_open(p, r):
        # antipode under move r neither stops nor stays in the set
        q = antipode(board, moves[r - 1], p)
        return q != p and q not in pool

    done = set()
    out = []
    for start in points:
        if start in done:
            continue
        # find a path endpoint in this component, or detect a cycle
        endpoint = None
        endpoint_type = None
        stack = [start]
        comp = {start}
        while stack:
            p = stack.pop()
            missing = [r for r in (1, 2) if links[(p, r)] is None]
            if missing and endpoint is None:
                endpoint, endpoint_type = p, other(missing[0])
            for r in (1, 2):
                q = links[(p, r)]
                if q is not None and q not in comp:
                    comp.add(q)
                    stack.append(q)
        if endpoint is None:
            # pure cycle: walk it from its smallest point
            first = min(comp)
            seq = [first]
            move_type = 1
            cur = first
            while True:
                nxt = links[(cur, move_type)]
                if nxt == first and other(move_type) == 1:
                    break
                if nxt is None or nxt in seq:
                    raise InternalInvariantError(
                        "alternating walk left its cycle component"
                    )
                seq.append(nxt)
                cur = nxt
                move_type = other(move_type)
            traj = Trajectory(tuple(seq), 1, TrajectoryStatus.CYCLIC)
        else:
            # walk the path from its smallest usable endpoint
            candidates = []
            for p in comp:
                missing = [r for r in (1, 2) if links[(p, r)] is None]
                if missing:
                    for r in missing:
                        candidates.append((p, other(r)))
            endpoint, endpoint_type = min(
                candidates, key=lambda item: (item[0], item[1])
            )
            seq = [endpoint]
            move_type = endpoint_type
            cur = endpoint
            while links[(cur, move_type)] is not None:
                cur = links[(cur, move_type)]
                seq.append(cur)
                move_type = other(move_type)
            first_type = endpoint_type
            back_open = end_open(seq[0], other(first_type))
            fwd_open = end_open(seq[-1], move_type)
            if back_open and fwd_open:
                status = TrajectoryStatus.TRUNCATED
            elif back_open:
                status = TrajectoryStatus.STOPPED_FORWARD
            elif fwd_open:
                status = TrajectoryStatus.STOPPED_BACKWARD
            else:
                status = TrajectoryStatus.STOPPED_BOTH_ENDS
            traj = Trajectory(tuple(seq), first_type, status)
        done.update(comp)
        out.append(traj)
    return out


# ---------------------------------------------------------------------------
# Rigid-cycle enumeration.
#
# A bounce pattern fixes, for each cycle point, the boundary edge it sits
# on and the pending move type.  Fixing the first point's edge parameter
# t makes every later point an affine function of t; each landing
# constrains t to keep its edge parameter inside [0, 1], and closing the
# cycle imposes one affine equation.  A unique closure root is an
# isolated cyclical trajectory and is provably rigid; a degenerate
# closure (0 = 0) is a sliding family, rigid only at parameters where an
# extra attack coincidence holds, which are roots of further affine
# functions.  Corner-touching solutions are excluded here — cyclical
# trajectories through a corner are covered by the corner-trajectory
# machinery.

_Affine = tuple  # (a, b) meaning a * t + b


def _aff(a, b):
    return (Fraction(a), Fraction(b))


def _aff_eval(f, t):
    return f[0] * t + f[1]


def _clip(lo, hi, f, negate=False):
    """Intersect [lo, hi] with {t : f(t) >= 0} (or <= 0 when negate)."""
    a, b = f
    if negate:
        a, b = -a, -b
    if a == 0:
        return (lo, hi) if b >= 0 else None
    bound = -b / a
    if a > 0:
        lo = max(lo, bound)
    else:
        hi = min(hi, bound)
    return (lo, hi) if lo <= hi else None


def _land(board, point_aff, move, edge_index):
    """Affine image of a point slid along `move` onto an edge line."""
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


def _candidate_points(path, t):
    return tuple(
        Point2(_aff_eval(fx, t), _aff_eval(fy, t)) for fx, fy in path
    )


def enumerate_rigid_cycles(board, moves, max_length):
    """All rigid cycles of length at most max_length, sorted.

    Returns cyclical Trajectory objects with corner-free point sets,
    deduplicated across rotations and reversals.
    """

    n = len(board.edges)
    found = {}

    def accept(points, first_type, require_rigid):
        if len(set(points)) != len(points):
            return
        for p in points:
            if board.classify(p).kind is not LocationKind.EDGE:
                return
        key = frozenset(points)
        if key in found:
            return
        traj = trace(board, moves, points[0], first_type, max_points=len(points))
        if traj.status is not TrajectoryStatus.CYCLIC or traj.points != points:
            raise InternalInvariantError(
                f"pattern solution {points} does not re-trace to itself"
            )
        verdict = classify_cycle(board, moves, traj)
        if not verdict.rigid:
            if require_rigid:
                raise InternalInvariantError(
                    f"isolated closure {points} classified non-rigid"
                )
            return
        found[key] = traj

    def family_scan(path, first_type, lo, hi, length):
        for i in range(length):
            for j in range(i + 2, length):
                if i == 0 and j == length - 1:
                    continue  # adjacent around the cycle
                dx = _aff(
                    path[i][0][0] - path[j][0][0],
                    path[i][0][1] - path[j][0][1],
                )
                dy = _aff(
                    path[i][1][0] - path[j][1][0],
                    path[i][1][1] - path[j][1][1],
                )
                for move in moves:
                    g = _aff(
                        dx[0] * move.d - dy[0] * move.c,
                        dx[1] * move.d - dy[1] * move.c,
                    )
                    if g[0] == 0:
                        continue
                    root = -g[1] / g[0]
                    if lo <= root <= hi:
                        accept(
                            _candidate_points(path, root),
                            first_type,
                            require_rigid=False,
                        )

    def descend(path, edges_used, move_type, lo, hi, start_edge, first_type):
        depth = len(path)
        current_edge = edges_used[-1]
        move = moves[move_type - 1]
        # try to close the cycle back onto the start edge
        if depth >= 4 and depth % 2 == 0:
            landing = _land(board, path[-1], move, start_edge)
            if landing is not None:
                (qx, qy), u = landing
                closure = _aff(u[0] - 1, u[1])
                c_lo, c_hi = lo, hi
                window = _clip(c_lo, c_hi, u)
                window = window and _clip(window[0], window[1], ((-u[0]), 1 - u[1]))
                if window is not None:
                    c_lo, c_hi = window
                    if closure[0] != 0:
                        root = -closure[1] / closure[0]
                        if c_lo <= root <= c_hi:
                            accept(
                                _candidate_points(path, root),
                                first_type,
                                require_rigid=True,
                            )
                    elif closure[1] == 0:
                        family_scan(path, first_type, c_lo, c_hi, depth)
        if depth >= max_length:
            return
        for edge_index in range(start_edge, n):
            if edge_index == current_edge:
                continue
            landing = _land(board, path[-1], move, edge_index)
            if landing is None:
                continue
            (qx, qy), u = landing
            window = _clip(lo, hi, u)
            window = window and _clip(window[0], window[1], ((-u[0]), 1 - u[1]))
            if window is None:
                continue
            descend(
                path + [(qx, qy)],
                edges_used + [edge_index],
                other(move_type),
                window[0],
                window[1],
                start_edge,
                first_type,
            )

    if max_length >= 4:
        for start_edge in range(n):
            edge = board.edges[start_edge]
            p0 = (
                _aff(edge.head.x - edge.tail.x, edge.tail.x),
                _aff(edge.head.y - edge.tail.y, edge.tail.y),
            )
            for first_type in (1, 2):
                descend(
                    [p0],
                    [start_edge],
                    first_type,
                    Fraction(0),
                    Fraction(1),
                    start_edge,
                    first_type,
                )

    return sorted(found.values(), key=lambda tr: (len(tr.points), tr.points))
