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
from math import gcd

from .geometry import (
    InternalInvariantError,
    LocationKind,
    Point2,
    _homogeneous,
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
# t makes every later point an affine function of t, held as one
# gcd-reduced integer family (X1, X0, Y1, Y0, W), W > 0, meaning
# x(t) = (X1·t + X0)/W and y(t) = (Y1·t + Y0)/W.  Sliding it along move m
# onto edge row (a, b, c), with along = a·m.c + b·m.d != 0 and the affine
# height H = a·X + b·Y - c·W, gives X·along - H·m.c, Y·along - H·m.d and
# W·along.  Each landing keeps the t where both neighbouring edge rows
# have height >= 0: on a strictly convex board, where the landing lies
# on its closed edge.  Closing the cycle imposes one affine equation.  A
# unique closure root is an isolated cyclical trajectory and is provably
# rigid; a degenerate closure (0 = 0) is a sliding family, rigid only
# where an extra attack coincidence holds, at roots of further affine
# functions.  These are all integer cross-multiplications; only window
# bounds and roots are Fractions.  Corner-touching solutions are
# excluded here — cyclical trajectories through a corner are covered by
# the corner-trajectory machinery.
#
# Roots use move type 1 only.  Every point of a cycle leaves with move
# type 1 in exactly one of its two directions of traversal, and landings
# never go below the root's edge, so a cycle is reached from a point on
# its lowest edge, in the direction where that point leaves with type 1.
# Type-2 roots on that edge would run after the type-1 roots and could
# only find cycles already found.


def _reduced(f):
    """A family divided by the gcd of its entries, with W > 0."""
    g = gcd(*f)
    if f[4] < 0:
        g = -g
    return tuple(v // g for v in f)


def _clip(lo, hi, f1, f0):
    """Intersect [lo, hi] with {t : f1·t + f0 >= 0}."""
    if f1 == 0:
        return (lo, hi) if f0 >= 0 else None
    bound = Fraction(-f0, f1)
    if f1 > 0:
        if bound > lo:
            lo = bound
    elif bound < hi:
        hi = bound
    return (lo, hi) if lo <= hi else None


def _points_at(path, t):
    """The path's points at the parameter t."""
    p, q = t.numerator, t.denominator
    return tuple(
        Point2(
            Fraction(x1 * p + x0 * q, w * q), Fraction(y1 * p + y0 * q, w * q)
        )
        for x1, x0, y1, y0, w in path
    )


def enumerate_rigid_cycles(board, moves, max_length):
    """All rigid cycles of length at most max_length, sorted.

    Returns cyclical Trajectory objects with corner-free point sets,
    deduplicated across rotations and reversals.  Raises ValueError for
    a negative max_length; lengths below 4 hold no cycle.
    """

    if max_length < 0:
        raise ValueError(f"max_length must be nonnegative, got {max_length}")
    rows = board.rows
    n = len(rows)
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

    def land(family, move, j, lo, hi):
        """The family slid along move onto edge j and its clipped window,
        or None."""
        a, b, c = rows[j]
        mc, md = move.c, move.d
        along = a * mc + b * md
        if along == 0:
            return None
        x1, x0, y1, y0, w = family
        h1 = a * x1 + b * y1
        h0 = a * x0 + b * y0 - c * w
        landed = _reduced((x1 * along - h1 * mc, x0 * along - h0 * mc,
                           y1 * along - h1 * md, y0 * along - h0 * md,
                           w * along))
        x1, x0, y1, y0, w = landed
        window = (lo, hi)
        for a, b, c in (rows[j - 1], rows[(j + 1) % n]):  # j's neighbours
            window = _clip(*window, a * x1 + b * y1, a * x0 + b * y0 - c * w)
            if window is None:
                return None
        return landed, window

    def family_scan(path, lo, hi):
        length = len(path)
        for i in range(length):
            xi1, xi0, yi1, yi0, wi = path[i]
            for j in range(i + 2, length):
                if i == 0 and j == length - 1:
                    continue  # adjacent around the cycle
                xj1, xj0, yj1, yj0, wj = path[j]
                # (z_i - z_j)·wi·wj as affine functions of t
                dx1, dx0 = xi1 * wj - xj1 * wi, xi0 * wj - xj0 * wi
                dy1, dy0 = yi1 * wj - yj1 * wi, yi0 * wj - yj0 * wi
                for move in moves:
                    g1 = dx1 * move.d - dy1 * move.c
                    if g1 == 0:
                        continue
                    root = Fraction(dy0 * move.c - dx0 * move.d, g1)
                    if lo <= root <= hi:
                        accept(_points_at(path, root), 1, require_rigid=False)

    def descend(path, current_edge, move_type, lo, hi, start_edge):
        depth = len(path)
        move = moves[move_type - 1]
        # try to close the cycle back onto the start edge
        if depth >= 4 and depth % 2 == 0:
            landing = land(path[-1], move, start_edge, lo, hi)
            if landing is not None:
                (x1, x0, y1, y0, w), (c_lo, c_hi) = landing
                s1, s0, t1, t0, v = path[0]
                # (landing - start)·w·v, which runs along the start edge,
                # dotted with that edge's direction (s1, t1)
                d1 = (x1 * v - s1 * w) * s1 + (y1 * v - t1 * w) * t1
                d0 = (x0 * v - s0 * w) * s1 + (y0 * v - t0 * w) * t1
                if d1 != 0:
                    root = Fraction(-d0, d1)
                    if c_lo <= root <= c_hi:
                        accept(_points_at(path, root), 1, require_rigid=True)
                elif d0 == 0:
                    family_scan(path, c_lo, c_hi)
        if depth >= max_length:
            return
        for edge_index in range(start_edge, n):
            if edge_index == current_edge:
                continue
            landing = land(path[-1], move, edge_index, lo, hi)
            if landing is not None:
                family, (w_lo, w_hi) = landing
                descend(path + [family], edge_index, other(move_type),
                        w_lo, w_hi, start_edge)

    if max_length >= 4:
        for start_edge, edge in enumerate(board.edges):
            # tail + t·(head - tail), t in [0, 1]
            tx, ty, tw = _homogeneous(edge.tail)
            hx, hy, hw = _homogeneous(edge.head)
            p0 = _reduced((hx * tw - tx * hw, tx * hw,
                           hy * tw - ty * hw, ty * hw, tw * hw))
            descend([p0], start_edge, 1, Fraction(0), Fraction(1), start_edge)

    return sorted(found.values(), key=lambda tr: (len(tr.points), tr.points))
