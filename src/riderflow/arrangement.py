"""Hyperplane arrangements attached to piece configurations.

A configuration of q pieces on the board lives in R^{2q} (coordinates
x_1, y_1, ..., x_q, y_q).  The hyperplanes through it are the attack
constraints cross(z_i - z_j, m_r) = 0 that currently hold and the edge
fixations for every piece sitting on a boundary edge line, held as
integer normals.  The configuration is a vertex when these reach full
rank 2q.

This module also classifies cyclical trajectories (rigid versus not, by
the rank of their own configuration) and enumerates the rigid cycles of
a board exactly, by propagating one-parameter families of bounce
patterns and solving the closure condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul

from .geometry import (
    InternalInvariantError,
    LocationKind,
    _as_point,
    _from_homogeneous,
    _homogeneous,
)
from .dynamics import TrajectoryStatus, _alongs, other, trace


class OutsideBoard(ValueError):
    pass


class NotCyclic(ValueError):
    pass


def _integer_row(values):
    """A row of ints and Fractions scaled by the lcm of its denominators."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


def _extend(basis, row, ncols):
    """Add an integer row to an echelon basis of (pivot, row) pairs, each
    row zero at the pivots before it; False, adding nothing, when the
    row's first ncols columns lie in the span of the basis.

    The row is reduced fraction-free, lead·row - row[pivot]·basis_row,
    and divided by the gcd of its entries; its first nonzero column is
    its pivot.
    """
    for p, b in basis:
        if v := row[p]:
            row = [b[p] * x - v * y for x, y in zip(row, b)]
    for col in range(ncols):
        if row[col]:
            g = gcd(*row)
            basis.append((col, [x // g for x in row]))
            return True
    return False


def _back_substitute(basis, n):
    """Numerators xs and one denominator w > 0, xs[j]/w the j-th unknown,
    of a full basis over n unknowns with right-hand sides in column n."""
    xs, w = [0] * n, 1
    for p, b in reversed(basis):  # xs is 0 at the pivots not yet solved
        acc = b[n] * w - sum(map(mul, b, xs))
        xs = [x * b[p] for x in xs]
        xs[p], w = acc, w * b[p]
    g = gcd(*xs, w) if w > 0 else -gcd(*xs, w)
    return [x // g for x in xs], w // g


def matrix_rank(rows):
    """Rank of a matrix given as an iterable of equal-length rows."""
    basis = []
    for row in map(_integer_row, rows):
        _extend(basis, row, len(row))
    return len(basis)


def solve_square_system(rows, rhs):
    """Solve A x = b exactly; None when A is singular."""
    n, basis = len(rows), []
    for row, b in zip(rows, rhs):
        if not _extend(basis, _integer_row([*row, b]), n):
            return None
    xs, w = _back_substitute(basis, n)
    return [Fraction(x, w) for x in xs]


def _attack_normal(dim, i, j, move):
    """Normal of cross(z_i - z_j, move) = 0 in R^dim."""
    normal = [0] * dim
    normal[2 * i:2 * i + 2] = move.d, -move.c
    normal[2 * j:2 * j + 2] = -move.d, move.c
    return tuple(normal)


def _fixation_normal(dim, i, row):
    """Normal of the edge row (a, b, c), a·x_i + b·y_i = c, in R^dim."""
    normal = [0] * dim
    normal[2 * i:2 * i + 2] = row[:2]
    return tuple(normal)


def arrangement_of(board, moves, pieces):
    """Integer normals of the hyperplanes through a configuration: its
    attacks, then each piece's edge fixations."""
    pieces = tuple(map(_as_point, pieces))
    dim = 2 * len(pieces)
    normals = [
        _attack_normal(dim, i, j, move)
        for (i, zi), (j, zj) in combinations(enumerate(pieces), 2)
        for move in moves
        if (zi.x - zj.x) * move.d == (zi.y - zj.y) * move.c
    ]
    for i, z in enumerate(pieces):
        edges = board._locate(*_homogeneous(z))
        if edges is None:
            raise OutsideBoard(f"piece at {z} is off the board")
        normals += [_fixation_normal(dim, i, board.rows[e])
                    for e in sorted(edges)]
    return normals


@dataclass(frozen=True)
class CycleClassification:
    length: int
    rank: int
    rigid: bool


def classify_cycle(board, moves, trajectory):
    """Rank test for a cyclical trajectory: full rank 2l means rigid."""
    if trajectory.status is not TrajectoryStatus.CYCLIC:
        raise NotCyclic(f"trajectory status is {trajectory.status.value}")
    r = matrix_rank(arrangement_of(board, moves, trajectory.points))
    l = len(trajectory.points)
    return CycleClassification(l, r, r == 2 * l)


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
# rigid.  A degenerate closure (0 = 0) is a sliding family: every member
# keeps the family direction in the kernel of its arrangement, so none
# is rigid unless an attack between non-adjacent points adds a row.  On
# a strictly convex board the line through a cycle point along either
# move meets the boundary only at that point and at its neighbour along
# that move, so such an attack repeats a point.  Degenerate closures are
# therefore skipped.  These are all integer cross-multiplications;
# only window bounds and roots are Fractions.  Corner-touching solutions
# are excluded here — cyclical trajectories through a corner are covered
# by the corner-trajectory machinery.
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
        _from_homogeneous(x1 * p + x0 * q, y1 * p + y0 * q, w * q)
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
    rated = [(move, _alongs(board, move)) for move in moves]
    found = {}

    def accept(points):
        if len(set(points)) != len(points):
            return
        for p in points:
            if board.classify(p).kind is not LocationKind.EDGE:
                return
        key = frozenset(points)
        if key in found:
            return
        traj = trace(board, moves, points[0], 1, max_points=len(points))
        if traj.status is not TrajectoryStatus.CYCLIC or traj.points != points:
            raise InternalInvariantError(
                f"pattern solution {points} does not re-trace to itself"
            )
        if not classify_cycle(board, moves, traj).rigid:
            raise InternalInvariantError(
                f"isolated closure {points} classified non-rigid"
            )
        found[key] = traj

    def land(family, move, alongs, j, lo, hi):
        """The family slid along move, whose rates are alongs, onto edge
        j and its clipped window, or None."""
        along = alongs[j]
        if along == 0:
            return None
        a, b, c = rows[j]
        mc, md = move.c, move.d
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

    def descend(path, current_edge, move_type, lo, hi, start_edge):
        depth = len(path)
        walk = rated[move_type - 1]
        # try to close the cycle back onto the start edge
        if depth >= 4 and depth % 2 == 0:
            landing = land(path[-1], *walk, start_edge, lo, hi)
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
                        accept(_points_at(path, root))
        if depth >= max_length:
            return
        for edge_index in range(start_edge, n):
            if edge_index == current_edge:
                continue
            landing = land(path[-1], *walk, edge_index, lo, hi)
            if landing is not None:
                family, (w_lo, w_hi) = landing
                descend(path + [family], edge_index, other(move_type),
                        w_lo, w_hi, start_edge)

    if max_length >= 4:
        for start_edge in range(n):
            # corner i + t·(corner i + 1 - corner i), t in [0, 1]
            tx, ty, tw = _homogeneous(board.corners[start_edge])
            hx, hy, hw = _homogeneous(board.corners[(start_edge + 1) % n])
            p0 = _reduced((hx * tw - tx * hw, tx * hw,
                           hy * tw - ty * hw, ty * hw, tw * hw))
            descend([p0], start_edge, 1, Fraction(0), Fraction(1), start_edge)

    return sorted(found.values(), key=lambda tr: (len(tr.points), tr.points))
