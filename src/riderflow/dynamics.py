"""Bouncing-rider dynamics on a convex board.

A particle sits on the boundary with a pending move type (1 or 2).  One
step slides it along the pending move's line to the other boundary
intersection (its antipode) and toggles the pending type.  If the line
through the current position meets the board only there — it lies along
an edge or just touches a corner — the antipode is the point itself and
the particle stops.

Steps run on homogeneous integer coordinates: a point is a gcd-reduced
triple (x, y, w) meaning (x/w, y/w), clipped against the board's integer
edge rows with integer cross-multiplication.  `Board._locate` runs once
per walk, on its start.  A step takes the point's edge rows, one on an
edge and two at a corner, and returns the landing's with the landing:
the falling row that the move line reaches first, or the two that tie
there and meet at a corner.  Heights are computed only over the rows
whose height falls along the move, told apart by the signs of the
move's rates over the rows (`_alongs`, once per walk).  Over any other
row the landing's height is at least the start's, which is ≥ 0, and it
is 0 only if the move runs along an edge of the start, where the step
stops before any height is computed.  Points leave this module as
`Point2`s with `Fraction` coordinates.

Coordinates grow to thousands of bits, but two divisibility facts bound
every gcd a step needs by small integers of the board's edge rows.

* The step's gcd.  Let P = (x, y, w) lie on the edge row e = (a, b, c),
  its height there 0, and step along the primitive move M = (mc, md, 0).
  The landing is N = A·P - h·M, with A the exit row's along (its
  a·mc + b·md) and h P's height over the exit row.  Let
  along_e = a·mc + b·md, nonzero, as otherwise the step stops.  Then
  gcd(N) divides A·along_e.  Proof: a·N_x + b·N_y - c·N_w = -h·along_e.
  Let p be a prime with p^k | gcd(N) and k > v_p(A).  P and M are
  primitive, so A·P has a component of valuation v_p(A) and h·M one
  of valuation v_p(h); A·P ≡ h·M mod p^k then forces v_p(h) = v_p(A).
  Hence k ≤ v_p(h·along_e) = v_p(A) + v_p(along_e).  So `_step` takes
  gcd(A·along_e, N_x, N_y, N_w), whose first step is a big integer
  modulo a small one.
* A point's coordinates.  Let (x, y, w) lie on the row (a, b, c).  Then
  gcd(x, w) divides b: p^k | x and p^k | w force p^k | b·y, and p does
  not divide y.  Likewise gcd(y, w) divides a.  With b = 0, x/w is c/a;
  with a = 0, y/w is c/b.  `_step` returns the row it lands on, and
  `geometry._point_on_row` builds each `Fraction` from coprime integers
  after that small-first gcd, without a second one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from math import gcd

from .geometry import (
    InternalInvariantError,
    LocationKind,
    _as_point,
    _boundary_edges,
    _from_homogeneous,
    _homogeneous,
    _point_on_row,
    format_point,
)


class NotOnBoundary(ValueError):
    pass


def other(move_type):
    return 3 - move_type


class TrajectoryStatus(enum.Enum):
    CYCLIC = "cyclic"
    STOPPED_BOTH_ENDS = "stopped-both-ends"
    STOPPED_FORWARD = "stopped-forward"
    STOPPED_BACKWARD = "stopped-backward"
    TRUNCATED = "truncated"


# The status of a non-cyclic window from whether its (backward, forward)
# ends continue; _OPEN_ENDS gives the open ends of a status.
_END_STATUS = {
    (False, False): TrajectoryStatus.STOPPED_BOTH_ENDS,
    (True, False): TrajectoryStatus.STOPPED_FORWARD,
    (False, True): TrajectoryStatus.STOPPED_BACKWARD,
    (True, True): TrajectoryStatus.TRUNCATED,
}
_OPEN_ENDS = {status: ends for ends, status in _END_STATUS.items()}


@dataclass(frozen=True)
class Trajectory:
    """A window of distinct particle positions, in step order.

    points[i] carries pending move type `first_move_type` for even i and
    the other type for odd i.  The status describes what the window saw
    at its two ends: CYCLIC closes back onto points[0]; a "stopped" end
    is genuinely closed (the next antipode is the identity); TRUNCATED
    means the forward end was cut by the step budget while the backward
    end still continues.
    """

    points: tuple
    first_move_type: int
    status: TrajectoryStatus

    def move_type_at(self, index):
        return self.first_move_type if index % 2 == 0 else other(self.first_move_type)

    def segments(self):
        """(start, end, move_type) triples, cyclic windows included."""
        points, n = self.points, len(self.points)
        cyclic = self.status is TrajectoryStatus.CYCLIC
        return [(points[i], points[(i + 1) % n], self.move_type_at(i))
                for i in range(n if cyclic else n - 1)]

    def __len__(self):
        return len(self.points)


def _alongs(board, move):
    """The move's rate over each board row (a, b, c): a·mc + b·md."""
    return [a * move.c + b * move.d for a, b, _ in board.rows]


def _edges_of(board, triple):
    """The edge rows of a point as `_step` takes them, [i] on edge i and
    [i - 1, i] at corner i, from one `_locate`; NotOnBoundary off it."""
    loc = board._locate(*triple)[0]
    if loc.index is None:
        where = ("outside the board" if loc.kind is LocationKind.OUTSIDE
                 else "interior, not on the boundary")
        raise NotOnBoundary(f"{_from_homogeneous(*triple)} is {where}")
    i = loc.index
    return [i] if loc.kind is LocationKind.EDGE else [i - 1, i]


def _step(board, move, alongs, triple, edges):
    """The antipode of the boundary point triple = (x, y, w), reduced,
    on the edge rows `edges`, as (triple, row, edges) of the landing,
    with row one of its edge rows; None when the particle stops there.
    alongs is _alongs(board, move), computed once per walk.
    """

    entering = alongs[edges[0]]
    for i in edges:
        # a zero rate: the move line lies along an edge; rates of both
        # signs: the line touches the board only at this corner
        if alongs[i] * entering <= 0:
            return None
    # The line crosses the interior with t of the sign of `entering`.
    # Height i changes at the rate alongs[i] / w along point + t * move,
    # so it falls where rate = -alongs[i] * entering > 0, and the line
    # leaves at the falling row of least h / rate, by cross-multiplying
    # from 1 / 0, beyond every row; rows that tie meet at a corner.
    x, y, w = triple
    rows = board.rows
    exit_h, exit_rate, ties = 1, 0, []
    for i, along in enumerate(alongs):
        rate = -along * entering
        if rate > 0:
            a, b, c = rows[i]
            h = a * x + b * y - c * w
            lhs, rhs = h * exit_rate, exit_h * rate
            if lhs < rhs:
                exit_h, exit_rate, ties = h, rate, [i]
            elif lhs == rhs:
                ties.append(i)
    exit_along = alongs[ties[0]]
    # t = -h / (w * along) at the exit edge
    nx = x * exit_along - exit_h * move.c
    ny = y * exit_along - exit_h * move.d
    nw = w * exit_along
    g = gcd(exit_along * entering, nx, ny, nw)  # see the module docstring
    if nw < 0:
        g = -g
    landing = (nx // g, ny // g, nw // g)
    return landing, rows[ties[0]], _boundary_edges(ties, len(rows), landing)


def antipode(board, move, point):
    """Other boundary intersection of the move line through `point`.

    Returns `point` itself when the line does not cross the interior
    (it supports an edge or touches only at a corner).  Raises
    NotOnBoundary for a point off the boundary.
    """

    point = _as_point(point)
    triple = _homogeneous(point)
    landing = _step(board, move, _alongs(board, move), triple,
                    _edges_of(board, triple))
    return point if landing is None else _point_on_row(*landing[:2])


def trace(board, moves, start, first_move_type, max_points=10_000):
    """Follow the dynamics from a boundary point into a Trajectory.

    Stops on a genuine halt, on cycle closure, or after `max_points`
    positions (at least one).  A revisited position that is not the
    cycle closure is impossible for these dynamics and raises
    InternalInvariantError.
    """

    if first_move_type not in (1, 2):
        raise ValueError(f"move type must be 1 or 2, got {first_move_type}")
    if max_points < 1:
        raise ValueError(f"max_points must be at least 1, got {max_points}")
    start = _as_point(start)
    origin = _homogeneous(start)
    rated = [(move, _alongs(board, move)) for move in moves]
    current = start_at = (origin, _edges_of(board, origin))
    landings = []  # (triple, row) after the start
    seen = {origin}
    move_type = first_move_type
    forward_stopped = cyclic = False
    while True:
        landing = _step(board, *rated[move_type - 1], *current)
        if landing is None:
            forward_stopped = True
            break
        triple, row, edges = landing
        next_type = other(move_type)
        if triple == origin and next_type == first_move_type:
            cyclic = True
            break
        if triple in seen:
            raise InternalInvariantError(
                f"position {_from_homogeneous(*triple)} revisited without "
                "closing a cycle"
            )
        if len(landings) + 1 == max_points:
            break
        landings.append((triple, row))
        seen.add(triple)
        current = (triple, edges)
        move_type = next_type
    points = [start, *(_point_on_row(*landing) for landing in landings)]

    if cyclic:
        status = TrajectoryStatus.CYCLIC
    else:
        backward = rated[other(first_move_type) - 1]
        backward_open = _step(board, *backward, *start_at) is not None
        status = _END_STATUS[(backward_open, not forward_stopped)]
    return Trajectory(tuple(points), first_move_type, status)


def corner_trajectories(board, moves, max_points=10_000):
    """Trace from every corner with each move type first.

    Yields 2n trajectories for an n-corner board, one trace at a time,
    in corner order with move type 1 first; coinciding ones are retained
    so callers can index the list by (corner, first type).
    """

    for corner in board.corners:
        for move_type in (1, 2):
            yield trace(board, moves, corner, move_type, max_points)


def augment(board, moves, trajectory):
    """The window traced again one antipode step past each open end; a
    cyclic window comes back as is, as its segments close the loop."""

    if trajectory.status is TrajectoryStatus.CYCLIC:
        return trajectory
    backward_open, forward_open = _OPEN_ENDS[trajectory.status]
    start, first = trajectory.points[0], trajectory.first_move_type
    if backward_open:
        before = antipode(board, moves[other(first) - 1], start)
        if before == start:
            raise InternalInvariantError(
                f"status {trajectory.status} claims an open backward end "
                f"but the antipode at {start} is the identity"
            )
        start, first = before, other(first)
    size = len(trajectory) + backward_open + forward_open
    out = trace(board, moves, start, first, max_points=size)
    if out.status is TrajectoryStatus.CYCLIC:
        # a window that misses two points of a cycle gains both, but not
        # the segment that joins them
        if len(out) == size:
            return replace(out, status=TrajectoryStatus.TRUNCATED)
    elif forward_open and len(out) < size:
        raise InternalInvariantError(
            f"status {trajectory.status} claims an open forward end "
            f"but the antipode at {trajectory.points[-1]} is the identity"
        )
    return out


def partition_into_trajectories(board, moves, points):
    """Split a finite set of boundary points into maximal trajectories.

    Two points are linked when one is the other's antipode under either
    move; each point has at most one link per move type, so components
    are alternating paths or cycles.  A cycle starts at its smallest
    point with move type 1; a path starts at the smaller of its two
    (end, leaving type) pairs.  An end is stopped when the antipode
    there is the identity and open when it leaves the given set.
    Components come in the order of their smallest points.
    """

    pool = {_homogeneous(p): p for p in map(_as_point, points)}
    order = sorted(pool, key=pool.get)
    rated = [(move, _alongs(board, move)) for move in moves]
    # link[h, r]: the point of the set that h reaches under move type r
    link = {}
    for h in order:
        edges = _edges_of(board, h)
        for r in (1, 2):
            landing = _step(board, *rated[r - 1], h, edges)
            if landing is not None and landing[0] in pool:
                link[h, r] = landing[0]
    done = set()
    out = []
    for h in order:
        if h in done:
            continue
        # h is the smallest point of its component
        component, stack, ends = {h}, [h], []
        while stack:
            p = stack.pop()
            for r in (1, 2):
                linked = link.get((p, r))
                if linked is None:  # a path end, left by the other type
                    ends.append((pool[p], other(r)))
                elif linked not in component:
                    component.add(linked)
                    stack.append(linked)
        first, first_type = min(ends, default=(pool[h], 1))
        out.append(trace(board, moves, first, first_type,
                         max_points=len(component)))
        done |= component
    return out


def format_trajectory(trajectory):
    """Plain-text form: header lines, then one point per line."""
    lines = [
        f"first_move_type {trajectory.first_move_type}",
        f"status {trajectory.status.value}",
        f"points {len(trajectory.points)}",
    ]
    lines.extend(format_point(p) for p in trajectory.points)
    return "\n".join(lines) + "\n"

