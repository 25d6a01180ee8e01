"""Bouncing-rider dynamics on a convex board.

A particle sits on the boundary with a pending move type (1 or 2).  One
step slides it along the pending move's line to the other boundary
intersection (its antipode) and toggles the pending type.  If the line
through the current position meets the board only there — it lies along
an edge or just touches a corner — the antipode is the point itself and
the particle stops.

Steps run on homogeneous integer coordinates: a point is a gcd-reduced
triple (x, y, w) meaning (x/w, y/w), clipped against the board's integer
edge rows with integer cross-multiplication.  `_walk` steps an orbit for
`trace` and the partition, which walks each component once from its
smallest point; `Board._locate` runs once per walk, on its start.  A
step takes the point's edge rows, one on an edge and two at a corner,
and returns the landing as (triple, edges), the next walk state; its
rows are the falling row that the move line reaches first, or the two
that tie there and meet at a corner.  Heights are computed only over the
rows whose height falls along the move, the list of them that the
exit table (`_exits`, one pass per walk) keeps for the sign of the
entering rate.  Over any other row the landing's height is at least the
start's, which is ≥ 0, and it is 0 only if the move runs along an edge
of the start, where the step stops before any height is computed.  The
table must cost no more than about 1.4 times the rates alone (0.7 µs on
the square, Python 3.11): `denominator` walks 2n short windows per
call.  Points leave this module as `Point2`s with `Fraction` coordinates.

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
  modulo a small one, over N or -N, whichever has N_w > 0.
* A point's coordinates.  Let (x, y, w) lie on the row (a, b, c).  Then
  gcd(x, w) divides b: p^k | x and p^k | w force p^k | b·y, and p does
  not divide y.  Likewise gcd(y, w) divides a.  With b = 0, x/w is c/a;
  with a = 0, y/w is c/b.  `geometry._point_on_row` builds each
  `Fraction` from coprime integers after that small-first gcd over one
  of the landing's edge rows, without a second one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd

from .geometry import (
    InternalInvariantError,
    _as_point,
    _boundary_edges,
    _from_homogeneous,
    _homogeneous,
    _point_on_row,
    _require_int,
    _require_move_pair,
    _require_move_type,
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


def _exits(board, move):
    """The move's exit table, in one pass over the board rows (a, b, c):
    the rates a·mc + b·md, and as (i, a, b, c, |rate|) the rows whose
    height falls along +move and those whose height rises along it."""
    mc, md = move.c, move.d
    alongs, falling, rising = [], [], []
    for i, (a, b, c) in enumerate(board.rows):
        along = a * mc + b * md
        alongs.append(along)
        if along < 0:
            falling.append((i, a, b, c, -along))
        elif along:
            rising.append((i, a, b, c, along))
    return alongs, falling, rising


def _edges_of(board, triple):
    """A boundary point's edge rows, from one `_locate`; NotOnBoundary
    off the boundary."""
    edges = board._locate(*triple)
    if not edges:
        where = ("outside the board" if edges is None
                 else "interior, not on the boundary")
        raise NotOnBoundary(f"{_from_homogeneous(*triple)} is {where}")
    return edges


def _step(board, move, exits, triple, edges):
    """The antipode of the boundary point triple = (x, y, w), reduced,
    on the edge rows `edges`, as (triple, edges) of the landing; None
    when the particle stops there.  exits is _exits(board, move),
    built once per walk.
    """

    alongs, falling, rising = exits
    entering = alongs[edges[0]]
    for i in edges:
        # a zero rate: the move line lies along an edge; rates of both
        # signs: the line touches the board only at this corner
        if alongs[i] * entering <= 0:
            return None
    # The line crosses the interior along s·move, s the sign of
    # `entering`.  It leaves through the row, of those whose height
    # falls that way, at the least h / r, by cross-multiplying from
    # 1 / 0, beyond every row; rows that tie meet at a corner.
    x, y, w = triple
    exit_h, exit_r, ties = 1, 0, None
    for i, a, b, c, r in (falling if entering > 0 else rising):
        h = a * x + b * y - c * w
        lhs, rhs = h * exit_r, exit_h * r
        if lhs < rhs:
            exit_h, exit_r, ties = h, r, [i]
        elif lhs == rhs:
            ties.append(i)
    exit_h = exit_h if entering > 0 else -exit_h
    # point + s·h / (w·r) · move, scaled by w·r > 0
    nx = x * exit_r + exit_h * move.c
    ny = y * exit_r + exit_h * move.d
    nw = w * exit_r
    g = gcd(exit_r * entering, nx, ny, nw)  # see the module docstring
    landing = (nx // g, ny // g, nw // g) if g != 1 else (nx, ny, nw)
    return landing, (ties if len(ties) == 1
                     else _boundary_edges(ties, len(alongs), landing))


def antipode(board, move, point):
    """Other boundary intersection of the move line through `point`.

    Returns `point` itself when the line does not cross the interior
    (it supports an edge or touches only at a corner).  Raises
    NotOnBoundary for a point off the boundary.
    """

    point = _as_point(point)
    triple = _homogeneous(point)
    landing = _step(board, move, _exits(board, move), triple,
                    _edges_of(board, triple))
    return (point if landing is None
            else _point_on_row(landing[0], board.rows[landing[1][0]]))


def _walk(board, rated, origin, edges, first, within):
    """Step from the boundary triple origin on the edge rows `edges`,
    `first` pending, alternating move types, and return the landings
    (triple, edges) kept and the end: "stopped" where the particle
    stops, "closed" back on origin with `first` pending, or "left" where
    within(kept, triple) refuses a landing.  A revisit that does not
    close the cycle raises InternalInvariantError."""

    kept, seen, triple, move_type = [], {origin}, origin, first
    while True:
        move, exits = rated[move_type - 1]
        landing = _step(board, move, exits, triple, edges)
        if landing is None:
            return kept, "stopped"
        move_type = 3 - move_type
        triple, edges = landing
        if triple == origin and move_type == first:
            return kept, "closed"
        if triple in seen:
            raise InternalInvariantError(
                f"the walk from {_from_homogeneous(*origin)} revisits a "
                "point without closing a cycle"
            )
        if not within(kept, triple):
            return kept, "left"
        kept.append(landing)
        seen.add(triple)


def trace(board, moves, start, first_move_type, max_points=10_000):
    """Follow the dynamics from a boundary point into a Trajectory.

    Stops on a genuine halt, on cycle closure, or after `max_points`
    positions (at least one).  A revisited position that is not the
    cycle closure is impossible for these dynamics and raises
    InternalInvariantError.
    """

    _require_move_pair(moves)
    _require_move_type(first_move_type)
    _require_int(max_points, "max_points", 1)
    start = _as_point(start)
    origin = _homogeneous(start)
    rated = [(move, _exits(board, move)) for move in moves]
    edges = _edges_of(board, origin)
    kept, end = _walk(board, rated, origin, edges, first_move_type,
                      lambda landed, _: len(landed) + 1 < max_points)
    points = [start, *(_point_on_row(triple, board.rows[on[0]])
                       for triple, on in kept)]
    if end == "closed":
        status = TrajectoryStatus.CYCLIC
    else:
        backward = rated[other(first_move_type) - 1]
        backward_open = _step(board, *backward, origin, edges) is not None
        status = _END_STATUS[(backward_open, end == "left")]
    return Trajectory(tuple(points), first_move_type, status)


def corner_trajectories(board, moves, max_points=10_000):
    """Trace from every corner with each move type first.

    Returns an iterator of 2n trajectories for an n-corner board, traced
    one at a time, in corner order with move type 1 first; coinciding
    ones are retained so callers can index the list by (corner, first type).
    """

    _require_move_pair(moves)
    _require_int(max_points, "max_points", 1)
    return (trace(board, moves, corner, move_type, max_points)
            for corner in board.corners for move_type in (1, 2))


def augment(board, moves, trajectory):
    """The window plus one antipode step past each open end.  A cyclic
    window comes back as is, and one a point short of a cycle, whose
    added ends coincide, closed.  An open forward end stays open, cut."""

    def past(point, move_type, end):
        beyond = antipode(board, moves[move_type - 1], point)
        if beyond == point:
            raise InternalInvariantError(
                f"status {trajectory.status} claims an open {end} end "
                f"but the antipode at {point} is the identity"
            )
        return beyond

    _require_move_pair(moves)
    if trajectory.status is TrajectoryStatus.CYCLIC:
        return trajectory
    backward_open, forward_open = _OPEN_ENDS[trajectory.status]
    points, first = list(trajectory.points), trajectory.first_move_type
    if forward_open:
        forward = trajectory.move_type_at(len(points) - 1)
        points.append(past(points[-1], forward, "forward"))
    if backward_open:
        before = past(points[0], other(first), "backward")
        if forward_open and before == points[-1]:
            return Trajectory((before, *points[:-1]), other(first),
                              TrajectoryStatus.CYCLIC)
        backward_open = antipode(board, moves[first - 1], before) != before
        points.insert(0, before)
        first = other(first)
    return Trajectory(tuple(points), first,
                      _END_STATUS[backward_open, forward_open])


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

    _require_move_pair(moves)
    pool = {_homogeneous(p): p for p in map(_as_point, points)}
    rated = [(move, _exits(board, move)) for move in moves]
    done = set()
    out = []
    for h in sorted(pool, key=pool.get):
        if h in done:
            continue
        # h is the smallest point of its component
        edges = _edges_of(board, h)
        runs = []  # (end, its leaving type back along the run, open, run)
        for first in (1, 2):
            kept, end = _walk(board, rated, h, edges, first,
                              lambda _, triple: triple in pool)
            run = (h, *(triple for triple, _ in kept))
            done.update(run)
            walked = tuple(map(pool.get, run))
            if end == "closed":
                out.append(Trajectory(walked, first, TrajectoryStatus.CYCLIC))
                break
            back_type = first if len(kept) % 2 else other(first)
            runs.append((walked[-1], back_type, end == "left", walked))
        else:
            # the path runs from the smaller end through h to the other
            (_, first_type, back_open, back), (*_, ahead_open, ahead) = (
                sorted(runs))
            out.append(Trajectory(back[::-1] + ahead[1:], first_type,
                                  _END_STATUS[back_open, ahead_open]))
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

