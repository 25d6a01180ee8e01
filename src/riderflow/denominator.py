"""Denominators of nonattacking-placement counting functions.

For q riders on a board, the counting function's period structure is
governed by the vertices of an inside-out polytope; every vertex
coordinate traces back to boundary points of short trajectory windows
and to interior crossings of their augmentations.  This module gathers
those generating points exactly:

  * points on rigid cycles of length at most q,
  * points on trajectory windows of length at most q through a corner,
  * interior self-crossings of one augmented window of length at most
    q - 1 containing a corner (or a whole rigid cycle),
  * interior crossings of two such augmented windows with total length
    at most q - 1,

and reports the lcm of their coordinate denominators.  Each corner, and
each rigid cycle, is a flow: its chords and a price, the fewest core
points a window needs before its augmentation covers a given set of
them; a crossing counts while its price is at most q - 1.  Closed-form
values for the three special square-board move families are provided
alongside, plus a brute-force oracle for small q and an exact vertex
decomposition for configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import ceil, gcd, lcm

from .geometry import (
    InternalInvariantError,
    LocationKind,
    Point2,
    _as_point,
    _homogeneous,
    _point_on_row,
    _require_int,
    _require_move_pair,
    line_through,
    point_denominator,
)
from .dynamics import (
    TrajectoryStatus,
    augment,
    corner_trajectories,
    partition_into_trajectories,
)
from .arrangement import (
    _attack_normal,
    _back_substitute,
    _extend,
    _fixation_normal,
    arrangement_of,
    classify_cycle,
    enumerate_rigid_cycles,
    matrix_rank,
)


class SlopeConditionViolated(ValueError):
    pass


@dataclass(frozen=True)
class CrossingPoint:
    """Interior transversal intersection of two trajectory segments."""

    point: Point2
    index_a: int
    index_b: int


@dataclass(frozen=True)
class Contribution:
    category: str
    point: Point2
    denominator: int


@dataclass(frozen=True)
class DenominatorReport:
    q: int
    value: int
    contributions: tuple
    rigid_cycles: tuple  # the rigid cycles of length at most q
    corner_windows: tuple  # corner_trajectories(board, moves, q); () at q = 0


def _chords(segments):
    """(a, b, c, move_type) per segment: a trajectory segment is a chord,
    all of the line a·x + b·y = c that lies in the board."""
    return tuple((*line_through(p, q), t) for p, q, t in segments)


def _crossing(board, chord_a, chord_b):
    """Where two chords cross inside the board: (triple, Point2) or None.

    Chords of one move type are parallel.  Cramer's rule on the two
    integer rows gives the crossing as (x, y, det) with det > 0, and the
    crossing is interior when its integer height a·x + b·y - c·det over
    every board row is positive; a pair that fails builds no Fraction.
    (`trace` stops on a move along an edge, so no chord lies on an edge
    line: a chord without its ends is interior.)  The gcd-reduced triple
    keys the report; `Board.interior_contains` checks its Point2.
    """
    a1, b1, c1, t1 = chord_a
    a2, b2, c2, t2 = chord_b
    if t1 == t2:
        return None
    det = a1 * b2 - a2 * b1
    x, y = c1 * b2 - c2 * b1, a1 * c2 - a2 * c1
    if det < 0:
        x, y, det = -x, -y, -det
    for a, b, c in board.rows:
        if a * x + b * y <= c * det:
            return None
    g = gcd(x, y, det)
    triple = (x // g, y // g, det // g)
    pt = _point_on_row(triple, (a1, b1, c1))
    if not board.interior_contains(pt):
        raise InternalInvariantError(
            f"the crossing {pt} has positive heights but is not interior"
        )
    return triple, pt


def crossing_points(board, a, b=None):
    """Interior crossings between augmented trajectories a and b.

    With b omitted, the self-crossings of a.
    """

    chords_a = _chords(a.segments())
    if b is None:
        chords_b = chords_a
        indices = combinations(range(len(chords_a)), 2)
    else:
        chords_b = _chords(b.segments())
        indices = product(range(len(chords_a)), range(len(chords_b)))
    return [
        CrossingPoint(found[1], i, j)
        for i, j in indices
        if (found := _crossing(board, chords_a[i], chords_b[j])) is not None
    ]


def _window_cost(positions):
    """The fewest core points, the corner among them, whose augmented
    window covers the segments at these positions.  A corner's forward
    segment i sits at position i and its backward segment k at -k - 1."""
    return max(*positions, 0) + max(*(-i - 1 for i in positions), 0) + 1


def _corner_flow(forward, backward):
    """A corner's flow from its two traces: their chords, and the price
    of a set of them (indices into the chords) by `_window_cost`.

    A cycle of length l through the corner comes back from the backward
    trace reversed, so each of its segments sits at both i and i - l.
    Its chords i < j together cost l + i - j from positions i and j - l,
    and alone at most l, so no price needs capping at the whole cycle.
    """
    if (forward.status is TrajectoryStatus.CYCLIC) \
            != (backward.status is TrajectoryStatus.CYCLIC):
        raise InternalInvariantError(
            f"the two traces from {forward.points[0]} disagree on closing "
            "a cycle"
        )
    ahead, behind = forward.segments(), backward.segments()
    positions = [*range(len(ahead)), *range(-1, -len(behind) - 1, -1)]
    return (_chords(ahead + behind),
            lambda *ks: _window_cost([positions[k] for k in ks]))


def denominator(board, moves, q):
    """Exact denominator report for q riders on the board."""
    _require_int(q, "q")
    _require_move_pair(moves)
    contributions = {}  # (category, reduced triple) -> Point2

    def add(category, found):
        if found is not None:  # None: two chords that do not cross
            triple, point = found
            contributions[(category, triple)] = point

    # (chords, price): price(*ks) counts the core points a window needs
    # before its augmentation covers chords ks
    flows = []
    windows = cycles = ()
    if q >= 1:
        windows = tuple(corner_trajectories(board, moves, q))
        for forward, backward in zip(windows[::2], windows[1::2]):
            flows.append(_corner_flow(forward, backward))
            for p in forward.points + backward.points:
                add("corner-trajectory-point", (_homogeneous(p), p))
        cycles = tuple(enumerate_rigid_cycles(board, moves, q))
        for traj in cycles:
            # a rigid cycle is covered by all of its points or by none
            flows.append((_chords(traj.segments()),
                          lambda *ks, l=len(traj): l))
            for p in traj.points:
                add("rigid-cycle-point", (_homogeneous(p), p))

    budget = q - 1
    for chords, price in flows:
        for (i, a), (j, b) in combinations(enumerate(chords), 2):
            if a[3] != b[3] and price(i, j) <= budget:
                add("self-cross", _crossing(board, a, b))
    alone = [(chords, [price(k) for k in range(len(chords))])
             for chords, price in flows]
    for (chords_a, costs_a), (chords_b, costs_b) in combinations(alone, 2):
        for ca, cost_a in zip(chords_a, costs_a):
            if cost_a >= budget:
                continue
            for cb, cost_b in zip(chords_b, costs_b):
                if cost_a + cost_b <= budget:
                    add("cross", _crossing(board, ca, cb))

    # a triple's w is its point's denominator, and each w divides the
    # value, so (x·(value/w), y·(value/w)) orders the points as (x, y)
    value = lcm(*(w for _, (_, _, w) in contributions))

    def order(key):
        category, (x, y, w) = key
        scale = value // w
        return category, x * scale, y * scale

    report = tuple(Contribution(cat, contributions[cat, t], t[2])
                   for cat, t in sorted(contributions, key=order))
    return DenominatorReport(q, value, report, cycles, windows)


# ---------------------------------------------------------------------------
# Closed forms for the three square-board move families.


def _sorted_by_slope(moves):
    _require_move_pair(moves)
    m1, m2 = moves
    for m in (m1, m2):
        if m.c <= 0 or m.d <= 0:
            raise SlopeConditionViolated(
                f"move {m} does not have positive slope"
            )
    if m1.slope() > m2.slope():
        m1, m2 = m2, m1
    if not (0 < m1.slope() < 1 < m2.slope()):
        raise SlopeConditionViolated(
            f"slopes {m1.slope()}, {m2.slope()} must straddle 1 within (0, oo)"
        )
    return m1, m2


def _family_ends(n):
    """The first and last index of each parity in 1..n."""
    return {i for i in (1, 2, n - 1, n) if 1 <= i <= n}


def closed_form_inclined(moves, q):
    """Denominator for moves with slopes 0 < s1 < 1 < s2 on the square.

    The corner window's points and crossings form families c·rho^k, one
    per index parity.  A prime's exponent in c·rho^k is linear in k, so
    a family's lcm is the lcm of its first and last members.  Refuses a
    q that is not an int (TypeError) or is negative (ValueError).
    """
    _require_int(q, "q")
    m1, m2 = _sorted_by_slope(moves)
    rho = Fraction(m1.d * m2.c, m1.c * m2.d)
    dens = []
    for i in _family_ends(q):
        if i % 2 == 1:
            pt = Point2(1, rho ** ((i - 1) // 2))
        else:
            k = i // 2 - 1
            pt = Point2(
                Fraction(m1.d, m1.c) * rho ** k,
                Fraction(m2.c, m2.d) * rho ** k,
            )
        dens.append(point_denominator(pt))
    for i in _family_ends((q - 1) // 2):
        dens.append(point_denominator(inclined_crossing_point(moves, i)))
    return lcm(*dens)


def inclined_crossing_point(moves, index):
    """The index-th interior crossing point of the corner window family.
    Refuses an index that is not an int (TypeError) or is below 1."""
    _require_int(index, "index", 1)
    m1, m2 = _sorted_by_slope(moves)
    big_d = m1.c * m2.d - m2.c * m1.d
    rho = Fraction(m1.d * m2.c, m1.c * m2.d)
    if index % 2 == 1:
        k = (index - 1) // 2
        tx = Fraction(m2.c * (m1.d - m1.c), big_d) * rho ** k
        ty = Fraction(m1.d * (m2.d - m2.c), big_d) * rho ** k
    else:
        k = index // 2
        tx = Fraction(m1.c * (m2.c - m2.d), big_d) * rho ** k
        ty = Fraction(m2.d * (m1.c - m1.d), big_d) * rho ** k
    return Point2(1 + tx, ty)


def closed_form_orthogonal(m, q):
    """Denominator for moves (m, 1) and (1, -m), m >= 2, on the square.

    Undercounts for odd m at q >= 6: there the rigid 4-cycle crosses the
    corner windows at points such as (9/40, 3/40) for m = 3, and
    `denominator` reports twice this value.  Refuses an m or q that is
    not an int (TypeError), m < 2 and q < 0 (ValueError).
    """
    _require_int(m, "m", 2)
    _require_int(q, "q")
    if q <= 1:
        return 1
    if q == 2:
        return m
    if q == 3:
        return m ** 4 + m ** 2
    return lcm(m * m + 1, m + 1) * m ** (q - 1)


def closed_form_mirror(c, d, q):
    """Denominator for moves (c, d) and (c, -d) on the square.  Refuses
    a q that is not an int (TypeError) or is negative (ValueError)."""
    c, d = abs(c), abs(d)
    if c == 0 or d == 0 or gcd(c, d) != 1:
        raise ValueError(f"({c}, {d}) is not a mirror-pair generator")
    lo, hi = min(c, d), max(c, d)
    _require_int(q, "q")
    if q <= 1:
        return 1
    if q == 2:
        return hi
    if 3 <= q <= ceil(Fraction(hi, lo)):
        return 2 * hi
    return 2 * lo * hi


def attractor_orbit(slope1, slope2):
    """The attracting 4-cycle on the square for slopes m1, m2.

    Requires 0 < m1 < 1 and m2 < -1; the orbit visits the bottom,
    right, top, and left edges in that order.
    """

    m1, m2 = Fraction(slope1), Fraction(slope2)
    if not (0 < m1 < 1):
        raise SlopeConditionViolated(f"first slope {m1} not in (0, 1)")
    if not (m2 < -1):
        raise SlopeConditionViolated(f"second slope {m2} not below -1")
    s = m1 + m2
    return (
        Point2(Fraction(m1 - 1, s), 0),
        Point2(1, m1 * (1 + m2) / s),
        Point2(Fraction(1 + m2, s), 1),
        Point2(0, m2 * (1 - m1) / s),
    )


# ---------------------------------------------------------------------------
# Brute-force vertex oracle (small q) and vertex decomposition.


def vertex_oracle(board, moves, q):
    """Denominator by direct vertex enumeration; exponential, q <= 3 only.

    Every arrangement vertex is the unique solution of some 2q
    independent constraints chosen among the per-piece edge fixations
    and the pairwise attack hyperplanes, lying inside the closed board.
    Bases grow depth first in row order through `_extend`, and a branch
    ends at the first row in the span of those before it.  A solution
    (x/w, y/w) per piece is in the board when `Board._locate` finds it.
    """

    _require_int(q, "q")
    _require_move_pair(moves)
    if q > 3:
        raise ValueError("the oracle enumerates all vertex supports; q <= 3")
    dim = 2 * q
    rows = [[*_fixation_normal(dim, i, row), row[2]]
            for i in range(q) for row in board.rows]
    rows += [[*_attack_normal(dim, i, j, move), 0]
             for i, j in combinations(range(q), 2) for move in moves]
    value = 1

    def grow(basis, start):
        nonlocal value
        if len(basis) == dim:
            xs, w = _back_substitute(basis, dim)
            pieces = list(zip(xs[::2], xs[1::2]))
            if all(board._locate(x, y, w) is not None for x, y in pieces):
                value = lcm(value, *(w // gcd(x, y, w) for x, y in pieces))
            return
        for k in range(start, len(rows) - dim + len(basis) + 1):
            if _extend(basis, rows[k], dim):
                grow(basis, k + 1)
                basis.pop()

    grow([], 0)
    return value


@dataclass(frozen=True)
class VertexDecomposition:
    vertex: bool
    rank: int
    deficiency: int
    corner_components: tuple
    cycle_components: tuple
    interior_certificates: tuple


def characterize_vertex(board, moves, pieces):
    """Decompose a configuration if it is an arrangement vertex.

    A vertex splits into boundary components — alternating paths, each
    through a board corner, and rigid cycles — while each interior
    piece is an interior crossing of two augmented component segments
    of different move types.  Non-vertices are reported with their rank
    deficiency and no decomposition.
    """

    _require_move_pair(moves)
    pieces = tuple(map(_as_point, pieces))
    rank = matrix_rank(arrangement_of(board, moves, pieces))
    q = len(pieces)
    if rank < 2 * q:
        return VertexDecomposition(False, rank, 2 * q - rank, (), (), ())

    boundary, interior = [], []
    for p in sorted(set(pieces)):
        inside = board.classify(p).kind is LocationKind.INTERIOR
        (interior if inside else boundary).append(p)
    components = partition_into_trajectories(board, moves, boundary)
    corner_components = []
    cycle_components = []
    aug_chords = []
    for comp in components:
        if comp.status is TrajectoryStatus.CYCLIC:
            verdict = classify_cycle(board, moves, comp)
            if not verdict.rigid:
                raise InternalInvariantError(
                    "cyclic component of a vertex is not rigid"
                )
            cycle_components.append(comp)
        else:
            if not any(
                board.classify(p).kind is LocationKind.CORNER
                for p in comp.points
            ):
                raise InternalInvariantError(
                    "path component of a vertex contains no corner"
                )
            corner_components.append(comp)
        segments = augment(board, moves, comp).segments()
        aug_chords.extend(zip(segments, _chords(segments)))

    certificates = []
    for z in interior:
        witness = {1: None, 2: None}
        # an interior point is on a chord when it is on the chord's line
        for segment, (a, b, c, move_type) in aug_chords:
            if witness[move_type] is None and a * z.x + b * z.y == c:
                witness[move_type] = segment
        if witness[1] is None or witness[2] is None:
            raise InternalInvariantError(
                f"interior piece {z} of a vertex lacks a crossing certificate"
            )
        certificates.append((z, witness[1], witness[2]))
    return VertexDecomposition(
        True,
        rank,
        0,
        tuple(corner_components),
        tuple(cycle_components),
        tuple(certificates),
    )
