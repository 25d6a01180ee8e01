"""Independent references that production code is checked against.

`backtrack_count` enumerates every placement over per-cell attack
bitmasks; `count_pairs_formula` is the closed q = 2 count, and
`inclusion_exclusion_count` counts q <= 3 from line lengths alone.
None of them shares code with `riderflow.counting`.

`newton_fit` fits a quasipolynomial by Newton interpolation over
`Fraction` and checks every surplus sample against it, where
`riderflow.counting.fit` tests a period by integer differences and
interpolates with the library's one elimination routine.
`evaluate_fit` evaluates a fitted quasipolynomial at n.

`classify`, `antipode` and `stepped_trace` are the bounce step over
`Fraction` arithmetic: locate the point with one `Fraction` height
a·x + b·y - c per edge, then clip the move line against every edge
half-plane.  They share no code with the integer kernel in
`riderflow.dynamics` or with `Edge.side_of`.

`rigid_cycles` is the rigid-cycle search over `Fraction` affine
families, rooted with both first move types; it shares the bounce and
rank code with `riderflow.arrangement` but none of the search.

`crossing_points` and `vertex_certificates` treat trajectory segments
as general closed segments: a crossing solves for both segment
parameters and range-checks them before the interior test, and a piece
lies on a segment when it is collinear with it and between its ends.
`riderflow.denominator` works on the lines that carry the segments.

`denominator_contributions` builds the contributions from their
definition: it steps every window through each corner with
`stepped_trace`, augments each short one, and takes crossings from
`crossing_points` and cycles from `rigid_cycles`.  It prices no
segment, where `riderflow.denominator` prices each set of chords by
the smallest window that covers them.

`closed_form_inclined` folds the lcm over every corner-window point and
crossing of the inclined family, one `rho` power each.

`fraction_rank` and `fraction_solve` are Gaussian elimination over
`Fraction` with row swaps, and `subset_vertices` solves every
2q-subset of the candidate rows with it, building those rows itself;
`subset_vertex_oracle` takes the lcm of their denominators.
`riderflow.arrangement` eliminates fraction-free over integers, and
`riderflow.vertex_oracle` grows only independent bases through it.

`float_path_reference` steps the float bounce to the end, clipping the
move line against every edge in board order, and
`nearest_distances_reference` takes min(hypot(...)) over the whole
limit set for every point; `riderflow.floatsim` stops at the first
repeated state and sweeps an x-sorted limit set.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial, gcd, hypot, inf, lcm

from riderflow import (
    BoundaryLocation,
    InternalInvariantError,
    LocationKind,
    NotOnBoundary,
    Point2,
    Trajectory,
    TrajectoryStatus,
    augment,
    classify_cycle,
    inclined_crossing_point,
    partition_into_trajectories,
    point_denominator,
    trace,
)
from riderflow.denominator import _sorted_by_slope


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


def inclusion_exclusion_count(moves, q, n):
    """Placements of q <= 3 riders by inclusion-exclusion over the events
    "pieces i and j share a move-r line".

    A set S of events asks the pieces that its move-r events join to
    share one move-r line.  With N(S) the ordered q-tuples of cells that
    do so, the sum of (-1)^|S| N(S) counts the tuples that meet no event;
    their cells are distinct, for two pieces on one cell share both
    lines.  Pieces that S puts on both lines of another share its cell
    and merge.  The merged cells are edges between the lines that S
    asks for, and they form a forest: a cycle would need four distinct
    cells.  So N(S) is a product over trees of at most three cells: the
    sum of |L|^k over the move-r lines L for k cells on one line (one
    cell gives n^2), and for a path of three the sum over its middle
    cell of the lengths of the cell's two lines.
    """
    if not 0 <= q <= 3:
        raise ValueError(f"q must be 0 to 3, got {q}")
    groups = [_line_groups(move, n).values() for move in moves]
    powers = [
        [sum(len(cells) ** k for cells in lines) for k in range(4)]
        for lines in groups
    ]
    length = [[0] * (n * n) for _ in moves]
    for lengths, lines in zip(length, groups):
        for cells in lines:
            for i in cells:
                lengths[i] = len(cells)
    path = sum(a * b for a, b in zip(*length))

    def tuples_meeting(events):
        # each piece's move-r line as a class label, per move
        labels = [list(range(q)), list(range(q))]
        for i, j, r in events:
            old, new = labels[r][j], labels[r][i]
            labels[r] = [new if x == old else x for x in labels[r]]
        trees = []
        for cell in set(zip(*labels)):
            touching = [
                t for t in trees
                if any(c[0] == cell[0] or c[1] == cell[1] for c in t)
            ]
            trees = [t for t in trees if t not in touching]
            trees.append([cell, *(c for t in touching for c in t)])
        total = 1
        for tree in trees:
            lines = Counter((r, c[r]) for c in tree for r in (0, 1))
            (r, _), degree = lines.most_common(1)[0]
            total *= powers[r][degree] if degree == len(tree) else path
        return total

    events = [(i, j, r) for i, j in combinations(range(q), 2) for r in (0, 1)]
    ordered = sum(
        (-1) ** size * tuples_meeting(chosen)
        for size in range(len(events) + 1)
        for chosen in combinations(events, size)
    )
    placements, rest = divmod(ordered, factorial(q))
    if rest:
        raise AssertionError(f"{ordered} is not divisible by {q}!")
    return placements


def _newton_poly(xs, ys):
    """Interpolating polynomial through (xs, ys), ascending coefficients."""
    k = len(xs)
    table = [[Fraction(y) for y in ys]]
    for j in range(1, k):
        prev = table[-1]
        table.append([
            (prev[i + 1] - prev[i]) / (xs[i + j] - xs[i])
            for i in range(k - j)
        ])
    poly = [Fraction(0)] * k
    basis = [Fraction(1)] + [Fraction(0)] * (k - 1)
    for j in range(k):
        for idx in range(j + 1):
            poly[idx] += table[j][0] * basis[idx]
        if j < k - 1:
            shifted = [Fraction(0)] * k
            for idx in range(j + 1):
                shifted[idx + 1] += basis[idx]
                shifted[idx] -= xs[j] * basis[idx]
            basis = shifted
    return poly


def newton_fit(values, period, degree):
    """Per-residue constituents fitted to values[1:], or None if refuted.

    Each class r (n % period == r, n >= 1) is interpolated through its
    first degree + 1 samples and every later sample is evaluated.
    """
    constituents = []
    for r in range(period):
        ns = [n for n in range(1, len(values)) if n % period == r]
        head = ns[: degree + 1]
        coeffs = _newton_poly(head, [values[n] for n in head])
        for n in ns[degree + 1:]:
            if sum(c * n**k for k, c in enumerate(coeffs)) != values[n]:
                return None
        constituents.append(tuple(coeffs))
    return tuple(constituents)


def _eval_poly(coeffs, n):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


def evaluate_fit(fitted, n):
    """A `QuasipolynomialFit`'s value at n, by Horner's rule on the
    constituent of n's residue class."""
    return _eval_poly(fitted.constituents[n % fitted.period], n)


def classify(board, point):
    """Interior, on edge i, at corner i, or outside, from each edge's
    `Fraction` height a·x + b·y - c."""
    n = len(board.rows)
    zero = []
    for i, e in enumerate(board.rows):
        s = e.a * point.x + e.b * point.y - e.c
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
    for edge in board.rows:
        along = edge.a * move.c + edge.b * move.d
        height = edge.a * point.x + edge.b * point.y - edge.c
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


def _edge_ends(board, i):
    """Edge i's tail and head: corners i and i + 1."""
    return board.corners[i], board.corners[(i + 1) % len(board.corners)]


def _land(board, point_aff, move, edge_index):
    """Affine image of a point slid along `move` onto an edge line, plus
    the landing's edge parameter u as an affine function of t."""
    a, b, c = board.rows[edge_index]
    along = a * move.c + b * move.d
    if along == 0:
        return None
    fx, fy = point_aff
    height = _aff(a * fx[0] + b * fy[0], a * fx[1] + b * fy[1] - c)
    tau = _aff(-Fraction(height[0], along), -Fraction(height[1], along))
    qx = _aff(fx[0] + tau[0] * move.c, fx[1] + tau[1] * move.c)
    qy = _aff(fy[0] + tau[0] * move.d, fy[1] + tau[1] * move.d)
    tail, head = _edge_ends(board, edge_index)
    span_x = head.x - tail.x
    if span_x != 0:
        u = _aff(qx[0] / span_x, (qx[1] - tail.x) / span_x)
    else:
        span_y = head.y - tail.y
        u = _aff(qy[0] / span_y, (qy[1] - tail.y) / span_y)
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
    n = len(board.rows)
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
        for start_edge in range(n):
            tail, head = _edge_ends(board, start_edge)
            p0 = (_aff(head.x - tail.x, tail.x), _aff(head.y - tail.y, tail.y))
            for first_type in (1, 2):
                descend([p0], start_edge, first_type, Fraction(0), Fraction(1),
                        start_edge, first_type)
    return sorted(found.values(), key=lambda tr: (len(tr.points), tr.points))


def segment_crossing(p1, p2, q1, q2):
    """Transversal intersection point of two closed segments, or None."""
    d1x, d1y = p2.x - p1.x, p2.y - p1.y
    d2x, d2y = q2.x - q1.x, q2.y - q1.y
    det = d1x * d2y - d1y * d2x
    if det == 0:
        return None
    rx, ry = q1.x - p1.x, q1.y - p1.y
    s = (rx * d2y - ry * d2x) / det
    t = (rx * d1y - ry * d1x) / det
    if not (0 <= s <= 1 and 0 <= t <= 1):
        return None
    return Point2(p1.x + s * d1x, p1.y + s * d1y)


def crossing_points(board, a, b=None):
    """(point, i, j) per interior crossing of segment i of augmented
    trajectory a and segment j of b; with b omitted, i < j within a."""
    segs_a = a.segments()
    if b is None:
        segs_b = segs_a
        indices = combinations(range(len(segs_a)), 2)
    else:
        segs_b = b.segments()
        indices = product(range(len(segs_a)), range(len(segs_b)))
    out = []
    for i, j in indices:
        (pa, qa, ta), (pb, qb, tb) = segs_a[i], segs_b[j]
        if ta == tb:
            continue
        pt = segment_crossing(pa, qa, pb, qb)
        if pt is not None and board.interior_contains(pt):
            out.append((pt, i, j))
    return out


def on_segment(point, a, b):
    abx, aby = b.x - a.x, b.y - a.y
    apx, apy = point.x - a.x, point.y - a.y
    if abx * apy - aby * apx != 0:
        return False
    if abx != 0:
        t = apx / abx
    else:
        t = apy / aby
    return 0 <= t <= 1


def vertex_certificates(board, moves, pieces):
    """(z, type-1 segment, type-2 segment) per interior piece z, in point
    order: the first augmented component segment of each type through z,
    or None where no segment passes through it."""
    unique = sorted(set(pieces))
    boundary = [
        p for p in unique
        if board.classify(p).kind is not LocationKind.INTERIOR
    ]
    segments = [
        seg
        for comp in partition_into_trajectories(board, moves, boundary)
        for seg in augment(board, moves, comp).segments()
    ]
    out = []
    for z in unique:
        if z in boundary:
            continue
        witness = {1: None, 2: None}
        for a, b, move_type in segments:
            if witness[move_type] is None and on_segment(z, a, b):
                witness[move_type] = (a, b, move_type)
        out.append((z, witness[1], witness[2]))
    return tuple(out)


def _corner_windows(board, moves, corner, q):
    """Every window of at most q points that holds the corner: k
    backward steps from it, then forward through it."""
    if q < 1:
        return []
    backward = stepped_trace(board, moves, corner, 2, q)
    out = {}
    for k, start in enumerate(backward.points):
        # the move that took point k - 1 to point k leads back
        first = 1 if k % 2 == 0 else 2
        for m in range(k + 1, q + 1):
            window = stepped_trace(board, moves, start, first, m)
            out[window.points] = window
    return list(out.values())


def denominator_contributions(board, moves, q):
    """The (category, point) pairs `denominator` should report, from the
    definition: the points of every window of at most q points through a
    corner and of every rigid cycle of length at most q; the
    self-crossings of each augmented window, or rigid cycle, of length at
    most q - 1; and the crossings of two of them, from different corners
    or cycles, whose lengths total at most q - 1."""
    found = set()
    groups = []  # per corner and per rigid cycle: (length, augmented window)
    for corner in board.corners:
        windows = _corner_windows(board, moves, corner, q)
        found |= {("corner-trajectory-point", p)
                  for w in windows for p in w.points}
        groups.append([(len(w), augment(board, moves, w))
                       for w in windows if len(w) <= q - 1])
    for cycle in rigid_cycles(board, moves, q):
        found |= {("rigid-cycle-point", p) for p in cycle.points}
        groups.append([(len(cycle), cycle)] if len(cycle) <= q - 1 else [])
    for group in groups:
        for _, w in group:
            found |= {("self-cross", pt)
                      for pt, _, _ in crossing_points(board, w)}
    for group_a, group_b in combinations(groups, 2):
        for (m_a, a), (m_b, b) in product(group_a, group_b):
            if m_a + m_b <= q - 1:
                found |= {("cross", pt)
                          for pt, _, _ in crossing_points(board, a, b)}
    return found


def closed_form_inclined(moves, q):
    """The inclined family's denominator: the lcm over the corner window's
    q points and its (q - 1) // 2 crossings, each computed alone."""
    m1, m2 = _sorted_by_slope(moves)
    rho = Fraction(m1.d * m2.c, m1.c * m2.d)
    dens = [1]
    for i in range(1, q + 1):
        if i % 2 == 1:
            pt = Point2(1, rho ** ((i - 1) // 2))
        else:
            k = i // 2 - 1
            pt = Point2(
                Fraction(m1.d, m1.c) * rho ** k,
                Fraction(m2.c, m2.d) * rho ** k,
            )
        dens.append(point_denominator(pt))
    for i in range(1, (q - 1) // 2 + 1):
        dens.append(point_denominator(inclined_crossing_point(moves, i)))
    return lcm(*dens)


def _fraction_echelon(work, ncols):
    """Row-reduce `work`, lists of Fractions, in place on its first ncols
    columns; returns the pivot columns in order."""
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next(
            (r for r in range(rank, len(work)) if work[r][col] != 0), None
        )
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        top = work[rank]
        for row in work[rank + 1:]:
            factor = row[col] / top[col]
            for c in range(col, len(row)):
                row[c] -= factor * top[c]
        pivots.append(col)
    return pivots


def fraction_rank(rows):
    work = [[Fraction(v) for v in row] for row in rows]
    return len(_fraction_echelon(work, len(work[0]) if work else 0))


def fraction_solve(rows, rhs):
    """The solution of A x = b as Fractions, or None when A is singular."""
    n = len(rows)
    work = [[Fraction(v) for v in row] + [Fraction(b)]
            for row, b in zip(rows, rhs)]
    if len(_fraction_echelon(work, n)) < n:
        return None
    solution = [Fraction(0)] * n
    for r in reversed(range(n)):
        acc = work[r][n] - sum(work[r][c] * solution[c]
                               for c in range(r + 1, n))
        solution[r] = acc / work[r][r]
    return solution


def subset_vertices(board, moves, q):
    """Each distinct solution, a tuple of q pieces, of 2q of the edge
    fixations and attack hyperplanes that lies in the closed board,
    trying every 2q-subset of those rows."""
    dim = 2 * q
    rows = []
    for i in range(q):
        for a, b, c in board.rows:
            normal = [0] * dim
            normal[2 * i], normal[2 * i + 1] = a, b
            rows.append((normal, c))
    for i, j in combinations(range(q), 2):
        for move in moves:
            normal = [0] * dim
            normal[2 * i], normal[2 * i + 1] = move.d, -move.c
            normal[2 * j], normal[2 * j + 1] = -move.d, move.c
            rows.append((normal, 0))
    seen = set()
    for subset in combinations(rows, dim):
        solution = fraction_solve([r[0] for r in subset],
                                  [r[1] for r in subset])
        if solution is None:
            continue
        pieces = tuple(Point2(solution[2 * i], solution[2 * i + 1])
                       for i in range(q))
        if pieces not in seen and all(board.contains(p) for p in pieces):
            seen.add(pieces)
            yield pieces


def subset_vertex_oracle(board, moves, q):
    """The lcm of the piece denominators over every subset vertex."""
    value = 1
    for pieces in subset_vertices(board, moves, q):
        value = lcm(value, *map(point_denominator, pieces))
    return value


def float_path_reference(board, slopes, start, first_move_type=1, steps=1000):
    """(points, stop_reason) of the float bounce, one step at a time to
    the end: a halt when the far intersection is within 1e-9 of the
    current point (or the move runs along an edge), a corner stop on a
    landing within 1e-9 of a corner."""
    dirs = (1.0, float(slopes[0])), (1.0, float(slopes[1]))
    edges = []
    for a, b, c in board.rows:
        g = gcd(a, b)
        edges.append((a / g, b / g, c / g))
    corners = [(float(c.x), float(c.y)) for c in board.corners]
    x, y = float(start[0]), float(start[1])
    points = [(x, y)]
    move_type = first_move_type
    for _ in range(steps):
        dx, dy = dirs[move_type - 1]
        t_lo, t_hi = -inf, inf
        for nx, ny, off in edges:
            along = nx * dx + ny * dy
            height = nx * x + ny * y - off
            if abs(along) < 1e-15:
                if abs(height) <= 1e-9:
                    t_lo = t_hi = 0.0
                    break
                continue
            bound = -height / along
            if along > 0:
                t_lo = max(t_lo, bound)
            else:
                t_hi = min(t_hi, bound)
        t = t_lo if abs(t_lo) > abs(t_hi) else t_hi
        if abs(t) <= 1e-9:
            return points, "halt"
        x, y = x + t * dx, y + t * dy
        points.append((x, y))
        move_type = 3 - move_type
        if min(hypot(x - cx, y - cy) for cx, cy in corners) <= 1e-9:
            return points, "corner"
    return points, None


def nearest_distances_reference(points, limit_set):
    """Each point's least hypot distance over every point of limit_set."""
    reference = [(float(x), float(y)) for x, y in limit_set]
    return [
        min(hypot(x - lx, y - ly) for lx, ly in reference)
        for x, y in points
    ]
