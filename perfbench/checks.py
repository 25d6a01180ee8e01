"""Answer checks and reference values that do not rely on riderflow.

Everything here works on plain integers and `fractions.Fraction`
values taken from the answers, so a check that passes is evidence from
outside the code under test.  Reference tables are module constants so
the self-tests can plant a wrong value and watch the check fail.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

# Denominator tables of the two named square-board riders (acceptance
# criterion 1), indexed by q = 1, 2, ...
ACCEPTANCE_TABLE = {
    "INC": (1, 2, 12, 24, 48),
    "ORTH": (1, 2, 20, 120, 240),
}

# Minimal fitted periods that the paper's bishop example pins down.
BISHOP_PERIODS = {2: 1, 3: 2}

# Largest n for which the q=3 counts are re-counted by brute force.
BRUTE_FORCE_N_MAX = 6


def _cross(ax, ay, bx, by):
    return ax * by - ay * bx


def _scaled_corners(corners):
    """Corners as integers over one common denominator: (rows, scale)."""
    scale = 1
    for x, y in corners:
        scale = lcm(scale, Fraction(x).denominator, Fraction(y).denominator)
    return [(int(x * scale), int(y * scale)) for x, y in corners], scale


def _reduced(x, y, d):
    g = gcd(x, y, d)
    if d < 0:
        g = -g
    return x // g, y // g, d // g


def far_point(corners, point, move):
    """Other boundary point of the line through `point` along `move`.

    `corners` are integers over a common denominator (see
    `_scaled_corners`) and `point` is a reduced triple (X, Y, D) for
    (X/D, Y/D) in the same scaled units.  The line is intersected with
    every edge segment; `point` itself comes back when the line lies
    along an edge or meets the polygon only at `point`.  This is the
    geometric definition of the bounce, computed in integers and
    without the clipping that riderflow uses.
    """

    px, py, pd = point
    vx, vy = move
    hits = set()
    n = len(corners)
    for i in range(n):
        ax, ay = corners[i]
        bx, by = corners[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        wx, wy = ax * pd - px, ay * pd - py  # (a - p), over pd
        den = vx * ey - vy * ex
        num = wx * vy - wy * vx  # s = num / (pd * den) on the edge
        if den == 0:
            if num == 0:
                return point  # the line runs along this edge
            continue
        full = pd * den
        if (0 <= num <= full) if full > 0 else (full <= num <= 0):
            hit = _reduced(ax * full + num * ex, ay * full + num * ey, full)
            if hit != point:
                hits.add(hit)
    if not hits:
        return point
    if len(hits) != 1:
        raise ValueError(f"{point} is not on the boundary")
    return hits.pop()


def bounce_prefix(corners, moves, start, first_move_type, limit):
    """Follow the bounce for at most `limit` points.

    Returns (points, ended) with Fraction points: `ended` is true when
    the trajectory stops or closes its cycle within the limit, so the
    whole trajectory is `points`.
    """

    scaled, scale = _scaled_corners(corners)
    sx, sy = Fraction(start[0]) * scale, Fraction(start[1]) * scale
    d = lcm(sx.denominator, sy.denominator)
    first = _reduced(int(sx * d), int(sy * d), d)
    points = [first]
    current = first
    move_type = first_move_type
    ended = False
    while True:
        landing = far_point(scaled, current, moves[move_type - 1])
        if landing == current:
            ended = True
            break
        move_type = 3 - move_type
        if landing == first and move_type == first_move_type:
            ended = True
            break
        if len(points) == limit:
            break
        points.append(landing)
        current = landing
    return [
        (Fraction(x, d * scale), Fraction(y, d * scale)) for x, y, d in points
    ], ended


def convex_ccw(corners):
    """True when the corners wind counterclockwise, strictly convex."""
    n = len(corners)
    for i in range(n):
        (ax, ay), (bx, by), (cx, cy) = (
            corners[i], corners[(i + 1) % n], corners[(i + 2) % n]
        )
        if _cross(bx - ax, by - ay, cx - bx, cy - by) <= 0:
            return False
    return True


def _edge_rows(corners):
    """Integer rows (a, b, c) with a*x + b*y >= c on the polygon."""
    rows = []
    n = len(corners)
    for i in range(n):
        ax, ay = corners[i]
        bx, by = corners[(i + 1) % n]
        a, b = -(by - ay), bx - ax  # inward normal for CCW winding
        c = a * ax + b * ay
        scale = a.denominator * b.denominator * c.denominator
        rows.append(
            (int(a * scale), int(b * scale), int(c * scale))
        )
    return rows


def orbit_errors(corners, moves, first_move_type, points, prefix):
    """Problems with a traced orbit, as a list of strings.

    Every point must satisfy one edge equation with every other edge
    nonnegative, every step must be parallel to its alternating move,
    and the orbit must start with the independently computed prefix.
    """

    errors = []
    if tuple(points[: len(prefix)]) != tuple(prefix):
        errors.append("orbit differs from the reference bounce prefix")
    rows = _edge_rows(corners)
    for k, (x, y) in enumerate(points):
        den = x.denominator * y.denominator // gcd(x.denominator, y.denominator)
        xn, yn = x.numerator * (den // x.denominator), y.numerator * (
            den // y.denominator
        )
        sides = [a * xn + b * yn - c * den for a, b, c in rows]
        if min(sides) < 0 or 0 not in sides:
            errors.append(f"point {k} is not on the boundary")
            break
    move_type = first_move_type
    for k in range(len(points) - 1):
        (x0, y0), (x1, y1) = points[k], points[k + 1]
        c, d = moves[move_type - 1]
        if (x1 - x0) * d != (y1 - y0) * c:
            errors.append(f"step {k} is not along move {move_type}")
            break
        move_type = 3 - move_type
    return errors


def _cells_attack(moves, p, q):
    dx, dy = p[0] - q[0], p[1] - q[1]
    return any(dx * d == dy * c for c, d in moves)


def brute_force_count(moves, q, n):
    """Nonattacking placements of q riders by checking every q-subset."""
    cells = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
    return sum(
        1
        for subset in combinations(cells, q)
        if not any(_cells_attack(moves, a, b) for a, b in combinations(subset, 2))
    )


def pair_count(moves, n):
    """q = 2 placements: all pairs minus those on a common move line."""
    total = n * n * (n * n - 1) // 2
    for c, d in moves:
        lines = {}
        for x in range(1, n + 1):
            for y in range(1, n + 1):
                key = x * d - y * c
                lines[key] = lines.get(key, 0) + 1
        total -= sum(k * (k - 1) // 2 for k in lines.values())
    return total
