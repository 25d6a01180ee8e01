"""Exact rational planar geometry: points, moves, convex polygonal boards.

No floats enter any predicate.  Points have `fractions.Fraction`
coordinates.  Every line, a board edge or a trajectory chord, is one
primitive integer row (a, b, c) with a·x + b·y = c on the line, built by
`line_through`.  Boards are strictly convex polygons with rational
corners, stored counterclockwise with one row per edge, positive on the
board side; the rows locate a point given in homogeneous integer
coordinates (x, y, w), meaning (x/w, y/w), without any Fraction work.
"""

from __future__ import annotations

import enum
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from typing import NamedTuple


class ZeroDenominator(ZeroDivisionError):
    pass


class ZeroMove(ValueError):
    pass


class NonConvexBoard(ValueError):
    pass


class InternalInvariantError(AssertionError):
    """A condition the library proves impossible happened anyway."""


# CPython's bound on the digits of integer text: Fraction expands a
# decimal exponent into that many digits before any check.
MAX_EXPONENT = 4_300


def parse_rational(text):
    """Parse 'p/q', 'p' or a decimal such as '2.5e-3' into a Fraction."""
    exponent = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*$", text)
    if exponent and abs(int(exponent[1])) > MAX_EXPONENT:
        raise ValueError(
            f"exponent {exponent[1]} in {text.strip()!r} is beyond "
            f"{MAX_EXPONENT} in magnitude"
        )
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ZeroDenominator(text) from None


@dataclass(frozen=True, order=True)
class Point2:
    """Exact point in the plane; ordering is lexicographic (x, then y)."""

    x: Fraction
    y: Fraction

    def __post_init__(self):
        if type(self.x) is not Fraction:
            object.__setattr__(self, "x", Fraction(self.x))
        if type(self.y) is not Fraction:
            object.__setattr__(self, "y", Fraction(self.y))

    def __str__(self):
        return f"({self.x}, {self.y})"


def _as_point(point):
    """A Point2 as is, or the Point2 of an (x, y) pair."""
    return point if isinstance(point, Point2) else Point2(*point)


def point_denominator(point):
    """LCM of the coordinate denominators (1 for lattice points)."""
    return lcm(point.x.denominator, point.y.denominator)


def parse_point(text):
    """Parse 'x,y' with rational coordinates."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'x,y', got {text!r}")
    return Point2(parse_rational(parts[0]), parse_rational(parts[1]))


# CPython before 3.10.7 has no int-to-str digit limit and no setter.
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_digit_limit = getattr(sys, "set_int_max_str_digits", lambda digits: 0)


@contextmanager
def _unlimited_digits():
    """Lift CPython's int-to-str digit limit (4,300 digits) while output
    formats; it still guards the parsing of input."""
    limit = _digit_limit()
    _set_digit_limit(0)
    try:
        yield
    finally:
        _set_digit_limit(limit)


def format_point(point):
    """'x,y' in exact form, however many digits."""
    with _unlimited_digits():
        return f"{point.x},{point.y}"


def _homogeneous(point):
    """(x, y, w) with point = (x/w, y/w), w > 0 and gcd(x, y, w) = 1.

    w is the point's denominator, so equal points give equal triples.
    """
    px, py = point.x, point.y
    w = lcm(px.denominator, py.denominator)
    return (
        px.numerator * (w // px.denominator),
        py.numerator * (w // py.denominator),
        w,
    )


def _from_homogeneous(x, y, w):
    """The Point2 (x/w, y/w) of a homogeneous triple."""
    return Point2(Fraction(x, w), Fraction(y, w))


def _coprime_fraction(numerator, denominator):
    """Fraction(numerator, denominator) for coprime integers with a
    positive denominator, built without a gcd: the slots set as
    CPython 3.12's Fraction._from_coprime_ints sets them."""
    out = object.__new__(Fraction)
    out._numerator = numerator
    out._denominator = denominator
    return out


def _point_on_row(triple, row):
    """The Point2 (x/w, y/w) of a reduced triple (x, y, w) with w > 0
    that lies on the row (a, b, c): a·x + b·y = c·w, (a, b) != (0, 0).

    A prime power dividing x and w divides b·y, and the prime does not
    divide y, so gcd(x, w) divides b; likewise gcd(y, w) divides a.
    Each gcd therefore starts from the small row entry.  With b = 0,
    x/w is c/a; with a = 0, y/w is c/b.
    """
    x, y, w = triple
    a, b, c = row
    if b:
        g = gcd(b, x, w)
        px = _coprime_fraction(x // g, w // g)
    else:
        px = Fraction(c, a)
    if a:
        g = gcd(a, y, w)
        py = _coprime_fraction(y // g, w // g)
    else:
        py = Fraction(c, b)
    return Point2(px, py)


def cross(ax, ay, bx, by):
    return ax * by - ay * bx


@dataclass(frozen=True, order=True)
class Move:
    """A rider move vector (c, d) in canonical form.

    Canonical means gcd(|c|, |d|) = 1 and either c > 0, or c = 0 and
    d > 0.  The rider slides along the full line spanned by (c, d), so a
    move and its negation are the same move; the canonical sign picks the
    representative.
    """

    c: int
    d: int

    def __post_init__(self):
        if self.c == 0 and self.d == 0:
            raise ZeroMove("move (0, 0)")
        if gcd(self.c, self.d) != 1:
            raise ValueError(f"move ({self.c}, {self.d}) is not primitive")
        if self.c < 0 or (self.c == 0 and self.d < 0):
            raise ValueError(
                f"move ({self.c}, {self.d}) has non-canonical sign"
            )

    def slope(self):
        if self.c == 0:
            raise ZeroDenominator("vertical move has no finite slope")
        return Fraction(self.d, self.c)

    def __str__(self):
        return f"({self.c}, {self.d})"


def canonical_move(c, d):
    """Reduce (c, d) to the canonical move on the same line."""
    if c == 0 and d == 0:
        raise ZeroMove("move (0, 0)")
    g = gcd(c, d)
    c, d = c // g, d // g
    if c < 0 or (c == 0 and d < 0):
        c, d = -c, -d
    return Move(c, d)


def line_through(p, q):
    """The primitive integer row (a, b, c) of the line through p != q:
    a·x + b·y = c on the line, and a·x + b·y > c left of q - p."""
    px, py, pw = _homogeneous(p)
    qx, qy, qw = _homogeneous(q)
    a, b, c = py * qw - qy * pw, qx * pw - px * qw, py * qx - px * qy
    g = gcd(a, b, c)
    return a // g, b // g, c // g


class Edge(NamedTuple):
    """A board edge's row: a·x + b·y = c on its line, and a·x + b·y > c
    on the board's side."""

    a: int
    b: int
    c: int

    def side_of(self, point):
        """a·x + b·y - c: 0 on the line, positive on the board side."""
        return self.a * point.x + self.b * point.y - self.c


class LocationKind(enum.Enum):
    INTERIOR = "interior"
    EDGE = "edge"
    CORNER = "corner"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class BoundaryLocation:
    kind: LocationKind
    index: int | None = None


@dataclass(frozen=True)
class Board:
    """Strictly convex rational polygon, corners counterclockwise.

    rows[i] is the `Edge` of the edge from corners[i] to corners[i + 1
    (mod n)], so rows i - 1 and i meet at corner i.  A point (x/w, y/w)
    with w > 0 has the integer height a·x + b·y - c·w over rows[i],
    w·rows[i].side_of(point).
    """

    corners: tuple
    rows: tuple

    @classmethod
    def from_corners(cls, corners):
        corners = tuple(map(_as_point, corners))
        n = len(corners)
        if n < 3:
            raise NonConvexBoard("need at least three corners")
        for i in range(n):
            a, b, c = corners[i], corners[(i + 1) % n], corners[(i + 2) % n]
            turn = cross(b.x - a.x, b.y - a.y, c.x - b.x, c.y - b.y)
            if turn <= 0:
                raise NonConvexBoard(
                    "corners must be distinct, strictly convex, and wind "
                    "counterclockwise"
                )
        rows = tuple(  # inward for CCW winding
            Edge(*line_through(corners[i], corners[(i + 1) % n]))
            for i in range(n)
        )
        return cls(corners, rows)

    @classmethod
    @cache  # one per process: a Board is immutable
    def square(cls):
        return cls.from_corners([(0, 0), (1, 0), (1, 1), (0, 1)])

    def contains(self, point):
        return self._locate(*_homogeneous(_as_point(point))) is not None

    def interior_contains(self, point):
        point = _as_point(point)
        return all(row.side_of(point) > 0 for row in self.rows)

    def classify(self, point):
        """Locate a point (a Point2 or an (x, y) pair): interior, on
        edge i, at corner i, or outside."""
        edges = self._locate(*_homogeneous(_as_point(point)))
        if not edges:
            return BoundaryLocation(LocationKind.OUTSIDE if edges is None
                                    else LocationKind.INTERIOR)
        kind = LocationKind.EDGE if len(edges) == 1 else LocationKind.CORNER
        return BoundaryLocation(kind, edges[-1])

    def _locate(self, x, y, w):
        """The edge rows of the point (x/w, y/w), w > 0: None outside,
        [] inside, else as `_boundary_edges` gives them."""
        heights = [a * x + b * y - c * w for a, b, c in self.rows]
        if min(heights) < 0:
            return None
        zero = [i for i, h in enumerate(heights) if h == 0]
        return _boundary_edges(zero, len(heights), (x, y, w))


def _boundary_edges(zero, n, triple):
    """The edge rows of the point triple on a board of n rows, from the
    ascending indices `zero` of the rows it lies on: [] on none, [i] on
    edge i, [i - 1, i] at corner i > 0 and [n - 1, 0] at corner 0."""
    # none, an edge, or two adjacent edge lines meeting at their corner
    if len(zero) < 2 or len(zero) == 2 and zero[1] == zero[0] + 1:
        return zero
    if zero == [0, n - 1]:
        return [n - 1, 0]
    raise InternalInvariantError(
        f"point {_from_homogeneous(*triple)} lies on {len(zero)} edge "
        "lines of a strictly convex board"
    )
