"""Exact rational planar geometry: points, moves, convex polygonal boards.

No floats enter any predicate.  Points have `fractions.Fraction`
coordinates.  Boards are strictly convex polygons with rational corners,
stored counterclockwise with primitive integer inward edge normals, and
also as integer rows that locate a point given in homogeneous integer
coordinates (x, y, w), meaning (x/w, y/w), without any Fraction work.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm


class ZeroDenominator(ZeroDivisionError):
    pass


class ZeroMove(ValueError):
    pass


class NonConvexBoard(ValueError):
    pass


class InternalInvariantError(AssertionError):
    """A condition the library proves impossible happened anyway."""


def parse_rational(text):
    """Parse 'p/q' or 'p' into a Fraction."""
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


def format_point(point):
    """'x,y' in exact form.  CPython's int-to-str digit limit (4,300
    digits) is lifted only while the point formats; it still guards
    the parsing of input."""
    limit = _digit_limit()
    _set_digit_limit(0)
    try:
        return f"{point.x},{point.y}"
    finally:
        _set_digit_limit(limit)


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


def _primitive_int_pair(x, y):
    x, y = Fraction(x), Fraction(y)
    scale = lcm(x.denominator, y.denominator)
    a, b = int(x * scale), int(y * scale)
    g = gcd(a, b)
    return a // g, b // g


@dataclass(frozen=True)
class Edge:
    """Closed board edge from tail to head with inward normal.

    The normal is a primitive integer vector; a point p is on the edge
    line iff normal . p == offset, and strictly inside the board's
    half-plane iff the dot product exceeds offset.
    """

    tail: Point2
    head: Point2
    normal: tuple
    offset: Fraction

    def side_of(self, point):
        """normal . p - offset: 0 on the line, positive on the board side."""
        nx, ny = self.normal
        return nx * point.x + ny * point.y - self.offset

    def at_param(self, t):
        t = Fraction(t)
        return Point2(
            self.tail.x + t * (self.head.x - self.tail.x),
            self.tail.y + t * (self.head.y - self.tail.y),
        )


class LocationKind(enum.Enum):
    INTERIOR = "interior"
    EDGE = "edge"
    CORNER = "corner"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class BoundaryLocation:
    kind: LocationKind
    index: int | None = None


_OUTSIDE = BoundaryLocation(LocationKind.OUTSIDE)
_INTERIOR = BoundaryLocation(LocationKind.INTERIOR)


@dataclass(frozen=True)
class Board:
    """Strictly convex rational polygon, corners counterclockwise.

    edges[i] runs from corners[i] to corners[i + 1 (mod n)], so edges
    i - 1 and i meet at corner i.  rows[i] = (a, b, c) is edge i's line
    scaled by the board denominator L (the lcm of the edge offsets'
    denominators): a point (x/w, y/w) with w > 0 has the integer height
    a·x + b·y - c·w = L·w·edges[i].side_of(point), which has the sign
    of side_of.
    """

    corners: tuple
    edges: tuple
    rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        scale = lcm(*(e.offset.denominator for e in self.edges))
        rows = tuple(
            (e.normal[0] * scale, e.normal[1] * scale, int(e.offset * scale))
            for e in self.edges
        )
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_corners(cls, corners):
        corners = tuple(
            p if isinstance(p, Point2) else Point2(*p) for p in corners
        )
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
        edges = []
        for i in range(n):
            tail, head = corners[i], corners[(i + 1) % n]
            ex, ey = head.x - tail.x, head.y - tail.y
            normal = _primitive_int_pair(-ey, ex)  # inward for CCW winding
            offset = normal[0] * tail.x + normal[1] * tail.y
            edges.append(Edge(tail, head, normal, offset))
        return cls(corners, tuple(edges))

    @classmethod
    def square(cls):
        return cls.from_corners([(0, 0), (1, 0), (1, 1), (0, 1)])

    def contains(self, point):
        return all(e.side_of(point) >= 0 for e in self.edges)

    def interior_contains(self, point):
        return all(e.side_of(point) > 0 for e in self.edges)

    def classify(self, point):
        """Locate a point: interior, on edge i, at corner i, or outside."""
        return self._locate(*_homogeneous(point))[0]

    def _locate(self, x, y, w):
        """classify for the point (x/w, y/w), w > 0, plus its heights.

        Returns (location, heights) with heights[i] the integer height
        of the point over rows[i], computed in one pass.
        """
        heights = [a * x + b * y - c * w for a, b, c in self.rows]
        zero = []
        for i, h in enumerate(heights):
            if h < 0:
                return _OUTSIDE, heights
            if h == 0:
                zero.append(i)
        if not zero:
            return _INTERIOR, heights
        if len(zero) == 1:
            return BoundaryLocation(LocationKind.EDGE, zero[0]), heights
        if len(zero) == 2:
            i, j = zero
            # adjacent edge lines meet at the shared corner
            if j == i + 1:
                return BoundaryLocation(LocationKind.CORNER, j), heights
            if i == 0 and j == len(heights) - 1:
                return BoundaryLocation(LocationKind.CORNER, 0), heights
        raise InternalInvariantError(
            f"point {_from_homogeneous(x, y, w)} lies on {len(zero)} edge "
            "lines of a strictly convex board"
        )
