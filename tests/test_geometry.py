import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, strategies as st

from riderflow import (
    Board,
    LocationKind,
    Move,
    NonConvexBoard,
    Point2,
    ZeroDenominator,
    ZeroMove,
    canonical_move,
    cross,
    format_point,
    parse_point,
    parse_rational,
    point_denominator,
)

from riderflow.geometry import Edge, _point_on_row, line_through

from conftest import boundary_points, convex_boards


rationals = st.builds(
    Fraction, st.integers(-40, 40), st.integers(1, 24)
)


@given(rationals)
def test_rational_text_round_trip(value):
    assert parse_rational(str(value)) == value


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == -2
    assert parse_rational(" 5/10 ") == Fraction(1, 2)
    with pytest.raises(ZeroDenominator):
        parse_rational("1/0")


def test_parse_rational_refuses_an_exponent_beyond_the_digit_limit():
    for text in ("1e4301", "1e-4301"):
        with pytest.raises(ValueError, match="4301"):
            parse_rational(text)
    assert parse_rational("2.5e-3") == Fraction(1, 400)
    assert parse_rational("0.61") == Fraction(61, 100)
    assert parse_rational("1/5") == Fraction(1, 5)


@given(rationals, rationals)
def test_point_text_round_trip(x, y):
    p = Point2(x, y)
    assert parse_point(format_point(p)) == p


def test_parse_point_needs_two_coordinates():
    with pytest.raises(ValueError, match="expected 'x,y'"):
        parse_point("1")


@pytest.mark.parametrize("c, d, error, message", [
    (0, 0, ZeroMove, r"\(0, 0\)"),
    (2, 4, ValueError, "not primitive"),
    (-1, 2, ValueError, "non-canonical sign"),
])
def test_move_refuses_a_noncanonical_vector(c, d, error, message):
    with pytest.raises(error, match=message):
        Move(c, d)


def test_point_denominator():
    assert point_denominator(Point2(0, 0)) == 1
    assert point_denominator(Point2(Fraction(5, 6), Fraction(1, 4))) == 12


def test_point_ordering_lexicographic():
    assert Point2(0, 1) < Point2(Fraction(1, 2), 0) < Point2(1, 0)


def test_canonical_move_normalizes():
    assert canonical_move(2, 4) == Move(1, 2)
    assert canonical_move(-2, -4) == Move(1, 2)
    assert canonical_move(3, -6) == Move(1, -2)
    assert canonical_move(0, -3) == Move(0, 1)
    assert canonical_move(-5, 0) == Move(1, 0)
    with pytest.raises(ZeroMove):
        canonical_move(0, 0)


def test_move_slope():
    assert canonical_move(2, 1).slope() == Fraction(1, 2)
    with pytest.raises(ZeroDenominator):
        canonical_move(0, 1).slope()


def test_cross_sign():
    assert cross(1, 0, 0, 1) == 1
    assert cross(0, 1, 1, 0) == -1
    assert cross(2, 4, 1, 2) == 0


def test_square_board_shape(square):
    assert len(square.corners) == 4
    assert square.contains(Point2(Fraction(1, 2), Fraction(1, 2)))
    assert not square.contains(Point2(2, 0))
    assert square.interior_contains(Point2(Fraction(1, 3), Fraction(2, 3)))
    assert not square.interior_contains(Point2(0, 0))


def test_the_square_is_built_once():
    square = Board.square()
    assert Board.square() is square
    assert square == Board.from_corners([(0, 0), (1, 0), (1, 1), (0, 1)])


def test_classify_square(square):
    assert square.classify(Point2(0, 0)).kind is LocationKind.CORNER
    assert square.classify(Point2(0, 0)).index == 0
    assert square.classify(Point2(1, 1)).index == 2
    half = square.classify(Point2(Fraction(1, 2), 0))
    assert half.kind is LocationKind.EDGE and half.index == 0
    assert square.classify(Point2(Fraction(1, 2), Fraction(1, 2))).kind \
        is LocationKind.INTERIOR
    assert square.classify(Point2(-1, 0)).kind is LocationKind.OUTSIDE


def test_contains_accepts_an_xy_pair(square):
    assert square.contains((Fraction(1, 2), 1))
    assert not square.contains((2, 0))


def test_classify_accepts_an_xy_pair(square):
    assert square.classify((0, 0)) == square.classify(Point2(0, 0))
    assert square.classify((Fraction(1, 2), 0)).kind is LocationKind.EDGE


def test_interior_contains_accepts_an_xy_pair(square):
    assert square.interior_contains((Fraction(1, 3), Fraction(2, 3)))
    assert not square.interior_contains((0, Fraction(1, 2)))


def test_classify_pentagon_corners(pentagon):
    for i, corner in enumerate(pentagon.corners):
        loc = pentagon.classify(corner)
        assert loc.kind is LocationKind.CORNER
        assert loc.index == i


def test_from_corners_rejects_bad_polygons():
    with pytest.raises(NonConvexBoard):
        Board.from_corners([(0, 0), (1, 0)])
    with pytest.raises(NonConvexBoard):
        Board.from_corners([(0, 0), (1, 0), (2, 0), (0, 1)])  # collinear
    with pytest.raises(NonConvexBoard):
        Board.from_corners([(0, 0), (0, 1), (1, 1), (1, 0)])  # clockwise
    with pytest.raises(NonConvexBoard):
        Board.from_corners(
            [(0, 0), (2, 0), (1, Fraction(1, 4)), (1, 2)]  # reflex
        )


def test_inward_normals(square):
    mid = Point2(Fraction(1, 2), Fraction(1, 2))
    for edge in square.rows:
        assert edge.side_of(mid) > 0


@given(st.data())
def test_boundary_points_classify_on_boundary(data):
    board = Board.from_corners(
        [(0, 0), (1, 0), (Fraction(3, 2), 1), (Fraction(1, 2), 2),
         (Fraction(-1, 2), 1)]
    )
    p = data.draw(boundary_points(board))
    kind = board.classify(p).kind
    assert kind in (LocationKind.EDGE, LocationKind.CORNER)
    assert board.contains(p)
    assert not board.interior_contains(p)


@given(rationals, rationals)
def test_classify_matches_halfplane_oracle(x, y):
    board = Board.square()
    p = Point2(x, y)
    sides = [e.side_of(p) for e in board.rows]
    kind = board.classify(p).kind
    if any(s < 0 for s in sides):
        assert kind is LocationKind.OUTSIDE
    elif all(s > 0 for s in sides):
        assert kind is LocationKind.INTERIOR
    else:
        assert kind in (LocationKind.EDGE, LocationKind.CORNER)


@given(convex_boards())
def test_board_edges_are_primitive_integer_rows(board):
    n = len(board.corners)
    for i, edge in enumerate(board.rows):
        assert type(edge) is Edge
        assert all(type(v) is int for v in edge) and gcd(*edge) == 1
        ends = {i, (i + 1) % n}
        for k, corner in enumerate(board.corners):
            if k in ends:
                assert edge.side_of(corner) == 0
            else:
                assert edge.side_of(corner) > 0


@given(rationals, rationals, rationals, rationals)
def test_line_through_is_a_primitive_row_through_both_points(x1, y1, x2, y2):
    p, q = Point2(x1, y1), Point2(x2, y2)
    assume(p != q)
    a, b, c = line_through(p, q)
    assert all(type(v) is int for v in (a, b, c)) and gcd(a, b, c) == 1
    assert a * p.x + b * p.y == c and a * q.x + b * q.y == c
    # positive on the left of q - p
    left = Point2(p.x - (q.y - p.y), p.y + (q.x - p.x))
    assert a * left.x + b * left.y > c


def test_fraction_keeps_the_slots_the_point_builder_sets():
    # _point_on_row builds each Fraction by setting these two slots
    assert Fraction.__slots__ == ("_numerator", "_denominator")


@st.composite
def triples_on_rows(draw):
    """A reduced triple (x, y, w), w > 0, of up to about 2,000 bits, and
    a row (a, b, c) through it, a·x + b·y = c·w; a or b is 0 in a third
    of the draws each."""
    a, b, c = (draw(st.integers(-30, 30)) for _ in range(3))
    zero = draw(st.sampled_from("ab-"))
    a = 0 if zero == "a" else a
    b = 0 if zero == "b" else b
    assume((a, b) != (0, 0))
    big = st.integers(-(1 << 2000), 1 << 2000)
    s, t, u = draw(big), draw(big), draw(big)
    # integer combinations of three solutions of a·x + b·y - c·w = 0
    x, y, w = s * b + t * c, u * c - s * a, t * a + u * b
    assume(w != 0)
    g = gcd(x, y, w) if w > 0 else -gcd(x, y, w)
    return (x // g, y // g, w // g), (a, b, c)


@given(triples_on_rows())
def test_point_on_row_matches_the_fraction_constructor(case):
    (x, y, w), row = case
    point = _point_on_row((x, y, w), row)
    for got, want in ((point.x, Fraction(x, w)), (point.y, Fraction(y, w))):
        assert type(got) is Fraction
        assert got == want
        assert got.numerator == want.numerator
        assert got.denominator == want.denominator
        assert hash(got) == hash(want)
        again = pickle.loads(pickle.dumps(got))
        assert type(again) is Fraction and again == want
        assert again.numerator == want.numerator
