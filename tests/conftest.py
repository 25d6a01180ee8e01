from fractions import Fraction

import pytest
from hypothesis import strategies as st

from riderflow import Board, Point2, canonical_move


@pytest.fixture
def square():
    return Board.square()


@pytest.fixture
def pentagon():
    corners = [
        ("0", "0"),
        ("1", "0"),
        ("3/2", "1"),
        ("1/2", "2"),
        ("-1/2", "1"),
    ]
    return Board.from_corners(
        [Point2(Fraction(x), Fraction(y)) for x, y in corners]
    )


def _all_canonical_moves(limit=4):
    seen = set()
    for c in range(0, limit + 1):
        for d in range(-limit, limit + 1):
            if c == 0 and d == 0:
                continue
            seen.add(canonical_move(c, d))
    return sorted(seen)


def canonical_move_pairs(limit=4):
    """Unordered pairs of distinct canonical moves with |c|, |d| <= limit."""
    moves = _all_canonical_moves(limit)
    return [(a, b) for i, a in enumerate(moves) for b in moves[i + 1:]]


MOVE_PAIRS = canonical_move_pairs()


def move_pairs():
    return st.sampled_from(MOVE_PAIRS)


def rational_params():
    return st.integers(1, 12).flatmap(
        lambda den: st.integers(0, den).map(lambda num: Fraction(num, den))
    )


def boundary_points(board):
    edges = board.edges
    return st.tuples(
        st.integers(0, len(edges) - 1), rational_params()
    ).map(lambda pick: edges[pick[0]].at_param(pick[1]))


def _strict_hull(points):
    """Corners of the convex hull, counterclockwise, none collinear."""
    pts = sorted(set(points))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-1][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-1][0])
            ) <= 0:
                out.pop()
            out.append(p)
        return out

    if len(pts) < 3:
        return pts
    return chain(pts)[:-1] + chain(reversed(pts))[:-1]


def convex_boards():
    """Strictly convex boards with 3-6 corners of denominator at most 4."""
    corner = st.integers(1, 4).flatmap(
        lambda den: st.tuples(
            st.integers(-2 * den, 2 * den), st.integers(-2 * den, 2 * den)
        ).map(lambda p: (Fraction(p[0], den), Fraction(p[1], den)))
    )
    return (
        st.lists(corner, min_size=3, max_size=8)
        .map(_strict_hull)
        .filter(lambda hull: 3 <= len(hull) <= 6)
        .map(Board.from_corners)
    )
