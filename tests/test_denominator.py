from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from riderflow import (
    Board,
    Point2,
    SlopeConditionViolated,
    arrangement_of,
    attractor_orbit,
    augment,
    canonical_move,
    characterize_vertex,
    closed_form_inclined,
    closed_form_mirror,
    closed_form_orthogonal,
    crossing_points,
    denominator,
    inclined_crossing_point,
    parse_trajectory,
    trace,
    vertex_oracle,
)

F = Fraction
INCLINED = (canonical_move(2, 1), canonical_move(1, 2))
ORTH = (canonical_move(2, 1), canonical_move(1, -2))
BISHOP = (canonical_move(1, 1), canonical_move(1, -1))
LATERAL = (canonical_move(2, 1), canonical_move(2, -1))


# -- crossing points --------------------------------------------------------


def _window_b(square):
    text = "first_move_type 1\nstatus truncated\npoints 4\n" \
        "1,1/4\n1/2,0\n1,1\n0,1/2\n"
    return parse_trajectory(text)


def test_plain_crossing(square):
    ta = trace(square, INCLINED, Point2(0, 0), 1, max_points=2)
    pts = {c.point for c in crossing_points(square, ta, _window_b(square))}
    assert pts == {Point2(F(2, 3), F(1, 3))}


def test_augmented_crossings(square):
    ta = augment(
        square, INCLINED, trace(square, INCLINED, Point2(0, 0), 1, max_points=2)
    )
    tb = augment(square, INCLINED, _window_b(square))
    pts = {c.point for c in crossing_points(square, ta, tb)}
    assert pts == {
        Point2(F(1, 3), F(2, 3)),
        Point2(F(2, 3), F(1, 3)),
        Point2(F(5, 6), F(1, 6)),
    }


def test_self_crossing(square):
    t5 = trace(square, ORTH, Point2(0, 0), 1, max_points=5)
    aug = augment(square, ORTH, t5)
    pts = {c.point for c in crossing_points(square, aug)}
    assert pts == {Point2(F(1, 4), F(1, 8))}


def test_crossings_skip_boundary_touches(square):
    # adjacent segments share an endpoint on the boundary; the interior
    # filter must drop it
    t5 = trace(square, ORTH, Point2(0, 0), 1, max_points=5)
    for c in crossing_points(square, augment(square, ORTH, t5)):
        assert square.interior_contains(c.point)


# -- denominator engine -----------------------------------------------------


def test_denominator_growth_by_dividing(square):
    for moves in (INCLINED, ORTH, BISHOP, LATERAL):
        previous = 1
        for q in range(1, 5):
            value = denominator(square, moves, q).value
            assert value % previous == 0
            previous = value


def test_denominator_contributions_compose(square):
    report = denominator(square, INCLINED, 3)
    assert report.value == lcm(
        *(c.denominator for c in report.contributions)
    )
    categories = {c.category for c in report.contributions}
    assert "corner-trajectory-point" in categories
    assert "cross" in categories


def test_denominator_late_crossing_appears_at_q5(square):
    c2 = Point2(F(5, 6), F(1, 6))
    report4 = denominator(square, INCLINED, 4)
    assert all(c.point != c2 for c in report4.contributions)
    report5 = denominator(square, INCLINED, 5)
    assert any(c.point == c2 for c in report5.contributions)
    assert report4.value == 24 and report5.value == 48


def test_denominator_counts_rigid_cycle_points(square):
    report = denominator(square, ORTH, 4)
    rigid_pts = {
        c.point
        for c in report.contributions
        if c.category == "rigid-cycle-point"
    }
    assert Point2(F(1, 3), 0) in rigid_pts
    assert report.value == 120


def test_denominator_trivial_cases(square):
    assert denominator(square, INCLINED, 0).value == 1
    assert denominator(square, INCLINED, 1).value == 1


def test_denominator_pentagon_matches_oracle(pentagon):
    for moves in (BISHOP, ORTH):
        for q in (1, 2):
            assert denominator(pentagon, moves, q).value \
                == vertex_oracle(pentagon, moves, q)


# -- closed forms -----------------------------------------------------------


def test_closed_form_orthogonal_values():
    assert [closed_form_orthogonal(2, q) for q in range(1, 6)] \
        == [1, 2, 20, 120, 240]
    with pytest.raises(ValueError):
        closed_form_orthogonal(1, 3)


def test_closed_form_mirror_values():
    assert [closed_form_mirror(2, 1, q) for q in range(1, 5)] == [1, 2, 4, 4]
    assert [closed_form_mirror(1, 1, q) for q in range(1, 6)] \
        == [1, 1, 2, 2, 2]
    assert closed_form_mirror(5, 2, 3) == 10
    assert closed_form_mirror(5, 2, 4) == 20
    with pytest.raises(ValueError):
        closed_form_mirror(4, 2, 3)  # not coprime
    with pytest.raises(ValueError):
        closed_form_mirror(0, 1, 2)


def test_closed_form_inclined_values(square):
    assert [closed_form_inclined(INCLINED, q) for q in range(1, 6)] \
        == [1, 2, 12, 24, 48]
    steep = (canonical_move(3, 1), canonical_move(1, 2))
    assert closed_form_inclined(steep, 3) \
        == denominator(Board.square(), steep, 3).value == 30
    with pytest.raises(SlopeConditionViolated):
        closed_form_inclined(ORTH, 3)
    with pytest.raises(SlopeConditionViolated):
        # both slopes on the same side of 1
        closed_form_inclined(
            (canonical_move(3, 1), canonical_move(2, 1)), 3
        )


def test_inclined_crossing_point_lies_on_augmented_windows(square):
    c1 = inclined_crossing_point(INCLINED, 1)
    assert c1 == Point2(F(2, 3), F(1, 3))
    c2 = inclined_crossing_point(INCLINED, 2)
    assert c2 == Point2(F(5, 6), F(1, 6))


def test_attractor_orbit_exact():
    orbit = attractor_orbit(F(1, 5), F(-3))
    assert orbit == (
        Point2(F(2, 7), 0),
        Point2(1, F(1, 7)),
        Point2(F(5, 7), 1),
        Point2(0, F(6, 7)),
    )
    with pytest.raises(ValueError):
        attractor_orbit(F(3, 2), F(-3))  # first slope must sit in (0, 1)
    with pytest.raises(ValueError):
        attractor_orbit(F(1, 5), F(-1, 2))  # second must be below -1


def test_attractor_orbit_is_a_cycle(square):
    orbit = attractor_orbit(F(1, 5), F(-3))
    moves = (canonical_move(5, 1), canonical_move(1, -3))
    t = trace(square, moves, orbit[0], 1, max_points=4)
    assert t.points == orbit


# -- vertex machinery -------------------------------------------------------


def test_vertex_oracle_small(square):
    assert vertex_oracle(square, BISHOP, 0) == 1
    assert vertex_oracle(square, BISHOP, 1) == 1
    assert vertex_oracle(square, BISHOP, 2) == 1
    assert vertex_oracle(square, INCLINED, 2) == 2
    with pytest.raises(ValueError):
        vertex_oracle(square, BISHOP, 3)


def test_characterize_vertex_positive(square):
    pieces = (Point2(0, 0), Point2(1, 0), Point2(F(1, 2), F(1, 2)))
    result = characterize_vertex(square, BISHOP, pieces)
    assert result.vertex
    assert result.rank == 6
    assert len(result.corner_components) == 2
    assert result.cycle_components == ()
    assert len(result.interior_certificates) == 1
    z, seg1, seg2 = result.interior_certificates[0]
    assert z == Point2(F(1, 2), F(1, 2))
    assert {seg1[2], seg2[2]} == {1, 2}


def test_characterize_vertex_negative(square):
    pieces = (Point2(0, 0), Point2(1, 1), Point2(F(1, 2), F(1, 2)))
    result = characterize_vertex(square, BISHOP, pieces)
    assert not result.vertex
    assert result.deficiency == 1
    assert result.corner_components == ()


def test_characterize_vertex_with_rigid_cycle(square):
    pieces = (
        Point2(F(1, 3), 0),
        Point2(1, F(1, 3)),
        Point2(F(2, 3), 1),
        Point2(0, F(2, 3)),
    )
    result = characterize_vertex(square, ORTH, pieces)
    assert result.vertex
    assert len(result.cycle_components) == 1
    assert result.corner_components == ()


def test_orthogonal_odd_m_vertex_with_denominator_40(square):
    # a q = 6 vertex for moves (3, 1), (1, -3): the rigid 4-cycle, the
    # corner (0, 0) and an interior crossing of their augmented segments
    # with denominator 40, which closed_form_orthogonal(3, 6) misses
    moves = (canonical_move(3, 1), canonical_move(1, -3))
    crossing = Point2(F(9, 40), F(3, 40))
    pieces = (
        Point2(F(1, 4), 0),
        Point2(0, F(3, 4)),
        Point2(F(3, 4), 1),
        Point2(1, F(1, 4)),
        Point2(0, 0),
        crossing,
    )
    assert arrangement_of(square, moves, pieces).rank() == 12
    result = characterize_vertex(square, moves, pieces)
    assert result.vertex
    assert len(result.corner_components) == 1
    assert len(result.cycle_components) == 1
    assert [c[0] for c in result.interior_certificates] == [crossing]
    assert denominator(square, moves, 6).value % 40 == 0


@given(st.integers(1, 4), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_window_points_all_divide_denominator(cap, qval):
    # every reported contribution divides the final LCM
    board = Board.square()
    report = denominator(board, ORTH, qval)
    for c in report.contributions:
        assert report.value % c.denominator == 0
