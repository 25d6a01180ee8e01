import hashlib
import inspect
import os
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import riderflow
from riderflow import (
    Board,
    Point2,
    SlopeConditionViolated,
    Trajectory,
    TrajectoryStatus,
    antipode,
    arrangement_of,
    attractor_orbit,
    augment,
    canonical_move,
    characterize_vertex,
    classify_cycle,
    closed_form_inclined,
    closed_form_mirror,
    closed_form_orthogonal,
    conjecture_report,
    corner_trajectories,
    count,
    count_series,
    crossing_points,
    denominator,
    enumerate_rigid_cycles,
    fit,
    inclined_crossing_point,
    matrix_rank,
    partition_into_trajectories,
    point_denominator,
    simulate_float,
    trace,
    vertex_oracle,
)
from riderflow.geometry import Edge, format_point

import oracles
from conftest import (
    boundary_points,
    canonical_move_pairs,
    convex_boards,
    move_pairs,
)

F = Fraction
INCLINED = (canonical_move(2, 1), canonical_move(1, 2))
ORTH = (canonical_move(2, 1), canonical_move(1, -2))
BISHOP = (canonical_move(1, 1), canonical_move(1, -1))
LATERAL = (canonical_move(2, 1), canonical_move(2, -1))
PARALLEL = (INCLINED[0], INCLINED[0])


# -- crossing points --------------------------------------------------------


def _window_b(square):
    points = (Point2(1, F(1, 4)), Point2(F(1, 2), 0), Point2(1, 1),
              Point2(0, F(1, 2)))
    return Trajectory(points, 1, TrajectoryStatus.TRUNCATED)


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


def test_denominator_rejects_a_negative_q(square):
    with pytest.raises(ValueError, match="q must be nonnegative"):
        denominator(square, INCLINED, -1)


def _rule(function, parameter, call, error, message, case):
    return pytest.param(function, parameter, call, error, message,
                        id=f"{function}-{parameter}-{case}")


# Refusals by the argument rules of the public API, at least one row
# per public (function, parameter) they cover: a size or index is an
# int (not a bool) at or above its bound, a move type is the int 1 or
# 2, and a move pair is two nonparallel moves.
ARGUMENT_RULES = [
    _rule("denominator", "q", lambda b: denominator(b, INCLINED, 2.5),
          TypeError, "q must be an int", "2.5"),
    _rule("denominator", "q", lambda b: denominator(b, INCLINED, F(3)),
          TypeError, "q must be an int", "Fraction"),
    _rule("vertex_oracle", "q", lambda b: vertex_oracle(b, INCLINED, 2.0),
          TypeError, "q must be an int", "2.0"),
    _rule("vertex_oracle", "q", lambda b: vertex_oracle(b, INCLINED, -1),
          ValueError, "q must be nonnegative, got -1", "-1"),
    _rule("vertex_oracle", "moves",
          lambda b: vertex_oracle(b, PARALLEL, 2),
          ValueError, "need two nonparallel moves", "parallel"),
    _rule("enumerate_rigid_cycles", "max_length",
          lambda b: enumerate_rigid_cycles(b, ORTH, 5.5),
          TypeError, "max_length must be an int", "5.5"),
    _rule("trace", "max_points",
          lambda b: trace(b, INCLINED, (0, 0), 1, max_points=2.5),
          TypeError, "max_points must be an int", "2.5"),
    _rule("trace", "first_move_type",
          lambda b: trace(b, INCLINED, (0, F(1, 3)), True, 3),
          ValueError, "move type must be 1 or 2, got True", "True"),
    _rule("trace", "first_move_type",
          lambda b: trace(b, INCLINED, (0, F(1, 3)), 1.0, 3),
          ValueError, "move type must be 1 or 2, got 1.0", "1.0"),
    # refused at the call, before anything is traced
    _rule("corner_trajectories", "max_points",
          lambda b: corner_trajectories(b, INCLINED, 2.5),
          TypeError, "max_points must be an int", "2.5"),
    _rule("count", "q", lambda b: count(INCLINED, 2.0, 3),
          TypeError, "q must be an int", "2.0"),
    _rule("count", "n", lambda b: count(INCLINED, 2, 3.5),
          TypeError, "n must be an int", "3.5"),
    _rule("count", "n", lambda b: count(INCLINED, 2, True),
          TypeError, "n must be an int", "True"),
    _rule("count_series", "q", lambda b: count_series(INCLINED, 2.5, 3),
          TypeError, "q must be an int", "2.5"),
    _rule("count_series", "n_max", lambda b: count_series(INCLINED, 2, 2.5),
          TypeError, "n_max must be an int", "2.5"),
    _rule("conjecture_report", "q",
          lambda b: conjecture_report(INCLINED, 2.5, 8),
          TypeError, "q must be an int", "2.5"),
    _rule("conjecture_report", "n_max",
          lambda b: conjecture_report(INCLINED, 1, 8.0),
          TypeError, "n_max must be an int", "8.0"),
    _rule("fit", "period", lambda b: fit(count_series(INCLINED, 1, 6), True),
          TypeError, "period must be an int", "True"),
    _rule("closed_form_inclined", "q",
          lambda b: closed_form_inclined(INCLINED, 3.5),
          TypeError, "q must be an int", "3.5"),
    _rule("closed_form_mirror", "q", lambda b: closed_form_mirror(2, 1, 2.5),
          TypeError, "q must be an int", "2.5"),
    _rule("closed_form_orthogonal", "q",
          lambda b: closed_form_orthogonal(2, 4.5),
          TypeError, "q must be an int", "4.5"),
    _rule("closed_form_orthogonal", "m",
          lambda b: closed_form_orthogonal(4.5, 3),
          TypeError, "m must be an int", "4.5"),
    _rule("inclined_crossing_point", "index",
          lambda b: inclined_crossing_point(INCLINED, 1.5),
          TypeError, "index must be an int", "1.5"),
    _rule("simulate_float", "steps",
          lambda b: simulate_float(b, (0.5, 2.0), (0.0, 0.0), steps=True),
          TypeError, "steps must be an int", "True"),
    _rule("simulate_float", "first_move_type",
          lambda b: simulate_float(b, (0.5, 2.0), (0.0, 0.0), True),
          ValueError, "move type must be 1 or 2, got True", "True"),
    _rule("simulate_float", "first_move_type",
          lambda b: simulate_float(b, (0.5, 2.0), (0.0, 0.0), 1.0),
          ValueError, "move type must be 1 or 2, got 1.0", "1.0"),
    # a parallel pair or a lone move, refused before any walk or count
    *(_rule(function, "moves", call, ValueError,
            "need two nonparallel moves", case)
      for function, case, call in [
          ("trace", "parallel",
           lambda b: trace(b, PARALLEL, (0, F(1, 3)), 1, 5)),
          ("trace", "one", lambda b: trace(b, ORTH[:1], (0, F(1, 3)), 1)),
          ("corner_trajectories", "parallel",
           lambda b: corner_trajectories(b, PARALLEL)),
          ("partition_into_trajectories", "parallel",
           lambda b: partition_into_trajectories(b, PARALLEL,
                                                 [(0, F(1, 3))])),
          ("augment", "parallel",
           lambda b: augment(b, PARALLEL, _window_b(b))),
          ("enumerate_rigid_cycles", "parallel",
           lambda b: enumerate_rigid_cycles(b, PARALLEL, 4)),
          ("classify_cycle", "parallel", lambda b: classify_cycle(
              b, PARALLEL, enumerate_rigid_cycles(b, ORTH, 4)[0])),
          ("arrangement_of", "parallel",
           lambda b: arrangement_of(b, PARALLEL, [(0, 0)])),
          ("characterize_vertex", "parallel",
           lambda b: characterize_vertex(b, PARALLEL, [(0, 0)])),
          ("denominator", "parallel", lambda b: denominator(b, PARALLEL, 2)),
          ("closed_form_inclined", "parallel",
           lambda b: closed_form_inclined(PARALLEL, 2)),
          ("inclined_crossing_point", "parallel",
           lambda b: inclined_crossing_point(PARALLEL, 1)),
          ("count", "one", lambda b: count(INCLINED[:1], 2, 3)),
          ("count_series", "parallel",
           lambda b: count_series(PARALLEL, 2, 3)),
          ("conjecture_report", "parallel",
           lambda b: conjecture_report(PARALLEL, 2, 8)),
      ]),
]


@pytest.mark.parametrize("function, parameter, call, error, message",
                         ARGUMENT_RULES)
def test_sizes_must_be_ints(square, function, parameter, call, error,
                            message):
    # a float size must not run: denominator(.., 2.5) would search part
    # way between q = 2 and q = 3 and report a value between theirs
    with pytest.raises(error, match=f"^{message}"):
        call(square)


RULED_PARAMETERS = {"q", "n", "n_max", "m", "index", "period", "steps",
                    "max_points", "max_length", "first_move_type", "moves"}


def test_every_ruled_parameter_has_a_rule_row():
    # a new public entry point with a size or move-type parameter must
    # join ARGUMENT_RULES, and so must show that it applies the rule
    public = set()
    for name in riderflow.__all__:
        function = getattr(riderflow, name)
        if inspect.isfunction(function):
            parameters = inspect.signature(function).parameters
            public.update((name, parameter) for parameter in parameters
                          if parameter in RULED_PARAMETERS)
    rows = {(row.values[0], row.values[1]) for row in ARGUMENT_RULES}
    assert {row for row in rows if row[1] in RULED_PARAMETERS} == public


def test_only_interior_crossings_build_a_point(square, monkeypatch):
    # integer heights decide every crossing, so Edge.side_of runs only
    # to check an interior one, once per board row
    calls = []
    side_of = Edge.side_of

    def counted(edge, point):
        calls.append(point)
        return side_of(edge, point)

    monkeypatch.setattr(Edge, "side_of", counted)
    report = denominator(square, INCLINED, 10)
    crossings = {c.point for c in report.contributions
                 if c.category in ("cross", "self-cross")}
    assert len(crossings) == 8 and set(calls) == crossings
    assert len(calls) == len(square.rows) * len(crossings) == 32
    calls.clear()
    denominator(square, ORTH, 3)  # the call perfbench's tracing test pins
    assert len(calls) == 16


@given(convex_boards(), move_pairs(), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_report_is_in_point_order_with_point_denominators(board, moves, q):
    report = denominator(board, moves, q)
    keys = [(c.category, c.point.x, c.point.y) for c in report.contributions]
    assert keys == sorted(set(keys))
    assert all(c.denominator == point_denominator(c.point)
               for c in report.contributions)
    assert report.value == lcm(*(c.denominator for c in report.contributions))


def test_denominator_rejects_parallel_moves(square):
    with pytest.raises(ValueError):
        denominator(square, (canonical_move(2, 1), canonical_move(2, 1)), 3)


# its corner (2, -2) starts a 4-cycle for moves (1, -2), (3, -1)
HEXAGON = [(-2, 1), (1, -2), (2, -2), (2, 0), (1, 1), (-1, 2)]

# boards with a corner whose trace closes a cycle (the corner-anchored
# flow), the denominators for q = 1..6 and the corner
ANCHORED_CYCLES = [
    (
        HEXAGON,
        (canonical_move(1, -2), canonical_move(3, -1)),
        Point2(2, -2),
        [1, 12, 60, 60, 180, 360],
    ),
    # a 6-cycle from (2, -1/2)
    (
        [(-1, 2), (1, -2), (2, -2), (2, F(-1, 2)), (1, 2)],
        BISHOP,
        Point2(2, F(-1, 2)),
        [2, 6, 84, 84, 84, 84],
    ),
]


@pytest.mark.parametrize("corners, moves, corner, values", ANCHORED_CYCLES)
def test_corner_cycle_flow(corners, moves, corner, values):
    board = Board.from_corners(corners)
    assert trace(board, moves, corner, 1).status is TrajectoryStatus.CYCLIC
    assert [denominator(board, moves, q).value for q in range(1, 7)] \
        == values
    assert [vertex_oracle(board, moves, q) for q in (1, 2)] == values[:2]


def test_denominator_pentagon_matches_oracle(pentagon):
    for moves in (BISHOP, ORTH):
        for q in (1, 2):
            assert denominator(pentagon, moves, q).value \
                == vertex_oracle(pentagon, moves, q)


@given(convex_boards(), move_pairs())
@settings(max_examples=60, deadline=None)
def test_denominator_matches_the_vertex_oracle(board, pair):
    # boards whose edge rows carry a scale above 1 build the oracle's
    # fixation rows from scaled lines
    vertical = canonical_move(0, 1)
    partner = pair[1] if pair[0] == vertical else pair[0]
    for moves in (pair, (vertical, partner)):
        for q in (1, 2):
            assert denominator(board, moves, q).value \
                == vertex_oracle(board, moves, q)


@given(convex_boards(), move_pairs())
@settings(max_examples=30, deadline=None)
def test_vertex_oracle_matches_the_subset_reference(board, moves):
    for q in (1, 2):
        assert vertex_oracle(board, moves, q) \
            == oracles.subset_vertex_oracle(board, moves, q)


@pytest.mark.parametrize("moves", [BISHOP, ORTH, INCLINED])
@pytest.mark.parametrize("q", [1, 2])
def test_every_subset_vertex_decomposes(square, pentagon, moves, q):
    # the paper's characterization, run on each vertex the reference
    # finds; q = 3 takes seconds per case and stays out of this suite
    for board in (square, pentagon):
        for pieces in oracles.subset_vertices(board, moves, q):
            assert characterize_vertex(board, moves, pieces).vertex, pieces


@pytest.mark.parametrize("moves", canonical_move_pairs(2))
def test_denominator_matches_the_vertex_oracle_at_q3_on_the_square(moves):
    assert denominator(Board.square(), moves, 3).value \
        == vertex_oracle(Board.square(), moves, 3)


@pytest.mark.parametrize("moves, value", [(INCLINED, 60), (ORTH, 180)])
def test_denominator_matches_the_vertex_oracle_at_q3_on_the_pentagon(
    pentagon, moves, value
):
    assert denominator(pentagon, moves, 3).value == value
    assert vertex_oracle(pentagon, moves, 3) == value


# GL2(Z) generators as rows ((a, b), (c, d)): (x, y) -> (ax + by, cx + dy)
QUARTER_TURN = ((0, -1), (1, 0))
SHEAR = ((1, 1), (0, 1))
MIRROR = ((1, 0), (0, -1))


def _times(g, h):
    return tuple(tuple(sum(g[i][k] * h[k][j] for k in (0, 1))
                       for j in (0, 1)) for i in (0, 1))


def unimodular_maps():
    """Products of up to four generators: integer maps of determinant
    ±1, which take lattice points to lattice points and back."""
    return st.lists(st.sampled_from([QUARTER_TURN, SHEAR, MIRROR]),
                    max_size=4).map(
        lambda factors: reduce(_times, factors, ((1, 0), (0, 1))))


def _cycle_links(cycle, image=lambda p: p):
    return frozenset((frozenset(map(image, s[:2])), s[2])
                     for s in cycle.segments())


SHIFTS = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


def _lattice_map(board, moves, g, shift):
    """The map z -> g·z + shift on points, with the board and the moves
    it maps to."""
    (a, b), (c, d) = g

    def image(p):
        return Point2(a * p.x + b * p.y + shift[0],
                      c * p.x + d * p.y + shift[1])

    corners = [image(p) for p in board.corners]
    # a map of determinant -1 turns the corners clockwise
    mapped = Board.from_corners(corners[::a * d - b * c])
    mapped_moves = tuple(canonical_move(a * m.c + b * m.d, c * m.c + d * m.d)
                         for m in moves)
    return image, mapped, mapped_moves


@given(convex_boards(), move_pairs(), unimodular_maps(), SHIFTS)
@settings(max_examples=60, deadline=None)
# few drawn boards hold a rigid cycle: the square's 4-cycle under a map
# of determinant -1, and a 6-cycle of the conftest pentagon
@example(Board.square(), ORTH, _times(MIRROR, QUARTER_TURN), (2, -1))
@example(Board.from_corners([(0, 0), (1, 0), (F(3, 2), 1), (F(1, 2), 2),
                             (F(-1, 2), 1)]),
         (canonical_move(0, 1), canonical_move(2, 1)), SHEAR, (0, 3))
def test_lattice_maps_keep_denominators_and_rigid_cycles(board, moves, g,
                                                         shift):
    image, mapped, mapped_moves = _lattice_map(board, moves, g, shift)
    for q in (1, 2, 3):
        assert denominator(mapped, mapped_moves, q).value \
            == denominator(board, moves, q).value
    links = {_cycle_links(t, image)
             for t in enumerate_rigid_cycles(board, moves, 6)}
    assert {_cycle_links(t)
            for t in enumerate_rigid_cycles(mapped, mapped_moves, 6)} == links


@given(convex_boards().flatmap(
           lambda board: st.tuples(st.just(board), boundary_points(board))),
       move_pairs(), st.sampled_from((1, 2)), unimodular_maps(), SHIFTS)
@settings(max_examples=60, deadline=None)
@example((Board.square(), Point2(0, F(1, 3))), INCLINED, 1, SHEAR, (1, 0))
def test_lattice_maps_carry_trajectories_and_vertex_oracle(
        placed, moves, first, g, shift):
    board, start = placed
    image, mapped, mapped_moves = _lattice_map(board, moves, g, shift)
    window = trace(board, moves, start, first, max_points=12)
    mapped_window = trace(mapped, mapped_moves, image(start), first,
                          max_points=12)
    assert mapped_window.points == tuple(map(image, window.points))
    assert (mapped_window.status, mapped_window.first_move_type) \
        == (window.status, first)
    for move, mapped_move in zip(moves, mapped_moves):
        assert antipode(mapped, mapped_move, image(start)) \
            == image(antipode(board, move, start))
    for q in (1, 2):
        assert vertex_oracle(mapped, mapped_moves, q) \
            == vertex_oracle(board, moves, q)


# -- closed forms -----------------------------------------------------------


def test_closed_form_orthogonal_values():
    assert [closed_form_orthogonal(2, q) for q in range(1, 6)] \
        == [1, 2, 20, 120, 240]
    with pytest.raises(ValueError):
        closed_form_orthogonal(1, 3)


def test_inclined_crossing_index_starts_at_1():
    with pytest.raises(ValueError, match="index must be at least 1"):
        inclined_crossing_point(INCLINED, 0)


@pytest.mark.parametrize("closed_form, args", [
    (closed_form_orthogonal, (2, -1)),
    (closed_form_mirror, (2, 1, -1)),
])
def test_closed_forms_reject_a_negative_q(closed_form, args):
    with pytest.raises(ValueError, match="q must be nonnegative"):
        closed_form(*args)


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


def test_closed_form_inclined_matches_the_per_index_oracle():
    # all 9 inclined pairs with |c|, |d| <= 3, in both move orders
    flat = [canonical_move(c, d) for c, d in ((2, 1), (3, 1), (3, 2))]
    for m1 in flat:
        for m2 in (canonical_move(m.d, m.c) for m in flat):
            for moves in ((m1, m2), (m2, m1)):
                for q in range(41):
                    assert closed_form_inclined(moves, q) \
                        == oracles.closed_form_inclined(moves, q)


def test_closed_form_inclined_rejects_negative_q():
    with pytest.raises(ValueError):
        closed_form_inclined(INCLINED, -1)


def test_closed_form_inclined_is_fast_at_large_q():
    # the per-index lcm takes minutes at q = 100,000
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    code = (
        "from riderflow import canonical_move as m, closed_form_inclined\n"
        "print(closed_form_inclined((m(2, 3), m(3, 2)), 100_000) % 1000)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=20, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    # 5·3^(q - 1) for this pair from q = 5 on
    assert done.stdout == f"{5 * 3 ** 99_999 % 1000}\n"


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
        vertex_oracle(square, BISHOP, 4)


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
    assert matrix_rank(arrangement_of(square, moves, pieces)) == 12
    result = characterize_vertex(square, moves, pieces)
    assert result.vertex
    assert len(result.corner_components) == 1
    assert len(result.cycle_components) == 1
    assert [c[0] for c in result.interior_certificates] == [crossing]
    assert denominator(square, moves, 6).value % 40 == 0


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_orthogonal_engine_values(square, m):
    # closed_form_orthogonal takes lcm(m² + 1, m + 1) where the engine
    # has the product; the two share the factor 2 for odd m
    moves = (canonical_move(m, 1), canonical_move(1, -m))
    for q in range(6, 10):
        value = denominator(square, moves, q).value
        assert value == (m * m + 1) * (m + 1) * m ** (q - 1), q
        assert value == (2 if m % 2 else 1) * closed_form_orthogonal(m, q)


@given(st.integers(1, 4), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_window_points_all_divide_denominator(cap, qval):
    # every reported contribution divides the final LCM
    board = Board.square()
    report = denominator(board, ORTH, qval)
    for c in report.contributions:
        assert report.value % c.denominator == 0


# -- chord crossings: pinned outputs and the segment oracle ----------------

# sha256 over the square, the pentagon and HEXAGON x the 28 move pairs
# with |c|, |d| <= 2 of the denominator reports for q <= 5, the crossings
# of every pair of augmented corner windows, and the vertex
# decompositions of _window_vertices, recorded while crossings were
# still found by solving for two segment parameters
CHORD_SHA256 = {
    "denominator":
        "a5d873867f8045b0f5ca236896e57ce27e3ca2b9abc7470212185ff64b41a3bb",
    "crossing_points":
        "497c5199bd0d044508612a25f0564f335760355fe6df37b44e8e2548d4d72a87",
    "characterize_vertex":
        "5c05201049e70a0fd316edee0cde9b4bc2a6ea54b55e39749b47661d0043955d",
}


def _corner_windows(board, moves):
    return [
        trace(board, moves, corner, first, max_points=4)
        for corner in board.corners
        for first in (1, 2)
    ]


def _window_pairs(board, moves):
    """Each augmented corner window alone, for its self-crossings, and
    every two of them."""
    windows = [augment(board, moves, w) for w in _corner_windows(board, moves)]
    return [(a, None) for a in windows] + list(combinations(windows, 2))


def _window_vertices(board, moves):
    """Each corner window's points plus its first two self-crossings."""
    for window in _corner_windows(board, moves):
        crossings = crossing_points(board, augment(board, moves, window))
        yield window.points + tuple(c.point for c in crossings[:2])


def _crossing_rows(crossings):
    return [(c.point, c.index_a, c.index_b) for c in crossings]


def _text(points):
    return " ".join(format_point(p) for p in points)


def _segment_text(segment):
    return f"{_text(segment[:2])} {segment[2]}"


def test_chord_crossing_digest(square, pentagon):
    digests = {name: hashlib.sha256() for name in CHORD_SHA256}

    def record(name, text):
        digests[name].update(f"{text}\n".encode())

    boards = (square, pentagon, Board.from_corners(HEXAGON))
    for board, moves in product(boards, canonical_move_pairs(2)):
        for q in range(1, 6):
            report = denominator(board, moves, q)
            record("denominator", f"{q} {report.value}")
            for c in report.contributions:
                record(
                    "denominator",
                    f"{c.category} {format_point(c.point)} {c.denominator}",
                )
        for a, b in _window_pairs(board, moves):
            for pt, i, j in _crossing_rows(crossing_points(board, a, b)):
                record("crossing_points", f"{format_point(pt)} {i} {j}")
            record("crossing_points", "")
        for pieces in _window_vertices(board, moves):
            v = characterize_vertex(board, moves, pieces)
            record("characterize_vertex", f"{v.vertex} {v.rank} {v.deficiency}")
            for comp in v.corner_components + v.cycle_components:
                record("characterize_vertex", _text(comp.points))
            for z, seg1, seg2 in v.interior_certificates:
                record(
                    "characterize_vertex",
                    f"{format_point(z)}: {_segment_text(seg1)}; "
                    f"{_segment_text(seg2)}",
                )
    assert {n: d.hexdigest() for n, d in digests.items()} == CHORD_SHA256


@given(convex_boards(), move_pairs())
@settings(max_examples=40, deadline=None)
def test_chord_crossings_match_the_segment_oracle(board, pair):
    # the vertical move is the one whose segments have no x extent
    vertical = canonical_move(0, 1)
    partner = pair[1] if pair[0] == vertical else pair[0]
    for moves in (pair, (vertical, partner)):
        for a, b in _window_pairs(board, moves):
            assert _crossing_rows(crossing_points(board, a, b)) \
                == oracles.crossing_points(board, a, b)
        for pieces in _window_vertices(board, moves):
            result = characterize_vertex(board, moves, pieces)
            if result.vertex:
                assert result.interior_certificates \
                    == oracles.vertex_certificates(board, moves, pieces)
