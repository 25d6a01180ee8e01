import math
from fractions import Fraction
from math import inf, nan, nextafter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import riderflow.floatsim as floatsim
from conftest import MOVE_PAIRS, boundary_points, convex_boards
from riderflow import (
    Board,
    Point2,
    RenderPath,
    RenderSpec,
    attractor_orbit,
    canonical_move,
    corner_trajectories,
    distances,
    render_svg,
    simulate_float,
    trace,
)

F = Fraction


def test_first_bounce_matches_exact_antipode(square):
    path = simulate_float(square, (0.5, 2.0), (0.0, 0.0), steps=1)
    assert len(path.points) == 2
    x, y = path.points[1]
    assert abs(x - 1.0) < 1e-12 and abs(y - 0.5) < 1e-12


def test_halt_detected(square):
    # moving with slope 1 out of the corner-adjacent point (1, 0) pins
    # the line parameter to zero in both directions
    path = simulate_float(square, (1.0, -1.0), (1.0, 0.0), steps=10)
    assert path.stop_reason == "halt"
    assert len(path.points) == 1


def test_halt_on_an_edge_parallel_to_the_move():
    # the slope-0 move from (1/2, 1) runs along the top edge; the exact
    # dynamics stop there, so the float path must not slide along it
    board = Board.from_corners([(0, 0), (2, 0), (2, 1), (0, 1)])
    exact = trace(
        board, (canonical_move(1, 0), canonical_move(2, 1)),
        Point2(F(1, 2), F(0)), 2,
    )
    path = simulate_float(board, (0.0, 0.5), (0.5, 0.0), 2, steps=10)
    assert [(float(p.x), float(p.y)) for p in exact.points] == [
        (0.5, 0.0), (2.0, 0.75), (0.0, 0.75), (0.5, 1.0)
    ]
    assert len(path.points) == len(exact.points)
    for (x, y), p in zip(path.points, exact.points):
        assert abs(x - float(p.x)) < 1e-12 and abs(y - float(p.y)) < 1e-12
    assert path.stop_reason == "halt"


def test_periodic_square_orbit(square):
    path = simulate_float(square, (1.0, -1.0), (0.25, 0.0), steps=40)
    assert path.stop_reason is None
    xs = [p[0] for p in path.points[::4]]
    assert all(abs(x - 0.25) < 1e-9 for x in xs)


def test_convergence_to_attractor_orbit(square):
    orbit = attractor_orbit(F(1, 5), F(-3))
    limit = [(float(p.x), float(p.y)) for p in orbit]
    path = simulate_float(square, (0.2, -3.0), (0.6, 0.0), steps=120)
    dists = distances(path.points, limit)
    assert len(dists) == len(path.points)
    assert min(dists[-8:]) < 1e-12
    assert dists[4] < dists[0]


def test_corner_stop_for_mixed_slopes(square):
    # both slope magnitudes below one: orbits drift into a corner
    moves = (canonical_move(10, 3), canonical_move(5, -2))
    corner_path = trace(square, moves, Point2(0, 0), 1)
    limit = [(float(p.x), float(p.y)) for p in corner_path.points]
    path = simulate_float(square, (0.3, -0.4), (0.55, 0.0), steps=2000)
    assert path.stop_reason == "corner"
    assert min(distances(path.points, limit)[-6:]) < 1e-6


def _point_bits(points):
    """Each float pair as hex text: equal bit for bit, signed zeros too."""
    return [(x.hex(), y.hex()) for x, y in points]


def _assert_matches_reference(board, slopes, start, first_move_type, steps):
    path = simulate_float(board, slopes, start, first_move_type, steps)
    points, reason = oracles.float_path_reference(
        board, slopes, start, first_move_type, steps
    )
    assert path.stop_reason == reason
    assert len(path.points) == len(points)
    assert _point_bits(path.points) == _point_bits(points)
    return path


# the benchmark's three --limit orbit runs: each repeats a state at step
# 36 or 68 and lies on its 4-cycle from step 40 on
WORKLOAD_ORBITS = [
    ((F(1, 5), F(-3)), (F(3, 5), F(0))),
    ((F(1, 4), F(-2)), (F(1, 2), F(0))),
    ((F(1, 3), F(-5)), (F(2, 3), F(0))),
]


@pytest.mark.parametrize("slopes, start", WORKLOAD_ORBITS)
def test_workload_orbits_enter_their_four_cycle_by_step_40(
    square, slopes, start
):
    path = _assert_matches_reference(square, slopes, start, 1, 8000)
    tail = _point_bits(path.points[40:])
    assert tail[4:] == tail[:-4]
    # the end of the path is the repeated block, not stepped again
    assert path.points[-1] is path.points[-5]


@pytest.mark.parametrize("steps", range(30, 45))
def test_steps_ending_around_the_first_repeat(square, steps):
    # the 1/5, -3 orbit from 3/5, 0 repeats its step-32 state at step
    # 36: steps = 36 finds the repeat on the last step, and 37-39 end
    # partway through the repeated block 33..36
    slopes, start = WORKLOAD_ORBITS[0]
    path = _assert_matches_reference(square, slopes, start, 1, steps)
    if steps > 36:
        assert path.points[37] is path.points[33]


def test_corner_stop_and_halts_match_the_reference(square):
    path = _assert_matches_reference(square, (0.3, -0.4), (0.61, 0.0), 1, 1200)
    assert path.stop_reason == "corner"
    path = _assert_matches_reference(square, (1.0, -1.0), (1.0, 0.0), 1, 10)
    assert path.stop_reason == "halt"
    board = Board.from_corners([(0, 0), (2, 0), (2, 1), (0, 1)])
    path = _assert_matches_reference(board, (0.0, 0.5), (0.5, 0.0), 2, 10)
    assert path.stop_reason == "halt" and len(path.points) == 4


def test_a_point_revisited_with_the_other_move_is_not_a_repeat():
    # far from the origin a short slope-0 step rounds back to where it
    # started: points 26 and 27 are equal, but their next moves differ
    x0 = 140737488355324
    board = Board.from_corners([(x0, 2), (x0 + 5, -5), (x0 + 8, -7)])
    start = (F(3518437208883173611, 25000), F(-265277, 125000))
    path = _assert_matches_reference(board, (7.0, 0.0), start, 2, 40)
    assert path.points[26] == path.points[27]
    assert path.stop_reason == "halt"


@pytest.mark.parametrize("first_move_type", [0, 3])
def test_a_bad_first_move_type_is_refused(square, first_move_type):
    with pytest.raises(ValueError, match="move type must be 1 or 2"):
        simulate_float(square, (0.5, 2.0), (0.0, 0.0), first_move_type)


def test_distances_to_an_empty_limit_set_are_refused():
    with pytest.raises(ValueError, match="limit set is empty"):
        distances([(0.0, 0.0)], [])
    assert distances([], [(0, 0)]) == ()


def _slope_pairs():
    rational = st.sampled_from(
        [(F(a.d, a.c), F(b.d, b.c)) for a, b in MOVE_PAIRS if a.c and b.c]
    )
    slope = st.floats(-6, 6)
    floats = st.tuples(slope, slope).filter(lambda s: s[0] != s[1])
    return rational | floats


_coordinate = st.floats(-3, 3) | st.sampled_from([0.0, -0.0, 1.0, -1.0])


@settings(max_examples=150, deadline=None)
@given(st.data(), convex_boards(), _slope_pairs(), st.integers(0, 3000))
def test_simulate_float_matches_the_stepped_reference(
    data, board, slopes, steps
):
    start = data.draw(boundary_points(board))
    first = data.draw(st.sampled_from([1, 2]))
    path = _assert_matches_reference(
        board, slopes, (start.x, start.y), first, steps
    )
    limit = [(c.x, c.y) for c in board.corners] + data.draw(
        st.lists(st.tuples(_coordinate, _coordinate), max_size=12)
    )
    assert [d.hex() for d in distances(path.points, limit)] == [
        d.hex() for d in oracles.nearest_distances_reference(
            path.points, limit
        )
    ]


_any_coordinate = _coordinate | st.sampled_from([inf, -inf, nan])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(_any_coordinate, _any_coordinate), max_size=40),
    st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=40),
)
def test_distances_match_the_exhaustive_minimum(points, limit):
    assert [d.hex() for d in distances(points, limit)] == [
        d.hex() for d in oracles.nearest_distances_reference(points, limit)
    ]


def test_distances_cost_a_few_hypot_calls_per_point(square, monkeypatch):
    # float-sim --slopes 1/3 -0.4 --start 1/3,0 --steps 10000 --limit
    # corner: most of the 1,024 limit points lie on the square's vertical
    # edges, where a scan that stops on the x gap alone makes 280 hypot
    # calls per point
    moves = (canonical_move(3, 1), canonical_move(5, -2))
    limit = [
        (p.x, p.y)
        for t in corner_trajectories(square, moves, max_points=256)
        for p in t.points
    ]
    path = simulate_float(square, (F(1, 3), F(-2, 5)), (F(1, 3), 0),
                          steps=10_000)
    calls = []

    def counted(a, b):
        calls.append(None)
        return math.hypot(a, b)

    monkeypatch.setattr(floatsim, "hypot", counted)
    dists = distances(path.points, limit)
    assert len(calls) <= 8 * len(set(path.points))
    head = path.points[:200] + path.points[-200:]
    assert [d.hex() for d in dists[:200] + dists[-200:]] == [
        d.hex() for d in oracles.nearest_distances_reference(head, limit)
    ]


def _ulps(value):
    return [nextafter(value, -inf), value, nextafter(value, inf)]


# (x, y, d): a query point and its nearest limit point's offset in y.
# For the first two, y - best rounds above y - best, and for the next two
# y + best rounds below y + best: a limit point there is nearer than best.
EQUAL_X_RUNS = [
    (0.0, -0.6, 0.3), (-0.0, -0.7, 0.2), (0.5, 0.3, -0.4), (1 / 3, 0.5, -0.2),
    (0.25, 0.1, 0.3), (-0.0, 1e-300, -1e-300),
]


@pytest.mark.parametrize("x, y, d", EQUAL_X_RUNS)
def test_distances_on_runs_of_equal_x_match_the_exhaustive_minimum(x, y, d):
    # The run just right of x starts with the query's nearest point, best
    # away, so the sweep seeds there and meets one more run, beside that
    # one or left of x, with that best.  It holds one window point, at
    # y - best, y + best or one ulp from either, between two far ones:
    # the sweep bisects to it from below or above, or leaves the run
    # there.  The run at x lies below y, in +0.0 and -0.0 when x is 0.
    right, left = nextafter(x, inf), nextafter(x, -inf)
    best = math.hypot(right - x, y - (y + d))
    low, high = y - 9 * abs(d), y + 9 * abs(d)
    base = [(-x, low), (x, low - abs(d)), (right, y + d), (right, high)]
    points = [(x, y), (-x, y)]
    for w in _ulps(y - best) + _ulps(y + best):
        for lx in (nextafter(right, inf), left):
            limit = base + [(lx, low), (lx, w), (lx, high)]
            assert [v.hex() for v in distances(points, limit)] == [
                v.hex()
                for v in oracles.nearest_distances_reference(points, limit)
            ]


# -- SVG rendering ----------------------------------------------------------


def test_empty_spec_renders_outline_only(square):
    svg = render_svg(square, RenderSpec())
    assert svg.startswith("<svg ")
    assert svg.count("<polygon") == 1
    assert "<line" not in svg
    assert svg.endswith("</svg>\n")


def test_paths_render_one_line_per_segment(square):
    t = trace(square, (canonical_move(2, 1), canonical_move(1, -2)),
              Point2(0, 0), 1, max_points=5)
    path = RenderPath(tuple((p.x, p.y) for p in t.points), 1)
    svg = render_svg(square, RenderSpec(paths=(path,)))
    assert svg.count("<line") == 4
    assert svg.count("stroke-dasharray") == 2  # alternating move types


def test_closed_highlighted_cycle(square):
    pts = ((F(1, 3), 0), (1, F(1, 3)), (F(2, 3), 1), (0, F(2, 3)))
    path = RenderPath(pts, 1, closed=True, highlight=True)
    svg = render_svg(square, RenderSpec(paths=(path,)))
    assert svg.count("<line") == 4
    assert svg.count('stroke="#2ca02c"') == 4


def test_markers_and_labels(square):
    spec = RenderSpec(markers=(((F(1, 2), F(1, 2)), "6"),))
    svg = render_svg(square, RenderSpec(markers=spec.markers))
    assert svg.count("<circle") == 1
    assert ">6</text>" in svg


def test_render_deterministic(square):
    pts = ((0, 0), (1, F(1, 2)), (F(3, 4), 1))
    spec = RenderSpec(paths=(RenderPath(pts, 1),), markers=((pts[1], "x"),))
    assert render_svg(square, spec) == render_svg(square, spec)


def test_render_scales_nonunit_board(pentagon):
    svg = render_svg(pentagon, RenderSpec())
    assert svg.count("<polygon") == 1
    # five corners flattened into the points attribute
    outline = svg.split('points="')[1].split('"')[0]
    assert len(outline.split()) == 5
