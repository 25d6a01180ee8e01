from fractions import Fraction

from riderflow import (
    Board,
    Point2,
    RenderPath,
    RenderSpec,
    attractor_orbit,
    canonical_move,
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
