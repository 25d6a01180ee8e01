import hashlib
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from riderflow import (
    Board,
    InternalInvariantError,
    LocationKind,
    NotOnBoundary,
    Point2,
    Trajectory,
    TrajectoryStatus,
    antipode,
    augment,
    canonical_move,
    corner_trajectories,
    enumerate_rigid_cycles,
    format_point,
    format_trajectory,
    partition_into_trajectories,
    trace,
)
from riderflow import dynamics

import oracles
from conftest import (
    boundary_points,
    canonical_move_pairs,
    convex_boards,
    edge_point,
    move_pairs,
)

F = Fraction
INCLINED = (canonical_move(2, 1), canonical_move(1, 2))
ORTH = (canonical_move(2, 1), canonical_move(1, -2))
BISHOP = (canonical_move(1, 1), canonical_move(1, -1))
VERTICAL = canonical_move(0, 1)


def test_antipode_basic(square):
    m = canonical_move(2, 1)
    assert antipode(square, m, Point2(0, 0)) == Point2(1, F(1, 2))
    assert antipode(square, m, Point2(1, F(1, 2))) == Point2(0, 0)
    # line through (1,0) in direction (2,1) leaves the board immediately
    assert antipode(square, m, Point2(1, 0)) == Point2(1, 0)


def test_antipode_edge_supporting_line(square):
    horizontal = canonical_move(1, 0)
    assert antipode(square, horizontal, Point2(F(1, 2), 0)) \
        == Point2(F(1, 2), 0)
    vertical = canonical_move(0, 1)
    assert antipode(square, vertical, Point2(F(1, 2), 0)) \
        == Point2(F(1, 2), 1)


def test_antipode_accepts_an_xy_pair(square):
    m = canonical_move(2, 1)
    assert antipode(square, m, (0, 0)) == Point2(1, F(1, 2))
    # a stop returns the point itself, as a Point2
    stopped = antipode(square, m, (1, 0))
    assert type(stopped) is Point2 and stopped == Point2(1, 0)


def test_antipode_rejects_off_boundary(square):
    with pytest.raises(NotOnBoundary):
        antipode(square, INCLINED[0], Point2(2, 2))
    with pytest.raises(NotOnBoundary):
        antipode(square, INCLINED[0], Point2(F(1, 2), F(1, 2)))


@pytest.mark.parametrize("point, where", [
    (Point2(2, 2), "outside the board"),
    (Point2(F(1, 2), F(1, 2)), "interior, not on the boundary"),
])
def test_every_walk_rejects_a_start_off_the_boundary(square, point, where):
    message = re.escape(f"{point} is {where}")
    with pytest.raises(NotOnBoundary, match=message):
        trace(square, INCLINED, point, 1)
    with pytest.raises(NotOnBoundary, match=message):
        partition_into_trajectories(square, INCLINED, [Point2(0, 0), point])


@pytest.mark.parametrize("copies", [1, 2])
def test_a_landing_on_edge_lines_that_no_corner_joins_raises(square, copies):
    # the square's rows with the right edge's row repeated at the end:
    # the landing (1, 1/2) lies on row 1 and on each copy, rows that no
    # strictly convex board has meeting at a boundary point
    board = Board(square.corners, square.rows + (square.rows[1],) * copies)
    horizontal = canonical_move(1, 0)
    message = f"lies on {copies + 1} edge lines of a strictly convex board"
    with pytest.raises(InternalInvariantError, match=message):
        antipode(board, horizontal, Point2(0, F(1, 2)))
    with pytest.raises(InternalInvariantError, match=message):
        trace(board, (horizontal, VERTICAL), Point2(0, F(1, 2)), 1)


@given(st.data())
@settings(max_examples=200)
def test_antipode_involution_square(data):
    board = Board.square()
    p = data.draw(boundary_points(board))
    a, b = data.draw(move_pairs())
    for move in (a, b):
        q = antipode(board, move, p)
        assert antipode(board, move, q) == p


@given(st.data())
@settings(max_examples=200)
def test_antipode_involution_pentagon(data):
    board = Board.from_corners(
        [(0, 0), (1, 0), (F(3, 2), 1), (F(1, 2), 2), (F(-1, 2), 1)]
    )
    p = data.draw(boundary_points(board))
    a, b = data.draw(move_pairs())
    for move in (a, b):
        q = antipode(board, move, p)
        assert antipode(board, move, q) == p


def test_trace_five_point_window(square):
    t = trace(square, ORTH, Point2(0, 0), 1, max_points=5)
    assert t.status is TrajectoryStatus.STOPPED_BACKWARD
    assert t.points == (
        Point2(0, 0),
        Point2(1, F(1, 2)),
        Point2(F(3, 4), 1),
        Point2(0, F(5, 8)),
        Point2(F(5, 16), 0),
    )
    assert [t.move_type_at(i) for i in range(4)] == [1, 2, 1, 2]


@pytest.mark.parametrize("first_move_type, max_points, message", [
    (3, 10, "move type must be 1 or 2"),
    (1, 0, "max_points must be at least 1"),
])
def test_trace_refuses_a_bad_move_type_or_cap(
    square, first_move_type, max_points, message
):
    with pytest.raises(ValueError, match=message):
        trace(square, ORTH, Point2(0, 0), first_move_type, max_points)


def test_trace_truncation(square):
    t = trace(square, INCLINED, Point2(0, 0), 1, max_points=7)
    assert t.status is TrajectoryStatus.TRUNCATED
    assert len(t.points) == 7


def test_trace_cycle_closure(square):
    t = trace(square, ORTH, Point2(F(1, 3), 0), 1, max_points=50)
    assert t.status is TrajectoryStatus.CYCLIC
    assert t.points == (
        Point2(F(1, 3), 0),
        Point2(1, F(1, 3)),
        Point2(F(2, 3), 1),
        Point2(0, F(2, 3)),
    )


def test_trace_cycle_at_exact_cap(square):
    # closure must be recognized even when the cap equals the length
    t = trace(square, ORTH, Point2(F(1, 3), 0), 1, max_points=4)
    assert t.status is TrajectoryStatus.CYCLIC


def test_trace_stopped_both_ends(square):
    moves = (canonical_move(10, 3), canonical_move(5, -2))
    t = trace(square, moves, Point2(0, 0), 1)
    assert t.status is TrajectoryStatus.STOPPED_BOTH_ENDS
    assert t.points == (
        Point2(0, 0),
        Point2(1, F(3, 10)),
        Point2(0, F(7, 10)),
        Point2(1, 1),
    )


def test_trace_stopped_forward_only(square):
    moves = (canonical_move(10, 3), canonical_move(5, -2))
    # start one step into the previous window: backward end still open
    t = trace(square, moves, Point2(1, F(3, 10)), 2)
    assert t.status is TrajectoryStatus.STOPPED_FORWARD
    assert t.points[-1] == Point2(1, 1)


def test_corner_trajectories_square(square):
    traces = corner_trajectories(square, ORTH, max_points=16)
    # a generator: each trace runs when it is asked for
    assert iter(traces) is traces
    ts = list(traces)
    assert len(ts) == 8
    assert [t.points[0] for t in ts] == [
        c for c in square.corners for _ in (1, 2)
    ]
    assert [t.first_move_type for t in ts] == [1, 2] * 4


def test_augment_two_point_window(square):
    window = trace(square, INCLINED, Point2(0, 0), 1, max_points=2)
    assert window.status is TrajectoryStatus.TRUNCATED
    aug = augment(square, INCLINED, window)
    assert aug.points == (
        Point2(F(1, 2), 1),
        Point2(0, 0),
        Point2(1, F(1, 2)),
        Point2(F(3, 4), 0),
    )
    assert aug.points[1:3] == window.points
    assert aug.first_move_type == 2
    assert [seg[2] for seg in aug.segments()] == [2, 1, 2]


def test_augment_keeps_stopped_ends(square):
    moves = (canonical_move(10, 3), canonical_move(5, -2))
    window = trace(square, moves, Point2(0, 0), 1)
    assert window.status is TrajectoryStatus.STOPPED_BOTH_ENDS
    assert len(window) == 4
    assert augment(square, moves, window) == window


def test_augment_cyclic_repeats_first_point(square):
    cycle = trace(square, ORTH, Point2(F(1, 3), 0), 1, max_points=8)
    aug = augment(square, ORTH, cycle)
    assert aug == cycle
    assert len(aug.segments()) == 4
    assert aug.segments()[-1][1] == cycle.points[0]


def test_augment_closes_a_window_one_point_short_of_a_cycle(square):
    c = trace(square, ORTH, Point2(F(1, 3), 0), 1, max_points=8).points
    window = trace(square, ORTH, Point2(F(1, 3), 0), 1, max_points=3)
    aug = augment(square, ORTH, window)
    assert aug.status is TrajectoryStatus.CYCLIC
    assert aug.segments() == [
        (c[3], c[0], 2), (c[0], c[1], 1), (c[1], c[2], 2), (c[2], c[3], 1)
    ]


def test_augment_leaves_open_a_window_two_points_short_of_a_cycle(square):
    # both added ends are points of the cycle, but the segment joining
    # them is not part of the augmented window
    c = trace(square, ORTH, Point2(F(1, 3), 0), 1, max_points=8).points
    window = trace(square, ORTH, Point2(F(1, 3), 0), 1, max_points=2)
    aug = augment(square, ORTH, window)
    assert aug.status is TrajectoryStatus.TRUNCATED
    assert aug.segments() == [(c[3], c[0], 2), (c[0], c[1], 1), (c[1], c[2], 2)]


def test_augment_steps_once_past_each_end(monkeypatch, square):
    window = trace(square, INCLINED, (0, F(1, 3)), 1, max_points=300)
    assert window.status is TrajectoryStatus.TRUNCATED
    before = antipode(square, INCLINED[1], window.points[0])
    traced = trace(square, INCLINED, before, 2, max_points=302)
    step_calls, locate_calls = _count_steps_and_locates(monkeypatch)
    aug = augment(square, INCLINED, window)
    # one antipode past each end, and one for the new backward end's
    # status, instead of tracing the window again
    assert len(step_calls) <= 3 and len(locate_calls) <= 3
    assert (aug.points, aug.first_move_type, aug.status) \
        == (traced.points, 2, TrajectoryStatus.TRUNCATED)


def test_augment_leaves_an_open_forward_end_open(square):
    # the added forward end (0, 1) stops under (1, 1), but augment
    # takes no step from it: the augmented window is cut there
    moves = (canonical_move(1, -1), canonical_move(1, 1))
    window = trace(square, moves, Point2(1, 0), 1, max_points=1)
    assert window.status is TrajectoryStatus.STOPPED_BACKWARD
    aug = augment(square, moves, window)
    assert aug.points == (Point2(1, 0), Point2(0, 1))
    assert aug.status is TrajectoryStatus.STOPPED_BACKWARD
    assert trace(square, moves, Point2(1, 0), 1).status \
        is TrajectoryStatus.STOPPED_BOTH_ENDS


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_trace_respects_cap_and_alternates(data):
    board = Board.square()
    p = data.draw(boundary_points(board))
    moves = data.draw(move_pairs())
    first = data.draw(st.sampled_from((1, 2)))
    t = trace(board, moves, p, first, max_points=24)
    assert 1 <= len(t.points) <= 24
    assert len(set(t.points)) == len(t.points)
    for i in range(len(t.points) - 1):
        move = moves[t.move_type_at(i) - 1]
        dx = t.points[i + 1].x - t.points[i].x
        dy = t.points[i + 1].y - t.points[i].y
        assert dx * move.d - dy * move.c == 0


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_augment_round_trip_on_random_windows(data):
    board = Board.square()
    p = data.draw(boundary_points(board))
    moves = data.draw(move_pairs())
    first = data.draw(st.sampled_from((1, 2)))
    cap = data.draw(st.integers(2, 8))
    t = trace(board, moves, p, first, max_points=cap)
    aug = augment(board, moves, t)
    assert len(t) <= len(aug) <= len(t) + 2
    lo = aug.points.index(t.points[0])
    assert aug.points[lo:lo + len(t)] == t.points
    assert aug.move_type_at(lo) == t.first_move_type


def _outcome(step, *args):
    try:
        return step(*args)
    except Exception as exc:  # the exception class is the outcome
        return type(exc)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_antipode_matches_the_fraction_oracle(data):
    board = data.draw(convex_boards())
    moves = data.draw(move_pairs())
    corners = board.corners
    centre = Point2(
        sum(c.x for c in corners) / len(corners),
        sum(c.y for c in corners) / len(corners),
    )
    beyond = Point2(2 * corners[0].x - centre.x, 2 * corners[0].y - centre.y)
    points = [
        *corners,
        *(data.draw(boundary_points(board)) for _ in range(3)),
        centre,
        beyond,
    ]
    for p in points:
        assert board.classify(p) == oracles.classify(board, p)
        for move in (*moves, VERTICAL):
            expected = _outcome(oracles.antipode, board, move, p)
            assert _outcome(antipode, board, move, p) == expected


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_trace_matches_a_trace_stepped_with_the_oracle(data):
    board = data.draw(convex_boards())
    a, b = data.draw(move_pairs())
    start = data.draw(boundary_points(board))
    first = data.draw(st.sampled_from((1, 2)))
    pairs = [(a, b)] + [(VERTICAL, m) for m in (a, b) if m != VERTICAL]
    for moves in pairs:
        assert trace(board, moves, start, first, max_points=40) \
            == oracles.stepped_trace(board, moves, start, first, 40)


def _hexagon():
    return Board.from_corners([(0, 0), (3, 0), (4, 2), (3, 4), (0, 4), (-1, 2)])


def _named_board(request, name):
    """The test hexagon, or the conftest fixture of that name."""
    return _hexagon() if name == "hexagon" else request.getfixturevalue(name)


# 300-point windows whose coordinates reach 100-260 bits: corner starts
# (two entering edges) and edge starts, cut by the budget or stopped
# behind the start.
REAL_SIZE_ORBITS = [
    ("pentagon", ORTH, 1, 2),
    ("pentagon", (VERTICAL, canonical_move(3, 1)), 0, 1),
    ("pentagon", ORTH, F(1, 3), 1),
    ("pentagon", (VERTICAL, canonical_move(3, 1)), F(2, 5), 2),
    ("hexagon", ORTH, 1, 2),
    ("hexagon", (VERTICAL, canonical_move(3, 1)), 3, 2),
    ("hexagon", ORTH, F(1, 3), 1),
    ("hexagon", (VERTICAL, canonical_move(3, 1)), F(1, 3), 2),
]


@pytest.mark.parametrize("board_name, moves, start, first", REAL_SIZE_ORBITS)
def test_trace_matches_the_stepped_oracle_at_300_points(
    request, board_name, moves, start, first
):
    board = _named_board(request, board_name)
    # an int picks a corner, a Fraction a point of the bottom edge
    if type(start) is int:
        start, kind = board.corners[start], LocationKind.CORNER
    else:
        start, kind = Point2(start, 0), LocationKind.EDGE
    assert board.classify(start).kind is kind
    t = trace(board, moves, start, first, max_points=300)
    assert len(t) == 300
    assert t == oracles.stepped_trace(board, moves, start, first, 300)
    for p in t.points:
        for v in (p.x, p.y):
            assert type(v) is Fraction
            assert v.denominator > 0 and gcd(v.numerator, v.denominator) == 1


@pytest.mark.parametrize("board_name, moves, start, first", REAL_SIZE_ORBITS)
def test_trace_locates_only_its_start(
    monkeypatch, request, board_name, moves, start, first
):
    board = _named_board(request, board_name)
    start = board.corners[start] if type(start) is int else Point2(start, 0)
    calls = []
    locate = Board._locate

    def counted(self, *triple):
        calls.append(triple)
        return locate(self, *triple)

    monkeypatch.setattr(Board, "_locate", counted)
    for max_points in (3, 300):
        calls.clear()
        assert len(trace(board, moves, start, first, max_points)) == max_points
        # each step carries its edge rows to the next: one _locate, at
        # the start, whatever the window's length
        assert len(calls) == 1


# Windows that land on a corner past their start, where two exit rows
# tie: (board, moves, start, first type, corners landed on, and whether
# the window steps on from the first of them).
CORNER_LANDINGS = [
    ("square", INCLINED, Point2(0, F(1, 2)), 1, [Point2(1, 1)], True),
    # corner 0, where edges n - 1 and 0 meet
    ("square", INCLINED, Point2(1, F(1, 2)), 1, [Point2(0, 0)], True),
    ("square", BISHOP, Point2(0, 0), 1, [Point2(1, 1)], False),
    ("pentagon", (VERTICAL, canonical_move(1, -2)), Point2(F(1, 2), 0), 1,
     [Point2(F(1, 2), 2)], True),
    # a corner straight after a corner, where the window stops
    ("hexagon", (VERTICAL, canonical_move(1, -2)), Point2(1, 0), 1,
     [Point2(3, 0), Point2(3, 4)], True),
]


@pytest.mark.parametrize("board_name, moves, start, first, corners, on",
                         CORNER_LANDINGS)
def test_trace_through_a_corner_landing(request, board_name, moves, start,
                                        first, corners, on):
    board = _named_board(request, board_name)
    t = trace(board, moves, start, first, max_points=30)
    assert t == oracles.stepped_trace(board, moves, start, first, 30)
    landed = [p for p in t.points[1:]
              if board.classify(p).kind is LocationKind.CORNER]
    assert landed == corners
    assert (t.points[-1] != corners[0]) is on
    if not on:
        assert t.status is TrajectoryStatus.STOPPED_BOTH_ENDS


# sha256 of format_trajectory for 2,000-point orbits whose coordinates
# reach 682-2,000 bits, recorded with the Fraction implementation.
LONG_ORBITS = [
    (Board.square, INCLINED, Point2(F(1, 3), 0), 1,
     "98a87e199cef801c2b7ab9ab457797f69276c0ead226fb1a1e377648b6b6dd5c"),
    (lambda: Board.from_corners(
        [(0, 0), (1, 0), (F(3, 2), 1), (F(1, 2), 2), (F(-1, 2), 1)]),
     ORTH, Point2(F(1, 3), 0), 1,
     "a06552efab51943e337721bac45a3f696430e7c66d74e21d41434b3c19c30e7b"),
    (_hexagon, (VERTICAL, canonical_move(3, 1)), Point2(1, 0), 1,
     "70f693b88b2c9ddf9fd03992cb78db86ad91782f31c6ce51adfca0c7ccf55985"),
]


@pytest.mark.parametrize("make_board, moves, start, first, digest", LONG_ORBITS)
def test_long_orbit_golden(make_board, moves, start, first, digest):
    t = trace(make_board(), moves, start, first, max_points=2000)
    assert t.status is TrajectoryStatus.TRUNCATED and len(t) == 2000
    text = format_trajectory(t)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of partition_into_trajectories output (first type, status and
# points of every component) over the scope of _partition_scope,
# recorded before the partition moved into dynamics.
PARTITION_SHA256 = (
    "e0a69d3e3d950d6e6ff1ae77ab013949afc869ffb90c2eeaa36afefcf5cb2a13"
)


def _partition_scope():
    """Point sets with paths, cycles and singletons, several per call.

    Per board and move pair with |c|, |d| <= 3: short corner windows,
    the rigid cycles of length at most 4 and one point per edge, then
    the same set with every third point dropped.
    """
    boards = [
        Board.square(),
        Board.from_corners(
            [(0, 0), (1, 0), (F(3, 2), 1), (F(1, 2), 2), (F(-1, 2), 1)]
        ),
        Board.from_corners([(0, 0), (2, 0), (F(1, 2), F(3, 2))]),
    ]
    for board in boards:
        for moves in canonical_move_pairs(3):
            pool = set()
            for i, corner in enumerate(board.corners):
                for r in (1, 2):
                    cap = 1 + (i + r) % 4
                    pool.update(trace(board, moves, corner, r, cap).points)
            for cycle in enumerate_rigid_cycles(board, moves, 4):
                pool.update(cycle.points)
            n = len(board.corners)
            pool.update(edge_point(board, i, F(1, 3)) for i in range(n))
            pts = sorted(pool)
            yield board, moves, pts
            yield board, moves, [p for i, p in enumerate(pts) if i % 3]


def test_partition_digest():
    digest = hashlib.sha256()
    kinds = set()
    for board, moves, pts in _partition_scope():
        parts = partition_into_trajectories(board, moves, pts)
        assert len(parts) > 1
        for t in parts:
            kinds.add("single" if len(t) == 1 else t.status)
            points = " ".join(format_point(p) for p in t.points)
            digest.update(
                f"{t.first_move_type} {t.status.value} {points}\n".encode()
            )
        digest.update(b"\n")
    assert len(kinds) == 1 + len(TrajectoryStatus)
    assert digest.hexdigest() == PARTITION_SHA256


def _links(trajectory):
    return {(frozenset(s[:2]), s[2]) for s in trajectory.segments()}


MIRRORED = {
    TrajectoryStatus.STOPPED_FORWARD: TrajectoryStatus.STOPPED_BACKWARD,
    TrajectoryStatus.STOPPED_BACKWARD: TrajectoryStatus.STOPPED_FORWARD,
}


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_partition_of_a_trace_window_is_the_window(data):
    board = data.draw(convex_boards())
    moves = data.draw(move_pairs())
    start = data.draw(boundary_points(board))
    first = data.draw(st.sampled_from((1, 2)))
    t = trace(board, moves, start, first, data.draw(st.integers(1, 9)))
    parts = partition_into_trajectories(board, moves, t.points)
    assert len(parts) == 1
    (part,) = parts
    if t.status is TrajectoryStatus.CYCLIC:
        # the partition starts a cycle at its smallest point, type 1 first
        assert part.status is TrajectoryStatus.CYCLIC
        assert (part.points[0], part.first_move_type) == (min(t.points), 1)
        assert _links(part) == _links(t)
        return
    reversed_t = Trajectory(
        t.points[::-1],
        t.move_type_at(len(t.points) - 2),
        MIRRORED.get(t.status, t.status),
    )
    assert part in (t, reversed_t)


def _count_steps_and_locates(monkeypatch):
    """Lists that gather the arguments of each `_step` and each
    `Board._locate` call from here on."""
    step_calls, locate_calls = [], []
    step, locate = dynamics._step, Board._locate

    def counted_step(*args):
        step_calls.append(args)
        return step(*args)

    def counted_locate(self, *triple):
        locate_calls.append(triple)
        return locate(self, *triple)

    monkeypatch.setattr(dynamics, "_step", counted_step)
    monkeypatch.setattr(Board, "_locate", counted_locate)
    return step_calls, locate_calls


@pytest.mark.parametrize("moves, window, status, steps", [
    # a 300-point path: each walk steps once from every point it
    # reaches, and both walks step from the smallest point
    (INCLINED,
     lambda square: trace(square, INCLINED, (0, F(1, 3)), 1, 300).points,
     TrajectoryStatus.TRUNCATED, 301),
    # a rigid 4-cycle, closed by the first walk
    (ORTH, lambda square: enumerate_rigid_cycles(square, ORTH, 4)[0].points,
     TrajectoryStatus.CYCLIC, 4),
], ids=["path", "rigid-cycle"])
def test_partition_walks_each_component_once(monkeypatch, square, moves,
                                             window, status, steps):
    points = window(square)
    step_calls, locate_calls = _count_steps_and_locates(monkeypatch)
    (part,) = partition_into_trajectories(square, moves, points)
    assert part.status is status and set(part.points) == set(points)
    assert (len(step_calls), len(locate_calls)) == (steps, 1)


def test_partition_walk_that_revisits_a_point_raises(monkeypatch, square):
    # a broken step that walks h -> a -> b -> a -> ..., never closing
    h, a, b = (Point2(F(k, 4), 0) for k in (1, 2, 3))
    triples = {p: (p.x.numerator, 0, p.x.denominator) for p in (h, a, b)}
    following = {triples[h]: a, triples[a]: b, triples[b]: a}

    def looping_step(board, move, alongs, triple, edges):
        return triples[following[triple]], board.rows[0], edges

    monkeypatch.setattr(dynamics, "_step", looping_step)
    with pytest.raises(InternalInvariantError,
                       match="revisits a point without closing a cycle"):
        partition_into_trajectories(square, INCLINED, [h, a, b])
