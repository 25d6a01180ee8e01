import hashlib
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from riderflow import (
    Board,
    LocationKind,
    NotCyclic,
    Point2,
    TrajectoryStatus,
    arrangement_of,
    canonical_move,
    classify_cycle,
    enumerate_rigid_cycles,
    format_trajectory,
    matrix_rank,
    partition_into_trajectories,
    solve_square_system,
    trace,
)

import riderflow.arrangement as arrangement

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
VERTICAL = canonical_move(0, 1)


def test_matrix_rank():
    assert matrix_rank([]) == 0
    assert matrix_rank([(1, 2), (2, 4)]) == 1
    assert matrix_rank([(1, 0, 0), (0, 1, 0), (1, 1, 0)]) == 2
    assert matrix_rank([(F(1, 2), 1), (1, F(1, 3))]) == 2


def test_solve_square_system():
    sol = solve_square_system([(2, 0), (1, 1)], (1, 1))
    assert sol == [F(1, 2), F(1, 2)]
    assert solve_square_system([(1, 1), (2, 2)], (0, 1)) is None


def test_arrangement_counts_hyperplanes(square):
    # one corner piece: two fixations, no attacks
    system = arrangement_of(square, BISHOP, [Point2(0, 0)])
    assert len(system.hyperplanes) == 2
    assert system.rank() == 2
    assert system.is_vertex()

    # two pieces on one diagonal: one attack + one fixation each
    system = arrangement_of(
        square, BISHOP, [Point2(F(1, 2), 0), Point2(1, F(1, 2))]
    )
    kinds = sorted(h.kind for h in system.hyperplanes)
    assert kinds == ["attack", "fixation", "fixation"]
    assert system.rank() == 3
    assert not system.is_vertex()
    assert system.deficiency() == 1


def test_coincident_pieces_attack_along_both_moves(square):
    p = Point2(F(1, 2), 0)
    system = arrangement_of(square, BISHOP, [p, p])
    attacks = [h for h in system.hyperplanes if h.kind == "attack"]
    assert len(attacks) == 2


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_duplicating_a_piece_adds_rank_two(data):
    board = Board.square()
    moves = data.draw(move_pairs())
    pieces = [
        data.draw(boundary_points(board))
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    base = arrangement_of(board, moves, pieces).rank()
    doubled = arrangement_of(board, moves, pieces + [pieces[0]]).rank()
    assert doubled == base + 2


def test_classify_cycle_rigid(square):
    cycle = trace(square, ORTH, Point2(F(1, 3), 0), 1, max_points=8)
    verdict = classify_cycle(square, ORTH, cycle)
    assert verdict.rigid
    assert verdict.rank == 8
    assert verdict.length == 4


def test_classify_cycle_family_member_not_rigid(square):
    # bishop squares close up from any bottom-edge start: a whole
    # family of cycles, so none of them is rigid
    cycle = trace(square, BISHOP, Point2(F(1, 3), 0), 1, max_points=8)
    assert cycle.status is TrajectoryStatus.CYCLIC
    verdict = classify_cycle(square, BISHOP, cycle)
    assert not verdict.rigid
    assert verdict.rank == 7


def test_classify_cycle_rejects_open_windows(square):
    window = trace(square, ORTH, Point2(0, 0), 1, max_points=5)
    with pytest.raises(NotCyclic):
        classify_cycle(square, ORTH, window)


def test_partition_recovers_single_window(square):
    window = trace(square, ORTH, Point2(0, 0), 1, max_points=5)
    parts = partition_into_trajectories(square, ORTH, window.points)
    assert len(parts) == 1
    part = parts[0]
    assert set(part.points) == set(window.points)
    assert part.status in (
        TrajectoryStatus.STOPPED_BACKWARD,
        TrajectoryStatus.STOPPED_FORWARD,
        TrajectoryStatus.TRUNCATED,
    )


def test_partition_finds_cycle(square):
    cycle = trace(square, ORTH, Point2(F(1, 3), 0), 1, max_points=8)
    parts = partition_into_trajectories(square, ORTH, cycle.points)
    assert len(parts) == 1
    assert parts[0].status is TrajectoryStatus.CYCLIC
    assert set(parts[0].points) == set(cycle.points)


def test_partition_separates_components(square):
    cycle = trace(square, ORTH, Point2(F(1, 3), 0), 1, max_points=8)
    window = trace(square, ORTH, Point2(0, 0), 1, max_points=3)
    mixed = list(cycle.points) + list(window.points)
    parts = partition_into_trajectories(square, ORTH, mixed)
    assert len(parts) == 2
    sizes = sorted(len(p.points) for p in parts)
    assert sizes == [3, 4]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_partition_is_a_partition(data):
    board = Board.square()
    moves = data.draw(move_pairs())
    pts = {
        data.draw(boundary_points(board))
        for _ in range(data.draw(st.integers(1, 6)))
    }
    parts = partition_into_trajectories(board, moves, pts)
    covered = [p for t in parts for p in t.points]
    assert sorted(covered) == sorted(pts)


def test_rigid_cycles_orthogonal(square):
    for m in (2, 3):
        moves = (canonical_move(m, 1), canonical_move(1, -m))
        cycles = enumerate_rigid_cycles(square, moves, 8)
        assert len(cycles) == 1
        s = F(1, 1 + m)
        assert cycles[0].points == (
            Point2(s, 0),
            Point2(1, s),
            Point2(m * s, 1),
            Point2(0, m * s),
        )


def test_rigid_cycles_absent_for_mirror_pieces(square):
    assert enumerate_rigid_cycles(square, BISHOP, 8) == []
    assert enumerate_rigid_cycles(square, LATERAL, 8) == []
    assert enumerate_rigid_cycles(square, INCLINED, 6) == []


def test_rigid_cycle_survives_reclassification(square):
    cycles = enumerate_rigid_cycles(square, ORTH, 6)
    verdict = classify_cycle(square, ORTH, cycles[0])
    assert verdict.rigid


def test_rigid_cycle_search_rejects_a_negative_length(square):
    with pytest.raises(ValueError):
        enumerate_rigid_cycles(square, ORTH, -1)
    for length in range(4):
        assert enumerate_rigid_cycles(square, ORTH, length) == []


def _pentagon():
    return Board.from_corners(
        [(0, 0), (1, 0), (F(3, 2), 1), (F(1, 2), 2), (F(-1, 2), 1)]
    )


def _hexagon():
    # the seeded 6-gon of the benchmark's orbit boards
    return Board.from_corners([
        (F(1, 2), F(1, 2)), (F(-2, 3), F(5, 6)), (F(-7, 6), F(1, 2)),
        (-1, F(1, 6)), (F(2, 3), F(-2, 3)), (1, F(-1, 3)),
    ])


def _search_calls(name, board, moves, max_length):
    """The search's result and the arguments of each call it makes to its
    inner function `name`."""
    calls = []

    def watch(frame, event, arg):
        if (event == "call" and frame.f_code.co_name == name
                and frame.f_globals["__name__"] == "riderflow.arrangement"):
            calls.append(dict(frame.f_locals))

    sys.setprofile(watch)
    try:
        cycles = enumerate_rigid_cycles(board, moves, max_length)
    finally:
        sys.setprofile(None)
    return cycles, calls


@pytest.mark.parametrize(
    "make_board, moves",
    [(Board.square, INCLINED), (Board.square, ORTH),
     (_pentagon, ORTH), (_hexagon, INCLINED)],
)
def test_search_windows_are_exactly_the_valid_parameters(make_board, moves):
    # over a node's window every path point lies on its closed edge, and
    # at each end of the window some path point sits at a corner
    board = make_board()
    _, nodes = _search_calls("descend", board, moves, 6)
    assert len(nodes) > 4
    for node in nodes:
        path, lo, hi = node["path"], node["lo"], node["hi"]
        assert lo <= hi

        def kinds(t):
            points = arrangement._points_at(path, t)
            return {board.classify(p).kind for p in points}

        boundary = {LocationKind.EDGE, LocationKind.CORNER}
        assert kinds((lo + hi) / 2) <= boundary
        for t in (lo, hi):
            assert kinds(t) <= boundary
            assert LocationKind.CORNER in kinds(t)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_rigid_cycles_match_the_fraction_oracle(data):
    board = data.draw(convex_boards())
    a, b = data.draw(move_pairs())
    length = data.draw(st.integers(0, 6))
    pairs = [(a, b)] + [(VERTICAL, m) for m in (a, b) if m != VERTICAL]
    for moves in pairs:
        assert enumerate_rigid_cycles(board, moves, length) \
            == oracles.rigid_cycles(board, moves, length)


# sha256 of every cycle list of a board, recorded with the Fraction
# search rooted with both move types: (board, move pairs, max length,
# cycles found in total, digest).
RIGID_CYCLE_LISTS = [
    (_pentagon, canonical_move_pairs(3), 8, 23,
     "27e46256d3ab7b8942dd8f71c7f5110d80c3f1f80a8c47ee021d975c0256ce0c"),
    (_hexagon, canonical_move_pairs(3), 8, 26,
     "a4d23dacd4186c55ed5a07ed313498362a9d58e196f69805b0d2af35678cf771"),
    (Board.square, [ORTH, (canonical_move(3, 1), canonical_move(1, -3))],
     12, 2,
     "251b0191eb730a3d9dff3a6cde15d459d48e57a2f1db2402483102ce5809e62d"),
]


@pytest.mark.parametrize(
    "make_board, pairs, length, total, digest", RIGID_CYCLE_LISTS
)
def test_rigid_cycle_lists_golden(make_board, pairs, length, total, digest):
    board = make_board()
    text = []
    found = 0
    for moves in pairs:
        cycles = enumerate_rigid_cycles(board, moves, length)
        found += len(cycles)
        a, b = moves
        text.append(f"moves {a.c},{a.d} {b.c},{b.d} cycles {len(cycles)}\n")
        text.extend(format_trajectory(c) for c in cycles)
    assert found == total
    assert hashlib.sha256("".join(text).encode()).hexdigest() == digest


def test_degenerate_closure_scans_its_family(square):
    # every bishop 4-cycle on the square closes up, so the closure
    # equation is 0 = 0 and the search scans the sliding family; its
    # attack roots sit at corners, where two cycle points coincide
    cycles, scans = _search_calls("family_scan", square, BISHOP, 4)
    assert cycles == []
    assert scans
