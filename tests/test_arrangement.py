from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from riderflow import (
    Board,
    NotCyclic,
    Point2,
    TrajectoryStatus,
    arrangement_of,
    canonical_move,
    classify_cycle,
    enumerate_rigid_cycles,
    matrix_rank,
    partition_into_trajectories,
    solve_square_system,
    trace,
)

from conftest import boundary_points, move_pairs

F = Fraction
INCLINED = (canonical_move(2, 1), canonical_move(1, 2))
ORTH = (canonical_move(2, 1), canonical_move(1, -2))
BISHOP = (canonical_move(1, 1), canonical_move(1, -1))
LATERAL = (canonical_move(2, 1), canonical_move(2, -1))


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
