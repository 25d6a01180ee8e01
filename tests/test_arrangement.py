import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from riderflow import (
    Board,
    LocationKind,
    NotCyclic,
    OutsideBoard,
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


_ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
)


@st.composite
def _matrices(draw, square=False):
    """Small integer and Fraction matrices; about half of those with two
    or more rows end in a combination of two others."""
    nrows = draw(st.integers(0, 5))
    ncols = nrows if square else draw(st.integers(0, 5))
    entries = st.lists(_ENTRIES, min_size=ncols, max_size=ncols)
    rows = [draw(entries) for _ in range(nrows)]
    if nrows >= 2 and draw(st.booleans()):
        i, j = draw(st.integers(0, nrows - 2)), draw(st.integers(0, nrows - 2))
        s, t = draw(_ENTRIES), draw(_ENTRIES)
        rows[-1] = [s * x + t * y for x, y in zip(rows[i], rows[j])]
    return rows


@given(_matrices())
@settings(max_examples=300, deadline=None)
def test_matrix_rank_matches_the_fraction_reference(rows):
    assert matrix_rank(rows) == oracles.fraction_rank(rows)


@given(_matrices(square=True), st.data())
@settings(max_examples=300, deadline=None)
def test_solve_square_system_matches_the_fraction_reference(rows, data):
    rhs = data.draw(st.lists(_ENTRIES, min_size=len(rows), max_size=len(rows)))
    assert solve_square_system(rows, rhs) == oracles.fraction_solve(rows, rhs)


def _kinds(normals):
    """Each row's kind: a fixation touches one piece, an attack two."""
    kinds = {1: "fixation", 2: "attack"}
    return [
        kinds[sum(any(n[k:k + 2]) for k in range(0, len(n), 2))]
        for n in normals
    ]


def test_arrangement_counts_hyperplanes(square):
    # one corner piece: two fixations, no attacks, rank 2q: a vertex
    normals = arrangement_of(square, BISHOP, [Point2(0, 0)])
    assert all(type(v) is int for n in normals for v in n)
    assert _kinds(normals) == ["fixation", "fixation"]
    assert matrix_rank(normals) == 2

    # two pieces on one diagonal: the attack first, then one fixation
    # each; rank 3 of 2q = 4, so deficiency 1 and not a vertex
    normals = arrangement_of(
        square, BISHOP, [Point2(F(1, 2), 0), Point2(1, F(1, 2))]
    )
    assert _kinds(normals) == ["attack", "fixation", "fixation"]
    assert matrix_rank(normals) == 3


def test_arrangement_rejects_pieces_off_the_board(square):
    # (2, 0) lies on the bottom edge's line but past the right edge
    for z in (Point2(2, 0), Point2(F(1, 2), F(-1, 3))):
        with pytest.raises(OutsideBoard):
            arrangement_of(square, BISHOP, [Point2(0, 0), z])


def test_coincident_pieces_attack_along_both_moves(square):
    p = Point2(F(1, 2), 0)
    normals = arrangement_of(square, BISHOP, [p, p])
    assert _kinds(normals).count("attack") == 2


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_duplicating_a_piece_adds_rank_two(data):
    board = Board.square()
    moves = data.draw(move_pairs())
    pieces = [
        data.draw(boundary_points(board))
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    base = matrix_rank(arrangement_of(board, moves, pieces))
    doubled = matrix_rank(arrangement_of(board, moves, pieces + [pieces[0]]))
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


def _search_calls(name, board, moves, max_length,
                  search=enumerate_rigid_cycles):
    """The search's result and the arguments of each call it makes to its
    inner function `name`."""
    calls = []

    def watch(frame, event, arg):
        if (event == "call" and frame.f_code.co_name == name
                and frame.f_globals["__name__"] == search.__module__):
            calls.append(dict(frame.f_locals))

    sys.setprofile(watch)
    try:
        cycles = search(board, moves, max_length)
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
        path, lo, hi = node["path"], F(*node["lo"]), F(*node["hi"])
        assert lo <= hi

        def kinds(t):
            points = arrangement._points_at(path, t.as_integer_ratio())
            return {board.classify(p).kind for p in points}

        boundary = {LocationKind.EDGE, LocationKind.CORNER}
        assert kinds((lo + hi) / 2) <= boundary
        for t in (lo, hi):
            assert kinds(t) <= boundary
            assert LocationKind.CORNER in kinds(t)


@pytest.mark.parametrize(
    "make_board, moves, max_length",
    [(Board.square, INCLINED, 10), (_pentagon, ORTH, 8)],
)
def test_rigid_search_builds_fractions_only_for_closure_points(
    monkeypatch, make_board, moves, max_length
):
    # window bounds and closure roots are integer pairs, so a search that
    # finds no cycle builds two Fractions per candidate closure point and
    # none elsewhere
    board = make_board()
    points_at, fraction_new = arrangement._points_at, Fraction.__new__
    built = points = 0

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return fraction_new(cls, *args, **kwargs)

    def spy(path, t):
        nonlocal points
        out = points_at(path, t)
        points += len(out)
        return out

    monkeypatch.setattr(arrangement, "_points_at", spy)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    cycles = enumerate_rigid_cycles(board, moves, max_length)
    monkeypatch.undo()
    assert cycles == []
    assert points > 0
    assert built == 2 * points


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


# (board, moves, a cycle length) with rigid cycles of length <= 6, which
# the random examples above seldom draw: a few in 200 hold any cycle
CYCLE_BEARING = [
    (Board.square, ORTH, 4),
    (_pentagon, (VERTICAL, canonical_move(2, -1)), 6),
    (_pentagon, (canonical_move(1, -3), canonical_move(2, 1)), 4),
    (_pentagon, (canonical_move(2, -3), canonical_move(2, 3)), 6),
    (_hexagon, (canonical_move(1, -3), canonical_move(1, 0)), 6),
    (_hexagon, (canonical_move(1, -1), canonical_move(2, 1)), 4),
    (_hexagon, (canonical_move(2, -3), canonical_move(2, 1)), 6),
]


@pytest.mark.parametrize("make_board, moves, length", CYCLE_BEARING)
def test_rigid_cycles_that_exist_match_the_fraction_oracle(
    make_board, moves, length
):
    board = make_board()
    cycles = enumerate_rigid_cycles(board, moves, 6)
    assert length in {len(t.points) for t in cycles}
    assert cycles == oracles.rigid_cycles(board, moves, 6)


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
    # the pairs with a diagonal move hold sliding families here
    (Board.square, canonical_move_pairs(3), 10, 18,
     "80fde1950c00f59bf04ac3b941cc625465fc77efe4c441796edfc0e12575e68a"),
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


def test_sliding_families_hold_no_rigid_cycle(square):
    # every bishop 4-cycle on the square closes up, so the closure
    # equation is 0 = 0; the oracle scans each sliding family for attack
    # coincidences, and the search, which skips them, finds the same
    cycles, scans = _search_calls("family_scan", square, BISHOP, 8,
                                  search=oracles.rigid_cycles)
    assert scans
    assert cycles == enumerate_rigid_cycles(square, BISHOP, 8) == []


def test_bishop_search_on_the_square_stays_fast():
    # the bishops' sliding families are not scanned: scanning them at
    # L = 16 takes tens of seconds
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    code = (
        "from riderflow import Board, canonical_move as m, "
        "enumerate_rigid_cycles\n"
        "print(len(enumerate_rigid_cycles(Board.square(), "
        "(m(1, 1), m(1, -1)), 16)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=20, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0\n"
