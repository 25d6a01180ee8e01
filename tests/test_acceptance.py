"""End-to-end checks of the headline results, one test per criterion.

Each test prints a single PASS/FAIL line (visible with -s or in the
captured output) plus timing, and asserts exact values throughout.
"""

import os
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb
from pathlib import Path

import riderflow

from riderflow import (
    Board,
    Point2,
    TrajectoryStatus,
    attractor_orbit,
    augment,
    canonical_move,
    closed_form_inclined,
    closed_form_mirror,
    closed_form_orthogonal,
    count,
    count_series,
    crossing_points,
    denominator,
    distances,
    enumerate_rigid_cycles,
    fit,
    minimal_period,
    simulate_float,
    trace,
    vertex_oracle,
)
import random

from conftest import edge_point

F = Fraction
SQUARE = Board.square()
INCLINED = (canonical_move(2, 1), canonical_move(1, 2))
ORTH = (canonical_move(2, 1), canonical_move(1, -2))
BISHOP = (canonical_move(1, 1), canonical_move(1, -1))
LATERAL = (canonical_move(2, 1), canonical_move(2, -1))


@contextmanager
def criterion(number, label, budget=None):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    elapsed = time.monotonic() - started
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
        )
    print(f"PASS criterion {number}: {label} ({elapsed:.2f}s)")


def test_criterion_1_denominator_tables():
    with criterion(1, "denominator tables for the four named riders"):
        tables = [
            (INCLINED, range(1, 6), [1, 2, 12, 24, 48]),
            (ORTH, range(1, 6), [1, 2, 20, 120, 240]),
            (LATERAL, range(1, 5), [1, 2, 4, 4]),
            (BISHOP, range(3, 6), [2, 2, 2]),
        ]
        for moves, qs, expected in tables:
            for q, want in zip(qs, expected):
                started = time.monotonic()
                got = denominator(SQUARE, moves, q).value
                assert got == want, (moves, q, got, want)
                assert time.monotonic() - started < 60


def test_criterion_2_closed_forms_match_engine():
    with criterion(2, "closed forms agree with the engine, zero mismatches"):
        for m in (2, 3, 4, 5):
            moves = (canonical_move(m, 1), canonical_move(1, -m))
            for q in range(1, 6):
                assert closed_form_orthogonal(m, q) \
                    == denominator(SQUARE, moves, q).value, (m, q)
        for c, d in ((2, 1), (3, 1), (3, 2), (5, 3)):
            moves = (canonical_move(c, d), canonical_move(c, -d))
            for q in range(1, 7):
                assert closed_form_mirror(c, d, q) \
                    == denominator(SQUARE, moves, q).value, (c, d, q)
        inclined_pairs = [
            ((2, 1), (1, 2)),
            ((3, 1), (1, 2)),
            ((3, 2), (2, 3)),
            ((4, 1), (1, 4)),
            ((5, 2), (1, 2)),
        ]
        for raw_a, raw_b in inclined_pairs:
            moves = (canonical_move(*raw_a), canonical_move(*raw_b))
            for q in range(1, 6):
                assert closed_form_inclined(moves, q) \
                    == denominator(SQUARE, moves, q).value, (raw_a, raw_b, q)


def test_criterion_3_rigid_cycles():
    with criterion(3, "rigid cycle census up to length 8"):
        for m in (2, 3):
            moves = (canonical_move(m, 1), canonical_move(-1, m))
            cycles = enumerate_rigid_cycles(SQUARE, moves, 8)
            assert len(cycles) == 1, (m, cycles)
            s = F(1, 1 + m)
            assert cycles[0].points == (
                Point2(s, 0),
                Point2(1, s),
                Point2(m * s, 1),
                Point2(0, m * s),
            ), m
        for c, d in ((1, 1), (2, 1), (3, 2), (5, 3)):
            moves = (canonical_move(c, d), canonical_move(c, -d))
            assert enumerate_rigid_cycles(SQUARE, moves, 8) == [], (c, d)


def test_criterion_4_crossing_points():
    with criterion(4, "exact crossing points of the two demo windows"):
        window_a = trace(SQUARE, INCLINED, Point2(0, 0), 1, max_points=2)
        window_b = trace(
            SQUARE, INCLINED, Point2(1, F(1, 4)), 1, max_points=4
        )
        plain = {
            c.point for c in crossing_points(SQUARE, window_a, window_b)
        }
        assert Point2(F(2, 3), F(1, 3)) in plain
        assert Point2(F(5, 6), F(1, 6)) not in plain
        augmented = {
            c.point
            for c in crossing_points(
                SQUARE,
                augment(SQUARE, INCLINED, window_a),
                augment(SQUARE, INCLINED, window_b),
            )
        }
        assert Point2(F(2, 3), F(1, 3)) in augmented
        assert Point2(F(5, 6), F(1, 6)) in augmented

        five = trace(SQUARE, ORTH, Point2(0, 0), 1, max_points=5)
        self_crossings = {
            c.point
            for c in crossing_points(SQUARE, augment(SQUARE, ORTH, five))
        }
        assert self_crossings == {Point2(F(1, 4), F(1, 8))}


def test_criterion_5_vertex_oracle_equivalence():
    pairs = [
        BISHOP,
        LATERAL,
        INCLINED,
        ORTH,
        (canonical_move(3, 1), canonical_move(1, -3)),
        (canonical_move(1, 3), canonical_move(3, -1)),
        (canonical_move(5, 2), canonical_move(2, -5)),
        (canonical_move(4, 3), canonical_move(1, 1)),
        (canonical_move(5, 1), canonical_move(1, -3)),
        (canonical_move(3, 2), canonical_move(2, 3)),
        (canonical_move(1, 2), canonical_move(1, -2)),
        (canonical_move(2, 1), canonical_move(0, 1)),
    ]
    assert len({frozenset(p) for p in pairs}) == 12
    with criterion(5, "vertex enumeration equals the engine", budget=30):
        for moves in pairs:
            for q in (1, 2):
                oracle = vertex_oracle(SQUARE, moves, q)
                engine = denominator(SQUARE, moves, q).value
                assert oracle == engine, (moves, q, oracle, engine)


def bishop_pair_polynomial(n):
    return comb(n * n, 2) - 4 * comb(n, 3) - 2 * comb(n, 2)


def test_criterion_6_period_fits():
    with criterion(6, "quasipolynomial periods from exact fits", budget=600):
        series = count_series(BISHOP, 2, 24)
        for n in range(len(series.values)):
            assert series.values[n] == bishop_pair_polynomial(n) \
                or n == 0
        assert minimal_period(series) == 1

        series3 = count_series(BISHOP, 3, 32)
        assert minimal_period(series3) == 2
        assert fit(series3, 1) is None

        lateral_series = count_series(LATERAL, 2, 40)
        period = minimal_period(lateral_series)
        assert period is not None and 2 % period == 0
        dvalue = denominator(SQUARE, LATERAL, 2).value
        assert dvalue % period == 0
        print(
            f"  lateral pairs: fitted period {period}, denominator "
            f"{dvalue}, equal: {period == dvalue}"
        )


def test_criterion_7_dynamics_properties():
    with criterion(7, "involution, endless traces, exact contraction, "
                      "float convergence"):
        rng = random.Random(20260822)
        from riderflow import antipode

        for moves in (INCLINED, ORTH, LATERAL, BISHOP):
            for _ in range(1000):
                p = edge_point(SQUARE, rng.randrange(4),
                               F(rng.randrange(65), 64))
                move = moves[rng.randrange(2)]
                assert antipode(SQUARE, move, antipode(SQUARE, move, p)) == p

        for raw in (((2, 1), (1, 2)), ((3, 1), (1, 2)), ((3, 2), (2, 3))):
            moves = tuple(canonical_move(*r) for r in raw)
            for start, first in (
                (Point2(F(1, 3), 0), 1),
                (Point2(0, F(2, 5)), 2),
                (Point2(F(1, 7), 1), 1),
            ):
                t = trace(SQUARE, moves, start, first, max_points=60)
                assert t.status is TrajectoryStatus.TRUNCATED, (raw, start)
                assert len(t.points) == 60

        moves = (canonical_move(5, 1), canonical_move(1, -3))
        m1, m2 = F(1, 5), F(-3)
        origin = attractor_orbit(m1, m2)[0]
        assert origin == Point2(F(2, 7), 0)
        b = Point2(F(1, 2), 0)
        for k in range(1, 6):
            t = trace(SQUARE, moves, b, 1, max_points=4 * k + 1)
            shrink = (m1 / m2) ** (2 * k)
            landed = t.points[4 * k]
            assert landed.x - origin.x == shrink * (b.x - origin.x), k
            assert landed.y - origin.y == shrink * (b.y - origin.y), k

        orbit = [(float(p.x), float(p.y)) for p in attractor_orbit(m1, m2)]
        path = simulate_float(SQUARE, (0.2, -3.0), (0.55, 0.0), steps=400)
        assert min(distances(path.points, orbit)[-10:]) < 1e-6

        corner_limit = trace(
            SQUARE,
            (canonical_move(10, 3), canonical_move(5, -2)),
            Point2(0, 0),
            1,
        )
        limit = [(float(p.x), float(p.y)) for p in corner_limit.points]
        path = simulate_float(SQUARE, (0.3, -0.4), (0.61, 0.0), steps=2000)
        dists = distances(path.points, limit)
        tail = dists[min(60, len(dists) - 1):]
        assert min(tail) < 1e-6


def test_criterion_8_byte_determinism():
    # the child interpreters import the same riderflow as this one
    src = str(Path(riderflow.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    with criterion(8, "byte-identical repeated and parallel runs"):
        commands = [
            ["denominator", "--moves", "2,1", "1,-2", "--q", "4"],
            ["count", "--moves", "1,1", "1,-1", "--q", "2",
             "--n-max", "10"],
            ["render", "--moves", "2,1", "1,-2", "--q", "4"],
        ]
        for args in commands:
            cmd = [sys.executable, "-m", "riderflow", *args]
            first = subprocess.run(
                cmd, capture_output=True, check=True, env=env
            )
            second = subprocess.run(
                cmd, capture_output=True, check=True, env=env
            )
            assert first.stdout == second.stdout and first.stdout, args

        cmd = [sys.executable, "-m", "riderflow", "render",
               "--moves", "2,1", "1,-2", "--q", "4"]
        procs = [
            subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
            for _ in range(3)
        ]
        outputs = [p.communicate()[0] for p in procs]
        assert all(p.returncode == 0 for p in procs)
        assert len(set(outputs)) == 1
