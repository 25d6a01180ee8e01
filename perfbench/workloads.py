"""The four benchmark workloads: seeded inputs, steps and answer checks.

A workload is a fixed list of steps built from the seed.  Each step is
one call into riderflow's public API; a step marked as an answer is one
trajectory (`orbits`), one denominator (`denominators`), one count value
(`periods`) or one CLI invocation (`cli`).  Steps look riderflow up
through the package at call time, so the traced run sees every call.

Only `orbits` and `denominators` depend on the seed; `periods` and
`cli` are the same list for every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import riderflow as rf
import riderflow.cli

import checks

F = Fraction
DATA = Path(__file__).resolve().parent / "data"
CLI_GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

SQUARE_CORNERS = ((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1)))
PENTAGON_CORNERS = (  # the pentagon of tests/conftest.py
    (F(0), F(0)), (F(1), F(0)), (F(3, 2), F(1)), (F(1, 2), F(2)), (F(-1, 2), F(1)),
)
INC = ((2, 1), (1, 2))
ORTH = ((2, 1), (1, -2))
LAT = ((2, 1), (2, -1))
BISHOP = ((1, 1), (1, -1))

ORBIT_PAIRS = (
    INC, ORTH, LAT,
    ((3, 1), (1, 2)), ((3, 2), (2, 3)), ((3, 1), (1, -3)),
    ((1, 3), (2, -1)), ((0, 1), (3, 1)),
)
# Points per long orbit; final coordinate denominators reach up to ~2,200 bits.
ORBIT_CAP = 500
# An orbit is long when it runs past SHORT_LIMIT points; a short one
# cycles or stops within them.  Each (board, move pair) slot takes the
# first long orbit among START_TRIES seeded starts, so the mix of long
# and short orbits is a property of the boards, not of the seed.
SHORT_LIMIT = 12
START_TRIES = 12
# The seeded polygons are drawn once from this fixed seed: a board's
# shape sets how fast its denominators grow, which would otherwise make
# the run's cost swing with the seed.  The run's seed picks the starts.
POLYGON_SEED = "orbit-boards"
POLYGON_SIZES = (3, 4, 5, 6)

PERIOD_PAIRS = {
    "BISHOP": BISHOP,
    "LAT": LAT,
    "ORTH": ORTH,
    "INC": INC,
    "MIRROR31": ((3, 1), (3, -1)),
    "ORTH3": ((3, 1), (1, -3)),
}
PERIOD_SERIES = ((2, 48), (3, 26))  # (q, n_max)

TABLE_NAMES = {INC: "INC", ORTH: "ORTH"}
SEEDED_DENOMINATOR_PAIRS = 10
# q ranges of the seeded pairs; they stay below the fixed list's largest
# answers so the tail percentile does not move with the seed.
SEEDED_Q = {"square": range(1, 6), "pentagon": range(1, 5)}


@dataclass(frozen=True)
class Step:
    label: str
    run: Callable[[], Any]
    answer: bool = True


@dataclass
class Workload:
    name: str
    steps: list
    check: Callable[[list], list]  # pass outputs -> per-step error or None
    digest: Callable[[Any], Any] = lambda output: output
    inputs: Any = None  # plain description of the generated inputs
    observe: Callable | None = None  # span observer for each traced step


def conftest_move_pairs(limit=4):
    """Unordered pairs of distinct canonical moves with |c|, |d| <= limit."""
    moves = sorted(
        {(m.c, m.d) for m in (rf.canonical_move(c, d) for c in range(limit + 1)
                              for d in range(-limit, limit + 1) if (c, d) != (0, 0))}
    )
    return [(a, b) for i, a in enumerate(moves) for b in moves[i + 1:]]


def _board(corners):
    return rf.Board.from_corners([rf.Point2(x, y) for x, y in corners])


def _moves(pair):
    return tuple(rf.canonical_move(c, d) for c, d in pair)


# ---------------------------------------------------------------------------
# orbits


def random_polygon(rng, size):
    """Strictly convex CCW polygon with corners on a grid of sixths."""
    while True:
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(size))
        corners = tuple(
            (F(round(6 * r * math.cos(a)), 6), F(round(6 * r * math.sin(a)), 6))
            for a, r in ((a, rng.uniform(0.7, 1.3)) for a in angles)
        )
        if len(set(corners)) == size and checks.convex_ccw(corners):
            return corners


def orbit_boards():
    """(name, corners): square, conftest pentagon and seeded 3-6-gons."""
    rng = random.Random(POLYGON_SEED)
    return [("square", SQUARE_CORNERS), ("pentagon", PENTAGON_CORNERS)] + [
        (f"{size}-gon", random_polygon(rng, size)) for size in POLYGON_SIZES
    ]


def orbit_inputs(seed):
    """(board name, corners, moves, start, first type, long?, prefix) list.

    One orbit per board and move pair: the first of START_TRIES seeded
    boundary starts (denominators 3-13) whose orbit is long, else the
    last one tried.  `prefix` is the orbit's first SHORT_LIMIT points by
    the benchmark's own bounce, used to check riderflow's answer.
    """
    rng = random.Random(f"orbits-{seed}")
    out = []
    for name, corners in orbit_boards():
        for pair in ORBIT_PAIRS:
            moves = tuple((m.c, m.d) for m in _moves(pair))
            for _ in range(START_TRIES):
                edge = rng.randrange(len(corners))
                (ax, ay), (bx, by) = corners[edge], corners[(edge + 1) % len(corners)]
                den = rng.randint(3, 13)
                t = F(rng.randint(1, den - 1), den)
                start = (ax + t * (bx - ax), ay + t * (by - ay))
                first = rng.choice((1, 2))
                prefix, ended = checks.bounce_prefix(
                    corners, moves, start, first, SHORT_LIMIT
                )
                if not ended:
                    break
            out.append((name, corners, moves, start, first, not ended, tuple(prefix)))
    return out


def orbits(seed):
    inputs = orbit_inputs(seed)
    steps = []
    for name, corners, moves, start, first, _long, _prefix in inputs:
        board = _board(corners)
        move_objs = _moves(moves)
        point = rf.Point2(*start)

        def run(board=board, move_objs=move_objs, point=point, first=first):
            return rf.trace(board, move_objs, point, first, max_points=ORBIT_CAP)

        steps.append(Step(f"{name} {moves} from {start[0]},{start[1]} type {first}", run))

    def check(outputs):
        errors = []
        for (name, corners, moves, start, first, long, prefix), traj in zip(
            inputs, outputs
        ):
            points = [(p.x, p.y) for p in traj.points]
            problems = checks.orbit_errors(corners, moves, first, points, prefix)
            if traj.first_move_type != first:
                problems.append("first move type changed")
            if long and len(points) <= SHORT_LIMIT:
                problems.append("orbit ended where the reference bounce runs on")
            if not long and len(points) != len(prefix):
                problems.append("orbit length differs from the reference bounce")
            errors.append("; ".join(problems) or None)
        return errors

    def digest(traj):
        return (traj.status.value, len(traj.points), hash(traj.points))

    return Workload("orbits", steps, check, digest, inputs)


# ---------------------------------------------------------------------------
# denominators


def denominator_inputs(seed):
    """(board name, moves, q, kind) list; kind is "engine" or "oracle"."""
    items = []
    for moves, qs in ((INC, range(1, 15)), (ORTH, range(1, 11))):
        items += [("square", moves, q, "engine") for q in qs]
    for moves in (INC, ORTH):
        items += [("pentagon", moves, q, "engine") for q in range(1, 9)]
    for board in ("square", "pentagon"):
        for moves in (INC, ORTH):
            items += [(board, moves, q, "oracle") for q in (1, 2)]
    rng = random.Random(f"denominators-{seed}")
    pool = [p for p in conftest_move_pairs() if p not in (INC, ORTH)]
    for moves in rng.sample(pool, SEEDED_DENOMINATOR_PAIRS):
        for board, qs in SEEDED_Q.items():
            items += [(board, moves, q, "engine") for q in qs]
        items += [("square", moves, q, "oracle") for q in (1, 2)]
    return items


def closed_form(moves, q):
    """The square-board closed form that covers these moves, or None."""
    (c1, d1), (c2, d2) = sorted(moves)
    if c1 == 1 and d1 <= -2 and c2 == -d1 and d2 == 1:
        return rf.closed_form_orthogonal(-d1, q)
    if c1 == c2 and d1 == -d2 and d2 > 0:
        return rf.closed_form_mirror(c2, d2, q)
    if min(c1, d1, c2, d2) > 0:
        s1, s2 = sorted((F(d1, c1), F(d2, c2)))
        if s1 < 1 < s2:
            return rf.closed_form_inclined(_moves(moves), q)
    return None


def denominators(seed):
    inputs = denominator_inputs(seed)
    boards = {"square": _board(SQUARE_CORNERS), "pentagon": _board(PENTAGON_CORNERS)}
    steps = []
    for board_name, moves, q, kind in inputs:
        board, move_objs = boards[board_name], _moves(moves)
        if kind == "engine":
            def run(board=board, move_objs=move_objs, q=q):
                return rf.denominator(board, move_objs, q).value
        else:
            def run(board=board, move_objs=move_objs, q=q):
                return rf.vertex_oracle(board, move_objs, q)
        steps.append(Step(f"{kind} {board_name} {moves} q={q}", run))

    def check(outputs):
        errors = [[] for _ in inputs]
        engine = {}
        for i, ((board, moves, q, kind), value) in enumerate(zip(inputs, outputs)):
            if kind == "engine":
                engine[(board, moves, q)] = (i, value)
        for i, ((board, moves, q, kind), value) in enumerate(zip(inputs, outputs)):
            if kind == "oracle":
                j, want = engine[(board, moves, q)]
                if value != want:
                    errors[i].append(f"oracle {value} != engine {want}")
                    errors[j].append(f"engine {want} != oracle {value}")
                continue
            if board == "square":
                table = checks.ACCEPTANCE_TABLE.get(TABLE_NAMES.get(moves), ())
                if q <= len(table) and value != table[q - 1]:
                    errors[i].append(f"table says {table[q - 1]}")
                expected = closed_form(moves, q)
                if expected is not None and value != expected:
                    errors[i].append(f"closed form says {expected}")
            nxt = engine.get((board, moves, q + 1))
            if nxt is not None and nxt[1] % value:
                errors[i].append(f"does not divide the q+1 value {nxt[1]}")
        return ["; ".join(e) or None for e in errors]

    return Workload("denominators", steps, check, inputs=inputs)


# ---------------------------------------------------------------------------
# periods


def periods(seed):
    del seed  # the series list is fixed
    steps = []
    series_info = []
    for name, pair in PERIOD_PAIRS.items():
        move_objs = _moves(pair)
        for q, n_max in PERIOD_SERIES:
            counts = {}
            first = len(steps)
            for n in range(1, n_max + 1):
                def run(move_objs=move_objs, q=q, n=n, counts=counts):
                    counts[n] = rf.count(move_objs, q, n)
                    return counts[n]
                steps.append(Step(f"count {name} q={q} n={n}", run))

            def run_fit(move_objs=move_objs, q=q, n_max=n_max, counts=counts):
                values = (rf.count(move_objs, q, 0),) + tuple(
                    counts[n] for n in range(1, n_max + 1)
                )
                series = rf.CountSeries(move_objs, q, values)
                period = rf.minimal_period(series)
                den = rf.denominator(rf.Board.square(), move_objs, q).value
                return period, den

            series_info.append((name, pair, q, n_max, first, len(steps)))
            steps.append(Step(f"period {name} q={q}", run_fit, answer=False))

    def check(outputs):
        errors = [None] * len(steps)
        for name, pair, q, n_max, first, fit_index in series_info:
            for n in range(1, n_max + 1):
                i = first + n - 1
                got = outputs[i]
                if q == 2:
                    want = checks.pair_count(pair, n)
                elif n <= checks.BRUTE_FORCE_N_MAX:
                    want = checks.brute_force_count(pair, q, n)
                else:
                    continue
                if got != want:
                    errors[i] = f"count {got}, independent count {want}"
            period, den = outputs[fit_index]
            if period is not None and den % period:
                errors[fit_index] = f"period {period} does not divide {den}"
            if name == "BISHOP" and period != checks.BISHOP_PERIODS[q]:
                errors[fit_index] = (
                    f"bishop period {period}, expected {checks.BISHOP_PERIODS[q]}"
                )
        return errors

    return Workload("periods", steps, check, inputs=list(PERIOD_PAIRS.items()))


# ---------------------------------------------------------------------------
# cli


def cli_commands():
    """Fixed argv lists and the exit code each must return.

    Arguments starting with "data/" name files beside this module.  The
    mix keeps the CLI's own layers (argument handling, output building,
    svgrender, floatsim) ahead of the exact engine it calls.
    """
    pentagon, problem = "data/pentagon.json", "data/problem.json"
    cmds = []
    for moves, start in ((INC, "1/3,0"), (ORTH, "1/5,0"), (((3, 1), (1, 2)), "0,2/7")):
        base = ["simulate", "--moves", *(f"{c},{d}" for c, d in moves),
                "--start", start, "--max-steps", "150"]
        cmds += [
            (base, 0),
            (base + ["--format", "json"], 0),
            (base + ["--format", "json", "--decimal"], 0),
            (base + ["--format", "svg"], 0),
        ]
    for slopes, start in ((("1/5", "-3"), "3/5,0"), (("1/4", "-2"), "1/2,0"),
                          (("1/3", "-5"), "2/3,0")):
        cmds.append((["float-sim", "--slopes", *slopes, "--start", start,
                      "--steps", "8000", "--limit", "orbit"], 0))
    cmds += [
        (["float-sim", "--slopes", "0.3", "-0.4", "--start", "0.61,0",
          "--steps", "1200", "--limit", "corner"], 0),
        (["float-sim", "--slopes", "1/3", "-3", "--start", "0.4,0",
          "--steps", "300", "--limit", "corner"], 0),
        (["float-sim", "--slopes", "1/2", "-2", "--start", "1/3,0",
          "--steps", "8000"], 0),
    ]
    for moves in (INC, ORTH, LAT, ((3, 1), (3, -1)), ((3, 1), (1, -3))):
        m = [f"{c},{d}" for c, d in moves]
        for q in (2, 4):
            cmds.append((["render", "--moves", *m, "--q", str(q)], 0))
        cmds.append((["corner-trajectories", "--moves", *m, "--max-steps", "24"], 0))
        cmds.append((["corner-trajectories", "--moves", *m, "--max-steps", "12",
                      "--decimal"], 0))
        for q in (2, 3):
            cmds.append((["denominator", "--moves", *m, "--q", str(q)], 0))
        for q in (2, 3, 5, 8):
            cmds.append((["closed-form", "--moves", *m, "--q", str(q)], 0))
    cmds += [
        (["render", "--moves", "2,1", "1,-2", "--q", "4", "--board", pentagon], 0),
        (["corner-trajectories", "--moves", "2,1", "1,2", "--board", pentagon], 0),
        (["denominator", "--moves", "2,1", "1,2", "--q", "4", "--board", pentagon], 0),
        (["rigid-cycles", "--moves", "2,1", "1,-2", "--max-len", "6"], 0),
        (["rigid-cycles", "--moves", "3,1", "1,-3", "--max-len", "6", "--decimal"], 0),
        (["rigid-cycles", "--moves", "2,1", "1,2", "--max-len", "5", "--board", pentagon], 0),
        (["rigid-cycles", "--moves", "1,1", "1,-1", "--max-len", "4"], 0),
        (["period", "--moves", "1,1", "1,-1", "--q", "2", "--n-max", "16"], 0),
        (["period", "--moves", "2,1", "2,-1", "--q", "2", "--n-max", "24", "--period", "2"], 0),
        (["period", "--moves", "2,1", "1,-2", "--q", "3", "--n-max", "12"], 3),
        (["count", "--moves", "2,1", "1,-2", "--q", "3", "--n-max", "12"], 0),
        (["conjecture", "--moves", "2,1", "2,-1", "--q", "2", "--n-max", "24"], 0),
        (["simulate", "--config", problem], 0),
        (["simulate", "--help"], 0),
        (["denominator", "--moves", "2,1", "4,2", "--q", "3"], 2),
    ]
    return cmds


def invoke(argv):
    """Run riderflow's CLI in process; (exit code, stdout text)."""
    argv = [str(DATA.parent / a) if a.startswith("data/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = riderflow.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad usage this way
            code = exc.code
    return code, out.getvalue()


def cli_digest(output):
    code, text = output
    return code, hashlib.sha256(text.encode()).hexdigest()


def cli(seed):
    del seed  # the command list is fixed
    cmds = cli_commands()
    steps = [
        Step(" ".join(argv), lambda argv=argv: invoke(argv)) for argv, _ in cmds
    ]
    golden = {
        tuple(item["argv"]): (item["exit"], item["sha256"])
        for item in json.loads(CLI_GOLDEN.read_text())
    }

    def check(outputs):
        errors = []
        for (argv, want_code), output in zip(cmds, outputs):
            code, sha = cli_digest(output)
            problems = []
            if code != want_code:
                problems.append(f"exit {code}, expected {want_code}")
            if golden.get(tuple(argv)) != (code, sha):
                problems.append("stdout or exit code differs from the golden run")
            errors.append("; ".join(problems) or None)
        return errors

    def observe(counts, args, kwargs, result, dt):
        counts["cli.stdout_bytes"] += len(result[1].encode())

    return Workload("cli", steps, check, cli_digest, inputs=cmds, observe=observe)


WORKLOADS = {
    "orbits": orbits,
    "denominators": denominators,
    "periods": periods,
    "cli": cli,
}


def build(name, seed):
    return WORKLOADS[name](seed)
