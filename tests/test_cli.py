import argparse
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
import riderflow.cli
import riderflow.counting
from riderflow import (
    Board,
    InsufficientData,
    InternalInvariantError,
    Point2,
    attractor_orbit,
    canonical_move,
    closed_form_orthogonal,
    conjecture_report,
    corner_trajectories,
    enumerate_rigid_cycles,
    format_trajectory,
    parse_point,
    point_denominator,
    trace,
)
from riderflow.cli import (
    MAX_CLOSED_FORM_Q,
    MAX_CORNER_POINTS,
    MAX_CORNERS,
    MAX_CYCLE_LENGTH,
    MAX_FLOAT_STEPS,
    MAX_N_MAX,
    MAX_N_MAX_AT_Q,
    MAX_PIECES,
    ParallelMoves,
    ParseError,
    build_parser,
    main,
    parse_config,
    serialize_config,
)

F = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- config parsing ---------------------------------------------------------


def test_parse_config_square():
    cfg = parse_config('{"board": "square", "moves": [[2, 1], [1, -2]]}')
    assert cfg.board == Board.square()
    assert [(m.c, m.d) for m in cfg.moves] == [(2, 1), (1, -2)]
    assert cfg.first_move == 1 and cfg.max_steps is None


def test_parse_config_explicit_board_and_start():
    cfg = parse_config(
        '{"board": {"corners": [["0","0"],["1","0"],["1","1"],["0","1"]]},'
        ' "moves": [[1,1],[1,-1]], "start": ["1/2", "0"], "q": 3}'
    )
    assert cfg.board == Board.square()
    assert cfg.start == Point2(F(1, 2), 0)
    assert cfg.q == 3


def test_parse_config_canonicalizes_moves():
    cfg = parse_config('{"moves": [[-2, -1], [2, -4]]}')
    assert [(m.c, m.d) for m in cfg.moves] == [(2, 1), (1, -2)]


def test_parse_config_rejects_parallel_moves():
    with pytest.raises(ParallelMoves):
        parse_config('{"moves": [[2, 4], [1, 2]]}')


MOVES_FIELD = '"moves": [[2, 1], [1, 2]]'


@pytest.mark.parametrize("text", [
    "not json",
    '{%s, "bogus": 1}' % MOVES_FIELD,
    '{"board": "square"}',
    '{"moves": 5}',
    '{"moves": [[2, null], [1, 2]]}',
    '{"moves": [[2, 1, 3], [1, 2]]}',
    '{%s, "first_move": [1]}' % MOVES_FIELD,
    '{%s, "board": [1, 2, 3]}' % MOVES_FIELD,
    '{%s, "board": {"corners": [[0, 0], [1, 0], [0]]}}' % MOVES_FIELD,
    '{%s, "start": 5}' % MOVES_FIELD,
    '{%s, "start": [1]}' % MOVES_FIELD,
    '{%s, "max_steps": null}' % MOVES_FIELD,
    '{%s, "q": [3]}' % MOVES_FIELD,
    '{%s, "q": 1e999}' % MOVES_FIELD,
    '{%s, "q": 2.7}' % MOVES_FIELD,
    '{%s, "first_move": true}' % MOVES_FIELD,
    '{%s, "max_steps": 1.9}' % MOVES_FIELD,
])
def test_parse_config_rejects_garbage(text):
    with pytest.raises(ParseError):
        parse_config(text)


# JSON numbers reach parse_rational as typed: through a float the first
# start was read as 1/10 and the second as the corner 0,0
@pytest.mark.parametrize("typed, exact", [
    ("0.10000000000000000001",
     "10000000000000000001/100000000000000000000"),
    ("1e-400", "1/1" + "0" * 400),
], ids=["digits", "exponent"])
def test_config_start_is_read_as_typed(capsys, tmp_path, typed, exact):
    cfg_file = tmp_path / "problem.json"
    cfg_file.write_text(
        '{%s, "start": [%s, 0], "max_steps": 0}' % (MOVES_FIELD, typed)
    )
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg_file))
    assert code == 0
    assert out.splitlines()[-1] == f"{exact},0"


def test_board_corner_is_read_as_typed(capsys, tmp_path):
    # through a float the corner was 3333333333333333/10000000000000000
    board_file = tmp_path / "board.json"
    board_file.write_text(
        '{"corners": [[0, 0], [1, 0.33333333333333333333333], [0, 1]]}'
    )
    code, out, _ = run_cli(
        capsys, "corner-trajectories", "--moves", "2,1", "1,2",
        "--board", str(board_file), "--max-steps", "0",
    )
    assert code == 0
    corners = [t["corner"] for t in json.loads(out)["trajectories"]]
    assert ["1", "33333333333333333333333/100000000000000000000000"] in corners


@pytest.mark.parametrize("route", ["--config", "--board"])
def test_malformed_config_or_board_file_exits_2(capsys, tmp_path, route):
    bad = tmp_path / "bad.json"
    if route == "--config":
        bad.write_text('{"moves": 5}')
        argv = ["--config", str(bad)]
    else:
        bad.write_text("[1, 2, 3]")
        argv = ["--moves", "2,1", "1,2", "--board", str(bad)]
    code, out, err = run_cli(capsys, "simulate", *argv, "--start", "0,0")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err


def test_board_file_that_is_not_json_names_it(capsys, tmp_path):
    bad = tmp_path / "board.json"
    bad.write_text('{"corners": [[0, 0] [1, 0], [0, 1]]}')
    code, out, err = run_cli(capsys, "denominator", "--moves", "2,1", "1,2",
                             "--q", "2", "--board", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: bad JSON in board file {bad}: ")


@pytest.mark.parametrize("command, flag", [
    ("denominator", "--board"),
    ("denominator", "--config"),
    ("float-sim", "--board"),
])
def test_file_nested_beyond_the_recursion_limit_exits_2(capsys, tmp_path,
                                                         command, flag):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    args = {"denominator": ["--moves", "2,1", "1,2", "--q", "2"],
            "float-sim": ["--slopes", "1/2", "2", "--start", "0,1/3"]}
    code, out, err = run_cli(capsys, command, *args[command], flag, str(deep))
    assert (code, out) == (2, "")
    where = f" in board file {deep}" if flag == "--board" else ""
    assert err.startswith(f"error: bad JSON{where}: ")


def test_missing_board_file_exits_2(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    code, out, err = run_cli(capsys, "denominator", "--moves", "2,1", "1,2",
                             "--q", "2", "--board", str(missing))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and str(missing) in err


def test_config_round_trip():
    texts = [
        '{"moves": [[2,1],[1,-2]], "q": 4, "start": ["1/3","0"]}',
        '{"board": {"corners": [["0","0"],["1","0"],["3/2","1"],'
        '["1/2","2"],["-1/2","1"]]}, "moves": [[1,1],[1,-1]],'
        ' "n_max": 12, "first_move": 2}',
        '{"moves": [[3,1],[1,-3]], "start": ["0","1/2"], "max_steps": 40}',
    ]
    for text in texts:
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg


# -- subcommands ------------------------------------------------------------


def test_simulate_text_round_trips(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--moves", "2,1", "1,-2",
        "--start", "0,0", "--max-steps", "4",
    )
    assert code == 0
    t = trace(Board.square(), (canonical_move(2, 1), canonical_move(1, -2)),
              Point2(0, 0), 1, max_points=5)
    assert out == format_trajectory(t)
    assert len(t.points) == 5
    assert t.points[-1] == Point2(F(5, 16), 0)


def test_simulate_json_decimal(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--moves", "2,1", "1,-2",
        "--start", "0,0", "--max-steps", "2", "--format", "json",
        "--decimal",
    )
    assert code == 0
    data = json.loads(out)
    assert data["points"][1]["exact"] == ["1", "1/2"]
    assert data["points"][1]["approx"] == [1.0, 0.5]


def test_simulate_requires_start(capsys):
    code, _, err = run_cli(capsys, "simulate", "--moves", "2,1", "1,-2")
    assert code == 2
    assert "start" in err


def test_denominator_json(capsys):
    code, out, _ = run_cli(
        capsys, "denominator", "--moves", "2,1", "1,2", "--q", "3"
    )
    assert code == 0
    data = json.loads(out)
    assert data["denominator"] == 12
    assert any(
        c["point"] == ["2/3", "1/3"] and c["category"] == "cross"
        for c in data["contributions"]
    )


def test_closed_form_families(capsys):
    code, out, _ = run_cli(
        capsys, "closed-form", "--moves", "2,1", "1,-2", "--q", "5"
    )
    assert code == 0 and json.loads(out)["denominator"] == 240
    code, out, _ = run_cli(
        capsys, "closed-form", "--moves", "2,1", "2,-1", "--q", "4"
    )
    assert code == 0 and json.loads(out)["family"] == "mirror"
    code, out, _ = run_cli(
        capsys, "closed-form", "--moves", "2,1", "1,2", "--q", "5"
    )
    assert code == 0 and json.loads(out)["family"] == "inclined"
    code, _, err = run_cli(
        capsys, "closed-form", "--moves", "2,1", "1,-3", "--q", "3"
    )
    assert code == 2
    assert "closed form" in err


def test_parallel_moves_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "denominator", "--moves", "2,4", "1,2", "--q", "2"
    )
    assert code == 2
    assert "same direction" in err


def test_count_csv(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--moves", "1,1", "1,-1", "--q", "2",
        "--n-max", "4",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,count"
    assert lines[3] == "2,4"


def test_period_json(capsys):
    code, out, _ = run_cli(
        capsys, "period", "--moves", "1,1", "1,-1", "--q", "2",
        "--n-max", "14",
    )
    assert code == 0
    data = json.loads(out)
    assert data["period"] == 1 and data["accepted"]
    assert len(data["constituents"]) == 1


def test_undecided_period_raises_insufficient_data():
    args = build_parser().parse_args([
        "period", "--moves", "2,1", "1,-2", "--q", "3", "--n-max", "12",
    ])
    with pytest.raises(InsufficientData) as err:
        args.func(args)
    # degree 6: periods 1 and 2 are tried from n = 8 and n = 16 on
    assert err.value.required_n_max == 16
    assert str(err.value) == (
        "period 2 at degree 6 needs counts up to n = 16, have 12"
    )


@pytest.mark.parametrize("argv, err", [
    (["period", "--moves", "1,1", "1,-1", "--q", "3", "--n-max", "6"],
     "error: period 1 at degree 6 needs counts up to n = 8, have 6\n"),
    (["period", "--moves", "1,1", "1,-1", "--q", "2", "--n-max", "10",
      "--period", "4"],
     "error: period 4 at degree 4 needs counts up to n = 24, have 10\n"),
    (["period", "--moves", "2,1", "1,-2", "--q", "3", "--n-max", "12"],
     "error: period 2 at degree 6 needs counts up to n = 16, have 12\n"),
    (["conjecture", "--moves", "2,1", "1,-2", "--q", "3", "--n-max", "20"],
     "n = 160"),
])
def test_insufficient_data_exits_3(capsys, argv, err):
    code, out, stderr = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert stderr.startswith("error:") and err in stderr


def test_internal_invariant_violation_exits_4(capsys, monkeypatch):
    def broken(*args):
        raise InternalInvariantError("a crossing off the board")

    monkeypatch.setattr(riderflow.cli, "denominator", broken)
    code, out, err = run_cli(
        capsys, "denominator", "--moves", "2,1", "1,2", "--q", "2"
    )
    assert (code, out) == (4, "")
    assert err == "internal invariant violated: a crossing off the board\n"


def test_counts_that_refute_the_denominator_exit_4(capsys, monkeypatch):
    # halved, INC's D at q = 3 is 6; counts to n = 60 reach 6 * 8 and
    # refute it, so more counts cannot help: the engine or counter is wrong
    real = riderflow.counting.denominator

    def halved(board, moves, q):
        report = real(board, moves, q)
        return replace(report, value=report.value // 2)

    monkeypatch.setattr(riderflow.counting, "denominator", halved)
    inc = (canonical_move(2, 1), canonical_move(1, 2))
    with pytest.raises(InternalInvariantError):
        conjecture_report(inc, 3, 60)
    code, out, err = run_cli(
        capsys, "conjecture", "--moves", "2,1", "1,2", "--q", "3",
        "--n-max", "60",
    )
    assert (code, out) == (4, "")
    assert err.startswith("internal invariant violated:")


# Each subcommand's option strings: what the shared-flag table and each
# subcommand's own flags must keep giving it.
OPTIONS = {
    "simulate": ["--board", "--config", "--decimal", "--first-move",
                 "--format", "--help", "--max-steps", "--moves", "--out",
                 "--start", "-h"],
    "float-sim": ["--board", "--first-move", "--help", "--limit", "--out",
                  "--slopes", "--start", "--steps", "-h"],
    "corner-trajectories": ["--board", "--config", "--decimal", "--help",
                            "--max-steps", "--moves", "--out", "-h"],
    "rigid-cycles": ["--board", "--config", "--decimal", "--help",
                     "--max-len", "--moves", "--out", "-h"],
    "denominator": ["--board", "--config", "--decimal", "--help", "--moves",
                    "--out", "--q", "-h"],
    "closed-form": ["--board", "--config", "--help", "--moves", "--out",
                    "--q", "-h"],
    "count": ["--board", "--config", "--help", "--moves", "--n-max",
              "--out", "--q", "-h"],
    "period": ["--board", "--config", "--help", "--moves", "--n-max",
               "--out", "--period", "--q", "-h"],
    "conjecture": ["--board", "--config", "--help", "--moves", "--n-max",
                   "--out", "--q", "-h"],
    "render": ["--board", "--config", "--help", "--moves", "--out", "--q",
               "-h"],
}


def test_every_subcommand_keeps_its_options():
    (commands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert {
        name: sorted(s for a in sub._actions for s in a.option_strings)
        for name, sub in commands.choices.items()
    } == OPTIONS


# Every action of every subcommand as argparse holds it: (option strings,
# dest, default, type name, choices, nargs, required, metavar, help).
def _action(options, dest, default=None, type=None, choices=None,
            nargs=None, required=False, metavar=None, help=None):
    return (options, dest, default, type, choices, nargs, required,
            metavar, help)


HELP = _action(["-h", "--help"], "help", "==SUPPRESS==", nargs=0,
               help="show this help message and exit")
CONFIG = _action(["--config"], "config", help="JSON problem config file")
MOVES = _action(["--moves"], "moves", nargs=2, metavar=("c1,d1", "c2,d2"),
                help="the two move vectors")
BOARD = _action(["--board"], "board", help=(
    '"square" (default) or a JSON file with a corner list'))
OUT = _action(["--out"], "out", help="output file (default: stdout)")
DECIMAL = _action(["--decimal"], "decimal", False, nargs=0, help=(
    "add approximate decimal coordinates to JSON output"))
Q = _action(["--q"], "q", type="int", help="number of pieces")
N_MAX = _action(["--n-max"], "n_max", type="int", help="largest board size")
FIRST_MOVE = _action(["--first-move"], "first_move", type="int",
                     choices=(1, 2),
                     help="move type of the first step (default 1)")
MAX_STEPS = _action(["--max-steps"], "max_steps", type="int",
                    help="step cap for traces")
PROBLEM = [HELP, CONFIG, MOVES, BOARD, OUT]

PARSER_RECORD = {
    "simulate": ("exact boundary trace", [
        *PROBLEM, DECIMAL,
        _action(["--start"], "start", help="boundary start point x,y"),
        FIRST_MOVE, MAX_STEPS,
        _action(["--format"], "format", "text",
                choices=("text", "json", "svg")),
    ]),
    "float-sim": ("floating-point bounce simulation", [
        HELP, BOARD, FIRST_MOVE, OUT,
        _action(["--slopes"], "slopes", nargs=2, required=True,
                metavar=("s1", "s2"), help="two line slopes as rationals"),
        _action(["--start"], "start", required=True,
                help="start point x,y"),
        _action(["--steps"], "steps", 1000, type="int"),
        _action(["--limit"], "limit", "none",
                choices=("none", "orbit", "corner"),
                help="reference set for the dist column"),
    ]),
    "corner-trajectories": (
        "trajectories through each corner (--max-steps 128 by default)",
        [*PROBLEM, DECIMAL, MAX_STEPS],
    ),
    "rigid-cycles": ("enumerate rigid cycles", [
        *PROBLEM, DECIMAL,
        _action(["--max-len"], "max_len", 8, type="int",
                help="largest cycle length searched"),
    ]),
    "denominator": ("denominator of the q-piece system",
                    [*PROBLEM, DECIMAL, Q]),
    "closed-form": ("family closed form for the denominator",
                    [*PROBLEM, Q]),
    "count": ("nonattacking placement counts", [*PROBLEM, Q, N_MAX]),
    "period": ("fit the counting quasipolynomial period", [
        *PROBLEM, Q, N_MAX,
        _action(["--period"], "period", type="int",
                help="test one period instead of searching"),
    ]),
    "conjecture": ("compare fitted period against denominator",
                   [*PROBLEM, Q, N_MAX]),
    "render": ("SVG picture of the system", [*PROBLEM, Q]),
}


def test_every_subcommand_keeps_its_parser():
    (commands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    summaries = {a.dest: a.help for a in commands._choices_actions}
    assert {
        name: (summaries[name], [
            _action(a.option_strings, a.dest, a.default,
                    a.type and a.type.__name__, a.choices, a.nargs,
                    a.required, a.metavar, a.help)
            for a in sub._actions
        ])
        for name, sub in commands.choices.items()
    } == PARSER_RECORD
    assert list(commands.choices) == list(PARSER_RECORD)


def test_period_explicit_rejected(capsys):
    code, out, _ = run_cli(
        capsys, "period", "--moves", "1,1", "1,-1", "--q", "3",
        "--n-max", "18", "--period", "1",
    )
    assert code == 0
    assert json.loads(out)["accepted"] is False


def test_conjecture_json(capsys):
    code, out, _ = run_cli(
        capsys, "conjecture", "--moves", "1,1", "1,-1", "--q", "2",
        "--n-max", "14",
    )
    assert code == 0
    data = json.loads(out)
    assert data == {
        "q": 2,
        "period": 1,
        "denominator": 1,
        "divides": True,
        "equal": True,
    }


def test_rigid_cycles_json(capsys):
    code, out, _ = run_cli(
        capsys, "rigid-cycles", "--moves", "2,1", "1,-2"
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1
    assert data["cycles"][0]["points"][0] == ["1/3", "0"]
    assert data["cycles"][0]["denominator"] == 3


def test_corner_trajectories_json(capsys):
    code, out, _ = run_cli(
        capsys, "corner-trajectories", "--moves", "10,3", "5,-2"
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["trajectories"]) == 8
    statuses = {t["status"] for t in data["trajectories"]}
    assert "stopped-both-ends" in statuses


def test_corner_trajectories_take_max_steps_from_config(capsys, tmp_path):
    cfg_file = tmp_path / "problem.json"
    cfg_file.write_text('{"moves": [[2, 1], [1, 2]], "max_steps": 2}')
    code, from_file, _ = run_cli(
        capsys, "corner-trajectories", "--config", str(cfg_file)
    )
    assert code == 0
    lengths = [len(t["points"]) for t in json.loads(from_file)["trajectories"]]
    assert lengths and max(lengths) == 3
    code, from_flag, _ = run_cli(
        capsys, "corner-trajectories", "--moves", "2,1", "1,2",
        "--max-steps", "2",
    )
    assert code == 0 and from_flag == from_file
    # the flag wins over the file; without either the cap is 128
    code, out, _ = run_cli(
        capsys, "corner-trajectories", "--config", str(cfg_file),
        "--max-steps", "4",
    )
    assert max(len(t["points"]) for t in json.loads(out)["trajectories"]) == 5
    code, out, _ = run_cli(
        capsys, "corner-trajectories", "--moves", "2,1", "1,2"
    )
    assert max(len(t["points"]) for t in json.loads(out)["trajectories"]) == 129


def test_corner_trajectories_write_to_a_file_what_they_print(
    capsys, tmp_path, pentagon
):
    board_file = tmp_path / "pentagon.json"
    board_file.write_text(json.dumps(
        [[str(c.x), str(c.y)] for c in pentagon.corners]
    ))
    argv = ["corner-trajectories", "--moves", "2,1", "1,2", "--board",
            str(board_file), "--max-steps", "24", "--decimal"]
    code, printed, _ = run_cli(capsys, *argv)
    assert code == 0
    data = json.loads(printed)
    assert data["board_corners"] == 5 and len(data["trajectories"]) == 10
    out_file = tmp_path / "corners.json"
    code, out, _ = run_cli(capsys, *argv, "--out", str(out_file))
    assert (code, out) == (0, "")
    assert out_file.read_bytes() == printed.encode()


def test_float_sim_rejects_negative_steps(capsys):
    code, out, err = run_cli(
        capsys, "float-sim", "--slopes", "1/5", "-3",
        "--start", "3/5,0", "--steps", "-5",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_count_with_more_pieces_than_lines_is_immediate():
    # 50 bishops never fit on boards up to 3x3; no q=50 flat is built
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "riderflow", "count", "--moves", "1,1",
         "1,-1", "--q", "50", "--n-max", "3"],
        capture_output=True, text=True, timeout=20,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "n,count\n0,0\n1,0\n2,0\n3,0\n"


def test_float_sim_csv(capsys):
    code, out, _ = run_cli(
        capsys, "float-sim", "--slopes", "1/5", "-3",
        "--start", "3/5,0", "--steps", "8", "--limit", "orbit",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "step,x,y,dist"
    assert len(lines) == 10
    last_dist = float(lines[-1].rsplit(",", 1)[1])
    assert last_dist < 1e-3


def test_float_sim_at_the_step_cap_matches_the_reference(capsys):
    code, out, _ = run_cli(
        capsys, "float-sim", "--slopes", "1/5", "-3", "--start", "3/5,0",
        "--steps", str(MAX_FLOAT_STEPS), "--limit", "orbit",
    )
    assert code == 0
    slopes = (Fraction(1, 5), Fraction(-3))
    points, reason = oracles.float_path_reference(
        Board.square(), slopes, (Fraction(3, 5), 0), steps=MAX_FLOAT_STEPS
    )
    assert reason is None and len(points) == MAX_FLOAT_STEPS + 1
    limit = [(p.x, p.y) for p in attractor_orbit(*slopes)]
    dists = oracles.nearest_distances_reference(points, limit)
    assert out == "step,x,y,dist\n" + "".join(
        f"{i},{x!r},{y!r},{d!r}\n"
        for i, ((x, y), d) in enumerate(zip(points, dists))
    )


def test_float_sim_halts_on_an_edge_parallel_to_the_move(capsys):
    # `simulate --moves 1,0 1,2 --start 1/3,0 --first-move 2` stops at
    # 5/6,1 too, on the top edge that the slope-0 move runs along
    code, out, _ = run_cli(
        capsys, "float-sim", "--slopes", "0", "2", "--start", "1/3,0",
        "--first-move", "2", "--steps", "5",
    )
    assert code == 0
    assert out == (
        "step,x,y,dist\n"
        "0,0.3333333333333333,0.0,\n"
        "1,0.8333333333333333,1.0,\n"
    )


def test_render_svg_output(capsys, tmp_path):
    out_file = tmp_path / "scene.svg"
    code = main(
        ["render", "--moves", "2,1", "1,-2", "--q", "4",
         "--out", str(out_file)]
    )
    assert code == 0
    svg = out_file.read_text()
    assert svg.startswith("<svg ")
    assert 'stroke="#2ca02c"' in svg  # the rigid cycle is highlighted


def test_config_file_drives_commands(capsys, tmp_path):
    cfg_file = tmp_path / "problem.json"
    cfg_file.write_text(
        '{"moves": [[2, 1], [1, 2]], "q": 3, "start": ["0", "0"]}'
    )
    code, out, _ = run_cli(
        capsys, "denominator", "--config", str(cfg_file)
    )
    assert code == 0
    assert json.loads(out)["denominator"] == 12
    # explicit flag overrides the config value
    code, out, _ = run_cli(
        capsys, "denominator", "--config", str(cfg_file), "--q", "4"
    )
    assert json.loads(out)["denominator"] == 24


def test_missing_config_file(capsys):
    code, _, err = run_cli(
        capsys, "denominator", "--config", "/nonexistent.json", "--q", "2"
    )
    assert code == 2


# (config file text or None, argv, error text): each reaches its own check
BAD_INPUTS = [
    (None, ["denominator", "--moves", "x,1", "1,2", "--q", "2"],
     "a move component must be an integer"),
    ('{%s, "board": 5}' % MOVES_FIELD, ["denominator", "--q", "2"],
     "board must be"),
    ("[1]", ["denominator", "--q", "2"], "config must be a JSON object"),
    ('{%s, "first_move": 3}' % MOVES_FIELD, ["denominator", "--q", "2"],
     "first_move must be 1 or 2"),
    ('{%s, "q": 2.7}' % MOVES_FIELD, ["denominator"],
     "q must be an integer"),
    # a config integer is a JSON integer, not a string of one
    ('{%s, "q": "3"}' % MOVES_FIELD, ["denominator"],
     "q must be an integer, got '3'"),
    ('{"moves": [["2", "1"], [1, 2]], "q": 2}', ["denominator"],
     "a move component must be an integer, got '2'"),
    (None, ["float-sim", "--slopes", "1/2", "1/2", "--start", "0,0"],
     "slopes must differ"),
]


@pytest.mark.parametrize("config, argv, message", BAD_INPUTS)
def test_bad_input_exits_2(capsys, tmp_path, config, argv, message):
    if config is not None:
        path = tmp_path / "problem.json"
        path.write_text(config)
        argv = [*argv, "--config", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and message in err


def test_repeated_runs_identical(capsys):
    args = ["denominator", "--moves", "2,1", "1,-2", "--q", "4"]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--moves", "2,1", "1,2", "--start", "1/3,0",
         "--max-steps", "-1"],
        ["corner-trajectories", "--moves", "2,1", "1,2",
         "--max-steps", "-1"],
        ["render", "--moves", "2,1", "1,2", "--q", "0"],
    ],
)
def test_nonpositive_trace_cap_is_rejected(capsys, argv):
    # a cap below one point would never stop these aperiodic orbits
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    if argv[0] == "render":  # by the option the user gave
        assert err == "error: q must be at least 1, got 0\n"


def test_zero_max_steps_keeps_the_start(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--moves", "2,1", "1,2", "--start", "1/3,0",
        "--max-steps", "0",
    )
    assert code == 0
    traj = trace(Board.square(), (canonical_move(2, 1), canonical_move(1, 2)),
                 Point2(F(1, 3), 0), 1, max_points=1)
    assert out == format_trajectory(traj)
    assert traj.points == (Point2(F(1, 3), 0),)
    assert traj.status.value == "truncated"


@pytest.mark.parametrize("command", ["simulate", "corner-trajectories"])
def test_step_cap_above_the_limit_is_rejected(capsys, command):
    # bishops close a 4-cycle from (1/2, 0) and halt within two points
    # from a corner, so the accepted cap costs no long trace
    start = ["--start", "1/2,0"] if command == "simulate" else []
    argv = [command, "--moves", "1,1", "1,-1", *start]
    code, out, _ = run_cli(capsys, *argv, "--max-steps", "10000")
    assert code == 0 and out
    code, out, err = run_cli(capsys, *argv, "--max-steps", "10001")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "10000" in err


@pytest.mark.parametrize("argv", [
    ["rigid-cycles", "--max-len"],
    ["render", "--q"],
    ["denominator", "--q"],
    ["conjecture", "--n-max", "8", "--q"],
])
def test_search_length_above_the_cap_is_rejected(capsys, argv):
    code, out, err = run_cli(
        capsys, argv[0], "--moves", "2,1", "1,-2", *argv[1:],
        str(MAX_CYCLE_LENGTH + 1),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(MAX_CYCLE_LENGTH) in err


@pytest.mark.parametrize("command", ["render", "denominator", "conjecture"])
def test_search_length_above_the_cap_in_config_is_rejected(
    capsys, tmp_path, command
):
    cfg_file = tmp_path / "problem.json"
    cfg_file.write_text(
        '{"moves": [[2, 1], [1, -2]], "n_max": 8, '
        f'"q": {MAX_CYCLE_LENGTH + 1}}}'
    )
    code, out, err = run_cli(capsys, command, "--config", str(cfg_file))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(MAX_CYCLE_LENGTH) in err


@pytest.mark.parametrize("command", ["simulate", "corner-trajectories"])
def test_step_cap_above_the_limit_in_config_is_rejected(
    capsys, tmp_path, command
):
    cfg_file = tmp_path / "problem.json"
    cfg_file.write_text(
        '{"moves": [[2, 1], [1, 2]], "start": "1/3,0", "max_steps": 10001}'
    )
    code, out, err = run_cli(capsys, command, "--config", str(cfg_file))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "10000" in err


@pytest.mark.parametrize("route", ["flag", "config"])
def test_corner_points_above_the_cap_are_rejected(
    capsys, tmp_path, pentagon, route
):
    # two traces from each of 5 corners: 7,999 steps is the most that
    # fits, so 8,000 is refused before anything is traced
    steps = 8000
    assert 10 * steps <= MAX_CORNER_POINTS < 10 * (steps + 1)
    corners = [[str(c.x), str(c.y)] for c in pentagon.corners]
    cfg_file = tmp_path / "problem.json"
    fields = {"moves": [[2, 1], [1, 2]], "board": {"corners": corners}}
    if route == "flag":
        cfg_file.write_text(json.dumps(fields))
        argv = ["--config", str(cfg_file), "--max-steps", str(steps)]
    else:
        cfg_file.write_text(json.dumps({**fields, "max_steps": steps}))
        argv = ["--config", str(cfg_file)]
    code, out, err = run_cli(capsys, "corner-trajectories", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and str(MAX_CORNER_POINTS) in err


@pytest.mark.parametrize(
    "command", ["closed-form", "count", "period", "conjecture", "render"]
)
def test_decimal_is_refused_where_no_points_are_printed(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--moves", "1,1", "1,-1", "--q", "2", "--decimal"])
    assert exc.value.code == 2
    assert "--decimal" in capsys.readouterr().err


# sha256 of the 10,001-point orbit that the test below prints
DIGIT_LIMIT_ORBIT_SHA256 = (
    "9b0c5e3ad36a5d6717d8ce82ba26c194d00399da9f783dd54cb2427aaf394eca"
)


@pytest.mark.slow
def test_simulate_prints_coordinates_beyond_the_digit_limit(capsys):
    # at the default cap this orbit's coordinates pass 4,300 digits,
    # CPython's default limit for int-to-str conversion
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(
        capsys, "simulate", "--moves", "3,2", "2,3", "--start", "1/3,0"
    )
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    assert hashlib.sha256(out.encode()).hexdigest() == DIGIT_LIMIT_ORBIT_SHA256
    sys.set_int_max_str_digits(0)  # to parse the printed point back
    try:
        last = parse_point(out.rstrip("\n").rsplit("\n", 1)[1])
    finally:
        sys.set_int_max_str_digits(limit)
    assert point_denominator(last).bit_length() > 14_300  # 4,300+ digits


def test_rigid_cycles_reject_a_negative_length(capsys):
    code, out, err = run_cli(
        capsys, "rigid-cycles", "--moves", "2,1", "1,-2", "--max-len", "-3"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    code, out, _ = run_cli(
        capsys, "rigid-cycles", "--moves", "2,1", "1,-2", "--max-len", "3"
    )
    assert code == 0 and json.loads(out)["count"] == 0


def test_closed_form_prints_values_beyond_the_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(
        capsys, "closed-form", "--moves", "3,1", "1,-3", "--q", "9200"
    )
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    value = closed_form_orthogonal(3, 9200)
    assert value.bit_length() > 14_300  # 4,300+ digits
    sys.set_int_max_str_digits(0)  # to parse the printed value back
    try:
        assert json.loads(out)["denominator"] == value
    finally:
        sys.set_int_max_str_digits(limit)


# (command, option, config field, value above its cap, other options)
SIZE_CAPS = [
    ("closed-form", "--q", "q", MAX_CLOSED_FORM_Q + 1, {}),
    ("count", "--q", "q", MAX_PIECES + 1, {"n_max": 8}),
    ("period", "--q", "q", MAX_PIECES + 1, {"n_max": 8}),
    ("conjecture", "--q", "q", MAX_PIECES + 1, {"n_max": 8}),
    ("count", "--n-max", "n_max", MAX_N_MAX + 1, {"q": 2}),
    ("period", "--n-max", "n_max", MAX_N_MAX + 1, {"q": 2}),
    ("conjecture", "--n-max", "n_max", MAX_N_MAX + 1, {"q": 2}),
    *(
        ("count", "--n-max", "n_max", cap + 1, {"q": q})
        for q, cap in sorted(MAX_N_MAX_AT_Q.items())
    ),
    ("period", "--n-max", "n_max", MAX_N_MAX_AT_Q[4] + 1, {"q": 4}),
    ("conjecture", "--n-max", "n_max", MAX_N_MAX_AT_Q[4] + 1, {"q": 4}),
]


@pytest.mark.parametrize("command, option, field, value, rest", SIZE_CAPS)
def test_size_above_its_cap_is_rejected(
    capsys, tmp_path, command, option, field, value, rest
):
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in rest.items()]
    code, out, err = run_cli(
        capsys, command, "--moves", "3,1", "1,-3", *flags,
        option, str(value),
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and str(value - 1) in err
    cfg_file = tmp_path / "problem.json"
    cfg_file.write_text(json.dumps(
        {"moves": [[3, 1], [1, -3]], field: value, **rest}
    ))
    code, out, err = run_cli(capsys, command, "--config", str(cfg_file))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and str(value - 1) in err


@pytest.mark.parametrize(
    "command", ["count", "period", "conjecture", "closed-form"]
)
@pytest.mark.parametrize("route", ["flag", "config"])
def test_square_only_command_rejects_another_board(
    capsys, tmp_path, command, route
):
    pentagon = [["0", "0"], ["1", "0"], ["3/2", "1"], ["1/2", "2"],
                ["-1/2", "1"]]
    square = [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]
    rotated = square[1:] + square[:1]
    fields = {"moves": [[1, 1], [1, -1]], "q": 2}
    if command != "closed-form":
        fields["n_max"] = 6
    board_file = tmp_path / "board.json"
    cfg_file = tmp_path / "problem.json"
    # the unit square written as corners, from any corner, passes
    for corners, rejected in (
        (pentagon, True), (square, False), (rotated, False)
    ):
        if route == "flag":
            board_file.write_text(json.dumps({"corners": corners}))
            cfg_file.write_text(json.dumps(fields))
            argv = ["--config", str(cfg_file), "--board", str(board_file)]
        else:
            cfg_file.write_text(
                json.dumps({**fields, "board": {"corners": corners}})
            )
            argv = ["--config", str(cfg_file)]
        code, out, err = run_cli(capsys, command, *argv)
        if rejected:
            assert (code, out) == (2, "")
            assert err.startswith("error:") and "square" in err
        else:
            assert (code, err) == (0, "") and out


# Edge offsets over 3 give the edges' integer rows different scales.
THIRDS_BOARD = {"corners": [["0", "0"], ["1", "1/3"], ["4/3", "2"],
                            ["1/3", "5/3"], ["-1/3", "2/3"]]}


@pytest.mark.parametrize("argv, digest", [
    (["float-sim", "--slopes", "1/5", "-3", "--start", "5/6,11/6",
      "--steps", "3000", "--limit", "corner"],
     "3d12d532618261140e6997af0bf82b0fd18de4baa59ef608f77b24827a0c2b31"),
    (["float-sim", "--slopes", "1/5", "-3", "--start", "1/2,1/6",
      "--steps", "3000", "--limit", "corner"],
     "aa5f170e2c60aa2f4acfaa2f1f0b3d44043ab0cd7ea724eddfb85bbec24d1660"),
    (["denominator", "--moves", "2,1", "1,-2", "--q", "6"],
     "b96c7f8d035a20a35769b369f8a4e5841b5e32f3c21c7fcf10d36944df5ec099"),
    (["render", "--moves", "3,1", "1,-3", "--q", "5"],
     "ba765793e0fd532c454b1a3b5932e3fc1b988bec8323af95a8ad8f8fb0484cea"),
    (["corner-trajectories", "--moves", "2,1", "1,-2", "--max-steps", "60"],
     "07414f134a0e49e1a7cdc3ffd659eef6e25ccfb6fac0fec3d0e13a41d518410b"),
])
def test_output_on_a_board_with_differing_edge_scales(
    capsys, tmp_path, argv, digest
):
    board_file = tmp_path / "thirds.json"
    board_file.write_text(json.dumps(THIRDS_BOARD))
    code, out, err = run_cli(capsys, *argv, "--board", str(board_file))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# (command, [(flag, config field, its value, another value)]); BOARD
# stands for a file holding THIRDS_BOARD
ONE_INPUT_PATH = [
    ("simulate", [
        (["--moves", "2,1", "1,2"], "moves", [[2, 1], [1, 2]],
         [[2, 1], [1, -2]]),
        (["--board", "BOARD"], "board", THIRDS_BOARD, "square"),
        (["--start", "1/2,1/6"], "start", ["1/2", "1/6"], "7/6,7/6"),
        (["--first-move", "2"], "first_move", 2, 1),
        (["--max-steps", "50"], "max_steps", 50, 7),
    ]),
    ("denominator", [
        (["--moves", "2,1", "1,-2"], "moves", [[2, 1], [1, -2]],
         [[2, 1], [1, 2]]),
        (["--q", "3"], "q", 3, 2),
    ]),
    ("count", [
        (["--moves", "1,1", "1,-1"], "moves", [[1, 1], [1, -1]],
         [[2, 1], [1, -2]]),
        (["--q", "2"], "q", 2, 1),
        (["--n-max", "6"], "n_max", 6, 4),
    ]),
]


@pytest.mark.parametrize(
    "command, options", ONE_INPUT_PATH, ids=[c for c, _ in ONE_INPUT_PATH]
)
def test_flags_and_config_fields_are_one_input(
    capsys, tmp_path, command, options
):
    board_file = tmp_path / "board.json"
    board_file.write_text(json.dumps(THIRDS_BOARD))
    cfg_file = tmp_path / "problem.json"

    def flag_argv(flag):
        return [str(board_file) if a == "BOARD" else a for a in flag]

    def run_with_file(fields, *argv):
        cfg_file.write_text(json.dumps(fields))
        return run_cli(capsys, command, "--config", str(cfg_file), *argv)

    flags = [a for flag, *_ in options for a in flag_argv(flag)]
    printed = run_cli(capsys, command, *flags)
    assert printed[0] == 0 and printed[1] and printed[2] == ""
    fields = {field: value for _, field, value, _ in options}
    assert run_with_file(fields) == printed
    # each flag overrides its field in the file
    for flag, field, _, other in options:
        changed = {**fields, field: other}
        assert run_with_file(changed) != printed
        assert run_with_file(changed, *flag_argv(flag)) == printed


@pytest.mark.parametrize("board, start", [
    (None, "2,5"),
    (THIRDS_BOARD, "1/2,0"),
])
def test_float_sim_refuses_a_start_outside_the_board(
    capsys, tmp_path, board, start
):
    board_args = []
    if board is not None:
        board_file = tmp_path / "board.json"
        board_file.write_text(json.dumps(board))
        board_args = ["--board", str(board_file)]
    code, out, err = run_cli(
        capsys, "float-sim", "--slopes", "1/5", "-3", "--start", start,
        "--steps", "5", *board_args,
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "outside the board" in err


PENTAGON_BOARD = {"corners": [["0", "0"], ["1", "0"], ["3/2", "1"],
                              ["1/2", "2"], ["-1/2", "1"]]}


# Each flag that takes a number, given as "-" and a digit in a form that
# argparse alone reads as a flag, and the same value in a form that it
# reads as a value: both print the same.
FLOAT_SIM = ["float-sim", "--start", "1/3,0", "--limit", "corner",
             "--slopes", "1/3"]
ON_PENTAGON = ["--board", "BOARD", "--moves", "2,1", "1,-2", "--start"]
NEGATIVE_VALUES = {
    "--slopes p/q": (FLOAT_SIM + ["-2/5"], FLOAT_SIM + ["-0.4"]),
    "--slopes exponent": (FLOAT_SIM + ["-2e-1"], FLOAT_SIM + ["-0.2"]),
    "float-sim --start": (
        ["float-sim", "--slopes", "1/2", "-2", "--board", "BOARD",
         "--start", "-1/2,1"],
        ["float-sim", "--slopes", "1/2", "-2", "--board", "BOARD",
         "--start=-1/2,1"],
    ),
    "simulate --start": (["simulate", *ON_PENTAGON, "-1/2,1"],
                         ["simulate", *ON_PENTAGON[:-1], "--start=-1/2,1"]),
    "--moves": (
        ["simulate", "--start", "0,1/3", "--max-steps", "50", "--moves",
         "2,1", "-1,2"],
        ["simulate", "--start", "0,1/3", "--max-steps", "50", "--moves",
         "2,1", "1,-2"],
    ),
}


@pytest.mark.parametrize("argv, same", NEGATIVE_VALUES.values(),
                         ids=NEGATIVE_VALUES)
def test_a_negative_value_is_not_read_as_a_flag(capsys, tmp_path, argv,
                                                same):
    board_file = tmp_path / "board.json"
    board_file.write_text(json.dumps(PENTAGON_BOARD))

    def run(argv):
        return run_cli(capsys, *[
            str(board_file) if a == "BOARD" else a for a in argv
        ])

    code, out, err = run(argv)
    assert (code, err) == (0, "") and out
    assert run(same) == (0, out, "")


def _regular_corners(k):
    """k integer corners near a circle, strictly convex, counterclockwise."""
    radius = k
    while True:
        corners = [
            (round(radius * math.cos(2 * math.pi * i / k + 0.1)),
             round(radius * math.sin(2 * math.pi * i / k + 0.1)))
            for i in range(k)
        ]
        try:
            Board.from_corners(corners)
            return [[str(x), str(y)] for x, y in corners]
        except ValueError:
            radius *= 2


@pytest.mark.parametrize("route", ["flag", "config", "float-sim"])
def test_board_with_too_many_corners_is_rejected(capsys, tmp_path, route):
    board_file = tmp_path / "board.json"
    for k, ok in ((MAX_CORNERS, True), (MAX_CORNERS + 1, False)):
        corners = _regular_corners(k)
        board_file.write_text(json.dumps({"corners": corners}))
        if route == "flag":
            argv = ["denominator", "--moves", "2,1", "1,-2", "--q", "1",
                    "--board", str(board_file)]
        elif route == "config":
            board_file.write_text(json.dumps(
                {"moves": [[2, 1], [1, -2]], "q": 1,
                 "board": {"corners": corners}}
            ))
            argv = ["denominator", "--config", str(board_file)]
        else:
            (x0, y0), (x1, y1) = corners[:2]
            argv = ["float-sim", "--slopes", "1/2", "-2", "--start",
                    f"{int(x0) + int(x1)}/2,{int(y0) + int(y1)}/2",
                    "--steps", "3", "--board", str(board_file)]
        code, out, err = run_cli(capsys, *argv)
        if ok:
            assert (code, err) == (0, "") and out
        else:
            assert (code, out) == (2, "")
            assert err.startswith("error:") and str(MAX_CORNERS) in err


def test_float_sim_orbit_limit_is_refused_off_the_square(capsys, tmp_path):
    board_file = tmp_path / "board.json"
    board_file.write_text(json.dumps({"corners": [
        ["0", "0"], ["1", "0"], ["3/2", "1"], ["1/2", "2"], ["-1/2", "1"]
    ]}))
    code, out, err = run_cli(
        capsys, "float-sim", "--slopes", "1/5", "-3", "--start", "1,0",
        "--limit", "orbit", "--board", str(board_file),
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "square" in err


# a corner beyond the float range; the first corner converts, so
# corner-trajectories --decimal must refuse before printing its windows
HUGE_CORNER_BOARD = {"corners": [["0", "0"], ["1e400", "0"], ["0", "1"]]}


@pytest.mark.parametrize("argv, named", [
    (["simulate", "--moves", "2,1", "1,2", "--start", "1e5000,0"],
     "exponent 5000"),
    (["float-sim", "--slopes", "1e400", "-3", "--start", "1/2,0",
      "--steps", "3"], None),
    (["simulate", "--moves", "2,1", "1,2", "--start", "1e399,0",
      "--max-steps", "3", "--format", "json", "--decimal", "--board"],
     None),
    (["corner-trajectories", "--moves", "2,1", "1,2", "--max-steps", "3",
      "--decimal", "--board"], None),
], ids=["exponent", "slope", "simulate-decimal", "corner-decimal"])
def test_hostile_numbers_exit_2(capsys, tmp_path, argv, named):
    if argv[-1] == "--board":
        board_file = tmp_path / "board.json"
        board_file.write_text(json.dumps(HUGE_CORNER_BOARD))
        argv = [*argv, str(board_file)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    if named is not None:
        assert named in err


def test_float_sim_steps_above_the_cap_are_rejected(capsys):
    code, out, err = run_cli(
        capsys, "float-sim", "--slopes", "1/5", "-3", "--start", "3/5,0",
        "--steps", str(MAX_FLOAT_STEPS + 1),
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and str(MAX_FLOAT_STEPS) in err


@pytest.mark.parametrize("q, lengths", [(2, [2, 4]), (5, [5])])
def test_render_searches_each_cycle_length_once(
    capsys, monkeypatch, q, lengths
):
    searched = []

    def spy(board, moves, max_length):
        searched.append(max_length)
        return enumerate_rigid_cycles(board, moves, max_length)

    # the package's `denominator` attribute is the function, not the module
    for module in (riderflow.cli, sys.modules["riderflow.denominator"]):
        monkeypatch.setattr(module, "enumerate_rigid_cycles", spy)
    code, out, _ = run_cli(
        capsys, "render", "--moves", "2,1", "1,-2", "--q", str(q)
    )
    assert code == 0
    assert 'stroke="#2ca02c"' in out  # the rigid 4-cycle is highlighted
    assert searched == lengths


@pytest.mark.parametrize("q", [2, 5])
def test_render_traces_its_corner_windows_once(capsys, monkeypatch, q):
    traced = []

    def spy(board, moves, max_points):
        traced.append(max_points)
        return corner_trajectories(board, moves, max_points)

    for module in (riderflow.cli, sys.modules["riderflow.denominator"]):
        monkeypatch.setattr(module, "corner_trajectories", spy)
    code, out, _ = run_cli(
        capsys, "render", "--moves", "2,1", "1,-2", "--q", str(q)
    )
    assert code == 0 and out
    assert traced == [q]


# each printed an empty table, exited 3 or printed a closed form for a
# negative q
HOSTILE_SIZES = [
    ["count", "--moves", "1,1", "1,-1", "--q", "2", "--n-max", "-3"],
    ["period", "--moves", "1,1", "1,-1", "--q", "2", "--n-max", "-3"],
    ["conjecture", "--moves", "1,1", "1,-1", "--q", "2", "--n-max", "-3"],
    ["closed-form", "--moves", "2,1", "1,2", "--q", "-1"],
]


def _run_module(*argv):
    """`python -m riderflow` with this checkout's src on PYTHONPATH."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "riderflow", *argv],
        capture_output=True, text=True, timeout=20,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.mark.parametrize("argv", HOSTILE_SIZES)
def test_hostile_size_exits_2(argv):
    done = _run_module(*argv)
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert done.stderr.startswith("error:")


def test_module_entry_point_prints_what_main_prints(capsys):
    argv = ["count", "--moves", "1,1", "1,-1", "--q", "2", "--n-max", "4"]
    code, out, _ = run_cli(capsys, *argv)
    done = _run_module(*argv)
    assert code == 0 and out
    assert (done.returncode, done.stdout) == (0, out), done.stderr
    help_run = _run_module("--help")
    assert help_run.returncode == 0 and help_run.stdout.startswith("usage:")


def test_module_prints_a_long_orbit_byte_for_byte():
    # the bytes recorded before the trace's gcds were bounded by the
    # board's edge integers
    done = _run_module(
        "simulate", "--moves", "2,1", "1,2", "--start", "1/3,0",
        "--max-steps", "2000",
    )
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == (
        "9c7e4ec7fefe8147b2af275de71813ccfd4f1a14946ad62998af24a0fd80b9c4"
    )


def test_module_writes_to_out_what_it_prints(tmp_path):
    argv = ["corner-trajectories", "--moves", "2,1", "1,2",
            "--max-steps", "24"]
    printed = _run_module(*argv)
    written = _run_module(*argv, "--out", str(tmp_path / "written.json"))
    assert printed.returncode == 0 and printed.stdout
    assert (written.returncode, written.stdout) == (0, "")
    assert (tmp_path / "written.json").read_bytes() == printed.stdout.encode()


def test_module_counts_on_the_square_listed_from_another_corner(
    capsys, tmp_path
):
    argv = ["count", "--moves", "1,1", "1,-1", "--q", "2", "--n-max", "3"]
    board_file = tmp_path / "rotated.json"
    board_file.write_text(json.dumps(
        {"corners": [["1", "0"], ["1", "1"], ["0", "1"], ["0", "0"]]}
    ))
    done = _run_module(*argv, "--board", str(board_file))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert (done.returncode, done.stdout) == (0, out), done.stderr


def test_module_refuses_a_flag_the_command_lacks():
    # the fit degree is always 2q: period has no --degree flag
    done = _run_module(
        "period", "--moves", "1,1", "1,-1", "--q", "2", "--n-max", "16",
        "--degree", "4",
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert "unrecognized arguments: --degree 4" in done.stderr


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(heading, language):
    """The first fenced `language` block in README's section `heading`."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_quick_tour_runs(capsys, tmp_path):
    commands = [
        shlex.split(line)[1:]
        for line in _readme_block("Quick tour", "sh").splitlines()
        if line.startswith("riderflow ")
    ]
    assert len(commands) == 9
    for argv in commands:
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv[at] = str(tmp_path / argv[at])
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        if "--out" in argv:
            out = Path(argv[at]).read_text()
        assert out, argv


def test_readme_library_example_prints_its_values(capsys):
    exec(_readme_block("Library use", "python"), {})
    assert capsys.readouterr().out == "120\ncyclic 4\n"
