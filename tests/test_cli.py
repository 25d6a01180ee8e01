import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from riderflow import (
    Board,
    Point2,
    canonical_move,
    parse_point,
    parse_trajectory,
    point_denominator,
    trace,
)
from riderflow.cli import (
    ParallelMoves,
    ParseError,
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
    assert cfg.first_move == 1 and cfg.max_steps == 10_000


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


def test_parse_config_rejects_garbage():
    with pytest.raises(ParseError):
        parse_config("not json")
    with pytest.raises(ParseError):
        parse_config('{"moves": [[1, 1], [1, -1]], "bogus": 1}')
    with pytest.raises(ParseError):
        parse_config('{"board": "square"}')


def test_config_round_trip():
    texts = [
        '{"moves": [[2,1],[1,-2]], "q": 4, "start": ["1/3","0"]}',
        '{"board": {"corners": [["0","0"],["1","0"],["3/2","1"],'
        '["1/2","2"],["-1/2","1"]]}, "moves": [[1,1],[1,-1]],'
        ' "n_max": 12, "first_move": 2}',
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
    t = parse_trajectory(out)
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


def test_period_insufficient_data_exit(capsys):
    code, _, err = run_cli(
        capsys, "period", "--moves", "1,1", "1,-1", "--q", "3",
        "--n-max", "6",
    )
    assert code == 3
    assert "n-max" in err or "n =" in err


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


def test_zero_max_steps_keeps_the_start(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--moves", "2,1", "1,2", "--start", "1/3,0",
        "--max-steps", "0",
    )
    assert code == 0
    traj = parse_trajectory(out)
    assert traj.points == (Point2(F(1, 3), 0),)
    assert traj.status.value == "truncated"


@pytest.mark.parametrize("command", ["simulate", "corner-trajectories"])
def test_step_cap_above_the_limit_is_rejected(capsys, command):
    start = ["--start", "1/3,0"] if command == "simulate" else []
    argv = [command, "--moves", "2,1", "1,2", *start]
    code, out, _ = run_cli(capsys, *argv, "--max-steps", "10000")
    assert code == 0 and out
    code, out, err = run_cli(capsys, *argv, "--max-steps", "10001")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "10000" in err


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
    last = trace(
        Board.square(),
        (canonical_move(3, 2), canonical_move(2, 3)),
        Point2(F(1, 3), 0),
        1,
        max_points=10_001,
    ).points[-1]
    assert point_denominator(last).bit_length() > 14_300  # 4,300+ digits
    sys.set_int_max_str_digits(0)  # to parse the printed point back
    try:
        assert parse_point(out.rstrip("\n").rsplit("\n", 1)[1]) == last
    finally:
        sys.set_int_max_str_digits(limit)


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
