"""Command-line workbench for the two-move rider system.

Subcommands cover exact tracing, float simulation, rigid-cycle and
crossing enumeration, denominator computation and closed forms,
placement counting, and period fitting, with JSON/CSV/SVG output.
All output is deterministic: identical invocations produce identical
bytes.

Exit codes: 0 success, 2 validation or parse error, 3 insufficient
data to decide a period, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, fields
from functools import cache
from math import lcm
from pathlib import Path

from .arrangement import enumerate_rigid_cycles
from .counting import (
    InsufficientData,
    count_series,
    fit,
    minimal_period,
    conjecture_report,
)
from .denominator import (
    attractor_orbit,
    closed_form_inclined,
    closed_form_mirror,
    closed_form_orthogonal,
    denominator,
)
from .dynamics import (
    TrajectoryStatus,
    corner_trajectories,
    format_trajectory,
    trace,
)
from .floatsim import distances, simulate_float
from .geometry import (
    Board,
    InternalInvariantError,
    Point2,
    _unlimited_digits,
    canonical_move,
    format_point,
    parse_point,
    parse_rational,
    point_denominator,
)
from .svgrender import RenderPath, RenderSpec, render_svg


class ParseError(ValueError):
    pass


class ParallelMoves(ValueError):
    pass


# Largest step cap of simulate and corner-trajectories: memory grows with
# the square of the steps when denominators grow with every step.
MAX_STEPS = 10_000

# corner-trajectories traces two trajectories from each corner; all their
# points together are capped at what the square's take at MAX_STEPS.
MAX_CORNER_POINTS = 2 * 4 * (MAX_STEPS + 1)

# Longest rigid cycle that rigid-cycles, denominator, conjecture and
# render search for.  The search grows 3-5x per two lengths: its worst
# case over the square and a pentagon with moves |c|, |d| <= 3 took 8 s
# at 16 and 35 s at 18 (Python 3.11, one core of a shared VM).
MAX_CYCLE_LENGTH = 16

# Counting caps, timed on the host above.  The flat table grows like the
# Bell numbers (1.5 s to build at q = 8), and n_max costs 1.6 s at 200
# for q = 2.  More pieces than the board has cells count 0 at no cost
# and pass.  From q = 4 on, flats with cycles cost about n^3 per n or
# more, so n_max has a cap per q: the largest n_max that the slowest of
# six riders (bishops, (2,1)/(2,-1), (2,1)/(1,-2), (2,1)/(1,2),
# (3,1)/(3,-1) and (3,1)/(1,-3)) counts to in about 10 s.
MAX_PIECES = 8
MAX_N_MAX = 200
MAX_N_MAX_AT_Q = {4: 140, 5: 100, 6: 65, 7: 45, 8: 25}

# Corners multiply the windows that the rigid-cycle search and the
# crossing loop visit.  denominator at q = MAX_CYCLE_LENGTH with
# (2,1)/(1,-2) and (2,1)/(1,2) on near-regular integer polygons took at
# most 10.3 s up to 12 corners (a centrally symmetric 8-gon), 7 s on
# most 16-gons but over 60 s on a centrally symmetric one, and 22 s at 20.
MAX_CORNERS = 12

# closed-form prints its value whole, with up to about q/2 digits; this
# bounds that output: for moves (2, 3), (3, 2) at q = 10^6 the value took
# 5.4 s and printing its 477,122 digits 3.9 s (Python 3.11).
MAX_CLOSED_FORM_Q = 10_000

# float-sim holds and prints its path: per 100,000 steps 1.2 s, 4.7 MB
# of output and 54 MB of memory.
MAX_FLOAT_STEPS = 100_000


@dataclass(frozen=True)
class ProblemConfig:
    board: Board
    moves: tuple
    q: int | None = None
    n_max: int | None = None
    start: Point2 | None = None
    first_move: int = 1
    max_steps: int | None = None


# The fields of a problem, as config keys and as the dests of their flags.
_FIELDS = tuple(f.name for f in fields(ProblemConfig))


def _canonical_pair(raw_moves):
    pair = tuple(canonical_move(c, d) for c, d in raw_moves)
    if pair[0] == pair[1]:
        raise ParallelMoves(
            f"moves canonicalize to the same direction {pair[0]}"
        )
    return pair


def _int(value, name):
    """A JSON integer."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ParseError(f"{name} must be an integer, got {value!r}")


def _flag_int(text):
    """A flag's integer text as an int; other text is for `_int` to refuse."""
    try:
        return int(text)
    except ValueError:
        return text


def _pair(value, name):
    """A JSON value that must be a two-item list."""
    if not isinstance(value, list) or len(value) != 2:
        raise ParseError(f"{name} must be a pair, got {value!r}")
    return value


def _point_from_value(value, name):
    """A JSON [x, y] of rationals read as a point."""
    x, y = _pair(value, name)
    return Point2(parse_rational(str(x)), parse_rational(str(y)))


def _board_from_value(value):
    if value == "square":
        return Board.square()
    if isinstance(value, dict):
        if unknown := set(value) - {"corners"}:
            raise ParseError(f"unknown board fields: {sorted(unknown)}")
        value = value.get("corners")
    if not isinstance(value, list) or len(value) < 3:
        raise ParseError("board must be \"square\" or a corner list")
    _capped(len(value), MAX_CORNERS, "the number of board corners")
    return Board.from_corners(
        [_point_from_value(corner, "a board corner") for corner in value]
    )


def _json(text, where=""):
    """JSON text, decimals kept as text; nesting too deep is bad JSON."""
    try:
        return json.loads(text, parse_float=str)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"bad JSON{where}: {exc}") from exc


def _json_object(text):
    data = _json(text)
    if not isinstance(data, dict):
        raise ParseError("config must be a JSON object")
    return data


def parse_config(text):
    """Problem config from JSON text."""
    return _problem(_json_object(text))


def _problem(data):
    """The one validator of a problem's fields, from a file or flags."""
    unknown = set(data) - set(_FIELDS)
    if unknown:
        raise ParseError(f"unknown config fields: {sorted(unknown)}")
    if "moves" not in data:
        raise ParseError("no moves given (use --moves or a config's "
                         "\"moves\")")
    moves = _canonical_pair([
        [_int(v, "a move component") for v in _pair(move, "a move")]
        for move in _pair(data["moves"], "moves")
    ])
    board = _board_from_value(data.get("board", "square"))
    start = data.get("start")
    if isinstance(start, str):
        start = parse_point(start)
    elif start is not None:
        start = _point_from_value(start, "start")
    first_move = _int(data.get("first_move", 1), "first_move")
    if first_move not in (1, 2):
        raise ParseError(f"first_move must be 1 or 2, got {first_move}")
    q = data.get("q")
    n_max = data.get("n_max")
    return ProblemConfig(
        board=board,
        moves=moves,
        q=None if q is None else _int(q, "q"),
        n_max=None if n_max is None else _int(n_max, "n_max"),
        start=start,
        first_move=first_move,
        max_steps=(
            None if "max_steps" not in data
            else _int(data["max_steps"], "max_steps")
        ),
    )


def serialize_config(config):
    if config.board == Board.square():
        board_value = "square"
    else:
        board_value = {
            "corners": [
                [str(c.x), str(c.y)] for c in config.board.corners
            ]
        }
    data = {
        "board": board_value,
        "moves": [[m.c, m.d] for m in config.moves],
    }
    if config.q is not None:
        data["q"] = config.q
    if config.n_max is not None:
        data["n_max"] = config.n_max
    if config.start is not None:
        data["start"] = [str(config.start.x), str(config.start.y)]
    data["first_move"] = config.first_move
    if config.max_steps is not None:
        data["max_steps"] = config.max_steps
    return json.dumps(data, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Argument resolution.


def _board_value(text):
    """The --board value as a config field: "square" or a file's JSON."""
    if text == "square":
        return text
    return _json(Path(text).read_text(), f" in board file {text}")


def _resolve_config(args):
    """The config file's fields with each given flag laid over them."""
    data = _json_object(Path(args.config).read_text()) if args.config else {}
    for name in _FIELDS:
        value = getattr(args, name, None)
        if value is None:
            continue
        if name == "board":
            value = _board_value(value)
        elif name == "moves":
            value = [[_flag_int(v) for v in text.split(",")]
                     for text in value]
        data[name] = value
    return _problem(data)


def _capped(value, cap, name):
    """A size given as `name`, at most `cap`."""
    if value > cap:
        raise ParseError(f"{name} must be at most {cap}, got {value}")
    return value


def _square_only(board, what="this command"):
    """Refuse a board other than the unit square, listed from any
    corner, for `what` works on the square alone."""
    if set(board.corners) != set(Board.square().corners):
        raise ParseError(f"{what} works on the square board only")


def _trace_points(config, steps=MAX_STEPS):
    """max_points for config.max_steps steps, or the command's `steps`."""
    if config.max_steps is not None:
        steps = config.max_steps
    if steps < 0:
        raise ParseError(f"max_steps must be at least 0, got {steps}")
    return _capped(steps, MAX_STEPS, "max_steps") + 1


def _counting_sizes(config):
    """The capped q and n_max of count, period and conjecture."""
    q = _require(config.q, "--q")
    n_max = _capped(
        _require(config.n_max, "--n-max"),
        MAX_N_MAX_AT_Q.get(q, MAX_N_MAX), f"n_max at q = {q}",
    )
    if q <= n_max * n_max:
        _capped(q, MAX_PIECES, "q")
    return q, n_max


def _require(value, name):
    if value is None:
        raise ParseError(f"this command needs {name}")
    return value


def _emit(output, out_path):
    """Write a command's output to out_path or stdout: a payload dict as
    JSON, text, or an iterable of text chunks."""
    if isinstance(output, dict):
        with _unlimited_digits():
            output = json.dumps(output, indent=2) + "\n"
    chunks = [output] if isinstance(output, str) else output
    if out_path and out_path != "-":
        with open(out_path, "w") as out:
            out.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _point_payload(point, decimal):
    exact = format_point(point).split(",")
    if decimal:
        return {"exact": exact, "approx": [float(point.x), float(point.y)]}
    return exact


def _trajectory_payload(trajectory, decimal):
    return {
        "first_move_type": trajectory.first_move_type,
        "status": trajectory.status.value,
        "points": [_point_payload(p, decimal) for p in trajectory.points],
    }


def _render_path(trajectory, **style):
    return RenderPath(
        tuple((p.x, p.y) for p in trajectory.points),
        first_segment_type=trajectory.first_move_type,
        closed=trajectory.status is TrajectoryStatus.CYCLIC,
        **style,
    )


# ---------------------------------------------------------------------------
# Subcommands.


def _cmd_simulate(args, config):
    start = _require(config.start, "a start point (--start x,y)")
    trajectory = trace(config.board, config.moves, start, config.first_move,
                       max_points=_trace_points(config))
    if args.format == "json":
        return _trajectory_payload(trajectory, args.decimal)
    if args.format == "svg":
        spec = RenderSpec(paths=(_render_path(trajectory),))
        return render_svg(config.board, spec)
    return format_trajectory(trajectory)


def _cmd_float_sim(args):
    board = _board_from_value(_board_value(args.board or "square"))
    slopes = tuple(parse_rational(s) for s in args.slopes)
    if slopes[0] == slopes[1]:
        raise ParseError("slopes must differ")
    start = parse_point(args.start)
    if not board.contains(start):
        raise ParseError(f"{start} is outside the board")
    limit_points = []
    if args.limit == "orbit":
        # the attracting 4-cycle of the unit square
        _square_only(board, "--limit orbit")
        limit_points = attractor_orbit(*slopes)
    elif args.limit == "corner":
        moves = _canonical_pair([(s.denominator, s.numerator) for s in slopes])
        for trajectory in corner_trajectories(board, moves, max_points=256):
            limit_points += trajectory.points
    path = simulate_float(
        board, slopes, (start.x, start.y),
        first_move_type=args.first_move or 1,
        steps=_capped(args.steps, MAX_FLOAT_STEPS, "--steps"),
    )
    dists = None if args.limit == "none" else distances(
        path.points, [(p.x, p.y) for p in limit_points]
    )
    # Past a repeated state the path repeats the same tuple objects, and
    # distances gives a tuple object one distance, so the text after the
    # step number is made once per object.  Float equality would merge
    # +0.0 with -0.0 and miss every NaN.
    texts = {}
    rows = ["step,x,y,dist"]
    for i, point in enumerate(path.points):
        text = texts.get(id(point))
        if text is None:
            x, y = point
            dist = "" if dists is None else repr(dists[i])
            text = texts[id(point)] = f"{x!r},{y!r},{dist}"
        rows.append(f"{i},{text}")
    return "\n".join(rows) + "\n"


def _cmd_corner_trajectories(args, config):
    board, max_points = config.board, _trace_points(config, steps=128)
    _capped(2 * len(board.corners) * max_points, MAX_CORNER_POINTS,
            "2 * corners * (max_steps + 1)")
    if args.decimal:  # points lie between the corners: overflow shows there
        for corner in board.corners:
            float(corner.x), float(corner.y)

    def chunks():
        # the text of json.dumps(payload, indent=2), one trajectory at a
        # time, so that no more than one is held in memory; the header
        # goes out with the first, so a failure there prints nothing
        separator = (f'{{\n  "board_corners": {len(board.corners)},\n'
                     '  "trajectories": [\n    ')
        for t in corner_trajectories(board, config.moves, max_points):
            item = {
                "corner": _point_payload(t.points[0], args.decimal),
                **_trajectory_payload(t, args.decimal),
            }
            yield separator + json.dumps(item, indent=2).replace(
                "\n", "\n    "
            )
            separator = ",\n    "
        yield "\n  ]\n}\n"

    return chunks()


def _cmd_rigid_cycles(args, config):
    cycles = enumerate_rigid_cycles(
        config.board, config.moves,
        _capped(args.max_len, MAX_CYCLE_LENGTH, "--max-len"),
    )
    return {
        "max_length": args.max_len,
        "count": len(cycles),
        "cycles": [
            {
                "length": len(t.points),
                "first_move_type": t.first_move_type,
                "points": [_point_payload(p, args.decimal) for p in t.points],
                "denominator": lcm(*map(point_denominator, t.points)),
            }
            for t in cycles
        ],
    }


def _cmd_denominator(args, config):
    q = _capped(_require(config.q, "--q"), MAX_CYCLE_LENGTH, "q")
    report = denominator(config.board, config.moves, q)
    return {
        "q": q,
        "denominator": report.value,
        "contributions": [
            {
                "category": c.category,
                "point": _point_payload(c.point, args.decimal),
                "denominator": c.denominator,
            }
            for c in report.contributions
        ],
    }


def _closed_form(moves, q):
    """(family, parameters, value) of the closed form that covers moves."""
    a, b = sorted(moves)
    if a.c == 1 and a.d <= -2 and b.c == -a.d and b.d == 1:
        return "orthogonal", {"m": -a.d}, closed_form_orthogonal(-a.d, q)
    if a.c == b.c and a.d == -b.d and b.d > 0:
        return "mirror", {"c": b.c, "d": b.d}, closed_form_mirror(b.c, b.d, q)
    if a.c > 0 and a.d > 0 and b.c > 0 and b.d > 0:
        params = {"slopes": [str(m.slope()) for m in (a, b)]}
        return "inclined", params, closed_form_inclined(moves, q)
    raise ParseError(f"no closed form covers moves {moves[0]}, {moves[1]}")


def _cmd_closed_form(args, config):
    _square_only(config.board)
    q = _capped(_require(config.q, "--q"), MAX_CLOSED_FORM_Q, "q")
    family, params, value = _closed_form(config.moves, q)
    return {
        "family": family,
        "parameters": params,
        "q": q,
        "denominator": value,
    }


def _cmd_count(args, config):
    _square_only(config.board)
    q, n_max = _counting_sizes(config)
    series = count_series(config.moves, q, n_max)
    rows = ["n,count"]
    rows.extend(f"{n},{v}" for n, v in enumerate(series.values))
    return "\n".join(rows) + "\n"


def _cmd_period(args, config):
    _square_only(config.board)
    q, n_max = _counting_sizes(config)
    series = count_series(config.moves, q, n_max)
    period = args.period
    if period is None:
        # an undecided search leaves the first period it could not try,
        # whose fit says how far the counts must reach
        period = minimal_period(series) or n_max // (2 * q + 2) + 1
    fitted = fit(series, period)
    payload = {
        "q": q,
        "n_max": n_max,
        "degree": 2 * q,
        "period": period,
        "accepted": fitted is not None,
    }
    if fitted is not None:
        payload["constituents"] = [
            [str(c) for c in constituent]
            for constituent in fitted.constituents
        ]
    return payload


def _cmd_conjecture(args, config):
    _square_only(config.board)
    _capped(_require(config.q, "--q"), MAX_CYCLE_LENGTH, "q")
    q, n_max = _counting_sizes(config)
    report = conjecture_report(config.moves, q, n_max)
    return {
        "q": report.q,
        "period": report.period,
        "denominator": report.denominator,
        "divides": True,
        "equal": report.equal,
    }


def _cmd_render(args, config):
    q = 4 if config.q is None else config.q
    if q < 1:
        raise ParseError(f"q must be at least 1, got {q}")
    q = _capped(q, MAX_CYCLE_LENGTH, "q")
    report = denominator(config.board, config.moves, q)
    paths = [
        _render_path(t) for t in report.corner_windows if len(t.points) >= 2
    ]
    # the picture highlights the rigid cycles of length 4 even at q < 4
    cycles = report.rigid_cycles if q >= 4 else enumerate_rigid_cycles(
        config.board, config.moves, 4
    )
    paths.extend(_render_path(t, highlight=True) for t in cycles)
    # one marker per crossing point, labelled as it first comes
    markers = {}
    for c in report.contributions:
        if c.category in ("cross", "self-cross"):
            markers.setdefault((c.point.x, c.point.y), str(c.denominator))
    spec = RenderSpec(paths=tuple(paths), markers=tuple(markers.items()))
    return render_svg(config.board, spec)


# ---------------------------------------------------------------------------
# Parser wiring.


# Each flag once, with its add_argument keywords.  argparse takes a
# flag's dest from its name, so --n-max sets the ProblemConfig field
# n_max.
_FLAGS = {
    "--config": dict(help="JSON problem config file"),
    "--moves": dict(nargs=2, metavar=("c1,d1", "c2,d2"),
                    help="the two move vectors"),
    "--board": dict(
        help='"square" (default) or a JSON file with a corner list'),
    "--out": dict(help="output file (default: stdout)"),
    "--decimal": dict(
        action="store_true",
        help="add approximate decimal coordinates to JSON output"),
    "--q": dict(type=int, help="number of pieces"),
    "--n-max": dict(type=int, help="largest board size"),
    "--start": dict(help="boundary start point x,y"),
    "--first-move": dict(type=int, choices=(1, 2),
                         help="move type of the first step (default 1)"),
    "--max-steps": dict(type=int, help="step cap for traces"),
    "--format": dict(choices=("text", "json", "svg"), default="text"),
    "--slopes": dict(nargs=2, metavar=("s1", "s2"), required=True,
                     help="two line slopes as rationals"),
    "--steps": dict(type=int, default=1000),
    "--limit": dict(choices=("none", "orbit", "corner"), default="none",
                    help="reference set for the dist column"),
    "--max-len": dict(type=int, default=8,
                      help="largest cycle length searched"),
    "--period": dict(type=int, help="test one period instead of searching"),
}

# The flags of every command that reads a problem, in help order.
_PROBLEM = ("--config", "--moves", "--board", "--out")


# built once per process; help wraps to the terminal when it is printed
@cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="riderflow",
        description="exact dynamics and counting for two-move riders",
    )
    # Up to Python 3.13 argparse reads "-" and a digit as a value only in
    # an int or a decimal (-2, -.5); no flag starts that way, so here every
    # such token is a value: -2/5, -2e-1, -1/2,1.
    negative_number = re.compile(r"-[\d.]")
    parser._negative_number_matcher = negative_number
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *flags, own={}):
        """Add a subcommand with `flags`, each from _FLAGS unless `own`
        gives its keywords.  A command that takes --moves is called
        with the problem, read once from its config file and flags."""
        sub = commands.add_parser(name, help=summary)
        sub._negative_number_matcher = negative_number
        for flag in flags:
            sub.add_argument(flag, **own.get(flag, _FLAGS[flag]))

        def run(args):
            return func(args, _resolve_config(args))

        sub.set_defaults(func=run if "--moves" in flags else func)

    command(
        "simulate", _cmd_simulate, "exact boundary trace", *_PROBLEM,
        "--decimal", "--start", "--first-move", "--max-steps", "--format",
    )
    command(
        "float-sim", _cmd_float_sim, "floating-point bounce simulation",
        "--board", "--first-move", "--out", "--slopes", "--start",
        "--steps", "--limit",
        # not a problem's --start: required, and anywhere on the board
        own={"--start": dict(required=True, help="start point x,y")},
    )
    command(
        "corner-trajectories", _cmd_corner_trajectories,
        "trajectories through each corner (--max-steps 128 by default)",
        *_PROBLEM, "--decimal", "--max-steps",
    )
    command(
        "rigid-cycles", _cmd_rigid_cycles, "enumerate rigid cycles",
        *_PROBLEM, "--decimal", "--max-len",
    )
    command(
        "denominator", _cmd_denominator,
        "denominator of the q-piece system", *_PROBLEM, "--decimal", "--q",
    )
    command(
        "closed-form", _cmd_closed_form,
        "family closed form for the denominator", *_PROBLEM, "--q",
    )
    command(
        "count", _cmd_count, "nonattacking placement counts", *_PROBLEM,
        "--q", "--n-max",
    )
    command(
        "period", _cmd_period, "fit the counting quasipolynomial period",
        *_PROBLEM, "--q", "--n-max", "--period",
    )
    command(
        "conjecture", _cmd_conjecture,
        "compare fitted period against denominator", *_PROBLEM, "--q",
        "--n-max",
    )
    command(
        "render", _cmd_render, "SVG picture of the system", *_PROBLEM, "--q"
    )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _emit(args.func(args), args.out)
        return 0
    except InsufficientData as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 4
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
