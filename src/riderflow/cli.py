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
import sys
from dataclasses import dataclass, replace
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
from .floatsim import simulate_float
from .geometry import (
    Board,
    InternalInvariantError,
    Point2,
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


@dataclass(frozen=True)
class ProblemConfig:
    board: Board
    moves: tuple
    q: int | None = None
    n_max: int | None = None
    start: Point2 | None = None
    first_move: int = 1
    max_steps: int = 10_000


def _canonical_pair(raw_moves):
    if len(raw_moves) != 2:
        raise ParseError(f"expected two moves, got {len(raw_moves)}")
    pair = tuple(canonical_move(int(c), int(d)) for c, d in raw_moves)
    if pair[0] == pair[1]:
        raise ParallelMoves(
            f"moves canonicalize to the same direction {pair[0]}"
        )
    return pair


def _board_from_value(value):
    if value == "square":
        return Board.square()
    if isinstance(value, dict):
        value = value.get("corners")
    if not isinstance(value, list) or len(value) < 3:
        raise ParseError("board must be \"square\" or a corner list")
    corners = [
        Point2(parse_rational(str(sx)), parse_rational(str(sy)))
        for sx, sy in value
    ]
    return Board.from_corners(corners)


def parse_config(text, max_steps=10_000):
    """Problem config from JSON text; max_steps is the cap if it has none."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("config must be a JSON object")
    known = {"board", "moves", "q", "n_max", "start", "first_move",
             "max_steps"}
    unknown = set(data) - known
    if unknown:
        raise ParseError(f"unknown config fields: {sorted(unknown)}")
    if "moves" not in data:
        raise ParseError("config requires \"moves\"")
    moves = _canonical_pair(data["moves"])
    board = _board_from_value(data.get("board", "square"))
    start = None
    if data.get("start") is not None:
        raw = data["start"]
        if isinstance(raw, str):
            start = parse_point(raw)
        else:
            start = Point2(
                parse_rational(str(raw[0])), parse_rational(str(raw[1]))
            )
    first_move = int(data.get("first_move", 1))
    if first_move not in (1, 2):
        raise ParseError(f"first_move must be 1 or 2, got {first_move}")
    q = data.get("q")
    n_max = data.get("n_max")
    return ProblemConfig(
        board=board,
        moves=moves,
        q=None if q is None else int(q),
        n_max=None if n_max is None else int(n_max),
        start=start,
        first_move=first_move,
        max_steps=int(data.get("max_steps", max_steps)),
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
    data["max_steps"] = config.max_steps
    return json.dumps(data, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Argument resolution.


def _parse_move_arg(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"move must look like c,d — got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ParseError(f"move components must be integers: {text!r}") \
            from exc


def _board_arg(text):
    """The --board value: "square" or a JSON file with a corner list."""
    if text == "square":
        return Board.square()
    return _board_from_value(json.loads(Path(text).read_text()))


def _resolve_config(args, max_steps=10_000):
    """Merge config file and command line; explicit flags win.

    max_steps is the command's cap when neither gives one.
    """
    if args.config:
        config = parse_config(Path(args.config).read_text(), max_steps)
    else:
        config = ProblemConfig(
            board=Board.square(), moves=None, max_steps=max_steps
        )
    flags = {}
    if args.board:
        flags["board"] = _board_arg(args.board)
    if args.moves:
        flags["moves"] = _canonical_pair(
            [_parse_move_arg(text) for text in args.moves]
        )
    if flags.get("moves", config.moves) is None:
        raise ParseError("no moves given (use --moves or --config)")
    for name in ("q", "n_max", "first_move", "max_steps"):
        if getattr(args, name, None) is not None:
            flags[name] = getattr(args, name)
    if getattr(args, "start", None) is not None:
        flags["start"] = parse_point(args.start)
    return replace(config, **flags)


def _trace_points(config):
    """The max_points of a trace capped at config.max_steps steps."""
    if config.max_steps > MAX_STEPS:
        raise ParseError(
            f"max_steps must be at most {MAX_STEPS}, got {config.max_steps}"
        )
    return config.max_steps + 1


def _require(value, name):
    if value is None:
        raise ParseError(f"this command needs {name}")
    return value


def _emit(text, out_path):
    if out_path and out_path != "-":
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _json_text(payload):
    return json.dumps(payload, indent=2) + "\n"


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


def _cmd_simulate(args):
    config = _resolve_config(args)
    start = _require(config.start, "a start point (--start x,y)")
    trajectory = trace(
        config.board,
        config.moves,
        start,
        config.first_move,
        max_points=_trace_points(config),
    )
    if args.format == "json":
        payload = _trajectory_payload(trajectory, args.decimal)
        _emit(_json_text(payload), args.out)
    elif args.format == "svg":
        spec = RenderSpec(paths=(_render_path(trajectory),))
        _emit(render_svg(config.board, spec), args.out)
    else:
        _emit(format_trajectory(trajectory), args.out)
    return 0


def _cmd_float_sim(args):
    board = _board_arg(args.board) if args.board else Board.square()
    slopes = tuple(parse_rational(s) for s in args.slopes)
    if slopes[0] == slopes[1]:
        raise ParseError("slopes must differ")
    start = parse_point(args.start)
    limit_set = None
    if args.limit == "orbit":
        limit_set = [
            (p.x, p.y) for p in attractor_orbit(slopes[0], slopes[1])
        ]
    elif args.limit == "corner":
        moves = _canonical_pair(
            [(s.denominator, s.numerator) for s in slopes]
        )
        seen = set()
        for trajectory in corner_trajectories(board, moves, max_points=256):
            for p in trajectory.points:
                seen.add((p.x, p.y))
        limit_set = sorted(seen)
    path = simulate_float(
        board,
        slopes,
        (start.x, start.y),
        first_move_type=args.first_move or 1,
        steps=args.steps,
        limit_set=limit_set,
        tol=args.tol,
    )
    rows = ["step,x,y,dist"]
    for i, (x, y) in enumerate(path.points):
        dist = "" if path.distances is None else repr(path.distances[i])
        rows.append(f"{i},{x!r},{y!r},{dist}")
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def _cmd_corner_trajectories(args):
    config = _resolve_config(args, max_steps=128)
    trajectories = corner_trajectories(
        config.board, config.moves, max_points=_trace_points(config)
    )
    payload = {
        "board_corners": len(config.board.corners),
        "trajectories": [
            {
                "corner": _point_payload(t.points[0], args.decimal),
                **_trajectory_payload(t, args.decimal),
            }
            for t in trajectories
        ],
    }
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_rigid_cycles(args):
    config = _resolve_config(args)
    cycles = enumerate_rigid_cycles(
        config.board, config.moves, args.max_len
    )
    payload = {
        "max_length": args.max_len,
        "count": len(cycles),
        "cycles": [
            {
                "length": len(t.points),
                "first_move_type": t.first_move_type,
                "points": [
                    _point_payload(p, args.decimal) for p in t.points
                ],
                "denominator": lcm(
                    *(point_denominator(p) for p in t.points)
                ),
            }
            for t in cycles
        ],
    }
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_denominator(args):
    config = _resolve_config(args)
    q = _require(config.q, "--q")
    report = denominator(config.board, config.moves, q)
    payload = {
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
    _emit(_json_text(payload), args.out)
    return 0


def _detect_family(moves):
    a, b = sorted(moves)
    if a.c == 1 and a.d <= -2 and b.c == -a.d and b.d == 1:
        return "orthogonal", {"m": -a.d}
    if a.c == b.c and a.d == -b.d and b.d > 0:
        return "mirror", {"c": b.c, "d": b.d}
    if a.c > 0 and a.d > 0 and b.c > 0 and b.d > 0:
        return "inclined", {"slopes": [str(m.slope()) for m in (a, b)]}
    return None, None


def _cmd_closed_form(args):
    config = _resolve_config(args)
    q = _require(config.q, "--q")
    family, params = _detect_family(config.moves)
    if family == "orthogonal":
        value = closed_form_orthogonal(params["m"], q)
    elif family == "mirror":
        value = closed_form_mirror(params["c"], params["d"], q)
    elif family == "inclined":
        value = closed_form_inclined(config.moves, q)
    else:
        raise ParseError(
            f"no closed form covers moves {config.moves[0]}, "
            f"{config.moves[1]}"
        )
    payload = {
        "family": family,
        "parameters": params,
        "q": q,
        "denominator": value,
    }
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_count(args):
    config = _resolve_config(args)
    q = _require(config.q, "--q")
    n_max = _require(config.n_max, "--n-max")
    series = count_series(config.moves, q, n_max)
    rows = ["n,count"]
    rows.extend(f"{n},{v}" for n, v in enumerate(series.values))
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def _cmd_period(args):
    config = _resolve_config(args)
    q = _require(config.q, "--q")
    n_max = _require(config.n_max, "--n-max")
    series = count_series(config.moves, q, n_max)
    degree = args.degree if args.degree is not None else 2 * q
    period = args.period
    if period is None:
        period = minimal_period(series, degree)
        if period is None:
            print(
                "error: no period decidable from counts up to "
                f"n = {n_max}; extend --n-max",
                file=sys.stderr,
            )
            return 3
    fitted = fit(series, period, degree)
    payload = {
        "q": q,
        "n_max": n_max,
        "degree": degree,
        "period": period,
        "accepted": fitted is not None,
    }
    if fitted is not None:
        payload["constituents"] = [
            [str(c) for c in constituent]
            for constituent in fitted.constituents
        ]
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_conjecture(args):
    config = _resolve_config(args)
    q = _require(config.q, "--q")
    n_max = _require(config.n_max, "--n-max")
    report = conjecture_report(config.moves, q, n_max)
    payload = {
        "q": report.q,
        "period": report.period,
        "denominator": report.denominator,
        "divides": report.divides,
        "equal": report.equal,
    }
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_render(args):
    config = _resolve_config(args)
    q = config.q if config.q is not None else 4
    paths = []
    for trajectory in corner_trajectories(
        config.board, config.moves, max_points=q
    ):
        if len(trajectory.points) >= 2:
            paths.append(_render_path(trajectory))
    for t in enumerate_rigid_cycles(config.board, config.moves, max(q, 4)):
        paths.append(_render_path(t, highlight=True))
    report = denominator(config.board, config.moves, q)
    markers = []
    seen = set()
    for c in report.contributions:
        if c.category not in ("cross", "self-cross"):
            continue
        key = (c.point.x, c.point.y)
        if key in seen:
            continue
        seen.add(key)
        markers.append(((c.point.x, c.point.y), str(c.denominator)))
    spec = RenderSpec(paths=tuple(paths), markers=tuple(markers))
    _emit(render_svg(config.board, spec), args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser wiring.


def _add_common(sub, *, q=False, n_max=False, start=False):
    sub.add_argument("--config", help="JSON problem config file")
    sub.add_argument(
        "--moves",
        nargs=2,
        metavar=("c1,d1", "c2,d2"),
        help="the two move vectors",
    )
    sub.add_argument(
        "--board",
        help='"square" (default) or a JSON file with a corner list',
    )
    sub.add_argument("--out", help="output file (default: stdout)")
    sub.add_argument(
        "--decimal",
        action="store_true",
        help="add approximate decimal coordinates to JSON output",
    )
    if q:
        sub.add_argument("--q", type=int, help="number of pieces")
    if n_max:
        sub.add_argument(
            "--n-max", type=int, dest="n_max", help="largest board size"
        )
    if start:
        sub.add_argument("--start", help="boundary start point x,y")
        sub.add_argument(
            "--first-move",
            type=int,
            choices=(1, 2),
            dest="first_move",
            help="move type of the first step (default 1)",
        )
        sub.add_argument(
            "--max-steps", type=int, dest="max_steps",
            help="step cap for traces",
        )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="riderflow",
        description="exact dynamics and counting for two-move riders",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("simulate", help="exact boundary trace")
    _add_common(sub, start=True)
    sub.add_argument(
        "--format", choices=("text", "json", "svg"), default="text"
    )
    sub.set_defaults(func=_cmd_simulate)

    sub = commands.add_parser(
        "float-sim", help="floating-point bounce simulation"
    )
    sub.add_argument(
        "--slopes", nargs=2, metavar=("s1", "s2"), required=True,
        help="two line slopes as rationals",
    )
    sub.add_argument("--start", required=True, help="start point x,y")
    sub.add_argument("--board", help='"square" or JSON corner file')
    sub.add_argument("--steps", type=int, default=1000)
    sub.add_argument("--tol", type=float, default=1e-9)
    sub.add_argument(
        "--first-move", type=int, choices=(1, 2), dest="first_move"
    )
    sub.add_argument(
        "--limit",
        choices=("none", "orbit", "corner"),
        default="none",
        help="reference set for the dist column",
    )
    sub.add_argument("--out")
    sub.set_defaults(func=_cmd_float_sim)

    sub = commands.add_parser(
        "corner-trajectories", help="trajectories through each corner"
    )
    _add_common(sub)
    sub.add_argument(
        "--max-steps", type=int, dest="max_steps",
        help="step cap per trajectory (default 128)",
    )
    sub.set_defaults(func=_cmd_corner_trajectories)

    sub = commands.add_parser(
        "rigid-cycles", help="enumerate rigid cycles"
    )
    _add_common(sub)
    sub.add_argument(
        "--max-len", type=int, default=8, dest="max_len",
        help="largest cycle length searched",
    )
    sub.set_defaults(func=_cmd_rigid_cycles)

    sub = commands.add_parser(
        "denominator", help="denominator of the q-piece system"
    )
    _add_common(sub, q=True)
    sub.set_defaults(func=_cmd_denominator)

    sub = commands.add_parser(
        "closed-form", help="family closed form for the denominator"
    )
    _add_common(sub, q=True)
    sub.set_defaults(func=_cmd_closed_form)

    sub = commands.add_parser(
        "count", help="nonattacking placement counts"
    )
    _add_common(sub, q=True, n_max=True)
    sub.set_defaults(func=_cmd_count)

    sub = commands.add_parser(
        "period", help="fit the counting quasipolynomial period"
    )
    _add_common(sub, q=True, n_max=True)
    sub.add_argument("--degree", type=int, help="fit degree (default 2q)")
    sub.add_argument(
        "--period", type=int, help="test one period instead of searching"
    )
    sub.set_defaults(func=_cmd_period)

    sub = commands.add_parser(
        "conjecture", help="compare fitted period against denominator"
    )
    _add_common(sub, q=True, n_max=True)
    sub.set_defaults(func=_cmd_conjecture)

    sub = commands.add_parser("render", help="SVG picture of the system")
    _add_common(sub, q=True)
    sub.set_defaults(func=_cmd_render)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InsufficientData as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 4
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
