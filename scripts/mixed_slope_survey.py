#!/usr/bin/env python3
"""Float survey of slope pairs outside the exactly-solved families.

For a handful of mixed-slope configurations this traces long float
orbits from several starts and records per-step distances to two
candidate limit sets (the corner trajectory through (0,0) and, where
defined, the attracting four-cycle).  Output: one CSV per
configuration plus an overview SVG of the final steps.  Purely
exploratory — nothing here asserts; the numbers are for staring at.
"""

import argparse
import csv
from fractions import Fraction
from pathlib import Path

from riderflow import (
    Board,
    Point2,
    RenderPath,
    RenderSpec,
    attractor_orbit,
    canonical_move,
    distances,
    render_svg,
    simulate_float,
    trace,
)

F = Fraction

CONFIGS = [
    # slope pair, label
    ((F(3, 10), F(-2, 5)), "both-shallow"),
    ((F(2, 3), F(-5, 2)), "steep-reversal"),
    ((F(1, 7), F(-7, 6)), "near-balanced"),
]

STARTS = [(0.15, 0.0), (0.5, 0.0), (0.85, 0.0)]


def corner_limit(board, slopes):
    moves = tuple(
        canonical_move(s.denominator, s.numerator) for s in slopes
    )
    t = trace(board, moves, Point2(0, 0), 1, max_points=64)
    return [(float(p.x), float(p.y)) for p in t.points]


def orbit_limit(slopes):
    try:
        orbit = attractor_orbit(slopes[0], slopes[1])
    except ValueError:
        return None
    return [(float(p.x), float(p.y)) for p in orbit]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="survey")
    parser.add_argument("--steps", type=int, default=600)
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    board = Board.square()

    for slopes, label in CONFIGS:
        corner_set = corner_limit(board, slopes)
        orbit_set = orbit_limit(slopes)
        rows = []
        tails = []
        for sx, sy in STARTS:
            run = simulate_float(board, slopes, (sx, sy), steps=args.steps)
            to_corner = distances(run.points, corner_set)
            to_orbit = (
                distances(run.points, orbit_set)
                if orbit_set is not None else None
            )
            for i, (x, y) in enumerate(run.points):
                rows.append(
                    {
                        "start_x": sx,
                        "step": i,
                        "x": repr(x),
                        "y": repr(y),
                        "dist_corner_set": repr(to_corner[i]),
                        "dist_orbit": (
                            repr(to_orbit[i]) if to_orbit is not None else ""
                        ),
                    }
                )
            tails.append(run.points[-min(16, len(run.points)):])

        csv_path = out / f"{label}.csv"
        with csv_path.open("w", newline="") as handle:
            writer = csv.DictWriter(
                handle,
                fieldnames=[
                    "start_x", "step", "x", "y",
                    "dist_corner_set", "dist_orbit",
                ],
            )
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {csv_path} ({len(rows)} rows)")

        paths = tuple(RenderPath(tuple(tail), 1) for tail in tails)
        svg_path = out / f"{label}.svg"
        svg_path.write_text(render_svg(board, RenderSpec(paths=paths)))
        print(f"wrote {svg_path}")


if __name__ == "__main__":
    main()
