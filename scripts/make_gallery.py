#!/usr/bin/env python3
"""Render a small gallery of the system's signature pictures.

Writes four SVG files into an output directory (default ./gallery):
crossing points of two augmented windows, the five-point window with
its self-crossing, the rigid cycle with a trajectory spiraling toward
it, and the attracting orbit of a mixed-slope configuration.
"""

import argparse
from fractions import Fraction
from pathlib import Path

from riderflow import (
    Board,
    Point2,
    RenderPath,
    RenderSpec,
    attractor_orbit,
    augment,
    canonical_move,
    crossing_points,
    enumerate_rigid_cycles,
    render_svg,
    trace,
)

F = Fraction


def path_of(trajectory, **kwargs):
    return RenderPath(
        tuple((p.x, p.y) for p in trajectory.points),
        first_segment_type=trajectory.first_move_type,
        **kwargs,
    )


def crossing_markers(board, a, b=None, labels=("C1", "C2", "C3")):
    seen = []
    for c in crossing_points(board, a, b):
        if c.point not in seen:
            seen.append(c.point)
    seen.sort(key=lambda p: (p.x.denominator * p.y.denominator, p))
    return tuple(
        ((p.x, p.y), labels[i] if i < len(labels) else "")
        for i, p in enumerate(seen)
    )


def scene_crossings(board):
    moves = (canonical_move(2, 1), canonical_move(1, 2))
    wa = augment(board, moves, trace(board, moves, Point2(0, 0), 1,
                                     max_points=2))
    wb = augment(board, moves, trace(board, moves, Point2(1, F(1, 4)), 1,
                                     max_points=4))
    return RenderSpec(
        paths=(path_of(wa), path_of(wb)),
        markers=crossing_markers(board, wa, wb),
    )


def scene_self_crossing(board):
    moves = (canonical_move(2, 1), canonical_move(1, -2))
    window = augment(
        board, moves, trace(board, moves, Point2(0, 0), 1, max_points=5)
    )
    return RenderSpec(
        paths=(path_of(window),),
        markers=crossing_markers(board, window, labels=("X",)),
    )


def scene_rigid_cycle(board):
    moves = (canonical_move(2, 1), canonical_move(1, -2))
    cycle = enumerate_rigid_cycles(board, moves, 6)[0]
    spiral = trace(board, moves, Point2(F(1, 8), 0), 1, max_points=24)
    return RenderSpec(
        paths=(
            path_of(spiral),
            path_of(cycle, closed=True, highlight=True),
        )
    )


def scene_attractor(board):
    moves = (canonical_move(5, 1), canonical_move(1, -3))
    orbit = attractor_orbit(F(1, 5), F(-3))
    loop = RenderPath(
        tuple((p.x, p.y) for p in orbit), 1, closed=True, highlight=True
    )
    spiral = trace(board, moves, Point2(F(9, 10), 0), 1, max_points=20)
    return RenderSpec(
        paths=(path_of(spiral), loop),
        markers=(((orbit[0].x, orbit[0].y), "o"),),
    )


SCENES = {
    "crossings": scene_crossings,
    "self-crossing": scene_self_crossing,
    "rigid-cycle": scene_rigid_cycle,
    "attractor": scene_attractor,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="gallery")
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    board = Board.square()
    for name, build in SCENES.items():
        target = out / f"{name}.svg"
        target.write_text(render_svg(board, build(board)))
        print(f"wrote {target}")


if __name__ == "__main__":
    main()
