"""Exact dynamics, denominators, and counting for two-move riders."""

from .geometry import (
    Board,
    BoundaryLocation,
    InternalInvariantError,
    LocationKind,
    Move,
    NonConvexBoard,
    Point2,
    ZeroDenominator,
    ZeroMove,
    canonical_move,
    cross,
    format_point,
    parse_point,
    parse_rational,
    point_denominator,
)
from .dynamics import (
    NotOnBoundary,
    Trajectory,
    TrajectoryStatus,
    antipode,
    augment,
    corner_trajectories,
    format_trajectory,
    other,
    partition_into_trajectories,
    trace,
)
from .arrangement import (
    CycleClassification,
    NotCyclic,
    OutsideBoard,
    arrangement_of,
    classify_cycle,
    enumerate_rigid_cycles,
    matrix_rank,
    solve_square_system,
)
from .denominator import (
    Contribution,
    CrossingPoint,
    DenominatorReport,
    SlopeConditionViolated,
    VertexDecomposition,
    attractor_orbit,
    characterize_vertex,
    closed_form_inclined,
    closed_form_mirror,
    closed_form_orthogonal,
    crossing_points,
    denominator,
    inclined_crossing_point,
    vertex_oracle,
)
from .counting import (
    ConjectureReport,
    CountSeries,
    InsufficientData,
    QuasipolynomialFit,
    conjecture_report,
    count,
    count_series,
    fit,
    minimal_period,
)
from .floatsim import FloatPath, distances, simulate_float
from .svgrender import RenderPath, RenderSpec, render_svg

__all__ = [name for name in dir() if not name.startswith("_")]
