"""Transport distances, quantile calculus, and barycenters on metric graphs."""

from .barycenter import (
    BarycenterProblem,
    FixedPointResult,
    RegularityReport,
    barycenter_problem,
    candidate_support,
    objective,
    regularity_report,
    solve_edge_fixed_point,
    solve_lp,
)
from .covering import (
    CoverContext,
    exceptional_set,
    h_eval,
    lift_line_plan,
    make_cover_context,
    measure_on_edge_as_line,
    phi,
    preimage_count,
)
from .errors import (
    GraphValidationError,
    MeasureValidationError,
    MgbaryError,
    NonMinimizingEdgeError,
    ParseError,
    SolverConsistencyError,
    SupportCapError,
)
from .line_ot import (
    LineMeasure,
    QuantileFn,
    average_quantile,
    barycenter_line,
    cdf_eval,
    clamp_quantile,
    dispersion,
    line_measure,
    line_measure_from_json,
    line_measure_to_json,
    measure_from_quantile,
    quantile,
    support_bounds,
    w2_line,
    w2_line_squared,
)
from .metric_graph import (
    Edge,
    GeodesicPath,
    GraphPoint,
    MetricGraph,
    OrientedEdge,
    build_graph,
    cut_points_from,
    distance,
    format_point,
    is_edge_minimizing,
    parse_point,
    path_segment_lengths,
    shortest_path,
)
from .transport import (
    BranchTag,
    DiscreteMeasure,
    GraphMeasure,
    RestrictionResult,
    TransportPlan,
    classify_pair,
    decompose_plan,
    discrete_measure,
    discrete_to_graph_measure,
    discretize,
    graph_measure,
    graph_measure_from_json,
    graph_measure_to_json,
    restrict,
    w2_graph,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
