"""Barycenter solvers on metric graphs.

Two routes are provided. ``solve_lp`` is the ground truth at a given grid: it
minimizes the weighted sum of squared transport costs jointly over the
barycenter weights and all couplings, which is a single linear program
because the objective is linear in the couplings and the barycenter enters
only through marginal constraints. ``solve_edge_fixed_point`` is the
edge-local scheme: unfold every input measure onto the line around the
current iterate, average quantiles there, clamp into the edge, and pull back.
The fixed points of that scheme are exactly the measures satisfying the
clamped-quantile characterization of edge-supported barycenters.
"""

from __future__ import annotations

import logging
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linprog  # unused here; perfbench/spans.py wraps it by this name

from .covering import _unfold
from .errors import MeasureValidationError, ParseError
from .line_ot import LineMeasure, _average, _flat_segments, _merged_atoms, _w2_squared
from .metric_graph import GraphPoint, MetricGraph, OrientedEdge
from .transport import (
    DiscreteMeasure,
    GraphMeasure,
    _branch_table,
    _check_size,
    _edge_cells,
    _joint_lp,
    discrete_measure,
    discretize,
    graph_measure,
    w2_graph,
)
from .tolerances import SNAP_TOL
from .tolerances import _check_grid, _check_threshold, _check_weights

_log = logging.getLogger("mgbary")


@dataclass(frozen=True)
class BarycenterProblem:
    """Weighted family of measures on one graph, plus the working grid spacing.

    Checked when built: at least one measure, each a ``GraphMeasure`` whose
    atoms and pieces lie on ``graph``, with positive weights summing to 1,
    and a positive finite grid; else ``MeasureValidationError``.
    ``measures`` is kept as a tuple and ``grid`` as a float."""

    graph: MetricGraph
    measures: tuple[tuple[float, GraphMeasure], ...]
    grid: float

    def __post_init__(self):
        measures = tuple(self.measures)
        _check_weights([lam for lam, _ in measures])
        _check_grid(self.grid)
        for _, nu in measures:
            if not isinstance(nu, GraphMeasure):
                raise MeasureValidationError(
                    f"barycenter input is a {type(nu).__name__}, not a GraphMeasure"
                )
            try:
                for p, _ in nu.atoms:
                    self.graph.canonical(p)
                for eid, _, b, _ in nu.pieces:
                    if b > self.graph.edge(eid).length:
                        raise ValueError(f"piece end {b!r} past edge {eid!r}")
            except ValueError as err:
                raise MeasureValidationError(
                    f"barycenter input is not on the problem's graph: {err}"
                ) from None
        object.__setattr__(self, "measures", measures)
        object.__setattr__(self, "grid", float(self.grid))


def barycenter_problem(
    g: MetricGraph,
    measures: Sequence[tuple[float, GraphMeasure]],
    grid: float,
) -> BarycenterProblem:
    return BarycenterProblem(graph=g, measures=measures, grid=grid)


def _targets(problem: BarycenterProblem) -> list[tuple[float, DiscreteMeasure]]:
    return [
        (lam, discretize(problem.graph, nu, problem.grid))
        for lam, nu in problem.measures
    ]


def objective(problem: BarycenterProblem, mu: DiscreteMeasure) -> float:
    """Weighted sum of squared transport costs from ``mu`` to the inputs,
    each discretized at the problem's grid spacing."""
    total = 0.0
    for lam, target in _targets(problem):
        cost, _ = w2_graph(problem.graph, mu, target)
        total += lam * cost
    return total


def candidate_support(problem: BarycenterProblem) -> list[GraphPoint]:
    """All vertices plus cell centers of every edge at the problem's spacing."""
    g = problem.graph
    points = [GraphPoint.at_vertex(v) for v in g.vertices]
    for e in g.edges:
        centers, _ = _edge_cells(0.0, e.length, problem.grid)
        points.extend(GraphPoint.on_edge(e.id, c) for c in centers.tolist())
    return points


def solve_lp(problem: BarycenterProblem) -> tuple[DiscreteMeasure, float]:
    """Exact barycenter of the discretized problem over the candidate grid.

    Joint variables are the barycenter weights and one coupling per input;
    the constraints tie each coupling's first marginal to the weights and its
    second to the discretized input. The optimum is exact for the discretized
    problem since everything is jointly linear. Every answer is accepted only
    after its couplings' marginals and a dual certificate of optimality are
    checked; :func:`~mgbary.transport._joint_lp` solves it.

    Raises
    ------
    SupportCapError
        If the LP over the whole grid or an edge's cell grid would exceed the
        cap (``MGBARY_SUPPORT_CAP`` overrides the default).
    ParseError
        If ``MGBARY_SUPPORT_CAP`` is not an integer of at least 0.
    SolverConsistencyError
        If the solver fails, a coupling's marginals drift beyond ``MARGINAL_TOL``,
        or the duals do not certify the solution optimal.
    """
    support, targets = candidate_support(problem), _targets(problem)
    rows, w, value, stats = _joint_lp(problem.graph, support, targets)
    _log.debug(
        "solve_lp grid %r: %d candidates, |S| %d, %d LP rounds, each (method, IPM, crossover,"
        " simplex iterations) %r, min slack off S %r",
        problem.grid, len(support), *stats,
    )
    mu = discrete_measure(problem.graph, [(support[i], float(wi)) for i, wi in zip(rows, w) if wi > 0.0])
    return mu, value


def _edge_grid(g: MetricGraph, oe: OrientedEdge, h: float) -> tuple[list[GraphPoint], float]:
    """The points the fixed point's iterates live on: the oriented edge's
    first and second endpoints, then the centers of its spacing-``h`` cells,
    with the cells' width."""
    e, (e0, e1) = g.edge(oe.edge), g.oriented_endpoints(oe)
    centers, width = _edge_cells(0.0, e.length, h)
    centers = [GraphPoint.on_edge(e.id, g.flip_offset(oe, c)) for c in centers.tolist()]
    return [GraphPoint.at_vertex(e0), GraphPoint.at_vertex(e1), *centers], width


def _edge_grid_masses(x, mass, length: float, n: int, width: float) -> np.ndarray:
    """Masses on the :func:`_edge_grid` (``n`` cells of ``width``) of atoms at
    ``x`` in [0, length]: an atom within ``SNAP_TOL`` of an end goes to that
    end, any other to the center of its cell, added in atom order."""
    cell = np.minimum((x / width).astype(int), n - 1)
    index = np.where(x <= SNAP_TOL, 0, np.where(x >= length - SNAP_TOL, 1, 2 + cell))
    return np.bincount(index, weights=mass, minlength=n + 2)


@dataclass(frozen=True)
class FixedPointResult:
    """Converged state of the edge-local scheme.

    ``measure`` is the grid-projected iterate used inside the loop;
    ``line_profile`` is the atomic measure on [0, length] produced by the
    final clamped quantile average, before grid projection, and ``profile``
    is the same measure on the edge.
    """

    measure: DiscreteMeasure
    profile: GraphMeasure
    line_profile: LineMeasure
    iterations: int
    converged: bool


def solve_edge_fixed_point(
    problem: BarycenterProblem,
    oe: OrientedEdge | str,
    max_iter: int = 200,
    eps: float | None = None,
    init: str = "uniform",
) -> FixedPointResult:
    """Iterate the clamped-quantile map on one edge until the iterates settle.

    Each round unfolds every input onto the line around the current iterate,
    averages the quantile functions with the problem weights, clamps into
    [0, length], and projects the result onto the edge's ends and the centers
    of its spacing-``grid`` cells. Stops when the transport distance between
    successive iterates drops to ``eps`` (default ``1e-6 * length``).
    Non-convergence within ``max_iter`` is reported honestly via the
    ``converged`` flag; the LP solver remains the ground truth. A NaN,
    infinite or negative ``eps``, or a ``max_iter`` that is not an integer of
    at least 1, raises ``ParseError``.

    The iterate is one mass vector over those points, and the inputs are
    discretized once, so the unfolding's distances and class table are built
    once per call, over those points against every input's points. Each
    round slices the rows of its iterate's support, in canonical point order;
    a distance depends only on its pair, so a slice holds the bits a build
    per round would. Each input unfolds to atoms, flat quantile segments
    ending at their masses' running sums, so the clamped average is a clip
    of one cell walk, atomic, in the bits of ``average_quantile`` and
    ``line_ot.clamp_quantile``, where the clamp on quantile functions lives;
    a round builds no ``QuantileFn`` or ``LineMeasure``.
    A table of more entries than ``MGBARY_SUPPORT_CAP`` raises
    ``SupportCapError`` before it is built.
    """
    if isinstance(oe, str):
        oe = OrientedEdge(oe)
    g = problem.graph
    e = g.edge(oe.edge)
    if eps is None:
        eps = 1e-6 * e.length
    _check_threshold(eps, "eps")
    try:
        valid = operator.index(max_iter) >= 1
    except TypeError:
        valid = False
    if not valid:
        raise ParseError(f"max_iter must be an integer of at least 1, got {max_iter!r}")
    targets = _targets(problem)
    grid, width = _edge_grid(g, oe, problem.grid)
    n = len(grid) - 2
    if init == "uniform":
        k = np.arange(n)
        w = np.r_[0.0, 0.0, (1.0 / e.length) * (np.minimum(e.length, (k + 1) * width) - k * width)]
    elif init == "vertex":
        w = np.r_[1.0, np.zeros(n + 1)]
    else:
        raise ValueError(f"unknown init {init!r}; use 'uniform' or 'vertex'")

    points = [p for _, t in targets for p in t.points]
    _check_size(len(grid) * len(points), "unfolding table entries")
    tags, images, (length, a, on, d) = _branch_table(g, oe, grid, points)
    ends = np.cumsum([len(t.points) for _, t in targets])[:-1]
    tables = list(zip(*(np.split(x, ends, axis=-1) for x in (tags, images, on, d))))
    by_point = np.array(sorted(range(len(grid)), key=lambda i: grid[i].sort_key()))
    offsets = length - a if oe.reverse else a
    by_offset = np.argsort(offsets, kind="stable")
    lams = [lam for lam, _ in targets]

    def line_view(w):
        keep = by_offset[w[by_offset] > 0.0]
        return _flat_segments(offsets[keep], w[keep])

    prev_line = line_view(w)
    for iterations in range(1, max_iter + 1):
        rows = by_point[w[by_point] > 0.0]
        d_rows = np.concatenate(([0, 1], rows + 2))  # the edge's ends, then the support
        unfolded = []
        for (_, target), (tags_k, images_k, on_k, d_k) in zip(targets, tables):
            table = tags_k[rows], images_k, (length, a[rows], on_k, d_k[d_rows])
            unfolded.append(_flat_segments(*_unfold(table, w[rows], target.weights)))
        t, v, _ = _average(lams, unfolded)
        x, mass = _merged_atoms(np.clip(v, 0.0, e.length), np.diff(t))
        w = _edge_grid_masses(x, mass, e.length, n, width)
        new_line = line_view(w)
        converged = bool(np.sqrt(max(0.0, _w2_squared(new_line, prev_line))) <= eps)
        if converged:
            break
        prev_line = new_line
    line_m = LineMeasure(atoms=tuple(zip(x.tolist(), mass.tolist())))
    rows = by_point[w[by_point] > 0.0]
    profile = [
        (GraphPoint.on_edge(e.id, min(max(g.flip_offset(oe, x), 0.0), e.length)), mass)
        for x, mass in line_m.atoms
    ]
    return FixedPointResult(
        measure=discrete_measure(g, zip([grid[i] for i in rows], w[rows].tolist())),
        profile=graph_measure(g, atoms=profile),
        line_profile=line_m,
        iterations=iterations,
        converged=converged,
    )


@dataclass(frozen=True)
class RegularityReport:
    """Classification of a solver output's mass into permitted and flagged parts.

    Vertex atoms are always permitted; interior grid masses above ``atom_tol``
    are flagged. When no input carries density the singularity hypothesis is
    not met and flagged mass downgrades the verdict to HYPOTHESIS_NOT_MET
    instead of FAIL.
    """

    interior_atoms: tuple[tuple[GraphPoint, float], ...]
    vertex_atoms: tuple[tuple[str, float], ...]
    max_interior_mass: float
    max_interior_density: float
    atom_tol: float
    lambda_ac: float
    hypothesis_met: bool
    verdict: str


def regularity_report(
    problem: BarycenterProblem,
    mu: DiscreteMeasure,
    atom_tol: float | None = None,
) -> RegularityReport:
    """Flag interior mass concentrations of a solver output.

    The default threshold is five times the per-cell ceiling a purely
    absolutely continuous barycenter could reach at this grid:
    ``5 * lambda_ac * grid * max_input_density``, where ``lambda_ac`` is the
    total weight on density-carrying inputs. A NaN, infinite or negative
    ``atom_tol`` raises ``ParseError``.
    """
    h = problem.grid
    lambda_ac = sum(lam for lam, nu in problem.measures if nu.has_density)
    max_density = max(
        (d for _, nu in problem.measures for _, _, _, d in nu.pieces), default=0.0
    )
    hypothesis_met = any(
        nu.has_density and not nu.has_atoms for _, nu in problem.measures
    )
    if atom_tol is None:
        atom_tol = 5.0 * lambda_ac * h * max_density
    _check_threshold(atom_tol, "atom_tol")

    interior = []
    vertex = []
    max_mass = 0.0
    for p, w in zip(mu.points, mu.weights):
        if p.is_vertex:
            vertex.append((p.vertex, w))
        else:
            max_mass = max(max_mass, w)
            if w > atom_tol:
                interior.append((p, w))
    if not interior:
        verdict = "PASS"
    elif hypothesis_met:
        verdict = "FAIL"
    else:
        verdict = "HYPOTHESIS_NOT_MET"
    return RegularityReport(
        interior_atoms=tuple(interior),
        vertex_atoms=tuple(sorted(vertex)),
        max_interior_mass=max_mass,
        max_interior_density=max_mass / h,
        atom_tol=atom_tol,
        lambda_ac=lambda_ac,
        hypothesis_met=hypothesis_met,
        verdict=verdict,
    )
