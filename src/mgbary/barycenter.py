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
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

from .covering import make_cover_context, measure_on_edge_as_line, phi
from .line_ot import (
    LineMeasure,
    QuantileFn,
    average_quantile,
    measure_from_quantile,
    w2_line,
)
from .metric_graph import GraphPoint, MetricGraph, OrientedEdge
from .transport import (
    DiscreteMeasure,
    GraphMeasure,
    _check_size,
    _cost_matrix,
    _coupling_lp,
    _edge_cells,
    _solved,
    _weight_reduced_costs,
    discrete_measure,
    discretize,
    graph_measure,
    w2_graph,
)
from .tolerances import CELL_NUDGE, REL_TOL, SNAP_TOL
from .tolerances import _check_grid, _check_threshold, _check_weights

_log = logging.getLogger("mgbary")
SEED_SIZE = 16  # candidates of solve_lp's first LP


@dataclass(frozen=True)
class BarycenterProblem:
    """Weighted family of measures on one graph, plus the working grid spacing."""

    graph: MetricGraph
    measures: tuple[tuple[float, GraphMeasure], ...]
    grid: float


def barycenter_problem(
    g: MetricGraph,
    measures: Sequence[tuple[float, GraphMeasure]],
    grid: float,
) -> BarycenterProblem:
    _check_weights([lam for lam, _ in measures])
    _check_grid(grid)
    return BarycenterProblem(graph=g, measures=tuple(measures), grid=float(grid))


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
        n, width = _edge_cells(e.length, problem.grid)
        points.extend(
            GraphPoint.on_edge(e.id, (k + 0.5) * width) for k in range(n)
        )
    return points


def solve_lp(problem: BarycenterProblem) -> tuple[DiscreteMeasure, float]:
    """Exact barycenter of the discretized problem over the candidate grid.

    Joint variables are the barycenter weights and one coupling per input;
    the constraints tie each coupling's first marginal to the weights and its
    second to the discretized input. The optimum is exact for the discretized
    problem since everything is jointly linear. HiGHS solves it by interior
    point with crossover to a vertex; every answer is accepted only after its
    couplings' marginals and a dual certificate of optimality are checked.

    The optimal barycenter has small support, so each LP spans a candidate
    set S. Extended to every other candidate by the c-transform, its duals
    price the weight there; when no reduced cost is below ``-REL_TOL * max(1,
    max cost)`` they are feasible for the whole grid's LP at the same value,
    so S's optimum is the grid's. Otherwise the worst candidates join S. S
    starts at the ``SEED_SIZE`` best Dirac positions. The cap still counts
    every candidate against every input cell.

    Raises
    ------
    SupportCapError
        If the LP over the whole grid or an edge's cell grid would exceed the
        cap (``MGBARY_SUPPORT_CAP`` overrides the default).
    ParseError
        If ``MGBARY_SUPPORT_CAP`` is not an integer.
    SolverConsistencyError
        If the solver fails, a coupling's marginals drift beyond ``MARGINAL_TOL``,
        or the duals do not certify the solution optimal.
    """
    g = problem.graph
    support = candidate_support(problem)
    targets = _targets(problem)
    n = len(support)
    _check_size(n + n * sum(len(t.points) for _, t in targets), "LP variables")
    ends = np.cumsum([len(t.points) for _, t in targets])[:-1]
    full = _cost_matrix(g, support, [p for _, t in targets for p in t.points])
    costs = [lam * cost for (lam, _), cost in zip(targets, np.split(full, ends, axis=1))]
    weights = [t.weights for _, t in targets]
    dirac = sum(cost @ np.asarray(w) for cost, w in zip(costs, weights))
    rows = np.sort(np.argsort(dirac, kind="stable")[:SEED_SIZE])
    tol = REL_TOL * max(1.0, max(float(cost.max()) for cost in costs))
    rounds = 0
    while True:
        rounds += 1
        c, a_eq, b_eq = _coupling_lp([cost[rows] for cost in costs], weights)
        res, x = _solved(linprog, c, a_eq, b_eq)
        w = x[: len(rows)]
        slack = _weight_reduced_costs(costs, res.eqlin.marginals)
        slack[rows] = np.inf
        worst = np.argsort(slack, kind="stable")[: len(rows)]  # S at most doubles
        worst = worst[slack[worst] < -tol]
        if not worst.size:
            break
        rows = np.union1d(rows, worst)
    _log.debug(
        "solve_lp grid %r: %d candidates, |S| %d, %d LP rounds, min slack off S %r",
        problem.grid, n, len(rows), rounds, float(slack.min()),
    )
    w /= w.sum()
    mu = discrete_measure(g, [(support[i], float(wi)) for i, wi in zip(rows, w) if wi > 0.0])
    return mu, float(res.fun)


def clamp_quantile(q: QuantileFn, lo: float, hi: float) -> QuantileFn:
    """Pointwise median(lo, q, hi); stays monotone and piecewise linear."""
    if not lo < hi:
        raise ValueError(f"clamp bounds must satisfy lo < hi, got {lo!r}, {hi!r}")
    segs: list[tuple[float, float, float, float]] = []

    def push(t0, t1, v0, v1):
        if t1 > t0:
            segs.append((t0, t1, v0, v1))

    for t0, t1, v0, v1 in q.segments:
        if v1 <= lo:
            push(t0, t1, lo, lo)
            continue
        if v0 >= hi:
            push(t0, t1, hi, hi)
            continue
        ta, tb = t0, t1
        if v0 < lo:
            ta = t0 + (lo - v0) * (t1 - t0) / (v1 - v0)
            push(t0, min(ta, t1), lo, lo)
        if v1 > hi:
            tb = t0 + (hi - v0) * (t1 - t0) / (v1 - v0)
        ta = min(max(ta, t0), t1)
        tb = min(max(tb, t0), t1)
        push(ta, tb, max(v0, lo), min(v1, hi))
        if v1 > hi:
            push(max(tb, t0), t1, hi, hi)
    return QuantileFn(tuple(segs))


def _project_line_to_edge_grid(
    g: MetricGraph, oe: OrientedEdge, m: LineMeasure, h: float
) -> DiscreteMeasure:
    """Project a measure on [0, length] onto the fixed cell grid of the edge.

    Mass at the exact endpoints goes to the endpoint vertices; interior mass
    goes to the center of its cell. Using one fixed grid keeps the fixed-point
    iteration inside a finite family of measures.
    """
    e = g.edge(oe.edge)
    e0, e1 = g.oriented_endpoints(oe)
    n, width = _edge_cells(e.length, h)
    cell_mass = [0.0] * n
    v0_mass = 0.0
    v1_mass = 0.0

    def deposit(s: float, mass: float):
        nonlocal v0_mass, v1_mass
        if s <= SNAP_TOL:
            v0_mass += mass
        elif s >= e.length - SNAP_TOL:
            v1_mass += mass
        else:
            cell_mass[min(int(s / width), n - 1)] += mass

    for x, mass in m.atoms:
        deposit(x, mass)
    for a, b, d in m.pieces:
        k0 = max(0, int(a / width))
        k1 = min(n - 1, int((b - CELL_NUDGE) / width))
        for k in range(k0, k1 + 1):
            lo = max(a, k * width)
            hi = min(b, (k + 1) * width)
            if hi > lo:
                cell_mass[k] += d * (hi - lo)

    pairs: list[tuple[GraphPoint, float]] = []
    if v0_mass > 0.0:
        pairs.append((GraphPoint.at_vertex(e0), v0_mass))
    if v1_mass > 0.0:
        pairs.append((GraphPoint.at_vertex(e1), v1_mass))
    for k, mass in enumerate(cell_mass):
        if mass > 0.0:
            off = g.flip_offset(oe, (k + 0.5) * width)
            pairs.append((GraphPoint.on_edge(e.id, off), mass))
    return discrete_measure(g, pairs)


def _pull_line_to_edge(
    g: MetricGraph, oe: OrientedEdge, m: LineMeasure
) -> GraphMeasure:
    """Identify a measure on [0, length] with a measure on the oriented edge."""
    e = g.edge(oe.edge)
    atoms = [
        (GraphPoint.on_edge(e.id, min(max(g.flip_offset(oe, x), 0.0), e.length)), mass)
        for x, mass in m.atoms
    ]
    pieces = [
        (e.id, *sorted((g.flip_offset(oe, a), g.flip_offset(oe, b))), d) for a, b, d in m.pieces
    ]
    return graph_measure(g, atoms=atoms, pieces=pieces)


@dataclass(frozen=True)
class FixedPointResult:
    """Converged state of the edge-local scheme.

    ``measure`` is the grid-projected iterate used inside the loop;
    ``profile`` is the continuous measure produced by the final clamped
    quantile average, before grid projection.
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
    [0, length], pulls the result back onto the edge, and projects it onto the
    fixed spacing-``grid`` cell grid. Stops when the transport distance
    between successive iterates drops to ``eps`` (default ``1e-6 * length``).
    Non-convergence within ``max_iter`` is reported honestly via the
    ``converged`` flag; the LP solver remains the ground truth. A NaN,
    infinite or negative ``eps`` raises ``ParseError``.
    """
    if isinstance(oe, str):
        oe = OrientedEdge(oe)
    g = problem.graph
    e = g.edge(oe.edge)
    if eps is None:
        eps = 1e-6 * e.length
    _check_threshold(eps, "eps")
    h = problem.grid
    targets = _targets(problem)

    if init == "uniform":
        mu = _project_line_to_edge_grid(
            g, oe, LineMeasure(pieces=((0.0, e.length, 1.0 / e.length),)), h
        )
    elif init == "vertex":
        e0, _ = g.oriented_endpoints(oe)
        mu = discrete_measure(g, [(GraphPoint.at_vertex(e0), 1.0)])
    else:
        raise ValueError(f"unknown init {init!r}; use 'uniform' or 'vertex'")

    prev_line = measure_on_edge_as_line(g, oe, mu)
    line_m = prev_line
    converged = False
    iterations = 0
    for it in range(1, max_iter + 1):
        iterations = it
        ctx = make_cover_context(g, oe, mu)
        unfolded = [(lam, phi(ctx, target)) for lam, target in targets]
        clamped = clamp_quantile(average_quantile(unfolded), 0.0, e.length)
        line_m = measure_from_quantile(clamped)
        mu = _project_line_to_edge_grid(g, oe, line_m, h)
        new_line = measure_on_edge_as_line(g, oe, mu)
        delta = w2_line(new_line, prev_line)
        prev_line = new_line
        if delta <= eps:
            converged = True
            break
    return FixedPointResult(
        measure=mu,
        profile=_pull_line_to_edge(g, oe, line_m),
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
