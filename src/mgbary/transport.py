"""Discrete optimal transport on metric graphs.

Measures are discretized onto finite supports and couplings are solved as
exact linear programs over the squared length distance. Plans are kept as
explicit point-pair lists with marginal bookkeeping so downstream consumers
(decomposition by geodesic class, restriction maps, the line unfolding) can
reuse them directly.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .errors import (
    MeasureValidationError,
    NonMinimizingEdgeError,
    ParseError,
    SolverConsistencyError,
    SupportCapError,
)
from .metric_graph import (
    GraphPoint,
    MetricGraph,
    OrientedEdge,
    _exits,
    format_point,
    is_edge_minimizing,
    parse_point,
)
from .tolerances import HIGHS_TIGHT_TOL, LENGTH_TOL, LP_ZERO_TOL, MARGINAL_TOL, MASS_TOL, REL_TOL
from .tolerances import _check_grid, _check_unit_mass, _finite, _merge_atoms, _piece_values

DEFAULT_SUPPORT_CAP = 2_000_000
SUPPORT_CAP_ENV = "MGBARY_SUPPORT_CAP"


@dataclass(frozen=True)
class GraphMeasure:
    """A probability measure on a graph: point atoms plus per-edge densities.

    ``pieces`` holds ``(edge_id, a, b, density)`` with offsets measured from
    the edge's endpoint ``u``; densities are with respect to arclength.
    """

    atoms: tuple[tuple[GraphPoint, float], ...] = ()
    pieces: tuple[tuple[str, float, float, float], ...] = ()

    def total_mass(self) -> float:
        return sum(m for _, m in self.atoms) + sum(
            d * (b - a) for _, a, b, d in self.pieces
        )

    @property
    def has_atoms(self) -> bool:
        return bool(self.atoms)

    @property
    def has_density(self) -> bool:
        return bool(self.pieces)


def graph_measure(
    g: MetricGraph,
    atoms: Iterable[tuple[GraphPoint, float]] = (),
    pieces: Iterable[tuple[str, float, float, float]] = (),
) -> GraphMeasure:
    """Canonicalize and validate a measure on ``g``."""
    atoms_t = tuple(_merge_atoms(atoms, g.canonical, GraphPoint.sort_key))

    per_edge: dict[str, list[tuple[float, float, float]]] = {}
    for eid, a, b, d in pieces:
        e = g.edge(eid)
        a, b, d = _piece_values(a, b, d, f" of edge {eid!r}")
        if b <= a:
            continue
        if a < -LENGTH_TOL or b > e.length + LENGTH_TOL:
            raise MeasureValidationError(
                f"piece [{a!r}, {b!r}) outside edge {eid!r} of length {e.length!r}"
            )
        a, b = max(a, 0.0), min(b, e.length)
        if d > 0.0:
            per_edge.setdefault(eid, []).append((a, b, d))
    pieces_l = []
    for eid in sorted(per_edge):
        runs = sorted(per_edge[eid])
        for i in range(1, len(runs)):
            if runs[i][0] < runs[i - 1][1] - MASS_TOL:
                raise MeasureValidationError(f"overlapping pieces on edge {eid!r}")
        pieces_l.extend((eid, a, b, d) for a, b, d in runs)
    m = GraphMeasure(atoms=atoms_t, pieces=tuple(pieces_l))
    _check_unit_mass(m.total_mass())
    return m


@dataclass(frozen=True)
class DiscreteMeasure:
    """A finitely supported probability measure with canonical point order."""

    points: tuple[GraphPoint, ...]
    weights: tuple[float, ...]

    def as_dict(self) -> dict[GraphPoint, float]:
        return dict(zip(self.points, self.weights))


def discrete_measure(
    g: MetricGraph, pairs: Iterable[tuple[GraphPoint, float]]
) -> DiscreteMeasure:
    items = _merge_atoms(pairs, g.canonical, GraphPoint.sort_key)
    if not items:
        raise MeasureValidationError("discrete measure with empty support")
    _check_unit_mass(sum(w for _, w in items), "weight sum")
    return DiscreteMeasure(
        points=tuple(p for p, _ in items), weights=tuple(w for _, w in items)
    )


@dataclass(frozen=True)
class TransportPlan:
    """A finitely supported coupling with its transport cost cached.

    ``cost`` is the sum of ``mass * d(x, y) ** 2`` over the entries.
    """

    entries: tuple[tuple[GraphPoint, GraphPoint, float], ...]
    cost: float

    def mass(self) -> float:
        return sum(m for _, _, m in self.entries)

    def source_marginal(self) -> dict[GraphPoint, float]:
        out: dict[GraphPoint, float] = {}
        for x, _, m in self.entries:
            out[x] = out.get(x, 0.0) + m
        return out

    def target_marginal(self) -> dict[GraphPoint, float]:
        out: dict[GraphPoint, float] = {}
        for _, y, m in self.entries:
            out[y] = out.get(y, 0.0) + m
        return out


def _indexed(points: Iterable[GraphPoint]) -> dict[GraphPoint, int]:
    """Each distinct point, in first-seen order, mapped to its index."""
    return {p: i for i, p in enumerate(dict.fromkeys(points))}


def _make_plan(g: MetricGraph, entries, costs=None) -> TransportPlan:
    """The plan of ``entries`` sorted by point, its cost summed in that order.

    ``costs`` is ``(xs, ys, c)`` with ``c[i, j]`` the squared distance from
    ``xs[i]`` to ``ys[j]``; by default one :func:`_cost_matrix` over the
    entries' distinct points.
    """
    ordered = tuple(
        sorted(entries, key=lambda e: (e[0].sort_key(), e[1].sort_key()))
    )
    if costs is None:
        xs = list(dict.fromkeys(x for x, _, _ in ordered))
        ys = list(dict.fromkeys(y for _, y, _ in ordered))
        costs = xs, ys, _cost_matrix(g, xs, ys)
    xs, ys, c = costs
    rows, cols = _indexed(xs), _indexed(ys)
    cost = sum(m * float(c[rows[x], cols[y]]) for x, y, m in ordered)
    return TransportPlan(entries=ordered, cost=cost)


def _check_size(count: float, what: str) -> None:
    """Refuse a grid or LP of ``count`` cells or variables above the cap that
    ``MGBARY_SUPPORT_CAP`` sets (``DEFAULT_SUPPORT_CAP`` when unset)."""
    raw = os.environ.get(SUPPORT_CAP_ENV, DEFAULT_SUPPORT_CAP)
    try:
        cap = int(raw)
    except ValueError:
        raise ParseError(f"{SUPPORT_CAP_ENV} must be an integer, got {raw!r}") from None
    if not count <= cap:
        raise SupportCapError(
            f"the grid needs {count:.6g} {what}, above the cap {cap}; "
            f"coarsen the grid or raise {SUPPORT_CAP_ENV}"
        )


def _edge_cells(length: float, h: float) -> tuple[int, float]:
    """Number and width of the equal cells of spacing at most ``h`` on a length."""
    cells = length / h - REL_TOL
    _check_size(cells, "cells on one edge")
    n = max(1, math.ceil(cells))
    return n, length / n


def discretize(g: MetricGraph, m: GraphMeasure, h: float) -> DiscreteMeasure:
    """Replace density pieces by cell-center atoms on a grid of spacing <= h.

    Atoms are kept verbatim; each piece [a, b) is cut into equal cells and its
    mass placed at the cell centers, so mass is conserved and no spurious
    vertex atoms appear.
    """
    _check_grid(h)
    pairs: list[tuple[GraphPoint, float]] = list(m.atoms)
    for eid, a, b, d in m.pieces:
        n, width = _edge_cells(b - a, h)
        for k in range(n):
            center = a + (k + 0.5) * width
            pairs.append((GraphPoint.on_edge(eid, center), d * width))
    return discrete_measure(g, pairs)


def _distance_matrix(
    g: MetricGraph, xs: Sequence[GraphPoint], ys: Sequence[GraphPoint]
) -> np.ndarray:
    """``distance(g, x, y)`` for every pair of points.

    Bit for bit the floats of :func:`distance`: each pair takes the minimum of
    ``(c1 + D[w1, w2]) + c2`` over its at most 2 x 2 exit pairs, summed from
    the canonically first point (the vertex table is not bit-symmetric), then
    the same-edge segment; equal points are 0.
    """
    xs = [g.canonical(p) for p in xs]
    ys = [g.canonical(p) for p in ys]
    rank = {k: r for r, k in enumerate(sorted({p.sort_key() for p in xs + ys}))}
    edge_index = {e.id: i for i, e in enumerate(g.edges)}

    def encode(points):
        # two exits per point (a vertex repeats its one), edge index or -1,
        # offset, canonical rank
        exits = [(_exits(g, p) * 2)[:2] for p in points]
        cost = np.array([[c for c, _, _ in two] for two in exits]).reshape(-1, 2)
        vert = np.array(
            [[g._index[w] for _, w, _ in two] for two in exits], dtype=np.intp
        ).reshape(-1, 2)
        edge = np.array([-1 if p.edge is None else edge_index[p.edge] for p in points])
        off = np.array([p.offset for p in points])
        return cost, vert, edge, off, np.array([rank[p.sort_key()] for p in points])

    cx, vx, ex, ox, rx = encode(xs)
    cy, vy, ey, oy, ry = encode(ys)
    sources = np.unique(np.concatenate([vx, vy]))  # exit vertices whose rows are read
    table = g._table_rows(sources.tolist())
    sx, sy = np.searchsorted(sources, vx), np.searchsorted(sources, vy)
    x_first = rx[:, None] < ry[None, :]
    d = np.full((len(xs), len(ys)), np.inf)
    for a in range(2):
        c1, w1, s1 = cx[:, a, None], vx[:, a, None], sx[:, a, None]
        for b in range(2):
            c2, w2, s2 = cy[None, :, b], vy[None, :, b], sy[None, :, b]
            route = np.where(x_first, (c1 + table[s1, w2]) + c2, (c2 + table[s2, w1]) + c1)
            np.minimum(d, route, out=d)
    same_edge = (ex[:, None] == ey[None, :]) & (ex[:, None] >= 0)
    d = np.where(same_edge, np.minimum(d, np.abs(oy[None, :] - ox[:, None])), d)
    d[rx[:, None] == ry[None, :]] = 0.0
    return d


def _cost_matrix(g: MetricGraph, xs: Sequence[GraphPoint], ys: Sequence[GraphPoint]):
    """``distance(g, x, y) ** 2`` bit for bit: ``np.float_power`` squares by C ``pow``."""
    return np.float_power(_distance_matrix(g, xs, ys), 2)


def _coupling_lp(costs, targets, source=None):
    """``c``, CSR ``A_eq`` and ``b_eq`` of row-major couplings from one source.

    Coupling ``i`` has the n by k cost matrix ``costs[i]``, then sits beside
    the ones before it with n row-sum and k column-sum equations; its column
    sums are ``targets[i]``. Its row sums are ``source`` or, when that is
    None, n leading columns of cost 0 that a last equation sums to 1.
    """
    n = costs[0].shape[0]
    lead = n if source is None else 0
    c, rows, cols, vals, b = [np.zeros(lead)], [], [], [], []
    row0, col0 = 0, lead
    for cost, weights in zip(costs, targets):
        k = cost.shape[1]
        c.append(cost.ravel())
        rows += [row0 + np.repeat(np.arange(n), k), row0 + n + np.tile(np.arange(k), n)]
        cols += [col0 + np.arange(n * k), col0 + np.arange(n * k)]
        rows.append(row0 + np.arange(lead))  # row sums less the leading columns
        cols.append(np.arange(lead))
        vals += [np.ones(2 * n * k), -np.ones(lead)]
        b += [np.zeros(n) if lead else source, weights]
        row0 += n + k
        col0 += n * k
    if lead:
        rows.append(np.full(n, row0))
        cols.append(np.arange(n))
        vals.append(np.ones(n))
        b.append(np.ones(1))
        row0 += 1
    a_eq = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(row0, col0),
    )
    return np.concatenate(c), a_eq, np.concatenate(b)


def _weight_reduced_costs(costs, y: np.ndarray) -> np.ndarray:
    """Reduced cost of the barycenter weight at every row x of ``costs`` under
    the duals ``y`` of a sourceless :func:`_coupling_lp` on some of its rows,
    extended by the c-transform: ``sum_i min_j (costs[i][x, j] - beta_i[j]) - z``,
    ``beta_i`` coupling i's column-sum duals and ``z`` the unit-mass row's."""
    n = (len(y) - 1 - sum(cost.shape[1] for cost in costs)) // len(costs)
    total = np.full(costs[0].shape[0], -y[-1])
    row0 = 0
    for cost in costs:
        k = cost.shape[1]
        total += np.min(cost - y[row0 + n : row0 + n + k], axis=1)
        row0 += n + k
    return total


def _accepted(res, c: np.ndarray, a_eq, b_eq: np.ndarray) -> np.ndarray:
    """The solution ``x`` of a solved :func:`_coupling_lp`, entries below
    ``LP_ZERO_TOL`` zeroed, once it meets every equation (each coupling's
    marginals) within ``MARGINAL_TOL`` and the equality duals ``y`` prove the
    solver's unzeroed ``x`` optimal: reduced costs ``c - A^T y >= -tol``, gap
    ``|c^T x - b^T y| <= tol``, ``tol = REL_TOL * max(1, max c)``. Else
    ``SolverConsistencyError``."""
    if not res.success:
        raise SolverConsistencyError(f"LP solve failed: {res.message}")
    x = np.where(res.x < LP_ZERO_TOL, 0.0, res.x)
    residual = float(np.max(np.abs(a_eq @ x - b_eq)))
    if not residual <= MARGINAL_TOL:
        raise SolverConsistencyError(f"plan marginal residual {residual!r} exceeds {MARGINAL_TOL}")
    y = res.eqlin.marginals
    tol = REL_TOL * max(1.0, float(c.max()))
    reduced = float(np.min(c - a_eq.T @ y))
    gap = abs(float(c @ res.x) - float(b_eq @ y))
    if not (reduced >= -tol and gap <= tol):
        raise SolverConsistencyError(
            f"dual certificate fails: min reduced cost {reduced!r}, gap {gap!r}, tolerance {tol!r}"
        )
    return x


def _solved(linprog, c: np.ndarray, a_eq, b_eq: np.ndarray):
    """A :func:`_coupling_lp` solved by HiGHS (interior point, crossover to a
    vertex) through ``linprog``, the caller's module binding: the result and
    its :func:`_accepted` solution. An answer that fails acceptance is solved
    once more with HiGHS's feasibility and optimality tolerances at
    ``HIGHS_TIGHT_TOL``, and only that answer's failure is raised."""
    def solve(**options):
        return linprog(
            c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs-ipm", options=options
        )

    res = solve()
    try:
        return res, _accepted(res, c, a_eq, b_eq)
    except SolverConsistencyError:
        res = solve(
            primal_feasibility_tolerance=HIGHS_TIGHT_TOL,
            dual_feasibility_tolerance=HIGHS_TIGHT_TOL,
            ipm_optimality_tolerance=HIGHS_TIGHT_TOL,
        )
        return res, _accepted(res, c, a_eq, b_eq)


def w2_graph(
    g: MetricGraph, m1: DiscreteMeasure, m2: DiscreteMeasure
) -> tuple[float, TransportPlan]:
    """Squared Wasserstein distance and an optimal plan between two supports.

    Solves the transportation linear program
    ``min sum pi(x, y) d(x, y)^2`` over couplings of the two weight vectors
    exactly; the returned cost is the squared distance. HiGHS solves it by
    interior point with crossover to a vertex, deterministic for identical
    inputs, which pins down one optimal plan when several exist.

    Raises
    ------
    SupportCapError
        If the LP would exceed the variable cap (``MGBARY_SUPPORT_CAP``).
    SolverConsistencyError
        If the solver fails, the plan's marginals drift beyond ``MARGINAL_TOL``,
        or the duals do not certify the plan optimal.
    """
    n, k = len(m1.points), len(m2.points)
    if n == 1 or k == 1:  # the only coupling: the many side's weights
        pairs = [(x, y) for x in m1.points for y in m2.points]
        weights = m2.weights if n == 1 else m1.weights
        plan = _make_plan(g, [(x, y, w) for (x, y), w in zip(pairs, weights)])
        return plan.cost, plan

    _check_size(n * k, "LP variables")
    costs = _cost_matrix(g, m1.points, m2.points)
    c, a_eq, b_eq = _coupling_lp([costs], [m2.weights], m1.weights)
    x = _solved(linprog, c, a_eq, b_eq)[1].reshape(n, k)

    entries = [
        (m1.points[i], m2.points[j], float(x[i, j]))
        for i, j in zip(*np.nonzero(x))
    ]
    plan = _make_plan(g, entries, (m1.points, m2.points, costs))
    return plan.cost, plan


class BranchTag(Enum):
    """Which way a geodesic leaving a base edge goes: inside it, or out an end."""

    E = "edge"
    PLUS = "plus"
    MINUS = "minus"


def _require_minimizing(g: MetricGraph, oe: OrientedEdge):
    if not is_edge_minimizing(g, oe.edge):
        raise NonMinimizingEdgeError(
            f"edge {oe.edge!r} is not minimizing: endpoint distance is shorter than its length"
        )


def _branch_table(
    g: MetricGraph, oe: OrientedEdge, xs: Sequence[GraphPoint], ys: Sequence[GraphPoint]
) -> tuple[np.ndarray, np.ndarray]:
    """The rule of :func:`classify_pair` for every pair of sources ``xs`` on
    the base edge and targets ``ys``: the n by k indices into ``tuple(BranchTag)``,
    and the 2 by k distances from the oriented endpoints ``e0``, ``e1``."""
    _require_minimizing(g, oe)
    ax = np.array([g.oriented_offset(oe, x) for x in xs], dtype=float)[:, None]
    if np.isnan(ax).any():
        raise ValueError(f"source {xs[np.argmax(np.isnan(ax))]} is off edge {oe.edge!r}")
    ay = np.array([g.oriented_offset(oe, y) for y in ys], dtype=float)  # NaN off the edge
    e0, e1 = (GraphPoint.at_vertex(v) for v in g.oriented_endpoints(oe))
    d = _distance_matrix(g, [e0, e1, *xs], ys)
    ends, reach = d[:2], d[2:] + LENGTH_TOL
    length = g.edge(oe.edge).length
    matches = [
        np.abs(ay - ax) <= reach,
        (length - ax) + ends[1] <= reach,
        ax + ends[0] <= reach,
    ]
    tags = np.select(matches, range(len(matches)), -1)
    if (tags < 0).any():
        i, j = np.argwhere(tags < 0)[0]
        raise SolverConsistencyError(
            f"no geodesic class matches pair ({xs[i]}, {ys[j]}) on edge {oe.edge!r}"
        )
    return tags, ends


def classify_pair(
    g: MetricGraph, oe: OrientedEdge, x: GraphPoint, y: GraphPoint
) -> BranchTag:
    """Classify the geodesic from ``x`` (on the base edge) to ``y``.

    E when the within-edge segment realizes the distance, PLUS when a shortest
    route exits through the oriented second endpoint, MINUS through the first.
    Ties resolve with priority E > PLUS > MINUS, so measures living on the
    edge always classify as E.
    """
    tags, _ = _branch_table(g, oe, [x], [y])
    return tuple(BranchTag)[tags[0, 0]]


def decompose_plan(
    g: MetricGraph, oe: OrientedEdge, plan: TransportPlan
) -> tuple[TransportPlan, TransportPlan, TransportPlan]:
    """Split a plan whose sources lie on the base edge by geodesic class.

    The three parts sum back to the plan entry by entry; on a minimizing edge
    the PLUS and MINUS parts cannot overlap.
    """
    rows = _indexed(x for x, _, _ in plan.entries)
    cols = _indexed(y for _, y, _ in plan.entries)
    tags, _ = _branch_table(g, oe, list(rows), list(cols))
    parts: list[list] = [[] for _ in BranchTag]
    for x, y, m in plan.entries:
        parts[tags[rows[x], cols[y]]].append((x, y, m))
    return tuple(_make_plan(g, part) for part in parts)


@dataclass(frozen=True)
class RestrictionResult:
    """Output of :func:`restrict`: the split sources, images, and their plans."""

    lam: float
    mu1: DiscreteMeasure
    mu2: DiscreteMeasure
    nu1: DiscreteMeasure
    nu2: DiscreteMeasure
    plan: TransportPlan
    plan1: TransportPlan
    plan2: TransportPlan


def restrict(
    g: MetricGraph,
    m: DiscreteMeasure,
    part1: Mapping[GraphPoint, float],
    nu: DiscreteMeasure,
) -> RestrictionResult:
    """Push a convex split of ``m`` through an optimal plan onto ``nu``.

    ``part1`` is a sub-measure of ``m`` (pointwise between 0 and ``m``); with
    ``lam`` its total mass, ``m = lam * mu1 + (1 - lam) * mu2``. An optimal
    plan from ``m`` to ``nu`` is computed and reweighted by the per-point
    density of each part, giving images ``nu1``, ``nu2`` with
    ``lam * nu1 + (1 - lam) * nu2 = nu`` and plans that are optimal for the
    split problems.
    """
    weights = m.as_dict()
    sub: dict[GraphPoint, float] = {}
    for p, w in part1.items():
        cp = g.canonical(p)
        if cp not in weights:
            raise MeasureValidationError(f"part1 has mass at {cp} outside the measure")
        w = _finite(w, "part1 mass")
        if w < -MASS_TOL or w > weights[cp] + MASS_TOL:
            raise MeasureValidationError(
                f"part1 mass {w!r} at {cp} exceeds the measure's {weights[cp]!r}"
            )
        if w > 0.0:
            sub[cp] = min(w, weights[cp])
    lam = sum(sub.values())
    if lam <= MASS_TOL or lam >= 1.0 - MASS_TOL:
        raise MeasureValidationError(
            f"part1 mass {lam!r} must be strictly between 0 and 1"
        )

    f1 = {p: sub.get(p, 0.0) / weights[p] for p in m.points}
    _, plan = w2_graph(g, m, nu)

    entries1 = []
    entries2 = []
    for x, y, mass in plan.entries:
        w1 = mass * f1[x] / lam
        w2 = mass * (1.0 - f1[x]) / (1.0 - lam)
        if w1 > 0.0:
            entries1.append((x, y, w1))
        if w2 > 0.0:
            entries2.append((x, y, w2))
    plan1 = _make_plan(g, entries1)
    plan2 = _make_plan(g, entries2)

    mu1 = discrete_measure(g, [(p, sub[p] / lam) for p in sub])
    mu2 = discrete_measure(
        g,
        [
            (p, (weights[p] - sub.get(p, 0.0)) / (1.0 - lam))
            for p in m.points
            if weights[p] - sub.get(p, 0.0) > 0.0
        ],
    )
    nu1 = discrete_measure(g, plan1.target_marginal().items())
    nu2 = discrete_measure(g, plan2.target_marginal().items())
    return RestrictionResult(
        lam=lam, mu1=mu1, mu2=mu2, nu1=nu1, nu2=nu2,
        plan=plan, plan1=plan1, plan2=plan2,
    )


def graph_measure_to_json(m: GraphMeasure, digits: int | None = None, fmt=None) -> dict:
    """``digits`` limits offsets' significant digits; ``fmt`` formats masses."""
    return {
        "atoms": [
            {"point": format_point(p, digits), "mass": mass if fmt is None else fmt(mass)}
            for p, mass in m.atoms
        ],
        "pieces": [
            {"edge": eid, "a": a, "b": b, "density": d} for eid, a, b, d in m.pieces
        ],
    }


def graph_measure_from_json(g: MetricGraph, obj: dict) -> GraphMeasure:
    try:
        atoms = [
            (parse_point(g, rec["point"]), rec["mass"]) for rec in obj.get("atoms", [])
        ]
        pieces = [
            (rec["edge"], rec["a"], rec["b"], rec["density"])
            for rec in obj.get("pieces", [])
        ]
        return graph_measure(g, atoms=atoms, pieces=pieces)
    except (AttributeError, KeyError, TypeError) as exc:
        raise MeasureValidationError(f"malformed measure record: {exc}") from None
    except ValueError as exc:  # unknown edge or vertex id, offset off its edge
        raise MeasureValidationError(str(exc)) from None


def discrete_to_graph_measure(m: DiscreteMeasure) -> GraphMeasure:
    return GraphMeasure(atoms=tuple(zip(m.points, m.weights)), pieces=())
