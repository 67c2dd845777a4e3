"""Discrete optimal transport on metric graphs.

Measures are discretized onto finite supports and couplings are solved as
exact linear programs over the squared length distance. Plans are kept as
explicit point-pair lists with marginal bookkeeping so downstream consumers
(decomposition by geodesic class, restriction maps, the line unfolding) can
reuse them directly.
"""

from __future__ import annotations

import functools
import logging
import math
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from types import SimpleNamespace
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog  # unused here; perfbench/spans.py wraps it by this name
from scipy.optimize._highspy._core import HighsModelStatus, _Highs

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
    _distance_matrix,
    _edge_offsets,
    format_point,
    is_edge_minimizing,
    parse_point,
)
from .tolerances import HIGHS_TIGHT_TOL, LENGTH_TOL, LP_ZERO_TOL, MARGINAL_TOL, MASS_TOL, REL_TOL
from .tolerances import SNAP_TOL, _atom_mass, _check_grid, _check_unit_mass, _finite
from .tolerances import _merge_atoms, _piece_values

_log = logging.getLogger("mgbary")
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
    """Canonicalize and validate finitely many weighted points. A weight sum
    within ``UNIT_MASS_TOL`` of 1 but more than ``MASS_TOL`` off it is
    divided out, so that two measures' marginals agree within
    ``MARGINAL_TOL`` in every transport LP."""
    items = _merge_atoms(pairs, g.canonical, GraphPoint.sort_key)
    return _discrete([p for p, _ in items], [w for _, w in items])


def _discrete(points: list[GraphPoint], weights: list[float]) -> DiscreteMeasure:
    if not points:
        raise MeasureValidationError("discrete measure with empty support")
    total = sum(weights)
    _check_unit_mass(total, "weight sum")
    if abs(total - 1.0) > MASS_TOL:
        weights = [w / total for w in weights]
    return DiscreteMeasure(points=tuple(points), weights=tuple(weights))


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
    ``MGBARY_SUPPORT_CAP`` sets (``DEFAULT_SUPPORT_CAP`` when unset), which
    must be an integer of at least 0, else ``ParseError``."""
    raw = os.environ.get(SUPPORT_CAP_ENV, DEFAULT_SUPPORT_CAP)
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise ParseError(f"{SUPPORT_CAP_ENV} must be an integer of at least 0, got {raw!r}")
    if not count <= cap:
        raise SupportCapError(
            f"the grid needs {count:.6g} {what}, above the cap {cap}; "
            f"coarsen the grid or raise {SUPPORT_CAP_ENV}"
        )


def _edge_cells(a: float, b: float, h: float) -> tuple[np.ndarray, float]:
    """Centers and width of the equal cells of spacing at most ``h`` on [a, b]."""
    cells = (b - a) / h - REL_TOL
    _check_size(cells, "cells on one edge")
    n = max(1, math.ceil(cells))
    width = (b - a) / n
    return a + (np.arange(n) + 0.5) * width, width


def discretize(g: MetricGraph, m: GraphMeasure, h: float) -> DiscreteMeasure:
    """Replace density pieces by cell-center atoms on a grid of spacing <= h.

    Each piece [a, b) is cut into equal cells and its mass placed at the cell
    centers, so mass is conserved. The result is ``discrete_measure`` of the
    atoms and then every center, in its bits, built in bulk: a center within
    SNAP_TOL of an edge end becomes that vertex (the first end when both are
    that close), and an atom at a cell center adds that cell's mass to its
    own, as coinciding centers add theirs, in input order.
    """
    _check_grid(h)
    cells = [(eid, *_edge_cells(a, b, h), d) for eid, a, b, d in m.pieces]
    runs = [  # ((kind, id), offsets, mass) in input order, the atoms first
        ((0, p.vertex) if p.is_vertex else (1, p.edge), [p.offset], w)
        for p, w in _merge_atoms(m.atoms, g.canonical, GraphPoint.sort_key)
    ]
    for eid, centers, width, d in cells:
        w, e, c = _atom_mass(d * width), g.edge(eid), centers.tolist()  # c never falls
        lo, hi = bisect_left(c, -LENGTH_TOL), bisect_right(c, e.length + LENGTH_TOL)
        for outside in (c[:lo] + c[hi:])[:1]:
            g.canonical(GraphPoint.on_edge(eid, outside))  # raises its ValueError
        lo = bisect_right(c, SNAP_TOL)
        hi = max(lo, bisect_left(c, e.length - SNAP_TOL))
        if w > 0.0:
            runs += [((0, e.u), [0.0] * lo, w), ((1, eid), c[lo:hi], w)]
            runs.append(((0, e.v), [0.0] * (len(c) - hi), w))
    names = sorted({name for name, _, _ in runs})  # vertices by id, then edges by id
    size = [len(offs) for _, offs, _ in runs]
    name = np.repeat([names.index(n) for n, _, _ in runs], size)
    off = np.fromiter(chain.from_iterable(offs for _, offs, _ in runs), float, sum(size))
    # complex numbers sort by real part, then imaginary: by name, then offset
    key, point = np.unique(name + 1j * off, return_inverse=True)
    weights = np.bincount(point, np.repeat([w for _, _, w in runs], size))  # in input order
    k = key.real.astype(int).tolist()
    vertex, edge = ([i if kind == c else None for kind, i in names].__getitem__ for c in (0, 1))
    points = list(map(GraphPoint, map(vertex, k), map(edge, k), key.imag.tolist()))
    return _discrete(points, weights.tolist())


def _cost_matrix(g: MetricGraph, xs: Sequence[GraphPoint], ys: Sequence[GraphPoint]):
    """``distance(g, x, y) ** 2`` bit for bit: ``np.float_power`` squares by C ``pow``."""
    return np.float_power(_distance_matrix(g, xs, ys), 2)


def _add_candidates(highs, lp, costs):
    """Join m more candidates, whose rows of coupling i's costs are
    ``costs[i]``, to ``highs`` and to its model ``lp = (c, a_eq, b_eq)``,
    from :func:`_highs_model` or an earlier call.

    The joint LP is laid out candidate by candidate. Its first rows are the
    column sums of coupling 0, 1, ..., K - 1 (``b_eq`` the inputs' weights),
    then the unit-mass row. Each candidate appends one block: K rows, the row
    sums of its K couplings less its weight (``b_eq`` 0), then its weight
    column (cost 0, 1 in the unit-mass row, -1 in its row sums), then the
    columns of its rows of couplings 0, ..., K - 1 (1 in their column-sum
    row and in its row sum). Returns the grown ``lp``, CSC, and the m
    weight columns."""
    (c, a_eq, b_eq), m, ks = lp, costs[0].shape[0], [cost.shape[1] for cost in costs]
    unit = sum(ks)  # the unit-mass row, after every column-sum row
    own = len(b_eq) + len(ks) * np.arange(m)[:, None] + np.arange(len(ks))  # m by K row sums
    sums = own[:, np.repeat(np.arange(len(ks)), ks)]  # the row sum of each coupling column
    pairs = np.stack([np.broadcast_to(np.arange(unit), sums.shape), sums], -1)
    index = np.hstack([np.full((m, 1), unit), own, pairs.reshape(m, -1)]).ravel()
    value = np.tile(np.r_[1.0, -np.ones(len(ks)), np.ones(2 * unit)], m)
    starts = np.r_[0, np.cumsum(np.tile(np.r_[len(ks) + 1, np.full(unit, 2)], m))]
    cost, zeros = np.hstack([np.zeros((m, 1)), *costs]).ravel(), np.zeros(m * len(ks))
    highs.addRows(len(zeros), zeros, zeros, 0, [], [], [])
    highs.addCols(len(cost), cost, np.zeros(len(cost)), np.full(len(cost), np.inf),
                  len(index), starts[:-1], index, value)
    a_eq = sparse.csc_matrix(
        (np.r_[a_eq.data, value], np.r_[a_eq.indices, index], np.r_[a_eq.indptr, a_eq.nnz + starts[1:]]),
        shape=(len(b_eq) + len(zeros), len(c) + len(cost)),
    )
    return (np.r_[c, cost], a_eq, np.r_[b_eq, zeros]), len(c) + (1 + unit) * np.arange(m)


def _weight_reduced_costs(costs, y: np.ndarray) -> np.ndarray:
    """Reduced cost of the barycenter weight at every row x of ``costs`` under
    the duals ``y`` of an :func:`_add_candidates` model, extended by the
    c-transform: ``sum_i min_j (costs[i][x, j] - beta_i[j]) - z``, ``beta_i``
    coupling i's column-sum duals and ``z`` the unit-mass row's."""
    ends = np.cumsum([cost.shape[1] for cost in costs])
    total = np.full(costs[0].shape[0], -y[ends[-1]])
    for cost, beta in zip(costs, np.split(y[: ends[-1]], ends[:-1])):
        total += np.min(cost - beta, axis=1)
    return total


def _certificate_tol(c: np.ndarray) -> float:
    """Slack of the dual certificate of a coupling LP of costs ``c``."""
    return REL_TOL * max(1.0, float(c.max()))


def _accepted(res, c: np.ndarray, a_eq, b_eq: np.ndarray) -> np.ndarray:
    """The :func:`_certificate` of a solved ``linprog``-shaped answer ``res``
    to ``min c @ x``, ``a_eq @ x = b_eq``, ``x >= 0``, with equality duals."""
    if not res.success:
        raise SolverConsistencyError(f"LP solve failed: {res.message}")
    zeroed, y = np.where(res.x < LP_ZERO_TOL, 0.0, res.x), res.eqlin.marginals
    gap = abs(float(c @ res.x) - float(b_eq @ y))
    return _certificate(zeroed, a_eq @ zeroed - b_eq, c - a_eq.T @ y, gap, c)


def _plan_accepted(costs: np.ndarray, p, q, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The :func:`_certificate` of an n by k plan ``x`` of weights ``p`` and
    ``q`` under ``costs``, with n row then k column duals ``y``, in the bits
    of :func:`_accepted`: sums in index order, as CSR sums a row."""
    zeroed, b, n = np.where(x < LP_ZERO_TOL, 0.0, x), np.concatenate([p, q]), len(p)
    sums = np.r_[np.cumsum(zeroed, axis=1)[:, -1], np.cumsum(zeroed, axis=0)[-1]]
    gap = abs(float(costs.ravel() @ x.ravel()) - float(b @ y))
    return _certificate(zeroed, sums - b, costs - (y[:n, None] + y[None, n:]), gap, costs)


def _certificate(x: np.ndarray, residual, reduced, gap: float, c: np.ndarray) -> np.ndarray:
    """``x``, entries below ``LP_ZERO_TOL`` zeroed, once ``residual = A x - b``
    is within ``MARGINAL_TOL`` and ``reduced = c - A^T y >= -tol`` and ``gap =
    |c^T x - b^T y| <= tol`` on the unzeroed ``x`` prove it optimal, ``tol =
    REL_TOL * max(1, max c)``. Else ``SolverConsistencyError``."""
    residual = float(np.max(np.abs(residual)))
    if not residual <= MARGINAL_TOL:
        raise SolverConsistencyError(f"plan marginal residual {residual!r} exceeds {MARGINAL_TOL}")
    tol = _certificate_tol(c)
    reduced = float(np.min(reduced))
    if not (reduced >= -tol and gap <= tol):
        raise SolverConsistencyError(
            f"dual certificate fails: min reduced cost {reduced!r}, gap {gap!r}, tolerance {tol!r}"
        )
    return x


def _highs_model(b_eq: np.ndarray):
    """A HiGHS model of the rows ``a_eq @ x = b_eq`` and no columns yet, with
    the options of ``linprog(method="highs-ds")``: dual simplex, every run
    after the first warm-started from the last basis; and its ``lp = (c,
    a_eq, b_eq)``, CSC, for :func:`_add_candidates` to grow. Its first run
    returns the bits ``linprog`` gives on the grown arrays."""
    highs = _Highs()
    for option, value in (("output_flag", False), ("presolve", "on"), ("solver", "simplex")):
        highs.setOptionValue(option, value)
    highs.addRows(len(b_eq), b_eq, b_eq, 0, [], [], [])
    return highs, (np.zeros(0), sparse.csc_matrix((len(b_eq), 0)), b_eq)


def _highs_answer(highs, **options):
    """Run ``highs`` after setting ``options`` on it, which stay set. The
    answer reads as :func:`_accepted` reads a ``linprog`` result (``success``,
    ``message``, ``x``, ``eqlin.marginals``, ``fun``), plus the run's
    ``method`` and its IPM, crossover and simplex iteration counts ``nit``."""
    for option, value in options.items():
        highs.setOptionValue(option, value)
    highs.run()
    status, info, solution = highs.getModelStatus(), highs.getInfo(), highs.getSolution()
    return SimpleNamespace(
        success=status == HighsModelStatus.kOptimal,
        message=highs.modelStatusToString(status),
        x=np.array(solution.col_value),
        eqlin=SimpleNamespace(marginals=np.array(solution.row_dual)),
        fun=info.objective_function_value,
        method=highs.getOptionValue("solver")[1],
        nit=(info.ipm_iteration_count, info.crossover_iteration_count, info.simplex_iteration_count),
    )


def _certified(highs, lp):
    """:func:`_highs_answer` of ``highs``, whose model is ``lp = (c, a_eq,
    b_eq)``, and its :func:`_accepted` solution. An answer that fails
    acceptance is solved once more on the same model with HiGHS's primal and
    dual feasibility tolerances at ``HIGHS_TIGHT_TOL``, which stay set, and
    only that answer's failure is raised."""
    res = _highs_answer(highs)
    try:
        return res, _accepted(res, *lp)
    except SolverConsistencyError:
        res = _highs_answer(
            highs,
            primal_feasibility_tolerance=HIGHS_TIGHT_TOL,
            dual_feasibility_tolerance=HIGHS_TIGHT_TOL,
        )
        return res, _accepted(res, *lp)


def _joint_lp(g: MetricGraph, points: Sequence[GraphPoint], targets):
    """The barycenter LP of ``targets``, ``[(lam, DiscreteMeasure)]``, over
    ``points``: the last S as sorted indices into ``points``, their weights
    over their sum, the value and ``(|S|, rounds, runs, min slack off S)``.

    The optimal barycenter has small support, so each LP spans a candidate set
    S. Extended to every other candidate by the c-transform, its duals price
    the weight there; when no reduced cost is below ``-REL_TOL * max(1, max
    cost)`` they are feasible for the LP over all of ``points`` at the same
    value, so S's optimum is that LP's. Otherwise the worst candidates join S.
    The cap still counts every candidate against every input cell. One HiGHS
    model serves every round: each round appends its new candidates, in the
    layout of :func:`_add_candidates`, the first round the best Dirac
    position alone, and runs :func:`_highs_model`'s simplex, cold in round 1
    and warm-started from the last basis after.
    """
    n = len(points)
    _check_size(n + n * sum(len(t.points) for _, t in targets), "LP variables")
    ends = np.cumsum([len(t.points) for _, t in targets])[:-1]
    full = _cost_matrix(g, points, [p for _, t in targets for p in t.points])
    costs = [lam * cost for (lam, _), cost in zip(targets, np.split(full, ends, axis=1))]
    weights = [t.weights for _, t in targets]
    dirac = sum(cost @ np.asarray(w) for cost, w in zip(costs, weights))
    new = np.argsort(dirac, kind="stable")[:1]
    tol = max(_certificate_tol(cost) for cost in costs)
    highs, lp = _highs_model(np.r_[np.concatenate(weights), 1.0])
    rows, col = new[:0], np.zeros(n, dtype=int)  # S, and each candidate's weight column once in S
    runs = []
    while new.size:
        lp, col[new] = _add_candidates(highs, lp, [cost[new] for cost in costs])
        rows = np.union1d(rows, new)
        res, x = _certified(highs, lp)
        runs.append((res.method, *res.nit))
        slack = _weight_reduced_costs(costs, res.eqlin.marginals)
        slack[rows] = np.inf
        new = np.argsort(slack, kind="stable")[: len(rows)]  # S at most doubles
        new = new[slack[new] < -tol]
    w = x[col[rows]]
    return rows, w / w.sum(), float(res.fun), (len(rows), len(runs), tuple(runs), float(slack.min()))


def _edge_frame(g: MetricGraph, edge_id: str, xs: Sequence[GraphPoint], ys: Sequence[GraphPoint]):
    """The unfolding's view of canonical ``xs`` and ``ys`` from the edge
    (u, v) along its stored orientation: its length, the offsets from u of
    ``xs`` and of ``ys`` (NaN off the edge), and the one
    :func:`_distance_matrix` over ``[u, v, *xs]`` by ``ys``."""
    e = g.edge(edge_id)
    a, on = np.split(_edge_offsets(g, edge_id, [*xs, *ys]), [len(xs)])
    ends = [GraphPoint.at_vertex(e.u), GraphPoint.at_vertex(e.v)]
    return e.length, a, on, _distance_matrix(g, [*ends, *xs], ys)


def _nw_cells(src: np.ndarray, dst: np.ndarray):
    """Cells ``(i, j, mass)`` of the north-west-corner coupling of two weight
    vectors on sorted atoms, given as their cumulative sums."""
    breaks = np.sort(np.concatenate([src, dst]))
    starts = np.concatenate([[0.0], breaks[:-1]])
    i = np.minimum(np.searchsorted(src, starts, side="right"), len(src) - 1)
    j = np.minimum(np.searchsorted(dst, starts, side="right"), len(dst) - 1)
    return i, j, breaks - starts


def _argmin_convex(f, count: int) -> int:
    """The first index of a least value of ``f`` over ``range(count)``, by
    bisection on the sign of its steps: exact when ``f`` is convex."""
    lo, hi = 0, count - 1
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if f(mid + 1) < f(mid) else (lo, mid)
    return lo


def _unfolded_plan(frame, p, q) -> np.ndarray:
    """A coupling, n by k, of sources of weights ``p`` and targets of weights
    ``q`` seen in the :func:`_edge_frame` ``(length, a, on, d)`` of a
    minimizing edge (u, v), every source on it at its offset ``a``.

    A target at edge offset ``on`` (NaN off the edge) keeps it. Any other
    target y has the two images ``-d(u, y)`` and ``length + d(v, y)``, from
    the first two rows of ``d``; the left ones are filled in decreasing order
    of the images' midpoint up to a mass theta. A target whose midpoint is at or
    beyond an end of the edge (within ``LENGTH_TOL``) is as near through that
    end from every source, so theta takes all of the first kind and none of
    the second. theta minimizes the squared W2 of the sources to the unfolded
    atoms, which is piecewise linear in theta: first by bisection over the
    targets' cumulative weights, then over the kinks of the two bracketing
    targets, where an unfolded cumulative weight meets a source's. The plan is
    the north-west corner at that theta, entries below ``LP_ZERO_TOL``
    dropped. On a cycle the other targets' images are one perimeter apart and
    the midpoint order is exact; elsewhere only the caller's certificate tells.
    """
    length, a, on, d = frame
    p, q = np.asarray(p), np.asarray(q)
    off, stay = np.flatnonzero(np.isnan(on)), np.flatnonzero(~np.isnan(on))
    left, right = -d[0], length + d[1]
    key = -0.5 * (left + right)[off]  # the midpoints negated, so largest first
    fill, key = off[np.argsort(key, kind="stable")], np.sort(key)
    m, qf = len(fill), q[fill]
    lo = int(np.searchsorted(key, LENGTH_TOL - length, side="right"))  # all left
    hi = max(lo, int(np.searchsorted(key, -LENGTH_TOL)))  # none left from hi on
    pos = np.concatenate([left[fill], right[fill], on[stay]])
    perm = np.argsort(pos, kind="stable")
    rank = np.argsort(perm)
    target, pos = np.concatenate([fill, fill, stay])[perm], pos[perm]
    order = np.argsort(a, kind="stable")
    src, cum = a[order], np.cumsum(p[order])

    def unfolded(t: int, delta: float) -> np.ndarray:
        """Cumulative unfolded weights with the first t targets left, delta of the next."""
        s = np.where(np.arange(m) < t, qf, 0.0)
        if t < m:
            s[t] = delta
        return np.cumsum(np.concatenate([s, qf - s, q[stay]])[perm])

    @functools.lru_cache(maxsize=None)
    def cost(t: int, delta: float) -> float:
        i, j, mass = _nw_cells(cum, unfolded(t, delta))
        return float(mass @ (src[i] - pos[j]) ** 2)

    t = lo + _argmin_convex(lambda t: cost(lo + t, 0.0), hi - lo + 1)
    best = (cost(t, 0.0), t, 0.0)
    for t in (t - 1, t):
        if lo <= t < hi:  # kinks of bracket t: atoms in [left, right) of fill[t] meet cum
            kinks = cum[:, None] - unfolded(t, 0.0)[None, rank[t] : rank[m + t]]
            kinks = np.unique(np.concatenate([[0.0, qf[t]], kinks[(kinks > 0) & (kinks < qf[t])]]))
            kinks = kinks[np.diff(kinks, prepend=-np.inf) > LP_ZERO_TOL]  # one per rounded kink
            delta = kinks[_argmin_convex(lambda j: cost(t, kinks[j]), len(kinks))]
            best = min(best, (cost(t, delta), t, delta))
    i, j, mass = _nw_cells(cum, unfolded(*best[1:]))
    x = np.zeros((len(a), len(q)))
    np.add.at(x, (order[i], target[j]), mass)
    return np.where(x < LP_ZERO_TOL, 0.0, x)


def _support_duals(costs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Duals of a plan ``x``, n row duals then k column duals, made tight
    on its support, for :func:`_plan_accepted` to check.

    On each connected component of the support, ``u_x + psi_y = costs[x, y]``
    along a spanning tree; then one shift per component, found by a
    Bellman-Ford pass over the components' least cross reduced costs, keeps
    every reduced cost above ``-tol / 2``. ``SolverConsistencyError`` when a
    support cycle is off by more than ``tol / 2`` or the shifts meet a
    negative cycle.
    """
    n, k = costs.shape
    tol = _certificate_tol(costs)
    rows, cols = np.nonzero(x)
    links: list[list[int]] = [[] for _ in range(n + k)]  # sources 0..n-1, then targets
    for i, j in zip(rows.tolist(), cols.tolist()):
        links[i].append(n + j)
        links[n + j].append(i)
    label, pot, count = [-1] * (n + k), [0.0] * (n + k), 0
    for root in range(n + k):  # breadth first over each component
        if label[root] < 0:
            label[root], queue = count, [root]
            for v in queue:
                for w in links[v]:
                    if label[w] < 0:
                        label[w], pot[w] = count, costs.item(min(v, w), max(v, w) - n) - pot[v]
                        queue.append(w)
            count += 1
    label, pot = np.array(label), np.array(pot)
    reduced = costs - pot[:n, None] - pot[None, n:]
    residual = float(np.max(np.abs(reduced[rows, cols])))
    if not residual <= tol / 2:
        raise SolverConsistencyError(f"support cycle residual {residual!r} exceeds {tol / 2!r}")
    lx, ly = label[:n], label[n:]
    # least[a, b]: least reduced cost from component a's sources to component b's
    # targets; a point without plan mass is a component of its own
    least = np.full((count, count), np.inf)
    np.minimum.at(least, (lx[:, None], ly[None, :]), reduced + tol / 2)
    shift = np.zeros(count)  # shift[a] - shift[b] <= least[a, b]
    for _ in range(count + 1):
        relaxed = np.minimum(shift, np.min(shift[None, :] + least, axis=1))
        if (relaxed == shift).all():
            return np.concatenate([pot[:n] + shift[lx], pot[n:] - shift[ly]])
        shift = relaxed
    worst = float(np.min(reduced - shift[lx][:, None] + shift[ly][None, :]))
    raise SolverConsistencyError(f"component shifts meet a negative cycle, worst reduced cost {worst!r}")


def _transport_simplex(costs: np.ndarray, p, q) -> tuple[np.ndarray, np.ndarray, int]:
    """An optimal vertex of the n by k transportation problem of weights ``p``
    and ``q`` under ``costs``, by Dantzig's transportation simplex: the plan,
    its duals (n row duals, then k column duals) and the number of pivots.

    The basis is a spanning tree of n + k - 1 cells over the n rows and k
    columns, zero cells included, rooted at row 0. The least-cost start takes
    the cells in increasing cost (a stable sort); a cell of an open row and
    open column takes what the smaller of them has left and closes it (the
    row on a tie, never the last open row or column), so its n + k - 1 cells
    form a tree, completed by zero cells where a row and a column close
    together. The duals ``u_i + v_j = costs[i, j]`` are read down the tree
    from ``u_0 = 0``. Each pivot prices every cell and enters the least
    reduced cost; after a pivot that moved at most ``LP_ZERO_TOL`` it enters
    the first negative one in row-major order instead (Bland's rule, so
    degenerate pivots cannot cycle). Mass goes around the entering cell's
    tree cycle, and the cell that empties first leaves (the lowest index on
    a tie); the duals are read again below the cut. It stops when no reduced
    cost is below ``_certificate_tol(costs)``, the slack :func:`_plan_accepted`
    allows, and raises ``SolverConsistencyError`` past ``n * k * (n + k)``
    pivots, which only a cycle made by rounding could reach.
    """
    n, k = costs.shape
    tol, limit = _certificate_tol(costs), n * k * (n + k)
    cost, flow = costs.ravel().tolist(), [0.0] * (n * k)
    left = [float(w) for w in p] + [float(w) for w in q]  # what each row, then column, has left
    links: list[list[int]] = [[] for _ in range(n + k)]  # nodes: rows, then n + column
    rows_open, cols_open = n, k
    for cell in np.argsort(costs, axis=None, kind="stable").tolist():
        i, j = divmod(cell, k)
        if left[i] is None or left[n + j] is None:
            continue
        row = cols_open == 1 or (rows_open > 1 and left[i] <= left[n + j])
        close, other = (i, n + j) if row else (n + j, i)
        flow[cell] = max(left[close], 0.0)
        left[other] -= left[close]
        left[close] = None
        links[i].append(n + j)
        links[n + j].append(i)
        rows_open -= row
        cols_open -= not row
        if not rows_open:
            break
    parent, depth, pot = [-1] * (n + k), [0] * (n + k), [0.0] * (n + k)

    def edge(w: int) -> int:  # the cell joining node w to its parent
        up = parent[w]
        return w * k + up - n if w < n else up * k + w - n

    def hang(top: int) -> None:  # parents, depths and duals below top
        stack = [top]
        for w in stack:
            for x in links[w]:
                if x != parent[w]:
                    parent[x], depth[x] = w, depth[w] + 1
                    pot[x] = cost[edge(x)] - pot[w]
                    stack.append(x)

    hang(0)
    pivots, bland = 0, False
    while True:
        y = np.array(pot)
        reduced = costs - (y[:n, None] + y[None, n:])  # c - A^T y, as _plan_accepted reads it
        cell = int(np.argmax(reduced < -tol) if bland else np.argmin(reduced))
        if not reduced.flat[cell] < -tol:
            return np.array(flow).reshape(n, k), y, pivots
        if pivots == limit:
            raise SolverConsistencyError(f"transportation simplex exceeds {limit} pivots")
        pivots += 1
        i, j = divmod(cell, k)
        a, b, row_side, col_side = i, n + j, [], []  # each side's nodes, up to the apex
        while depth[a] > depth[b]:
            row_side.append(a)
            a = parent[a]
        while depth[b] > depth[a]:
            col_side.append(b)
            b = parent[b]
        while a != b:
            row_side.append(a)
            col_side.append(b)
            a, b = parent[a], parent[b]
        # from each end of the entering cell, the tree cells alternate -, +, -, ...
        minus = row_side[0::2] + col_side[0::2]
        out = min(minus, key=lambda w: (flow[edge(w)], edge(w)))
        theta = flow[edge(out)]
        for w in minus:
            flow[edge(w)] -= theta
        for w in row_side[1::2] + col_side[1::2]:
            flow[edge(w)] += theta
        flow[cell], bland = theta, theta <= LP_ZERO_TOL
        up = parent[out]
        links[out].remove(up)
        links[up].remove(out)
        links[i].append(n + j)
        links[n + j].append(i)
        top, below = (i, n + j) if out in row_side else (n + j, i)  # top is cut off with out
        parent[top], depth[top] = below, depth[below] + 1
        pot[top] = cost[cell] - pot[below]
        hang(top)


def _optimal_coupling(costs: np.ndarray, p, q, frame=None) -> np.ndarray:
    """An optimal n by k coupling of weights ``p`` and ``q`` under the squared
    distances ``costs``: the only one when n or k is 1. When the
    :func:`_edge_frame` of these points holds every source, one strictly
    inside the edge, the plan of :func:`_unfolded_plan` with duals from
    :func:`_support_duals` is tried first; otherwise, or when it fails
    :func:`_plan_accepted`, :func:`_transport_simplex` solves the LP, and the
    miss is logged at DEBUG level on the ``mgbary`` logger with the pivots
    that replaced it. Either plan is certified on its own arrays."""
    n, k = costs.shape
    if n == 1 or k == 1:  # the only coupling: the many side's weights
        return np.array(q if n == 1 else p, dtype=float).reshape(n, k)
    missed = None
    length, a = (0.0, np.array([np.nan])) if frame is None else frame[:2]
    if not np.isnan(a).any() and ((0.0 < a) & (a < length)).any():  # all on it, one inside
        x = _unfolded_plan(frame, p, q)
        try:
            return _plan_accepted(costs, p, q, x, _support_duals(costs, x))
        except SolverConsistencyError as exc:
            missed = exc
    x, y, pivots = _transport_simplex(costs, p, q)
    if missed is not None:
        _log.debug(
            "line route falls back to the transportation simplex, %d pivots, n %d, k %d: %s",
            pivots, n, k, missed,
        )
    return _plan_accepted(costs, p, q, x, y)


def w2_graph(
    g: MetricGraph, m1: DiscreteMeasure, m2: DiscreteMeasure
) -> tuple[float, TransportPlan]:
    """Squared Wasserstein distance and an optimal plan between two supports.

    Solves the transportation linear program
    ``min sum pi(x, y) d(x, y)^2`` over couplings of the two weight vectors
    exactly; the returned cost is the squared distance. When ``m1`` lies on
    the closure of one minimizing edge (the edge of its interior points), its
    :func:`_edge_frame` gives the costs, and :func:`_optimal_coupling` tries
    the plan on the unfolded line before the transportation simplex;
    otherwise the simplex solves the LP from a least-cost start, in numpy
    and Python, without HiGHS. Either plan passes a HiGHS answer's checks on
    its own arrays; both are deterministic for identical inputs.

    Raises
    ------
    SupportCapError
        If the LP would exceed the variable cap (``MGBARY_SUPPORT_CAP``).
    SolverConsistencyError
        If the solver fails, the plan's marginals drift beyond ``MARGINAL_TOL``,
        or the duals do not certify the plan optimal.
    """
    n, k = len(m1.points), len(m2.points)
    frame = None
    if n > 1 and k > 1:
        _check_size(n * k, "LP variables")
        edges = {p.edge for p in m1.points} - {None}
        if len(edges) == 1 and is_edge_minimizing(g, min(edges)):
            frame = _edge_frame(g, min(edges), m1.points, m2.points)
    d = _distance_matrix(g, m1.points, m2.points) if frame is None else frame[3][2:]
    costs = np.float_power(d, 2)  # _cost_matrix, bit for bit
    x = _optimal_coupling(costs, m1.weights, m2.weights, frame)
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
) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The rule of :func:`classify_pair` for every pair of canonical sources
    ``xs`` on the base edge and targets ``ys``: the n by k indices into
    ``tuple(BranchTag)``, the 3 by k images of the targets under the branch
    maps of :func:`~mgbary.covering.h_eval` (E, PLUS, MINUS), and the
    :func:`_edge_frame` they are read from, along the stored orientation."""
    _require_minimizing(g, oe)
    frame = _edge_frame(g, oe.edge, xs, ys)
    length, ax, ay, d = frame
    if np.isnan(ax).any():
        raise ValueError(f"source {xs[np.argmax(np.isnan(ax))]} is off edge {oe.edge!r}")
    ends, ax = d[:2], ax[:, None]
    if oe.reverse:  # what _offset gives on the reversed edge, bit for bit
        ends, ax, ay = ends[::-1], length - ax, length - ay
    reach = d[2:] + LENGTH_TOL
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
    return tags, np.stack([ends[0], length + ends[1], -ends[0]]), frame


def classify_pair(
    g: MetricGraph, oe: OrientedEdge, x: GraphPoint, y: GraphPoint
) -> BranchTag:
    """Classify the geodesic from ``x`` (on the base edge) to ``y``.

    E when the within-edge segment realizes the distance, PLUS when a shortest
    route exits through the oriented second endpoint, MINUS through the first.
    Ties resolve with priority E > PLUS > MINUS, so measures living on the
    edge always classify as E.
    """
    tags = _branch_table(g, oe, [g.canonical(x)], [g.canonical(y)])[0]
    return tuple(BranchTag)[tags[0, 0]]


def decompose_plan(
    g: MetricGraph, oe: OrientedEdge, plan: TransportPlan
) -> tuple[TransportPlan, TransportPlan, TransportPlan]:
    """Split a plan whose sources lie on the base edge by geodesic class.

    The three parts sum back to the plan entry by entry; on a minimizing edge
    the PLUS and MINUS parts cannot overlap. Their costs are read from the
    distances the branch table was classified by.
    """
    rows = _indexed(x for x, _, _ in plan.entries)
    cols = _indexed(y for _, y, _ in plan.entries)
    tags, _, frame = _branch_table(g, oe, list(rows), list(cols))
    parts: list[list] = [[] for _ in BranchTag]
    for x, y, m in plan.entries:
        parts[tags[rows[x], cols[y]]].append((x, y, m))
    costs = list(rows), list(cols), np.float_power(frame[3][2:], 2)
    return tuple(_make_plan(g, part, costs) for part in parts)


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
