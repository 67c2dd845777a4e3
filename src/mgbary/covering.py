"""Unfolding a metric graph onto the real line around a base edge.

Relative to an oriented minimizing edge and a base measure supported on it,
every target measure is pushed to the line through three distance maps: the
edge itself covers [0, length], everything reached through the far endpoint
lands beyond ``length``, and everything reached through the near endpoint
lands below 0. Which map applies to which mass is read off an optimal plan
from the base measure, decomposed by geodesic class. When every base point
gives a target the same class, every optimal plan sends that target through
that one map, so no plan is solved unless some target's class depends on the
base point. The classes, the images and that plan's costs all come from one
distance build, the edge frame of :mod:`mgbary.transport`; the plan is solved
on the same line as :func:`~mgbary.transport.w2_graph` solves it, and goes
to the transportation simplex when its dual certificate fails or the base
holds no interior point of the edge. An unfolding is computed as sorted
arrays of positions and masses, merged as ``line_measure`` merges atoms;
``phi`` wraps them in a ``LineMeasure``, and the edge-local fixed point,
which builds the table once per call over every point its iterates may
charge, reads them from a slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import MeasureValidationError
from .line_ot import LineMeasure, _merged_atoms, line_measure
from .metric_graph import (
    GraphPoint,
    MetricGraph,
    OrientedEdge,
    _crossings,
    cut_points_from,
    distance,
)
from .transport import (
    BranchTag,
    DiscreteMeasure,
    _branch_table,
    _check_size,
    _optimal_coupling,
    _require_minimizing,
)
from .tolerances import LENGTH_TOL, MASS_TOL, _finite


@dataclass(frozen=True)
class CoverContext:
    """Base data of the unfolding: graph, oriented minimizing edge, base measure.

    Built through :func:`make_cover_context`, which checks that the edge is
    minimizing and that the base measure lives on its closure.
    """

    graph: MetricGraph
    edge: OrientedEdge
    base: DiscreteMeasure


def make_cover_context(
    g: MetricGraph, oe: OrientedEdge | str, base: DiscreteMeasure
) -> CoverContext:
    if isinstance(oe, str):
        oe = OrientedEdge(oe)
    _require_minimizing(g, oe)
    for p in base.points:
        if g._offset(oe, p) is None:
            raise MeasureValidationError(
                f"base measure has mass at {p}, off edge {oe.edge!r}"
            )
    return CoverContext(graph=g, edge=oe, base=base)


def h_eval(ctx: CoverContext, tag: BranchTag, y: GraphPoint) -> float:
    """Evaluate the branch map for ``tag`` at a point of the graph.

    All three maps are 1-Lipschitz: E measures distance from the oriented
    first endpoint, PLUS adds the edge length to the distance from the second
    endpoint, MINUS negates the distance from the first endpoint.
    """
    g = ctx.graph
    e = g.edge(ctx.edge.edge)
    e0, e1 = g.oriented_endpoints(ctx.edge)
    if tag is BranchTag.E:
        return distance(g, GraphPoint.at_vertex(e0), y)
    if tag is BranchTag.PLUS:
        return e.length + distance(g, GraphPoint.at_vertex(e1), y)
    return -distance(g, GraphPoint.at_vertex(e0), y)


def phi(ctx: CoverContext, nu: DiscreteMeasure) -> LineMeasure:
    """Push a measure on the graph to the line through the unfolding.

    Each target point goes through the branch map of its geodesic class from
    the base points. A target whose pairs all share one class keeps its weight
    verbatim, so measures supported on the base edge map to themselves (as
    offsets) exactly. When that holds for every target, every optimal plan
    sends each target to the same point, so none is solved and the targets go
    in ``nu``'s point order. A plan from one base point lists them in that
    order too; from several, three or more targets with one image may be
    summed in another order, and the sum then differs in the last bit.
    Otherwise an optimal plan is solved, and its split of each cut target
    between classes is the selection. The atoms come from :func:`_unfold`.
    """
    n, k = len(ctx.base.points), len(nu.points)
    if n > 1 and k > 1:  # the size the plan's LP refuses, before the table is built
        _check_size(n * k, "LP variables")
    table = _branch_table(ctx.graph, ctx.edge, ctx.base.points, nu.points)
    x, mass = _unfold(table, ctx.base.weights, nu.weights)
    return LineMeasure(atoms=tuple(zip(x.tolist(), mass.tolist())))


def _unfold(table, p, q) -> tuple[np.ndarray, np.ndarray]:
    """:func:`phi` from its :func:`~mgbary.transport._branch_table` ``(tags,
    images, frame)`` of base points of weights ``p`` and targets of weights
    ``q``, as the sorted positions and masses of its atoms. Before they are
    merged by position, the atoms are listed as the plan's entries first
    meet each target, and then each of its classes; a target of one class
    carries its weight ``q``, a cut target the plan's split."""
    tags, images, frame = table
    q = np.asarray(q, dtype=float)
    if (tags == tags[0]).all():
        j, tag, mass = np.arange(len(q)), tags[0], q
    else:
        x = _optimal_coupling(np.float_power(frame[3][2:], 2), p, q, frame)
        i, j = np.nonzero(x)  # the plan's entries, row by row
        key = 3 * j + tags[i, j]
        split = np.bincount(key, weights=x[i, j])  # each target's mass by class, in row order
        _, first = np.unique(key, return_index=True)  # each (target, class)'s first entry
        met, (hit, at) = np.zeros(len(q), dtype=int), np.unique(j, return_index=True)
        met[hit] = at  # each target's first entry
        first = first[np.lexsort((first, met[j[first]]))]
        j, tag = j[first], tags[i[first], j[first]]
        cut = np.bincount(j, minlength=len(q))[j] > 1
        mass = np.where(cut, split[key[first]], q[j])
    return _merged_atoms(images[tag, j], mass)


def _anchor_vertex(ctx: CoverContext, tag: BranchTag) -> str:
    e0, e1 = ctx.graph.oriented_endpoints(ctx.edge)
    return e1 if tag is BranchTag.PLUS else e0


def exceptional_set(ctx: CoverContext, tag: BranchTag) -> tuple[float, ...]:
    """Branch-map images of vertices and cut points, where multiplicity jumps."""
    g = ctx.graph
    values = {h_eval(ctx, tag, GraphPoint.at_vertex(v)) for v in g.vertices}
    for eid, off in cut_points_from(g, _anchor_vertex(ctx, tag)):
        values.add(h_eval(ctx, tag, GraphPoint.on_edge(eid, off)))
    return tuple(sorted(values))


def preimage_count(ctx: CoverContext, tag: BranchTag, x_tilde: float) -> int:
    """Number of branch-domain points mapping to ``x_tilde``.

    The E map is counted on the base edge itself; PLUS and MINUS are counted
    on the rest of the graph, matching the three ranges [0, length],
    (length, inf), (-inf, 0) of the unfolding. The count is constant between
    consecutive exceptional values; queries within ``LENGTH_TOL`` of one are
    rejected because the multiplicity genuinely jumps there, and so is NaN.
    """
    if math.isnan(x_tilde):
        raise ValueError("query x_tilde is NaN")
    exc = exceptional_set(ctx, tag)
    near = min((abs(x_tilde - d) for d in exc), default=float("inf"))
    if near <= LENGTH_TOL:
        raise ValueError(
            f"query {x_tilde!r} is within {LENGTH_TOL} of an exceptional value"
        )
    e = ctx.graph.edge(ctx.edge.edge)
    if tag is BranchTag.E:
        return 1 if 0.0 < x_tilde < e.length else 0
    r = x_tilde - e.length if tag is BranchTag.PLUS else -x_tilde
    return _crossings(ctx.graph, _anchor_vertex(ctx, tag), r, e.id)  # e counts under E only


def lift_line_plan(
    ctx: CoverContext,
    tag: BranchTag,
    theta_tilde: Sequence[tuple[float, float, float]],
    nu: DiscreteMeasure,
) -> tuple[tuple[float, GraphPoint, float], ...]:
    """Lift a plan on the line to a plan from the line into the graph.

    Each target value of ``theta_tilde`` is spread over its branch-map
    preimages inside the support of ``nu``, proportionally to the weights of
    ``nu``; pushing the result back through the branch map reproduces
    ``theta_tilde`` entry by entry. Entries of zero mass are skipped; a
    non-finite source position or mass, or a negative mass, is refused.
    """
    h_vals = {p: h_eval(ctx, tag, p) for p in nu.points}
    weights = nu.as_dict()
    entries: list[tuple[float, GraphPoint, float]] = []
    for s, y_tilde, mass in theta_tilde:
        s, mass = _finite(s, "source position"), _finite(mass, "plan mass")
        if mass < -MASS_TOL:
            raise MeasureValidationError(f"negative plan mass {mass!r}")
        if mass <= 0.0:
            continue
        pre = [p for p in nu.points if abs(h_vals[p] - y_tilde) <= LENGTH_TOL]
        if not pre:
            raise ValueError(
                f"target value {y_tilde!r} has no preimage in the support of nu"
            )
        if len(pre) == 1:
            entries.append((s, pre[0], mass))
            continue
        total = sum(weights[p] for p in pre)
        for p in pre:
            entries.append((s, p, mass * weights[p] / total))
    entries.sort(key=lambda e: (e[0], e[1].sort_key()))
    return tuple(entries)


def measure_on_edge_as_line(
    g: MetricGraph, oe: OrientedEdge | str, m: DiscreteMeasure
) -> LineMeasure:
    """View a measure supported on one edge as a measure on [0, length]."""
    if isinstance(oe, str):
        oe = OrientedEdge(oe)
    atoms = []
    for p, w in zip(m.points, m.weights):
        off = g._offset(oe, p)
        if off is None:
            raise MeasureValidationError(f"point {p} is not on edge {oe.edge!r}")
        atoms.append((off, w))
    return line_measure(atoms=atoms)
