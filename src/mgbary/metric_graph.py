"""Finite metric graphs: length distance, geodesic paths, and cut points.

Edges are intervals glued at vertices; the distance between two points is the
infimum of path lengths. All distances here are computed exactly from
vertex-to-vertex shortest-path rows, each made on first use, plus closed-form
handling of the at most two ways an interior point can exit its edge, so there
is no discretization error anywhere in this module.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Mapping, Sequence

import numpy as np
from scipy.sparse import csgraph, csr_array

from .errors import GraphValidationError
from .tolerances import LENGTH_TOL, REL_TOL, SNAP_TOL

_FWD = 0
_BWD = 1


@dataclass(frozen=True)
class Edge:
    id: str
    u: str
    v: str
    length: float


@dataclass(frozen=True)
class GraphPoint:
    """A location on a metric graph: a vertex, or an interior point of an edge.

    Interior points store the offset from the edge's first endpoint ``u``.
    Offsets 0 and ``length`` are always normalized to the vertex form, so
    equality of canonical points is plain field equality.
    """

    vertex: str | None = None
    edge: str | None = None
    offset: float = 0.0

    @staticmethod
    def at_vertex(v: str) -> "GraphPoint":
        return GraphPoint(vertex=v)

    @staticmethod
    def on_edge(edge: str, offset: float) -> "GraphPoint":
        return GraphPoint(edge=edge, offset=float(offset))

    @property
    def is_vertex(self) -> bool:
        return self.vertex is not None

    def sort_key(self):
        if self.vertex is not None:
            return (0, self.vertex, 0.0)
        return (1, self.edge, self.offset)

    def __str__(self) -> str:
        return format_point(self)


@dataclass(frozen=True)
class OrientedEdge:
    """An edge together with a traversal direction.

    With ``reverse=False`` the first endpoint is the edge's stored ``u`` and
    oriented offsets coincide with stored offsets; with ``reverse=True`` both
    are flipped.
    """

    edge: str
    reverse: bool = False


@dataclass(frozen=True)
class GeodesicPath:
    """A shortest path: its endpoints, traversed edges with directions, length.

    ``steps`` lists ``(edge_id, forward)`` in traversal order; the first and
    last steps may cover only part of their edge when an endpoint is interior.
    """

    start: GraphPoint
    end: GraphPoint
    steps: tuple[tuple[str, bool], ...]
    length: float


class MetricGraph:
    """A validated, immutable metric graph with a vertex-distance table filled on demand.

    Built through :func:`build_graph` in O(E log E) time and O(E) memory; public
    attributes are read-only by convention. Each fact is held once: the vertex and
    edge id -> index maps, the incidence list ``adjacency`` (sorted edge ids), the
    CSR adjacency, and the table rows, which only this module reads. A row is one
    Dijkstra run over the CSR adjacency, made when a query first reads it and then
    kept, so memory is O(V x rows touched). Sharing a graph across threads is safe:
    a row is stored whole before its key appears, and racing threads compute the
    same floats.
    """

    def __init__(self, vertices: tuple[str, ...], edges: tuple[Edge, ...]):
        self.vertices = vertices
        self.edges = edges
        self._index = {v: i for i, v in enumerate(vertices)}
        self._edge_index = {e.id: i for i, e in enumerate(edges)}
        adjacency: dict[str, list[str]] = {v: [] for v in vertices}
        for e in edges:  # in id order, so each vertex's ids come sorted
            adjacency[e.u].append(e.id)
            adjacency[e.v].append(e.id)
        self.adjacency = {v: tuple(ids) for v, ids in adjacency.items()}
        self.min_edge_length = min(e.length for e in edges)
        # the CSR csgraph_from_dense makes of the symmetric length matrix:
        # sorted columns, the shortest of parallel edges, so rows keep its bits
        n = len(vertices)
        a, b = np.array([(self._index[e.u], self._index[e.v]) for e in edges]).T
        self._edge_ends, self._edge_lengths = (a, b), np.array([e.length for e in edges])
        keys = np.concatenate([a * n + b, b * n + a])
        lengths = np.tile(self._edge_lengths, 2)
        order = np.lexsort((lengths, keys))
        keys, first = np.unique(keys[order], return_index=True)
        self._csr = csr_array((lengths[order][first], (keys // n, keys % n)), shape=(n, n))
        self._rows: dict[int, np.ndarray] = {}

    def _row(self, i: int) -> np.ndarray:
        row = self._rows.get(i)
        return self._table_rows([i])[0] if row is None else row

    def _table_rows(self, idx: list[int]) -> list[np.ndarray]:
        """The rows of ``idx``; one Dijkstra call makes those missing."""
        missing = [i for i in idx if i not in self._rows]
        if missing:
            for i, row in zip(missing, csgraph.dijkstra(self._csr, indices=missing)):
                self._rows[i] = row  # the row is written before its key appears
        return [self._rows[i] for i in idx]

    def edge(self, edge_id: str) -> Edge:
        try:
            return self.edges[self._edge_index[edge_id]]
        except KeyError:
            raise ValueError(f"unknown edge id {edge_id!r}") from None

    def has_vertex(self, v: str) -> bool:
        return v in self._index

    def vertex_distance(self, a: str, b: str) -> float:
        return self._row(self._index[a]).item(self._index[b])

    def canonical(self, p: GraphPoint) -> GraphPoint:
        """Return the unique canonical representation of ``p`` on this graph."""
        if p.vertex is not None:
            if p.vertex not in self._index:
                raise ValueError(f"unknown vertex id {p.vertex!r}")
            return GraphPoint(vertex=p.vertex)
        e = self.edge(p.edge)
        off = float(p.offset)
        if not (-LENGTH_TOL <= off <= e.length + LENGTH_TOL):
            raise ValueError(
                f"offset {off!r} outside [0, {e.length!r}] on edge {e.id!r}"
            )
        if off <= SNAP_TOL:
            return GraphPoint(vertex=e.u)
        if off >= e.length - SNAP_TOL:
            return GraphPoint(vertex=e.v)
        return GraphPoint(edge=e.id, offset=off)

    def oriented_endpoints(self, oe: OrientedEdge) -> tuple[str, str]:
        e = self.edge(oe.edge)
        return (e.v, e.u) if oe.reverse else (e.u, e.v)

    def oriented_offset(self, oe: OrientedEdge, p: GraphPoint) -> float | None:
        """Offset of ``p`` along the oriented edge, or None if ``p`` is not on it.

        Endpoint vertices map to 0 and the edge length; for a vertex incident
        to both ends of a parallel pair the first endpoint wins.
        """
        return self._offset(oe, self.canonical(p))

    def _offset(self, oe: OrientedEdge, p: GraphPoint) -> float | None:
        """:meth:`oriented_offset` of a point that is canonical already."""
        e = self.edge(oe.edge)
        e0, e1 = self.oriented_endpoints(oe)
        if p.vertex is not None:
            if p.vertex == e0:
                return 0.0
            if p.vertex == e1:
                return e.length
            return None
        if p.edge != e.id:
            return None
        return self.flip_offset(oe, p.offset)

    def flip_offset(self, oe: OrientedEdge, offset: float) -> float:
        """Turn an offset along ``oe`` into a stored offset, or back: the map
        is its own inverse, ``length - offset`` when ``oe`` is reversed."""
        return self.edge(oe.edge).length - offset if oe.reverse else offset


def build_graph(spec: Mapping) -> MetricGraph:
    """Validate a graph description and build the metric graph.

    ``spec`` is a mapping with a ``vertices`` list of ids and an ``edges`` list
    of ``{"id", "u", "v", "length"}`` records. Rejects nonpositive or infinite
    lengths, self-loops, isolated vertices, and disconnected graphs, each with
    its own diagnostic. Parallel edges with distinct ids are allowed.
    """
    try:
        raw_vertices = list(spec["vertices"])
        raw_edges = list(spec["edges"])
    except KeyError as exc:
        raise GraphValidationError(f"graph description missing field: {exc}") from None
    except TypeError:
        raise GraphValidationError(
            "graph description must be an object with 'vertices' and 'edges' lists"
        ) from None

    vertices = tuple(str(v) for v in raw_vertices)
    if not vertices:
        raise GraphValidationError("graph has no vertices")
    if len(set(vertices)) != len(vertices):
        raise GraphValidationError("duplicate vertex ids")
    vset = set(vertices)

    edges = []
    seen_ids: set[str] = set()
    for rec in raw_edges:
        try:
            eid, u, v, length = str(rec["id"]), str(rec["u"]), str(rec["v"]), float(rec["length"])
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphValidationError(f"malformed edge record: {exc}") from None
        if eid in seen_ids:
            raise GraphValidationError(f"duplicate edge id {eid!r}")
        seen_ids.add(eid)
        if u not in vset or v not in vset:
            raise GraphValidationError(f"edge {eid!r} references unknown vertex")
        if u == v:
            raise GraphValidationError(f"edge {eid!r} is a self-loop ({u!r})")
        if not (length > 0.0):
            raise GraphValidationError(
                f"edge {eid!r} has nonpositive length {length!r}; lengths must be > 0"
            )
        if not math.isfinite(length):
            raise GraphValidationError(f"edge {eid!r} has non-finite length {length!r}")
        edges.append(Edge(eid, u, v, length))
    edges_t = tuple(sorted(edges, key=lambda e: e.id))
    total = sum(e.length for e in edges_t)
    if not math.isfinite(total * total):  # no squared distance may overflow
        raise GraphValidationError(f"total edge length {total!r} is too large to square")

    isolated = sorted(vset.difference(w for e in edges_t for w in (e.u, e.v)))
    if isolated:
        raise GraphValidationError(f"isolated vertices (degree 0): {isolated}")

    g = MetricGraph(vertices, edges_t)
    missing = sorted(v for v, d in zip(vertices, g._row(0)) if d == math.inf)
    if missing:
        raise GraphValidationError(f"graph is disconnected; unreachable vertices: {missing}")
    return g


def _exits(g: MetricGraph, p: GraphPoint):
    """Ways out of ``p``: (cost to reach a vertex, vertex, exit direction or None)."""
    if p.vertex is not None:
        return ((0.0, p.vertex, None),)
    e = g.edge(p.edge)
    return ((p.offset, e.u, _BWD), (e.length - p.offset, e.v, _FWD))


def _flip(steps):
    return tuple((eid, _FWD if d == _BWD else _BWD) for eid, d in reversed(steps))


def distance(g: MetricGraph, x: GraphPoint, y: GraphPoint) -> float:
    """Length distance between two points of the graph.

    The minimum over the within-edge segment when both points share an edge,
    plus every combination of exits to the vertex skeleton. Interior points
    have at most two exits, so the enumeration is exact. Symmetric by
    construction: the pair is evaluated in a canonical order, so
    ``distance(g, x, y)`` and ``distance(g, y, x)`` return the same float.
    """
    x = g.canonical(x)
    y = g.canonical(y)
    if x == y:
        return 0.0
    if y.sort_key() < x.sort_key():
        x, y = y, x
    cands = []
    if x.edge is not None and x.edge == y.edge:
        cands.append(abs(y.offset - x.offset))
    for c1, w1, _ in _exits(g, x):
        row = g._row(g._index[w1])
        for c2, w2, _ in _exits(g, y):
            cands.append((c1 + row.item(g._index[w2])) + c2)
    return min(cands)


def _encode(g: MetricGraph, points: Sequence[GraphPoint]):
    """Canonical points as arrays: vertex index (-1 inside an edge), edge index
    (-1 at a vertex) and offset."""
    vertex, edge = [p.vertex for p in points], [p.edge for p in points]
    vi, ei = (
        np.fromiter(map(ids.get, keys, repeat(-1)), np.intp, len(points))
        for ids, keys in ((g._index, vertex), (g._edge_index, edge))
    )
    return vi, ei, np.fromiter([p.offset for p in points], float, len(points))


def _edge_offsets(g: MetricGraph, edge_id: str, points: Sequence[GraphPoint]) -> np.ndarray:
    """``g._offset(OrientedEdge(edge_id), p)`` of every canonical point, NaN off the edge."""
    vi, ei, off = _encode(g, points)
    k = g._edge_index[edge_id]
    at_v = np.where(vi == g._edge_ends[1][k], g._edge_lengths[k], np.nan)
    return np.where(ei == k, off, np.where(vi == g._edge_ends[0][k], 0.0, at_v))


def _distance_matrix(
    g: MetricGraph, xs: Sequence[GraphPoint], ys: Sequence[GraphPoint]
) -> np.ndarray:
    """``distance(g, x, y)`` for every pair of canonical points, bit for bit.

    Both sides are encoded at once, in arrays, with their exits: (offset, u)
    and (length - offset, v) inside an edge; a side of vertices only keeps
    one. Each pair of exits is a route ``(c1 + D[w1, w2]) + c2`` summed from
    the canonically first point, as the vertex table is not bit-symmetric:
    its block of table rows is gathered by rows, then columns (or the other
    way when that makes the smaller array), and its costs are added in place.
    Only one direction is computed when every pair has the same order. The
    minimum over the routes takes the segment of each same-edge pair; equal
    points are 0, as ``D[w, w]`` is.
    """
    n, (vi, ei, off) = len(xs), _encode(g, [*xs, *ys])
    inside = ei >= 0
    used = sorted(set(vi[~inside].tolist()), key=g.vertices.__getitem__)
    key = np.zeros(len(g.vertices), np.intp)
    key[used] = np.arange(len(used))  # vertices by id, then edge points by edge id and offset
    rank = np.argsort(np.lexsort((off, np.where(inside, len(used) + ei, key[vi]))))
    ends = [np.where(inside, w[ei], vi) for w in g._edge_ends]
    costs = [off, np.where(inside, g._edge_lengths[ei] - off, 0.0)]

    def side(points):  # its distinct exit vertices, and each exit's costs and index into them
        exits = 1 + inside[points].any()
        u, s = np.unique(np.concatenate([w[points] for w in ends[:exits]]), return_inverse=True)
        return u, list(zip([c[points] for c in costs[:exits]], np.split(s, exits)))

    x_side, y_side = side(slice(n)), side(slice(n, None))
    g._table_rows(np.union1d(x_side[0], y_side[0]).tolist())  # one Dijkstra call for all

    def routes(first, second):  # first's points by second's, summed from first
        (u1, exits1), (u2, exits2) = first, second
        rows = g._table_rows(u1.tolist())
        block = np.array([row[u2] for row in rows]).reshape(len(u1), len(u2))
        for c1, s1 in exits1:
            for c2, s2 in exits2:
                by_rows = len(s1) * len(u2) <= len(u1) * len(s2)
                t = block[s1][:, s2] if by_rows else block[:, s2][s1]
                t += c1[:, None]
                t += c2
                yield t

    rx, ry = rank[:n], rank[n:]
    if rx.max(initial=-1) < ry.min(initial=len(rank)):
        found = routes(x_side, y_side)
    elif rx.min(initial=len(rank)) >= ry.max(initial=-1):
        found = (t.T for t in routes(y_side, x_side))
    else:  # each direction yields every exit pair once, so any pairing will do
        y_first = rx[:, None] >= ry
        found = map(
            lambda t, u: np.copyto(t, u.T, where=y_first) or t,
            routes(x_side, y_side),
            routes(y_side, x_side),
        )
    d = next(found)
    for t in found:
        np.minimum(d, t, out=d)
    i, j = np.nonzero((ei[:n, None] == ei[n:]) & inside[n:])
    d[i, j] = np.minimum(d[i, j], np.abs(off[n + j] - off[i]))
    return d


def _dijkstra(g: MetricGraph, source: str, targets):
    # Ties between equal-length paths are broken by the lexicographically
    # smallest (edge id, direction) sequence; the heap order enforces it.
    # A vertex's distance and key are final once it is popped, so the search
    # stops when every vertex of ``targets`` has been.
    dist: dict[str, float] = {}
    key: dict[str, tuple] = {}
    heap: list[tuple[float, tuple, str]] = [(0.0, (), source)]
    left = set(targets)
    while heap and left:
        d, k, w = heapq.heappop(heap)
        if w in dist:
            continue
        dist[w] = d
        key[w] = k
        left.discard(w)
        for e in map(g.edge, g.adjacency[w]):
            flag, other = (_FWD, e.v) if e.u == w else (_BWD, e.u)
            if other not in dist:
                heapq.heappush(heap, (d + e.length, k + ((e.id, flag),), other))
    return dist, key


def shortest_path(g: MetricGraph, x: GraphPoint, y: GraphPoint) -> GeodesicPath:
    """A geodesic from ``x`` to ``y`` whose length equals ``distance(g, x, y)``.

    Among equal-length paths the lexicographically smallest
    (edge id, direction) sequence is returned, which makes the result
    reproducible across runs. The route candidates are those of
    :func:`distance`, searched from each exit vertex of the first point.
    """
    x = g.canonical(x)
    y = g.canonical(y)
    if x == y:
        return GeodesicPath(start=x, end=y, steps=(), length=0.0)
    swapped = y.sort_key() < x.sort_key()
    a, b = (y, x) if swapped else (x, y)
    cands = []
    if a.edge is not None and a.edge == b.edge:
        d = _FWD if a.offset < b.offset else _BWD
        cands.append((abs(b.offset - a.offset), ((a.edge, d),)))
    for c1, w1, d1 in _exits(g, a):
        s1 = () if d1 is None else ((a.edge, d1),)
        row_d, row_k = _dijkstra(g, w1, [w for _, w, _ in _exits(g, b)])
        for c2, w2, d2 in _exits(g, b):
            s2 = () if d2 is None else ((b.edge, d2),)
            cands.append(((c1 + row_d[w2]) + c2, s1 + row_k[w2] + _flip(s2)))
    cost, steps = min(cands)
    if swapped:
        steps = _flip(steps)
    public = tuple((eid, d == _FWD) for eid, d in steps)
    return GeodesicPath(start=x, end=y, steps=public, length=cost)


def path_segment_lengths(g: MetricGraph, path: GeodesicPath) -> tuple[float, ...]:
    """Lengths of the sub-segments a geodesic traverses, in order."""
    out = []
    cur = path.start
    for i, (eid, forward) in enumerate(path.steps):
        e = g.edge(eid)
        entry = cur.offset if cur.edge == eid else (0.0 if forward else e.length)
        last = i == len(path.steps) - 1
        if last and path.end.edge == eid:
            exit_off = path.end.offset
            cur = path.end
        else:
            exit_off = e.length if forward else 0.0
            cur = GraphPoint(vertex=e.v if forward else e.u)
        out.append(abs(exit_off - entry))
    return tuple(out)


def is_edge_minimizing(g: MetricGraph, edge_id: str) -> bool:
    """True iff the distance between the edge's endpoints equals its length."""
    e = g.edge(edge_id)
    return g.vertex_distance(e.u, e.v) >= e.length - REL_TOL * max(1.0, e.length)


def cut_points_from(g: MetricGraph, v: str) -> list[tuple[str, float]]:
    """Interior points reachable from vertex ``v`` by two ways out of their edge.

    For each edge {a, b} there is at most one interior offset where the route
    through ``a`` and the route through ``b`` are equally short; it is emitted
    whenever it falls strictly inside the edge. Both route values then realize
    the true distance, since any path to an interior point enters through one
    of the endpoints. The points come in edge id order.
    """
    if not g.has_vertex(v):
        raise ValueError(f"unknown vertex id {v!r}")
    row, (a, b), lengths = g._row(g._index[v]), g._edge_ends, g._edge_lengths
    t = 0.5 * (row[b] - row[a] + lengths)
    inside = np.flatnonzero((SNAP_TOL < t) & (t < lengths - SNAP_TOL))
    return [(g.edges[i].id, t) for i, t in zip(inside.tolist(), t[inside].tolist())]


def _crossings(g: MetricGraph, v: str, r: float, skip: str) -> int:
    """Interior points at distance ``r`` from vertex ``v`` on every edge but ``skip``:
    along an edge the distance rises from each end to the cut point's value
    ``peak = (d_a + d_b + length) / 2``, once for each end with ``d_end < r < peak``."""
    row, (a, b), lengths = g._row(g._index[v]), g._edge_ends, g._edge_lengths
    du, dv = row[a], row[b]
    peak = (du + dv + lengths) / 2
    count = ((du < r) & (r < peak)).astype(int) + ((dv < r) & (r < peak))
    count[g._edge_index[skip]] = 0
    return int(count.sum())


def parse_point(g: MetricGraph, literal: str) -> GraphPoint:
    """Parse a point literal: ``v:<vertexid>`` or ``<edgeid>:<offset>``.

    Offsets are measured from the edge's endpoint ``u``. On a graph with an
    edge ``v``, ``v:0.5`` reads both ways: it means the valid reading, and
    raises ``ValueError`` when both are valid and name different points.
    """
    eid, sep, off = literal.rpartition(":")
    readings = [lambda: GraphPoint.at_vertex(literal[2:])] if literal.startswith("v:") else []
    if sep and eid:
        readings.append(lambda: GraphPoint.on_edge(eid, float(off)))
    points, errors = set(), []
    for reading in readings:
        try:
            points.add(g.canonical(reading()))
        except ValueError as exc:
            errors.append(exc)
    if len(points) > 1:
        raise ValueError(f"ambiguous point literal {literal!r}: a vertex or a point on edge {eid!r}")
    if not points:
        raise errors[0] if errors else ValueError(f"bad point literal {literal!r}")
    return points.pop()


def format_point(p: GraphPoint, digits: int | None = None) -> str:
    """Format a point as its literal; ``digits`` limits significant digits."""
    if p.vertex is not None:
        return f"v:{p.vertex}"
    off = f"{p.offset:.{digits}g}" if digits is not None else repr(p.offset)
    return f"{p.edge}:{off}"

