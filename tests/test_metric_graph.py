import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse import csgraph

import mgbary.metric_graph
from mgbary import (
    GraphPoint,
    GraphValidationError,
    build_graph,
    cut_points_from,
    distance,
    format_point,
    is_edge_minimizing,
    parse_point,
    path_segment_lengths,
    shortest_path,
)
from conftest import (
    make_parallel,
    make_segment,
    make_skewed_square,
    make_square,
    make_square_with_chord,
    make_triangle,
    make_tripod,
    random_point,
)

V = GraphPoint.at_vertex
E = GraphPoint.on_edge


class TestBuild:
    def test_triangle_valid(self, triangle):
        assert triangle.min_edge_length == 1.0
        assert len(triangle.edges) == 3

    def test_tripod_valid(self, tripod):
        assert tripod.min_edge_length == 1.0
        assert set(tripod.adjacency["o"]) == {"b1", "b2", "b3"}

    def test_zero_length_rejected(self):
        with pytest.raises(GraphValidationError, match="nonpositive length"):
            build_graph(
                {
                    "vertices": ["A", "B"],
                    "edges": [{"id": "e", "u": "A", "v": "B", "length": 0.0}],
                }
            )

    @pytest.mark.parametrize("spec", [5, [], "graph.json", None])
    def test_non_object_description_rejected(self, spec):
        with pytest.raises(
            GraphValidationError, match="must be an object with 'vertices' and 'edges' lists"
        ):
            build_graph(spec)

    def test_missing_field_named(self):
        with pytest.raises(GraphValidationError, match="missing field: 'edges'"):
            build_graph({"vertices": ["A", "B"]})

    def test_infinite_length_rejected(self):
        with pytest.raises(GraphValidationError, match="non-finite length inf"):
            build_graph(
                {
                    "vertices": ["A", "B"],
                    "edges": [{"id": "e", "u": "A", "v": "B", "length": float("inf")}],
                }
            )

    def test_lengths_too_large_to_square_rejected(self):
        with pytest.raises(GraphValidationError, match="too large to square"):
            build_graph(
                {
                    "vertices": ["A", "B", "C"],
                    "edges": [
                        {"id": "e", "u": "A", "v": "B", "length": 1e200},
                        {"id": "f", "u": "B", "v": "C", "length": 1.0},
                    ],
                }
            )

    def test_self_loop_rejected(self):
        with pytest.raises(GraphValidationError, match="self-loop"):
            build_graph(
                {
                    "vertices": ["A"],
                    "edges": [{"id": "e", "u": "A", "v": "A", "length": 1.0}],
                }
            )

    def test_disconnected_rejected(self):
        with pytest.raises(
            GraphValidationError, match=r"disconnected; unreachable vertices: \['C', 'D'\]"
        ):
            build_graph(
                {
                    "vertices": ["A", "B", "C", "D"],
                    "edges": [
                        {"id": "e1", "u": "A", "v": "B", "length": 1.0},
                        {"id": "e2", "u": "C", "v": "D", "length": 1.0},
                    ],
                }
            )

    def test_isolated_vertex_rejected(self):
        with pytest.raises(GraphValidationError, match="isolated"):
            build_graph(
                {
                    "vertices": ["A", "B", "C"],
                    "edges": [{"id": "e", "u": "A", "v": "B", "length": 1.0}],
                }
            )

    def test_parallel_edges_allowed(self):
        g = make_parallel()
        assert len(g.edges) == 2


class TestCanonical:
    def test_endpoint_offsets_become_vertices(self, triangle):
        assert triangle.canonical(E("e_AB", 0.0)) == V("A")
        assert triangle.canonical(E("e_AB", 1.0)) == V("B")

    def test_snap_tolerance(self, triangle):
        assert triangle.canonical(E("e_AB", 1e-13)) == V("A")
        assert triangle.canonical(E("e_AB", 1.0 - 1e-13)) == V("B")
        p = triangle.canonical(E("e_AB", 0.5))
        assert p.edge == "e_AB" and p.offset == 0.5

    def test_point_literals_round_trip(self, triangle):
        assert parse_point(triangle, "v:A") == V("A")
        assert parse_point(triangle, "e_BC:0.5") == E("e_BC", 0.5)
        assert str(E("e_BC", 0.5)) == "e_BC:0.5"


# an edge named v, and a vertex whose id reads as an offset on it
EDGE_V = build_graph(
    {
        "vertices": ["A", "B", "0.5"],
        "edges": [
            {"id": "v", "u": "A", "v": "B", "length": 1.0},
            {"id": "w", "u": "B", "v": "0.5", "length": 1.0},
        ],
    }
)


class TestPointLiteralOnEdgeV:
    def test_vertex_reading(self):
        assert parse_point(EDGE_V, "v:A") == V("A")
        assert parse_point(EDGE_V, "v:1.0") == V("B")  # offset 1.0 is the vertex B

    def test_edge_reading(self):
        assert parse_point(EDGE_V, "v:0.25") == E("v", 0.25)

    def test_both_readings_are_ambiguous(self):
        with pytest.raises(ValueError, match="ambiguous point literal 'v:0.5'"):
            parse_point(EDGE_V, "v:0.5")

    def test_round_trip(self):
        p = E("v", 0.75)
        assert parse_point(EDGE_V, format_point(p)) == p

    def test_neither_reading(self):
        with pytest.raises(ValueError, match="unknown vertex id 'zz'"):
            parse_point(EDGE_V, "v:zz")


class TestDistance:
    def test_triangle_vertex_to_opposite_midpoint(self, triangle):
        assert distance(triangle, V("A"), E("e_BC", 0.5)) == 1.5

    def test_within_single_edge(self):
        g = make_segment()
        assert distance(g, E("seg", 0.2), E("seg", 0.9)) == pytest.approx(0.7, abs=1e-15)

    def test_tripod_tip_to_tip(self, tripod):
        assert distance(tripod, V("t1"), V("t2")) == 2.0

    def test_parallel_edges_shortcut(self):
        g = make_parallel(1.0, 3.0)
        # crossing the long edge is beaten by exiting through the short one
        assert distance(g, E("plong", 0.1), E("plong", 2.9)) == pytest.approx(1.2)

    def test_symmetry_is_exact(self, square_with_chord):
        rng = random.Random(7)
        for _ in range(300):
            x = random_point(square_with_chord, rng)
            y = random_point(square_with_chord, rng)
            assert distance(square_with_chord, x, y) == distance(square_with_chord, y, x)


class TestShortestPath:
    def test_tie_break_prefers_smallest_edge_id(self, triangle):
        p = shortest_path(triangle, V("A"), E("e_BC", 0.5))
        assert p.length == 1.5
        assert p.steps == (("e_AB", True), ("e_BC", True))

    def test_tripod_through_center(self, tripod):
        p = shortest_path(tripod, V("t1"), V("t2"))
        assert p.length == 2.0
        assert p.steps == (("b1", False), ("b2", True))

    def test_tie_between_both_exits_of_an_interior_point(self, square):
        # both routes have length 2.0 exactly; the smaller step sequence wins
        p = shortest_path(square, E("s12", 0.5), E("s34", 0.5))
        assert p.length == 2.0
        assert p.steps == (("s12", True), ("s23", True), ("s34", True))
        q = shortest_path(square, E("s34", 0.5), E("s12", 0.5))
        assert q.steps == (("s34", False), ("s23", False), ("s12", False))

    def test_same_point_empty_path(self, tripod):
        p = shortest_path(tripod, E("b1", 0.4), E("b1", 0.4))
        assert p.steps == () and p.length == 0.0

    def test_length_matches_distance_exactly(self, square_with_chord):
        rng = random.Random(11)
        for _ in range(1000):
            x = random_point(square_with_chord, rng)
            y = random_point(square_with_chord, rng)
            p = shortest_path(square_with_chord, x, y)
            assert p.length == distance(square_with_chord, x, y)

    def test_segment_lengths_sum_to_length(self, square_with_chord):
        rng = random.Random(13)
        for _ in range(200):
            x = random_point(square_with_chord, rng)
            y = random_point(square_with_chord, rng)
            p = shortest_path(square_with_chord, x, y)
            assert sum(path_segment_lengths(square_with_chord, p)) == pytest.approx(
                p.length, abs=1e-12
            )

    def test_reversal_gives_same_length(self, triangle):
        x, y = E("e_AB", 0.3), E("e_BC", 0.8)
        assert shortest_path(triangle, x, y).length == shortest_path(triangle, y, x).length


class TestMinimizingEdges:
    def test_triangle_edges_minimize(self, triangle):
        assert all(is_edge_minimizing(triangle, e.id) for e in triangle.edges)

    def test_long_parallel_edge_does_not(self):
        g = make_parallel(1.0, 3.0)
        assert is_edge_minimizing(g, "pshort")
        assert not is_edge_minimizing(g, "plong")

    def test_tree_edges_minimize(self, tripod):
        assert all(is_edge_minimizing(tripod, e.id) for e in tripod.edges)

    def test_within_edge_identity_on_minimizing_edges(self, square_with_chord):
        rng = random.Random(17)
        for _ in range(500):
            e = square_with_chord.edges[rng.randrange(5)]
            s, t = rng.uniform(0, e.length), rng.uniform(0, e.length)
            d = distance(
                square_with_chord, E(e.id, s), E(e.id, t)
            )
            assert d == abs(s - t)

    def test_short_hops_identity_even_on_nonminimizing_edge(self):
        g = make_parallel(1.0, 3.0)
        rng = random.Random(19)
        for _ in range(500):
            s = rng.uniform(0.0, 3.0)
            t = s + rng.uniform(-1.0, 1.0) * min(1.0, 3.0 - s, s)
            t = min(max(t, 0.0), 3.0)
            if abs(s - t) < g.min_edge_length:
                assert distance(g, E("plong", s), E("plong", t)) == abs(s - t)


def _brute_force_cut_points(g, v, samples=10_000, tol=1e-9):
    """Scan edge interiors for offsets where both ways out are equally short."""
    found = []
    for e in g.edges:
        du = g.vertex_distance(v, e.u)
        dv = g.vertex_distance(v, e.v)
        best = None
        for k in range(1, samples):
            t = e.length * k / samples
            via_u = du + t
            via_v = dv + (e.length - t)
            gap = abs(via_u - via_v)
            if best is None or gap < best[0]:
                best = (gap, t)
        # a genuine crossing point has gap ~ grid resolution, not O(1)
        if best is not None and best[0] <= 2 * e.length / samples:
            t = 0.5 * (dv - du + e.length)
            if tol < t < e.length - tol:
                found.append((e.id, t))
    return sorted(found)


class TestCutPoints:
    def test_triangle_opposite_midpoint(self, triangle):
        assert cut_points_from(triangle, "A") == [("e_BC", 0.5)]

    def test_tree_has_none(self, tripod):
        assert cut_points_from(tripod, "o") == []

    def test_square_matches_brute_force(self, square):
        # the point opposite a corner of the unit square is itself a vertex,
        # so no edge interior carries a cut point; the oracle agrees
        got = cut_points_from(square, "1")
        assert got == _brute_force_cut_points(square, "1")
        assert got == []

    def test_skewed_square_matches_brute_force(self):
        g = make_skewed_square()
        got = cut_points_from(g, "A")
        oracle = _brute_force_cut_points(g, "A")
        assert len(got) == len(oracle) == 1
        (eid, t), (oid, ot) = got[0], oracle[0]
        assert eid == oid and t == pytest.approx(ot, abs=1e-4)

    def test_at_most_one_point_per_edge(self, square_with_chord):
        for v in square_with_chord.vertices:
            pts = cut_points_from(square_with_chord, v)
            assert len({eid for eid, _ in pts}) == len(pts)


class TestMetricAxioms:
    @pytest.mark.parametrize(
        "maker", [make_triangle, make_tripod, make_square, make_parallel]
    )
    def test_symmetry_triangle_inequality_positivity(self, maker):
        g = maker()
        rng = random.Random(23)
        for _ in range(1000):
            x, y, z = (random_point(g, rng) for _ in range(3))
            dxy = distance(g, x, y)
            assert dxy == distance(g, y, x)
            assert dxy >= 0.0
            # collinear triples tie in exact arithmetic, and the two sides
            # round independently; allow the last-ulp wiggle and nothing more
            detour = dxy + distance(g, y, z)
            assert distance(g, x, z) <= detour + 1e-14 * max(1.0, detour)
            if g.canonical(x) == g.canonical(y):
                assert dxy == 0.0
            else:
                assert dxy > 0.0

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    def test_distance_zero_iff_same_point(self, s, t):
        g = make_segment()
        d = distance(g, E("seg", s), E("seg", t))
        if g.canonical(E("seg", s)) == g.canonical(E("seg", t)):
            assert d == 0.0
        else:
            assert d > 0.0


def _spec(g):
    return {
        "vertices": list(g.vertices),
        "edges": [{"id": e.id, "u": e.u, "v": e.v, "length": e.length} for e in g.edges],
    }


def _grid_graph(n, seed):
    """n x n grid of vertices, edge lengths drawn from [0.5, 1.5]."""
    rng = random.Random(seed)
    edges = []

    def add(eid, u, v):
        edges.append({"id": eid, "u": u, "v": v, "length": rng.uniform(0.5, 1.5)})

    for i in range(n):
        for j in range(n):
            if j + 1 < n:
                add(f"h{i}_{j}", f"v{i}_{j}", f"v{i}_{j + 1}")
            if i + 1 < n:
                add(f"d{i}_{j}", f"v{i}_{j}", f"v{i + 1}_{j}")
    return {"vertices": sorted({e[k] for e in edges for k in ("u", "v")}), "edges": edges}


def _dense_table(spec):
    """The all-pairs table as a dense symmetric length matrix gives it, vertices in spec order."""
    index = {v: i for i, v in enumerate(spec["vertices"])}
    lengths = np.full((len(index), len(index)), np.inf)
    for e in spec["edges"]:
        i, j = index[e["u"]], index[e["v"]]
        lengths[i, j] = lengths[j, i] = min(lengths[i, j], e["length"])
    return csgraph.dijkstra(lengths)


REFERENCE_SPECS = [
    _spec(make_triangle()),
    _spec(make_tripod()),
    _spec(make_square()),
    _spec(make_skewed_square()),
    _spec(make_square_with_chord()),
    _spec(make_parallel(1.0, 3.0)),
    _spec(make_parallel(3.0, 1.0)),
    _grid_graph(7, 1),
    _grid_graph(16, 2),
]


class TestVertexTable:
    @pytest.mark.parametrize("spec", REFERENCE_SPECS)
    def test_matches_dense_dijkstra_bit_for_bit(self, spec):
        dense = _dense_table(spec)
        names = spec["vertices"]
        # rows filled in row-major order, then on a fresh graph column-major
        g = build_graph(spec)
        row_major = [[g.vertex_distance(a, b) for b in names] for a in names]
        g = build_graph(spec)
        col_major = [[g.vertex_distance(a, b) for a in names] for b in names]
        assert np.array_equal(np.array(row_major), dense)
        assert np.array_equal(np.array(col_major).T, dense)

    def test_tiny_edge_is_an_edge(self):
        # a dense matrix read as a graph drops entries within 1e-8 of 0
        spec = _spec(make_tripod())
        spec["edges"][1]["length"] = 1e-9
        g = build_graph(spec)
        assert g.vertex_distance("o", "t2") == 1e-9
        assert is_edge_minimizing(g, "b2")

    def test_rows_are_computed_on_demand(self, monkeypatch):
        rows = []
        dijkstra = csgraph.dijkstra

        def counted(graph, *args, indices=None, **kwargs):
            rows.append(graph.shape[0] if indices is None else np.size(indices))
            return dijkstra(graph, *args, indices=indices, **kwargs)

        monkeypatch.setattr(mgbary.metric_graph.csgraph, "dijkstra", counted)
        g = build_graph(_grid_graph(30, 3))
        distance(g, E("h10_10", 0.25), E("d20_15", 0.5))
        assert sum(rows) <= 5
        built = sum(rows)
        is_edge_minimizing(g, "h3_7")
        assert sum(rows) <= built + 1
