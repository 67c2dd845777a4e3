"""Transport from a source on one minimizing edge, solved on the unfolded line.

``w2_graph`` answers such a problem from the north-west-corner plan of the
unfolding and accepts it only through the dual certificate every LP answer
passes; the transportation simplex solves it when the certificate fails.
These tests compare the line route with a dense LP written here, check that
it never falls back on cycles, find a problem where the midpoint order
misses the optimum and see the simplex answer it without HiGHS, and guard
the number of transport LPs of a fixed point.
"""

import logging
import random
import re
import sys

import numpy as np
import pytest
import scipy.optimize

import mgbary.barycenter
import mgbary.covering
import mgbary.line_ot
import mgbary.transport
from conftest import (
    make_skewed_square,
    make_square_with_chord,
    make_triangle,
    make_tripod,
    random_point,
)
from mgbary import (
    GraphPoint,
    barycenter_problem,
    build_graph,
    cut_points_from,
    discrete_measure,
    distance,
    graph_measure,
    is_edge_minimizing,
    solve_edge_fixed_point,
    w2_graph,
)
from mgbary.tolerances import SNAP_TOL
from mgbary.transport import _accepted, _coupling_lp

FALLBACK = "line route falls back to the transportation simplex"


def _grid_graph(n: int, seed: int):
    rng = random.Random(seed)
    edges = []
    for i in range(n):
        for j in range(n):
            if j + 1 < n:
                edges.append({"id": f"h{i}_{j}", "u": f"v{i}_{j}", "v": f"v{i}_{j + 1}",
                              "length": rng.uniform(0.5, 1.5)})
            if i + 1 < n:
                edges.append({"id": f"d{i}_{j}", "u": f"v{i}_{j}", "v": f"v{i + 1}_{j}",
                              "length": rng.uniform(0.5, 1.5)})
    vertices = [f"v{i}_{j}" for i in range(n) for j in range(n)]
    return build_graph({"vertices": vertices, "edges": edges})


GRAPHS = {
    "tripod": make_tripod,
    "triangle": make_triangle,
    "skewed_square": make_skewed_square,
    "square_with_chord": make_square_with_chord,
    "grid7": lambda: _grid_graph(7, 7),
}
CYCLES = ("triangle", "skewed_square")


def _problem(g, rng: random.Random, spread: bool):
    """A source on one edge, a few points clustered or spread over it, maybe
    with its endpoints, and a target of random points of the graph."""
    e = rng.choice(g.edges)
    center = rng.uniform(0.05, 0.95) * e.length
    offsets = [
        rng.uniform(0.01, 0.99) * e.length if spread
        else center + rng.uniform(-0.01, 0.01) * e.length
        for _ in range(rng.randint(2, 12))
    ]
    pairs = [(GraphPoint.on_edge(e.id, off), rng.random()) for off in offsets]
    pairs += [(GraphPoint.at_vertex(v), rng.random()) for v in (e.u, e.v) if rng.random() < 0.3]
    targets = [(random_point(g, rng), rng.random()) for _ in range(rng.randint(2, 15))]
    return _unit(g, pairs), _unit(g, targets)


def _unit(g, pairs):
    total = sum(w for _, w in pairs)
    return discrete_measure(g, [(p, w / total) for p, w in pairs])


def _reference(g, m1, m2):
    """The dense LP over scalar distances, solved by HiGHS (interior point,
    crossover to a vertex) and certified."""
    costs = np.array([[distance(g, x, y) ** 2 for y in m2.points] for x in m1.points])
    c, a_eq, b_eq = _coupling_lp([costs], [m2.weights], m1.weights)
    res = scipy.optimize.linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs-ipm")
    _accepted(res, c, a_eq, b_eq)
    return float(res.fun), (c, a_eq, b_eq)


class _Recorder:
    """Counts the transport LPs of ``w2_graph`` that reach HiGHS (``lps``) and
    the simplex (``simplex``), and keeps each answer it checks."""

    def __init__(self, monkeypatch):
        self.lps, self.simplex, self.answers = 0, 0, []
        real_linprog, real_accepted = mgbary.transport.linprog, mgbary.transport._accepted
        real_simplex = mgbary.transport._transport_simplex

        def linprog(*args, **kwargs):
            self.lps += 1
            return real_linprog(*args, **kwargs)

        def simplex(*args):
            self.simplex += 1
            return real_simplex(*args)

        def accepted(res, *lp):
            self.answers.append(res)
            return real_accepted(res, *lp)

        monkeypatch.setattr(mgbary.transport, "linprog", linprog)
        monkeypatch.setattr(mgbary.transport, "_accepted", accepted)
        monkeypatch.setattr(mgbary.transport, "_transport_simplex", simplex)

    def solve(self, g, m1, m2):
        self.lps, self.simplex, self.answers = 0, 0, []
        return w2_graph(g, m1, m2)


def _frame(g, m1, m2):
    """The edge frame of ``m1``'s interior points' one edge, when it is
    minimizing and holds all of ``m1``; else None."""
    edges = {p.edge for p in m1.points} - {None}
    if len(edges) != 1 or not is_edge_minimizing(g, min(edges)):
        return None
    frame = mgbary.transport._edge_frame(g, min(edges), m1.points, m2.points)
    return None if np.isnan(frame[1]).any() else frame


def _on_one_edge(g, m1, m2) -> bool:
    return _frame(g, m1, m2) is not None


class TestLineRouteMatchesTheLp:
    @pytest.mark.parametrize("spread", [False, True], ids=["dirac-like", "spread"])
    @pytest.mark.parametrize("name", list(GRAPHS))
    def test_objective_and_certificate(self, monkeypatch, name, spread):
        g = GRAPHS[name]()
        rng = random.Random(f"{name}:{spread}")
        recorder = _Recorder(monkeypatch)
        answered = 0
        for _ in range(25):
            m1, m2 = _problem(g, rng, spread)
            assert _on_one_edge(g, m1, m2)
            cost, plan = recorder.solve(g, m1, m2)
            value, lp = _reference(g, m1, m2)
            assert abs(cost - value) <= 1e-12 * value
            assert recorder.lps == 0
            _accepted(recorder.answers[-1], *lp)  # the line route's answer or the simplex's
            answered += recorder.simplex == 0
        assert answered >= (25 if name in CYCLES or name == "tripod" else 15)


def test_cycles_never_fall_back(monkeypatch, caplog):
    recorder = _Recorder(monkeypatch)
    caplog.set_level(logging.DEBUG, logger="mgbary")
    count = 0
    for name in CYCLES:
        g = GRAPHS[name]()
        rng = random.Random(f"cycle:{name}")
        for i in range(110):
            m1, m2 = _problem(g, rng, spread=i % 2 == 0)
            recorder.solve(g, m1, m2)
            assert recorder.lps == recorder.simplex == 0, (name, i)
            count += 1
    assert count >= 200
    assert not [r for r in caplog.records if FALLBACK in r.getMessage()]


@pytest.mark.parametrize("h", [1 / 16, 1 / 64])
def test_targets_nearer_through_one_end_are_sent_there(monkeypatch, h):
    """Every target on k_DA within 1.5 of A is reached from B through A, so
    its images' midpoint is B itself: the source at B is as near both
    images, and the line cost is flat along those targets before it falls
    again. The search must not stop on that plateau."""
    g = make_skewed_square()
    V, E = GraphPoint.at_vertex, GraphPoint.on_edge
    m1 = discrete_measure(
        g, [(V("A"), 0.56), (V("B"), 0.28)] + [(E("k_AB", 0.88 + 0.015 * i), 0.02) for i in range(8)]
    )
    m2 = mgbary.discretize(g, graph_measure(g, pieces=[("k_DA", 0.6, 1.9, 1 / 1.3)]), h)
    recorder = _Recorder(monkeypatch)
    cost, _ = recorder.solve(g, m1, m2)
    value, _ = _reference(g, m1, m2)
    assert recorder.lps == recorder.simplex == 0
    assert abs(cost - value) <= 1e-12 * value


def _line_cost(g, m1, m2) -> float:
    """The cost of the line route's plan, before any certificate."""
    frame = _frame(g, m1, m2)
    x = mgbary.transport._unfolded_plan(frame, m1.weights, m2.weights)
    return float(np.sum(x * frame[3][2:] ** 2))


def _missed_problem():
    """The first seeded problem, on graphs whose targets' images are not one
    perimeter apart, where the line route's plan is not optimal."""
    for i in range(2000):
        g = GRAPHS[("square_with_chord", "grid7")[i % 2]]()
        m1, m2 = _problem(g, random.Random(f"miss:{i}"), spread=True)
        value, _ = _reference(g, m1, m2)
        if _line_cost(g, m1, m2) > value * (1 + 1e-9):
            return g, m1, m2, value
    raise AssertionError("no problem in 2000 where the midpoint order misses the optimum")


class TestFallback:
    def test_a_missed_optimum_is_solved_by_the_simplex(self, monkeypatch):
        g, m1, m2, value = _missed_problem()
        recorder = _Recorder(monkeypatch)
        cost, plan = recorder.solve(g, m1, m2)
        assert recorder.lps == 0 and recorder.simplex == 1
        assert abs(cost - value) <= 1e-12 * value
        assert abs(plan.mass() - 1.0) <= 1e-12

    def test_fallback_logs_one_debug_record(self, caplog, capsys):
        g, m1, m2, _ = _missed_problem()
        caplog.set_level(logging.DEBUG, logger="mgbary")
        w2_graph(g, m1, m2)
        records = [r for r in caplog.records if FALLBACK in r.getMessage()]
        assert len(records) == 1
        assert records[0].levelno == logging.DEBUG and records[0].name == "mgbary"
        message = records[0].getMessage()
        assert f"n {len(m1.points)}, k {len(m2.points)}" in message
        assert re.search(r"\b\d+ pivots\b", message)
        assert "reduced cost" in message or "residual" in message
        assert capsys.readouterr() == ("", "")


def _cycle_problem():
    g = make_triangle()
    inputs = [(0.25, ("e_AC", 0.3, 0.95, 1 / 0.65)), (0.25, ("e_AB", 0.0, 0.6, 1 / 0.6)),
              (0.5, ("e_AC", 0.3, 1.0, 1 / 0.7))]
    return barycenter_problem(
        g, [(w, graph_measure(g, pieces=[piece])) for w, piece in inputs], 1 / 32
    )


def test_fixed_point_on_a_cycle_solves_no_transport_lp(monkeypatch):
    """Every cut case of this fixed point has a source inside the edge, so the
    line route answers each one; a change that routes them elsewhere fails here."""
    problem = _cycle_problem()
    recorder = _Recorder(monkeypatch)
    cut_cases = []
    real = mgbary.covering._optimal_coupling
    monkeypatch.setattr(
        mgbary.covering, "_optimal_coupling", lambda *args: cut_cases.append(1) or real(*args)
    )
    for init in ("uniform", "vertex"):
        assert solve_edge_fixed_point(problem, "e_BC", init=init).converged
    assert len(cut_cases) > 0 and recorder.lps == recorder.simplex == 0


@pytest.mark.parametrize("init", ["uniform", "vertex"])
def test_fixed_point_rounds_build_no_quantile_objects(init):
    """Each round of the fixed point runs the line calculus on arrays: no
    quantile function, clamp or line measure per round, one line measure for
    the result at most. Calls are counted by code object, whatever the
    binding they go through."""
    counted = [
        mgbary.line_ot.quantile,
        mgbary.line_ot.average_quantile,
        mgbary.line_ot.clamp_quantile,
        mgbary.line_ot.measure_from_quantile,
        mgbary.line_ot.line_measure,
    ]
    calls = {f.__code__: 0 for f in counted}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in calls:
            calls[frame.f_code] += 1

    problem = _cycle_problem()
    sys.setprofile(profile)
    try:
        result = solve_edge_fixed_point(problem, "e_BC", init=init)
    finally:
        sys.setprofile(None)
    assert result.converged and result.iterations > 1
    *zero, lines = (calls[f.__code__] for f in counted)
    assert zero == [0, 0, 0, 0] and lines <= 1


def _cut_points_loop(g, v):
    out = []
    for e in g.edges:
        t = 0.5 * (g.vertex_distance(v, e.v) - g.vertex_distance(v, e.u) + e.length)
        if SNAP_TOL < t < e.length - SNAP_TOL:
            out.append((e.id, t))
    return sorted(out)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cut_points_match_the_edge_loop(seed):
    g = _grid_graph(6 + seed, seed)
    rng = random.Random(seed)
    for v in rng.sample(list(g.vertices), 5):
        got = cut_points_from(g, v)
        assert got == _cut_points_loop(g, v)
        assert all(type(eid) is str and type(t) is float for eid, t in got)


def _preimage_count_loop(ctx, tag, x):
    """``preimage_count`` past its exceptional-value check, edge by edge."""
    g, e = ctx.graph, ctx.graph.edge(ctx.edge.edge)
    if tag is mgbary.BranchTag.E:
        return 1 if 0.0 < x < e.length else 0
    r = x - e.length if tag is mgbary.BranchTag.PLUS else -x
    if r < 0.0:
        return 0
    w = mgbary.covering._anchor_vertex(ctx, tag)
    count = 0
    for f in g.edges:
        if f.id == e.id:
            continue
        du, dv = g.vertex_distance(w, f.u), g.vertex_distance(w, f.v)
        t_rise = r - du
        count += 0.0 < t_rise < f.length and du + t_rise < dv + (f.length - t_rise)
        t_fall = dv + f.length - r
        count += 0.0 < t_fall < f.length and dv + (f.length - t_fall) < du + t_fall
    return count


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_preimage_counts_match_the_edge_loop(seed):
    g = _grid_graph(4 + seed, seed)
    rng = random.Random(seed)
    counted = 0
    for e in rng.sample(list(g.edges), 3):
        base = discrete_measure(g, [(GraphPoint.on_edge(e.id, 0.5 * e.length), 1.0)])
        for reverse in (False, True):
            ctx = mgbary.make_cover_context(g, mgbary.OrientedEdge(e.id, reverse), base)
            for tag in mgbary.BranchTag:
                for x in (rng.uniform(-6.0, 6.0) for _ in range(8)):
                    try:
                        got = mgbary.preimage_count(ctx, tag, x)
                    except ValueError:  # within LENGTH_TOL of an exceptional value
                        continue
                    assert got == _preimage_count_loop(ctx, tag, x)
                    counted += got > 1
    assert counted > 0


class TestPublicEntriesCanonicalize:
    """The private kernels take canonical points; the public entries still
    accept any literal form of a point."""

    def test_classify_pair_reads_an_edge_end_as_its_vertex(self):
        g = make_triangle()
        oe = mgbary.OrientedEdge("e_AB")
        x = GraphPoint.on_edge("e_AB", 0.5)
        for y, vertex in ((GraphPoint.on_edge("e_AC", 0.0), "A"), (GraphPoint.on_edge("e_BC", 0.0), "B")):
            got = mgbary.classify_pair(g, oe, x, y)
            assert got is mgbary.classify_pair(g, oe, x, GraphPoint.at_vertex(vertex))
            assert got is mgbary.BranchTag.E
        assert mgbary.classify_pair(g, oe, GraphPoint.on_edge("e_AB", 1.0), GraphPoint.at_vertex("C")) \
            is mgbary.classify_pair(g, oe, GraphPoint.at_vertex("B"), GraphPoint.at_vertex("C"))

    def test_oriented_offset_reads_an_edge_end_as_its_vertex(self):
        g = make_triangle()
        assert g.oriented_offset(mgbary.OrientedEdge("e_AB"), GraphPoint.on_edge("e_AC", 0.0)) == 0.0
        assert g.oriented_offset(mgbary.OrientedEdge("e_AB", reverse=True),
                                 GraphPoint.on_edge("e_BC", 0.0)) == 0.0

