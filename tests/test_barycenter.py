import ast
import logging
import math
import pathlib
import random
import re

import numpy as np
import pytest
from scipy.optimize import linprog

import mgbary.barycenter
import mgbary.transport
from mgbary import (
    BarycenterProblem,
    GraphPoint,
    MeasureValidationError,
    OrientedEdge,
    ParseError,
    QuantileFn,
    SupportCapError,
    average_quantile,
    barycenter_problem,
    build_graph,
    candidate_support,
    clamp_quantile,
    discrete_measure,
    discrete_to_graph_measure,
    discretize,
    graph_measure,
    line_measure,
    make_cover_context,
    measure_on_edge_as_line,
    objective,
    phi,
    quantile,
    regularity_report,
    restrict,
    solve_edge_fixed_point,
    solve_lp,
    w2_graph,
    w2_line,
)
from mgbary.barycenter import _edge_grid_masses, _targets
from mgbary.tolerances import REL_TOL, SNAP_TOL
from mgbary.transport import GraphMeasure, _cost_matrix, _edge_cells, _joint_lp
from conftest import (
    _accepted,
    _coo_coupling_lp,
    make_segment,
    make_skewed_square,
    make_square_with_chord,
    make_triangle,
    make_tripod,
    random_graph,
    tripod_outer_halves,
)

V = GraphPoint.at_vertex
E = GraphPoint.on_edge

TRIPOD_CENTER_OBJECTIVE = 7.0 / 12.0  # integral of 2*x^2 over [1/2, 1], per leg


def segment_two_uniform_problem(grid=0.05):
    g = make_segment(3.0)
    measures = [
        (0.5, graph_measure(g, pieces=[("seg", 0.0, 1.0, 1.0)])),
        (0.5, graph_measure(g, pieces=[("seg", 2.0, 3.0, 1.0)])),
    ]
    return g, barycenter_problem(g, measures, grid)


class TestObjective:
    def test_tripod_center_matches_closed_form(self):
        g = make_tripod()
        problem = barycenter_problem(g, tripod_outer_halves(g), grid=1 / 256)
        center = discrete_measure(g, [(V("o"), 1.0)])
        got = objective(problem, center)
        assert got == pytest.approx(TRIPOD_CENTER_OBJECTIVE, abs=1e-4)
        # independent check of the frozen constant: midpoint sum at the grid
        h = 1 / 256
        cells = int(0.5 / h)
        riemann = sum(2.0 * h * (0.5 + (k + 0.5) * h) ** 2 for k in range(cells))
        assert got == pytest.approx(riemann, abs=1e-12)

    def test_single_measure_at_itself_is_zero(self, tripod):
        nu = graph_measure(tripod, atoms=[(E("b1", 0.5), 0.5), (V("t2"), 0.5)])
        problem = barycenter_problem(tripod, [(1.0, nu)], grid=0.1)
        mu = discretize(tripod, nu, 0.1)
        assert objective(problem, mu) == 0.0

    def test_two_diracs_midpoint(self):
        g = make_segment(1.0)
        a, b = 0.2, 0.8
        measures = [
            (0.5, graph_measure(g, atoms=[(E("seg", a), 1.0)])),
            (0.5, graph_measure(g, atoms=[(E("seg", b), 1.0)])),
        ]
        problem = barycenter_problem(g, measures, grid=0.1)
        mid = discrete_measure(g, [(E("seg", (a + b) / 2), 1.0)])
        assert objective(problem, mid) == pytest.approx((b - a) ** 2 / 4, abs=1e-12)


class TestSolveLP:
    def test_tripod_mass_concentrates_at_center(self):
        g = make_tripod()
        problem = barycenter_problem(g, tripod_outer_halves(g), grid=1 / 16)
        mu, value = solve_lp(problem)
        mass_center = sum(
            w for p, w in zip(mu.points, mu.weights) if p == V("o")
        )
        assert mass_center >= 0.99
        assert value == pytest.approx(TRIPOD_CENTER_OBJECTIVE, rel=0.02)

    def test_single_measure_returns_it(self, tripod):
        nu = graph_measure(tripod, pieces=[("b2", 0.25, 0.75, 2.0)])
        problem = barycenter_problem(tripod, [(1.0, nu)], grid=0.125)
        mu, value = solve_lp(problem)
        target = discretize(tripod, nu, 0.125)
        assert value == pytest.approx(0.0, abs=1e-9)
        assert set(mu.points) == set(target.points)

    def test_segment_matches_line_barycenter(self):
        g, problem = segment_two_uniform_problem(grid=0.05)
        mu, _ = solve_lp(problem)
        line_view = measure_on_edge_as_line(g, "seg", mu)
        expected = line_measure(pieces=[(1.0, 2.0, 1.0)])
        assert w2_line(line_view, expected) <= 0.05 + 1e-12

    def test_support_cap_guard(self, monkeypatch):
        g = make_tripod()
        problem = barycenter_problem(g, tripod_outer_halves(g), grid=1 / 16)
        monkeypatch.setenv("MGBARY_SUPPORT_CAP", "100")  # 16 cells pass, 1,300 LP variables do not
        with pytest.raises(SupportCapError, match="LP variables, above the cap 100"):
            solve_lp(problem)


def _full_lp(problem):
    """Candidates, cost matrices and input weights of the joint LP over every
    candidate of the grid."""
    g = problem.graph
    support = candidate_support(problem)
    targets = [(lam, discretize(g, nu, problem.grid)) for lam, nu in problem.measures]
    costs = [lam * _cost_matrix(g, support, t.points) for lam, t in targets]
    return support, costs, [t.weights for _, t in targets]


def _dense_reference(problem):
    """The joint LP over every candidate of the grid, solved and accepted as
    ``solve_lp`` accepts an LP: the measure's weights by point, and the value."""
    support, costs, weights = _full_lp(problem)
    c, a_eq, b_eq = _coo_coupling_lp(costs, weights)
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs-ipm")
    w = _accepted(res, c, a_eq, b_eq)[: len(support)]
    w /= w.sum()
    return {p: float(wi) for p, wi in zip(support, w) if wi > 0.0}, float(res.fun)


def _pieces_problem(make, inputs, grid):
    g = make()
    return barycenter_problem(
        g, [(w, graph_measure(g, pieces=[piece])) for w, piece in inputs], grid
    )


def _grid_graph(n):
    """n x n grid of vertices, edge lengths between 0.5 and 1.5."""
    edges = []
    for i in range(n):
        for j in range(n):
            for eid, di, dj in (("h", 0, 1), ("d", 1, 0)):
                if i + di < n and j + dj < n:
                    length = 0.5 + ((7 * i + 3 * j + di) % 11) / 10
                    edges.append(
                        {"id": f"{eid}{i}_{j}", "u": f"v{i}_{j}",
                         "v": f"v{i + di}_{j + dj}", "length": length}
                    )
    return build_graph(
        {"vertices": [f"v{i}_{j}" for i in range(n) for j in range(n)], "edges": edges}
    )


# on the chord problems pricing adds candidates to the seeded set, and a
# solve_lp that skips pricing misses their optimum
CHORD_INPUTS = [
    (0.4, ("q41", 0.05, 0.6, 1 / 0.55)),
    (0.35, ("q34", 0.4, 0.7, 1 / 0.3)),
    (0.25, ("q13", 0.1, 0.5, 1 / 0.4)),
]
DENSE_REFERENCE_PROBLEMS = {
    "tripod-16": (make_tripod, [(1 / 3, (f"b{i}", 0.5, 1.0, 2.0)) for i in (1, 2, 3)], 1 / 16),
    "tripod-32": (make_tripod, [(1 / 3, (f"b{i}", 0.5, 1.0, 2.0)) for i in (1, 2, 3)], 1 / 32),
    "tripod-64": (make_tripod, [(0.2, ("b1", 0.5, 1.0, 2.0)), (0.3, ("b2", 0.5, 1.0, 2.0)),
                                (0.5, ("b3", 0.5, 1.0, 2.0))], 1 / 64),
    "triangle": (make_triangle, [(0.25, ("e_AC", 0.3, 0.95, 1 / 0.65)),
                                 (0.25, ("e_AB", 0.0, 0.6, 1 / 0.6)),
                                 (0.5, ("e_AC", 0.3, 1.0, 1 / 0.7))], 1 / 32),
    # random inputs on the triangle. Every simplex answer here passes the
    # certificate at default tolerances; test_a_warm_round_is_certified_too
    # covers the re-solve at tight tolerances by injection, and CHORD_INPUTS
    # at h = 1/256 take it unprompted, in round 7 of 8
    "triangle-resolved": (make_triangle, [
        (0.22567852167246386, ("e_AC", 0.2629049061311682, 0.8822880155780949, 1.6145096382963078)),
        (0.2646002182037707, ("e_AB", 0.012137432095470045, 0.5867562359833648, 1.740284155746311)),
        (0.5097212601237654, ("e_AC", 0.31987572546580145, 1.0, 1.4703195245969967)),
    ], 1 / 32),
    "square_with_chord": (make_square_with_chord, CHORD_INPUTS, 1 / 32),
    "square_with_chord-64": (make_square_with_chord, CHORD_INPUTS, 1 / 64),
    "square_with_chord-2": (make_square_with_chord, [(0.4, ("q23", 0.05, 0.45, 1 / 0.4)),
                                                     (0.6, ("q41", 0.1, 0.6, 1 / 0.5))], 1 / 32),
    "skewed_square": (make_skewed_square, [(0.45, ("k_CD", 0.4, 0.75, 1 / 0.35)),
                                           (0.3, ("k_DA", 0.95, 1.85, 1 / 0.9)),
                                           (0.25, ("k_DA", 0.4, 1.35, 1 / 0.95))], 1 / 32),
    # vertices and one cell per edge: many candidates however coarse the grid
    "grid10-0.5": (lambda: _grid_graph(10), [(0.3, ("h2_3", 0.1, 0.4, 1 / 0.3)),
                                              (0.3, ("d5_5", 0.0, 0.5, 2.0)),
                                              (0.4, ("h8_1", 0.2, 0.5, 1 / 0.3))], 0.5),
    "grid10-2": (lambda: _grid_graph(10), [(0.5, ("d0_0", 0.0, 0.5, 2.0)),
                                            (0.5, ("h9_8", 0.0, 0.5, 2.0))], 2.0),
}


class TestSolveLpMatchesDense:
    @pytest.mark.parametrize("name", list(DENSE_REFERENCE_PROBLEMS))
    def test_matches_the_lp_over_every_candidate(self, name):
        problem = _pieces_problem(*DENSE_REFERENCE_PROBLEMS[name])
        weights, value = _dense_reference(problem)
        mu, got = solve_lp(problem)
        assert abs(got - value) <= 1e-12 * abs(value)
        assert set(mu.points) == set(weights)
        assert max(abs(w - weights[p]) for p, w in zip(mu.points, mu.weights)) <= 1e-15

    def test_solve_is_logged(self, caplog):
        problem = _pieces_problem(make_square_with_chord, CHORD_INPUTS, 1 / 64)
        with caplog.at_level(logging.DEBUG, logger="mgbary"):
            solve_lp(problem)
        records = [r.args for r in caplog.records if r.name == "mgbary"]
        assert len(records) == 1
        grid, count, size, rounds, runs, slack = records[0]
        support, costs, _ = _full_lp(problem)
        tol = REL_TOL * max(1.0, max(float(cost.max()) for cost in costs))
        assert grid == 1 / 64 and count == len(support)
        assert size <= count and slack >= -tol  # the certificate solve_lp accepts
        assert rounds >= 2 and len(runs) == rounds  # pricing added candidates
        # each round's simplex iterations: round 1 cold on the best Dirac
        # position, each later one warm, which pivots at least once since a
        # candidate joined S
        assert all(type(simplex) is int for simplex in runs) and min(runs[1:]) > 0

    @pytest.mark.parametrize("n", [256, 512])
    def test_fine_tripod_grid(self, n):
        g = make_tripod()
        h = 1 / n
        mu, value = solve_lp(barycenter_problem(g, tripod_outer_halves(g), h))
        expected = 7 / 12 - h * h / 12
        assert abs(value - expected) <= 1e-12 * expected
        assert mu.points == (V("o"),) and mu.weights == (1.0,)


class TestClampQuantile:
    def test_case_split(self):
        q = QuantileFn(((0.0, 1.0, -0.5, 1.5),))  # 2t - 0.5
        c = clamp_quantile(q, 0.0, 1.0)
        assert c(0.1) == 0.0
        assert c(0.5) == pytest.approx(0.5, abs=1e-15)
        assert c(0.9) == 1.0
        assert c.segments[0] == (0.0, 0.25, 0.0, 0.0)
        assert c.segments[-1] == (0.75, 1.0, 1.0, 1.0)

    def test_identity_when_inside(self):
        q = QuantileFn(((0.0, 0.5, 0.1, 0.4), (0.5, 1.0, 0.4, 0.9)))
        assert clamp_quantile(q, 0.0, 1.0).segments == q.segments

    def test_all_below_becomes_constant(self):
        q = QuantileFn(((0.0, 1.0, -3.0, -2.0),))
        c = clamp_quantile(q, 0.0, 1.0)
        assert c.segments == ((0.0, 1.0, 0.0, 0.0),)

    def test_monotone_after_clamp(self):
        q = QuantileFn(((0.0, 0.4, -1.0, 0.5), (0.4, 1.0, 0.7, 2.3)))
        c = clamp_quantile(q, 0.0, 1.0)
        prev = -math.inf
        for t0, t1, v0, v1 in c.segments:
            assert v0 >= prev - 1e-15 and v1 >= v0
            prev = v1

    @pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (2.0, 1.0), (math.nan, 1.0), (0.0, math.nan)])
    def test_bounds_not_in_order_rejected(self, lo, hi):
        q = QuantileFn(((0.0, 1.0, -0.5, 1.5),))
        with pytest.raises(ValueError, match="clamp bounds must satisfy lo < hi"):
            clamp_quantile(q, lo, hi)


class TestFixedPoint:
    def test_tripod_finds_center_dirac(self):
        g = make_tripod()
        problem = barycenter_problem(g, tripod_outer_halves(g), grid=1 / 16)
        result = solve_edge_fixed_point(problem, "b1")
        assert result.converged
        assert result.measure.points == (V("o"),)
        assert result.measure.weights == (1.0,)
        # cross-check against the LP ground truth
        mu, value = solve_lp(problem)
        gap, _ = w2_graph(g, result.measure, mu)
        assert math.sqrt(gap) <= 2 / 16

    def test_single_input_on_edge_is_fixed_point(self, tripod):
        # atoms already on grid centers so the grid projection is the identity
        nu = graph_measure(
            tripod, atoms=[(E("b1", 0.125), 0.5), (E("b1", 0.625), 0.5)]
        )
        problem = barycenter_problem(tripod, [(1.0, nu)], grid=0.25)
        result = solve_edge_fixed_point(problem, "b1")
        assert result.converged and result.iterations <= 2
        assert result.measure.points == (E("b1", 0.125), E("b1", 0.625))
        assert result.measure.weights == (0.5, 0.5)

    def test_segment_interior_clamp_inactive(self):
        g, problem = segment_two_uniform_problem(grid=0.05)
        result = solve_edge_fixed_point(problem, "seg")
        assert result.converged
        line_view = measure_on_edge_as_line(g, "seg", result.measure)
        expected = line_measure(pieces=[(1.0, 2.0, 1.0)])
        assert w2_line(line_view, expected) <= 0.05
        # interior support: the clamp never fires
        assert all(not p.is_vertex for p in result.measure.points)

    def test_vertex_init_also_reaches_center(self):
        g = make_tripod()
        problem = barycenter_problem(g, tripod_outer_halves(g), grid=1 / 16)
        result = solve_edge_fixed_point(problem, "b1", init="vertex")
        assert result.converged
        assert result.measure.points == (V("o"),)

    def test_clamped_characterization_at_fixed_point(self):
        # at a settled iterate, the profile's quantile equals the clamped
        # average quantile of the unfolded inputs, recomputed from scratch
        for problem_case in ("tripod", "segment"):
            if problem_case == "tripod":
                g = make_tripod()
                problem = barycenter_problem(g, tripod_outer_halves(g), grid=1 / 16)
                eid = "b1"
            else:
                g, problem = segment_two_uniform_problem(grid=0.1)
                eid = "seg"
            result = solve_edge_fixed_point(problem, eid)
            assert result.converged
            ctx = make_cover_context(g, eid, result.measure)
            targets = [
                (lam, discretize(g, nu, problem.grid)) for lam, nu in problem.measures
            ]
            unfolded = [(lam, phi(ctx, t)) for lam, t in targets]
            expected = clamp_quantile(
                average_quantile(unfolded), 0.0, g.edge(eid).length
            )
            got = quantile(result.line_profile)
            for t0, _, _, _ in expected.segments:
                assert got(t0) == pytest.approx(expected(t0), abs=1e-9)
            assert got(1.0) == pytest.approx(expected(1.0), abs=1e-9)

    def test_objective_close_to_lp(self):
        g, problem = segment_two_uniform_problem(grid=0.1)
        result = solve_edge_fixed_point(problem, "seg")
        mu_lp, lp_value = solve_lp(problem)
        diameter = 3.0
        assert objective(problem, result.measure) <= lp_value + 3 * 0.1 * diameter
        gap, _ = w2_graph(g, result.measure, mu_lp)
        assert math.sqrt(gap) <= 2 * 0.1

    def test_non_convergence_reported(self):
        g = make_tripod()
        problem = barycenter_problem(g, tripod_outer_halves(g), grid=1 / 16)
        result = solve_edge_fixed_point(problem, "b1", max_iter=1)
        assert not result.converged
        assert result.iterations == 1

    def test_one_distance_build_per_call(self, monkeypatch):
        # every round slices one table; a table kept across calls would let
        # the second call build none
        problem = _pieces_problem(*DENSE_REFERENCE_PROBLEMS["skewed_square"][:2], 1 / 64)
        builds = []
        real = mgbary.transport._distance_matrix
        monkeypatch.setattr(
            mgbary.transport, "_distance_matrix", lambda *args: builds.append(1) or real(*args)
        )
        for init in ("uniform", "vertex", "uniform"):
            builds.clear()
            assert solve_edge_fixed_point(problem, "k_AB", init=init).iterations >= 3
            assert len(builds) == 1

    @pytest.mark.parametrize("init", ["uniform", "vertex"])
    def test_table_above_the_cap_is_refused(self, monkeypatch, init):
        g = make_tripod()
        problem = barycenter_problem(g, tripod_outer_halves(g), grid=1 / 16)
        # 18 grid points by 24 input cells; no iterate's plan reaches 400
        monkeypatch.setenv("MGBARY_SUPPORT_CAP", "400")
        with pytest.raises(SupportCapError, match="432 unfolding table entries"):
            solve_edge_fixed_point(problem, "b1", init=init)

    def test_results_match_golden_file(self):
        # a change that must keep results identical keeps this file; one that
        # changes a result on purpose writes _golden_fixed_points() there
        assert _golden_fixed_points().encode("utf-8") == FIXED_POINT_GOLDEN.read_bytes()

    def test_reversed_results_match_golden_file(self):
        # a reversed edge's cells run against their stored offsets, so the
        # rows each round slices and its line view are ordered differently
        got = _golden_fixed_points(reverse=True).encode("utf-8")
        assert got == FIXED_POINT_GOLDEN.with_name("fixed_points_reversed.txt").read_bytes()


FIXED_POINT_GOLDEN = pathlib.Path(__file__).parent / "golden" / "fixed_points.txt"
FIXED_POINT_CASES = [
    ("tripod", make_tripod, [(1 / 3, (f"b{i}", 0.5, 1.0, 2.0)) for i in (1, 2, 3)], 1 / 128, ["b1"]),
    ("triangle", *DENSE_REFERENCE_PROBLEMS["triangle"][:2], 1 / 64, ["e_AB", "e_AC"]),
    ("skewed_square", *DENSE_REFERENCE_PROBLEMS["skewed_square"][:2], 1 / 64, ["k_AB", "k_DA"]),
    ("square_with_chord", make_square_with_chord, CHORD_INPUTS, 1 / 64, ["q41", "q13"]),
]


def _golden_fixed_points(reverse: bool = False) -> str:
    """The ``repr`` of each fixed point of ``FIXED_POINT_CASES``, one a line."""
    lines = []
    for name, make, inputs, grid, edges in FIXED_POINT_CASES:
        problem = _pieces_problem(make, inputs, grid)
        for eid in edges:
            for init in ("uniform", "vertex"):
                result = solve_edge_fixed_point(problem, OrientedEdge(eid, reverse), init=init)
                lines.append(f"{name} {eid} {init}: {result!r}\n")
    return "".join(lines)


def _deposit_reference(atoms, length, n):
    """Grid masses by the rule one atom at a time: within SNAP_TOL of an end
    to that end, otherwise to the center of the cell holding it."""
    width = length / n
    masses = [0.0] * (n + 2)
    for s, mass in atoms:
        if s <= SNAP_TOL:
            masses[0] += mass
        elif s >= length - SNAP_TOL:
            masses[1] += mass
        else:
            masses[2 + min(int(s / width), n - 1)] += mass
    return masses


def _uniform_reference(length, n):
    """Cell masses of the density 1 / length on [0, length), cut at the cell
    boundaries, a piece ending on a boundary kept out of the next cell."""
    width, density = length / n, 1.0 / length
    masses = [0.0] * n
    for k in range(min(n - 1, int((length - 1e-15) / width)) + 1):
        lo, hi = max(0.0, k * width), min(length, (k + 1) * width)
        if hi > lo:
            masses[k] += density * (hi - lo)
    return masses


GRID_LENGTHS = [0.7, 1.0, 1.3]
GRID_SPACINGS = [1 / 3, 1 / 64, 1 / 100]


class TestEdgeGridMasses:
    @pytest.mark.parametrize("length", GRID_LENGTHS)
    @pytest.mark.parametrize("h", GRID_SPACINGS)
    def test_atoms_on_ends_and_cell_boundaries(self, length, h):
        centers, width = _edge_cells(0.0, length, h)
        n = len(centers)
        xs = [0.0, SNAP_TOL, 2 * SNAP_TOL, *(k * width for k in range(n + 1)), length - SNAP_TOL, length]
        m = line_measure(atoms=[(x, 1.0 / len(xs)) for x in xs])
        got = _edge_grid_masses(*np.array(m.atoms).T, length, n, width).tolist()
        assert got == _deposit_reference(m.atoms, length, n)

    @pytest.mark.parametrize("length", GRID_LENGTHS)
    @pytest.mark.parametrize("h", GRID_SPACINGS)
    def test_random_atomic_measures(self, length, h):
        rng = random.Random(f"{length}:{h}")
        centers, width = _edge_cells(0.0, length, h)
        n = len(centers)
        for _ in range(20):
            xs = [rng.uniform(0.0, length) for _ in range(rng.randint(1, 3 * n))]
            xs += [rng.randint(0, n) * width for _ in range(rng.randint(0, 3))]
            raw = [rng.random() for _ in xs]
            m = line_measure(atoms=[(x, r / sum(raw)) for x, r in zip(xs, raw)])
            got = _edge_grid_masses(*np.array(m.atoms).T, length, n, width).tolist()
            assert got == _deposit_reference(m.atoms, length, n)

    @pytest.mark.parametrize("length", GRID_LENGTHS)
    @pytest.mark.parametrize("h", GRID_SPACINGS)
    def test_uniform_start(self, monkeypatch, length, h):
        # the first round unfolds around the start, its support in canonical order
        starts = []
        real = mgbary.barycenter._unfold
        monkeypatch.setattr(
            mgbary.barycenter, "_unfold", lambda table, p, q: starts.append(p) or real(table, p, q)
        )
        g = make_segment(length)
        problem = barycenter_problem(g, [(1.0, graph_measure(g, atoms=[(V("L"), 1.0)]))], grid=h)
        solve_edge_fixed_point(problem, "seg", max_iter=1)
        assert starts[0].tolist() == _uniform_reference(length, len(_edge_cells(0.0, length, h)[0]))


def _parent_cells(length, h):
    """Cell count and width as ``_edge_cells`` gave them before it returned
    the centers."""
    n = max(1, math.ceil(length / h - REL_TOL))
    return n, length / n


class TestEdgeCells:
    """``_edge_cells`` builds the centers that ``discretize`` and the fixed
    point's grid each built in a loop, and ``candidate_support`` builds the
    same centers for every edge at once; every center keeps its bits."""

    def test_centers_of_a_piece(self):
        rng = random.Random("edge cells")
        for _ in range(200):
            a = rng.choice([0.0, rng.uniform(0.0, 2.0)])
            b, h = a + rng.uniform(1e-3, 3.0), rng.choice([1 / 3, 1 / 64, 1 / 100, rng.uniform(1e-3, 1.0)])
            n, width = _parent_cells(b - a, h)
            centers, got_width = _edge_cells(a, b, h)
            assert repr(centers.tolist()) == repr([a + (k + 0.5) * width for k in range(n)])
            assert repr(got_width) == repr(width)

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
    def test_edge_grid_and_candidates(self, reverse):
        rng = random.Random(f"edge grid:{reverse}")
        for _ in range(20):
            length, h = rng.uniform(0.1, 3.0), rng.choice([1 / 3, 1 / 64, rng.uniform(1e-2, 1.0)])
            g = make_segment(length)
            oe = OrientedEdge("seg", reverse)
            n, width = _parent_cells(length, h)
            ends = [V("R"), V("L")] if reverse else [V("L"), V("R")]
            want = ends + [E("seg", g.flip_offset(oe, (k + 0.5) * width)) for k in range(n)]
            assert repr(mgbary.barycenter._edge_grid(g, oe, h)) == repr((want, width))
            problem = barycenter_problem(g, [(1.0, graph_measure(g, atoms=[(V("L"), 1.0)]))], grid=h)
            want = [V("L"), V("R")] + [E("seg", (k + 0.5) * width) for k in range(n)]
            assert repr(candidate_support(problem)) == repr(want)

    def test_candidates_of_every_edge_in_one_pass(self, monkeypatch):
        """``candidate_support`` builds every edge's cells together, in the
        bits of ``_edge_cells`` edge by edge, and checks the cap once: it
        refuses exactly when one edge's cells would."""
        rng = random.Random("candidate grid")
        checks, real = [], mgbary.barycenter._check_size
        monkeypatch.setattr(mgbary.barycenter, "_check_size", lambda *args: checks.append(args) or real(*args))

        def refuses(build) -> bool:
            try:
                build()
            except SupportCapError:
                return True
            return False

        for _ in range(20):
            g, h = random_graph(rng), rng.choice([1 / 3, 1 / 64, rng.uniform(1e-2, 1.0)])
            problem = barycenter_problem(g, [(1.0, graph_measure(g, atoms=[(V(g.vertices[0]), 1.0)]))], h)
            want = [V(v) for v in g.vertices]
            for e in g.edges:
                want += [E(e.id, c) for c in _edge_cells(0.0, e.length, h)[0].tolist()]
            checks.clear()
            assert repr(candidate_support(problem)) == repr(want) and len(checks) == 1
            most = max(e.length / h - REL_TOL for e in g.edges)
            for cap in (math.ceil(most) - 1, math.ceil(most)):
                monkeypatch.setenv("MGBARY_SUPPORT_CAP", str(cap))
                loop = any(refuses(lambda: _edge_cells(0.0, e.length, h)) for e in g.edges)
                assert refuses(lambda: candidate_support(problem)) == loop == (cap < most)
            monkeypatch.delenv("MGBARY_SUPPORT_CAP")


class TestRegularityReport:
    def test_tripod_center_dirac_passes_with_vertex_atom(self):
        g = make_tripod()
        problem = barycenter_problem(g, tripod_outer_halves(g), grid=1 / 16)
        mu, _ = solve_lp(problem)
        report = regularity_report(problem, mu)
        assert report.verdict == "PASS"
        assert report.hypothesis_met
        assert ("o", pytest.approx(1.0, abs=1e-9)) in report.vertex_atoms

    def test_segment_problem_passes_without_atoms(self):
        g, problem = segment_two_uniform_problem(grid=0.05)
        mu, _ = solve_lp(problem)
        report = regularity_report(problem, mu)
        assert report.verdict == "PASS"
        assert report.interior_atoms == ()
        assert report.vertex_atoms == ()

    def test_all_dirac_inputs_note_hypothesis_failure(self):
        g = make_segment(1.0)
        measures = [
            (0.5, graph_measure(g, atoms=[(E("seg", 0.25), 1.0)])),
            (0.5, graph_measure(g, atoms=[(E("seg", 0.75), 1.0)])),
        ]
        problem = barycenter_problem(g, measures, grid=0.25)
        mu, _ = solve_lp(problem)
        report = regularity_report(problem, mu)
        assert not report.hypothesis_met
        assert report.atom_tol == 0.0
        # the midpoint interior atom is legitimate here
        assert report.verdict == "HYPOTHESIS_NOT_MET"
        assert report.interior_atoms

    def test_explicit_tolerance_override(self):
        g = make_segment(1.0)
        measures = [
            (0.5, graph_measure(g, atoms=[(E("seg", 0.25), 1.0)])),
            (0.5, graph_measure(g, atoms=[(E("seg", 0.75), 1.0)])),
        ]
        problem = barycenter_problem(g, measures, grid=0.25)
        mu, _ = solve_lp(problem)
        report = regularity_report(problem, mu, atom_tol=2.0)
        assert report.verdict == "PASS"


class TestRestrictionProperty:
    def test_split_barycenter_solves_split_problem(self):
        rng = random.Random(73)
        for maker, legs in ((make_tripod, ("b1", "b2", "b3")), (make_triangle, ("e_AB", "e_BC", "e_AC"))):
            g = maker()
            h = 0.25
            measures = []
            raw = [rng.uniform(0.5, 1.0) for _ in range(3)]
            for eid, w in zip(legs, raw):
                a = rng.uniform(0.0, 0.4)
                b = a + rng.uniform(0.25, 0.5)
                measures.append((w / sum(raw), graph_measure(g, pieces=[(eid, a, b, 1.0 / (b - a))])))
            problem = barycenter_problem(g, measures, h)
            mu, _ = solve_lp(problem)
            if len(mu.points) < 2:
                part1 = {mu.points[0]: 0.5 * mu.weights[0]}
            else:
                part1 = {mu.points[0]: mu.weights[0]}
                if abs(sum(part1.values()) - 1.0) < 0.05:
                    part1 = {mu.points[0]: 0.5 * mu.weights[0]}
            targets = [(lam, discretize(g, nu, h)) for lam, nu in problem.measures]
            for idx in (0, 1):
                split_measures = []
                for lam, target in targets:
                    res = restrict(g, mu, part1, target)
                    image = res.nu1 if idx == 0 else res.nu2
                    split_measures.append((lam, discrete_to_graph_measure(image)))
                split_problem = barycenter_problem(g, split_measures, h)
                lam = sum(part1.values())
                res0 = restrict(g, mu, part1, targets[0][1])
                mu_i = res0.mu1 if idx == 0 else res0.mu2
                _, lp_value = solve_lp(split_problem)
                assert objective(split_problem, mu_i) <= lp_value + 1e-6


def _names(tree) -> set[str]:
    """Every name, attribute and imported name of a module's syntax tree."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return names | {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}


class TestJointLpEntry:
    """``transport._joint_lp`` owns the joint LP; ``solve_lp`` only states it."""

    PRIVATE = ("_highs_model", "_add_candidates", "_certified", "_highs_answer", "_weight_reduced_costs")

    def test_only_transport_knows_the_lp(self):
        src = pathlib.Path(mgbary.barycenter.__file__).parent
        tree = ast.parse((src / "barycenter.py").read_text())
        strings = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)}
        banned = {*self.PRIVATE, "_certificate_tol", "_cost_matrix"}
        assert _names(tree) & banned == set() and "solver" not in strings
        imported = {
            a.name
            for n in tree.body
            if isinstance(n, ast.ImportFrom) and n.module == "transport"
            for a in n.names
            if a.name.startswith("_")
        }
        assert imported == {"_branch_table", "_check_size", "_edge_cells", "_joint_lp"}
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text())
            # HiGHS answers are plain arrays: no module builds or reads a linprog-shaped record
            assert _names(tree) & {"SimpleNamespace", "eqlin"} == set(), path.name
            if path.name != "transport.py":
                calls = {
                    getattr(n.func, "id", getattr(n.func, "attr", None))
                    for n in ast.walk(tree)
                    if isinstance(n, ast.Call)
                }
                assert calls & set(self.PRIVATE) == set(), path.name

    def test_one_candidate_gives_its_dirac(self):
        g = make_tripod()
        problem = barycenter_problem(g, tripod_outer_halves(g), grid=1 / 16)
        mu, value = solve_lp(problem)
        rows, w, got, (size, rounds, _, _) = _joint_lp(g, [V("o")], _targets(problem))
        assert mu.points == (V("o"),)
        assert rows.tolist() == [0] and w.tolist() == [1.0] and (size, rounds) == (1, 1)
        assert got == pytest.approx(value, rel=1e-12)

    def test_candidates_without_the_optimum_cost_more(self):
        g = make_tripod()
        problem = barycenter_problem(g, tripod_outer_halves(g), grid=1 / 16)
        _, value = solve_lp(problem)
        points = [p for p in candidate_support(problem) if p != V("o")]
        rows, w, got, _ = _joint_lp(g, points, _targets(problem))
        assert got > value and abs(w.sum() - 1.0) <= 1e-12
        assert rows.tolist() == sorted(set(rows.tolist())) and rows.max() < len(points)


def _bad_problems(g):
    """Inputs a barycenter problem refuses, each with a piece of its message."""
    nu = graph_measure(g, pieces=[("b1", 0.5, 1.0, 2.0)])
    triangle = make_triangle()
    long_leg = build_graph(
        {"vertices": ["o", "t1"], "edges": [{"id": "b1", "u": "o", "v": "t1", "length": 1.5}]}
    )
    return {
        "nan-weight": ([(math.nan, nu)], 0.25, "nonpositive weight nan"),
        "half-weight": ([(0.25, nu), (0.25, nu)], 0.25, "weight sum 0.5 is not 1"),
        "nan-grid": ([(1.0, nu)], math.nan, "grid spacing must be positive"),
        "zero-grid": ([(1.0, nu)], 0.0, "grid spacing must be positive"),
        "no-measures": ([], 0.25, "no measures"),
        "discrete-input": ([(1.0, discretize(g, nu, 0.25))], 0.25, "DiscreteMeasure, not a GraphMeasure"),
        # measures of the triangle, whose ids the tripod does not have
        "foreign-piece": ([(1.0, graph_measure(triangle, pieces=[("e_AB", 0.0, 0.5, 2.0)]))], 0.25,
                          "not on the problem's graph: unknown edge id 'e_AB'"),
        "foreign-vertex": ([(1.0, graph_measure(triangle, atoms=[(V("A"), 1.0)]))], 0.25,
                           "not on the problem's graph: unknown vertex id 'A'"),
        "foreign-edge-point": ([(0.5, nu), (0.5, graph_measure(triangle, atoms=[(E("e_BC", 0.5), 1.0)]))],
                               0.25, "not on the problem's graph: unknown edge id 'e_BC'"),
        # a tripod piece past the end of a shorter leg of the same id
        "long-piece": ([(1.0, graph_measure(long_leg, pieces=[("b1", 1.0, 1.5, 2.0)]))], 0.25,
                       "not on the problem's graph: piece end 1.5 past edge 'b1'"),
        # raw pieces, built without graph_measure's checks
        "early-piece": ([(1.0, GraphMeasure(pieces=(("b1", -0.5, 0.5, 1.0),)))], 0.25,
                        "not on the problem's graph: piece start -0.5 before edge 'b1'"),
        "overlapping-pieces": ([(1.0, GraphMeasure(pieces=(("b1", 0.0, 0.6, 1.0), ("b1", 0.4, 0.8, 1.0))))],
                               0.25, "overlapping pieces on edge 'b1'"),
        "nan-bound": ([(1.0, GraphMeasure(pieces=(("b1", math.nan, 0.5, 1.0),)))], 0.25,
                      re.escape("non-finite piece [nan, 0.5) density 1.0 of edge 'b1'")),
        "reversed-piece": ([(1.0, GraphMeasure(pieces=(("b1", 0.5, 0.25, 1.0),)))], 0.25,
                           re.escape("piece with b < a: [0.5, 0.25) of edge 'b1'")),
        "negative-density": ([(1.0, GraphMeasure(pieces=(("b1", 0.0, 0.5, -2.0),)))], 0.25,
                             re.escape("negative density -2.0 on [0.0, 0.5) of edge 'b1'")),
        "infinite-density": ([(1.0, GraphMeasure(pieces=(("b1", 0.0, 0.5, math.inf),)))], 0.25,
                             re.escape("non-finite piece [0.0, 0.5) density inf of edge 'b1'")),
    }


class TestInputValidation:
    @pytest.mark.parametrize("case", list(_bad_problems(make_tripod())))
    @pytest.mark.parametrize("direct", [False, True], ids=["barycenter_problem", "BarycenterProblem"])
    def test_problem_is_valid_by_construction(self, tripod, case, direct):
        # a problem built directly is refused too, before any solver sees it
        measures, grid, message = _bad_problems(tripod)[case]
        with pytest.raises(MeasureValidationError, match=message) as exc:
            if direct:
                BarycenterProblem(graph=tripod, measures=measures, grid=grid)
            else:
                barycenter_problem(tripod, measures, grid)
        assert exc.value.code == "invalid-measure"

    def test_problem_keeps_a_tuple_and_a_float(self, tripod):
        nu = graph_measure(tripod, pieces=[("b1", 0.5, 1.0, 2.0)])
        problem = BarycenterProblem(graph=tripod, measures=[(1.0, nu)], grid=1)
        assert problem.measures == ((1.0, nu),) and type(problem.grid) is float
        assert problem == barycenter_problem(tripod, [(1.0, nu)], 1)

    def test_fixed_point_rejects_an_unknown_start(self):
        g = make_tripod()
        problem = barycenter_problem(g, tripod_outer_halves(g), grid=1 / 16)
        with pytest.raises(ValueError, match="unknown init 'lp'; use 'uniform' or 'vertex'"):
            solve_edge_fixed_point(problem, "b1", init="lp")

    def test_weights_must_sum_to_one(self, tripod):
        nu = graph_measure(tripod, atoms=[(V("o"), 1.0)])
        with pytest.raises(MeasureValidationError, match="sum"):
            barycenter_problem(tripod, [(0.5, nu), (0.4, nu)], grid=0.1)

    def test_grid_must_be_positive(self, tripod):
        nu = graph_measure(tripod, atoms=[(V("o"), 1.0)])
        with pytest.raises(MeasureValidationError, match="positive"):
            barycenter_problem(tripod, [(1.0, nu)], grid=0.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -1e-3])
    def test_fixed_point_rejects_bad_eps(self, eps):
        g = make_tripod()
        problem = barycenter_problem(g, tripod_outer_halves(g), grid=1 / 16)
        with pytest.raises(ParseError, match="eps must be finite and not negative"):
            solve_edge_fixed_point(problem, "b1", eps=eps)

    @pytest.mark.parametrize("max_iter", [0, -1, 2.5, 1.0, "10", None])
    def test_fixed_point_rejects_bad_max_iter(self, monkeypatch, max_iter):
        # -1 used to return the uniform start unconverged, 2.5 a bare TypeError
        g = make_tripod()
        problem = barycenter_problem(g, tripod_outer_halves(g), grid=1 / 16)
        monkeypatch.setattr(mgbary.barycenter, "discretize", None)  # checked before it runs
        with pytest.raises(ParseError, match="max_iter must be an integer of at least 1"):
            solve_edge_fixed_point(problem, "b1", max_iter=max_iter)

    @pytest.mark.parametrize("atom_tol", [math.nan, math.inf, -1e-3])
    def test_report_rejects_bad_atom_tol(self, atom_tol):
        # a NaN threshold flags nothing, which read as PASS for any measure
        g = make_tripod()
        nu = graph_measure(g, pieces=[("b1", 0.0, 1.0, 1.0)])
        problem = barycenter_problem(g, [(1.0, nu)], grid=0.25)
        mu = discretize(g, nu, 0.25)
        assert regularity_report(problem, mu, atom_tol=0.0).verdict == "FAIL"
        with pytest.raises(ParseError, match="atom_tol must be finite and not negative"):
            regularity_report(problem, mu, atom_tol=atom_tol)
