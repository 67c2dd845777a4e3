import itertools
import math
import random
import re

import numpy as np
import pytest

import mgbary.transport
from mgbary import (
    BranchTag,
    GraphPoint,
    MeasureValidationError,
    OrientedEdge,
    ParseError,
    classify_pair,
    decompose_plan,
    discrete_measure,
    discretize,
    distance,
    graph_measure,
    graph_measure_from_json,
    graph_measure_to_json,
    SupportCapError,
    restrict,
    w2_graph,
)
from mgbary.transport import GraphMeasure, _add_candidates, _cost_matrix, _edge_cells, _highs_model
from conftest import _coo_coupling_lp, make_segment, random_graph, random_point

V = GraphPoint.at_vertex
E = GraphPoint.on_edge


def plan_residual(plan, m1, m2):
    src = plan.source_marginal()
    tgt = plan.target_marginal()
    r1 = max(abs(src.get(p, 0.0) - w) for p, w in zip(m1.points, m1.weights))
    r2 = max(abs(tgt.get(p, 0.0) - w) for p, w in zip(m2.points, m2.weights))
    return max(r1, r2)


def brute_force_uniform_cost(g, points1, points2):
    """Exhaustive minimum over all permutation couplings of uniform marginals."""
    n = len(points1)
    best = math.inf
    for perm in itertools.permutations(range(n)):
        c = sum(distance(g, points1[i], points2[perm[i]]) ** 2 for i in range(n)) / n
        best = min(best, c)
    return best


class TestCostMatrix:
    def test_entries_are_squared_distance_bits(self):
        # exact equality: the LPs must see the same floats as distance(...) ** 2
        rng = random.Random(2024)
        for _ in range(60):
            g = random_graph(rng)
            xs = [random_point(g, rng) for _ in range(12)]
            ys = [random_point(g, rng) for _ in range(9)]
            for a, b in ((xs, ys), (ys, xs)):
                cost = _cost_matrix(g, a, b)
                assert cost.shape == (len(a), len(b))
                for i, x in enumerate(a):
                    for j, y in enumerate(b):
                        assert cost[i, j] == distance(g, x, y) ** 2


class TestGraphMeasureValidation:
    @pytest.mark.parametrize("mass", [math.nan, math.inf])
    def test_non_finite_atom_mass_rejected(self, tripod, mass):
        with pytest.raises(MeasureValidationError, match="non-finite atom mass"):
            graph_measure(tripod, atoms=[(V("o"), 1.0), (V("t1"), mass)])

    @pytest.mark.parametrize(
        "piece",
        [("b1", math.nan, 1.0, 1.0), ("b1", 0.0, math.nan, 1.0), ("b1", 0.0, 1.0, math.nan)],
    )
    def test_non_finite_piece_rejected(self, tripod, piece):
        with pytest.raises(MeasureValidationError, match="non-finite piece"):
            graph_measure(tripod, pieces=[piece])

    def test_reversed_piece_rejected(self, triangle):
        pieces = [("e_AB", 0.0, 0.5, 2.0), ("e_BC", 0.9, 0.1, 5.0)]
        with pytest.raises(MeasureValidationError, match=r"piece with b < a: \[0.9, 0.1\) of edge 'e_BC'"):
            graph_measure(triangle, pieces=pieces)

    def test_overlapping_pieces_on_one_edge_rejected(self, tripod):
        pieces = [("b1", 0.0, 0.6, 1.0), ("b1", 0.5, 1.0, 0.8)]
        with pytest.raises(MeasureValidationError, match="overlapping pieces on edge 'b1'") as exc:
            graph_measure(tripod, pieces=pieces)
        assert exc.value.code == "invalid-measure"

    def test_adjacent_pieces_on_one_edge_accepted(self, tripod):
        m = graph_measure(tripod, pieces=[("b1", 0.5, 1.0, 0.8), ("b1", 0.0, 0.5, 1.2)])
        assert m.pieces == (("b1", 0.0, 0.5, 1.2), ("b1", 0.5, 1.0, 0.8))

    def test_unknown_edge_in_json_is_a_measure_error(self, tripod):
        with pytest.raises(MeasureValidationError, match="unknown edge id 'zz'"):
            graph_measure_from_json(
                tripod, {"pieces": [{"edge": "zz", "a": 0.0, "b": 1.0, "density": 1.0}]}
            )
        with pytest.raises(MeasureValidationError, match="unknown edge id 'zz'"):
            graph_measure_from_json(tripod, {"atoms": [{"point": "zz:0.5", "mass": 1.0}]})


class TestDiscretize:
    def test_atom_kept_verbatim(self, tripod):
        m = graph_measure(tripod, atoms=[(V("o"), 1.0)])
        d = discretize(tripod, m, 0.1)
        assert d.points == (V("o"),) and d.weights == (1.0,)

    def test_density_cells_at_centers(self, tripod):
        m = graph_measure(tripod, pieces=[("b1", 0.5, 1.0, 2.0)])
        d = discretize(tripod, m, 0.25)
        assert d.points == (E("b1", 0.625), E("b1", 0.875))
        assert d.weights == (0.5, 0.5)

    def test_mixed_mass_conserved(self, tripod):
        m = graph_measure(
            tripod,
            atoms=[(V("t2"), 0.25)],
            pieces=[("b1", 0.0, 1.0, 0.5), ("b3", 0.25, 0.75, 0.5)],
        )
        d = discretize(tripod, m, 0.07)
        assert sum(d.weights) == pytest.approx(1.0, abs=1e-12)
        assert (V("t2"), ) == tuple(p for p in d.points if p.is_vertex)

    def test_spacing_bound(self, tripod):
        m = graph_measure(tripod, pieces=[("b1", 0.0, 1.0, 1.0)])
        d = discretize(tripod, m, 0.3)
        offsets = sorted(p.offset for p in d.points)
        widths = [b - a for a, b in zip(offsets, offsets[1:])]
        assert all(w <= 0.3 + 1e-12 for w in widths)

    def test_grids_and_lps_above_the_cap_are_refused(self, tripod, monkeypatch):
        m = graph_measure(tripod, pieces=[("b1", 0.0, 1.0, 1.0)])
        monkeypatch.setenv("MGBARY_SUPPORT_CAP", "100")
        d = discretize(tripod, m, 0.05)  # 20 cells
        with pytest.raises(SupportCapError, match="400 LP variables"):
            w2_graph(tripod, d, d)
        with pytest.raises(SupportCapError, match="1000 cells on one edge"):
            discretize(tripod, m, 1e-3)
        monkeypatch.delenv("MGBARY_SUPPORT_CAP")
        with pytest.raises(SupportCapError, match="cells on one edge"):
            discretize(tripod, m, 1e-300)  # used to loop over 1e300 cells

    @pytest.mark.parametrize("raw", ["-5", "abc", "1e6", "2.5", ""])
    def test_cap_that_is_not_an_integer_of_at_least_0_is_refused(self, tripod, monkeypatch, raw):
        # -5 used to refuse every grid, "above the cap -5"
        m = graph_measure(tripod, pieces=[("b1", 0.0, 1.0, 1.0)])
        monkeypatch.setenv("MGBARY_SUPPORT_CAP", raw)
        with pytest.raises(ParseError, match=f"MGBARY_SUPPORT_CAP must be an integer of at least 0, got {raw!r}") as exc:
            discretize(tripod, m, 0.25)
        assert exc.value.code == "parse-error"

    def test_cap_of_0_refuses_every_grid(self, tripod, monkeypatch):
        m = graph_measure(tripod, pieces=[("b1", 0.0, 1.0, 1.0)])
        monkeypatch.setenv("MGBARY_SUPPORT_CAP", "0")
        with pytest.raises(SupportCapError, match="above the cap 0"):
            discretize(tripod, m, 0.25)


def _cell_pairs(m, h):
    """The measure's atoms, then each piece's cell centers with their masses,
    as points :func:`discrete_measure` canonicalizes one at a time."""
    pairs = list(m.atoms)
    for eid, a, b, d in m.pieces:
        centers, width = _edge_cells(a, b, h)
        pairs += [(E(eid, c), d * width) for c in centers.tolist()]
    return pairs


class TestDiscretizeMatchesDiscreteMeasure:
    """``discretize`` builds its cells in bulk, in the bits of
    ``discrete_measure`` over the atoms and cell centers."""

    @staticmethod
    def check(g, m, h):
        got = discretize(g, m, h)
        assert repr(got) == repr(discrete_measure(g, _cell_pairs(m, h)))
        return got

    def test_center_within_snap_tol_of_an_end_is_that_vertex(self, triangle):
        m = graph_measure(triangle, pieces=[("e_AB", 0.0, 1e-12, 1e12)])
        assert self.check(triangle, m, 0.1).points == (V("A"),)
        m = graph_measure(triangle, pieces=[("e_BC", 1.0 - 2**-40, 1.0, 2.0**40)])
        assert self.check(triangle, m, 0.1).points == (V("C"),)

    def test_center_within_snap_tol_of_both_ends_is_the_first(self):
        g = make_segment(length=1.5e-12)
        m = graph_measure(g, pieces=[("seg", 0.0, 1.5e-12, 1 / 1.5e-12)])
        assert self.check(g, m, 1.0).points == (V("L"),)

    def test_atom_at_a_cell_center_is_added_first(self, tripod):
        # 0.1 + (0.2 + 0.7) and (0.1 + 0.2) + 0.7 differ in the last bit
        pieces = (("b1", 0.5, 0.75, 0.8), ("b1", 0.5, 0.75, 2.8))
        m = GraphMeasure(atoms=((E("b1", 0.625), 0.1),), pieces=pieces)
        got = self.check(tripod, m, 0.25)
        assert got.points == (E("b1", 0.625),) and got.weights == ((0.1 + 0.2) + 0.7,)

    def test_two_pieces_meeting_at_one_offset(self, tripod):
        m = graph_measure(tripod, pieces=[("b1", 0.0, 0.3, 1.0), ("b1", 0.3, 1.0, 1.0)])
        self.check(tripod, m, 0.1)
        self.check(tripod, m, 0.3)

    def test_pieces_overlapping_by_less_than_mass_tol(self, tripod):
        m = graph_measure(tripod, pieces=[("b2", 0.0, 0.5 + 5e-13, 1.0), ("b2", 0.5, 1.0, 1.0)])
        self.check(tripod, m, 0.125)

    def test_vertex_atoms_and_pieces_on_several_edges(self, square_with_chord):
        g = square_with_chord
        m = graph_measure(
            g,
            atoms=[(V("3"), 0.2), (V("1"), 0.1), (E("q13", 0.6), 0.05)],
            pieces=[
                ("q13", 0.0, 1.2, 0.25),
                ("q12", 1.0 - 2**-40, 1.0, 0.1 * 2**40),  # snaps onto vertex 2
                ("q23", 0.0, 2**-40, 0.1 * 2**40),  # and so does this one
                ("q41", 0.25, 0.75, 0.3),
            ],
        )
        got = self.check(g, m, 0.1)
        assert [p for p in got.points if p.is_vertex] == [V("1"), V("2"), V("3")]

    def test_weight_sum_off_by_more_than_mass_tol_is_renormalized(self, tripod):
        m = graph_measure(tripod, pieces=[("b3", 0.0, 1.0, 1.0 + 1e-10)])
        got = self.check(tripod, m, 0.05)
        assert abs(sum(got.weights) - 1.0) <= 1e-15

    @pytest.mark.parametrize(
        "pieces",
        [
            (("b1", 0.5, 1.5, 1.0),),  # centers past the edge's end
            (("b1", -0.5, 0.5, 1.0),),  # and before its start
            (("b1", 0.0, 0.5, 2.0), ("b2", 0.0, 1.5, 0.0)),  # with no mass
            (("zz", 0.0, 1.0, 1.0),),
            (("b1", 0.0, 1.0, -1.0),),
            (("b1", 0.0, 1.0, math.nan),),
        ],
    )
    def test_a_raw_measure_is_refused_as_discrete_measure_refuses_it(self, tripod, pieces):
        m = GraphMeasure(atoms=((V("o"), 0.0),), pieces=pieces)
        with pytest.raises((ValueError, MeasureValidationError)) as want:
            discrete_measure(tripod, _cell_pairs(m, 0.25))
        with pytest.raises(want.type, match=re.escape(str(want.value))):
            discretize(tripod, m, 0.25)

    def test_random_measures(self):
        rng = random.Random(25)
        for _ in range(40):
            g = random_graph(rng)
            atoms = [(random_point(g, rng), rng.uniform(0.0, 1.0)) for _ in range(rng.randint(0, 3))]
            pieces = []
            for e in rng.sample(g.edges, rng.randint(1, 3)):
                a = rng.choice([0.0, rng.uniform(0.0, e.length / 2)])
                pieces.append((e.id, a, rng.choice([e.length, rng.uniform(a, e.length)]), rng.uniform(0.1, 2.0)))
            total = sum(w for _, w in atoms) + sum(d * (b - a) for _, a, b, d in pieces)
            m = graph_measure(
                g, [(p, w / total) for p, w in atoms], [(e, a, b, d / total) for e, a, b, d in pieces]
            )
            h = rng.choice([0.05, 0.3, 1.0])
            self.check(g, m, h)
            # atoms at cell centers
            cells = [p for p, _ in _cell_pairs(GraphMeasure(pieces=m.pieces), h)][:2]
            self.check(g, GraphMeasure(atoms=tuple((p, 0.0) for p in cells) + m.atoms, pieces=m.pieces), h)


class TestW2Graph:
    def test_unit_edge_diracs(self):
        g = make_segment()
        cost, plan = w2_graph(
            g,
            discrete_measure(g, [(V("L"), 1.0)]),
            discrete_measure(g, [(V("R"), 1.0)]),
        )
        assert cost == 1.0
        assert plan.entries == ((V("L"), V("R"), 1.0),)

    def test_tripod_tip_to_tip(self, tripod):
        cost, _ = w2_graph(
            tripod,
            discrete_measure(tripod, [(V("t1"), 1.0)]),
            discrete_measure(tripod, [(V("t2"), 1.0)]),
        )
        assert math.sqrt(cost) == 2.0

    def test_split_to_midpoint(self):
        g = make_segment()
        m1 = discrete_measure(g, [(V("L"), 0.5), (V("R"), 0.5)])
        m2 = discrete_measure(g, [(E("seg", 0.5), 1.0)])
        cost, plan = w2_graph(g, m1, m2)
        assert cost == pytest.approx(0.25, abs=1e-12)
        assert len(plan.entries) == 2

    def test_many_atoms_below_the_zero_tolerance_are_certified(self):
        # 100 atoms of mass 5e-14 fall below LP_ZERO_TOL; dropped before the
        # duality gap is taken, their cost alone would exceed its tolerance
        g = make_segment()
        tiny = [(E("seg", 0.9 + 0.0009 * i), 5e-14) for i in range(100)]
        m1 = discrete_measure(g, [(V("L"), 1 - 100 * 5e-14)] + tiny)
        m2 = discrete_measure(g, [(V("L"), 0.5), (E("seg", 0.1), 0.5)])
        cost, plan = w2_graph(g, m1, m2)
        assert cost == pytest.approx(0.005, abs=1e-12)
        assert len(plan.entries) == 2

    def test_marginal_conservation(self, triangle):
        rng = random.Random(29)
        for _ in range(20):
            pts1 = [E("e_AB", rng.uniform(0, 1)) for _ in range(4)] + [V("C")]
            pts2 = [E("e_BC", rng.uniform(0, 1)) for _ in range(3)] + [V("A")]
            w1 = [rng.uniform(0.1, 1.0) for _ in pts1]
            w2 = [rng.uniform(0.1, 1.0) for _ in pts2]
            m1 = discrete_measure(triangle, [(p, w / sum(w1)) for p, w in zip(pts1, w1)])
            m2 = discrete_measure(triangle, [(p, w / sum(w2)) for p, w in zip(pts2, w2)])
            cost, plan = w2_graph(triangle, m1, m2)
            assert plan_residual(plan, m1, m2) <= 1e-10
            assert cost == pytest.approx(
                sum(m * distance(triangle, x, y) ** 2 for x, y, m in plan.entries),
                abs=1e-12,
            )

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_permutation_brute_force(self, n, triangle):
        rng = random.Random(31 + n)
        pts1 = []
        pts2 = []
        for _ in range(n):
            e1, e2 = rng.choice(triangle.edges), rng.choice(triangle.edges)
            pts1.append(triangle.canonical(E(e1.id, rng.uniform(0, 1))))
            pts2.append(triangle.canonical(E(e2.id, rng.uniform(0, 1))))
        m1 = discrete_measure(triangle, [(p, 1 / n) for p in pts1])
        m2 = discrete_measure(triangle, [(p, 1 / n) for p in pts2])
        cost, _ = w2_graph(triangle, m1, m2)
        assert cost == pytest.approx(
            brute_force_uniform_cost(triangle, pts1, pts2), abs=1e-9
        )

    def test_deterministic_plan(self, triangle):
        m1 = discrete_measure(
            triangle, [(E("e_AB", 0.25), 0.5), (E("e_AB", 0.75), 0.5)]
        )
        m2 = discrete_measure(
            triangle, [(E("e_BC", 0.25), 0.5), (E("e_BC", 0.75), 0.5)]
        )
        first = w2_graph(triangle, m1, m2)
        second = w2_graph(triangle, m1, m2)
        assert first == second


class TestClassify:
    def test_exit_through_near_endpoint(self, tripod):
        tag = classify_pair(
            tripod, OrientedEdge("b1"), E("b1", 0.7), E("b2", 0.6)
        )
        assert tag is BranchTag.MINUS

    def test_within_edge(self, tripod):
        tag = classify_pair(tripod, OrientedEdge("b1"), E("b1", 0.3), E("b1", 0.8))
        assert tag is BranchTag.E

    def test_exit_through_far_endpoint(self, triangle):
        tag = classify_pair(triangle, OrientedEdge("e_AB"), E("e_AB", 0.9), V("C"))
        assert tag is BranchTag.PLUS

    def test_edge_targets_always_class_e(self, triangle):
        # priority E beats both exits for mass on the closed edge
        oe = OrientedEdge("e_AB")
        for y in (V("A"), V("B"), E("e_AB", 0.001), E("e_AB", 0.999)):
            assert classify_pair(triangle, oe, E("e_AB", 0.5), y) is BranchTag.E


class TestDecompose:
    def test_all_mass_minus(self, tripod):
        m1 = discrete_measure(tripod, [(E("b1", 0.75), 1.0)])
        m2 = discrete_measure(tripod, [(E("b2", 0.6), 1.0)])
        _, plan = w2_graph(tripod, m1, m2)
        pe, pp, pm = decompose_plan(tripod, OrientedEdge("b1"), plan)
        assert (pe.mass(), pp.mass(), pm.mass()) == (0.0, 0.0, 1.0)

    def test_all_mass_within_edge(self, tripod):
        m1 = discrete_measure(tripod, [(E("b1", 0.25), 1.0)])
        m2 = discrete_measure(tripod, [(E("b1", 0.75), 0.5), (V("t1"), 0.5)])
        _, plan = w2_graph(tripod, m1, m2)
        pe, pp, pm = decompose_plan(tripod, OrientedEdge("b1"), plan)
        assert pe.mass() == pytest.approx(1.0, abs=1e-12)
        assert pp.entries == () and pm.entries == ()

    def test_mixed_split(self, tripod):
        m1 = discrete_measure(tripod, [(E("b1", 0.5), 1.0)])
        m2 = discrete_measure(
            tripod, [(E("b1", 0.9), 0.5), (E("b2", 0.4), 0.5)]
        )
        _, plan = w2_graph(tripod, m1, m2)
        pe, pp, pm = decompose_plan(tripod, OrientedEdge("b1"), plan)
        assert pe.mass() == pytest.approx(0.5, abs=1e-12)
        assert pp.mass() == 0.0
        assert pm.mass() == pytest.approx(0.5, abs=1e-12)

    def test_additivity(self, triangle):
        rng = random.Random(37)
        m1 = discrete_measure(
            triangle, [(E("e_AB", rng.uniform(0, 1)), 0.25) for _ in range(4)]
        )
        pts = [E("e_BC", 0.3), E("e_AC", 0.7), V("C"), E("e_AB", 0.6)]
        m2 = discrete_measure(triangle, [(p, 0.25) for p in pts])
        _, plan = w2_graph(triangle, m1, m2)
        parts = decompose_plan(triangle, OrientedEdge("e_AB"), plan)
        assert sum(p.mass() for p in parts) == pytest.approx(1.0, abs=1e-12)
        assert sum(p.cost for p in parts) == pytest.approx(plan.cost, abs=1e-12)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_parts_cost_from_the_branch_table(self, triangle, monkeypatch, reverse):
        """The parts' costs come from the distances the branch table read,
        with no cost matrix built, in the bits of one ``_cost_matrix`` over
        each part's points."""
        rng = random.Random(41)
        m1 = discrete_measure(triangle, [(E("e_AB", rng.uniform(0, 1)), 0.25) for _ in range(4)])
        m2 = discrete_measure(triangle, [(random_point(triangle, rng), 0.2) for _ in range(5)])
        _, plan = w2_graph(triangle, m1, m2)
        oe = OrientedEdge("e_AB", reverse)
        built = []
        real = mgbary.transport._cost_matrix
        monkeypatch.setattr(
            mgbary.transport, "_cost_matrix", lambda *args: built.append(1) or real(*args)
        )
        parts = decompose_plan(triangle, oe, plan)
        assert built == []
        monkeypatch.undo()
        assert sum(len(p.entries) for p in parts) == len(plan.entries)
        assert sum(bool(p.entries) for p in parts) == 2
        for part in parts:
            assert repr(part) == repr(mgbary.transport._make_plan(triangle, part.entries))

    def test_rejects_source_mass_off_edge(self, tripod):
        m1 = discrete_measure(tripod, [(E("b2", 0.5), 1.0)])
        m2 = discrete_measure(tripod, [(V("t1"), 1.0)])
        _, plan = w2_graph(tripod, m1, m2)
        with pytest.raises(ValueError, match="off edge"):
            decompose_plan(tripod, OrientedEdge("b1"), plan)


class TestRestrict:
    def test_two_point_split_monotone(self):
        g = make_segment(1.0)
        a, b, c, d = 0.1, 0.3, 0.6, 0.9
        m = discrete_measure(g, [(E("seg", a), 0.5), (E("seg", b), 0.5)])
        nu = discrete_measure(g, [(E("seg", c), 0.5), (E("seg", d), 0.5)])
        # oracle: enumerate both extreme couplings of the 2x2 problem
        straight = 0.5 * (c - a) ** 2 + 0.5 * (d - b) ** 2
        crossed = 0.5 * (d - a) ** 2 + 0.5 * (c - b) ** 2
        assert straight < crossed
        res = restrict(g, m, {E("seg", a): 0.5}, nu)
        assert res.nu1.points == (E("seg", c),)
        assert res.nu2.points == (E("seg", d),)

    def test_proportional_split_reproduces_nu(self, tripod):
        m = discrete_measure(tripod, [(E("b1", 0.2), 0.5), (E("b1", 0.8), 0.5)])
        nu = discrete_measure(tripod, [(E("b2", 0.3), 0.4), (V("t3"), 0.6)])
        lam = 0.3
        res = restrict(g=tripod, m=m, part1={p: lam * w for p, w in m.as_dict().items()}, nu=nu)
        assert res.nu1.points == nu.points and res.nu2.points == nu.points
        for w1, w2, w in zip(res.nu1.weights, res.nu2.weights, nu.weights):
            assert w1 == pytest.approx(w, abs=1e-12)
            assert w2 == pytest.approx(w, abs=1e-12)

    def test_identity_plan_splits_in_place(self, tripod):
        m = discrete_measure(tripod, [(E("b1", 0.2), 0.5), (E("b2", 0.6), 0.5)])
        res = restrict(tripod, m, {E("b1", 0.2): 0.5}, m)
        assert res.nu1.points == res.mu1.points
        assert res.nu2.points == res.mu2.points

    def test_convex_combination_recovers_nu(self, triangle):
        rng = random.Random(41)
        pts = [triangle.canonical(E("e_AB", rng.uniform(0, 1))) for _ in range(4)]
        m = discrete_measure(triangle, [(p, 0.25) for p in pts])
        nu_pts = [E("e_BC", 0.2), E("e_AC", 0.5), V("B")]
        nu = discrete_measure(triangle, [(p, 1 / 3) for p in nu_pts])
        part1 = {pts[0]: 0.25, pts[1]: 0.1}
        res = restrict(triangle, m, part1, nu)
        lam = res.lam
        recovered = {}
        for p, w in zip(res.nu1.points, res.nu1.weights):
            recovered[p] = recovered.get(p, 0.0) + lam * w
        for p, w in zip(res.nu2.points, res.nu2.weights):
            recovered[p] = recovered.get(p, 0.0) + (1 - lam) * w
        for p, w in zip(nu.points, nu.weights):
            assert recovered[p] == pytest.approx(w, abs=1e-12)

    def test_split_plans_are_optimal(self, tripod):
        rng = random.Random(43)
        for _ in range(10):
            pts = [tripod.canonical(E("b1", rng.uniform(0, 1))) for _ in range(3)]
            m = discrete_measure(tripod, [(p, 1 / 3) for p in set(pts)] if len(set(pts)) == 3 else [(E("b1", 0.1), 1/3), (E("b1", 0.5), 1/3), (E("b1", 0.9), 1/3)])
            nu = discrete_measure(
                tripod,
                [
                    (E("b2", rng.uniform(0, 1)), 0.5),
                    (E("b3", rng.uniform(0, 1)), 0.5),
                ],
            )
            part1 = {m.points[0]: m.weights[0] * 0.8, m.points[1]: m.weights[1] * 0.3}
            res = restrict(tripod, m, part1, nu)
            c1, _ = w2_graph(tripod, res.mu1, res.nu1)
            c2, _ = w2_graph(tripod, res.mu2, res.nu2)
            assert res.plan1.cost == pytest.approx(c1, abs=1e-9)
            assert res.plan2.cost == pytest.approx(c2, abs=1e-9)

    def test_stability_under_target_perturbation(self, tripod):
        rng = random.Random(47)
        m = discrete_measure(tripod, [(E("b1", 0.2), 0.6), (E("b1", 0.7), 0.4)])
        part1 = {E("b1", 0.2): 0.5}
        g1_sup = max(
            (part1.get(p, 0.0) / w) for p, w in m.as_dict().items()
        ) / sum(part1.values())
        for _ in range(10):
            base = [rng.uniform(0.1, 0.9) for _ in range(3)]
            nu = discrete_measure(tripod, [(E("b2", t), 1 / 3) for t in base])
            shift = rng.uniform(-0.05, 0.05)
            nu_p = discrete_measure(
                tripod,
                [(E("b2", min(max(t + shift, 0.01), 0.99)), 1 / 3) for t in base],
            )
            eps = math.sqrt(w2_graph(tripod, nu, nu_p)[0])
            d1 = math.sqrt(
                w2_graph(tripod, restrict(tripod, m, part1, nu).nu1,
                         restrict(tripod, m, part1, nu_p).nu1)[0]
            )
            assert d1 <= g1_sup * eps + 1e-9

    def test_rejects_part_outside_the_measure(self, tripod):
        m = discrete_measure(tripod, [(E("b1", 0.2), 0.5), (E("b1", 0.8), 0.5)])
        with pytest.raises(MeasureValidationError, match="outside the measure") as exc:
            restrict(tripod, m, {E("b1", 0.2): 0.25, E("b2", 0.5): 0.25}, m)
        assert exc.value.code == "invalid-measure"

    def test_rejects_excess_part(self, tripod):
        m = discrete_measure(tripod, [(E("b1", 0.2), 0.5), (E("b1", 0.8), 0.5)])
        with pytest.raises(MeasureValidationError, match="exceeds"):
            restrict(tripod, m, {E("b1", 0.2): 0.7}, m)
        with pytest.raises(MeasureValidationError, match="between 0 and 1"):
            restrict(tripod, m, {E("b1", 0.2): 0.5, E("b1", 0.8): 0.5}, m)

    def test_atomless_images_stay_inside_support(self, tripod):
        # the image measures can only live where nu lives
        m = discrete_measure(tripod, [(E("b1", 0.3), 0.5), (E("b1", 0.6), 0.5)])
        nu = discretize(
            tripod, graph_measure(tripod, pieces=[("b2", 0.0, 1.0, 1.0)]), 0.2
        )
        res = restrict(tripod, m, {E("b1", 0.3): 0.2}, nu)
        assert set(res.nu1.points) <= set(nu.points)
        assert set(res.nu2.points) <= set(nu.points)


class TestJson:
    def test_graph_measure_round_trip(self, tripod):
        m = graph_measure(
            tripod,
            atoms=[(V("o"), 0.25), (E("b2", 0.5), 0.25)],
            pieces=[("b1", 0.0, 0.5, 1.0)],
        )
        back = graph_measure_from_json(tripod, graph_measure_to_json(m))
        assert back == m


class TestJointLpLayout:
    """``_add_candidates`` writes the joint LP candidate by candidate. Under
    the permutation its docstring documents, that is the coupling-major LP of
    ``_coo_coupling_lp`` over the candidates in append order, and it is the
    model HiGHS holds."""

    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_seed_and_two_appends_permute_the_coupling_lp(self, count):
        rng = np.random.default_rng(10 + count)
        ks, batches = rng.integers(1, 8, count), [5, 1, 3]
        n, unit = sum(batches), int(sum(ks))
        costs, qs = [rng.random((n, k)) for k in ks], [rng.random(k) for k in ks]
        highs, lp = _highs_model(np.r_[np.concatenate(qs), 1.0])
        weight_cols = []
        for lo, hi in zip(np.cumsum([0, *batches[:-1]]), np.cumsum(batches)):
            lp, cols = _add_candidates(highs, lp, [cost[lo:hi] for cost in costs])
            weight_cols.append(cols)
        # coupling i's rows and columns in the coupling-major LP
        row0 = np.cumsum([0, *(n + ks[:-1])])
        col0 = n + n * np.cumsum([0, *ks[:-1]])
        rows = np.r_[
            np.concatenate([r + n + np.arange(k) for r, k in zip(row0, ks)]),
            row0[-1] + n + ks[-1],
            (row0[None, :] + np.arange(n)[:, None]).ravel(),
        ]
        cols = np.concatenate([
            np.r_[t, np.concatenate([c + t * k + np.arange(k) for c, k in zip(col0, ks)])]
            for t in range(n)
        ])
        c, a_eq, b_eq = lp
        ref_c, ref_a, ref_b = _coo_coupling_lp(costs, qs)
        assert sorted(rows) == list(range(len(ref_b))) and sorted(cols) == list(range(len(ref_c)))
        assert np.array_equal(c, ref_c[cols]) and np.array_equal(b_eq, ref_b[rows])
        assert a_eq.format == "csc"
        assert np.array_equal(a_eq.toarray(), ref_a.toarray()[np.ix_(rows, cols)])
        assert np.array_equal(np.concatenate(weight_cols), (1 + unit) * np.arange(n))
        model = highs.getLp()
        assert np.array_equal(model.col_cost_, c) and np.array_equal(model.row_lower_, b_eq)
        assert np.array_equal(model.row_upper_, b_eq)
        for got, want in zip(("start_", "index_", "value_"), (a_eq.indptr, a_eq.indices, a_eq.data)):
            assert np.array_equal(getattr(model.a_matrix_, got), want), got
