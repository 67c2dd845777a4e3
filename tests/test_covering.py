import math
import random

import numpy as np
import pytest

import mgbary.covering
import mgbary.transport
from mgbary import (
    BranchTag,
    GraphPoint,
    MeasureValidationError,
    NonMinimizingEdgeError,
    OrientedEdge,
    SupportCapError,
    build_graph,
    classify_pair,
    discrete_measure,
    discretize,
    distance,
    exceptional_set,
    graph_measure,
    h_eval,
    lift_line_plan,
    line_measure,
    make_cover_context,
    measure_on_edge_as_line,
    phi,
    preimage_count,
    w2_graph,
    w2_line,
)
from conftest import (
    make_parallel,
    make_square_with_chord,
    make_triangle,
    make_tripod,
)
from mgbary.transport import _branch_table

V = GraphPoint.at_vertex
E = GraphPoint.on_edge


def dirac_ctx(g, edge, point_pairs):
    return make_cover_context(g, edge, discrete_measure(g, point_pairs))


def random_measure_on_edge(g, eid, rng, n=4):
    e = g.edge(eid)
    pts = [E(eid, rng.uniform(0.0, e.length)) for _ in range(n)]
    return discrete_measure(g, [(p, 1.0 / n) for p in pts])


def random_measure_anywhere(g, rng, n=5):
    pairs = []
    raw = [rng.uniform(0.1, 1.0) for _ in range(n)]
    total = sum(raw)
    for w in raw:
        e = g.edges[rng.randrange(len(g.edges))]
        pairs.append((E(e.id, rng.uniform(0.0, e.length)), w / total))
    return discrete_measure(g, pairs)


class TestHEval:
    def test_minus_negates_branch_offset(self, tripod):
        ctx = dirac_ctx(tripod, "b1", [(E("b1", 0.75), 1.0)])
        assert h_eval(ctx, BranchTag.MINUS, E("b2", 0.6)) == -0.6

    def test_plus_adds_edge_length(self, triangle):
        ctx = dirac_ctx(triangle, "e_AB", [(E("e_AB", 0.5), 1.0)])
        assert h_eval(ctx, BranchTag.PLUS, V("C")) == 2.0

    def test_edge_map_vanishes_at_first_endpoint(self, triangle):
        ctx = dirac_ctx(triangle, "e_AB", [(E("e_AB", 0.5), 1.0)])
        assert h_eval(ctx, BranchTag.E, V("A")) == 0.0

    def test_maps_are_1_lipschitz(self, square_with_chord):
        g = square_with_chord
        ctx = dirac_ctx(g, "q12", [(E("q12", 0.5), 1.0)])
        rng = random.Random(53)
        for tag in BranchTag:
            for _ in range(100):
                e1, e2 = rng.choice(g.edges), rng.choice(g.edges)
                y1 = E(e1.id, rng.uniform(0, e1.length))
                y2 = E(e2.id, rng.uniform(0, e2.length))
                gap = abs(h_eval(ctx, tag, y1) - h_eval(ctx, tag, y2))
                assert gap <= distance(g, y1, y2) + 1e-12


class TestPhi:
    def test_single_pair_through_near_endpoint(self, tripod):
        ctx = dirac_ctx(tripod, "b1", [(E("b1", 0.75), 1.0)])
        nu = discrete_measure(tripod, [(E("b2", 0.6), 1.0)])
        assert phi(ctx, nu).atoms == ((-0.6, 1.0),)

    def test_identity_on_base_edge(self, tripod):
        rng = random.Random(59)
        for _ in range(25):
            base = random_measure_on_edge(tripod, "b1", rng)
            nu = random_measure_on_edge(tripod, "b1", rng, n=3)
            image = phi(make_cover_context(tripod, "b1", base), nu)
            expected = tuple(
                (tripod.oriented_offset(OrientedEdge("b1"), p), w)
                for p, w in zip(nu.points, nu.weights)
            )
            assert image.atoms == tuple(sorted(expected))

    def test_mirrors_density_grid_through_center(self, tripod):
        ctx = dirac_ctx(tripod, "b1", [(V("o"), 1.0)])
        nu = discretize(
            tripod, graph_measure(tripod, pieces=[("b2", 0.5, 1.0, 2.0)]), 0.25
        )
        image = phi(ctx, nu)
        assert image.atoms == ((-0.875, 0.5), (-0.625, 0.5))

    def test_rejects_non_minimizing_base_edge(self):
        g = make_parallel(1.0, 3.0)
        with pytest.raises(NonMinimizingEdgeError):
            dirac_ctx(g, "plong", [(E("plong", 1.5), 1.0)])

    def test_rejects_base_mass_off_edge(self, tripod):
        with pytest.raises(MeasureValidationError, match="off edge"):
            dirac_ctx(tripod, "b1", [(E("b2", 0.5), 1.0)])

    def test_mass_conserved_and_ranges_partition(self, square_with_chord):
        g = square_with_chord
        rng = random.Random(61)
        L = g.edge("q12").length
        for _ in range(20):
            ctx = make_cover_context(
                g, "q12", random_measure_on_edge(g, "q12", rng)
            )
            image = phi(ctx, random_measure_anywhere(g, rng))
            assert sum(m for _, m in image.atoms) == pytest.approx(1.0, abs=1e-12)
            # every atom sits in exactly one of the three ranges
            for x, _ in image.atoms:
                assert x < 0.0 or x > L or 0.0 <= x <= L

    def test_atom_mass_preserved(self, tripod):
        # an interior atom of the input keeps its mass in the image
        ctx = dirac_ctx(tripod, "b1", [(E("b1", 0.5), 1.0)])
        nu = discrete_measure(
            tripod, [(E("b2", 0.6), 0.3), (E("b1", 0.2), 0.7)]
        )
        image = phi(ctx, nu)
        assert (-0.6, 0.3) in image.atoms
        assert (0.2, 0.7) in image.atoms

    @pytest.mark.parametrize(
        "maker,eid",
        [(make_square_with_chord, "q12"), (make_tripod, "b1")],
        ids=["with-cycles", "tree"],
    )
    def test_expansion_and_base_isometry(self, maker, eid):
        g = maker()
        rng = random.Random(67)
        for _ in range(50):
            base = random_measure_on_edge(g, eid, rng)
            other = random_measure_on_edge(g, eid, rng, n=3)
            nu = random_measure_anywhere(g, rng)
            ctx = make_cover_context(g, eid, base)
            img_base = phi(ctx, base)
            img_other = phi(ctx, other)
            img_nu = phi(ctx, nu)
            d_graph = math.sqrt(w2_graph(g, base, nu)[0])
            assert w2_line(img_base, img_nu) == pytest.approx(d_graph, abs=1e-9)
            d_other = math.sqrt(w2_graph(g, other, nu)[0])
            assert w2_line(img_other, img_nu) >= d_other - 1e-9


class TestPreimageCount:
    def test_triangle_far_side_levels(self, triangle):
        ctx = dirac_ctx(triangle, "e_AB", [(E("e_AB", 0.5), 1.0)])
        assert preimage_count(ctx, BranchTag.PLUS, 1.5) == 1
        assert preimage_count(ctx, BranchTag.PLUS, 2.25) == 2
        assert preimage_count(ctx, BranchTag.PLUS, 3.0) == 0

    def test_matches_sampling_oracle(self, triangle):
        ctx = dirac_ctx(triangle, "e_AB", [(E("e_AB", 0.5), 1.0)])
        rng = random.Random(71)
        for tag in (BranchTag.PLUS, BranchTag.MINUS, BranchTag.E):
            exc = exceptional_set(ctx, tag)
            samples = self._samples(triangle, ctx, tag)
            for _ in range(20):
                x = rng.uniform(-2.5, 3.0)
                if min(abs(x - d) for d in exc) < 1e-3:
                    continue
                oracle = self._sampled_count(samples, x)
                assert preimage_count(ctx, tag, x) == oracle

    @staticmethod
    def _samples(g, ctx, tag, step=1e-4):
        """h sampled densely along each edge the tag reaches; h does not depend
        on the query, so one sampling serves every query."""
        base_edge = ctx.edge.edge
        out = []
        for e in g.edges:
            if tag is BranchTag.E and e.id != base_edge:
                continue
            if tag is not BranchTag.E and e.id == base_edge:
                continue
            n = int(e.length / step)
            out.append([
                h_eval(ctx, tag, g.canonical(E(e.id, min(e.length * k / n, e.length))))
                for k in range(n + 1)
            ])
        return out

    @staticmethod
    def _sampled_count(samples, x_tilde):
        """Count sign changes of h - x_tilde along the sampled edges."""
        count = 0
        for values in samples:
            prev = None
            for h in values:
                val = h - x_tilde
                if prev is not None and (prev < 0) != (val < 0):
                    count += 1
                prev = val
        return count

    def test_rejects_queries_near_exceptional_values(self, triangle):
        ctx = dirac_ctx(triangle, "e_AB", [(E("e_AB", 0.5), 1.0)])
        exc = exceptional_set(ctx, BranchTag.PLUS)
        assert 2.5 in exc  # image of the far-side crossing point
        with pytest.raises(ValueError, match="exceptional"):
            preimage_count(ctx, BranchTag.PLUS, 2.5 + 1e-12)

    @pytest.mark.parametrize("tag", list(BranchTag))
    def test_nan_query_rejected(self, triangle, tag):
        ctx = dirac_ctx(triangle, "e_AB", [(E("e_AB", 0.5), 1.0)])
        with pytest.raises(ValueError, match="NaN"):
            preimage_count(ctx, tag, math.nan)

    def test_count_constant_between_exceptional_values(self, triangle):
        ctx = dirac_ctx(triangle, "e_AB", [(E("e_AB", 0.5), 1.0)])
        exc = sorted(exceptional_set(ctx, BranchTag.PLUS))
        for lo, hi in zip(exc, exc[1:]):
            counts = {
                preimage_count(ctx, BranchTag.PLUS, lo + f * (hi - lo))
                for f in (0.25, 0.5, 0.75)
            }
            assert len(counts) == 1


class TestLift:
    def test_splits_over_symmetric_preimages(self, tripod):
        ctx = dirac_ctx(tripod, "b1", [(E("b1", 0.75), 1.0)])
        nu = discrete_measure(
            tripod, [(E("b2", 0.6), 0.5), (E("b3", 0.6), 0.5)]
        )
        lifted = lift_line_plan(ctx, BranchTag.MINUS, [(0.75, -0.6, 1.0)], nu)
        assert lifted == (
            (0.75, E("b2", 0.6), 0.5),
            (0.75, E("b3", 0.6), 0.5),
        )

    def test_single_preimage_unique_lift(self, tripod):
        ctx = dirac_ctx(tripod, "b1", [(E("b1", 0.75), 1.0)])
        nu = discrete_measure(tripod, [(E("b2", 0.6), 0.4), (E("b2", 0.9), 0.6)])
        lifted = lift_line_plan(
            ctx, BranchTag.MINUS, [(0.75, -0.6, 0.4), (0.75, -0.9, 0.6)], nu
        )
        assert lifted == ((0.75, E("b2", 0.6), 0.4), (0.75, E("b2", 0.9), 0.6))

    def test_zero_mass_plan_lifts_empty(self, tripod):
        ctx = dirac_ctx(tripod, "b1", [(E("b1", 0.75), 1.0)])
        nu = discrete_measure(tripod, [(E("b2", 0.6), 1.0)])
        assert lift_line_plan(ctx, BranchTag.MINUS, [], nu) == ()
        assert lift_line_plan(ctx, BranchTag.MINUS, [(0.0, -0.6, 0.0)], nu) == ()

    @pytest.mark.parametrize(
        "entry, message",
        [
            ((0.75, -0.6, math.nan), "non-finite plan mass"),
            ((math.nan, -0.6, 1.0), "non-finite source position"),
            ((math.inf, -0.6, 1.0), "non-finite source position"),
            ((0.75, -0.6, -1.0), "negative plan mass"),
        ],
    )
    def test_rejects_bad_plan_entries(self, tripod, entry, message):
        ctx = dirac_ctx(tripod, "b1", [(E("b1", 0.75), 1.0)])
        nu = discrete_measure(tripod, [(E("b2", 0.6), 1.0)])
        with pytest.raises(MeasureValidationError, match=message):
            lift_line_plan(ctx, BranchTag.MINUS, [entry], nu)

    def test_rejects_unmatched_target(self, tripod):
        ctx = dirac_ctx(tripod, "b1", [(E("b1", 0.75), 1.0)])
        nu = discrete_measure(tripod, [(E("b2", 0.6), 1.0)])
        with pytest.raises(ValueError, match="no preimage"):
            lift_line_plan(ctx, BranchTag.MINUS, [(0.75, -0.5, 1.0)], nu)

    def test_pushforward_reproduces_line_plan(self, tripod):
        ctx = dirac_ctx(tripod, "b1", [(E("b1", 0.75), 1.0)])
        nu = discrete_measure(
            tripod,
            [(E("b2", 0.6), 0.25), (E("b3", 0.6), 0.25), (E("b2", 0.2), 0.5)],
        )
        theta = [(0.75, -0.6, 0.5), (0.25, -0.2, 0.5)]
        lifted = lift_line_plan(ctx, BranchTag.MINUS, theta, nu)
        pushed: dict[tuple[float, float], float] = {}
        for s, p, mass in lifted:
            key = (s, h_eval(ctx, BranchTag.MINUS, p))
            pushed[key] = pushed.get(key, 0.0) + mass
        for s, y, mass in theta:
            assert pushed[(s, y)] == pytest.approx(mass, abs=1e-12)


class TestEdgeLineView:
    def test_offsets_and_reversal(self, tripod):
        m = discrete_measure(tripod, [(E("b1", 0.25), 0.5), (V("t1"), 0.5)])
        fwd = measure_on_edge_as_line(tripod, "b1", m)
        assert fwd.atoms == ((0.25, 0.5), (1.0, 0.5))
        rev = measure_on_edge_as_line(tripod, OrientedEdge("b1", reverse=True), m)
        assert rev.atoms == ((0.0, 0.5), (0.75, 0.5))

    def test_point_off_the_edge_rejected(self, tripod):
        m = discrete_measure(tripod, [(E("b1", 0.25), 0.5), (E("b2", 0.5), 0.5)])
        with pytest.raises(MeasureValidationError, match="is not on edge 'b1'") as exc:
            measure_on_edge_as_line(tripod, "b1", m)
        assert exc.value.code == "invalid-measure"


def plan_phi(ctx, nu):
    """``phi`` read off an optimal plan entry by entry, whatever the classes."""
    _, plan = w2_graph(ctx.graph, ctx.base, nu)
    groups = {}
    for x, y, mass in plan.entries:
        bucket = groups.setdefault(y, {})
        tag = classify_pair(ctx.graph, ctx.edge, x, y)
        bucket[tag] = bucket.get(tag, 0.0) + mass
    weights = nu.as_dict()
    atoms = []
    for y, split in groups.items():
        if len(split) == 1:
            (tag,) = split
            atoms.append((h_eval(ctx, tag, y), weights[y]))
        else:
            atoms.extend((h_eval(ctx, tag, y), mass) for tag, mass in split.items())
    return line_measure(atoms=atoms)


@pytest.fixture
def plans_solved(monkeypatch):
    """Count the transport plans that ``phi`` solves."""
    calls = []

    real = mgbary.covering._optimal_coupling

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mgbary.covering, "_optimal_coupling", counted)
    return calls


class TestPhiPlanFree:
    @pytest.mark.parametrize(
        "maker, eid, cuts",  # a tree has no cut targets
        [
            (make_tripod, "b1", False),
            (make_triangle, "e_AB", True),
            (make_square_with_chord, "q13", True),
        ],
    )
    def test_matches_plan_reference(self, maker, eid, cuts, plans_solved):
        g = maker()
        rng = random.Random(eid)
        plan_free = 0
        for k in range(16):
            oe = OrientedEdge(eid, reverse=k % 4 >= 2)
            if k % 2:
                base = random_measure_on_edge(g, eid, rng)
            else:  # a Dirac base, at an endpoint or inside the edge
                where = rng.choice([0.0, rng.uniform(0.0, g.edge(eid).length)])
                base = discrete_measure(g, [(E(eid, where), 1.0)])
            ctx = make_cover_context(g, oe, base)
            nu = random_measure_anywhere(g, rng, n=6)
            before = len(plans_solved)
            assert phi(ctx, nu) == plan_phi(ctx, nu)
            plan_free += len(plans_solved) == before
        assert plan_free > 0 and (plan_free < 16) == cuts

    def test_class_constant_targets_solve_no_plan(self, tripod, monkeypatch):
        def refuse(*args):
            raise AssertionError("phi solved a transport plan")

        monkeypatch.setattr(mgbary.covering, "_optimal_coupling", refuse)
        base = random_measure_on_edge(tripod, "b1", random.Random(67))
        nu = discrete_measure(
            tripod, [(E("b2", 0.25), 0.5), (E("b3", 0.5), 0.25), (V("t1"), 0.25)]
        )
        image = phi(make_cover_context(tripod, "b1", base), nu)
        assert image == line_measure(atoms=[(-0.25, 0.5), (-0.5, 0.25), (1.0, 0.25)])

    def test_cut_target_follows_the_plan(self, triangle, plans_solved):
        # C is reached through A from e_AB:0.2 and through B from e_AB:0.7
        base = discrete_measure(triangle, [(E("e_AB", 0.2), 0.3), (E("e_AB", 0.7), 0.7)])
        nu = discrete_measure(triangle, [(V("C"), 0.5), (E("e_AB", 0.9), 0.5)])
        image = phi(make_cover_context(triangle, "e_AB", base), nu)
        assert len(plans_solved) == 1
        _, plan = w2_graph(triangle, base, nu)
        to_c = {x: m for x, y, m in plan.entries if y == V("C")}
        assert to_c[E("e_AB", 0.2)] == pytest.approx(0.3, abs=1e-12)
        assert to_c[E("e_AB", 0.7)] == pytest.approx(0.2, abs=1e-12)
        assert image == line_measure(
            atoms=[(-1.0, to_c[E("e_AB", 0.2)]), (2.0, to_c[E("e_AB", 0.7)]), (0.9, 0.5)]
        )

    @pytest.mark.parametrize("reverse", [False, True])
    def test_cut_case_builds_its_distances_once(self, triangle, monkeypatch, plans_solved, reverse):
        # the classes, the images and the plan's costs share one distance build
        builds = []
        real = mgbary.transport._distance_matrix
        monkeypatch.setattr(
            mgbary.transport, "_distance_matrix", lambda *args: builds.append(1) or real(*args)
        )
        base = discrete_measure(triangle, [(E("e_AB", 0.2), 0.3), (E("e_AB", 0.7), 0.7)])
        nu = discrete_measure(triangle, [(V("C"), 0.5), (E("e_AB", 0.9), 0.5)])
        phi(make_cover_context(triangle, OrientedEdge("e_AB", reverse=reverse), base), nu)
        assert len(plans_solved) == 1 and len(builds) == 1

    def test_support_above_the_cap_is_refused(self, tripod, monkeypatch):
        m = graph_measure(tripod, pieces=[("b1", 0.0, 1.0, 1.0)])
        d = discretize(tripod, m, 0.05)  # 20 cells, all of class E: no plan needed
        monkeypatch.setenv("MGBARY_SUPPORT_CAP", "100")
        with pytest.raises(SupportCapError, match="400 LP variables"):
            phi(make_cover_context(tripod, "b1", d), d)

    def test_coinciding_images_sum_in_point_order(self):
        star = build_graph(
            {
                "vertices": ["c", "t0", "t1", "t2", "t3"],
                "edges": [{"id": f"s{i}", "u": "c", "v": f"t{i}", "length": 1.0} for i in range(4)],
            }
        )
        base = discrete_measure(star, [(E("s0", 0.25), 0.5), (E("s0", 0.75), 0.5)])
        # all three reached through c, so all land on -0.5; any plan is optimal
        nu = discrete_measure(star, [(E("s1", 0.5), 0.7), (E("s2", 0.5), 0.2), (E("s3", 0.5), 0.1)])
        image = phi(make_cover_context(star, "s0", base), nu)
        assert 0.7 + 0.2 + 0.1 != 0.1 + 0.2 + 0.7  # the order shows in the last bit
        assert image.atoms == ((-0.5, 0.7 + 0.2 + 0.1),)


def _reference_phi(ctx, nu):
    """``phi`` as it was built before its atoms were merged on arrays: the
    plan's entries grouped by target and class in dicts, then
    ``line_measure``."""
    tags, images, frame = _branch_table(ctx.graph, ctx.edge, ctx.base.points, nu.points)
    q = nu.weights
    images = images.T.tolist()
    if (tags == tags[0]).all():
        pairs = zip(range(len(q)), tags[0], q)
    else:
        costs = np.float_power(frame[3][2:], 2)
        x = mgbary.covering._optimal_coupling(costs, ctx.base.weights, q, frame)
        pairs = ((j, tags[i, j], float(x[i, j])) for i, j in zip(*np.nonzero(x)))
    groups = {}
    for j, tag, mass in pairs:
        bucket = groups.setdefault(j, {})
        bucket[tag] = bucket.get(tag, 0.0) + mass
    atoms = []
    for j, split in groups.items():
        if len(split) == 1:
            (tag,) = split
            atoms.append((images[j][tag], q[j]))
        else:
            atoms.extend((images[j][tag], mass) for tag, mass in split.items())
    return line_measure(atoms=atoms)


def _triangle_with_pendants():
    """The triangle with three unit pendant edges at C: a point on a pendant
    is reached from e_AB through A or through B, depending on the base
    point, and points at one offset on the three pendants share both images."""
    g = make_triangle()
    edges = [{"id": e.id, "u": e.u, "v": e.v, "length": e.length} for e in g.edges]
    edges += [{"id": f"p{i}", "u": "C", "v": f"t{i}", "length": 1.0} for i in range(3)]
    return build_graph({"vertices": ["A", "B", "C", "t0", "t1", "t2"], "edges": edges})


def _star():
    """Four unit edges s0..s3 at c: a tree, so no target is ever cut."""
    return build_graph(
        {
            "vertices": ["c", "t0", "t1", "t2", "t3"],
            "edges": [{"id": f"s{i}", "u": "c", "v": f"t{i}", "length": 1.0} for i in range(4)],
        }
    )


class TestUnfoldOnArrays:
    """``_unfold`` merges its atoms on arrays; ``phi`` must keep the bits of
    the grouping it replaces, including the order in which the atoms of one
    image are added."""

    @pytest.mark.parametrize(
        "maker, eid, alike, cuts",
        [(_triangle_with_pendants, "e_AB", ["p0", "p1", "p2"], True), (_star, "s0", ["s1", "s2", "s3"], False)],
    )
    def test_matches_the_grouping_reference(self, maker, eid, alike, cuts, plans_solved):
        g = maker()
        rng = random.Random(f"unfold:{eid}")
        cut_cases = 0
        for k in range(60):
            base = random_measure_on_edge(g, eid, rng, n=rng.randint(1, 4))
            ctx = make_cover_context(g, OrientedEdge(eid, reverse=k % 2 == 1), base)
            s = rng.choice([0.25, 0.5, rng.random()])  # one image for all three
            pairs = [(E(f, s), rng.uniform(0.1, 1.0)) for f in alike]
            for _ in range(rng.randint(0, 3)):
                e = g.edges[rng.randrange(len(g.edges))]
                pairs.append((E(e.id, rng.uniform(0.0, e.length)), rng.uniform(0.1, 1.0)))
            total = sum(w for _, w in pairs)
            nu = discrete_measure(g, [(p, w / total) for p, w in pairs])
            before = len(plans_solved)
            image = phi(ctx, nu)
            cut_cases += len(plans_solved) > before
            assert repr(image) == repr(_reference_phi(ctx, nu))
        assert (cut_cases >= 20) == cuts
