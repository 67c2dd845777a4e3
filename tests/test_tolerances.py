import ast
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mgbary.barycenter
import mgbary.transport
from mgbary import (
    GraphPoint,
    LineMeasure,
    MeasureValidationError,
    SolverConsistencyError,
    average_quantile,
    barycenter_problem,
    discrete_measure,
    discretize,
    graph_measure,
    line_measure,
    quantile,
    restrict,
    solve_lp,
    w2_graph,
)
from mgbary.tolerances import HIGHS_TIGHT_TOL, _check_weights
from conftest import make_square_with_chord, make_triangle, make_tripod, tripod_outer_halves

V = GraphPoint.at_vertex
E = GraphPoint.on_edge
NAN, INF = math.nan, math.inf
SRC = pathlib.Path(mgbary.barycenter.__file__).parent


class TestToleranceTable:
    def test_no_tolerance_literal_outside_the_table(self):
        # the one allowed literal is the fixed point's default step, eps = 1e-6 * length
        allowed = re.compile(r"1e-6 \* (e\.)?length")
        found = []
        for path in sorted(SRC.glob("*.py")):
            if path.name == "tolerances.py":
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if re.search(r"\d[eE]-\d", allowed.sub("", line)):
                    found.append(f"{path.name}:{lineno}: {line.strip()}")
        assert found == []

    def test_every_tolerance_is_read(self):
        # a constant that nothing reads, as the fixed point's old cell nudge, leaves the table
        table = ast.parse((SRC / "tolerances.py").read_text())
        names = {t.id for node in table.body if isinstance(node, ast.Assign) for t in node.targets}
        read = set()
        for path in SRC.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
        assert "SNAP_TOL" in names and sorted(names - read) == []


class TestNonFiniteRejected:
    def test_nan_weight_in_discrete_measure(self):
        g = make_tripod()
        with pytest.raises(MeasureValidationError, match="non-finite atom mass"):
            discrete_measure(g, [(V("o"), 1.0), (V("t1"), NAN)])

    def test_nan_piece_bound_in_line_measure(self):
        with pytest.raises(MeasureValidationError, match="non-finite piece"):
            line_measure(pieces=[(0.0, NAN, 1.0)])

    def test_nan_density_in_line_measure(self):
        with pytest.raises(MeasureValidationError, match="non-finite piece"):
            line_measure(atoms=[(0.0, 1.0)], pieces=[(0.0, 1.0, NAN)])

    def test_nan_atom_mass_in_line_measure(self):
        with pytest.raises(MeasureValidationError, match="non-finite atom mass"):
            line_measure(atoms=[(0.0, 1.0), (0.5, NAN)])

    def test_nan_part1_mass_in_restrict(self):
        g = make_tripod()
        m = discrete_measure(g, [(V("t1"), 0.5), (V("t2"), 0.5)])
        with pytest.raises(MeasureValidationError, match="non-finite part1 mass"):
            restrict(g, m, {V("t1"): NAN, V("t2"): 0.25}, m)

    def test_quantile_of_an_unvalidated_nan_measure(self):
        with pytest.raises(MeasureValidationError, match="is not 1"):
            quantile(LineMeasure(atoms=((0.0, NAN),)))

    @pytest.mark.parametrize("weight", [NAN, INF])
    def test_non_finite_barycenter_weight(self, weight):
        g = make_tripod()
        nu = graph_measure(g, atoms=[(V("o"), 1.0)])
        with pytest.raises(MeasureValidationError):
            barycenter_problem(g, [(weight, nu), (0.5, nu)], grid=0.1)
        with pytest.raises(MeasureValidationError):
            average_quantile([(weight, line_measure(atoms=[(0.0, 1.0)]))])

    @pytest.mark.parametrize("grid", [NAN, INF])
    def test_non_finite_grid(self, grid):
        g = make_tripod()
        nu = graph_measure(g, atoms=[(V("o"), 1.0)])
        with pytest.raises(MeasureValidationError, match="grid spacing"):
            barycenter_problem(g, [(1.0, nu)], grid=grid)
        with pytest.raises(MeasureValidationError, match="grid spacing"):
            discretize(g, nu, grid)


class TestWeightCheck:
    def test_no_weights_rejected(self):
        with pytest.raises(MeasureValidationError, match="barycenter problem with no measures"):
            _check_weights([])


class TestZeroMassAtoms:
    # every atom's location is checked, whatever its mass
    def test_zero_mass_at_unknown_vertex_rejected(self):
        g = make_tripod()
        with pytest.raises(ValueError, match="unknown vertex id 'zz'"):
            graph_measure(g, atoms=[(V("o"), 1.0), (V("zz"), 0.0)])
        with pytest.raises(ValueError, match="unknown vertex id 'zz'"):
            discrete_measure(g, [(V("o"), 1.0), (V("zz"), 0.0)])

    def test_zero_mass_at_a_known_point_is_dropped(self):
        g = make_tripod()
        m = discrete_measure(g, [(V("o"), 1.0), (E("b1", 0.5), 0.0)])
        assert m.points == (V("o"),) and m.weights == (1.0,)


class TestMassWithinTheUnitTolerance:
    """A measure whose mass is off 1 by less than ``UNIT_MASS_TOL`` passes
    validation, so every LP it enters must solve: the discretized weights
    are divided by their sum. The objectives are those of the exactly
    normalized problem."""

    @staticmethod
    def _measures(error):
        g = make_triangle()
        off = graph_measure(g, pieces=[("e_AB", 0.1, 0.6, 2.0 * (1 + error))])
        return g, off, graph_measure(g, pieces=[("e_AC", 0.2, 0.7, 2.0)])

    def test_solve_lp(self):
        values = []
        for error in (8e-10, 0.0):
            g, off, other = self._measures(error)
            values.append(solve_lp(barycenter_problem(g, [(0.5, off), (0.5, other)], 0.1))[1])
        assert abs(values[0] - values[1]) <= 1e-9 * values[1]

    @pytest.mark.parametrize("reverse", [False, True], ids=["off-first", "off-second"])
    def test_w2_graph(self, reverse):
        values = []
        for error in (8e-10, 0.0):
            g, off, other = self._measures(error)
            pair = (other, off) if reverse else (off, other)
            values.append(w2_graph(g, *(discretize(g, m, 0.1) for m in pair))[0])
        assert abs(values[0] - values[1]) <= 1e-9 * values[1]


class TestSolveLpChecksItsCouplings:
    def test_drifted_coupling_is_reported(self, monkeypatch):
        real = mgbary.transport._highs_answer

        def drifted(*args, **kwargs):
            res = real(*args, **kwargs)
            res.x[1] += 1e-6  # the first coupling column of the first candidate
            return res

        g = make_tripod()
        problem = barycenter_problem(g, tripod_outer_halves(g), grid=0.25)
        solve_lp(problem)
        monkeypatch.setattr(mgbary.transport, "_highs_answer", drifted)
        with pytest.raises(SolverConsistencyError, match="marginal residual"):
            solve_lp(problem)


def _negated_costs(real, highs, **options):
    """``real`` run on ``highs`` with its model's costs negated, then restored."""
    c = np.array(highs.getLp().col_cost_)
    columns = np.arange(len(c), dtype=np.int32)
    highs.changeColsCost(len(c), columns, -c)
    try:
        return real(highs, **options)
    finally:
        highs.changeColsCost(len(c), columns, c)


class TestSolveLpChecksItsCertificate:
    """Faults injected into a solver's answer: HiGHS's for the joint LP of
    ``solve_lp`` and the transportation simplex's for ``w2_graph``."""

    @staticmethod
    def _worst_point(real, duals, negated, *args, **kwargs):
        # feasible but the most expensive vertex: the optimum of the negated costs
        return negated(real, *args, **kwargs)

    @staticmethod
    def _shifted_duals(real, duals, negated, *args, **kwargs):
        answer = real(*args, **kwargs)
        duals(answer)[-1] += 1e-6  # the last row, right-hand side > 0
        return answer

    @staticmethod
    def _solve_lp(problem=None):
        g = make_tripod()
        problem = problem or barycenter_problem(g, tripod_outer_halves(g), grid=0.25)
        return (
            mgbary.transport, "_highs_answer", lambda res: res.eqlin.marginals,
            _negated_costs, lambda: solve_lp(problem),
        )

    @staticmethod
    def _w2_graph():
        # two points on each side, so the plan comes from the simplex
        g = make_tripod()
        m1 = discrete_measure(g, [(V("t1"), 0.5), (E("b2", 0.5), 0.5)])
        m2 = discrete_measure(g, [(V("t3"), 0.25), (E("b1", 0.25), 0.75)])
        return (
            mgbary.transport, "_transport_simplex", lambda answer: answer[1],
            lambda real, c, *args: real(-c, *args), lambda: w2_graph(g, m1, m2),
        )

    @pytest.mark.parametrize(
        "fault, solver",
        [
            pytest.param(fault, solver, id=fault + suffix)
            for solver, suffix in (("_solve_lp", ""), ("_w2_graph", "-w2_graph"))
            for fault in ("_worst_point", "_shifted_duals")
        ],
    )
    def test_non_optimal_answer_is_reported(self, monkeypatch, fault, solver):
        module, name, duals, negated, solve = getattr(self, solver)()
        real = getattr(module, name)
        solve()
        wrapper = getattr(self, fault)
        monkeypatch.setattr(
            module, name, lambda *args, **kwargs: wrapper(real, duals, negated, *args, **kwargs)
        )
        with pytest.raises(SolverConsistencyError, match="dual certificate fails"):
            solve()

    def test_failed_answer_is_solved_once_more_at_tight_tolerances(self, monkeypatch):
        module, name, duals, negated, solve = self._solve_lp()
        real = getattr(module, name)
        value = float(solve()[1])
        options = []

        def first_shifted(highs, **kwargs):
            options.append(kwargs)
            if len(options) == 1:
                return self._shifted_duals(real, duals, negated, highs, **kwargs)
            return real(highs, **kwargs)

        monkeypatch.setattr(module, name, first_shifted)
        got = float(solve()[1])
        assert abs(got - value) <= 1e-12 * value
        assert options[0] == {}
        assert options[1] == dict.fromkeys(
            ("primal_feasibility_tolerance", "dual_feasibility_tolerance"), HIGHS_TIGHT_TOL
        )

    def test_a_warm_round_is_certified_too(self, monkeypatch):
        # three inputs on the square with a chord at h = 1/64: 6 LP rounds
        g = make_square_with_chord()
        pieces = [("q41", 0.05, 0.6, 1 / 0.55), ("q34", 0.4, 0.7, 1 / 0.3), ("q13", 0.1, 0.5, 1 / 0.4)]
        measures = [(lam, graph_measure(g, pieces=[p])) for lam, p in zip((0.4, 0.35, 0.25), pieces)]
        module, name, duals, negated, solve = self._solve_lp(barycenter_problem(g, measures, 1 / 64))
        real = getattr(module, name)
        solve()
        options = []

        # every run after round 1's; round 2's last row is a new candidate's
        # row sum, whose shifted dual leaves a reduced cost of -1e-6
        def later_shifted(highs, **kwargs):
            options.append(kwargs)
            if len(options) == 1:
                return real(highs, **kwargs)
            return self._shifted_duals(real, duals, negated, highs, **kwargs)

        monkeypatch.setattr(module, name, later_shifted)
        with pytest.raises(SolverConsistencyError, match="dual certificate fails"):
            solve()
        # round 2's warm simplex run, then its re-solve, whose failure is raised
        assert options[:2] == [{}, {}] and len(options) == 3
        assert set(options[2].values()) == {HIGHS_TIGHT_TOL}


# masses, bounds and densities: half of them values that can add up to a
# valid measure, the rest NaN, the infinities, negatives and arbitrary floats
NUMBERS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0]),
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    st.sampled_from([NAN, INF, -INF, -0.5]),
    st.floats(allow_nan=True, allow_infinity=True),
)
TRIPOD = make_tripod()
GRAPH_POINTS = st.one_of(
    st.sampled_from([V(v) for v in TRIPOD.vertices]),
    st.builds(E, st.sampled_from(["b1", "b2", "b3"]), st.floats(0.0, 1.0)),
)


def _all_finite(*values) -> bool:
    return bool(np.isfinite(np.asarray(values, dtype=float)).all())


class TestConstructorsFuzz:
    @settings(max_examples=300)
    @given(
        st.lists(st.tuples(GRAPH_POINTS, NUMBERS), max_size=3),
        st.lists(st.tuples(st.sampled_from(["b1", "b2"]), NUMBERS, NUMBERS, NUMBERS), max_size=2),
    )
    def test_graph_measure(self, atoms, pieces):
        try:
            m = graph_measure(TRIPOD, atoms=atoms, pieces=pieces)
        except MeasureValidationError:
            return
        assert _all_finite(
            *(w for _, w in m.atoms),
            *(p.offset for p, _ in m.atoms),
            *(x for _, a, b, d in m.pieces for x in (a, b, d)),
        )

    @settings(max_examples=300)
    @given(st.lists(st.tuples(GRAPH_POINTS, NUMBERS), max_size=4))
    def test_discrete_measure(self, pairs):
        try:
            m = discrete_measure(TRIPOD, pairs)
        except MeasureValidationError:
            return
        assert _all_finite(*m.weights, *(p.offset for p in m.points))

    @settings(max_examples=300)
    @given(
        st.lists(st.tuples(NUMBERS, NUMBERS), max_size=3),
        st.lists(st.tuples(NUMBERS, NUMBERS, NUMBERS), max_size=2),
    )
    def test_line_measure(self, atoms, pieces):
        try:
            m = line_measure(atoms=atoms, pieces=pieces)
        except MeasureValidationError:
            return
        assert _all_finite(*(x for a in m.atoms for x in a), *(x for p in m.pieces for x in p))
