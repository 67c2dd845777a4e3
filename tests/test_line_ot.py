import math
import random
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import mgbary
from mgbary import (
    MeasureValidationError,
    QuantileFn,
    average_quantile,
    barycenter_line,
    cdf_eval,
    clamp_quantile,
    dispersion,
    line_measure,
    line_measure_from_json,
    line_measure_to_json,
    measure_from_quantile,
    quantile,
    support_bounds,
    w2_line,
    w2_line_squared,
)


def unit(a=0.0, b=1.0):
    return line_measure(pieces=[(a, b, 1.0 / (b - a))])


def dirac(x):
    return line_measure(atoms=[(x, 1.0)])


def assignment_w2(m1, m2, k):
    """Independent oracle: expand both measures into k equal-mass unit atoms
    and solve the assignment problem on the squared-difference cost."""
    def expand(m):
        out = []
        for x, mass in m.atoms:
            out.extend([x] * round(mass * k))
        return out

    xs, ys = expand(m1), expand(m2)
    assert len(xs) == len(ys) == k
    cost = np.subtract.outer(np.array(xs), np.array(ys)) ** 2
    rows, cols = linear_sum_assignment(cost)
    return math.sqrt(cost[rows, cols].sum() / k)


def random_discrete(rng, max_atoms=20, denom=40):
    n = rng.randint(1, max_atoms)
    cuts = sorted(rng.sample(range(1, denom), n - 1)) if n > 1 else []
    masses = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
    return (
        line_measure(
            atoms=[(rng.uniform(-5, 5), m / denom) for m in masses]
        ),
        denom,
    )


class TestCdf:
    def test_uniform_midpoint(self):
        assert cdf_eval(unit(), 0.5) == 0.5

    def test_dirac_right_continuity(self):
        assert cdf_eval(dirac(0.0), 0.0) == 1.0
        assert cdf_eval(dirac(0.0), -1e-9) == 0.0

    def test_atom_plus_density(self):
        m = line_measure(atoms=[(0.0, 0.5)], pieces=[(0.0, 1.0, 0.5)])
        assert cdf_eval(m, 0.5) == 0.75

    def test_nan_argument_rejected(self):
        with pytest.raises(MeasureValidationError, match="NaN"):
            cdf_eval(unit(), math.nan)

    def test_reversed_piece_rejected(self):
        with pytest.raises(MeasureValidationError, match=r"piece with b < a: \[0.9, 0.1\)"):
            line_measure(pieces=[(0.0, 0.5, 2.0), (0.9, 0.1, 5.0)])


class TestQuantile:
    def test_uniform_is_identity(self):
        q = quantile(unit())
        for t in (0.1, 0.25, 0.9):
            assert q(t) == pytest.approx(t, abs=1e-15)

    def test_dirac_is_constant(self):
        q = quantile(dirac(2.5))
        assert q(0.3) == 2.5 and q(0.99) == 2.5

    def test_two_atoms_right_continuous_step(self):
        m = line_measure(atoms=[(0.0, 0.5), (1.0, 0.5)])
        q = quantile(m)
        assert q(0.25) == 0.0
        assert q(0.5) == 1.0  # right continuity at the jump
        assert q(0.75) == 1.0


class TestMeasureFromQuantile:
    def test_identity_quantile_gives_uniform(self):
        q = QuantileFn(((0.0, 1.0, 0.0, 1.0),))
        assert measure_from_quantile(q).isclose(unit())

    def test_constant_gives_dirac(self):
        q = QuantileFn(((0.0, 1.0, 2.0, 2.0),))
        assert measure_from_quantile(q).isclose(dirac(2.0))

    def test_flat_slope_flat_mix(self):
        q = QuantileFn(
            (
                (0.0, 0.25, 0.0, 0.0),
                (0.25, 0.75, 0.0, 1.0),
                (0.75, 1.0, 1.0, 1.0),
            )
        )
        m = measure_from_quantile(q)
        expected = line_measure(
            atoms=[(0.0, 0.25), (1.0, 0.25)], pieces=[(0.0, 1.0, 0.5)]
        )
        assert m.isclose(expected)

    def test_decreasing_segment_rejected(self):
        with pytest.raises(MeasureValidationError, match="decreasing"):
            QuantileFn(((0.0, 1.0, 1.0, 0.0),))

    @pytest.mark.parametrize(
        "segments",
        [
            ((0.0, 1.0, math.nan, math.nan),),
            ((0.0, 1.0, 0.0, math.inf),),
            ((0.0, 1.0, -math.inf, 0.0),),
            ((0.0, 0.5, 0.0, 1.0), (0.5, 1.0, 1.0, math.inf)),
            ((0.0, math.nan, 0.0, 1.0), (math.nan, 1.0, 1.0, 2.0)),
            ((0.0, math.inf, 0.0, 1.0), (math.inf, 1.0, 1.0, 2.0)),
        ],
    )
    def test_non_finite_segment_rejected(self, segments):
        with pytest.raises(MeasureValidationError, match="finite"):
            QuantileFn(segments)

    def test_nan_argument_rejected(self):
        q = quantile(line_measure(pieces=[(0.0, 1.0, 1.0)]))
        with pytest.raises(MeasureValidationError, match="NaN"):
            q(math.nan)
        assert (q(-math.inf), q(0.5), q(math.inf)) == (0.0, 0.5, 1.0)

    @pytest.mark.parametrize(
        "segments, message",
        [
            ((), "at least one segment"),
            (((0.0, 1.0, 0.0),), r"\(t0, t1, v0, v1\) tuples"),
            ((0.0, 1.0, 0.0, 1.0), r"\(t0, t1, v0, v1\) tuples"),
            (((0.0, 0.9, 0.0, 1.0),), r"cover \[0, 1\]"),
            (((0.25, 1.0, 0.0, 1.0),), r"cover \[0, 1\]"),
            (((0.0, 0.5, 0.0, 1.0), (0.5, 0.5, 1.0, 1.0), (0.5, 1.0, 1.0, 2.0)), "empty quantile segment at t=0.5"),
            (((0.0, 0.4, 0.0, 1.0), (0.5, 1.0, 1.0, 2.0)), "not contiguous"),
            (((0.0, 0.5, 0.0, 1.0), (0.5, 1.0, 0.5, 2.0)), "decreases across segments"),
            (((0.0, 0.5, 0.0, 1.0), (0.5, 1.0)), r"\(t0, t1, v0, v1\) tuples"),
            (None, r"\(t0, t1, v0, v1\) tuples"),
            ("abc", r"\(t0, t1, v0, v1\) tuples"),
        ],
        ids=["no-segment", "three-columns", "flat-tuple", "short-end", "late-start", "empty", "gap", "drop",
             "ragged", "none", "string"],
    )
    def test_malformed_segments_rejected(self, segments, message):
        with pytest.raises(MeasureValidationError, match=message) as exc:
            QuantileFn(segments)
        assert exc.value.code == "invalid-measure"


class TestSupportBounds:
    def test_uniform(self):
        assert support_bounds(unit()) == (0.0, 1.0)

    def test_dirac(self):
        assert support_bounds(dirac(3.5)) == (3.5, 3.5)

    def test_gap(self):
        m = line_measure(atoms=[(0.0, 0.5)], pieces=[(2.0, 3.0, 0.5)])
        assert support_bounds(m) == (0.0, 3.0)
        q = quantile(m)
        assert (q.lower, q.upper) == (0.0, 3.0)


class TestRoundTrip:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-10, max_value=10),
                st.integers(min_value=1, max_value=5),
            ),
            min_size=1,
            max_size=5,
        ),
        st.integers(min_value=0, max_value=3),
    )
    def test_quantile_measure_round_trip(self, atom_spec, n_pieces):
        rng = random.Random(hash(tuple(atom_spec)) % 10**6 + n_pieces)
        atoms = [(x, w) for x, w in atom_spec]
        pieces = []
        lo = 11.0
        for _ in range(n_pieces):
            a = lo + rng.uniform(0.1, 1.0)
            b = a + rng.uniform(0.1, 2.0)
            pieces.append((a, b, rng.uniform(0.2, 3.0)))
            lo = b
        total = sum(w for _, w in atoms) + sum(d * (b - a) for a, b, d in pieces)
        atoms = [(x, w / total) for x, w in atoms]
        pieces = [(a, b, d / total) for a, b, d in pieces]
        m = line_measure(atoms=atoms, pieces=pieces)
        assert measure_from_quantile(quantile(m)).isclose(m, tol=1e-11)


class TestW2:
    def test_shifted_uniforms(self):
        assert w2_line(unit(0, 1), unit(1, 2)) == pytest.approx(1.0, abs=1e-15)

    def test_diracs(self):
        assert w2_line(dirac(0.0), dirac(3.0)) == 3.0

    def test_uniform_vs_dirac_closed_form(self):
        # second moment of uniform[0, 1]: integral of t^2 over (0, 1)
        got = w2_line(unit(), dirac(0.0))
        assert got == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-15)
        # cross-check against a 200-atom discretization transported to 0
        k = 200
        approx = sum((1 / k) * ((i + 0.5) / k) ** 2 for i in range(k))
        assert got**2 == pytest.approx(approx, abs=1e-4)

    def test_matches_assignment_oracle(self):
        rng = random.Random(101)
        for _ in range(50):
            m1, k = random_discrete(rng)
            m2, _ = random_discrete(rng, denom=k)
            assert w2_line(m1, m2) == pytest.approx(
                assignment_w2(m1, m2, k), abs=1e-9
            )

    def test_symmetry(self):
        m1 = line_measure(atoms=[(0.0, 0.3)], pieces=[(1.0, 2.0, 0.7)])
        m2 = unit(-1, 3)
        assert w2_line(m1, m2) == w2_line(m2, m1)


class TestBarycenter:
    def test_two_uniforms_average(self):
        b = barycenter_line([(0.5, unit(0, 1)), (0.5, unit(2, 3))])
        assert b.isclose(unit(1, 2))

    def test_three_diracs_mean(self):
        b = barycenter_line(
            [(1 / 3, dirac(0.0)), (1 / 3, dirac(1.0)), (1 / 3, dirac(5.0))]
        )
        assert len(b.atoms) == 1
        assert b.atoms[0][0] == pytest.approx(2.0, abs=1e-15)

    def test_dirac_and_uniform(self):
        b = barycenter_line([(0.5, dirac(0.0)), (0.5, unit())])
        assert b.isclose(line_measure(pieces=[(0.0, 0.5, 2.0)]))

    def test_atomless_input_kills_atoms(self):
        heavy = line_measure(atoms=[(0.0, 0.4), (2.0, 0.6)])
        b = barycenter_line([(0.5, heavy), (0.5, unit())])
        assert b.atoms == ()

    def test_objective_equals_dispersion(self):
        rng = random.Random(7)
        for _ in range(100):
            k = rng.randint(2, 4)
            weights = [rng.uniform(0.2, 1.0) for _ in range(k)]
            s = sum(weights)
            problem = []
            for w in weights:
                if rng.random() < 0.5:
                    problem.append((w / s, dirac(rng.uniform(-3, 3))))
                else:
                    a = rng.uniform(-3, 3)
                    problem.append((w / s, unit(a, a + rng.uniform(0.2, 2.0))))
            bary = barycenter_line(problem)
            obj = sum(lam * w2_line_squared(bary, m) for lam, m in problem)
            assert obj == pytest.approx(dispersion(problem), abs=1e-9)

    def test_perturbation_strictly_increases_objective(self):
        problem = [(0.5, unit(0, 1)), (0.5, unit(2, 4))]
        bary = barycenter_line(problem)
        base = sum(lam * w2_line_squared(bary, m) for lam, m in problem)
        # shift the upper half of the quantile: any deviation must cost extra
        q = quantile(bary)
        lo, mid, hi = q.lower, q(0.5), q.upper
        bumped = measure_from_quantile(
            QuantileFn(((0.0, 0.5, lo, mid), (0.5, 1.0, mid + 0.25, hi + 0.25)))
        )
        perturbed = sum(lam * w2_line_squared(bumped, m) for lam, m in problem)
        assert perturbed == pytest.approx(base + 0.25**2 * 0.5, abs=1e-12)
        assert perturbed > base + 1e-6


class TestDispersion:
    def test_two_diracs(self):
        problem = [(0.5, dirac(0.0)), (0.5, dirac(2.0))]
        assert dispersion(problem) == pytest.approx(1.0, abs=1e-12)
        bary = barycenter_line(problem)
        obj = sum(lam * w2_line_squared(bary, m) for lam, m in problem)
        assert obj == pytest.approx(1.0, abs=1e-12)

    def test_single_measure_zero(self):
        assert dispersion([(1.0, unit())]) == pytest.approx(0.0, abs=1e-15)

    def test_two_separated_uniforms(self):
        problem = [(0.5, unit(0, 1)), (0.5, unit(2, 3))]
        assert dispersion(problem) == pytest.approx(1.0, abs=1e-12)


class TestSemicontinuity:
    def test_left_mollification_never_overshoots(self):
        m = line_measure(atoms=[(0.0, 0.3), (1.0, 0.2)], pieces=[(2.0, 3.0, 0.5)])
        q = quantile(m)
        rng = random.Random(3)
        ts = [rng.uniform(0.001, 0.999) for _ in range(100)]
        for n in (10, 100, 1000):
            delta = 1.0 / n
            mollified = line_measure(
                pieces=[(x - delta, x, mass / delta) for x, mass in m.atoms]
                + list(m.pieces)
            )
            qn = quantile(mollified)
            for t in ts:
                assert qn(t) <= q(t) + 1e-12


class TestJson:
    def test_round_trip(self):
        m = line_measure(atoms=[(0.5, 0.25)], pieces=[(1.0, 2.5, 0.5)])
        assert line_measure_from_json(line_measure_to_json(m)).isclose(m)


def _reference_cells(qs):
    """The merged-partition walk the vectorized ``_cells`` replaces: a
    ``bisect`` per quantile function and cell."""
    starts = [[s[0] for s in q.segments] for q in qs]
    breaks = sorted({0.0, 1.0, *(t for q in qs for s in q.segments for t in s[:2])})
    for t0, t1 in zip(breaks, breaks[1:]):
        yield t0, t1, [_reference_cell_values(q, st, t0, t1) for q, st in zip(qs, starts)]


def _reference_cell_values(q, starts, t0, t1):
    i = bisect_right(starts, t0) - 1
    s0, s1, v0, v1 = q.segments[i]

    def at(t):
        if t == s0:
            return v0
        if t == s1:
            return v1
        return v0 + (v1 - v0) * (t - s0) / (s1 - s0)

    return at(t0), at(t1)


def _reference_sq(p, r, width):
    return width * (p * p + p * r + r * r) / 3.0


def _reference_average(problem):
    segs = []
    for t0, t1, values in _reference_cells([quantile(m) for _, m in problem]):
        v0 = 0.0
        v1 = 0.0
        for (lam, _), (a0, a1) in zip(problem, values):
            v0 += lam * a0
            v1 += lam * a1
        segs.append((t0, t1, v0, max(v0, v1)))
    return tuple(segs)


def _reference_w2_squared(m1, m2):
    total = 0.0
    for t0, t1, ((a0, a1), (b0, b1)) in _reference_cells((quantile(m1), quantile(m2))):
        total += _reference_sq(a0 - b0, a1 - b1, t1 - t0)
    return total


def _reference_dispersion(problem):
    total = 0.0
    for t0, t1, values in _reference_cells([quantile(m) for _, m in problem]):
        width = t1 - t0
        second = 0.0
        mean0 = 0.0
        mean1 = 0.0
        for (lam, _), (a0, a1) in zip(problem, values):
            second += lam * _reference_sq(a0, a1, width)
            mean0 += lam * a0
            mean1 += lam * a1
        total += second - _reference_sq(mean0, mean1, width)
    return total


def _cell_walk_measure(rng, dyadic):
    """Atoms and density pieces, some atoms inside pieces. When ``dyadic``,
    every position, width and mass is a multiple of a power of 2, so the
    quantile breakpoints of different measures coincide exactly."""
    n_pieces, n_atoms = rng.randint(0, 3), rng.randint(0, 4)
    n_atoms += n_pieces == n_atoms == 0
    if dyadic:
        starts = sorted(rng.sample(range(-12, 12, 2), n_pieces))
        pieces = [(a, a + rng.choice([0.25, 0.5, 1.0, 2.0])) for a in starts]
    else:
        ends = sorted(rng.uniform(-3.0, 3.0) for _ in range(2 * n_pieces))
        pieces = list(zip(ends[::2], ends[1::2]))
    xs = []
    for _ in range(n_atoms):
        if pieces and rng.random() < 0.5:  # inside a piece
            a, b = rng.choice(pieces)
            xs.append(a + (b - a) * (rng.randint(1, 3) / 4 if dyadic else rng.random()))
        else:
            xs.append(rng.randint(-16, 16) / 4 if dyadic else rng.uniform(-4.0, 4.0))
    count = len(pieces) + len(xs)
    if dyadic:
        cuts = sorted(rng.sample(range(1, 16), count - 1))
        masses = [(b - a) / 16 for a, b in zip([0, *cuts], [*cuts, 16])]
    else:
        raw = [rng.random() + 0.05 for _ in range(count)]
        masses = [r / sum(raw) for r in raw]
    return line_measure(
        atoms=list(zip(xs, masses[len(pieces):])),
        pieces=[(a, b, m / (b - a)) for (a, b), m in zip(pieces, masses)],
    )


class TestCellWalk:
    """``average_quantile``, ``w2_line_squared`` and ``dispersion`` walk the
    merged partition in one vectorized pass; each must give the bits of the
    walk cell by cell."""

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_the_scalar_walk(self, seed):
        rng = random.Random(f"cells:{seed}")
        dyadic = seed % 2 == 0
        measures = [_cell_walk_measure(rng, dyadic) for _ in range(rng.randint(2, 4))]
        raw = [rng.random() + 0.1 for _ in measures]
        problem = [(r / sum(raw), m) for r, m in zip(raw, measures)]
        assert repr(average_quantile(problem).segments) == repr(_reference_average(problem))
        assert repr(dispersion(problem)) == repr(_reference_dispersion(problem))
        for m1 in measures:
            for m2 in measures:
                assert repr(w2_line_squared(m1, m2)) == repr(_reference_w2_squared(m1, m2))

    def test_cases_share_breakpoints_and_hold_atoms_in_pieces(self):
        shared = inside = 0
        for seed in range(0, 60, 2):
            rng = random.Random(f"cells:{seed}")
            measures = [_cell_walk_measure(rng, True) for _ in range(rng.randint(2, 4))]
            ts = [{t for s in quantile(m).segments for t in s[:2]} - {0.0, 1.0} for m in measures]
            shared += any(a & b for i, a in enumerate(ts) for b in ts[i + 1 :])
            inside += any(a < x < b for m in measures for x, _ in m.atoms for a, b, _ in m.pieces)
        assert shared >= 10 and inside >= 10


def _reference_quantile(m):
    """The tuple walk ``quantile`` replaces: one item per atom and per piece
    part, sorted by (start, atoms first), masses summed in that order."""
    atom_xs = [x for x, _ in m.atoms]
    items = [(x, 0, ("atom", x, mass)) for x, mass in m.atoms]
    for a, b, d in m.pieces:
        lo = a
        for c in [x for x in atom_xs if a < x < b]:
            items.append((lo, 1, ("piece", lo, c, d)))
            lo = c
        items.append((lo, 1, ("piece", lo, b, d)))
    items.sort(key=lambda it: (it[0], it[1]))
    segs = []
    t = 0.0
    for _, _, payload in items:
        if payload[0] == "atom":
            _, x, mass = payload
            segs.append([t, t + mass, x, x])
        else:
            _, a, b, d = payload
            segs.append([t, t + d * (b - a), a, b])
        t = segs[-1][1]
    segs[-1][1] = 1.0
    return tuple(tuple(s) for s in segs)


def _reference_call(segments, t):
    if t <= 0.0:
        return segments[0][2]
    if t >= 1.0:
        return segments[-1][3]
    i = bisect_right([s[0] for s in segments], t) - 1
    t0, t1, v0, v1 = segments[i]
    if t == t0:
        return v0
    return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def _reference_measure_from_quantile(segments):
    atoms = []
    pieces = []
    for t0, t1, v0, v1 in segments:
        w = t1 - t0
        if v1 == v0:
            atoms.append((v0, w))
        else:
            pieces.append((v0, v1, w / (v1 - v0)))
    return line_measure(atoms=atoms, pieces=pieces)


def _reference_clamp(segments, lo, hi):
    segs = []

    def push(t0, t1, v0, v1):
        if t1 > t0:
            segs.append((t0, t1, v0, v1))

    for t0, t1, v0, v1 in segments:
        if v1 <= lo:
            push(t0, t1, lo, lo)
            continue
        if v0 >= hi:
            push(t0, t1, hi, hi)
            continue
        ta, tb = t0, t1
        if v0 < lo:
            ta = t0 + (lo - v0) * (t1 - t0) / (v1 - v0)
            push(t0, min(ta, t1), lo, lo)
        if v1 > hi:
            tb = t0 + (hi - v0) * (t1 - t0) / (v1 - v0)
        ta = min(max(ta, t0), t1)
        tb = min(max(tb, t0), t1)
        push(ta, tb, max(v0, lo), min(v1, hi))
        if v1 > hi:
            push(max(tb, t0), t1, hi, hi)
    return tuple(segs)


def _clamp_bounds(rng, q):
    """Bounds below, above, around and inside the support, some cutting ramps."""
    lo, hi = q.lower, q.upper
    inside = sorted((q(rng.random()), q(rng.random())))
    return [
        (lo - 2.0, lo - 1.0),
        (hi + 1.0, hi + 2.0),
        (lo - 1.0, hi + 1.0),
        (lo, hi),
        tuple(inside),
        (inside[0], hi + 1.0),
        (lo - 1.0, inside[1]),
        tuple(sorted((rng.uniform(lo - 1, hi + 1), rng.uniform(lo - 1, hi + 1)))),
        (-0.0, 0.0) if lo < 0.0 else (0.0, 1.0),
    ]


class TestArrayCalculus:
    """``QuantileFn`` keeps four arrays; ``quantile``, ``q(t)``,
    ``measure_from_quantile`` and ``clamp_quantile`` must give the bits of
    the tuple walks they replace."""

    def _check(self, rng, q, reference, tally):
        assert repr(q.segments) == repr(reference)
        ts = [0.0, 1.0, -0.5, 1.5, *(rng.random() for _ in range(4)), *(s[0] for s in reference)]
        assert repr([q(t) for t in ts]) == repr([_reference_call(reference, t) for t in ts])
        assert repr(measure_from_quantile(q)) == repr(_reference_measure_from_quantile(reference))
        for lo, hi in _clamp_bounds(rng, q):
            if not lo < hi:
                continue
            c = clamp_quantile(q, lo, hi)
            assert repr(c.segments) == repr(_reference_clamp(reference, lo, hi))
            tally["cut"] += any(v0 < lo < v1 or v0 < hi < v1 for _, _, v0, v1 in reference)
            tally["below"] += hi < q.lower
            tally["above"] += lo > q.upper

    @pytest.mark.parametrize("block", range(4))
    def test_matches_the_tuple_walks(self, block):
        tally = dict.fromkeys(["atoms", "inside", "gap", "cut", "below", "above", "avg"], 0)
        for seed in range(75 * block, 75 * (block + 1)):
            rng = random.Random(f"arrays:{seed}")
            measures = [_cell_walk_measure(rng, seed % 2 == 0) for _ in range(4)]
            if seed % 5 == 0:
                measures[0] = line_measure(pieces=[(-0.0, 1.0, 0.5), (1.0, 2.0, 0.5)])
            for m in measures:
                reference = _reference_quantile(m)
                self._check(rng, quantile(m), reference, tally)
                tally["atoms"] += not m.pieces
                tally["inside"] += any(a < x < b for x, _ in m.atoms for a, b, _ in m.pieces)
                tally["gap"] += any(s[3] < t[2] for s, t in zip(reference, reference[1:]))
            raw = [rng.random() + 0.1 for _ in measures]
            q = average_quantile([(r / sum(raw), m) for r, m in zip(raw, measures)])
            self._check(rng, q, q.segments, tally)
            tally["avg"] += 1
        assert tally["avg"] == 75 and min(tally.values()) >= 20, tally


class TestPublicSurface:
    def test_exported_names(self):
        assert sorted(mgbary.__all__) == [
            "BarycenterProblem", "BranchTag", "CoverContext", "DiscreteMeasure", "Edge",
            "FixedPointResult", "GeodesicPath", "GraphMeasure", "GraphPoint",
            "GraphValidationError", "LineMeasure", "MeasureValidationError", "MetricGraph",
            "MgbaryError", "NonMinimizingEdgeError", "OrientedEdge", "ParseError",
            "QuantileFn", "RegularityReport", "RestrictionResult", "SolverConsistencyError",
            "SupportCapError", "TransportPlan", "average_quantile", "barycenter",
            "barycenter_line", "barycenter_problem", "build_graph", "candidate_support",
            "cdf_eval", "clamp_quantile", "classify_pair", "covering", "cut_points_from",
            "decompose_plan", "discrete_measure", "discrete_to_graph_measure", "discretize",
            "dispersion", "distance", "errors", "exceptional_set", "format_point",
            "graph_measure", "graph_measure_from_json", "graph_measure_to_json", "h_eval",
            "is_edge_minimizing", "lift_line_plan", "line_measure", "line_measure_from_json",
            "line_measure_to_json", "line_ot", "make_cover_context", "measure_from_quantile",
            "measure_on_edge_as_line", "metric_graph", "objective", "parse_point",
            "path_segment_lengths", "phi", "preimage_count", "quantile", "regularity_report",
            "restrict", "shortest_path", "solve_edge_fixed_point", "solve_lp",
            "support_bounds", "tolerances", "transport", "w2_graph", "w2_line",
            "w2_line_squared",
        ]

    def test_clamp_lives_in_line_ot(self):
        assert mgbary.clamp_quantile is mgbary.line_ot.clamp_quantile
        assert not hasattr(mgbary.barycenter, "clamp_quantile")

    def test_quantile_functions_compare_by_segments(self):
        segments = ((0.0, 0.25, -1.0, 0.0), (0.25, 1.0, 0.5, 0.5))
        q = quantile(line_measure(atoms=[(0.5, 0.75)], pieces=[(-1.0, 0.0, 0.25)]))
        same = QuantileFn(segments)
        assert q == same and hash(q) == hash(same)
        assert q != QuantileFn(((0.0, 1.0, 0.5, 0.5),))
        assert repr(q) == repr(same) == f"QuantileFn(segments={segments!r})"

    def test_arrays_are_read_only(self):
        q = QuantileFn(((0.0, 0.5, 0.0, 1.0), (0.5, 1.0, 1.0, 1.0)))
        with pytest.raises(ValueError):
            q.arrays[0][0] = 0.25
        assert q.segments == ((0.0, 0.5, 0.0, 1.0), (0.5, 1.0, 1.0, 1.0))
