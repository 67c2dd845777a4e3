"""Measures on the real line and their exact quantile calculus.

The measure class is deliberately small: finitely many atoms plus piecewise
constant densities with compact support. It is closed under quantile
averaging and clamping, so every operation here (CDF, quantile, the
quadratic transport distance, barycenters, dispersion) is evaluated in closed
form over merged breakpoint partitions, with no quadrature anywhere.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import MeasureValidationError
from .tolerances import MASS_TOL, _check_unit_mass, _check_weights
from .tolerances import _finite, _merge_atoms, _piece_values


@dataclass(frozen=True)
class LineMeasure:
    """A probability measure on the line: atoms plus piecewise-constant density.

    ``atoms`` holds ``(position, mass)`` pairs sorted by position; ``pieces``
    holds ``(a, b, density)`` over half-open intervals ``[a, b)`` with disjoint
    interiors. Build instances through :func:`line_measure`, which validates
    and canonicalizes.
    """

    atoms: tuple[tuple[float, float], ...] = ()
    pieces: tuple[tuple[float, float, float], ...] = ()

    def total_mass(self) -> float:
        return sum(m for _, m in self.atoms) + sum(
            d * (b - a) for a, b, d in self.pieces
        )

    def isclose(self, other: "LineMeasure", tol: float = MASS_TOL) -> bool:
        if len(self.atoms) != len(other.atoms) or len(self.pieces) != len(other.pieces):
            return False
        for (x1, m1), (x2, m2) in zip(self.atoms, other.atoms):
            if abs(x1 - x2) > tol or abs(m1 - m2) > tol:
                return False
        for (a1, b1, d1), (a2, b2, d2) in zip(self.pieces, other.pieces):
            if abs(a1 - a2) > tol or abs(b1 - b2) > tol or abs(d1 - d2) > tol:
                return False
        return True


def line_measure(
    atoms: Iterable[tuple[float, float]] = (),
    pieces: Iterable[tuple[float, float, float]] = (),
) -> LineMeasure:
    """Canonicalize and validate a line measure.

    Atoms at the same position are merged, zero-mass atoms and zero-width or
    zero-density pieces are dropped, adjacent pieces with equal density are
    fused, and the total mass must be 1 within ``UNIT_MASS_TOL``.
    """
    atoms_t = tuple(_merge_atoms(atoms, _finite, float))

    kept = []
    for a, b, d in pieces:
        a, b, d = _piece_values(a, b, d, "")
        if b <= a:
            if b < a - MASS_TOL:
                raise MeasureValidationError(f"piece with b < a: [{a!r}, {b!r})")
            continue
        if d > 0.0:
            kept.append((a, b, d))
    kept.sort()
    fused: list[list[float]] = []
    for a, b, d in kept:
        if fused and a < fused[-1][1] - MASS_TOL:
            raise MeasureValidationError(
                f"overlapping density pieces near {a!r}"
            )
        if fused and a <= fused[-1][1] + MASS_TOL and abs(d - fused[-1][2]) <= MASS_TOL * max(1.0, abs(d)):
            fused[-1][1] = b
        else:
            fused.append([a, b, d])
    pieces_t = tuple((a, b, d) for a, b, d in fused)

    m = LineMeasure(atoms=atoms_t, pieces=pieces_t)
    _check_unit_mass(m.total_mass())
    return m


def _merged_atoms(x: np.ndarray, mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions and masses of the atoms ``zip(x, mass)`` as
    :func:`line_measure` checks and keeps them: positive masses summed by
    position in the given order (``np.bincount``), sorted by position."""
    bad = ~(np.isfinite(x) & np.isfinite(mass) & (mass >= -MASS_TOL))
    if bad.any():
        i = int(np.argmax(bad))
        raise MeasureValidationError(f"atom at {float(x[i])!r} of mass {float(mass[i])!r}")
    x, mass = x[mass > 0.0], mass[mass > 0.0]
    _check_unit_mass(float(np.cumsum(np.concatenate(([0.0], mass)))[-1]))
    x, group = np.unique(x, return_inverse=True)
    return x, np.bincount(group, weights=mass)


def cdf_eval(m: LineMeasure, x: float) -> float:
    """Right-continuous distribution value: mass of (-inf, x]."""
    total = 0.0
    for pos, mass in m.atoms:
        if pos <= x:
            total += mass
    for a, b, d in m.pieces:
        if x > a:
            total += d * (min(x, b) - a)
    return total


def support_bounds(m: LineMeasure) -> tuple[float, float]:
    """(inf, sup) of the support; equals the range of the quantile function."""
    los = [x for x, _ in m.atoms] + [a for a, _, _ in m.pieces]
    his = [x for x, _ in m.atoms] + [b for _, b, _ in m.pieces]
    return min(los), max(his)


@dataclass(frozen=True)
class QuantileFn:
    """A nondecreasing, right-continuous, piecewise-linear map on (0, 1).

    ``segments`` holds contiguous ``(t0, t1, v0, v1)`` tuples covering [0, 1]:
    on [t0, t1) the value interpolates linearly from v0 to v1. Jumps between
    consecutive segments encode gaps in the support of the underlying measure;
    flat segments encode atoms; a segment of slope s > 0 encodes density 1/s.
    """

    segments: tuple[tuple[float, float, float, float], ...]

    def __post_init__(self):
        segs = self.segments
        if not segs:
            raise MeasureValidationError("quantile function needs at least one segment")
        if segs[0][0] != 0.0 or segs[-1][1] != 1.0:
            raise MeasureValidationError("quantile segments must cover [0, 1]")
        prev_t1 = None
        prev_v1 = None
        for t0, t1, v0, v1 in segs:
            if not t0 < t1:
                raise MeasureValidationError(f"empty quantile segment at t={t0!r}")
            if v1 < v0:
                raise MeasureValidationError(
                    f"decreasing quantile segment on [{t0!r}, {t1!r})"
                )
            if prev_t1 is not None and t0 != prev_t1:
                raise MeasureValidationError("quantile segments are not contiguous")
            if prev_v1 is not None and v0 < prev_v1 - MASS_TOL:
                raise MeasureValidationError("quantile function decreases across segments")
            prev_t1, prev_v1 = t1, v1

    @property
    def lower(self) -> float:
        """Limit value at 0 (the infimum of the support)."""
        return self.segments[0][2]

    @property
    def upper(self) -> float:
        """Limit value at 1 (the supremum of the support)."""
        return self.segments[-1][3]

    def __call__(self, t: float) -> float:
        if t <= 0.0:
            return self.lower
        if t >= 1.0:
            return self.upper
        starts = [s[0] for s in self.segments]
        i = bisect_right(starts, t) - 1
        t0, t1, v0, v1 = self.segments[i]
        if t == t0:
            return v0
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def quantile(m: LineMeasure) -> QuantileFn:
    """Exact quantile function of a line measure.

    Atoms become flat segments, density pieces become ramps, and support gaps
    become jumps; the output round-trips through
    :func:`measure_from_quantile`.
    """
    atom_xs = [x for x, _ in m.atoms]
    items: list[tuple[float, int, tuple]] = []
    for x, mass in m.atoms:
        items.append((x, 0, ("atom", x, mass)))
    for a, b, d in m.pieces:
        # split at atom positions strictly inside so ordering stays total
        cuts = [x for x in atom_xs if a < x < b]
        lo = a
        for c in cuts:
            items.append((lo, 1, ("piece", lo, c, d)))
            lo = c
        items.append((lo, 1, ("piece", lo, b, d)))
    items.sort(key=lambda it: (it[0], it[1]))

    segs = []
    t = 0.0
    for _, _, payload in items:
        if payload[0] == "atom":
            _, x, mass = payload
            t1 = t + mass
            segs.append([t, t1, x, x])
        else:
            _, a, b, d = payload
            mass = d * (b - a)
            t1 = t + mass
            segs.append([t, t1, a, b])
        t = t1
    _check_unit_mass(t, "quantile construction's mass")
    segs[-1][1] = 1.0
    return QuantileFn(tuple(tuple(s) for s in segs))


def measure_from_quantile(q: QuantileFn) -> LineMeasure:
    """The unique measure whose quantile function is ``q``.

    Equivalently, the pushforward of Lebesgue measure on (0, 1) under ``q``.
    """
    atoms = []
    pieces = []
    for t0, t1, v0, v1 in q.segments:
        w = t1 - t0
        if v1 == v0:
            atoms.append((v0, w))
        else:
            pieces.append((v0, v1, w / (v1 - v0)))
    return line_measure(atoms=atoms, pieces=pieces)


def _segments(q: QuantileFn) -> tuple[np.ndarray, ...]:
    """``q``'s segments as four arrays: t0, t1, v0, v1."""
    return tuple(np.array(q.segments, dtype=float).T)


def _flat_segments(x: np.ndarray, mass: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`_segments` of the quantile function of atoms at sorted distinct
    ``x``: ends the masses' running sums, the last 1.0, as in :func:`quantile`."""
    t = np.cumsum(np.concatenate(([0.0], mass)))
    _check_unit_mass(float(t[-1]), "quantile construction's mass")
    return t[:-1], np.concatenate((t[1:-1], [1.0])), x, x


def _cells(segments):
    """The merged breakpoint partition of quantile functions given by their
    :func:`_segments`: the cell ends ``t`` (``np.unique``) and, per function,
    its values at the cells' starts and ends. A cell lies in one segment
    (``np.searchsorted``): v0 at s0, v1 at s1, linear in between."""
    t = np.unique(np.concatenate([[0.0, 1.0], *(end for s in segments for end in s[:2])]))
    values = []
    for s in segments:
        i = np.searchsorted(s[0], t[:-1], side="right") - 1
        s0, s1, v0, v1 = (row[i] for row in s)
        values.append([
            np.where(x == s0, v0, np.where(x == s1, v1, v0 + (v1 - v0) * (x - s0) / (s1 - s0)))
            for x in (t[:-1], t[1:])
        ])
    return t, values


def _running_total(terms: np.ndarray) -> float:
    """``total = 0.0; total += term`` over ``terms`` in order."""
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


def _sq_integral(p, r, width):
    # integral over the cell of the square of the linear function with
    # endpoint values p and r
    return width * (p * p + p * r + r * r) / 3.0


def _w2_squared(s1, s2) -> float:
    """:func:`w2_line_squared` of two quantile functions' :func:`_segments`."""
    t, ((a0, a1), (b0, b1)) = _cells([s1, s2])
    return _running_total(_sq_integral(a0 - b0, a1 - b1, np.diff(t)))


def w2_line_squared(m1: LineMeasure, m2: LineMeasure) -> float:
    """Squared quadratic transport cost between two line measures.

    Computed as the exact integral of the squared quantile difference over the
    union of both breakpoint partitions.
    """
    return _w2_squared(_segments(quantile(m1)), _segments(quantile(m2)))


def w2_line(m1: LineMeasure, m2: LineMeasure) -> float:
    """Quadratic Wasserstein distance on the line, via quantile functions."""
    return math.sqrt(max(0.0, w2_line_squared(m1, m2)))


def _average(lams, segments):
    """Cell ends and the ``lams``-weighted average's values at cell starts and ends."""
    t, values = _cells(segments)
    v0 = v1 = 0.0
    for lam, (a0, a1) in zip(lams, values):
        v0 = v0 + lam * a0
        v1 = v1 + lam * a1
    return t, v0, np.where(v1 > v0, v1, v0)


def average_quantile(problem: Sequence[tuple[float, LineMeasure]]) -> QuantileFn:
    """Weighted average of the quantile functions of the given measures."""
    lams = [lam for lam, _ in problem]
    _check_weights(lams)
    t, v0, v1 = _average(lams, [_segments(quantile(m)) for _, m in problem])
    return QuantileFn(tuple(zip(t[:-1].tolist(), t[1:].tolist(), v0.tolist(), v1.tolist())))


def barycenter_line(problem: Sequence[tuple[float, LineMeasure]]) -> LineMeasure:
    """The unique quadratic barycenter of finitely many line measures.

    Its quantile function is the weighted average of the input quantile
    functions, so the result stays inside the atoms-plus-pieces class.
    """
    return measure_from_quantile(average_quantile(problem))


def dispersion(problem: Sequence[tuple[float, LineMeasure]]) -> float:
    """Pointwise quantile variance, integrated over (0, 1).

    Equals the optimal value of the barycenter objective: for any candidate
    measure the objective splits into this constant plus the squared distance
    to the barycenter.
    """
    lams = [lam for lam, _ in problem]
    _check_weights(lams)
    t, values = _cells([_segments(quantile(m)) for _, m in problem])
    width = np.diff(t)
    second = mean0 = mean1 = 0.0
    for lam, (a0, a1) in zip(lams, values):
        second = second + lam * _sq_integral(a0, a1, width)
        mean0 = mean0 + lam * a0
        mean1 = mean1 + lam * a1
    return _running_total(second - _sq_integral(mean0, mean1, width))


def line_measure_to_json(m: LineMeasure) -> dict:
    return {
        "atoms": [{"x": x, "mass": mass} for x, mass in m.atoms],
        "pieces": [{"a": a, "b": b, "density": d} for a, b, d in m.pieces],
    }


def line_measure_from_json(obj: dict) -> LineMeasure:
    try:
        atoms = [(rec["x"], rec["mass"]) for rec in obj.get("atoms", [])]
        pieces = [(rec["a"], rec["b"], rec["density"]) for rec in obj.get("pieces", [])]
    except (AttributeError, KeyError, TypeError) as exc:
        raise MeasureValidationError(f"malformed line measure record: {exc}") from None
    return line_measure(atoms=atoms, pieces=pieces)
