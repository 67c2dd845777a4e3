"""Measures on the real line and their exact quantile calculus.

The measure class is deliberately small: finitely many atoms plus piecewise
constant densities with compact support. It is closed under quantile
averaging and clamping, so every operation here (CDF, quantile, the
quadratic transport distance, barycenters, dispersion, and
:func:`clamp_quantile`, the clamp of the edge-supported barycenter
characterization) is evaluated in closed form over merged breakpoint
partitions, with no quadrature anywhere. A quantile function is four float
arrays, ``QuantileFn.arrays``; no other module reads them.
"""

from __future__ import annotations

import math
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


class QuantileFn:
    """A nondecreasing, right-continuous, piecewise-linear map on (0, 1).

    Built from contiguous ``(t0, t1, v0, v1)`` segments covering [0, 1]: on
    [t0, t1) the value interpolates linearly from v0 to v1. Jumps between
    consecutive segments encode gaps in the support of the underlying measure;
    flat segments encode atoms; a segment of slope s > 0 encodes density 1/s.
    ``arrays`` holds the four columns as read-only float arrays, ``segments``
    the same values as tuples; equality, hashing and ``repr`` go by segments.
    """

    __slots__ = ("arrays",)

    def __init__(self, segments):
        s = np.array(segments, dtype=float)
        if not len(s):
            raise MeasureValidationError("quantile function needs at least one segment")
        if s.shape[1:] != (4,):
            raise MeasureValidationError("quantile segments must be (t0, t1, v0, v1) tuples")
        s.flags.writeable = False
        t0, t1, v0, v1 = self.arrays = tuple(s.T)
        if not np.isfinite(s).all():
            raise MeasureValidationError("quantile segments must be finite")
        if t0[0] != 0.0 or t1[-1] != 1.0:
            raise MeasureValidationError("quantile segments must cover [0, 1]")
        if not (t0 < t1).all():
            raise MeasureValidationError(f"empty quantile segment at t={float(t0[t0 >= t1][0])!r}")
        if (v1 < v0).any():
            i = int(np.argmax(v1 < v0))
            raise MeasureValidationError(
                f"decreasing quantile segment on [{float(t0[i])!r}, {float(t1[i])!r})"
            )
        if (t0[1:] != t1[:-1]).any():
            raise MeasureValidationError("quantile segments are not contiguous")
        if (v0[1:] < v1[:-1] - MASS_TOL).any():
            raise MeasureValidationError("quantile function decreases across segments")

    @property
    def segments(self) -> tuple[tuple[float, float, float, float], ...]:
        return tuple(zip(*(a.tolist() for a in self.arrays)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.segments == other.segments

    def __hash__(self):
        return hash(self.segments)

    def __repr__(self):
        return f"QuantileFn(segments={self.segments!r})"

    @property
    def lower(self) -> float:
        """Limit value at 0 (the infimum of the support)."""
        return float(self.arrays[2][0])

    @property
    def upper(self) -> float:
        """Limit value at 1 (the supremum of the support)."""
        return float(self.arrays[3][-1])

    def __call__(self, t: float) -> float:
        if math.isnan(t):
            raise MeasureValidationError("quantile argument t is NaN")
        if t <= 0.0:
            return self.lower
        if t >= 1.0:
            return self.upper
        i = int(np.searchsorted(self.arrays[0], t, side="right")) - 1
        t0, t1, v0, v1 = (float(a[i]) for a in self.arrays)
        if t == t0:
            return v0
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def quantile(m: LineMeasure) -> QuantileFn:
    """Exact quantile function of a line measure.

    Atoms become flat segments, density pieces become ramps, and support gaps
    become jumps; the output round-trips through
    :func:`measure_from_quantile`.
    """
    x, mass = np.array(m.atoms, dtype=float).reshape(-1, 2).T
    a, b, d = np.array(m.pieces, dtype=float).reshape(-1, 3).T
    # split each piece at the atoms strictly inside it so ordering stays total
    piece, atom = np.nonzero((a[:, None] < x) & (x < b[:, None]))
    piece = np.concatenate((np.arange(len(a)), piece))
    start = np.concatenate((a, x[atom]))
    part = np.lexsort((start, piece))
    piece, start = piece[part], start[part]
    end = b[piece]  # or where the next part of the same piece starts
    same = piece[1:] == piece[:-1]
    end[:-1][same] = start[1:][same]
    # atoms before pieces starting at the same position, as segments
    v0, v1 = np.concatenate((x, start)), np.concatenate((x, end))
    order = np.lexsort((np.arange(len(v0)) >= len(x), v0))
    mass = np.concatenate((mass, d[piece] * (end - start)))
    t0, t1, _, _ = _flat_segments(v0[order], mass[order])
    return QuantileFn(np.stack((t0, t1, v0[order], v1[order]), axis=1))


def measure_from_quantile(q: QuantileFn) -> LineMeasure:
    """The unique measure whose quantile function is ``q``.

    Equivalently, the pushforward of Lebesgue measure on (0, 1) under ``q``:
    flat segments become atoms, ramps density pieces.
    """
    t0, t1, v0, v1 = q.arrays
    w = t1 - t0
    flat, ramp = v1 == v0, v1 != v0
    return line_measure(
        atoms=zip(v0[flat].tolist(), w[flat].tolist()),
        pieces=zip(v0[ramp].tolist(), v1[ramp].tolist(), (w[ramp] / (v1 - v0)[ramp]).tolist()),
    )


def clamp_quantile(q: QuantileFn, lo: float, hi: float) -> QuantileFn:
    """Pointwise median(lo, q, hi); stays monotone and piecewise linear.

    A segment below ``lo`` or above ``hi`` goes flat there; one crossing a
    bound splits where it crosses, into a part at ``lo``, a part between and
    a part at ``hi``, and the empty parts are dropped.
    """
    if not lo < hi:
        raise ValueError(f"clamp bounds must satisfy lo < hi, got {lo!r}, {hi!r}")
    t0, t1, v0, v1 = q.arrays
    below = v1 <= lo
    above = ~below & (v0 >= hi)
    # ta, tb: where the segment crosses lo and hi; t1 for both below, t0 above
    ta, tb = np.where(below, t1, t0), np.where(above, t0, t1)
    for cut, tx, bound in ((v0 < lo, ta, lo), (v1 > hi, tb, hi)):
        cut &= ~below & ~above
        tx[cut] = t0[cut] + (bound - v0[cut]) * (t1[cut] - t0[cut]) / (v1[cut] - v0[cut])
    ta, tb = np.clip(ta, t0, t1), np.clip(tb, t0, t1)
    lo_, hi_ = np.full_like(t0, lo), np.full_like(t0, hi)
    # the middle part's values are max(v0, lo) and min(v1, hi), to the signed zero
    parts = np.array([
        (t0, ta, lo_, lo_),
        (ta, tb, np.where(lo > v0, lo, v0), np.where(hi < v1, hi, v1)),
        (tb, t1, hi_, hi_),
    ]).transpose(2, 0, 1).reshape(-1, 4)
    return QuantileFn(parts[parts[:, 0] < parts[:, 1]])


def _flat_segments(x: np.ndarray, mass: np.ndarray) -> tuple[np.ndarray, ...]:
    """The ``arrays`` of the quantile function of atoms at sorted distinct
    ``x``: ends the masses' running sums, the last 1.0, as in :func:`quantile`."""
    t = np.cumsum(np.concatenate(([0.0], mass)))
    _check_unit_mass(float(t[-1]), "quantile construction's mass")
    return t[:-1], np.concatenate((t[1:-1], [1.0])), x, x


def _cells(segments):
    """The merged breakpoint partition of quantile functions given by their
    ``arrays``: the cell ends ``t`` (``np.unique``) and, per function,
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
    """:func:`w2_line_squared` of two quantile functions' ``arrays``."""
    t, ((a0, a1), (b0, b1)) = _cells([s1, s2])
    return _running_total(_sq_integral(a0 - b0, a1 - b1, np.diff(t)))


def w2_line_squared(m1: LineMeasure, m2: LineMeasure) -> float:
    """Squared quadratic transport cost between two line measures.

    Computed as the exact integral of the squared quantile difference over the
    union of both breakpoint partitions.
    """
    return _w2_squared(quantile(m1).arrays, quantile(m2).arrays)


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
    t, v0, v1 = _average(lams, [quantile(m).arrays for _, m in problem])
    return QuantileFn(np.stack((t[:-1], t[1:], v0, v1), axis=1))


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
    t, values = _cells([quantile(m).arrays for _, m in problem])
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
