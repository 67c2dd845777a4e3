"""Every numerical tolerance of the package, each defined once with its role,
and the shared checks of measure input. Checks are written ``not x <= tol``
so that NaN, which fails every comparison, is rejected.
"""

from __future__ import annotations

import math

from .errors import MeasureValidationError, ParseError

SNAP_TOL = 1e-12  # an offset this close to an edge endpoint is that vertex
LENGTH_TOL = 1e-9  # two lengths (offsets, route costs, branch-map values) agree
MASS_TOL = 1e-12  # slack on negative masses, piece overlaps and weight sums
UNIT_MASS_TOL = 1e-9  # a measure's total mass must be 1 within this
LP_ZERO_TOL = 1e-13  # LP solution entries below this are zero
MARGINAL_TOL = 1e-10  # largest marginal residual a solved coupling may have
REL_TOL = 1e-12  # relative slack of cell counts, minimizing-edge tests, LP dual certificates
HIGHS_TIGHT_TOL = 1e-10  # HiGHS feasibility and optimality tolerances of the one re-solve


def _finite(x, what: str = "atom position") -> float:
    x = float(x)
    if not math.isfinite(x):
        raise MeasureValidationError(f"non-finite {what} {x!r}")
    return x


def _atom_mass(m) -> float:
    m = _finite(m, "atom mass")
    if m < -MASS_TOL:
        raise MeasureValidationError(f"negative atom mass {m!r}")
    return m


def _merge_atoms(pairs, canonical, key):
    """Sum finite, non-negative masses by ``canonical`` location, sorted by
    ``key``; zero masses are dropped after their location is checked."""
    merged = {}
    for p, m in pairs:
        m = _atom_mass(m)
        cp = canonical(p)
        if m > 0.0:
            merged[cp] = merged.get(cp, 0.0) + m
    return sorted(merged.items(), key=lambda it: key(it[0]))


def _piece_values(a, b, d, where: str) -> tuple[float, float, float]:
    """A piece's bounds and density as finite floats, the density not negative
    and ``b`` not below ``a``."""
    a, b, d = float(a), float(b), float(d)
    if not all(map(math.isfinite, (a, b, d))):
        raise MeasureValidationError(f"non-finite piece [{a!r}, {b!r}) density {d!r}{where}")
    if d < -MASS_TOL:
        raise MeasureValidationError(f"negative density {d!r} on [{a!r}, {b!r}){where}")
    if b < a - MASS_TOL:
        raise MeasureValidationError(f"piece with b < a: [{a!r}, {b!r}){where}")
    return a, b, d


def _check_unit_mass(total: float, what: str = "total mass", tol: float = UNIT_MASS_TOL):
    if not abs(total - 1.0) <= tol:
        raise MeasureValidationError(f"{what} {total!r} is not 1")


def _check_grid(h: float) -> None:
    if not 0.0 < h < math.inf:
        raise MeasureValidationError(f"grid spacing must be positive and finite, got {h!r}")


def _check_weights(lams) -> None:
    """Barycenter weights: at least one, each positive, summing to 1."""
    if not lams:
        raise MeasureValidationError("barycenter problem with no measures")
    for lam in lams:
        if not lam > 0.0:
            raise MeasureValidationError(f"nonpositive weight {lam!r}")
    _check_unit_mass(sum(lams), "weight sum", MASS_TOL)


def _check_threshold(x: float, what: str) -> None:
    """A caller's stopping or flagging threshold: finite and not negative."""
    if not 0.0 <= x < math.inf:
        raise ParseError(f"{what} must be finite and not negative, got {x!r}")
