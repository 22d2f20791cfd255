"""Trace and unitary coordinates on the SU(2) and SU(3) character varieties of F2.

SU(2) points live in trace coordinates (x, y, z) = (tr_a, tr_b, tr_ab) with
boundary polynomial kappa.  SU(3) points live in 8 real unitary coordinates
(x, X, y, Y, z, Z, t, T) = (Re/Im of tr_a, tr_b, tr_ab, tr_ab^-1) plus the
imaginary part U of the commutator trace; the real part u = P/2 is derived.

The defining polynomials P and Q are entered in the 8 complex trace functions
(tr_a, tr_b, tr_ab, tr_ab^-1 and their inverse-word partners) with integer
coefficients and converted once, exactly, to real polynomials in the unitary
coordinates: the substitution tr = x + iX, tr^-1 = x - iX runs over the
integers with iX as a variable of its own, and each term's power of i is
applied afterwards.  The conversion checks that every imaginary part cancels,
which doubles as a transcription check on Q's 60-odd monomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from .errors import ConsistencyError, OffVarietyError, ShapeMismatchError
from .jets import Jet, jet_variables

__all__ = [
    "Su2Point",
    "Su3Point",
    "LevelValue",
    "kappa_su2",
    "kappa_poly",
    "su2_member",
    "trace_p_poly",
    "trace_q_poly",
    "p_poly",
    "q_poly",
    "h_poly",
    "poly_P",
    "poly_Q",
    "poly_H",
    "boundary_map_su3",
    "deltoid_discriminant",
    "deltoid_member",
    "su3_on_variety",
    "ON_VARIETY_TOL",
    "UNITARY_VARS",
]

#: Absolute tolerance for on-variety checks (degree-8 polynomials in double
#: precision lose about six digits worst case).
ON_VARIETY_TOL = 1e-9

#: Order of the real unitary coordinates used everywhere downstream.
UNITARY_VARS = ("x", "X", "y", "Y", "z", "Z", "t", "T")


# --------------------------------------------------------------------------
# SU(2)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Su2Point:
    """Traces (tr_a, tr_b, tr_ab) of an SU(2) representation class."""

    x: object
    y: object
    z: object

    def coords(self):
        return (self.x, self.y, self.z)


def kappa_su2(p) -> object:
    """Boundary trace x^2 + y^2 + z^2 - x*y*z - 2 of an SU(2) point."""
    x, y, z = p.coords() if isinstance(p, Su2Point) else p
    return x * x + y * y + z * z - x * y * z - 2


@lru_cache(maxsize=None)
def kappa_poly(trunc_degree: int = 3) -> Jet:
    """kappa as an exact integer-coefficient jet in (x, y, z)."""
    x, y, z = jet_variables(3, trunc_degree)
    return x * x + y * y + z * z - x * y * z - 2


def su2_member(p) -> bool:
    """True iff x, y, z and kappa(x, y, z) all lie in [-2, 2]."""
    x, y, z = p.coords() if isinstance(p, Su2Point) else p
    k = kappa_su2((x, y, z))
    return all(-2 <= v <= 2 for v in (x, y, z, k))


# --------------------------------------------------------------------------
# SU(3): defining polynomials in complex trace coordinates
# --------------------------------------------------------------------------

# Variable order for the complex trace polynomials:
#   (x, y, z, t, X, Y, Z, T)
# = (tr_a, tr_b, tr_ab, tr_ab^-1, tr_a^-1, tr_b^-1, tr_a^-1b^-1, tr_a^-1b).


@lru_cache(maxsize=None)
def trace_p_poly() -> Jet:
    x, y, z, t, X, Y, Z, T = jet_variables(8, 4)
    return (
        t * T - t * X * y - T * x * Y + x * X * y * Y + x * X
        - x * y * Z - X * Y * z + y * Y + z * Z - 3
    )


@lru_cache(maxsize=None)
def trace_q_poly() -> Jet:
    x, y, z, t, X, Y, Z, T = jet_variables(8, 6)
    q = (
        -2 * t**2 * x * Y + t**2 * X * Z + t**2 * y * z + t**3
        + t * T * x * X + t * T * y * Y + t * T * z * Z - 6 * t * T
        + t * x**2 * y + t * x**2 * Y**2 - t * x * X**2 * y - t * x * X * Y * Z
        - t * x * y * Y * z - 3 * t * x * z + t * x * Z**2
        + t * X**2 * z - t * X * y**2 * Y + 3 * t * X * y + t * X * Y**2
        + t * y**2 * Z + t * Y * z**2 - 3 * t * Y * Z + T**2 * x * z
        - 2 * T**2 * X * y + T**2 * Y * Z + T**3 - T * x**2 * X * Y
        + T * x**2 * Z - T * x * X * y * z + T * x * y**2
        - T * x * y * Y**2 + 3 * T * x * Y + T * X**2 * y**2 + T * X**2 * Y
        - T * X * y * Y * Z + T * X * z**2
        - 3 * T * X * Z - 3 * T * y * z + T * y * Z**2 + T * Y**2 * z
        + x**2 * X**2 * y * Y - x**2 * X * y * Z + x**2 * y**2 * z
        - x**3 * y * Y + x**2 * Y * z + x**3 - x * X**2 * Y * z
        + x * X * y**2 * Y**2 - x * X * y**3 + x * X * y * Y
        - x * X * Y**3 + x * X * z * Z - 6 * x * X - x * y**2 * Y * Z
        - 2 * x * y * z**2 + 3 * x * y * Z + x * Y**2 * Z
        - X**3 * y * Y + X**2 * y * Z + X**2 * Y**2 * Z + X**3 + X * y**2 * z
        - X * y * Y**2 * z + 3 * X * Y * z
        - 2 * X * Y * Z**2 + y**3 + y * Y * z * Z - 6 * y * Y + Y**3
        + z**3 - 6 * z * Z + Z**3 + 9
    )
    return q


def _unitary_jet(trace_poly: Jet) -> Jet:
    """A complex trace polynomial as an exact real polynomial in UNITARY_VARS.

    tr_a -> x + iX, tr_a^-1 -> x - iX (inverse traces are conjugates on
    SU(n)), and likewise for b, ab, ab^-1.  The substitution runs over the
    integers with X standing for iX (and Y, Z, T likewise), so a term of
    degree w in (X, Y, Z, T) carries i^w: its sign is (-1)^(w/2) for even w,
    and for odd w it is an imaginary part that must have cancelled.  As i^w is
    a unit, the terms come out, in order, as an expansion over Gaussian
    rationals gives them.
    """
    td = trace_poly.trunc_degree
    x, X, y, Y, z, Z, t, T = jet_variables(8, td)  # X stands for iX, and so on
    sub = [x + X, y + Y, z + Z, t + T, x - X, y - Y, z - Z, t - T]
    out = {}
    for e, c in trace_poly.compose(sub, allow_constant=True).coeffs.items():
        w = sum(e[1::2])
        if w % 4 >= 2:  # i^w is -1 or -i
            c = -c
        if w % 2:
            raise ConsistencyError(f"imaginary part failed to cancel at {e}: {c}i")
        out[e] = Fraction(c)
    return Jet(8, td, out)


@lru_cache(maxsize=None)
def p_poly() -> Jet:
    """P as an exact real polynomial in the 8 unitary coordinates (degree 4)."""
    return _unitary_jet(trace_p_poly())


@lru_cache(maxsize=None)
def q_poly() -> Jet:
    """Q as an exact real polynomial in the 8 unitary coordinates (degree 6)."""
    return _unitary_jet(trace_q_poly())


@lru_cache(maxsize=None)
def h_poly() -> Jet:
    """H = (P/2)^2 - Q, the implicit on-variety equation (degree 8)."""
    p = p_poly().truncated(8)
    q = q_poly().truncated(8)
    return p * p * Fraction(1, 4) - q


# --------------------------------------------------------------------------
# SU(3) points and the boundary (level) map
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Su3Point:
    """Unitary coordinates of an SU(3) representation class.

    U is the imaginary part of the commutator trace; its sign branch is not
    fixed globally on the variety, so it is carried as explicit state (+1
    chosen when U = 0).
    """

    x: object
    X: object
    y: object
    Y: object
    z: object
    Z: object
    t: object
    T: object
    U: object = 0
    branch: int = field(default=0)

    def __post_init__(self):
        if self.branch == 0:
            b = 1 if self.U >= 0 else -1
            object.__setattr__(self, "branch", b)
        elif self.branch not in (-1, 1):
            raise ValueError("branch must be +1 or -1")

    def coords8(self):
        return (self.x, self.X, self.y, self.Y, self.z, self.Z, self.t, self.T)

    def coords9(self):
        return self.coords8() + (self.U,)

    @property
    def u(self):
        """Real part of the commutator trace, P/2."""
        return poly_P(self) / 2


def _coords_of(coords) -> tuple:
    if isinstance(coords, Su3Point):
        return coords.coords8()
    coords = tuple(coords)
    if len(coords) == 9:
        coords = coords[:8]
    if len(coords) != 8:
        raise ShapeMismatchError(f"expected 8 unitary coordinates, got {len(coords)}")
    return coords


def _eval_or_compose(poly: Jet, coords):
    vals = _coords_of(coords)
    if any(isinstance(v, Jet) for v in vals):
        return poly.compose(list(vals), allow_constant=True)
    return poly.eval(vals)


def poly_P(coords):
    """P in unitary coordinates; scalar for scalar input, jet for jet input."""
    return _eval_or_compose(p_poly(), coords)


def poly_Q(coords):
    """Q in unitary coordinates; scalar for scalar input, jet for jet input."""
    return _eval_or_compose(q_poly(), coords)


def poly_H(coords):
    """H = (P/2)^2 - Q in unitary coordinates."""
    return _eval_or_compose(h_poly(), coords)


@dataclass(frozen=True)
class LevelValue:
    """A boundary value zeta + i*eta; eta = 0 and zeta in [-2, 2] for SU(2)."""

    zeta: object
    eta: object = 0

    def in_deltoid(self, tol: float = ON_VARIETY_TOL) -> bool:
        return deltoid_member(self.zeta, self.eta, tol)


def su3_on_variety(p: Su3Point, tol: float = ON_VARIETY_TOL) -> bool:
    """Check the defining constraint U^2 = Q - P^2/4 within tolerance."""
    P = poly_P(p)
    Q = poly_Q(p)
    return abs(p.U * p.U - (Q - P * P / 4)) <= tol


def boundary_map_su3(p: Su3Point, tol: float = ON_VARIETY_TOL) -> LevelValue:
    """Boundary trace (P/2, +/- sqrt(Q - P^2/4)); sign from the stored branch."""
    P = poly_P(p)
    Q = poly_Q(p)
    disc = Q - P * P / 4
    if disc < -tol:
        raise OffVarietyError(f"Q - P^2/4 = {float(disc):.3e} < 0: point is off the variety")
    eta = p.branch * math.sqrt(max(0.0, float(disc)))
    return LevelValue(P / 2, eta)


def deltoid_discriminant(zeta, eta):
    """|tau|^4 + 18|tau|^2 - 8 Re(tau^3) - 27 for tau = zeta + i*eta.

    This is the discriminant of w^3 - tau w^2 + conj(tau) w - 1; it is <= 0
    exactly when all three roots are unimodular, i.e. when tau is the trace
    of an SU(3) matrix.
    """
    m2 = zeta * zeta + eta * eta
    re_cube = zeta * zeta * zeta - 3 * zeta * eta * eta
    return m2 * m2 + 18 * m2 - 8 * re_cube - 27


def deltoid_member(zeta, eta, tol: float = ON_VARIETY_TOL) -> bool:
    """True iff zeta + i*eta is an admissible SU(3) boundary trace."""
    return deltoid_discriminant(zeta, eta) <= tol
