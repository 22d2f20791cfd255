"""Mapping-class-group actions on the character varieties and the cat-map fixed families.

The Dehn twists and the cat map act by explicit polynomial automorphisms in
trace/unitary coordinates; those polynomials are kept exact (integer
coefficients) so that level preservation and fixed-point identities can be
verified with zero tolerance.  The s-parameterized fixed families have
rational trace tuples for rational s, again enabling exact checks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ConsistencyError, PoleError, ShapeMismatchError, UnrealizableError
from .jets import Jet, JetVector, jet_variables
from .varieties import LevelValue, Su2Point, Su3Point

__all__ = [
    "PolyAutomorphism",
    "FixedPointSample",
    "Su2FixedPoint",
    "tau_alpha",
    "tau_beta",
    "tau_beta_inv",
    "cat_map_su2",
    "cat_map_su3",
    "tau_alpha_poly",
    "tau_beta_poly",
    "tau_beta_inv_poly",
    "cat_map_su2_poly",
    "cat_map_su3_poly",
    "sphere_action",
    "SPHERE_GENERATORS",
    "fixed_family_su2",
    "fixed_family_su3",
    "su2_commutator_trace",
    "su3_commutator_trace",
    "level_of_s",
    "level_numerator_octic",
    "a_matrix",
    "b_matrix",
    "symmetric_square",
    "realizable_interval_su3",
]

# Thresholds of the matrix models (the README's threshold table).
UNITARY_TOL = 1e-12  #: b_matrix's 1 - |u|^2 may dip this far below 0 before B(s) leaves SU(2)
REALIZABLE_BISECT_TOL = 1e-13  #: the bracket width at which ``realizable_interval_su3`` stops bisecting
SPHERE_NORM_TOL = 1e-12  #: ``sphere_action`` normalizes, with a warning, a direction whose norm is off 1 by more


class PolyAutomorphism:
    """A polynomial self-map of R^n given componentwise by jets."""

    __slots__ = ("components",)

    def __init__(self, components: Sequence[Jet]):
        object.__setattr__(self, "components", JetVector(components))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("PolyAutomorphism is immutable")

    def __call__(self, point):
        return tuple(c.eval(list(point)) for c in self.components)

    def then(self, other: "PolyAutomorphism") -> "PolyAutomorphism":
        """Composite map x -> other(self(x)), with enough truncation headroom."""
        deg = self.components.trunc_degree * other.components.trunc_degree
        inner = [c.truncated(deg) for c in self.components]
        outer = JetVector(c.truncated(deg) for c in other.components)
        return PolyAutomorphism(outer.compose(inner, allow_constant=True))

    def __eq__(self, other):
        if not isinstance(other, PolyAutomorphism):
            return NotImplemented
        return self.components == other.components


# --------------------------------------------------------------------------
# SU(2) twists and the cat map
# --------------------------------------------------------------------------


def tau_alpha(p: Su2Point) -> Su2Point:
    """Dehn twist action (x, y, z) -> (x, z, xz - y)."""
    x, y, z = p.coords()
    return Su2Point(x, z, x * z - y)


def tau_beta_inv(p: Su2Point) -> Su2Point:
    """Inverse Dehn twist action (x, y, z) -> (xy - z, y, x)."""
    x, y, z = p.coords()
    return Su2Point(x * y - z, y, x)


def tau_beta(p: Su2Point) -> Su2Point:
    """Dehn twist action (x, y, z) -> (z, y, zy - x), solved from tau_beta_inv."""
    x, y, z = p.coords()
    return Su2Point(z, y, z * y - x)


def cat_map_su2(p: Su2Point) -> Su2Point:
    """(x, y, z) -> (z, zy - x, z(zy - x) - y)."""
    x, y, z = p.coords()
    w = z * y - x
    return Su2Point(z, w, z * w - y)


@lru_cache(maxsize=None)
def tau_alpha_poly(trunc_degree: int = 2) -> PolyAutomorphism:
    x, y, z = jet_variables(3, trunc_degree)
    return PolyAutomorphism([x, z, x * z - y])


@lru_cache(maxsize=None)
def tau_beta_poly(trunc_degree: int = 2) -> PolyAutomorphism:
    x, y, z = jet_variables(3, trunc_degree)
    return PolyAutomorphism([z, y, z * y - x])


@lru_cache(maxsize=None)
def tau_beta_inv_poly(trunc_degree: int = 2) -> PolyAutomorphism:
    x, y, z = jet_variables(3, trunc_degree)
    return PolyAutomorphism([x * y - z, y, x])


@lru_cache(maxsize=None)
def cat_map_su2_poly(trunc_degree: int = 3) -> PolyAutomorphism:
    x, y, z = jet_variables(3, trunc_degree)
    w = z * y - x
    return PolyAutomorphism([z, w, z * w - y])


# --------------------------------------------------------------------------
# SU(3) cat map in the 9 real unitary coordinates (x,X,y,Y,z,Z,t,T,U)
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def cat_map_su3_poly(trunc_degree: int = 3) -> PolyAutomorphism:
    x, X, y, Y, z, Z, t, T, U = jet_variables(9, trunc_degree)
    return PolyAutomorphism(
        [
            z,
            Z,
            t - x * y - X * Y + y * z - Y * Z,
            T - X * y + x * Y + Y * z + y * Z,
            x + t * z - y * z - x * y * z - X * Y * z + y * z * z - T * Z
            + X * y * Z - Y * Z - x * Y * Z - 2 * Y * z * Z - y * Z * Z,
            -X + T * z - X * y * z - Y * z + x * Y * z + Y * z * z + t * Z
            + y * Z - x * y * Z - X * Y * Z + 2 * y * z * Z - Y * Z * Z,
            y,
            -Y,
            U,
        ]
    )


def cat_map_su3(p):
    """Apply the 9-variable cat map to an Su3Point or a coordinate sequence."""
    if isinstance(p, Su3Point):
        out = cat_map_su3_poly()(p.coords9())
        return Su3Point(*out[:8], U=out[8], branch=p.branch)
    p = tuple(p)
    if len(p) == 8:
        return cat_map_su3_poly()(p + (0,))[:8]
    if len(p) != 9:
        raise ShapeMismatchError(f"expected 8 or 9 coordinates, got {len(p)}")
    return cat_map_su3_poly()(p)


# --------------------------------------------------------------------------
# Action on the sphere of directions at the SU(2) origin
# --------------------------------------------------------------------------

SPHERE_GENERATORS = {
    "tau_alpha": np.array([[1, 0, 0], [0, 0, 1], [0, -1, 0]], dtype=float),
    "tau_beta_inv": np.array([[0, 0, -1], [0, 1, 0], [1, 0, 0]], dtype=float),
    "M": np.array([[0, 0, 1], [-1, 0, 0], [0, -1, 0]], dtype=float),
}


def sphere_action(generator: str, d) -> np.ndarray:
    """Orthogonal action of a generator on a unit direction vector.

    generator is one of "tau_alpha", "tau_beta_inv", "M".  Non-unit input is
    normalized with a warning.
    """
    try:
        mat = SPHERE_GENERATORS[generator]
    except KeyError:
        raise KeyError(f"unknown generator {generator!r}; choose from {sorted(SPHERE_GENERATORS)}")
    v = np.asarray(d, dtype=float)
    n = float(np.linalg.norm(v))
    if abs(n - 1.0) > SPHERE_NORM_TOL:
        warnings.warn(f"sphere_action input has norm {n:.6g}; normalizing", stacklevel=2)
        v = v / n
    return mat @ v


# --------------------------------------------------------------------------
# Fixed-point families of the cat map
# --------------------------------------------------------------------------


_POLE = Fraction(1, 2)


def _check_pole(s):
    if s == _POLE or (not isinstance(s, Fraction) and s == 0.5):
        raise PoleError("the fixed family has a pole at s = 1/2")


@dataclass(frozen=True)
class Su2FixedPoint:
    """The SU(2) fixed point of parameter s over one denominator: every field is an integer but s.

    The traces are (x0, y0, z0) = (xn, yn, zn) / b with b > 0, and the level
    is kappa(x0, y0, z0) = level_n / b^4.  ``coords`` gives the exact
    traces; ``center`` gives their floats by ``int / int``, which rounds
    correctly, so each equals ``float`` of the reduced ``Fraction``.
    """

    s: Fraction
    b: int
    xn: int
    yn: int
    zn: int
    level_n: int

    def coords(self) -> tuple:
        return tuple(Fraction(n, self.b) for n in (self.xn, self.yn, self.zn))

    def center(self) -> tuple:
        return self.xn / self.b, self.yn / self.b, self.zn / self.b


def fixed_family_su2(s) -> Su2FixedPoint:
    """Trace tuple (2s, 2s/(2s-1), 2s) of the fixed representations A(s), B(s), and its level.

    Requires |s| <= 1 (realness of the A(s) eigenvalues) and the SU(2)
    realizability bound |u|^2 = 2 s^2 / ((2s-1)^2 (1+s)) <= 1 for B(s).
    Runs in integers from s = p/q: the checks are cross-multiplied, and with
    d = 2p - q the common denominator is b = q |d|, so xn = zn = 2p |d| and
    yn = 2pq sign(d).  An SU(2) row takes its fixed point, its level and its
    chart from this one call.
    """
    s = s if isinstance(s, Fraction) else Fraction(s)
    _check_pole(s)
    p, q = s.numerator, s.denominator
    if not -q <= p <= q:
        raise UnrealizableError(f"s = {s} outside [-1, 1]: A(s) leaves SU(2)")
    d = 2 * p - q
    if p == -q or 2 * p * p * q > d * d * (p + q):
        raise UnrealizableError(f"s = {s}: |u| > 1, B(s) leaves SU(2)")
    b = q * abs(d)
    xn, yn = 2 * p * abs(d), 2 * p * q if d > 0 else -2 * p * q
    level_n = b * b * (2 * xn * xn + yn * yn) - b * xn * xn * yn - 2 * b**4
    return Su2FixedPoint(s=s, b=b, xn=xn, yn=yn, zn=xn, level_n=level_n)


def su2_commutator_trace(s):
    """tr[A(s), B(s)] = 2 (8 s^4 - 12 s^3 + 2 s^2 + 4 s - 1) / (1 - 2 s)^2."""
    _check_pole(s)
    num = 8 * s**4 - 12 * s**3 + 2 * s**2 + 4 * s - 1
    return 2 * num / (1 - 2 * s) ** 2


def level_numerator_octic(s):
    """Numerator octic of the symmetric-square commutator trace."""
    return (
        256 * s**8 - 768 * s**7 + 704 * s**6 + 64 * s**5
        - 448 * s**4 + 192 * s**3 + 24 * s**2 - 24 * s + 3
    )


def su3_commutator_trace(s):
    """tr[A(s)^sym2, B(s)^sym2] as the printed octic over (1 - 2s)^4."""
    _check_pole(s)
    return level_numerator_octic(s) / (1 - 2 * s) ** 4


def level_of_s(s):
    """Level ell(s) of the SU(3) fixed point, in the printed product form."""
    _check_pole(s)
    f1 = -3 + 4 * s * (3 - 6 * s**2 + 4 * s**3)
    f2 = -1 + 4 * s * (1 + 2 * (-1 + s) * s * (-1 + 2 * s))
    return f1 * f2 / (1 - 2 * s) ** 4


@dataclass(frozen=True)
class FixedPointSample:
    """The SU(3) cat-map fixed point of parameter s with its level value, all exact."""

    s: Fraction
    su3_point: Su3Point
    level: LevelValue


def fixed_family_su3(s) -> FixedPointSample:
    """The fixed line (-1+4s^2, 0, -1+4s^2/(1-2s)^2, 0, <same>, <same>, 0) with level ell(s).

    Defined for every s != 1/2: the tuple is fixed by the cat map as a
    polynomial identity.  It corresponds to an actual SU(3) representation
    only when B(s) exists, i.e. inside realizable_interval bounds; callers
    that need membership should check the level against the deltoid.  s is
    made a ``Fraction`` first, so the point is exact; an SU(3) row takes its
    fixed point, its level and its chart from this one call.
    """
    s = s if isinstance(s, Fraction) else Fraction(s)
    _check_pole(s)
    a = -1 + 4 * s * s
    b = -1 + 4 * s * s / (1 - 2 * s) ** 2
    su3 = Su3Point(a, 0, b, 0, a, 0, b, 0, U=0, branch=1)
    return FixedPointSample(s=s, su3_point=su3, level=LevelValue(level_of_s(s), 0))


# --------------------------------------------------------------------------
# Matrix models A(s), B(s) and the symmetric square
# --------------------------------------------------------------------------


def a_matrix(s) -> np.ndarray:
    """A(s) = diag(s + i sqrt(1-s^2), s - i sqrt(1-s^2))."""
    s = float(s)
    if not -1.0 <= s <= 1.0:
        raise UnrealizableError(f"s = {s} outside [-1, 1]")
    r = complex(s, math.sqrt(1.0 - s * s))
    return np.array([[r, 0.0], [0.0, r.conjugate()]], dtype=complex)


def b_matrix(s) -> np.ndarray:
    """B(s) with Re u = s/(2s-1), Im u = s(1-s)/((2s-1) sqrt(1-s^2)), v = sqrt(1-|u|^2)."""
    s = float(s)
    _check_pole(s)
    if not -1.0 < s < 1.0:
        raise UnrealizableError(f"s = {s} outside (-1, 1)")
    re_u = s / (2 * s - 1)
    im_u = s * (1 - s) / ((2 * s - 1) * math.sqrt(1 - s * s))
    u = complex(re_u, im_u)
    v_sq = 1.0 - abs(u) ** 2
    if v_sq < -UNITARY_TOL:
        raise UnrealizableError(f"s = {s}: |u|^2 = {abs(u)**2:.6f} > 1")
    v = math.sqrt(max(0.0, v_sq))
    return np.array([[u, -v], [v, u.conjugate()]], dtype=complex)


def symmetric_square(mat2) -> np.ndarray:
    """Second symmetric power of a 2x2 matrix [[a,b],[c,d]]."""
    (a, b), (c, d) = np.asarray(mat2)
    return np.array(
        [
            [a * a, a * b, b * b],
            [2 * a * c, a * d + b * c, 2 * b * d],
            [c * c, c * d, d * d],
        ]
    )


def realizable_interval_su3() -> tuple[float, float]:
    """Endpoints around s = 0 where the symmetric-square level attains -1.

    The level ell(s) never crosses -1 (the real slice of the deltoid is
    [-1, 3]), so g(s) = octic(s) + (1-2s)^4 >= 0 touches zero tangentially at
    the endpoints.  They are therefore located as the simple roots of g'(s)
    nearest 0, by exact-rational bisection; g vanishing there is asserted by
    the tests.  Derived constants, about (-0.5405, 0.2597).
    """

    def g_prime(s: Fraction) -> Fraction:
        octic_d = (
            2048 * s**7 - 5376 * s**6 + 4224 * s**5 + 320 * s**4
            - 1792 * s**3 + 576 * s**2 + 48 * s - 24
        )
        return octic_d - 8 * (1 - 2 * s) ** 3

    def bisect(lo: Fraction, hi: Fraction) -> float:
        flo = g_prime(lo)
        if (flo > 0) == (g_prime(hi) > 0):
            raise ConsistencyError(f"bracket [{lo}, {hi}] must straddle the root")
        while hi - lo > Fraction(REALIZABLE_BISECT_TOL).limit_denominator(10**16):
            mid = (lo + hi) / 2
            fm = g_prime(mid)
            if fm == 0:
                return float(mid)
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        return float((lo + hi) / 2)

    left = bisect(Fraction(-3, 5), Fraction(-1, 2))
    right = bisect(Fraction(1, 4), Fraction(3, 10))
    return (left, right)
