"""Local smooth charts at cat-map fixed points, and the map's degree-3 jets there.

SU(3): the 6-dimensional level set sits in 8 unitary coordinates, so two are
eliminated at the fixed point: t explicitly from P/2 = ell (a quadratic in t,
minus-branch square root picked by the center), then z implicitly from
H = (P/2)^2 - Q = 0 via fixed-slope Newton on jets.  The surviving chart
variables are (x, X, y, Y, Z, T), displacements from the fixed point; the cat
map's components are recentered and pushed through both eliminations, then
projected by forgetting the eliminated slots.

Recentering an exact polynomial at the fixed point is a Taylor shift: each
monomial c * x^e expands binomially in the displacements w = x - center and
is truncated at the chart's degree, with no jet products.  The expansion's
keys, binomials and truncation do not depend on s, so each polynomial's
expansion is recorded once per degree (and pattern of zero center
coordinates) as a plan of integer steps, and each row replays it with its
own center powers.  P, Q and the six kept cat-map components are recentered
and t-substituted once per chart, in one substitution call that builds the
powers of the t-jet once; the z-solve and the level residual read that one
P and Q, and H and the six components then take one z-call, which also
gives the H residual its input.  The chart takes the row's exact fixed
point, ``fixed_family_su3(s)``.

SU(2): the level set kappa = ell is a surface in (x, y, z); x is eliminated
from the quadratic kappa = ell (branch from the center) and (y, z) survive.
The chart takes the row's fixed point, already over one integer denominator.
An su2 scan makes the charts of up to ``pipelines.SU2_LANES`` rows together:
the float tail runs once on ``jets.Lanes`` coefficients, one float per row.

Everything stays exact until the square roots; chart jets have float
coefficients.  The exact parts run in integers, each jet scaled by one
positive denominator: a recentered polynomial is its plan's integer sums
over one common denominator, the SU(3) t-radicand is an integer jet, and
the SU(2) discriminant is written out as integer coefficients.  Each
converts by correctly rounded ``int / int`` division, which gives the float
``float(Fraction)`` gives, so no ``Fraction`` arithmetic runs per chart.
All eliminations and substitutions are degree-truncated at the chart's
truncation degree (default 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConsistencyError, DegenerateChartError, SingularChartError
from .jets import Jet, JetVector, Lanes, _isfinite, _monomials, jet_sqrt, jet_variables, unstack_lanes
# the fixed families are not called here (each chart takes its row's result), but
# perfbench/tracer.py looks them up in this module
from .mcg import FixedPointSample, Su2FixedPoint, cat_map_su3_poly, fixed_family_su2, fixed_family_su3  # noqa: F401
from .varieties import Su3Point, p_poly, q_poly

__all__ = [
    "ChartSpec",
    "ChartJet",
    "Su2ChartJet",
    "chart_spec",
    "solve_t",
    "solve_z_implicit",
    "chart_map_jet",
    "chart_linear_matrix",
    "su2_chart_map_jet",
    "CHART_VARS",
    "SEVEN_VARS",
]

#: Variables of the 7-dimensional space after the t-elimination.
SEVEN_VARS = ("x", "X", "y", "Y", "z", "Z", "T")

#: Chart variables after both eliminations.
CHART_VARS = ("x", "X", "y", "Y", "Z", "T")

# source index -> target index when a variable is dropped
_MAP_8_TO_7 = {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 7: 6}  # drop t (index 6)
_MAP_7_TO_6 = {0: 0, 1: 1, 2: 2, 3: 3, 5: 4, 6: 5}  # drop z (index 4)
_Z7 = 4  # index of z in the 7-variable space
_T8 = 6  # index of t in the 8-variable space

# The chart's verdict thresholds (the README's threshold table).
CHART_CONSTANT_TOL = 1e-10  #: an SU(3) or SU(2) chart-map constant term not below this fails the fixed point
DH_DZ_MIN = 1e-8  #: |dH/dz| at the center below this makes the implicit z-chart degenerate


@dataclass(frozen=True)
class ChartSpec:
    """Chart data at the s-parameterized SU(3) fixed point.

    Elimination order is fixed as (t, z); other orders are singular at these
    fixed points or unsupported (reproducibility of the jets depends on it).
    """

    s: Fraction
    center: Su3Point
    level: Fraction
    sqrt_branch: int
    trunc_degree: int = 3


def chart_spec(fp: FixedPointSample, trunc_degree: int = 3) -> ChartSpec:
    """Validate smoothness of the t-elimination at the exact fixed point ``fp = fixed_family_su3(s)``."""
    s, c = fp.s, fp.su3_point
    # P/2 = ell is quadratic in t with root t = (xy + XY) + branch * sqrt(R);
    # at the center R0 = (t0 - x0 y0)^2, so smoothness needs t0 != x0 y0
    gap = c.t - c.x * c.y
    if gap == 0:
        raise SingularChartError(f"s = {s}: radicand vanishes at the center, chart is singular")
    branch = 1 if gap > 0 else -1
    return ChartSpec(s=s, center=c, level=fp.level.zeta, sqrt_branch=branch, trunc_degree=trunc_degree)


def _center7(spec: ChartSpec) -> tuple:
    c = spec.center
    return (c.x, c.X, c.y, c.Y, c.z, c.Z, c.T)


def _center8(spec: ChartSpec) -> tuple:
    c = spec.center
    return (c.x, c.X, c.y, c.Y, c.z, c.Z, c.t, c.T)


def _translate(poly: Jet, centers, trunc_degree: int) -> tuple[Jet, int]:
    """Recenter an exact polynomial: poly(center + w) as a truncated jet in w.

    A Taylor shift: each monomial c * x^e of the rational polynomial becomes
    c * prod_i sum_j C(e_i, j) c_i^(e_i - j) w_i^j, dropping every term above
    the truncation degree.  The polynomial keeps its full degree going in
    (high-order terms feed the low-order jet coefficients through the shift);
    only the result truncates.  Sums run in integers over one common
    denominator, and the result is that pair ``(num, den)``: an integer jet
    and a positive integer with poly(center + w) = num / den.  No coefficient
    is reduced; the float consumers divide ``int / int`` (see ``_recentered``).

    With each integer read as ``Fraction(n, den)``, the result equals
    ``poly.compose([w_i + c_i], allow_constant=True)`` item for item,
    insertion order included: variables nest in index order with the
    first outermost, j runs downwards (the order of the powers of w_i + c_i),
    and terms add into one dict that drops a key when its sum cancels.  The
    order fixes the float summation order of the substitutions downstream, so
    it keeps reports byte-identical; ascending j gives equal jets but moves
    report floats in their last digits.

    The expansion's bookkeeping does not depend on the center, only on which
    center coordinates are zero, so it is recorded once as a :class:`_ShiftPlan`
    and replayed: with c_i = a_i / b_i, step (key, W, k) adds the integer
    ``W * prod_i a_i^k_i b_i^(top_i - k_i)``, the same integer the expansion
    sums at that step.
    """
    nums = [c.numerator for c in centers]
    dens = [c.denominator for c in centers]
    plan = _shift_plan(_Same(poly), trunc_degree, tuple(not a for a in nums))
    # factors[n][m] = a_i^m b_i^(top_i - m) for the n-th nonzero coordinate i;
    # a zero coordinate (a_i = 0, b_i = 1) always has k_i = 0 and factor 1
    factors = [[nums[i] ** m * dens[i] ** (plan.top[i] - m) for m in range(plan.top[i] + 1)] for i in plan.live]
    shifted = [math.prod(map(list.__getitem__, factors, k)) for k in plan.center_powers]
    sums: dict[int, int] = {}
    get, pop = sums.get, sums.pop
    for key, weight, m in plan.steps:
        total = get(key, 0) + weight * shifted[m]
        if total:
            sums[key] = total
        else:
            pop(key, None)
    den = plan.coeff_den * math.prod(map(pow, dens, plan.top))
    return Jet._raw(poly.num_vars, trunc_degree, sums), den


def _recentered(spec: ChartSpec, poly: Jet, minus=0) -> Jet:
    """The float jet of ``poly`` recentered at the fixed point, less ``minus``, or an OverflowError naming s.

    The integer jet of ``_translate`` takes ``minus`` over the common
    denominator ``lcm``; each coefficient is then one correctly rounded
    ``int / int``, so the result equals ``(exact - minus).map_coefficients(float)``
    item for item, with ``exact`` the rational recentered jet: the constant
    changes in place, is appended when absent or drops when it cancels, and
    a coefficient that underflows to 0.0 drops.
    """
    num, den = _translate(poly, _center8(spec), spec.trunc_degree)
    lcm = math.lcm(den, minus.denominator)
    if lcm != den:
        num = num * (lcm // den)
    try:
        return (num - minus.numerator * (lcm // minus.denominator)).map_coefficients(lambda n: n / lcm)
    except OverflowError:
        raise OverflowError(f"s = {spec.s}: recentering at the fixed point overflows a double") from None


class _Same:
    """A polynomial compared by identity, so a cache keyed by it holds it and hashes in O(1)."""

    __slots__ = ("poly",)

    def __init__(self, poly: Jet):
        self.poly = poly

    def __hash__(self):
        return id(self.poly)

    def __eq__(self, other):
        return self.poly is other.poly


@dataclass(frozen=True)
class _ShiftPlan:
    """The recorded Taylor shift of one polynomial at one degree and zero pattern.

    ``top[i]`` is the highest exponent of variable i, ``coeff_den`` the lcm
    of the coefficient denominators and ``live`` the nonzero center
    coordinates.  Each step ``(key, W, m)`` is one term of the expansion, in
    expansion order: ``key`` is its code in the result's shape,
    ``W = c_num * (coeff_den / c_den) * prod_i C(e_i, j_i)`` and
    ``center_powers[m]`` is ``k = e - j``, its power of the center, on the
    live coordinates.
    """

    top: tuple
    coeff_den: int
    live: tuple
    center_powers: list
    steps: list


@lru_cache(maxsize=64)
def _shift_plan(same: _Same, trunc_degree: int, zero: tuple) -> _ShiftPlan:
    """Record the expansion of ``_translate`` for centers whose zero coordinates are ``zero``.

    A zero coordinate contributes only its j = e_i term (every other factor
    has a power of 0), so steps with k_i > 0 there are left out.  A term
    carries its key as a code, adding ``j * weights[i]`` per variable, and its
    center power k as one integer with digit k_i in base ``top_i + 1`` on the
    live coordinates; a variable with e_i = 0 leaves both as they are.
    """
    coeffs = same.poly.coeffs
    nv = same.poly.num_vars
    top = tuple(max((e[i] for e in coeffs), default=0) for i in range(nv))
    coeff_den = math.lcm(*(c.denominator for c in coeffs.values()))
    weights = _monomials(nv, trunc_degree).weights
    live = tuple(i for i in range(nv) if not zero[i])
    place = [0] * nv  # the center power's digit value of each live coordinate
    p = 1
    for i in live:
        place[i] = p
        p *= top[i] + 1
    shifts: dict[tuple, list] = {}  # (i, e_i) -> [(key part, j, C(e_i, j), center power part)]
    index: dict[int, int] = {}
    steps = []
    for exps, c in coeffs.items():
        terms = [(0, 0, c.numerator * (coeff_den // c.denominator), 0)]
        for i, e in enumerate(exps):
            if not e:
                continue
            row = shifts.get((i, e))
            if row is None:
                js = (e,) if zero[i] else range(e, -1, -1)
                row = shifts[i, e] = [(j * weights[i], j, math.comb(e, j), (e - j) * place[i]) for j in js]
            terms = [
                (key + dk, deg + j, w * f, k + dp)
                for key, deg, w, k in terms
                for dk, j, f, dp in row
                if deg + j <= trunc_degree
            ]
        for key, _, w, k in terms:
            steps.append((key, w, index.setdefault(k, len(index))))
    center_powers = [tuple(k // place[i] % (top[i] + 1) for i in live) for k in index]
    return _ShiftPlan(top=top, coeff_den=coeff_den, live=live, center_powers=center_powers, steps=steps)


@lru_cache(maxsize=32)
def _p_no_t_7() -> Jet:
    """P with t set to zero, as a polynomial in the 7 remaining variables."""
    coeffs = {}
    for e, c in p_poly().coeffs.items():
        if e[_T8] == 0:
            coeffs[e[:_T8] + e[_T8 + 1 :]] = c
    return Jet(7, p_poly().trunc_degree, coeffs)


def _finite_sqrt(radicand: Jet, s) -> Jet:
    """``jet_sqrt(radicand)``, or SingularChartError when a constant term too small for 1 / it makes the root not finite."""
    root = jet_sqrt(radicand)
    if not all(map(_isfinite, root._coded.values())):
        raise SingularChartError(f"s = {s}: radicand at the center is too small for double precision")
    return root


def solve_t(spec: ChartSpec) -> Jet:
    """Degree-3 jet of t over (x, X, y, Y, z, Z, T) displacements from the center.

    P is quadratic in t: P = t^2 - 2(xy + XY) t + C with C = P|_{t=0}, so
    P/2 = ell solves to t = (xy + XY) + branch * sqrt(R) with
    R = (xy + XY)^2 + 2*ell - C.  The branch makes the constant term equal
    the center's t-coordinate; at the center R = (t0 - x0 y0)^2 exactly.

    The exact part runs in integers, as in ``su2_chart_map_jet``: with b the
    common denominator of x0 and y0, the centered xy + XY is an integer jet
    over b^2, and the radicand one over den, a multiple of b^4, of 2*ell's
    denominator and of the recentered C's.  They go through the jet
    operations of the rational computation with each term scaled by a
    positive integer, so keys cancel and reappear at the same steps, and
    int / int rounds to the same float as float(Fraction).
    """
    td = spec.trunc_degree
    centers = _center7(spec)
    x0, _, y0, _, _, _, _ = centers
    b = math.lcm(x0.denominator, y0.denominator)
    xn, yn = x0.numerator * (b // x0.denominator), y0.numerator * (b // y0.denominator)
    b2, b4 = b * b, b**4
    w = jet_variables(7, td, coeff_one=b)
    a_jet = (w[0] + xn) * (w[2] + yn) + w[1] * w[3]  # b^2 (xy + XY), centered
    c_jet, c_den = _translate(_p_no_t_7(), centers, td)
    level2 = 2 * spec.level
    den = math.lcm(b4, level2.denominator, c_den)
    radicand = a_jet * a_jet * (den // b4) + level2.numerator * (den // level2.denominator) - c_jet * (den // c_den)
    r0 = radicand.constant_term()
    if r0 <= 0:
        raise SingularChartError(f"s = {spec.s}: radicand {Fraction(r0, den)} <= 0 at the center")
    t0 = spec.center.t
    g = math.lcm(t0.denominator, b2)
    gap_n = t0.numerator * (g // t0.denominator) - xn * yn * (g // b2)  # g (t0 - x0 y0)
    if gap_n * gap_n * den != r0 * g * g:
        raise ConsistencyError(f"s = {spec.s}: center must satisfy P/2 = ell exactly")
    radicand = radicand.map_coefficients(lambda n: n / den)
    if not radicand.constant_term():
        raise SingularChartError(f"s = {spec.s}: radicand at the center underflows to 0.0")
    root = _finite_sqrt(radicand, spec.s)
    return a_jet.map_coefficients(lambda n: n / b2) + root * float(spec.sqrt_branch)


def _substituted_pq(spec: ChartSpec, t_jet: Jet) -> JetVector:
    """P, Q and the kept cat-map components (less their center coordinates) recentered, t-substituted in one call."""
    t_disp = t_jet - t_jet.constant_term()
    centers8 = _center8(spec)
    kept = zip(_KEEP_COMPONENTS, _cat_map_8(spec.trunc_degree))
    centered = [_recentered(spec, p_poly()), _recentered(spec, q_poly())]
    centered += [_recentered(spec, poly8, centers8[i]) for i, poly8 in kept]
    return JetVector(centered).substitute_variable(_T8, t_disp, _MAP_8_TO_7)


def _h_tilde(p7: Jet, q7: Jet) -> Jet:
    """H = (P/2)^2 - Q from the recentered, t-substituted P and Q (7 variables).

    The recentered P carries constant P(center) = 2*ell, so no level shift is
    needed here; the constant of the result is ell^2 - Q(center) = 0.
    """
    half_p = p7 * 0.5
    return half_p * half_p - q7


def solve_z_implicit(spec: ChartSpec, h: Jet) -> Jet:
    """Degree-3 jet of z over (x, X, y, Y, Z, T), from H = 0 by implicit differentiation.

    ``h`` is H after the t-substitution (7 variables, see ``_h_tilde``).
    Fixed-slope Newton on jets gains one degree of accuracy per sweep, so
    trunc_degree + 1 sweeps determine the jet completely.  The implicit
    function theorem hypothesis dH/dz != 0 is checked numerically, after H
    is checked to be finite (its coefficients overflow for |s| >~ 1e24).
    """
    if not all(map(math.isfinite, h._coded.values())):
        raise OverflowError(f"s = {spec.s}: H = (P/2)^2 - Q overflows a double")
    td = spec.trunc_degree
    e_z = tuple(1 if i == _Z7 else 0 for i in range(7))
    slope = float(h.coefficient(e_z))
    if abs(slope) < DH_DZ_MIN:
        raise DegenerateChartError(
            f"s = {spec.s}: dH/dz = {slope:.3e} at the center, implicit chart degenerates"
        )
    zeta = Jet.zero(6, td)
    for _ in range(td + 1):
        residual = h.substitute_variable(_Z7, zeta, _MAP_7_TO_6)
        zeta = zeta - residual * (1.0 / slope)
        zeta = zeta - zeta.constant_term()
    return zeta + float(spec.center.z)


@dataclass(frozen=True)
class ChartJet:
    """Jets of the eliminated variables and of the cat map in chart coordinates.

    ``p7`` is P recentered with the t-jet substituted (7 variables) and
    ``h6`` is H after both eliminations (6 variables), kept from the chart
    build for the residual diagnostics.
    """

    spec: ChartSpec
    t_jet: Jet
    z_jet: Jet
    map_jet: JetVector
    p7: Jet
    h6: Jet

    def residual_h(self) -> float:
        """Largest coefficient of H after substituting both eliminations."""
        return max((abs(c) for c in self.h6._coded.values()), default=0.0)

    def residual_level(self) -> float:
        """Largest coefficient of P/2 - ell after the t-substitution."""
        diff = self.p7 * 0.5 - float(self.spec.level)
        return max((abs(v) for v in diff._coded.values()), default=0.0)


_KEEP_COMPONENTS = (0, 1, 2, 3, 5, 7)  # x', X', y', Y', Z', T'


@lru_cache(maxsize=8)
def _cat_map_8(trunc_degree: int) -> tuple[Jet, ...]:
    """The kept cat-map components as polynomials in the 8 unitary coordinates.

    The cat map is cubic: built at its full degree, like P and Q, so
    recentering a chart below degree 3 still sees its cubic terms.  Cached,
    so each row recenters the same objects and reuses their shift plans.
    """
    cat_map = cat_map_su3_poly(max(trunc_degree, 3))
    out = []
    for i in _KEEP_COMPONENTS:
        poly9 = cat_map[i]
        # the first eight components never involve U: drop that variable
        coeffs = {}
        for e, v in poly9.coeffs.items():
            if e[8] != 0:
                raise ConsistencyError(f"cat-map component {i} involves U")
            coeffs[e[:8]] = v
        out.append(Jet(8, poly9.trunc_degree, coeffs))
    return tuple(out)


def _chart_map_jet_cached(spec: ChartSpec) -> ChartJet:
    t_jet = solve_t(spec)
    p7, q7, *map7 = _substituted_pq(spec, t_jet)
    h7 = _h_tilde(p7, q7)
    z_jet = solve_z_implicit(spec, h7)
    zeta = z_jet - z_jet.constant_term()
    # t is substituted (8 -> 7 variables); now z (7 -> 6): elimination order
    h6, *g6 = JetVector([h7, *map7]).substitute_variable(_Z7, zeta, _MAP_7_TO_6)
    return ChartJet(spec=spec, t_jet=t_jet, z_jet=z_jet, map_jet=_centered_map(g6, spec.s), p7=p7, h6=h6)


def _centered_map(comps, s, centers=None) -> JetVector:
    """The chart map's components without their constants.

    Each constant, less its ``centers`` entry when given, must be below
    ``CHART_CONSTANT_TOL`` (NaN fails).  Dropping key 0 leaves the items, in
    order, that subtracting the constant leaves.
    """
    out = []
    for i, comp in enumerate(comps):
        const = comp.constant_term() if centers is None else comp.constant_term() - centers[i]
        if not abs(const) < CHART_CONSTANT_TOL:
            raise ConsistencyError(f"s = {s}: chart map constant term {const} should vanish")
        coded = dict(comp._coded)
        coded.pop(0, None)
        out.append(Jet._raw(comp.num_vars, comp.trunc_degree, coded))
    return JetVector(out)


# A scan builds each chart once; ``--golden`` looks up the degree-3 chart at
# the file's s once more for its jet checks (``cli.compare_golden``, which
# runs right after the scan's row at that s, or else builds the chart and
# then makes that row itself), so one entry keyed by the fixed point is
# enough: the second lookup of that chart is always a hit.
@lru_cache(maxsize=1)
def _chart_cache(fp: FixedPointSample, trunc_degree: int) -> ChartJet:
    return _chart_map_jet_cached(chart_spec(fp, trunc_degree))


def chart_map_jet(fp: FixedPointSample, trunc_degree: int = 3) -> ChartJet:
    """Jet of the cat map in the 6 chart variables at the fixed point ``fp = fixed_family_su3(s)``."""
    return _chart_cache(fp, trunc_degree)


def chart_linear_matrix(chart: ChartJet) -> np.ndarray:
    """Linearization of the chart map at the fixed point (n x n real; entry (i, j) is d comp_i / d var_j)."""
    weights = _monomials(chart.map_jet.num_vars, chart.map_jet.trunc_degree).weights
    return np.array([[float(comp._coded.get(w, 0)) for w in weights] for comp in chart.map_jet])


# --------------------------------------------------------------------------
# SU(2): 2D chart on the level surface kappa = ell
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Su2ChartJet:
    """x-elimination jet and the cat-map jet in (y, z) displacements."""

    fixed_point: Su2FixedPoint
    x_jet: Jet
    map_jet: JetVector


def _float_jet2(trunc_degree: int, exps, rows) -> Jet:
    """The (y, z) jet of the ``int / int`` quotients ``nums[i] / den`` at the monomials ``exps[i]`` up to the degree.

    ``rows`` holds one ``(nums, den)`` per row; each coefficient is the
    :class:`Lanes` of the rows' quotients (the quotient itself for one row).
    A quotient of 0.0 drops, as in ``map_coefficients``.
    """
    encode = _monomials(2, trunc_degree).encode
    coded = {}
    for i, e in enumerate(exps):
        if sum(e) <= trunc_degree:
            v = Lanes.of([nums[i] / den for nums, den in rows])
            if v:
                coded[encode(e)] = v
    return Jet._raw(2, trunc_degree, coded)


# the monomials of the integer terms of b^4 disc and b^2 yz, in the key order the
# jet products of the rational computation give
_DISC_EXPS = ((2, 2), (2, 1), (1, 2), (1, 1), (2, 0), (1, 0), (0, 2), (0, 1), (0, 0))
_YZ_EXPS = ((1, 1), (1, 0), (0, 1), (0, 0))


def _su2_chart_integers(p0: Su2FixedPoint) -> tuple:
    """The exact part of one SU(2) chart: its branch, and ``(nums, den)`` of disc and yz at the ``_*_EXPS``."""
    s, b, xn, yn, zn = p0.s, p0.b, p0.xn, p0.yn, p0.zn
    gap_n = 2 * xn * b - yn * zn  # b^2 * (2 x0 - y0 z0)
    if gap_n == 0:
        raise SingularChartError(
            f"s = {s}: 2x - yz = 0 at the fixed point (origin blow-up), chart is singular"
        )
    b2, b3, b4 = b * b, b**3, b**4
    ys, zs = yn * yn - 4 * b2, zn * zn - 4 * b2
    disc0 = yn * yn * zn * zn - 4 * b2 * (yn * yn + zn * zn - 2 * b2) + 4 * p0.level_n
    if disc0 != gap_n * gap_n:
        raise ConsistencyError(f"s = {s}: discriminant at the center must be (2x - yz)^2")
    disc = [b4, 2 * b3 * zn, 2 * b3 * yn, 4 * b2 * yn * zn, b2 * zs, 2 * b * yn * zs, b2 * ys, 2 * b * zn * ys, disc0]
    branch = 1.0 if gap_n > 0 else -1.0
    return branch, (disc, b4), ([b2, b * zn, b * yn, yn * zn], b2)


def su2_chart_map_jet(p0, trunc_degree: int = 3):
    """Chart of the SU(2) cat map on kappa = ell at the fixed point ``p0 = fixed_family_su2(s)``.

    kappa = ell is quadratic in x: x^2 - yz x + (y^2 + z^2 - 2 - ell) = 0, so
    x = (yz + branch*sqrt(disc))/2 with disc = (yz)^2 - 4(y^2 + z^2 - 2 - ell);
    at the center disc = (2 x0 - y0 z0)^2, which must be positive (it vanishes
    only at the blown-up origin s = 0).

    The exact part runs in integers, from the fixed point's b, xn, yn, zn and
    level_n (see ``Su2FixedPoint``): at (y, z) = (yn + b u, zn + b v) / b,
    b^4 disc and b^2 yz are polynomials in the displacements (u, v) with
    integer coefficients, written out monomial by monomial in the key order
    the jet products of the rational computation give, and y and z are u
    and v plus y0 = yn / b and z0 = zn / b.  Each float coefficient is one
    ``int / int``, which rounds as ``float(Fraction)`` does, so every float
    is unchanged.  The float tail (square root, products and constant
    checks) is jet arithmetic.

    ``p0`` may also be a list of fixed points.  The exact part runs per
    point; the float tail runs once for all of them, each coefficient a
    :class:`jets.Lanes` of one float per point, and the list of their
    charts returns, each the chart of its point alone.  Points that
    disagree on a zero test whose value is used again raise
    ``jets.LanesDisagree``.
    """
    points = [p0] if isinstance(p0, Su2FixedPoint) else p0
    s = points[0].s if len(points) == 1 else [p.s for p in points]
    branch, disc, yz = zip(*map(_su2_chart_integers, points))
    disc = _float_jet2(trunc_degree, _DISC_EXPS, disc)
    if not disc.constant_term():
        raise SingularChartError(f"s = {s}: discriminant at the center underflows to 0.0")
    yz = _float_jet2(trunc_degree, _YZ_EXPS, yz)
    x_jet = yz + _finite_sqrt(disc, s) * Lanes.of(branch)
    x_jet = x_jet * 0.5
    # the fixed point's y0 and z0: the constants of y and z, less which the images' constants must vanish
    centers = [Lanes.of([p.yn / p.b for p in points]), Lanes.of([p.zn / p.b for p in points])]
    yf, zf = (Jet.variable(i, 2, trunc_degree, 1.0) + c for i, c in enumerate(centers))
    y_image = zf * yf - x_jet
    map_jet = _centered_map((y_image, zf * y_image - yf), s, centers)
    n = len(points)
    charts = [
        Su2ChartJet(fixed_point=p, x_jet=x, map_jet=JetVector((u, v)))
        for p, x, u, v in zip(points, unstack_lanes(x_jet, n), *(unstack_lanes(c, n) for c in map_jet))
    ]
    return charts[0] if isinstance(p0, Su2FixedPoint) else charts
