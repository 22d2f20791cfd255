"""Shared test oracles.

The full functional-equation residual of a normal form: given a diagonalized
degree-3 map, solve for the cubic corrections at every non-resonant monomial
and check that phi(u xi, v eta) - p(phi, psi) vanishes identically through
degree 3 (and the psi/q analogue).  This exercises the defining property of
the alpha/beta coefficients independently of how they were extracted.

Reference loops for truncated jet products and one-variable substitutions:
they visit every coefficient pair and skip those above the truncation degree,
so they fix which contributions each result key receives and in what order.
The grouped product loop is the one ``Jet.__mul__`` ran on its own, pairing
each term only with the other factor's terms that fit; it fixes the items,
order and bits of a product from the shared product kernel.
The composition loop builds every power and monomial product afresh for each
outer component and adds term by term with jet arithmetic, which fixes the
partial sums of each key and its insertion order.

Exact reference forms of computations done in integers: the Brjuno
continued fraction run on ``Fraction``, the SU(2) fixed point and level in
``Fraction`` arithmetic, the SU(2) chart and the SU(3) t-jet whose exact
parts are built from ``Fraction`` jets, and P and Q expanded over
Gaussian rationals with ``Fraction`` parts throughout.  The recentering loop
expands every monomial afresh at each call, which fixes the items and order
a replayed recentering plan must reproduce, and the plan builder that
concatenates exponent tuples fixes the plan itself.

The SU(2) row runs the whole row on those ``Fraction`` forms, as a row did
before its fixed point ran in integers: one fixed point for the row and
another inside the chart, and a linear part read one ``coefficient`` at a
time.  It fixes the bytes of every SU(2) row, error rows included.

The alpha read-off composes every p_j in full with the corrected identity
and reads the xi_j xi_k eta_k coefficients, which fixes the floats the
restricted ``alpha_matrix`` must reproduce bit for bit.

The frequency-map probe takes the determinant of d+1 image points over the
probing radius^d, which is det(Re b) up to rounding; ``nonplanarity_check``
must give its verdict.

The full conjugation builds every coefficient of the diagonalized 3-jet with
jet arithmetic (``Jet + Jet``, ``Jet * c`` and ``JetVector.compose``), which
fixes the floats and key order ``diagonalized_jets`` must reproduce at the
coefficients it keeps; the functional-equation residual and the reality
constraint on values need every cubic coefficient, so they run on it.

Whole-jet forms of the jet operations that now run as one dict pass: a jet
plus or minus a number adds the constant jet of that number, a jet minus a
jet adds the negated jet, a jet times a number maps its coefficients, and
the square-root series starts its powers at the constant-1 jet and builds
every step as a jet.  They fix the items, their order and their float bits.

The spectrum pairing on numpy scalars, as ``classify_spectrum`` ran before
it read the eigenvalues as Python complex numbers, fixes its pairing, tags,
frequencies and error messages.

The recursive report writer, which wrote each piece to the stream as it went
and escaped every key afresh, fixes the bytes of ``dump_deterministic_json``;
the CSV writer that took a whole report fixes the bytes of the streamed CSV.
"""

import cmath
import csv
import io
import json
import math
from fractions import Fraction

import numpy as np

from charvar_kam import charts
from charvar_kam.birkhoff import (
    NORMAL_FORM_DEGREE,
    TWIST_DET_TOL,
    BrjunoResult,
    NormalFormInput,
    alpha2_closed_form,
    alpha_matrix,
    brjuno_partial_sum,
    diagonalized_jets,
    nonresonance_check,
    phi2_psi2,
)
from charvar_kam.errors import (
    ConsistencyError,
    ShapeMismatchError,
    SingularChartError,
    SpectrumStructureError,
    UnrealizableError,
)
from charvar_kam.jets import Jet, JetVector, _monomials, jet_sqrt, jet_variables
from charvar_kam.mcg import _check_pole
from charvar_kam.pipelines import SCAN_ERRORS
from charvar_kam.spectral import (
    _PARABOLIC_TOL,
    REAL_AXIS_TOL,
    REPEAT_TOL,
    UNIT_CIRCLE_TOL,
    _partner,
    build_C0,
    classify_spectrum,
    eigen_small,
)
from charvar_kam.varieties import Su2Point, kappa_su2


def _eig_product(lam, mu, e):
    d = len(lam)
    out = 1.0 + 0.0j
    for i in range(d):
        out *= lam[i] ** e[i] * mu[i] ** e[d + i]
    return out


def _resonant_slot(e, own, partner_block, d, n):
    """True when e is the structurally resonant monomial for component `own`."""
    for k in range(d):
        want = [0] * n
        want[own if partner_block == "xi" else d + own] += 1
        want[k] += 1
        want[d + k] += 1
        if tuple(want) == e:
            return True
    return False


def solve_order3(nf, corrected):
    """Cubic corrections phi_3, psi_3 at all non-resonant monomials (others 0)."""
    d, n = nf.d, 2 * nf.d
    phi3, psi3 = [], []
    for j in range(d):
        rhs = nf.p_jets[j].compose(corrected).homogeneous_part(3)
        coeffs = {}
        for e, c in rhs.coeffs.items():
            if _resonant_slot(e, j, "xi", d, n):
                continue
            coeffs[e] = c / (_eig_product(nf.lam, nf.mu, e) - nf.lam[j])
        phi3.append(Jet(n, 3, coeffs))
    for j in range(d):
        rhs = nf.q_jets[j].compose(corrected).homogeneous_part(3)
        coeffs = {}
        for e, c in rhs.coeffs.items():
            if _resonant_slot(e, j, "eta", d, n):
                continue
            coeffs[e] = c / (_eig_product(nf.lam, nf.mu, e) - nf.mu[j])
        psi3.append(Jet(n, 3, coeffs))
    return phi3, psi3


def functional_equation_residual(nf):
    """Max residual coefficient through degree 3 of both functional equations."""
    d, n = nf.d, 2 * nf.d
    phi2, psi2 = phi2_psi2(nf)
    zeta = jet_variables(n, 3, coeff_one=1.0 + 0.0j)
    corrected = [zeta[i] + (phi2[i] if i < d else psi2[i - d]) for i in range(n)]
    alpha = alpha_matrix(nf, phi2, psi2)
    beta = np.zeros((d, d), dtype=complex)
    for j in range(d):
        comp = nf.q_jets[j].compose(corrected)
        for k in range(d):
            e = [0] * n
            e[d + j] += 1
            e[k] += 1
            e[d + k] += 1
            beta[j, k] = complex(comp.coefficient(tuple(e)))
    phi3, psi3 = solve_order3(nf, corrected)
    W = []
    for i in range(d):
        u_xi = zeta[i] * nf.lam[i]
        for k in range(d):
            u_xi = u_xi + zeta[i] * zeta[k] * zeta[d + k] * alpha[i, k]
        W.append(u_xi)
    for i in range(d):
        v_eta = zeta[d + i] * nf.mu[i]
        for k in range(d):
            v_eta = v_eta + zeta[d + i] * zeta[k] * zeta[d + k] * beta[i, k]
        W.append(v_eta)
    full_inner = [corrected[i] + (phi3[i] if i < d else psi3[i - d]) for i in range(n)]
    worst = 0.0
    for j in range(d):
        phi_full = zeta[j] + phi2[j] + phi3[j]
        worst = max(
            worst,
            max(
                (abs(c) for c in (phi_full.compose(W) - nf.p_jets[j].compose(full_inner)).coeffs.values()),
                default=0.0,
            ),
        )
        psi_full = zeta[d + j] + psi2[j] + psi3[j]
        worst = max(
            worst,
            max(
                (abs(c) for c in (psi_full.compose(W) - nf.q_jets[j].compose(full_inner)).coeffs.values()),
                default=0.0,
            ),
        )
    return worst


def mul_items(a, b):
    """Items of the truncated product a * b, from a scan over every pair."""
    td = a.trunc_degree
    out = {}
    a_items = [(e, sum(e), c) for e, c in a._coeffs.items()]
    b_items = [(e, sum(e), c) for e, c in b._coeffs.items()]
    for ea, da, ca in a_items:
        room = td - da
        for eb, db, cb in b_items:
            if db > room:
                continue
            key = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(key, 0) + ca * cb
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return list(out.items())


def grouped_mul(self, other):
    """``self * other`` from the pair loop ``Jet.__mul__`` ran itself, with its own degree grouping of ``other``."""
    td = self.trunc_degree
    top = _monomials(self.num_vars, td).top
    # each key gets the same contributions in the same order as a full scan
    items = list(other._coded.items())
    within = [[t for t in items if t[0] < bound] for bound in range(top, td * top + 1, top)]
    within.append(items)
    # a pair's key is ka + kb, the code of the summed exponents
    out: dict[int, object] = {}
    get, pop = out.get, out.pop
    for ka, ca in self._coded.items():
        for kb, cb in within[td - ka // top]:
            key = ka + kb
            s = get(key, 0) + ca * cb
            if s:
                out[key] = s
            else:
                pop(key, None)
    return Jet._raw(self.num_vars, td, out)


def substitute_variable_items(jet, var, replacement, var_map):
    """Items of jet.substitute_variable(var, replacement, var_map), from a scan over every pair."""
    nv_t, td = replacement.num_vars, replacement.trunc_degree
    powers = {1: replacement}

    def power(k):
        got = powers.get(k)
        if got is None:
            got = power(k - 1) * replacement
            powers[k] = got
        return got

    out = {}
    for e, c in jet._coeffs.items():
        k = e[var]
        rest_deg = sum(e) - k
        if rest_deg + k > td:
            continue
        te = [0] * nv_t
        for i, ei in enumerate(e):
            if i != var and ei:
                te[var_map[i]] += ei
        if k == 0:
            key = tuple(te)
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
            continue
        for pe, pc in power(k)._coeffs.items():
            if sum(pe) + rest_deg > td:
                continue
            key = tuple(a + b for a, b in zip(pe, te))
            s = out.get(key, 0) + c * pc
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return list(out.items())


def compose_items(outer, inner, allow_constant=False):
    """Items of outer.compose(inner, allow_constant), from a per-term loop with jet arithmetic."""
    td = inner[0].trunc_degree
    powers = [{} for _ in inner]

    def power(v, k):
        got = powers[v].get(k)
        if got is None:
            got = inner[v] if k == 1 else power(v, k - 1) * inner[v]
            powers[v][k] = got
        return got

    acc = Jet.zero(inner[0].num_vars, td)
    for exps, c in outer._coeffs.items():
        if not allow_constant and sum(exps) > td:
            continue
        term = None
        for v, e in enumerate(exps):
            if e:
                p = power(v, e)
                term = p if term is None else term * p
        acc = acc + (c if term is None else term * c)
    return list(acc._coeffs.items())


def translate_items(poly, centers, trunc_degree):
    """Items of charts._translate(poly, centers, trunc_degree), expanding each monomial in place."""
    nums = [c.numerator for c in centers]
    dens = [c.denominator for c in centers]
    coeffs = poly.coeffs
    top = [max((e[i] for e in coeffs), default=0) for i in range(poly.num_vars)]
    coeff_den = math.lcm(*(c.denominator for c in coeffs.values()))
    den = coeff_den * math.prod(map(pow, dens, top))

    def shift(i, e):
        """(j, C(e, j) a^(e - j) b^j) for j = e..0 with c_i = a/b, zero factors left out."""
        a, b = nums[i], dens[i]
        factors = [(j, math.comb(e, j) * a ** (e - j) * b**j) for j in range(e, -1, -1)]
        return [(j, f) for j, f in factors if f]

    sums = {}
    for exps, c in coeffs.items():
        # den * c / prod_i b_i^e_i: each shift factor multiplies its b_i^e_i back in
        scale = c.numerator * (coeff_den // c.denominator)
        scale *= math.prod(b ** (t - e) for b, t, e in zip(dens, top, exps))
        terms = [((), 0, scale)]
        for i, e in enumerate(exps):
            terms = [
                (key + (j,), deg + j, v * f)
                for key, deg, v in terms
                for j, f in shift(i, e)
                if deg + j <= trunc_degree
            ]
        for key, _, v in terms:
            total = sums.get(key, 0) + v
            if total:
                sums[key] = total
            else:
                sums.pop(key, None)
    return [(key, Fraction(total, den)) for key, total in sums.items()]


def shift_plan_tuples(poly, trunc_degree, zero):
    """The ``charts._shift_plan`` tuple, built with exponent tuples concatenated one variable at a time.

    Returns ``(top, coeff_den, live, center_powers, steps)``; each key is
    encoded only once its tuple is complete.
    """
    coeffs = poly.coeffs
    nv = poly.num_vars
    top = tuple(max((e[i] for e in coeffs), default=0) for i in range(nv))
    coeff_den = math.lcm(*(c.denominator for c in coeffs.values()))
    encode = _monomials(nv, trunc_degree).encode
    live = tuple(i for i in range(nv) if not zero[i])
    index = {}
    steps = []
    for exps, c in coeffs.items():
        terms = [((), 0, c.numerator * (coeff_den // c.denominator), ())]
        for i, e in enumerate(exps):
            shifts = [(e, 1)] if zero[i] else [(j, math.comb(e, j)) for j in range(e, -1, -1)]
            terms = [
                (key + (j,), deg + j, w * f, k + (e - j,))
                for key, deg, w, k in terms
                for j, f in shifts
                if deg + j <= trunc_degree
            ]
        for key, _, w, k in terms:
            k = tuple(k[i] for i in live)
            steps.append((encode(key), w, index.setdefault(k, len(index))))
    return top, coeff_den, live, list(index), steps


def brjuno_items(theta, K=20, huge_quotient=1e12):
    """brjuno_partial_sum(theta, K) at ``BRJUNO_HUGE_QUOTIENT = huge_quotient``, with the continued fraction run on Fraction."""
    x = Fraction(theta)
    x -= math.floor(x)
    qs = [1]
    q_prev = 0
    quotients = []
    rational = False
    while len(qs) < K + 2:
        if x == 0:
            rational = True
            break
        a = math.floor(1 / x)
        if a > huge_quotient:
            rational = True
            break
        quotients.append(a)
        q_new = a * qs[-1] + q_prev
        q_prev = qs[-1]
        qs.append(q_new)
        if q_new > 2**53:
            break
        x = 1 / x - a
    total = 0.0
    terms = 0
    for k in range(1, min(K, len(qs) - 2) + 1):
        total += math.log(qs[k + 1]) / qs[k]
        terms += 1
    return BrjunoResult(partial_sum=total, terms_used=terms, rational=rational, quotients=tuple(quotients))


def fixed_family_su2_fraction(s):
    """The SU(2) fixed point in ``Fraction`` arithmetic, as an ``Su2Point`` (the former ``fixed_family_su2``)."""
    _check_pole(s)
    if not -1 <= s <= 1:
        raise UnrealizableError(f"s = {s} outside [-1, 1]: A(s) leaves SU(2)")
    denom = (2 * s - 1) ** 2 * (1 + s)
    if denom == 0 or 2 * s * s > denom:
        raise UnrealizableError(f"s = {s}: |u| > 1, B(s) leaves SU(2)")
    return Su2Point(2 * s, 2 * s / (2 * s - 1), 2 * s)


def su2_chart_fraction(s, trunc_degree=3):
    """(x_jet, map_jet) of the SU(2) chart, with the exact part in Fraction jets."""
    s = Fraction(s)
    p0 = fixed_family_su2_fraction(s)
    x0, y0, z0 = p0.coords()
    level = kappa_su2(p0)
    gap = 2 * x0 - y0 * z0
    if gap == 0:
        raise SingularChartError(
            f"s = {s}: 2x - yz = 0 at the fixed point (origin blow-up), chart is singular"
        )
    branch = 1 if gap > 0 else -1
    w = jet_variables(2, trunc_degree, coeff_one=Fraction(1))
    yv = w[0] + y0
    zv = w[1] + z0
    yz = yv * zv
    disc = yz * yv * zv - 4 * (yv * yv + zv * zv - 2 - level)
    if disc.constant_term() != gap * gap:
        raise ConsistencyError(f"s = {s}: discriminant at the center must be (2x - yz)^2")
    disc = disc.map_coefficients(float)
    if not disc.constant_term():
        raise SingularChartError(f"s = {s}: discriminant at the center underflows to 0.0")
    root = jet_sqrt(disc)
    if not all(math.isfinite(c) for c in root.coeffs.values()):
        raise SingularChartError(f"s = {s}: radicand at the center is too small for double precision")
    x_jet = yz.map_coefficients(float) + root * float(branch)
    x_jet = x_jet * 0.5
    yf = yv.map_coefficients(float)
    zf = zv.map_coefficients(float)
    y_image = zf * yf - x_jet
    out_y = y_image - float(y0)
    out_z = zf * y_image - yf - float(z0)
    comps = []
    for comp in (out_y, out_z):
        const = comp.constant_term()
        if not abs(float(const)) < 1e-10:
            raise ConsistencyError(f"s = {s}: chart map constant term {const} should vanish")
        comps.append(comp - const)
    return x_jet, JetVector(comps)


def su2_chart_items(s, trunc_degree=3):
    """(x_jet items, [map_jet component items]) of ``su2_chart_fraction``."""
    x_jet, map_jet = su2_chart_fraction(s, trunc_degree)
    return list(x_jet._coeffs.items()), [list(c._coeffs.items()) for c in map_jet]


def chart_linear_matrix_loop(map_jet):
    """Linear part of a chart map, one ``coefficient`` lookup per entry."""
    n = map_jet.num_vars
    m = np.zeros((n, n))
    for i, comp in enumerate(map_jet):
        for j in range(n):
            e = tuple(1 if k == j else 0 for k in range(n))
            m[i, j] = float(comp.coefficient(e))
    return m


def _c(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def su2_brown_point_fraction(s) -> dict:
    """An SU(2) row with the fixed point, its level and the chart's exact part in ``Fraction``s.

    The former ``pipelines.su2_brown_point`` line for line: it calls
    ``fixed_family_su2`` and ``kappa_su2``, and the chart builds its own fixed
    point again; the chart is ``su2_chart_fraction`` and its linear part
    ``chart_linear_matrix_loop``.
    """
    s = s if isinstance(s, Fraction) else Fraction(s)
    row: dict = {"s": float(s)}
    try:
        p0 = fixed_family_su2_fraction(s)
    except SCAN_ERRORS as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row
    kappa = kappa_su2(p0)
    row["fixed_point"] = [float(v) for v in p0.coords()]
    row["ell"] = float(kappa)
    if s == 0:
        # the origin is the blown-up point: the level chart is singular there
        row["degenerate"] = True
        row["notes"] = "kappa = -2 origin; sphere-of-directions blow-up point"
        return row
    row["degenerate"] = False
    try:
        _, map_jet = su2_chart_fraction(s)
        L = chart_linear_matrix_loop(map_jet)
        report = classify_spectrum(L)
        row["spec_class"] = report.classification[0]
        lam = report.eigenvalues[report.pairing[0][0]]
        row["multiplier"] = _c(lam)
        if report.classification[0] != "elliptic":
            return row
        row["omega"] = report.omega[0]
        flags = nonresonance_check([lam])
        row["resonance_flags"] = [list(f) for f in flags]
        basis = build_C0(L, report)
        nf = diagonalized_jets(map_jet, basis)
        p, q = nf.p_jets[0], nf.q_jets[0]
        alpha2 = alpha2_closed_form(
            (p.coefficient((2, 0)), p.coefficient((1, 1)), p.coefficient((0, 2))),
            (q.coefficient((2, 0)), q.coefficient((1, 1)), q.coefficient((0, 2))),
            p.coefficient((2, 1)),
            nf.lam[0],
        )
        gamma1 = alpha2 / (1j * nf.lam[0])
        row["alpha2"] = _c(alpha2)
        row["gamma1"] = _c(gamma1)
        row["twist_ok"] = bool(abs(alpha2) > TWIST_DET_TOL)
        row["brjuno_partial"] = brjuno_partial_sum(report.omega[0]).partial_sum
    except SCAN_ERRORS as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def solve_t_items(spec):
    """Items of charts.solve_t(spec), with the exact part built from Fraction jets."""
    td = spec.trunc_degree
    centers = charts._center7(spec)
    x0, _, y0, _, _, _, _ = centers
    w = jet_variables(7, td, coeff_one=Fraction(1))
    a_jet = (w[0] + x0) * (w[2] + y0) + w[1] * w[3]  # xy + XY, centered
    c_jet = Jet(7, td, dict(translate_items(charts._p_no_t_7(), centers, td)))
    radicand = a_jet * a_jet + 2 * spec.level - c_jet
    r0 = radicand.constant_term()
    if r0 <= 0:
        raise SingularChartError(f"s = {spec.s}: radicand {r0} <= 0 at the center")
    gap = spec.center.t - x0 * y0
    if gap * gap != r0:
        raise ConsistencyError(f"s = {spec.s}: center must satisfy P/2 = ell exactly")
    radicand = radicand.map_coefficients(float)
    if not radicand.constant_term():
        raise SingularChartError(f"s = {spec.s}: radicand at the center underflows to 0.0")
    root = jet_sqrt(radicand)
    return list((a_jet.map_coefficients(float) + root * float(spec.sqrt_branch))._coeffs.items())


class QQi:
    """Gaussian rational re + im*i with ``Fraction`` parts: the coefficients of ``unitary_expansion_items``.

    Mixes with ``int`` and ``Fraction``; any other operand is refused, so a
    float meets a ``TypeError``.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def _of(value):
        if isinstance(value, QQi):
            return value
        if isinstance(value, (int, Fraction)):
            return QQi(value)
        return None

    def __add__(self, other):
        other = QQi._of(other)
        return NotImplemented if other is None else QQi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = QQi._of(other)
        if other is None:
            return NotImplemented
        return QQi(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, other):
        other = QQi._of(other)
        return NotImplemented if other is None else (self.re, self.im) == (other.re, other.im)

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"QQi({self.re!r}, {self.im!r})"


def unitary_expansion_items(trace_poly, trunc_degree):
    """Items of varieties.p_poly / q_poly, expanded over QQi with Fraction parts throughout."""
    one, i = QQi(1), QQi(0, 1)
    x, X, y, Y, z, Z, t, T = (Jet.variable(k, 8, trunc_degree, one) for k in range(8))
    sub = [x + X * i, y + Y * i, z + Z * i, t + T * i, x - X * i, y - Y * i, z - Z * i, t - T * i]
    raw = trace_poly.map_coefficients(QQi)
    out = []
    for e, c in raw.compose(sub, allow_constant=True)._coeffs.items():
        if c.im:
            raise ConsistencyError(f"imaginary part failed to cancel at {e}: {c!r}")
        out.append((e, c.re))
    return out


def alpha_matrix_compose(nf, phi2, psi2):
    """alpha_matrix(nf, phi2, psi2), read off the full composition of every p_j."""
    d, n = nf.d, 2 * nf.d
    zeta = jet_variables(n, nf.p_jets.trunc_degree, coeff_one=1.0 + 0.0j)
    corrected = [zeta[i] + phi2[i] for i in range(d)] + [zeta[d + i] + psi2[i] for i in range(d)]
    alpha = np.zeros((d, d), dtype=complex)
    for j, comp in enumerate(nf.p_jets.compose(corrected)):
        for k in range(d):
            e = [0] * n
            e[j] += 1
            e[k] += 1
            e[d + k] += 1
            alpha[j, k] = complex(comp.coefficient(tuple(e)))
    return alpha


def diagonalized_full(map_jet, basis):
    """diagonalized_jets(map_jet, basis) with every coefficient of the 3-jet built."""
    n = len(map_jet)
    if map_jet.num_vars != n or n % 2:
        raise ShapeMismatchError("map jet must be square with an even number of variables")
    if map_jet.trunc_degree > NORMAL_FORM_DEGREE:
        map_jet = JetVector(c.truncated(NORMAL_FORM_DEGREE) for c in map_jet)
    d = n // 2
    C0, inv = basis.C0, basis.inverse
    # block index -> interleaved index
    perm = [2 * j for j in range(d)] + [2 * j + 1 for j in range(d)]
    td = map_jet.trunc_degree
    zeta = jet_variables(n, td, coeff_one=1.0 + 0.0j)
    inner = []
    for i in range(n):
        row = Jet.zero(n, td)
        for k in range(n):
            c = complex(C0[i, perm[k]])
            if c != 0:
                row = row + zeta[k] * c
        inner.append(row)
    composed = map_jet.compose(inner)
    out = []
    for r in range(n):
        acc = Jet.zero(n, td)
        for i in range(n):
            c = complex(inv[perm[r], i])
            if c != 0:
                acc = acc + composed[i] * c
        out.append(acc)
    lam = tuple(complex(basis.normalization["eigenvalues"][j]) for j in range(d))
    mu = tuple(l.conjugate() for l in lam)
    nf = NormalFormInput(
        d=d,
        p_jets=JetVector(out[:d]),
        q_jets=JetVector(out[d:]),
        lam=lam,
        mu=mu,
    )
    nf.validate_linear_part()
    return nf


def nonplanarity_probe(omega, b, domain_radius=1e-3):
    """(verdict, determinant) of the frequency map r -> omega + b r, by probing it at radius domain_radius.

    Affine independence of the d+1 image points {omega + r b e_i} for r in
    {0, domain_radius * e_1, ...}: the (d+1)x(d+1) determinant on rows
    (1, point), divided by domain_radius^d, and the verdict |det| > 1e-9.
    The real part of b is used.  ``nonplanarity_check`` took this
    determinant before it read det(Re b) directly.
    """
    omega = np.asarray(omega, dtype=float)
    d = len(omega)
    b = np.asarray(b, dtype=complex).real
    rows = [np.concatenate(([1.0], omega))]
    for i in range(d):
        rows.append(np.concatenate(([1.0], omega + domain_radius * b[:, i])))
    det = np.linalg.det(np.array(rows)) / domain_radius**d
    return bool(abs(det) > 1e-9), det


def jet_plus_number(a, x):
    """``a + x`` for a number x as it was built: a plus the constant jet of x (``a - x`` is ``a + (-x)``)."""
    return a + Jet.constant(a.num_vars, a.trunc_degree, x)


def jet_minus_jet(a, b):
    """``a - b`` for jets as it was built: a plus the negated b."""
    return a + (-b)


def jet_times_number(a, x):
    """``a * x`` for a number x as it was built: the zero jet for a zero x, else a map over the coefficients."""
    if not x:
        return Jet.zero(a.num_vars, a.trunc_degree)
    return a.map_coefficients(lambda c: c * x)


def jet_sqrt_steps(a):
    """``jet_sqrt(a)`` as it was built: every step a whole jet, the powers from the constant-1 jet."""
    c = a.constant_term()
    if isinstance(c, complex):
        raise ValueError("jet_sqrt is defined for real-coefficient jets only")
    c_f = float(c)
    if c_f <= 0.0:
        raise ValueError(f"jet_sqrt needs a positive constant term, got {c_f}")
    nv, td = a.num_vars, a.trunc_degree
    w = jet_times_number(jet_plus_number(a, -c), 1.0 / c_f)
    root = math.sqrt(c_f)
    acc = Jet.constant(nv, td, 1.0)
    coeff = 1.0
    w_pow = Jet.constant(nv, td, 1.0)
    for k in range(1, td + 1):
        coeff *= (0.5 - (k - 1)) / k
        w_pow = w_pow * w
        if w_pow.is_zero():
            break
        acc = acc + jet_times_number(w_pow, coeff)
    return jet_times_number(acc, root)


def classify_spectrum_numpy(m):
    """(eigenvalues, pairing, tags, omega) of ``classify_spectrum(m)``, paired on numpy scalars."""
    vals, _ = eigen_small(np.asarray(m, dtype=float))
    n = len(vals)
    used = [False] * n
    pairing, tags, omegas = [], [], []
    order = sorted(range(n), key=lambda k: (-abs(vals[k].imag), -vals[k].real))
    for j in order:
        if used[j]:
            continue
        lam = vals[j]
        if abs(lam.imag) > REAL_AXIS_TOL:
            best, best_err = _partner(vals, used, j, lam.conjugate())
            if best is None:
                raise SpectrumStructureError(
                    f"eigenvalue {lam} has no conjugate partner (best residual {best_err:.3e})"
                )
            jj = j if lam.imag > 0 else best
            kk = best if lam.imag > 0 else j
            used[j] = used[best] = True
            lam_pos = vals[jj]
            pairing.append((jj, kk))
            if abs(abs(lam_pos) - 1.0) < UNIT_CIRCLE_TOL:
                tags.append("elliptic")
                omegas.append(cmath.phase(lam_pos) / (2 * math.pi))
            else:
                tags.append("hyperbolic")
                omegas.append(math.nan)
        else:
            lam_r = lam.real
            if abs(lam_r - 1.0) < _PARABOLIC_TOL or abs(lam_r + 1.0) < _PARABOLIC_TOL:
                best = _partner(vals, used, j, lam)[0]
                if best is None:
                    raise SpectrumStructureError(f"unpaired parabolic eigenvalue {lam_r}")
                used[j] = used[best] = True
                pairing.append((j, best))
                tags.append("parabolic")
                omegas.append(math.nan)
                continue
            best = _partner(vals, used, j, 1.0 / lam_r if lam_r else math.inf, real=True)[0]
            if best is None:
                raise SpectrumStructureError(f"real eigenvalue {lam_r} has no reciprocal partner")
            used[j] = used[best] = True
            big = j if abs(vals[j]) >= abs(vals[best]) else best
            small = best if big == j else j
            pairing.append((big, small))
            tags.append("hyperbolic")
            omegas.append(math.nan)
    ell = [vals[p[0]] for p, t in zip(pairing, tags) if t == "elliptic"]
    for a in range(len(ell)):
        for b in range(a + 1, len(ell)):
            if abs(ell[a] - ell[b]) < REPEAT_TOL:
                tags = ["resonant" if t == "elliptic" else t for t in tags]
    return tuple(vals), tuple(pairing), tuple(tags), tuple(omegas)


def _format_float_checked(x):
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def dump_json_recursive(obj, out, indent=0):
    """The report writer as it was: one ``write`` per piece, every key escaped afresh."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n")
        for i, (k, v) in enumerate(obj.items()):
            out.write("  " * (indent + 1) + json.dumps(str(k)) + ": ")
            dump_json_recursive(v, out, indent + 1)
            out.write(",\n" if i < len(obj) - 1 else "\n")
        out.write(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.write("[]")
            return
        out.write("[\n")
        for i, v in enumerate(obj):
            out.write("  " * (indent + 1))
            dump_json_recursive(v, out, indent + 1)
            out.write(",\n" if i < len(obj) - 1 else "\n")
        out.write(pad + "]")
    elif isinstance(obj, bool):
        out.write("true" if obj else "false")
    elif isinstance(obj, int):
        out.write(str(obj))
    elif isinstance(obj, float):
        out.write(_format_float_checked(obj))
    elif obj is None:
        out.write("null")
    else:
        out.write(json.dumps(str(obj)))


_CSV_COLUMNS = ["s", "ell", "spec_class", "alpha_det_re", "alpha_det_im", "twist_ok", "nonplanar_ok", "notes"]


def report_csv(report):
    """The CSV text of a whole report dict, as the writer made it before rows were streamed."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for row in report["rows"]:
        if report["pipeline"] == "su2-brown":
            alpha = row.get("alpha2", {})
            spec_class = row.get("spec_class", "")
            twist = row.get("twist_ok", "")
            nonplanar = twist
        else:
            alpha = row.get("alpha_det", {})
            spec_class = ";".join(row.get("spec_class", []))
            twist = row.get("twist_ok", "")
            nonplanar = row.get("nonplanar_ok", "")
        notes = row.get("error") or row.get("notes") or ""
        writer.writerow(
            [
                _format_float_checked(row["s"]),
                _format_float_checked(row["ell"]) if "ell" in row else "",
                spec_class,
                _format_float_checked(alpha["re"]) if alpha else "",
                _format_float_checked(alpha["im"]) if alpha else "",
                twist,
                nonplanar,
                notes,
            ]
        )
    return buf.getvalue()
