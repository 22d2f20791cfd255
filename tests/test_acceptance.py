"""Acceptance suite: each test enforces one exit criterion at its stated tolerance
and prints one PASS line (run with -s to see them)."""

import cmath
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from charvar_kam.birkhoff import (
    alpha2_closed_form,
    alpha_matrix,
    birkhoff_coefficients,
    brjuno_partial_sum,
    diagonalized_jets,
    nonplanarity_check,
    nonresonance_check,
    phi2_psi2,
    twist_determinant,
)
from charvar_kam.charts import chart_linear_matrix, chart_map_jet
from charvar_kam.jets import Jet, JetVector, jet_variables
from charvar_kam.mcg import (
    cat_map_su2,
    cat_map_su2_poly,
    cat_map_su3,
    cat_map_su3_poly,
    fixed_family_su2,
    fixed_family_su3,
    sphere_action,
    tau_alpha_poly,
    tau_beta_poly,
)
from charvar_kam.pipelines import su2_brown_point
from charvar_kam.poisson import bracket
from charvar_kam.spectral import build_C0, classify_spectrum, eigen_small
from charvar_kam.varieties import kappa_poly, p_poly, q_poly

S249 = Fraction(249, 1000)
WINDOW = [Fraction(n, 1000) for n in (239, 241, 243, 245, 247, 249)]
VERDICT_SET = [Fraction(n, 1000) for n in (239, 240, 241, 242)]


def _ok(msg):
    print(f"ACCEPTANCE PASS: {msg}")


def test_criterion_1_exact_identities():
    """Exact rational identities, zero tolerance, under 5 seconds."""
    t0 = time.monotonic()
    # kappa o M = kappa
    k = kappa_poly(12)
    m2 = [c.truncated(12) for c in cat_map_su2_poly().components]
    assert k.compose(m2, allow_constant=True) == k
    # M = tau_alpha o tau_beta
    composed = tau_beta_poly(3).then(tau_alpha_poly(3))
    for lhs, rhs in zip(composed.components, cat_map_su2_poly().components):
        assert lhs.coeffs == rhs.coeffs
    # P o M = P and Q o M = Q in the 8 unitary variables
    m9 = cat_map_su3_poly().components
    inner8 = []
    for c in m9[:8]:
        coeffs = {}
        for e, v in c.coeffs.items():
            assert e[8] == 0
            coeffs[e[:8]] = v
        inner8.append(Jet(8, 18, coeffs))
    p = p_poly().truncated(12)
    assert p.compose([c.truncated(12) for c in inner8], allow_constant=True) == p
    q = q_poly().truncated(18)
    assert q.compose(inner8, allow_constant=True) == q
    # tr[A(s), B(s)] identity: kappa at the fixed family equals the printed
    # rational function; cross-multiplied by (2s-1)^2 both sides are
    # polynomials in s, compared exactly
    s, = jet_variables(1, 8)
    two_s = 2 * s
    denom = (two_s - 1) ** 2
    lhs = (
        (two_s * two_s) * denom * 2  # x^2 + z^2, cleared
        + 4 * s * s
        - 8 * s * s * s * (two_s - 1)
        - 2 * denom
    )
    rhs = 2 * (8 * s**4 - 12 * s**3 + 2 * s**2 + 4 * s - 1)
    assert lhs == rhs
    # ell(s) printed product equals the printed octic, identically
    f1 = -3 + 4 * s * (3 - 6 * s * s + 4 * s * s * s)
    f2 = -1 + 4 * s * (1 + 2 * (-1 + s) * s * (-1 + 2 * s))
    octic = Jet(
        1, 8,
        {(8,): 256, (7,): -768, (6,): 704, (5,): 64, (4,): -448, (3,): 192, (2,): 24, (1,): -24, (0,): 3},
    )
    assert f1 * f2 == octic
    # the symmetric-square commutator trace equals ell on the family: exact
    # P/2 route (rational arithmetic), confirmed numerically against matrices
    # elsewhere (the matrices themselves are irrational in s)
    from charvar_kam.varieties import poly_P
    from charvar_kam.mcg import level_of_s

    for num, den in [(1, 5), (249, 1000), (-2, 7), (1, 10)]:
        sv = Fraction(num, den)
        fp = fixed_family_su3(sv)
        assert poly_P(fp.su3_point) == 2 * level_of_s(sv)
        assert cat_map_su3(fp.su3_point).coords9() == fp.su3_point.coords9()
        p2 = fixed_family_su2(sv)
        assert cat_map_su2(p2).coords() == p2.coords()
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f} s"
    _ok(f"1: exact identities (rational, zero tolerance) in {elapsed:.2f} s")


def test_criterion_2_chart_golden_s249():
    """Printed s=.249 jet values at 1e-3 relative; residuals below 1e-7."""
    t0 = time.monotonic()
    chart = chart_map_jet(fixed_family_su3(S249))
    tj, zj = chart.t_jet, chart.z_jet

    def printed(jet, exps):
        return jet.coefficient(exps) * math.factorial(sum(exps))

    assert tj.constant_term() == pytest.approx(-0.0158728, rel=1e-3)
    assert printed(tj, (0, 0, 0, 0, 0, 0, 2)) == pytest.approx(35.9596, rel=1e-3)
    assert printed(tj, (1, 0, 0, 0, 0, 0, 0)) == pytest.approx(-27.4865, rel=1e-3)
    z0 = zj.constant_term()
    x0 = float(chart.spec.center.x)
    assert z0 + x0 == pytest.approx(-1.50399, rel=1e-3)
    assert printed(zj, (0, 0, 0, 0, 0, 2)) == pytest.approx(1.28663, rel=1e-3)
    assert chart.residual_level() < 1e-7
    assert chart.residual_h() < 1e-7
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.2f} s"
    _ok(f"2: s=.249 chart goldens at 1e-3 relative, residuals < 1e-7, in {elapsed:.2f} s")


def test_criterion_3_spectrum_window():
    """Elliptic spectrum across the window; exact torus multipliers at the level-2 end."""
    for s in WINDOW:
        rep = classify_spectrum(chart_linear_matrix(chart_map_jet(fixed_family_su3(s))))
        assert rep.is_elliptic(), f"s = {s} not elliptic"
        assert len(rep.pairing) == 3
        for v in rep.eigenvalues:
            assert abs(abs(v) - 1.0) < 1e-8
    # the level-2 SU(2) endpoint acts through the torus cover by the cat
    # matrix itself, with multipliers (3 +/- sqrt(5))/2
    vals, _ = eigen_small(np.array([[2.0, 1.0], [1.0, 1.0]]))
    got = sorted(v.real for v in vals)
    want = [(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2]
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-10
    rep2 = classify_spectrum(np.array([[2.0, 1.0], [1.0, 1.0]]))
    assert rep2.classification == ("hyperbolic",)
    _ok("3: elliptic window at s in {.239..249}, torus multipliers (3+-sqrt5)/2 at 1e-10")


def test_criterion_4_su2_brown_gap_fill():
    """Some s near 0 gives an elliptic non-low-resonant multiplier with |alpha2| > 1e-6,
    and the closed form matches the d=1 machinery at 1e-10 on 50 random maps."""
    # documented scan interval: s in [0.005, 0.249], step 1e-3
    hits = []
    s = Fraction(5, 1000)
    step = Fraction(1, 1000)
    while s <= Fraction(249, 1000):
        row = su2_brown_point(s)
        if (
            row.get("spec_class") == "elliptic"
            and not row.get("resonance_flags")
            and row.get("alpha2") is not None
            and abs(complex(row["alpha2"]["re"], row["alpha2"]["im"])) > 1e-6
        ):
            hits.append(s)
        s += step
    assert hits, "no elliptic twist point found in the scan interval"
    # cross-formula equivalence on 50 random synthetic maps
    rng = random.Random(17)
    n_checked = 0
    while n_checked < 50:
        theta = rng.uniform(0.03, 0.47)
        lam = cmath.exp(2j * math.pi * theta)
        if abs(lam - 1) < 0.05 or abs(lam**3 - 1) < 0.05:
            continue
        mu = lam.conjugate()
        zeta = jet_variables(2, 3, coeff_one=1.0 + 0.0j)

        def tail(rng):
            coeffs = {}
            for _ in range(10):
                e = [0, 0]
                for _ in range(rng.choice([2, 3])):
                    e[rng.randrange(2)] += 1
                coeffs[tuple(e)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            return Jet(2, 3, coeffs)

        p = zeta[0] * lam + tail(rng)
        q = zeta[1] * mu + tail(rng)
        from charvar_kam.birkhoff import NormalFormInput

        nf = NormalFormInput(1, JetVector([p]), JetVector([q]), (lam,), (mu,))
        a_machine = alpha_matrix(nf, *phi2_psi2(nf))[0, 0]
        a_closed = alpha2_closed_form(
            (p.coefficient((2, 0)), p.coefficient((1, 1)), p.coefficient((0, 2))),
            (q.coefficient((2, 0)), q.coefficient((1, 1)), q.coefficient((0, 2))),
            p.coefficient((2, 1)),
            lam,
        )
        assert abs(a_machine - a_closed) < 1e-10
        n_checked += 1
    _ok(
        f"4: SU(2) gap-fill: {len(hits)} scan points with elliptic non-resonant "
        f"multiplier and |alpha2| > 1e-6 (first s = {float(hits[0])}); "
        "closed form == d=1 machinery at 1e-10 on 50 random maps"
    )


def _verdict_data(s):
    chart = chart_map_jet(fixed_family_su3(s))
    L = chart_linear_matrix(chart)
    rep = classify_spectrum(L)
    basis = build_C0(L, rep)
    nf = diagonalized_jets(chart.map_jet, basis)
    bc = birkhoff_coefficients(nf)
    return chart, L, rep, basis, nf, bc


def test_criterion_5_su3_kam_verdict():
    """Twist determinant and non-planarity across the verdict set, invariant under
    100 random positive rescalings of the eigenvector pairs."""
    for s in VERDICT_SET:
        _, _, rep, _, nf, bc = _verdict_data(s)
        det = twist_determinant(bc.alpha)
        assert abs(det) > 1e-6, f"s = {s}: |det alpha| = {abs(det)}"
        assert nonplanarity_check(bc.b)
        assert nonresonance_check(list(nf.lam)) == []
    chart, L, rep, basis, nf, bc = _verdict_data(S249)
    det249 = twist_determinant(bc.alpha)
    assert abs(det249) > 1e-3
    # verdict invariance under positive pair rescalings of C0
    from charvar_kam.spectral import DiagonalizingBasis

    rng = random.Random(23)
    base_twist = abs(det249) > 1e-6
    base_nonplanar = nonplanarity_check(bc.b)
    for _ in range(100):
        c = [rng.uniform(0.25, 4.0) for _ in range(3)]
        scale = np.diag([c[0], c[0], c[1], c[1], c[2], c[2]]).astype(complex)
        scaled = DiagonalizingBasis(
            C0=basis.C0 @ scale,
            inverse=np.linalg.inv(scale) @ basis.inverse,
            normalization=dict(basis.normalization),
        )
        nf_s = diagonalized_jets(chart.map_jet, scaled)
        bc_s = birkhoff_coefficients(nf_s)
        det_s = twist_determinant(bc_s.alpha)
        # alpha_jk scales by c_k^2: det scales by (c1 c2 c3)^2
        expected = det249 * (c[0] * c[1] * c[2]) ** 2
        assert abs(det_s - expected) < 1e-6 * abs(expected)
        assert (abs(det_s) > 1e-6) == base_twist
        assert nonplanarity_check(bc_s.b) == base_nonplanar
    _ok(
        "5: twist |det alpha| > 1e-6 and non-planarity at s in {.239,.24,.241,.242}; "
        f"|det alpha(.249)| = {abs(det249):.3f} > 1e-3; verdicts invariant under "
        "100 random positive pair rescalings"
    )


def test_criterion_6_property_suites():
    """Ring/composition laws (1000 cases), phi2/psi2 residuals, order-3 accuracy,
    Poisson identities, sphere action order 3."""
    rng = random.Random(29)

    def rand_jet():
        coeffs = {}
        for _ in range(6):
            e = [0, 0]
            for _ in range(rng.randint(0, 3)):
                e[rng.randrange(2)] += 1
            coeffs[tuple(e)] = coeffs.get(tuple(e), 0) + Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        return Jet(2, 3, {e: c for e, c in coeffs.items() if c})

    for _ in range(1000):
        a, b, c = rand_jet(), rand_jet(), rand_jet()
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    for _ in range(100):
        f = rand_jet()
        g = [j - j.constant_term() for j in (rand_jet(), rand_jet())]
        h = [j - j.constant_term() for j in (rand_jet(), rand_jet())]
        assert f.compose(g).compose(h) == f.compose([gi.compose(h) for gi in g])
    # phi2/psi2 functional-equation residual through degree 2
    from charvar_kam.birkhoff import NormalFormInput

    for _ in range(10):
        theta1, theta2 = rng.uniform(0.05, 0.45), rng.uniform(0.05, 0.45)
        lam = (cmath.exp(2j * math.pi * theta1), cmath.exp(2j * math.pi * theta2))
        if nonresonance_check(list(lam)):
            continue
        mu = tuple(v.conjugate() for v in lam)
        zeta = jet_variables(4, 3, coeff_one=1.0 + 0.0j)

        def tail4():
            coeffs = {}
            for _ in range(10):
                e = [0] * 4
                for _ in range(2):
                    e[rng.randrange(4)] += 1
                coeffs[tuple(e)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            return Jet(4, 3, coeffs)

        nf = NormalFormInput(
            2,
            JetVector([zeta[0] * lam[0] + tail4(), zeta[1] * lam[1] + tail4()]),
            JetVector([zeta[2] * mu[0] + tail4(), zeta[3] * mu[1] + tail4()]),
            lam,
            mu,
        )
        phi2, psi2 = phi2_psi2(nf)
        scaled = [
            Jet.variable(i, 4, 3, lam[i] if i < 2 else mu[i - 2]) for i in range(4)
        ]
        for j in range(2):
            res_p = phi2[j].compose(scaled) - phi2[j] * lam[j] - nf.p_jets[j].homogeneous_part(2)
            res_q = psi2[j].compose(scaled) - psi2[j] * mu[j] - nf.q_jets[j].homogeneous_part(2)
            for res in (res_p, res_q):
                assert max((abs(v) for v in res.coeffs.values()), default=0.0) < 1e-12
    # order-3 accuracy of the chart jets (ratio >= 15 under halving)
    chart = chart_map_jet(fixed_family_su3(S249))
    centers8 = [float(v) for v in chart.spec.center.coords8()]

    def exact_image(v):
        zeta_v = chart.z_jet.eval(list(v)) - centers8[4]
        t_val = chart.t_jet.eval([v[0], v[1], v[2], v[3], zeta_v, v[4], v[5]])
        full = [
            centers8[0] + v[0], centers8[1] + v[1], centers8[2] + v[2], centers8[3] + v[3],
            centers8[4] + zeta_v, centers8[5] + v[4], t_val, centers8[7] + v[5], 0.0,
        ]
        img = cat_map_su3(tuple(full))
        return [img[i] - centers8[i] for i in (0, 1, 2, 3, 5, 7)]

    def worst(norm):
        err = 0.0
        for _ in range(5):
            v = np.array([rng.gauss(0, 1) for _ in range(6)])
            v *= norm / np.linalg.norm(v)
            jet_img = [comp.eval(list(v)) for comp in chart.map_jet]
            err = max(err, max(abs(a - b) for a, b in zip(jet_img, exact_image(v))))
        return err

    assert worst(1e-3) / worst(5e-4) >= 15.0
    # Poisson identities, exact
    x, y, z = jet_variables(3, 2, coeff_one=Fraction(1))
    jacobi = (
        bracket(x.truncated(4), bracket(y, z))
        + bracket(y.truncated(4), bracket(z, x))
        + bracket(z.truncated(4), bracket(x, y))
    )
    assert jacobi.is_zero()
    k = kappa_poly(3)
    for v in (x, y, z):
        assert bracket(k, v.truncated(3)).is_zero()
    wide = 6
    for _ in range(20):
        f = rand3(rng).truncated(wide)
        g = rand3(rng).truncated(wide)
        h = rand3(rng).truncated(wide)
        assert bracket(f * g, h).truncated(wide) == f * bracket(g, h).truncated(wide) + g * bracket(f, h).truncated(wide)
    # sphere action of the cat matrix has order 3
    for _ in range(100):
        v = np.array([rng.gauss(0, 1) for _ in range(3)])
        v /= np.linalg.norm(v)
        w = v
        for _ in range(3):
            w = sphere_action("M", w)
        assert np.allclose(w, v, atol=1e-12)
    _ok("6: property suites (ring laws x1000, phi2 residuals, order-3 ratio >= 15, Poisson, sphere^3)")


def rand3(rng):
    coeffs = {}
    for _ in range(6):
        e = [0, 0, 0]
        for _ in range(rng.randint(0, 2)):
            e[rng.randrange(3)] += 1
        coeffs[tuple(e)] = coeffs.get(tuple(e), 0) + Fraction(rng.randint(-5, 5))
    return Jet(3, 2, {e: c for e, c in coeffs.items() if c})


def test_criterion_7_brjuno_diagnostic():
    """Golden-ratio partial sums match the Fibonacci oracle at 1e-12 for K <= 20."""
    theta = (math.sqrt(5) - 1) / 2
    q = [1, 1]
    while len(q) < 23:
        q.append(q[-1] + q[-2])
    for K in range(1, 21):
        want = sum(math.log(q[k + 1]) / q[k] for k in range(1, K + 1))
        got = brjuno_partial_sum(theta, K)
        assert not got.rational
        assert abs(got.partial_sum - want) < 1e-12
    _ok("7: Brjuno partial sums match the Fibonacci oracle at 1e-12 for K <= 20")
