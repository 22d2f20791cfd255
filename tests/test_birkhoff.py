import cmath
import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    alpha_matrix_compose,
    brjuno_items,
    diagonalized_full,
    functional_equation_residual,
    nonplanarity_probe,
)

from charvar_kam import birkhoff, charts
from charvar_kam.errors import ConstantTermError, ResonanceError, ShapeMismatchError
from charvar_kam.jets import Jet, JetVector, jet_variables
from charvar_kam.mcg import fixed_family_su2, fixed_family_su3
from charvar_kam.birkhoff import (
    NormalFormInput,
    alpha2_closed_form,
    alpha_matrix,
    birkhoff_coefficients,
    diagonalized_jets,
    brjuno_partial_sum,
    nonplanarity_check,
    nonresonance_check,
    phi2_psi2,
    twist_determinant,
)
from charvar_kam.spectral import DiagonalizingBasis, build_C0, classify_spectrum


def random_unit(rng, avoid_orders=6, margin=0.05):
    """A unit-modulus eigenvalue away from low-order roots of unity."""
    while True:
        theta = rng.uniform(0.02, 0.48)
        lam = cmath.exp(2j * math.pi * theta)
        if all(abs(lam**k - 1) > margin for k in range(1, avoid_orders + 1)):
            return lam


def random_nf(rng, d, cubic=True):
    """Random synthetic diagonalized map with unit eigenvalues, mu = conj(lam)."""
    n = 2 * d
    lam = tuple(random_unit(rng) for _ in range(d))
    mu = tuple(l.conjugate() for l in lam)
    zeta = jet_variables(n, 3, coeff_one=1.0 + 0.0j)

    def rand_tail():
        coeffs = {}
        for _ in range(12):
            e = [0] * n
            deg = rng.choice([2, 3] if cubic else [2])
            for _ in range(deg):
                e[rng.randrange(n)] += 1
            coeffs[tuple(e)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        return Jet(n, 3, coeffs)

    ps = [zeta[j] * lam[j] + rand_tail() for j in range(d)]
    qs = [zeta[d + j] * mu[j] + rand_tail() for j in range(d)]
    return NormalFormInput(d=d, p_jets=JetVector(ps), q_jets=JetVector(qs), lam=lam, mu=mu)


# ------------------------------------------------------------------ nonresonance


def test_nonresonance_root_of_unity_flag():
    flags = nonresonance_check([1j])
    assert ("root_of_unity", 1, 4) in flags
    assert not [f for f in flags if f[0] == "root_of_unity" and f[2] < 4]


def test_nonresonance_constructed_violation():
    lam = [cmath.exp(2j * math.pi * 0.1), cmath.exp(2j * math.pi * 0.2)]
    flags = nonresonance_check(lam)
    assert ("lambda_lambda", 2, 1, 1) in flags


def test_nonresonance_clean_spectrum():
    lam = [cmath.exp(2j * math.pi * w) for w in (0.11, 0.23, 0.41)]
    assert nonresonance_check(lam) == []


def test_nonresonance_requires_unit_modulus():
    with pytest.raises(ValueError):
        nonresonance_check([2.0 + 0j])


# ------------------------------------------------------------------ phi2/psi2


def test_phi2_single_coefficient():
    # p_{j,2}^{m,n|0} = 1 with generic lambda -> phi coefficient 1/(lam_m lam_n - lam_j)
    lam = (cmath.exp(0.3j), cmath.exp(0.9j))
    mu = tuple(l.conjugate() for l in lam)
    zeta = jet_variables(4, 3, coeff_one=1.0 + 0.0j)
    p1 = zeta[0] * lam[0] + zeta[0] * zeta[1]  # xi_1 xi_2 term
    p2 = zeta[1] * lam[1]
    q1 = zeta[2] * mu[0]
    q2 = zeta[3] * mu[1]
    nf = NormalFormInput(2, JetVector([p1, p2]), JetVector([q1, q2]), lam, mu)
    phi2, psi2 = phi2_psi2(nf)
    got = phi2[0].coefficient((1, 1, 0, 0))
    assert abs(got - 1.0 / (lam[0] * lam[1] - lam[0])) < 1e-14
    assert psi2[0].is_zero() and psi2[1].is_zero()


def test_phi2_zero_for_linear_input():
    rng = random.Random(1)
    nf = random_nf(rng, 2)
    lin = NormalFormInput(
        2,
        JetVector([Jet.variable(j, 4, 3, nf.lam[j]) for j in range(2)]),
        JetVector([Jet.variable(2 + j, 4, 3, nf.mu[j]) for j in range(2)]),
        nf.lam,
        nf.mu,
    )
    phi2, psi2 = phi2_psi2(lin)
    assert all(p.is_zero() for p in phi2) and all(p.is_zero() for p in psi2)


def test_phi2_functional_equation_degree_two():
    """phi_j(lam xi, mu eta) - lam_j phi_j reproduces the quadratic part of p_j."""
    rng = random.Random(2)
    for _ in range(5):
        nf = random_nf(rng, 2)
        phi2, _ = phi2_psi2(nf)
        n = 4
        scaled = [Jet.variable(i, n, 3, nf.lam[i] if i < 2 else nf.mu[i - 2]) for i in range(n)]
        for j in range(2):
            lhs = phi2[j].compose(scaled) - phi2[j] * nf.lam[j]
            rhs = nf.p_jets[j].homogeneous_part(2)
            diff = lhs - rhs
            assert max((abs(c) for c in diff.coeffs.values()), default=0.0) < 1e-12


def test_phi2_resonance_error():
    lam = (cmath.exp(2j * math.pi / 3),)  # lam^3 = 1: eta^2 monomial resonates
    mu = (lam[0].conjugate(),)
    zeta = jet_variables(2, 3, coeff_one=1.0 + 0.0j)
    p = zeta[0] * lam[0] + zeta[1] * zeta[1]
    q = zeta[1] * mu[0]
    nf = NormalFormInput(1, JetVector([p]), JetVector([q]), lam, mu)
    with pytest.raises(ResonanceError):
        phi2_psi2(nf)


def test_phi2_nan_denominator_is_resonance_error():
    """A NaN eigenvalue product is no safe denominator: it fails like a resonant one."""
    lam, mu = (complex(math.nan, 0.0),), (cmath.exp(-0.3j),)
    zeta = jet_variables(2, 3, coeff_one=1.0 + 0.0j)
    nf = NormalFormInput(1, JetVector([zeta[0] * zeta[1]]), JetVector([zeta[1] * mu[0]]), lam, mu)
    with pytest.raises(ResonanceError, match=r"^homological denominator nan at monomial \(1, 1\) is resonant$"):
        phi2_psi2(nf)


def test_validate_linear_part_rejects_a_nan_coefficient():
    lam = (cmath.exp(0.3j),)
    mu = (lam[0].conjugate(),)
    zeta = jet_variables(2, 3, coeff_one=1.0 + 0.0j)
    p = zeta[0] * lam[0] + zeta[1] * complex(math.nan, 0.0)
    nf = NormalFormInput(1, JetVector([p]), JetVector([zeta[1] * mu[0]]), lam, mu)
    with pytest.raises(ShapeMismatchError, match="^linear part of xi_1 is off by nan at variable 1$"):
        nf.validate_linear_part()


# ------------------------------------------------------------------ alpha


def test_alpha_zero_for_linear_map():
    lam = (cmath.exp(0.4j), cmath.exp(1.1j), cmath.exp(2.0j))
    mu = tuple(l.conjugate() for l in lam)
    n = 6
    ps = [Jet.variable(j, n, 3, lam[j]) for j in range(3)]
    qs = [Jet.variable(3 + j, n, 3, mu[j]) for j in range(3)]
    nf = NormalFormInput(3, JetVector(ps), JetVector(qs), lam, mu)
    assert np.allclose(alpha_matrix(nf, *phi2_psi2(nf)), 0.0)


def test_alpha_d1_matches_closed_form_on_50_random_maps():
    rng = random.Random(3)
    for _ in range(50):
        nf = random_nf(rng, 1)
        a_mech = alpha_matrix(nf, *phi2_psi2(nf))[0, 0]
        p = nf.p_jets[0]
        q = nf.q_jets[0]
        p2 = (p.coefficient((2, 0)), p.coefficient((1, 1)), p.coefficient((0, 2)))
        q2 = (q.coefficient((2, 0)), q.coefficient((1, 1)), q.coefficient((0, 2)))
        p31 = p.coefficient((2, 1))
        a_closed = alpha2_closed_form(p2, q2, p31, nf.lam[0])
        assert abs(a_mech - a_closed) < 1e-10


def _random_tail(rng, n, trunc_degree, terms):
    """A sparse random jet with terms of degree 2 up to trunc_degree."""
    coeffs = {}
    for _ in range(terms):
        e = [0] * n
        for _ in range(rng.randint(2, trunc_degree)):
            e[rng.randrange(n)] += 1
        coeffs[tuple(e)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return Jet(n, trunc_degree, coeffs)


def _assert_alpha_bitwise(nf, phi2=None, psi2=None):
    if phi2 is None:
        phi2, psi2 = phi2_psi2(nf)
    got = alpha_matrix(nf, phi2, psi2)
    want = alpha_matrix_compose(nf, phi2, psi2)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    return got


@pytest.mark.parametrize("trunc_degree", [2, 3, 5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_alpha_matches_the_full_composition_bitwise(d, trunc_degree):
    """alpha read at its resonant monomials equals the full compose's coefficients, bit for bit."""
    rng = random.Random(100 * d + trunc_degree)
    n = 2 * d
    for density in (2, 8, 30):
        lam = tuple(random_unit(rng) for _ in range(d))
        mu = tuple(l.conjugate() for l in lam)
        ps = [Jet.variable(j, n, trunc_degree, lam[j]) + _random_tail(rng, n, trunc_degree, density) for j in range(d)]
        qs = [Jet.variable(d + j, n, trunc_degree, mu[j]) + _random_tail(rng, n, trunc_degree, density) for j in range(d)]
        nf = NormalFormInput(d=d, p_jets=JetVector(ps), q_jets=JetVector(qs), lam=lam, mu=mu)
        alpha = _assert_alpha_bitwise(nf)
        if trunc_degree < 3:
            assert not alpha.any()
        elif density == 30:
            assert alpha.any()


def test_alpha_matches_the_full_composition_when_partial_sums_cancel():
    """Contributions to xi^2 eta that cancel, inside a product and across terms, then come back."""
    zeta = jet_variables(2, 3, coeff_one=1.0 + 0.0j)
    lam = (cmath.exp(0.7j),)
    mu = (lam[0].conjugate(),)
    # u = xi + phi, v = eta + psi: u v has xi^2 eta coefficient psi_11 + phi_20 and u^2 has 2 phi_11
    phi2 = JetVector([Jet(2, 3, {(2, 0): 0.75 + 0.25j, (1, 1): 0.5 + 0.0j})])
    psi2 = JetVector([Jet(2, 3, {(1, 1): 0.25 - 0.25j, (0, 2): 1.5j})])
    p = Jet(2, 3, {(1, 0): lam[0], (1, 1): 1.0 + 0.0j, (2, 1): -1.0 + 0.0j, (2, 0): 1.0 + 0.0j})
    q = zeta[1] * mu[0]
    nf = NormalFormInput(1, JetVector([p]), JetVector([q]), lam, mu)
    # the xi eta term adds 1, the xi^2 eta term -1 (the key drops), the xi^2 term 1 again
    assert _assert_alpha_bitwise(nf, phi2, psi2)[0, 0] == 1.0
    # the xi eta product's two contributions cancel inside the product
    cancelling = JetVector([Jet(2, 3, {(2, 0): -0.25 + 0.25j, (1, 1): 0.5 + 0.0j})])
    assert _assert_alpha_bitwise(nf, cancelling, psi2)[0, 0] == 0.0
    # ... and with no cubic term left the key never comes back
    p2 = Jet(2, 3, {(1, 0): lam[0], (1, 1): 1.0 + 0.0j, (2, 1): -1.0 + 0.0j})
    nf2 = NormalFormInput(1, JetVector([p2]), JetVector([q]), lam, mu)
    assert _assert_alpha_bitwise(nf2, phi2, psi2)[0, 0] == 0.0


@pytest.mark.parametrize("s", ["0.2411", "0.2439"])
def test_alpha_matches_the_full_composition_on_a_real_su3_chart(s):
    chart = charts.chart_map_jet(fixed_family_su3(Fraction(s)))
    L = charts.chart_linear_matrix(chart)
    spectrum = classify_spectrum(L)
    nf = diagonalized_jets(chart.map_jet, build_C0(L, spectrum))
    assert nf.d == 3
    assert _assert_alpha_bitwise(nf).all()


def _bits(items):
    """Items with each coefficient's parts as hex strings, so 0.0 and -0.0 differ."""
    return [(e, complex(c).real.hex(), complex(c).imag.hex()) for e, c in items]


def _assert_kept_keys_match(map_jet, basis):
    """diagonalized_jets equals the full conjugation at every key it keeps, in items and order.

    A component keeps every key of degree <= 2 and, at degree 3, only
    xi_j xi_k eta_k (p_j) or eta_j xi_k eta_k (q_j).
    """
    got = diagonalized_jets(map_jet, basis)
    full = diagonalized_full(map_jet, basis)
    d = got.d
    for r, (g, f) in enumerate(zip((*got.p_jets, *got.q_jets), (*full.p_jets, *full.q_jets))):
        assert (g.num_vars, g.trunc_degree) == (f.num_vars, f.trunc_degree)
        resonant = set()
        for k in range(d):
            e = [0] * (2 * d)
            e[r] += 1
            e[k] += 1
            e[d + k] += 1
            resonant.add(tuple(e))
        want = [(e, c) for e, c in f._coeffs.items() if sum(e) < 3 or e in resonant]
        assert _bits(g._coeffs.items()) == _bits(want)
    assert (got.lam, got.mu) == (full.lam, full.mu)
    return got, full


def _cubic_terms(nf):
    return sum(1 for jet in (*nf.p_jets, *nf.q_jets) for e in jet._coeffs if sum(e) == 3)


@pytest.mark.parametrize(
    "s, degree, basis_entries",
    [("0.2411", 3, 20), ("0.2439", 3, 30), ("0.2411", 5, 20), ("0.2439", 2, 30)],
)
def test_diagonalized_jets_keep_the_full_conjugation_on_su3_charts(s, degree, basis_entries):
    """Sparse (20 nonzero C0 entries) and dense (30) bases, a td-5 chart and a td-2 chart."""
    chart = charts.chart_map_jet(fixed_family_su3(Fraction(s)), degree)
    L = charts.chart_linear_matrix(chart)
    spectrum = classify_spectrum(L)
    basis = build_C0(L, spectrum)
    assert np.count_nonzero(basis.C0) == basis_entries
    got, full = _assert_kept_keys_match(chart.map_jet, basis)
    if degree == 2:
        assert got == full and _cubic_terms(full) == 0  # a 2-jet has nothing to drop
    else:
        assert 0 < _cubic_terms(got) <= 6 * 3 < _cubic_terms(full)


def test_diagonalized_jets_keep_the_full_conjugation_on_the_su2_chart():
    chart = charts.su2_chart_map_jet(fixed_family_su2(Fraction(1, 10)))
    L = charts.chart_linear_matrix(chart)
    got, full = _assert_kept_keys_match(chart.map_jet, build_C0(L, classify_spectrum(L)))
    assert _cubic_terms(got) == 2 < _cubic_terms(full)  # xi^2 eta in p, xi eta^2 in q


@pytest.mark.parametrize("d", [1, 2, 3])
def test_diagonalized_jets_keep_the_full_conjugation_on_random_maps(d):
    """A dense complex C0, and one cubic key whose running sum cancels exactly and comes back."""
    rng = np.random.default_rng(40 + d)
    n = 2 * d
    lam = [cmath.exp(2j * math.pi * rng.uniform(0.02, 0.48)) for _ in range(d)]
    C0 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    inverse = np.linalg.inv(C0)
    L = C0 @ np.diag([v for l in lam for v in (l, l.conjugate())]) @ inverse
    basis = DiagonalizingBasis(C0=C0, inverse=inverse, normalization={"eigenvalues": lam})
    # the inner components of the conjugation, as diagonalized_jets builds them
    perm = [2 * j for j in range(d)] + [2 * j + 1 for j in range(d)]
    zeta = jet_variables(n, 3, coeff_one=1.0 + 0.0j)
    inner = []
    for i in range(n):
        row = Jet.zero(n, 3)
        for k in range(n):
            row = row + zeta[k] * complex(C0[i, perm[k]])
        inner.append(row)

    def unit(k):
        return tuple(int(i == k) for i in range(n))

    def monomial(*vs):
        return tuple(sum(v == i for v in vs) for i in range(n))

    # xi_1^2 eta_1, kept in p_1: composing map component 0, its first two cubic
    # terms cancel there exactly, and the third brings the key back at the end
    target = monomial(0, 0, d)
    m1, m2, m3 = monomial(0, 0, 0), monomial(0, 0, 1), monomial(0, 1, 1)
    p1, p2 = (Jet(n, 3, {m: 1.0 + 0.0j}).compose(inner).coefficient(target) for m in (m1, m2))
    assert p1 and p2
    assert not Jet(n, 3, {m1: p2, m2: -p1}).compose(inner).coefficient(target)
    comps = []
    for i in range(n):
        coeffs = {unit(k): complex(L[i, k]) for k in range(n)}
        for _ in range(3 * n):
            coeffs[monomial(*rng.integers(0, n, size=2))] = complex(*rng.normal(size=2))
        if i == 0:
            coeffs.update({m1: p2, m2: -p1, m3: 0.5 - 0.25j})
        else:
            for _ in range(3 * n):
                coeffs[monomial(*rng.integers(0, n, size=3))] = complex(*rng.normal(size=2))
        comps.append(Jet(n, 3, coeffs))
    got, full = _assert_kept_keys_match(JetVector(comps), basis)
    assert 0 < _cubic_terms(got) < _cubic_terms(full)


def test_alpha_is_the_full_composition_for_any_zero_constant_correction():
    """Linear, cubic and zero corrections give the full composition's floats; constants and bad shapes raise."""
    rng = random.Random(11)
    nf = random_nf(rng, 2)
    phi2, psi2 = phi2_psi2(nf)
    zeta = jet_variables(4, 3, coeff_one=1.0 + 0.0j)
    zero = JetVector([Jet.zero(4, 3)] * 2)
    accepted = [
        (JetVector([phi2[0] + zeta[1], phi2[1]]), psi2),  # a linear term
        (JetVector([phi2[0] + zeta[0] * zeta[0] * zeta[2], phi2[1]]), psi2),  # a cubic term at xi_1^2 eta_1
        (zero, zero),
    ]
    for phi, psi in accepted:
        _assert_alpha_bitwise(nf, phi, psi)
    with pytest.raises(ConstantTermError):
        alpha_matrix(nf, phi2, JetVector([psi2[0], psi2[1] + 0.5]))
    rejected = [
        (JetVector([phi2[0]]), psi2),  # too few components
        (JetVector(p.truncated(2) for p in phi2), psi2),  # another shape
    ]
    for phi, psi in rejected:
        with pytest.raises(ShapeMismatchError):
            alpha_matrix(nf, phi, psi)


def test_alpha2_closed_form_trivial_cases():
    lam = cmath.exp(0.7j)
    assert alpha2_closed_form((0, 0, 0), (0, 0, 0), 3.5, lam) == 3.5
    # lam = i is order 4 but the denominators (orders 1, 3) are fine
    val = alpha2_closed_form((1, 1, 0), (0, 0, 0), 0, 1j)
    zeta = jet_variables(2, 3, coeff_one=1.0 + 0.0j)
    p = zeta[0] * 1j + zeta[0] ** 2 + zeta[0] * zeta[1]
    q = zeta[1] * (-1j)
    nf = NormalFormInput(1, JetVector([p]), JetVector([q]), (1j,), (-1j,))
    assert abs(val - alpha_matrix(nf, *phi2_psi2(nf))[0, 0]) < 1e-12


def test_alpha2_closed_form_resonance_guard():
    with pytest.raises(ResonanceError):
        alpha2_closed_form((1, 1, 1), (1, 1, 1), 0, cmath.exp(2j * math.pi / 3))
    with pytest.raises(ResonanceError):
        alpha2_closed_form((1, 1, 1), (1, 1, 1), 0, 1.0 + 0j)


def test_functional_equation_residual_vanishes():
    rng = random.Random(5)
    for d in (1, 2, 3):
        nf = random_nf(rng, d)
        assert functional_equation_residual(nf) < 1e-9


def test_alpha_covariance_under_pair_rescaling():
    """alpha_jk -> alpha_jk * c_k^2 under positive rescaling of the k-th pair."""
    rng = random.Random(7)
    nf = random_nf(rng, 2)
    c = [rng.uniform(0.5, 2.0) for _ in range(2)]
    n = 4
    zeta = jet_variables(n, 3, coeff_one=1.0 + 0.0j)
    scale_in = [zeta[i] * c[i % 2] for i in range(n)]

    def rescale(jets, inv_scale):
        return JetVector(
            [jets[j].compose(scale_in) * (1.0 / inv_scale[j]) for j in range(2)]
        )

    nf2 = NormalFormInput(
        2,
        rescale(nf.p_jets, c),
        rescale(nf.q_jets, c),
        nf.lam,
        nf.mu,
    )
    a1 = alpha_matrix(nf, *phi2_psi2(nf))
    a2 = alpha_matrix(nf2, *phi2_psi2(nf2))
    for j in range(2):
        for k in range(2):
            assert abs(a2[j, k] - a1[j, k] * c[k] ** 2) < 1e-9
    # verdict invariance
    assert (abs(twist_determinant(a1)) > 1e-6) == (abs(twist_determinant(a2)) > 1e-6)


def test_birkhoff_coefficients_relations():
    rng = random.Random(9)
    nf = random_nf(rng, 2)
    bc = birkhoff_coefficients(nf)
    for j in range(2):
        for k in range(2):
            assert abs(bc.alpha[j, k] - 1j * nf.lam[j] * bc.b[j, k]) < 1e-12
    nf1 = random_nf(rng, 1)
    bc1 = birkhoff_coefficients(nf1)
    # d = 1: b is the first Birkhoff invariant gamma1 = alpha2 / (i lambda), nonzero iff alpha2 is
    assert abs(bc1.b[0, 0] - bc1.alpha[0, 0] / (1j * nf1.lam[0])) < 1e-12
    assert (abs(bc1.b[0, 0]) > 1e-12) == (abs(bc1.alpha[0, 0]) > 1e-12)
    assert [f.name for f in dataclasses.fields(bc1)] == ["alpha", "b"]


def test_alpha2_continuity_in_lambda():
    rng = random.Random(11)
    p2 = (0.3 + 0.1j, -0.2 + 0.4j, 0.15 - 0.05j)
    q2 = (0.1 - 0.3j, 0.25 + 0.2j, 0.0)
    prev = None
    for k in range(20):
        theta = 0.14 + 1e-4 * k
        val = alpha2_closed_form(p2, q2, 0.5, cmath.exp(2j * math.pi * theta))
        if prev is not None:
            assert abs(val - prev) < 1e-2
        prev = val


# ------------------------------------------------------------------ twist & planarity


def test_twist_determinant_values():
    assert twist_determinant(np.eye(3)) == pytest.approx(1.0)
    rank_def = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert abs(twist_determinant(rank_def)) < 1e-12


def test_nonplanarity_basic():
    assert nonplanarity_check(np.eye(3))
    assert not nonplanarity_check(np.zeros((3, 3)))
    singular = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert not nonplanarity_check(singular)
    # the frequency map is real: only Re b counts
    assert not nonplanarity_check(singular + 1j * np.eye(3))


def _assert_nonplanarity_matches_the_probe(omega, b):
    got = nonplanarity_check(b)
    want, det = nonplanarity_probe(omega, b)
    assert got == want
    assert abs(np.linalg.det(b.real) - det) <= 1e-11 * abs(det)


@pytest.mark.parametrize("s", [Fraction(239, 1000) + k * Fraction(5, 10000) for k in range(21)])
def test_nonplanarity_matches_the_probing_radius_determinant_on_the_window(s):
    """|det Re b| > tol agrees with the (d+1)x(d+1) determinant over r^d it replaced, on each su3 window row."""
    chart = charts.chart_map_jet(fixed_family_su3(s))
    L = charts.chart_linear_matrix(chart)
    spectrum = classify_spectrum(L)
    b = birkhoff_coefficients(diagonalized_jets(chart.map_jet, build_C0(L, spectrum))).b
    _assert_nonplanarity_matches_the_probe(np.array(spectrum.elliptic_frequencies()), b)


def test_nonplanarity_matches_the_probing_radius_determinant_on_random_b():
    rng = np.random.default_rng(3)
    for d in (1, 2, 3, 4):
        for _ in range(50):
            b = rng.normal(size=(d, d)) + 1e-3j * rng.normal(size=(d, d))
            _assert_nonplanarity_matches_the_probe(rng.uniform(0, 0.5, size=d), b)


# ------------------------------------------------------------------ Brjuno


def fibonacci_partial_sum(K):
    # for the golden ratio the convergent denominators are exactly the
    # Fibonacci numbers q_0 = q_1 = 1, q_2 = 2, ...
    q = [1, 1]
    while len(q) < K + 2:
        q.append(q[-1] + q[-2])
    return sum(math.log(q[k + 1]) / q[k] for k in range(1, K + 1))


def test_brjuno_golden_ratio_matches_fibonacci_oracle():
    theta = (math.sqrt(5) - 1) / 2
    for K in (5, 10, 20):
        res = brjuno_partial_sum(theta, K)
        assert not res.rational
        assert res.terms_used == K
        assert abs(res.partial_sum - fibonacci_partial_sum(K)) < 1e-12


def test_brjuno_rational_flag():
    res = brjuno_partial_sum(1 / 3, 20)
    assert res.rational
    exact = brjuno_partial_sum(Fraction(1, 3), 20)
    assert exact.rational


def test_brjuno_integer_euclid_matches_fraction_loop(monkeypatch):
    """The integer continued fraction gives the Fraction loop's result, field for field."""
    rng = random.Random(29)
    thetas = [rng.uniform(0.0, 0.5) for _ in range(20)]
    thetas += [-0.3173, -2.75, 3, 0, -1, Fraction(1, 3), Fraction(-7, 12), 1e-13, 0.5 + 1e-14]
    thetas += [math.sqrt(5) - 2, math.pi, 2.0**-60]
    for theta in thetas:
        for K in range(1, 26):
            assert brjuno_partial_sum(theta, K) == brjuno_items(theta, K), (theta, K)
    # a quotient above the threshold stops the expansion as rational
    assert brjuno_items(0.5 + 1e-14, 20).rational
    monkeypatch.setattr(birkhoff, "BRJUNO_HUGE_QUOTIENT", 3)
    for theta in thetas[:5]:
        assert brjuno_partial_sum(theta, 20) == brjuno_items(theta, 20, huge_quotient=3)


def test_brjuno_float_ratio_matches_fraction_path():
    """A float's ratio from ``as_integer_ratio`` gives the ``Fraction`` path's result, field for field."""
    rng = random.Random(31)
    thetas = [rng.uniform(-3.0, 3.0) for _ in range(300)]
    thetas += [rng.uniform(0.0, 1e-6) for _ in range(20)] + [np.float64(rng.random()) for _ in range(20)]
    thetas += [0.0, -0.0, 1.0, -2.5, 1e17, 5e-324, 1 / 3, 0.1]
    for theta in thetas:
        assert brjuno_partial_sum(theta) == brjuno_items(theta), theta
    for bad, error in ((math.inf, OverflowError), (-math.inf, OverflowError), (math.nan, ValueError)):
        with pytest.raises(error):
            brjuno_partial_sum(bad)


def test_brjuno_bounded_quotients_monotone():
    # theta = [0; 1, 2, 1, 2, ...] solves t^2 + 2t - 2 = 0, i.e. t = sqrt(3) - 1
    theta = math.sqrt(3) - 1
    sums = [brjuno_partial_sum(theta, K).partial_sum for K in range(2, 15)]
    assert all(b >= a for a, b in zip(sums, sums[1:]))
    assert sums[-1] < 3.0
    qs = brjuno_partial_sum(theta, 10).quotients
    assert list(qs[:6]) == [1, 2, 1, 2, 1, 2]
