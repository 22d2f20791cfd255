import math
import random
from fractions import Fraction

import numpy as np
import pytest

from charvar_kam.errors import PoleError, UnrealizableError
from charvar_kam.jets import Jet, JetVector, jet_variables
from charvar_kam.mcg import (
    a_matrix,
    b_matrix,
    cat_map_su2,
    cat_map_su2_poly,
    cat_map_su3,
    cat_map_su3_poly,
    fixed_family_su2,
    fixed_family_su3,
    level_numerator_octic,
    level_of_s,
    realizable_interval_su3,
    sphere_action,
    su2_commutator_trace,
    su3_commutator_trace,
    symmetric_square,
    tau_alpha,
    tau_alpha_poly,
    tau_beta,
    tau_beta_inv,
    tau_beta_inv_poly,
    tau_beta_poly,
)
from charvar_kam.varieties import Su2Point, kappa_poly, kappa_su2, p_poly, poly_P, poly_Q, q_poly


# ------------------------------------------------------------------ twists


def test_tau_alpha_fixed_points():
    assert tau_alpha(Su2Point(0, 0, 0)).coords() == (0, 0, 0)
    assert tau_alpha(Su2Point(2, 2, 2)).coords() == (2, 2, 2)


def test_tau_beta_inverse_pair():
    rng = random.Random(2)
    for _ in range(100):
        p = Su2Point(*(Fraction(rng.randint(-20, 20), 10) for _ in range(3)))
        assert tau_beta_inv(tau_beta(p)).coords() == p.coords()
        assert tau_beta(tau_beta_inv(p)).coords() == p.coords()


def test_tau_beta_inv_poly_inverts_tau_beta_poly():
    """Both composites of the twist polynomials are the identity, and .eval is tau_beta_inv."""
    identity = JetVector(jet_variables(3, 4))
    assert tau_beta_inv_poly().then(tau_beta_poly()) == identity
    assert tau_beta_poly().then(tau_beta_inv_poly()) == identity
    rng = random.Random(3)
    for _ in range(20):
        p = Su2Point(*(Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(3)))
        assert tau_beta_inv_poly().eval(p.coords()) == tau_beta_inv(p).coords()
        q = Su2Point(*(rng.randint(-20, 20) for _ in range(3)))
        assert tau_beta_inv_poly().eval(q.coords()) == tau_beta_inv(q).coords()


def test_cat_map_su2_values():
    assert cat_map_su2(Su2Point(0, 0, 0)).coords() == (0, 0, 0)
    assert cat_map_su2(Su2Point(2, 2, 2)).coords() == (2, 2, 2)


def test_cat_map_is_tau_alpha_after_tau_beta():
    """M = tau_alpha o tau_beta as an exact polynomial identity."""
    composed = tau_beta_poly(3).then(tau_alpha_poly(3))
    cat = cat_map_su2_poly()
    for lhs, rhs in zip(composed.components, cat.components):
        assert lhs.coeffs == rhs.coeffs


def test_level_preservation_exact():
    """kappa o tau = kappa and kappa o M = kappa as exact polynomial identities."""
    k = kappa_poly(12)
    for auto in (tau_alpha_poly(2), tau_beta_poly(2), cat_map_su2_poly()):
        inner = [c.truncated(12) for c in auto.components]
        assert k.compose(inner, allow_constant=True) == k


def test_pq_invariance_exact():
    """P o M = P and Q o M = Q in the 8 unitary variables, exactly."""
    m = cat_map_su3_poly()
    inner = [c.truncated(12) for c in m.components[:8]]
    # drop the U variable: the first 8 cat-map components do not involve it
    inner8 = []
    for c in inner:
        coeffs = {}
        for e, v in c.coeffs.items():
            assert e[8] == 0
            coeffs[e[:8]] = v
        inner8.append(Jet(8, 12, coeffs))
    p = p_poly().truncated(12)
    q = q_poly().truncated(18)
    assert p.compose(inner8, allow_constant=True) == p
    inner18 = [c.truncated(18) for c in inner8]
    assert q.compose(inner18, allow_constant=True) == q


# ------------------------------------------------------------------ SU(3) cat map


def test_cat_map_su3_fixes_family_exactly():
    for num, den in [(0, 1), (1, 5), (249, 1000), (-1, 3)]:
        fp = fixed_family_su3(Fraction(num, den)).su3_point
        assert cat_map_su3(fp).coords9() == fp.coords9()


def test_cat_map_su3_fixes_family_float():
    point = tuple(float(c) for c in fixed_family_su3(Fraction(249, 1000)).su3_point.coords9())
    img = cat_map_su3(point)
    assert max(abs(a - b) for a, b in zip(img, point)) < 1e-9


def test_cat_map_su3_preserves_pq_values():
    rng = random.Random(3)
    for _ in range(20):
        pt = tuple(rng.uniform(-1, 1) for _ in range(8))
        img = cat_map_su3(pt)
        assert abs(poly_P(img) - poly_P(pt)) < 1e-9
        assert abs(poly_Q(img) - poly_Q(pt)) < 1e-9


def test_cat_map_su3_u_component_identity():
    pt = tuple(range(1, 10))
    assert cat_map_su3(pt)[8] == 9


def test_solved_fixed_points_have_constrained_form():
    """Gauss-Newton solutions of M(p) = p from on-variety seeds satisfy
    z = x, Z = X, t = y, T = -Y within 1e-8."""
    rng = random.Random(12)

    def residual(v):
        img = cat_map_su3(tuple(v) + (0.0,))
        return np.array([img[i] - v[i] for i in range(8)])

    def jacobian(v, h=1e-7):
        J = np.zeros((8, 8))
        for j in range(8):
            vp, vm = list(v), list(v)
            vp[j] += h
            vm[j] -= h
            J[:, j] = (residual(vp) - residual(vm)) / (2 * h)
        return J

    found = 0
    while found < 10:
        s = rng.uniform(-0.45, 0.24)
        seed = np.array([float(c) for c in fixed_family_su3(Fraction(s).limit_denominator(997)).su3_point.coords8()])
        seed += 0.05 * np.array([rng.gauss(0, 1) for _ in range(8)])
        v = seed
        for _ in range(60):
            r = residual(v)
            if np.linalg.norm(r) < 1e-13:
                break
            step, *_ = np.linalg.lstsq(jacobian(v), -r, rcond=None)
            v = v + 0.8 * step
        if np.linalg.norm(residual(v)) > 1e-10:
            continue  # diverged seed: not a counterexample, just retry
        found += 1
        x, X, y, Y, z, Z, t, T = v
        assert abs(z - x) < 1e-8
        assert abs(Z - X) < 1e-8
        assert abs(t - y) < 1e-8
        assert abs(T + Y) < 1e-8


# ------------------------------------------------------------------ sphere of directions


def test_sphere_action_cat_map_order_three():
    rng = random.Random(4)
    for _ in range(100):
        v = np.array([rng.gauss(0, 1) for _ in range(3)])
        v /= np.linalg.norm(v)
        w = v
        for _ in range(3):
            w = sphere_action("M", w)
        assert np.allclose(w, v, atol=1e-12)


def test_sphere_action_tau_alpha_order_four():
    rng = random.Random(5)
    v = np.array([rng.gauss(0, 1) for _ in range(3)])
    v /= np.linalg.norm(v)
    w = v
    for _ in range(4):
        w = sphere_action("tau_alpha", w)
    assert np.allclose(w, v, atol=1e-12)


def test_sphere_action_reads_off_formula():
    out = sphere_action("M", (1.0, 0.0, 0.0))
    assert np.allclose(out, (0.0, -1.0, 0.0))


def test_sphere_action_is_orthogonal():
    rng = random.Random(6)
    for name in ("tau_alpha", "tau_beta_inv", "M"):
        v = np.array([rng.gauss(0, 1) for _ in range(3)])
        v /= np.linalg.norm(v)
        assert abs(np.linalg.norm(sphere_action(name, v)) - 1.0) < 1e-12


def test_sphere_action_generates_octahedral_group():
    """The two twist generators close into a group of order 24 on the sphere."""
    from charvar_kam.mcg import SPHERE_GENERATORS

    gens = [SPHERE_GENERATORS["tau_alpha"].astype(int), SPHERE_GENERATORS["tau_beta_inv"].astype(int)]
    seen = {tuple(np.eye(3, dtype=int).flatten())}
    frontier = [np.eye(3, dtype=int)]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = g @ m
                key = tuple(prod.flatten())
                if key not in seen:
                    seen.add(key)
                    nxt.append(prod)
        frontier = nxt
    assert len(seen) == 24


def test_sphere_matrices_exactly_orthogonal_and_compatible():
    from charvar_kam.mcg import SPHERE_GENERATORS

    for mat in SPHERE_GENERATORS.values():
        m = mat.astype(int)
        assert (m.T @ m == np.eye(3, dtype=int)).all()
    # the cat matrix action is tau_alpha followed by tau_beta's inverse action
    a = SPHERE_GENERATORS["tau_alpha"].astype(int)
    b_inv = SPHERE_GENERATORS["tau_beta_inv"].astype(int)
    b = np.linalg.inv(b_inv).astype(int)
    assert (a @ b == SPHERE_GENERATORS["M"].astype(int)).all()


def test_sphere_action_normalizes_with_warning():
    with pytest.warns(UserWarning):
        out = sphere_action("M", (2.0, 0.0, 0.0))
    assert np.allclose(out, (0.0, -1.0, 0.0))


# ------------------------------------------------------------------ fixed families


def test_fixed_family_su2_values():
    assert fixed_family_su2(Fraction(0)).coords() == (0, 0, 0)
    p = fixed_family_su2(Fraction(1, 5))
    assert p.coords() == (Fraction(2, 5), Fraction(-2, 3), Fraction(2, 5))


def test_fixed_family_su2_pole_and_domain():
    with pytest.raises(PoleError):
        fixed_family_su2(Fraction(1, 2))
    with pytest.raises(UnrealizableError):
        fixed_family_su2(Fraction(9, 10))  # |u| > 1
    with pytest.raises(UnrealizableError):
        fixed_family_su2(Fraction(3, 2))  # |s| > 1


def test_su2_commutator_trace_is_kappa_of_fixed_point():
    # 21 exact sample points exceed the cross-multiplied degree bound, so
    # agreement here is a rational-function identity proof
    for k in range(-10, 11):
        s = Fraction(k, 41)
        assert kappa_su2(fixed_family_su2(s).coords()) == su2_commutator_trace(s)


def test_fixed_family_su2_fixed_under_cat_map():
    for k in range(-10, 10):
        s = Fraction(k, 37)
        p = fixed_family_su2(s)
        assert cat_map_su2(p).coords() == p.coords()


def test_su2_commutator_matches_matrices():
    for s in (0.1, -0.2, 0.25):
        A, B = a_matrix(s), b_matrix(s)
        assert np.allclose(A @ A.conj().T, np.eye(2), atol=1e-12)
        assert np.allclose(B @ B.conj().T, np.eye(2), atol=1e-12)
        comm = A @ B @ A.conj().T @ B.conj().T
        assert abs(np.trace(comm) - su2_commutator_trace(s)) < 1e-10


# ------------------------------------------------------------------ symmetric square


def test_symmetric_square_pauli_values():
    A2 = symmetric_square(a_matrix(0))
    assert np.allclose(A2, np.diag([-1, 1, -1]), atol=1e-12)
    B2 = symmetric_square(b_matrix(0))
    expected = np.array([[0, 0, 1], [0, -1, 0], [1, 0, 0]], dtype=complex)
    assert np.allclose(B2, expected, atol=1e-12)


def test_symmetric_square_det_identity():
    rng = random.Random(7)
    for _ in range(20):
        m = np.array([[rng.gauss(0, 1) for _ in range(2)] for _ in range(2)])
        m /= math.sqrt(abs(np.linalg.det(m)))
        if np.linalg.det(m) < 0:
            m[:, 0] *= -1  # force det +1
        d = np.linalg.det(symmetric_square(m))
        assert abs(d - np.linalg.det(m) ** 3) < 1e-9


def test_su3_commutator_trace_matches_matrices():
    for s in (0.05, 0.2, -0.4, 0.249):
        A2 = symmetric_square(a_matrix(s))
        B2 = symmetric_square(b_matrix(s))
        comm = A2 @ B2 @ np.linalg.inv(A2) @ np.linalg.inv(B2)
        assert abs(np.trace(comm) - su3_commutator_trace(s)) < 1e-9


# ------------------------------------------------------------------ level of s


def test_level_of_s_values():
    assert level_of_s(Fraction(0)) == 3
    assert abs(level_of_s(0.249) - (-0.9250133569004855)) < 1e-13


def test_level_equals_octic_identically():
    """Exact numerator identity over the common denominator (1-2s)^4."""
    s, = jet_variables(1, 8)
    f1 = -3 + 4 * s * (3 - 6 * s * s + 4 * s * s * s)
    f2 = -1 + 4 * s * (1 + 2 * (-1 + s) * s * (-1 + 2 * s))
    product = f1 * f2
    octic = Jet(
        1, 8,
        {(8,): 256, (7,): -768, (6,): 704, (5,): 64, (4,): -448, (3,): 192, (2,): 24, (1,): -24, (0,): 3},
    )
    assert product == octic


def test_fixed_family_su3_shape_and_level():
    fp = fixed_family_su3(Fraction(0))
    assert fp.su3_point.coords9() == (-1, 0, -1, 0, -1, 0, -1, 0, 0)
    assert fp.level.zeta == 3
    s = Fraction(1, 6)
    c = fixed_family_su3(s).su3_point.coords8()
    # the fixed-point form (x, X, y, Y, x, X, y, -Y)
    assert c[4] == c[0] and c[5] == c[1] and c[6] == c[2] and c[7] == -c[3]


def test_realizable_interval_endpoints():
    left, right = realizable_interval_su3()
    assert abs(left - (-0.5405)) < 1e-3
    assert abs(right - 0.2597) < 1e-3
    # ell touches -1 tangentially at both endpoints
    assert abs(level_of_s(left) + 1) < 1e-10
    assert abs(level_of_s(right) + 1) < 1e-10
    assert abs(level_numerator_octic(right) + (1 - 2 * right) ** 4) < 1e-12


def test_octic_attains_minus_one_at_extremities():
    left, right = realizable_interval_su3()
    assert abs(su3_commutator_trace(right) + 1) < 1e-10
    assert abs(su3_commutator_trace(left) + 1) < 1e-10


def test_level_pole():
    with pytest.raises(PoleError):
        level_of_s(Fraction(1, 2))
