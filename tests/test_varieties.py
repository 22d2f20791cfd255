import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

from charvar_kam.errors import ConsistencyError, OffVarietyError
from charvar_kam.jets import Jet, jet_variables
from charvar_kam.mcg import fixed_family_su3, level_of_s
from charvar_kam.varieties import (
    LevelValue,
    _unitary_jet,
    Su2Point,
    Su3Point,
    boundary_map_su3,
    deltoid_discriminant,
    deltoid_member,
    h_poly,
    kappa_poly,
    kappa_su2,
    p_poly,
    poly_H,
    poly_P,
    poly_Q,
    q_poly,
    su2_member,
    su3_on_variety,
    trace_p_poly,
    trace_q_poly,
)


def random_su3(rng):
    g = np.array(
        [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3)] for _ in range(3)]
    )
    q, r = np.linalg.qr(g)
    # fix the phase freedom of QR, then normalize the determinant into SU(3)
    q = q @ np.diag([d / abs(d) for d in np.diag(r)])
    det = np.linalg.det(q)
    return q / det ** (1 / 3)


def unitary_coords(A, B):
    """The 9 real unitary coordinates of a representation (A, B)."""
    a = np.trace(A)
    b = np.trace(B)
    c = np.trace(A @ B)
    d = np.trace(A @ B.conj().T)
    comm = np.trace(A @ B @ A.conj().T @ B.conj().T)
    return (
        a.real, a.imag, b.real, b.imag, c.real, c.imag, d.real, d.imag, comm.imag,
    ), comm


# ------------------------------------------------------------------ kappa


def test_kappa_values():
    assert kappa_su2((0, 0, 0)) == -2
    assert kappa_su2((2, 2, 2)) == 2
    assert kappa_su2((1, 1, 1)) == 0


def test_su2_member():
    assert su2_member(Su2Point(0, 0, 0))
    assert not su2_member(Su2Point(2, 2, -2))  # kappa = 18
    assert su2_member(Su2Point(2, 2, 2))


def test_kappa_poly_matches_scalar():
    k = kappa_poly()
    assert k.eval([0, 0, 0]) == -2  # the blown-up origin level
    rng = random.Random(1)
    for _ in range(20):
        v = [Fraction(rng.randint(-8, 8), 4) for _ in range(3)]
        assert k.eval(v) == kappa_su2(v)


# ------------------------------------------------------------------ P, Q, H


def test_p_at_s0_fixed_point():
    assert poly_P((-1, 0, -1, 0, -1, 0, -1, 0)) == 6
    assert Fraction(poly_P((-1, 0, -1, 0, -1, 0, -1, 0)), 2) == 3


def test_p_half_matches_level_along_family():
    for num, den in [(249, 1000), (1, 5), (-1, 3), (24, 100)]:
        s = Fraction(num, den)
        fp = fixed_family_su3(s)
        assert poly_P(fp.su3_point) / 2 == level_of_s(s)


def test_p_at_s_249_value():
    # ledger: ell(.249) = -0.925013..., confirmed against the printed radicand
    # constant and the matrix commutator trace; the value sits near the -1 end
    # of the admissible interval [-1, 3].
    val = poly_P(fixed_family_su3(Fraction(249, 1000)).su3_point) / 2
    assert abs(float(val) - (-0.9250133569004855)) < 1e-12


def test_q_is_level_squared_on_family():
    for num, den in [(0, 1), (249, 1000), (1, 7), (-2, 5)]:
        s = Fraction(num, den)
        fp = fixed_family_su3(s)
        assert poly_Q(fp.su3_point) == level_of_s(s) ** 2
    assert poly_Q(fixed_family_su3(Fraction(0)).su3_point) == 9


def test_h_zero_on_family_nonzero_off():
    for num, den in [(0, 1), (249, 1000), (-1, 4)]:
        assert poly_H(fixed_family_su3(Fraction(num, den)).su3_point) == 0
    assert poly_H((1, 1, 1, 1, 1, 1, 1, 1)) != 0


def test_pq_match_su3_matrix_traces():
    """P = 2 Re tr[A,B] and Q = |tr[A,B]|^2 on actual SU(3) pairs."""
    rng = random.Random(5)
    for _ in range(25):
        A, B = random_su3(rng), random_su3(rng)
        coords, comm = unitary_coords(A, B)
        P = poly_P(coords[:8])
        Q = poly_Q(coords[:8])
        assert abs(P - 2 * comm.real) < 1e-9
        assert abs(Q - abs(comm) ** 2) < 1e-9


def test_q_swap_symmetry():
    """Q is invariant under swapping each trace with its inverse-word trace."""
    q = trace_q_poly()
    # variable order (x, y, z, t, X, Y, Z, T) -> swap halves
    swapped = {e[4:] + e[:4]: c for e, c in q.coeffs.items()}
    assert swapped == q.coeffs


def test_imaginary_part_left_after_substitution_is_a_consistency_error():
    """tr_a alone is x + iX: conjugation does not fix it, so its X term must be refused."""
    with pytest.raises(ConsistencyError, match=r"imaginary part failed to cancel at \(0, 1, 0, 0, 0, 0, 0, 0\): 1i"):
        _unitary_jet(Jet.variable(0, 8, 4))
    # (tr_a - tr_a^-1)^3 = (2iX)^3 = -8iX^3: the sign of i^3 shows
    tr_a, _, _, _, tr_a_inv, _, _, _ = jet_variables(8, 4)
    with pytest.raises(ConsistencyError, match=r"\(0, 3, 0, 0, 0, 0, 0, 0\): -8i"):
        _unitary_jet((tr_a - tr_a_inv) ** 3)


def test_p_and_q_equal_an_independent_sympy_expansion():
    """Substituting u = x + I*X, u-bar = x - I*X into the trace polynomials in sympy gives P and Q."""
    real = sympy.symbols("x X y Y z Z t T")
    x, X, y, Y, z, Z, t, T = real
    I = sympy.I
    traces = [x + I * X, y + I * Y, z + I * Z, t + I * T, x - I * X, y - I * Y, z - I * Z, t - I * T]
    for trace_poly, unitary in ((trace_p_poly(), p_poly()), (trace_q_poly(), q_poly())):
        expr = sympy.Add(
            *(sympy.Integer(c) * sympy.Mul(*(u**k for u, k in zip(traces, e))) for e, c in trace_poly.coeffs.items())
        )
        want = {}
        for e, c in sympy.Poly(expr, *real).terms():
            re, im = c.as_real_imag()
            assert im == 0, e
            want[e] = Fraction(int(re.p), int(re.q))
        assert unitary.coeffs == want


def test_p_and_q_equal_the_fraction_part_expansion_items_and_order():
    """Expanding over the integers gives the Gaussian-rational expansion's items, in order."""
    from oracles import unitary_expansion_items

    for poly, trace_poly, degree in ((p_poly(), trace_p_poly(), 4), (q_poly(), trace_q_poly(), 6)):
        items = list(poly._coeffs.items())
        assert items == unitary_expansion_items(trace_poly, degree)
        assert all(type(c) is Fraction for _, c in items)


def test_polys_accept_jets():
    vars8 = jet_variables(8, 4)
    p_jet = poly_P(vars8)
    assert p_jet == p_poly()


# ------------------------------------------------------------------ boundary map


def test_boundary_map_on_family():
    lv0 = boundary_map_su3(fixed_family_su3(Fraction(0)).su3_point)
    assert lv0.zeta == 3 and lv0.eta == 0
    lv = boundary_map_su3(fixed_family_su3(Fraction(249, 1000)).su3_point)
    assert abs(float(lv.zeta) - (-0.9250133569)) < 1e-9
    assert lv.eta == 0


def test_boundary_map_central_cube_root():
    pt = Su3Point(0, 0, 0, 0, 0, 0, 0, 0, U=3 * math.sqrt(3) / 2)
    lv = boundary_map_su3(pt)
    assert abs(lv.zeta - (-1.5)) < 1e-12
    assert abs(lv.eta - 3 * math.sqrt(3) / 2) < 1e-9
    assert lv.in_deltoid()
    neg = Su3Point(0, 0, 0, 0, 0, 0, 0, 0, U=-3 * math.sqrt(3) / 2)
    assert boundary_map_su3(neg).eta < 0


def test_boundary_map_off_variety():
    # Q - P^2/4 = -2125/4 here
    with pytest.raises(OffVarietyError):
        boundary_map_su3(Su3Point(2, 0, 2, 0, -2, 0, 0, 0, U=0))


def test_boundary_of_real_representations_lands_in_deltoid():
    rng = random.Random(9)
    for _ in range(25):
        A, B = random_su3(rng), random_su3(rng)
        coords, _ = unitary_coords(A, B)
        pt = Su3Point(*coords[:8], U=coords[8])
        assert su3_on_variety(pt, tol=1e-7)
        assert boundary_map_su3(pt, tol=1e-7).in_deltoid(tol=1e-7)


# ------------------------------------------------------------------ deltoid


def test_deltoid_special_points():
    assert deltoid_discriminant(3, 0) == 0
    eta = 3 * math.sqrt(3) / 2
    assert abs(deltoid_discriminant(-1.5, eta)) < 1e-12
    assert abs(deltoid_discriminant(-1.5, -eta)) < 1e-12
    assert deltoid_member(0, 0)
    assert deltoid_member(-1, 0)
    assert not deltoid_member(3.1, 0)
    assert not deltoid_member(-1.2, 0)


def test_levelvalue_su2_style():
    lv = LevelValue(-2)
    assert lv.eta == 0


def test_su3_point_u_is_half_p():
    fp = fixed_family_su3(Fraction(249, 1000)).su3_point
    assert fp.u == level_of_s(Fraction(249, 1000))
    pt = Su3Point(0, 0, 0, 0, 0, 0, 0, 0, U=0)
    assert pt.u == Fraction(-3, 2)


def test_su3_point_branch_state():
    p = Su3Point(0, 0, 0, 0, 0, 0, 0, 0, U=-1.0)
    assert p.branch == -1
    q = Su3Point(0, 0, 0, 0, 0, 0, 0, 0, U=0)
    assert q.branch == 1
    with pytest.raises(ValueError):
        Su3Point(0, 0, 0, 0, 0, 0, 0, 0, U=0, branch=2)


def test_polys_export_jet_json():
    data = p_poly().to_json()
    assert data["num_vars"] == 8
    assert len(data["terms"]) == len(p_poly().coeffs)
    assert h_poly().trunc_degree == 8
    assert q_poly().degree() == 6
