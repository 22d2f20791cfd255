import dataclasses
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from charvar_kam import charts, jets
from charvar_kam.charts import (
    _h_tilde,
    _substituted_pq,
    chart_linear_matrix,
    chart_map_jet,
    chart_spec,
    solve_t,
    solve_z_implicit,
    su2_chart_map_jet,
)
from charvar_kam.errors import ConsistencyError, SingularChartError
from charvar_kam.jets import Jet, jet_variables
from charvar_kam.mcg import cat_map_su3, cat_map_su3_poly, fixed_family_su2, fixed_family_su3
from charvar_kam.pipelines import SCAN_ERRORS, su2_brown_point, su3_main_point
from charvar_kam.spectral import classify_spectrum
from charvar_kam.varieties import kappa_su2, p_poly, q_poly

S249 = Fraction(249, 1000)

# printed reference values carry k! times the polynomial coefficient of each
# degree-k monomial (see the golden-file normalization note)


def printed(jet, exps):
    return jet.coefficient(exps) * math.factorial(sum(exps))


@pytest.fixture(scope="module")
def chart249():
    return chart_map_jet(fixed_family_su3(S249))


def test_chart_spec_branch_and_level():
    spec = chart_spec(fixed_family_su3(S249))
    assert spec.sqrt_branch == -1
    assert float(spec.level) == pytest.approx(-0.9250133569004855, abs=1e-13)


def test_t_jet_golden_values(chart249):
    tj = chart249.t_jet
    assert tj.constant_term() == pytest.approx(-0.0158728, rel=1e-3)
    assert printed(tj, (0, 0, 0, 0, 0, 0, 2)) == pytest.approx(35.9596, rel=1e-3)
    assert printed(tj, (1, 0, 0, 0, 0, 0, 0)) == pytest.approx(-27.4865, rel=1e-3)
    assert printed(tj, (0, 0, 1, 0, 0, 0, 0)) == pytest.approx(-21.6578, rel=1e-3)
    assert printed(tj, (0, 1, 0, 0, 0, 0, 1)) == pytest.approx(1.14156, rel=1e-3)
    assert printed(tj, (3, 0, 0, 0, 0, 0, 0)) == pytest.approx(-8.05253e7, rel=1e-3)


def test_z_jet_golden_values(chart249):
    zj = chart249.z_jet
    z0 = zj.constant_term()
    assert z0 == pytest.approx(-0.751996, rel=1e-6)
    # the printed form keeps a raw "-x": its displayed constant is z0 + x0
    x0 = float(chart249.spec.center.x)
    assert z0 + x0 == pytest.approx(-1.50399, rel=1e-3)
    assert zj.coefficient((1, 0, 0, 0, 0, 0)) == pytest.approx(-1.0, rel=1e-3)
    assert printed(zj, (0, 0, 0, 0, 0, 2)) == pytest.approx(1.28663, rel=1e-3)
    assert printed(zj, (0, 2, 0, 0, 0, 0)) == pytest.approx(1.22118, rel=1e-3)


def test_center_shift_consistency():
    # the printed shifts (0.751996 + x), (0.0158728 + y) are minus the center
    fp = fixed_family_su3(S249).su3_point
    assert -float(fp.x) == pytest.approx(0.751996, abs=1e-6)
    assert -float(fp.y) == pytest.approx(0.0158728, abs=1e-6)


def test_elimination_residuals(chart249):
    assert chart249.residual_h() < 1e-7
    assert chart249.residual_level() < 1e-7


def test_branch_constant_matches_center_along_scan():
    for num in (239, 242, 245, 249):
        s = Fraction(num, 1000)
        spec = chart_spec(fixed_family_su3(s))
        tj = solve_t(spec)
        assert tj.constant_term() == pytest.approx(float(spec.center.t), abs=1e-12)
        zj = solve_z_implicit(spec, _h_tilde(*_substituted_pq(spec, tj)[:2]))
        assert zj.constant_term() == pytest.approx(float(spec.center.z), abs=1e-12)


def test_map_jet_zero_constant(chart249):
    for comp in chart249.map_jet:
        assert not comp.constant_term()


def test_linear_part_elliptic_at_249(chart249):
    rep = classify_spectrum(chart_linear_matrix(chart249))
    assert rep.is_elliptic()
    for v in rep.eigenvalues:
        assert abs(abs(v) - 1.0) < 1e-8


def _exact_chart_image(chart, v):
    """Lift a chart displacement, apply the exact 9-variable map, project back."""
    c = chart.spec.center
    centers8 = [float(c.x), float(c.X), float(c.y), float(c.Y), float(c.z), float(c.Z), float(c.t), float(c.T)]
    zeta = chart.z_jet.eval(list(v)) - centers8[4]
    t_val = chart.t_jet.eval([v[0], v[1], v[2], v[3], zeta, v[4], v[5]])
    full = [
        centers8[0] + v[0], centers8[1] + v[1], centers8[2] + v[2], centers8[3] + v[3],
        centers8[4] + zeta, centers8[5] + v[4], t_val, centers8[7] + v[5], 0.0,
    ]
    img = cat_map_su3(tuple(full))
    keep = (0, 1, 2, 3, 5, 7)
    return [img[i] - centers8[i] for i in keep]


def test_map_jet_matches_exact_map_at_small_displacements(chart249):
    rng = random.Random(3)
    for _ in range(5):
        v = np.array([rng.gauss(0, 1) for _ in range(6)])
        v *= 1e-4 / np.linalg.norm(v)
        jet_img = [comp.eval(list(v)) for comp in chart249.map_jet]
        exact_img = _exact_chart_image(chart249, v)
        assert max(abs(a - b) for a, b in zip(jet_img, exact_img)) < 1e-10


def test_order_three_accuracy_ratio(chart249):
    """Halving the displacement shrinks the error at least 15x (O(h^4) truncation)."""
    rng = random.Random(5)
    def worst(norm):
        err = 0.0
        for _ in range(5):
            v = np.array([rng.gauss(0, 1) for _ in range(6)])
            v *= norm / np.linalg.norm(v)
            jet_img = [comp.eval(list(v)) for comp in chart249.map_jet]
            exact_img = _exact_chart_image(chart249, v)
            err = max(err, max(abs(a - b) for a, b in zip(jet_img, exact_img)))
        return err

    e1 = worst(1e-3)
    e2 = worst(5e-4)
    assert e1 / e2 >= 15.0


def test_chart_degenerates_at_s0():
    # the s = 0 fixed point is reducible (level-3 fibre is CP^2, dimension 4):
    # the 6-variable implicit elimination must degenerate there
    from charvar_kam.errors import DegenerateChartError

    with pytest.raises(DegenerateChartError):
        chart_map_jet(fixed_family_su3(Fraction(0)))


def test_spectrum_near_s0_mixed():
    # near s = 0 the spectrum mixes: one elliptic pair and two hyperbolic pairs
    # whose multipliers approach the torus values (3 +/- sqrt(5))/2
    chart = chart_map_jet(fixed_family_su3(Fraction(1, 100)))
    rep = classify_spectrum(chart_linear_matrix(chart))
    assert sorted(rep.classification) == ["elliptic", "hyperbolic", "hyperbolic"]
    mags = sorted(
        abs(rep.eigenvalues[p[0]])
        for p, t in zip(rep.pairing, rep.classification)
        if t == "hyperbolic"
    )
    assert abs(mags[0] - (3 - math.sqrt(5)) / 2) < 5e-3
    assert abs(mags[1] - (3 + math.sqrt(5)) / 2) < 5e-3


def test_chart_json_round_trip(chart249):
    data = chart249.t_jet.to_json()
    assert data["num_vars"] == 7
    back = {tuple(t["exps"]): complex(t["re"], t["im"]) for t in data["terms"]}
    assert back == chart249.t_jet.coeffs


# ------------------------------------------------------------------ recentering


def _compose_recentered(poly, centers, trunc_degree):
    """Oracle: poly(center + w) by jet composition."""
    w = jet_variables(poly.num_vars, trunc_degree, coeff_one=Fraction(1))
    return poly.compose([w[i] + centers[i] for i in range(poly.num_vars)], allow_constant=True)


def _read_scaled(num, den):
    """The recentered jet's items with each integer read as ``Fraction(n, den)``."""
    assert den > 0 and all(type(n) is int for n in num._coeffs.values())
    return [(e, Fraction(n, den)) for e, n in num._coeffs.items()]


#: a center with zero and repeated coordinates, denominators shared and not
_ODD_CENTER = (Fraction(0), Fraction(1, 3), Fraction(1, 3), 0, Fraction(-2, 7), Fraction(-2, 7), Fraction(5), 2)


@pytest.mark.parametrize("trunc_degree", [3, 4, 5])
def test_translate_matches_compose_items_and_order(trunc_degree):
    spec = chart_spec(fixed_family_su3(S249), trunc_degree)
    centers8 = charts._center8(spec)
    cases = [(p_poly(), centers8), (q_poly(), centers8), (charts._p_no_t_7(), charts._center7(spec))]
    for i in charts._KEEP_COMPONENTS:
        poly9 = cat_map_su3_poly(trunc_degree).components[i]
        cases.append((Jet(8, trunc_degree, {e[:8]: c for e, c in poly9.coeffs.items()}), centers8))
    cases += [(p_poly(), _ODD_CENTER), (q_poly(), _ODD_CENTER)]
    for poly, centers in cases:
        got, den = charts._translate(poly, centers, trunc_degree)
        want = _compose_recentered(poly, centers, trunc_degree)
        assert got.trunc_degree == want.trunc_degree == trunc_degree
        assert _read_scaled(got, den) == list(want._coeffs.items())


@pytest.mark.parametrize("trunc_degree", [3, 5])
@pytest.mark.parametrize("s", ["0", "-1/2", "0.2411", "0.2439", "odd"])
def test_translate_replays_the_expansion_loop(s, trunc_degree):
    """Recentering plans give the items, in order, of expanding every monomial afresh."""
    from oracles import translate_items

    polys8 = [p_poly(), q_poly(), *charts._cat_map_8(trunc_degree)]
    if s == "odd":
        cases = [(poly, _ODD_CENTER) for poly in polys8]
    else:
        spec = chart_spec(fixed_family_su3(Fraction(s)), trunc_degree)
        cases = [(poly, charts._center8(spec)) for poly in polys8]
        cases.append((charts._p_no_t_7(), charts._center7(spec)))
    for poly, centers in cases:
        got, den = charts._translate(poly, centers, trunc_degree)
        assert got.trunc_degree == trunc_degree
        assert _read_scaled(got, den) == translate_items(poly, centers, trunc_degree)


def test_p_without_t_is_the_t_free_terms_of_p():
    """P at t = 0 keeps P's t-free terms, in P's order, with the t slot cut out and every coefficient exact."""
    p = p_poly()
    got = charts._p_no_t_7()
    assert (got.num_vars, got.trunc_degree) == (7, p.trunc_degree)
    want = [(e[:6] + e[7:], c) for e, c in p.coeffs.items() if e[6] == 0]
    assert [(e, type(c), c) for e, c in got.coeffs.items()] == [(e, type(c), c) for e, c in want]


@pytest.mark.parametrize("trunc_degree", [2, 3, 4, 5])
def test_shift_plan_matches_the_tuple_built_plan(trunc_degree):
    """Plans built on integer codes equal those built by concatenating exponent tuples, field for field."""
    from oracles import shift_plan_tuples

    zero8 = tuple(not c for c in charts._center8(chart_spec(fixed_family_su3(S249), 3)))
    patterns8 = [zero8, (False,) * 8, tuple(not c for c in _ODD_CENTER)]
    cases = [(poly, zero) for poly in (p_poly(), q_poly(), *charts._cat_map_8(trunc_degree)) for zero in patterns8]
    cases += [(charts._p_no_t_7(), zero[:6] + zero[7:]) for zero in patterns8]
    for poly, zero in cases:
        charts._shift_plan.cache_clear()
        got = charts._shift_plan(charts._Same(poly), trunc_degree, zero)
        assert got == shift_plan_tuples(poly, trunc_degree, zero)


@pytest.mark.parametrize("trunc_degree", [3, 5])
@pytest.mark.parametrize("s", ["0.2411", "0.2439", "0.2455"])
def test_solve_t_matches_the_fraction_built_t_jet(s, trunc_degree):
    """The t-jet built in scaled integers has the items, in order, of the Fraction-built one."""
    from oracles import solve_t_items

    spec = chart_spec(fixed_family_su3(Fraction(s)), trunc_degree)
    got = list(solve_t(spec)._coeffs.items())
    assert got == solve_t_items(spec)
    assert all(type(c) is float for _, c in got)


def test_float_jet_matches_subtracting_then_rounding_a_fraction_jet(monkeypatch):
    """``_recentered`` of a ``_translate`` result (num, den) is ``(num / den - minus).map_coefficients(float)``."""
    spec = chart_spec(fixed_family_su3(S249))

    def recentered(num, den, minus=0):
        monkeypatch.setattr(charts, "_translate", lambda *args: (num, den))
        return charts._recentered(spec, None, minus)

    x, y = (1, 0), (0, 1)
    cases = [
        ({(0, 0): 3, x: 5}, 7, Fraction(3, 7)),  # the constant cancels and drops
        ({x: 5, (0, 0): 3, y: -2}, 7, Fraction(1, 3)),  # the constant changes in place
        ({x: 5, y: -2}, 7, Fraction(-1, 3)),  # an absent constant is appended
        ({x: 5, (0, 0): 2}, 6, 0),  # nothing to subtract
        ({x: 5, (0, 0): 2}, 6, Fraction(0)),
        ({x: 1, y: 3 * 10**400, (0, 0): 1}, 10**400, Fraction(1, 10**400)),  # underflow to 0.0 drops
        ({x: 10**30 + 1, (2, 0): -(3**200)}, 3**199 * 10**25, Fraction(-(5**300), 7**90)),
        ({x: 5, (0, 0): 1}, 2, Fraction(1, 3)),  # float(1/2) - float(1/3) is not float(1/6)
    ]
    for items, den, minus in cases:
        num = Jet(2, 3, items)
        exact = Jet(2, 3, {e: Fraction(n, den) for e, n in items.items()})
        want = (exact - minus).map_coefficients(float)
        got = recentered(num, den, minus)
        assert list(got._coeffs.items()) == list(want._coeffs.items())
    assert list(recentered(Jet(2, 3, {x: 2, (0, 0): 1}), 3)._coeffs.items()) == [(x, 2 / 3), ((0, 0), 1 / 3)]


def test_chart_build_recenters_p_and_q_once(monkeypatch):
    calls = []
    real = charts._substituted_pq

    def counted(spec, t_jet):
        calls.append(spec.s)
        return real(spec, t_jet)

    monkeypatch.setattr(charts, "_substituted_pq", counted)
    charts._chart_cache.cache_clear()
    chart = chart_map_jet(fixed_family_su3(S249))
    assert calls == [S249]
    p7, q7 = real(chart.spec, chart.t_jet)[:2]
    zeta = chart.z_jet - chart.z_jet.constant_term()
    r = _h_tilde(p7, q7).substitute_variable(charts._Z7, zeta, charts._MAP_7_TO_6)
    assert chart.residual_h() == max(abs(c) for c in r.coeffs.values())
    diff = p7 * 0.5 - float(chart.spec.level)
    assert chart.residual_level() == max(abs(c) for c in diff.coeffs.values())
    assert calls == [S249]


def test_chart_build_substitutes_t_once(monkeypatch):
    """P, Q and the six kept cat-map components take the t-jet in one substitution, sharing its powers."""
    calls = []
    real = jets._substitute

    def counted(outers, var, replacement, var_map):
        calls.append((outers[0].num_vars, var, len(outers)))
        return real(outers, var, replacement, var_map)

    monkeypatch.setattr(jets, "_substitute", counted)
    charts._chart_cache.cache_clear()
    chart_map_jet(fixed_family_su3(S249))
    assert [c for c in calls if c[:2] == (8, charts._T8)] == [(8, charts._T8, 8)]


def test_chart_build_substitutes_z_once_after_the_solve(monkeypatch):
    """After the z-solve's sweeps, H and the six map components take the z-jet in one substitution, which residual_h reads."""
    calls = []
    real = jets._substitute

    def counted(outers, var, replacement, var_map):
        calls.append((outers[0].num_vars, var, len(outers)))
        return real(outers, var, replacement, var_map)

    monkeypatch.setattr(jets, "_substitute", counted)
    charts._chart_cache.cache_clear()
    chart = chart_map_jet(fixed_family_su3(S249))
    chart.residual_h()
    sweeps = chart.spec.trunc_degree + 1
    z_calls = [c for c in calls if c[:2] == (7, charts._Z7)]
    assert z_calls[:sweeps] == [(7, charts._Z7, 1)] * sweeps
    assert z_calls[sweeps:] == [(7, charts._Z7, 7)]


_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"

#: s -> (stored report, chart degree): sparse and dense eigenbasis C0 at
#: degree 3, and a degree-5 row whose normal form reads only its 3-jet
_REFERENCE_ROWS = {"0.2411": ("su3-window", 3), "0.2439": ("su3-window", 3), "0.2397": ("su3-deep", 5)}


@pytest.mark.parametrize("s_text", list(_REFERENCE_ROWS))
def test_su3_rows_equal_stored_reference(s_text):
    workload, degree = _REFERENCE_ROWS[s_text]
    rows = json.loads((_REFERENCE / f"{workload}.json").read_text())["report"]["rows"]
    want = next(r for r in rows if r["s"] == float(s_text))
    got = su3_main_point(Fraction(s_text), trunc_degree=degree)
    assert sorted(got) == sorted(want)
    for key, value in want.items():
        assert got[key] == value, key


@pytest.mark.parametrize("s_text", ["0.00503", "0.12471", "0.24889"])
def test_su2_rows_equal_stored_reference(s_text):
    """Near both ends and the middle of the stored SU(2) sweep, key order included."""
    rows = json.loads((_REFERENCE / "su2-sweep.json").read_text())["report"]["rows"]
    want = next(r for r in rows if r["s"] == float(s_text))
    got = su2_brown_point(Fraction(s_text))
    assert list(got) == list(want)
    for key, value in want.items():
        assert got[key] == value, key


def test_chart_linear_matrix_reads_the_linear_coefficients():
    """Read by variable codes, the linear part equals the one read by exponent tuples, bit for bit."""
    from oracles import chart_linear_matrix_loop

    charts_ = [chart_map_jet(fixed_family_su3(Fraction("0.2439")), 3), chart_map_jet(fixed_family_su3(Fraction("0.2411")), 5)]
    for chart in charts_ + [_su2_chart(Fraction(1, 10))]:
        got, want = chart_linear_matrix(chart), chart_linear_matrix_loop(chart.map_jet)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("s_text", ["0.239", "0.2411"])
def test_chart_linear_part_does_not_depend_on_degree(s_text):
    """The cat map's cubic terms reach the linear part through recentering,
    so a degree-2 chart builds the cat map at its full degree too."""
    s = Fraction(s_text)
    m2, m3, m4 = (chart_linear_matrix(chart_map_jet(fixed_family_su3(s), td)) for td in (2, 3, 4))
    assert (m2 == m3).all() and (m3 == m4).all()
    assert classify_spectrum(m2).classification == ("elliptic",) * 3


# ------------------------------------------------------------------ SU(2) chart


def _su2_chart(s):
    return su2_chart_map_jet(fixed_family_su2(s))


def test_su2_chart_singular_at_origin():
    with pytest.raises(SingularChartError):
        _su2_chart(Fraction(0))


def test_su2_chart_zero_constant_and_unit_determinant():
    for num in (5, 10, 20, -30):
        ch = _su2_chart(Fraction(num, 100))
        for comp in ch.map_jet:
            assert not comp.constant_term()
        L = chart_linear_matrix(ch)
        assert np.linalg.det(L) == pytest.approx(1.0, abs=1e-12)


def _chart_or_error(build, s):
    try:
        return build(s), None
    except SCAN_ERRORS as exc:
        return None, f"{type(exc).__name__}: {exc}"


def test_su2_chart_equals_fraction_built_chart():
    """The integer fixed point and radicand give the Fraction-built chart item for item, in order.

    At every chart degree from 1 to 5: the radicand's coefficients are
    written out, and a degree above 3 keeps its (2, 2) term first.
    """
    from oracles import su2_chart_items

    def items(s, degree):
        ch = su2_chart_map_jet(fixed_family_su2(s), degree)
        return list(ch.x_jet._coeffs.items()), [list(c._coeffs.items()) for c in ch.map_jet]

    values = [Fraction(-1) + Fraction(149, 100) * Fraction(k, 19) for k in range(20)]
    values += [Fraction("0.00503"), Fraction(1, 3), Fraction(-1, 7)]
    values += [Fraction(0), Fraction(1, 10**170), Fraction(-1, 10**170), Fraction(3, 2), Fraction(-11, 10)]
    errors = {}
    for degree in (3, 1, 2, 4, 5):
        for s in values:
            got, err = _chart_or_error(lambda s: items(s, degree), s)
            want, want_err = _chart_or_error(lambda s: su2_chart_items(s, degree), s)
            assert got == want, (s, degree)
            assert err == want_err, (s, degree)
            if err is None:
                p0 = _su2_chart(s).fixed_point
                assert p0.coords() == (2 * s, 2 * s / (2 * s - 1), 2 * s)
                assert Fraction(p0.level_n, p0.b**4) == kappa_su2(p0.coords())
            else:
                errors[s] = err
    assert len(values) - len(errors) >= 12
    assert "origin blow-up" in errors[Fraction(0)]
    assert "underflows to 0.0" in errors[Fraction(1, 10**170)]
    assert errors[Fraction(3, 2)].startswith("UnrealizableError")


def test_su2_x_jet_solves_level_equation():
    ch = _su2_chart(Fraction(1, 10))
    rng = random.Random(7)
    p0 = ch.fixed_point
    x0, y0, z0 = p0.center()
    for _ in range(10):
        dy, dz = rng.uniform(-1e-3, 1e-3), rng.uniform(-1e-3, 1e-3)
        x = ch.x_jet.eval([dy, dz])
        k = kappa_su2((x, y0 + dy, z0 + dz))
        assert abs(k - p0.level_n / p0.b**4) < 1e-10


def test_su2_chart_map_tracks_exact_action():
    from charvar_kam.mcg import cat_map_su2
    from charvar_kam.varieties import Su2Point

    ch = _su2_chart(Fraction(1, 10))
    x0, y0, z0 = ch.fixed_point.center()
    rng = random.Random(9)
    for norm in (1e-3,):
        for _ in range(5):
            dy, dz = rng.gauss(0, 1), rng.gauss(0, 1)
            scale = norm / math.hypot(dy, dz)
            dy, dz = dy * scale, dz * scale
            x = ch.x_jet.eval([dy, dz])
            img = cat_map_su2(Su2Point(x, y0 + dy, z0 + dz))
            exact = (img.y - y0, img.z - z0)
            jet_img = [comp.eval([dy, dz]) for comp in ch.map_jet]
            assert max(abs(a - b) for a, b in zip(jet_img, exact)) < 1e-10


def test_center_off_level_raises_scan_error():
    """A center that misses P/2 = ell raises a typed error a scan records, even under -O."""
    spec = chart_spec(fixed_family_su3(S249))
    off = dataclasses.replace(spec, level=spec.level + Fraction(1, 10**6))
    with pytest.raises(ConsistencyError):
        solve_t(off)
    assert issubclass(ConsistencyError, SCAN_ERRORS)
