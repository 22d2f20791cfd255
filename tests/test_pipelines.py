import cmath
import gc
import io
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_report_properties import _S

from charvar_kam.birkhoff import birkhoff_coefficients, diagonalized_jets
from charvar_kam.charts import chart_linear_matrix, chart_map_jet, su2_chart_map_jet
from charvar_kam.mcg import fixed_family_su2, fixed_family_su3
from charvar_kam import charts, cli, pipelines, spectral
from charvar_kam.cli import dump_deterministic_json, parse_s_values
from charvar_kam.jets import Jet
from charvar_kam.pipelines import su2_brown_point, su3_main_point
from charvar_kam.spectral import build_C0, classify_spectrum

S249 = Fraction(249, 1000)


def _basis249():
    chart = chart_map_jet(fixed_family_su3(S249))
    L = chart_linear_matrix(chart)
    rep = classify_spectrum(L)
    return chart.map_jet, build_C0(L, rep)


@pytest.fixture(scope="module")
def nf249():
    return diagonalized_jets(*_basis249())


@pytest.fixture(scope="module")
def nf249_full():
    """Every coefficient of the diagonalized 3-jet (diagonalized_jets keeps few cubic ones)."""
    from oracles import diagonalized_full

    return diagonalized_full(*_basis249())


def test_reality_constraint_on_diagonalized_jets(nf249_full):
    """q_j(xi, eta) = conj(p_j(eta, xi)) on real points, from conjugate-pair columns."""
    rng = random.Random(11)
    d = nf249_full.d
    for _ in range(10):
        xi = [rng.uniform(-0.05, 0.05) for _ in range(d)]
        eta = [rng.uniform(-0.05, 0.05) for _ in range(d)]
        swapped = eta + xi
        plain = xi + eta
        for j in range(d):
            lhs = complex(nf249_full.q_jets[j].eval(plain))
            rhs = complex(nf249_full.p_jets[j].eval(swapped)).conjugate()
            assert abs(lhs - rhs) < 1e-8


def test_reality_constraint_on_every_kept_coefficient(nf249):
    """q_j's coefficient at (a, b) is conj of p_j's at (b, a), for every coefficient either keeps."""
    d = nf249.d
    for p, q in zip(nf249.p_jets, nf249.q_jets):
        mirrored = {e[d:] + e[:d]: c for e, c in p._coeffs.items()}
        assert set(mirrored) == set(q._coeffs)
        assert sum(1 for e in mirrored if sum(e) == 3) == d
        for e, c in q._coeffs.items():
            assert abs(c - mirrored[e].conjugate()) < 1e-12 * max(1.0, abs(c))


def test_b_matrix_nearly_real_at_249(nf249):
    bc = birkhoff_coefficients(nf249)
    assert float(np.max(np.abs(bc.b.imag))) < 1e-6


def test_functional_equations_hold_on_actual_chart_data(nf249_full):
    """The defining equations of the normal form hold for the real s=.249 jets."""
    from oracles import functional_equation_residual

    assert functional_equation_residual(nf249_full) < 1e-8


def test_rows_leave_no_cyclic_garbage():
    """A whole row is freed by reference counting: su3 td 3 (dense basis) and td 5, and su2."""
    rows = [
        lambda: su3_main_point(Fraction(2439, 10000), 3),
        lambda: su3_main_point(Fraction(2411, 10000), 5),
        lambda: su2_brown_point(Fraction(1, 10)),
    ]
    for row in rows:  # warm-up: the caches kept across calls fill here
        assert "error" not in row()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for row in rows:
            gc.collect()
            row()
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_su2_gamma1_real_and_nonzero():
    row = su2_brown_point(Fraction(2, 10))
    assert row["spec_class"] == "elliptic"
    g = row["gamma1"]
    assert abs(g["im"]) < 1e-8
    assert abs(complex(g["re"], g["im"])) > 1e-6


def test_su2_alpha2_continuous_along_level_path():
    """alpha2(s) varies continuously along the family near the level -2 end."""
    prev = None
    for k in range(10, 21):
        row = su2_brown_point(Fraction(k, 1000))
        assert row["spec_class"] == "elliptic"
        a2 = complex(row["alpha2"]["re"], row["alpha2"]["im"])
        assert abs(a2) > 1e-6
        if prev is not None:
            assert abs(a2 - prev) < 0.05
        prev = a2


def test_su2_degenerate_row_at_origin():
    row = su2_brown_point(Fraction(0))
    assert row["degenerate"] is True
    assert row["ell"] == -2.0
    assert row["fixed_point"] == [0.0, 0.0, 0.0]


def test_su3_row_values_at_249():
    row = su3_main_point(S249)
    assert row["ell"] == pytest.approx(-0.9250133569004855, abs=1e-12)
    assert row["spec_class"] == ["elliptic"] * 3
    det = complex(row["alpha_det"]["re"], row["alpha_det"]["im"])
    assert abs(det) > 1e-3
    assert row["twist_ok"] and row["nonplanar_ok"] and row["verdict"]
    assert row["residual_h"] < 1e-7 and row["residual_level"] < 1e-7
    assert row["max_im_b"] < 1e-6
    assert row["brjuno_partial"] > 0


def test_su3_scan_errors_recorded():
    pole = su3_main_point(Fraction(1, 2))
    assert "error" in pole and "Pole" in pole["error"]
    assert pole["s"] == 0.5


def test_alpha_det_stable_under_higher_truncation():
    """The degree-4 chart changes nothing below degree 4, so alpha agrees."""
    r3 = su3_main_point(S249, trunc_degree=3)
    r4 = su3_main_point(S249, trunc_degree=4)
    d3 = complex(r3["alpha_det"]["re"], r3["alpha_det"]["im"])
    d4 = complex(r4["alpha_det"]["re"], r4["alpha_det"]["im"])
    assert abs(d3 - d4) < 1e-9


@pytest.mark.parametrize("degree,nf_degree", [(5, 3), (2, 2)])
def test_diagonalized_jets_work_on_the_three_jet(degree, nf_degree):
    """A deeper chart is truncated to its 3-jet; a shallower one is never raised."""
    chart = chart_map_jet(fixed_family_su3(S249), degree)
    assert chart.map_jet.trunc_degree == degree
    L = chart_linear_matrix(chart)
    nf = diagonalized_jets(chart.map_jet, build_C0(L, classify_spectrum(L)))
    assert {j.trunc_degree for j in (*nf.p_jets, *nf.q_jets)} == {nf_degree}


def test_eigenvalue_continuity_along_scan():
    """Adjacent s values (step 1e-3) move eigenvalues by < 0.1 in modulus."""
    prev = None
    for num in (239, 240, 241, 242):
        chart = chart_map_jet(fixed_family_su3(Fraction(num, 1000)))
        rep = classify_spectrum(chart_linear_matrix(chart))
        lams = sorted(
            (rep.eigenvalues[p[0]] for p in rep.pairing), key=lambda z: cmath.phase(z)
        )
        if prev is not None:
            for a, b in zip(prev, lams):
                assert abs(abs(a) - abs(b)) < 0.1
                assert abs(a - b) < 0.1
        prev = lams


@pytest.mark.parametrize("point, s", [(su2_brown_point, "0.1"), (su3_main_point, "0.2411")])
def test_one_eigendecomposition_per_elliptic_row(monkeypatch, point, s):
    """build_C0 takes its eigenvectors from the spectrum report, not a second eig."""
    eig = spectral.np.linalg.eig
    calls = []

    def counting_eig(m):
        calls.append(m.shape)
        return eig(m)

    monkeypatch.setattr(spectral.np.linalg, "eig", counting_eig)
    row = point(Fraction(s))
    assert row["twist_ok"] is True  # elliptic: the row went through build_C0
    assert len(calls) == 1


#: Upper bounds on the work of one elliptic SU(2) row: ``Jet`` objects built
#: (through ``Jet._raw`` and ``Jet.__init__``), ``np.linalg`` calls and
#: degree groupings of a product's right factor (``jets._fitting``).
SU2_ROW_JETS_MAX = 36
SU2_ROW_LINALG_MAX = 7
SU2_ROW_FITTINGS_MAX = 6


def test_su2_row_builds_few_jets_and_linalg_calls(monkeypatch):
    from charvar_kam import jets
    from charvar_kam.jets import Jet

    counts = {"jets": 0, "linalg": 0, "fittings": 0}
    raw, init, fitting = Jet.__dict__["_raw"].__func__, Jet.__init__, jets._fitting

    def counting_raw(cls, *args):
        counts["jets"] += 1
        return raw(cls, *args)

    def counting_init(self, *args, **kwargs):
        counts["jets"] += 1
        init(self, *args, **kwargs)

    def counting_fitting(b):
        counts["fittings"] += 1
        return fitting(b)

    def counting(fn):
        def call(*args, **kwargs):
            counts["linalg"] += 1
            return fn(*args, **kwargs)

        return call

    su2_brown_point(Fraction(1, 5))  # fill the code tables first
    monkeypatch.setattr(Jet, "_raw", classmethod(counting_raw))
    monkeypatch.setattr(Jet, "__init__", counting_init)
    monkeypatch.setattr(jets, "_fitting", counting_fitting)
    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, counting(fn))
    row = su2_brown_point(Fraction(1, 10))
    assert row["twist_ok"] is True  # elliptic: the row went through the whole chain
    assert counts["jets"] <= SU2_ROW_JETS_MAX
    assert counts["linalg"] <= SU2_ROW_LINALG_MAX
    assert counts["fittings"] <= SU2_ROW_FITTINGS_MAX
    assert counts["linalg"] > 0 and counts["jets"] > 0 and counts["fittings"] > 0  # the counters saw the row


def _count_eig_and_inv(monkeypatch) -> dict:
    """The number of ``np.linalg.eig`` and ``np.linalg.inv`` calls from here on, counted into the dict returned."""
    calls = {"eig": 0, "inv": 0}

    def counting(name):
        fn = getattr(np.linalg, name)

        def call(a):
            calls[name] += 1
            return fn(a)

        return call

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    return calls


def test_su2_scan_runs_one_eig_and_one_inv_per_batch(monkeypatch):
    """128 elliptic rows, two batches of SU2_LANES = 64: the spectrum and C0 are stacked, not made row by row."""
    calls = _count_eig_and_inv(monkeypatch)
    s_values = [Fraction(k, 1000) for k in range(5, 133)]
    report, _ = cli.run(cli.RunConfig(pipeline="su2-brown", s_values=s_values))
    assert pipelines.SU2_LANES == 64 and len(report["rows"]) == 128
    assert all(row["twist_ok"] is True for row in report["rows"])  # each row went through build_C0
    assert calls == {"eig": 2, "inv": 2}


def test_a_failing_row_is_set_apart_in_log2_of_the_batch(monkeypatch):
    """s = 1/4 among 64 rows: its batch runs again in halves, so eig runs at most 1 + 2 log2(64) times, inv once."""
    s_values = [Fraction(22, 100) + Fraction(k, 1000) for k in range(64)]
    alone = [_row_bytes(su2_brown_point(s)) for s in s_values]
    calls = _count_eig_and_inv(monkeypatch)
    rows = list(pipelines.su2_rows(s_values))
    assert calls["eig"] <= 13 and calls["inv"] == 1
    assert [_row_bytes(su2_brown_point(s, row)) for s, row in zip(s_values, rows)] == alone
    assert rows[30]["error"].startswith("NonDiagonalizableError: ")


def test_su2_edge_rows_record_the_defective_spectrum():
    for s, cond in ((Fraction(1, 4), "9.007e+15"), (Fraction(-1, 2), "1.351e+16")):
        error = su2_brown_point(s)["error"]
        assert error == f"NonDiagonalizableError: eigenvector basis condition number {cond}: matrix is defective"


def test_twist_changes_sign_between_window_rows():
    """det(Re b) changes sign between the grid rows s = 0.2470 and 0.2475 of the window.

    Where it crosses zero the row's twist and non-planarity checks fail, so the
    window's verdict holds at its scanned rows, not on the whole interval.
    """

    def det_re_b(s):
        chart = chart_map_jet(fixed_family_su3(s))
        L = chart_linear_matrix(chart)
        bc = birkhoff_coefficients(diagonalized_jets(chart.map_jet, build_C0(L, classify_spectrum(L))))
        return float(np.linalg.det(bc.b.real))

    before, after = det_re_b(Fraction("0.2470")), det_re_b(Fraction("0.2475"))
    assert 0.7 < before < 0.8 and -0.8 < after < -0.7
    for s in ("0.2470", "0.2475"):
        assert su3_main_point(Fraction(s))["verdict"] is True
    row = su3_main_point(0.24723424102808358)
    assert abs(complex(row["alpha_det"]["re"], row["alpha_det"]["im"])) < 1e-9
    assert row["twist_ok"] is False and row["nonplanar_ok"] is False and row["verdict"] is False
    assert row["spec_class"] == ["elliptic"] * 3


#: Worst mismatch of F3|even . Phi = Phi . F2 over a component's largest coefficient, on the window's rows at
#: degree 3: a measured bound, about twice the 1.9e-8 (6.7e-8 absolute) of the float charts at s = .249.
SU2_CONJUGACY_REL_MAX = 4e-8
#: Distance from the su2-brown row's omega to the nearest SU(3) omega at the same s (2.1e-15 measured).
SU2_OMEGA_MATCH_MAX = 1e-13


def test_su3_chart_on_the_invariant_plane_is_the_su2_chart():
    """On X = Y = Z = T = 0 the SU(3) chart map is the SU(2) one through the symmetric square.

    The SU(3) traces there are x = x2^2 - 1 and y = y2^2 - 1, so
    Phi(y, z) = (x_jet^2 - x0^2, (y0 + y)^2 - y0^2) takes the SU(2) chart
    variables to the SU(3) chart's x and y, and F3's even components x', y'
    restricted to the plane satisfy F3|even . Phi = Phi . F2.  The even mode's
    frequency is the SU(2) frequency.
    """
    for s in parse_s_values("0.239:0.249:0.0005"):
        su2 = charts.su2_chart_map_jet(pipelines.fixed_family_su2(s))
        su3 = chart_map_jet(fixed_family_su3(s)).map_jet
        x0 = su2.x_jet.constant_term()
        y0 = su2.fixed_point.yn / su2.fixed_point.b
        y = Jet.variable(0, 2, su3.trunc_degree)
        phi = [su2.x_jet * su2.x_jet - x0 * x0, (y + y0) * (y + y0) - y0 * y0]
        zero = Jet.zero(2, su3.trunc_degree)
        on_plane = [phi[0], zero, phi[1], zero, zero, zero]  # (x, X, y, Y, Z, T)
        for comp, want in zip((su3[0], su3[2]), (p.compose(list(su2.map_jet)) for p in phi)):
            mismatch = comp.compose(on_plane) - want
            largest = max(abs(v) for v in want.coeffs.values())
            assert max(abs(v) for v in mismatch.coeffs.values()) <= SU2_CONJUGACY_REL_MAX * largest, s
        omega = su2_brown_point(s)["omega"]
        assert min(abs(w - omega) for w in su3_main_point(s)["omega"]) <= SU2_OMEGA_MATCH_MAX, s


def test_one_fixed_point_per_su2_row(monkeypatch):
    """The SU(2) chart takes the row's fixed point instead of computing it again."""
    fixed = pipelines.fixed_family_su2
    calls = []

    def counting_fixed_point(s):
        calls.append(s)
        return fixed(s)

    for module in (pipelines, charts):
        monkeypatch.setattr(module, "fixed_family_su2", counting_fixed_point)
    row = su2_brown_point(Fraction(1, 10))
    assert row["twist_ok"] is True  # elliptic: the row built its chart
    assert calls == [Fraction(1, 10)]


def test_one_fixed_point_per_su3_row(monkeypatch):
    """The SU(3) chart takes the row's fixed point instead of computing it again."""
    fixed = pipelines.fixed_family_su3
    calls = []

    def counting_fixed_point(s):
        calls.append(s)
        return fixed(s)

    for module in (pipelines, charts):
        monkeypatch.setattr(module, "fixed_family_su3", counting_fixed_point)
    charts._chart_cache.cache_clear()
    row = su3_main_point(Fraction("0.2411"))
    assert row["verdict"] is True  # the row built its chart and normal form
    assert calls == [Fraction("0.2411")]


def _floats(value):
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from _floats(v)
    elif isinstance(value, list):
        for v in value:
            yield from _floats(v)


def test_no_single_s_aborts_a_row_or_leaves_a_non_finite_value():
    """s = +-10^k across the double range, and s next to the SU(3) tangency at 1/4.

    Overflowing exact values, an overflowing H (every k from 24 to 38),
    square-root jets too large for a double and underflowing radicands all
    end as recorded row errors, and every float a row carries (residuals
    included) is finite, so the report is valid JSON.
    """
    ks = sorted({*range(-300, 301, 20), *range(21, 40)})
    values = [sign * Fraction(10) ** k for k in ks for sign in (1, -1)]
    values += [Fraction(1, 4) + sign * Fraction(1, 10**k) for k in (100, 150, 160, 170) for sign in (1, -1)]
    for point in (su2_brown_point, su3_main_point):
        for s in values:
            row = point(s)
            assert all(map(math.isfinite, _floats(row))), (point.__name__, s, row)
    for point, s in ((su2_brown_point, Fraction(1, 10**160)), (su3_main_point, Fraction(1, 4) + Fraction(1, 10**150))):
        error = point(s)["error"]
        assert error.endswith(": radicand at the center is too small for double precision"), error
        assert error.startswith("SingularChartError: ")


def _row_bytes(row) -> str:
    out = io.StringIO()
    dump_deterministic_json(row, out)
    return out.getvalue()


def test_su2_rows_equal_fraction_oracle():
    """Each SU(2) row, error rows included, is byte for byte the row of the Fraction oracle.

    The standard sweep, a grid over [-1.2, 1.2] (poles, both realizability
    bounds, the origin, the singular chart at s = 1, defective and hyperbolic
    spectra) and single points: the discriminant underflow at +-10^-170, a
    root-of-unity multiplier at 10^-100, a square root too large for a double
    at 10^-150 and 10^-160 (a singular chart), and both sides of the pole.
    """
    from oracles import su2_brown_point_fraction

    values = [Fraction(k, 1000) for k in range(5, 250)]
    values += [Fraction(k - 1200, 1000) for k in range(2401)]
    tiny = Fraction(1, 10**170)
    values += [Fraction(0), Fraction(1), tiny, -tiny, Fraction(1, 2) + Fraction(1, 10**9)]
    values += [Fraction(1, 2) - Fraction(1, 10**9), Fraction(9, 10), Fraction(-1)]
    values += [Fraction(1, 10**100), Fraction(1, 10**150), Fraction(1, 10**160)]
    kinds = set()
    for s in values:
        row = su2_brown_point(s)
        assert _row_bytes(row) == _row_bytes(su2_brown_point_fraction(s)), s
        kinds.add(row["error"].split(":")[0] if "error" in row else row.get("spec_class", "degenerate"))
    assert kinds == {
        "elliptic",
        "hyperbolic",
        "degenerate",
        "PoleError",
        "UnrealizableError",
        "SingularChartError",
        "NonDiagonalizableError",
        "ResonanceError",
    }


#: Rows that end early or in a scan error, and a row whose chart lanes split: the origin, ResonanceError (1e-9),
#: SingularChartError (1e-320 and 1), UnrealizableError (+-0.9), a hyperbolic spectrum (0.3), 1/5, where an
#: intermediate product of the chart cancels to 0.0 in its lane alone, and the two ends of the elliptic interval,
#: 1/4 and -1/2, whose defective spectra raise NonDiagonalizableError inside the batch's stacked spectrum.
_SU2_EDGE_S = [Fraction(0), Fraction(1, 10**9), Fraction(1, 10**320), Fraction(1), Fraction(9, 10), Fraction(-9, 10)]
_SU2_EDGE_S += [Fraction(3, 10), Fraction(1, 5), Fraction(1, 4), Fraction(-1, 2)]


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.lists(_S, min_size=1, max_size=16))
def test_su2_rows_read_in_a_scan_equal_rows_made_alone(drawn):
    """Rows a scan reads from ``su2_rows`` batches are byte for byte the rows made alone, on Python floats."""
    s_values = [drawn[0], *_SU2_EDGE_S, *drawn[1:], drawn[0]]  # the edge rows mid-batch, and a duplicated s
    alone = [_row_bytes(su2_brown_point(s)) for s in s_values]
    batched = [_row_bytes(su2_brown_point(s, row)) for s, row in zip(s_values, pipelines.su2_rows(s_values))]
    assert batched == alone


def _mu(s):
    """The trace of the SU(2) chart's linear part at the fixed point of s, exactly."""
    return (8 * s * s - 2 * s + 1) / (2 * s - 1)


def _twist_factor(s):
    """G(s), exactly: the first Birkhoff coefficient in the eigenvector basis (L12, lambda - L11) is G(s) sqrt(4 - mu(s)^2)."""
    return 16 * (s - 1) ** 2 * (4 * s * s + 2 * s - 1) / ((2 * s + 1) * (8 * s * s - 6 * s + 3) ** 2)


#: Worst relative error of the float twist against its closed form on the rows s = k/1000, k = 5..249:
#: 1.67e-12 measured, at s = .008, near the lambda^3 = 1 point.
_TWIST_REL_TOL = 4e-12


def test_su2_twist_equals_its_closed_form_on_the_scan_rows():
    """Each row's ``gamma1``, times |v|^2 to undo C0's unit norm, is G(s) sqrt(4 - mu^2) with v = (L12, lambda - L11).

    The rows come from a scan, so they are made in batches.
    """
    s_values = [Fraction(k, 1000) for k in range(5, 250)]
    report, _ = cli.run(cli.RunConfig(pipeline="su2-brown", s_values=s_values))
    for s, row in zip(s_values, report["rows"]):
        L = chart_linear_matrix(su2_chart_map_jet(fixed_family_su2(s)))
        lam = complex(row["multiplier"]["re"], row["multiplier"]["im"])
        norm2 = abs(L[0, 1]) ** 2 + abs(lam - L[0, 0]) ** 2
        gamma1 = complex(row["gamma1"]["re"], row["gamma1"]["im"])
        want = float(_twist_factor(s)) * math.sqrt(4 - _mu(s) ** 2)
        assert abs(gamma1 * norm2 - want) <= _TWIST_REL_TOL * abs(want), s


def test_su2_scan_across_a_batch_boundary_equals_rows_made_alone(monkeypatch):
    chart = pipelines.su2_chart_map_jet
    batches = []

    def counting_chart(points):
        batches.append(len(points))
        return chart(points)

    monkeypatch.setattr(pipelines, "su2_chart_map_jet", counting_chart)
    s_values = [Fraction(k, 1000) for k in range(5, 6 + pipelines.SU2_LANES)]
    report, _ = cli.run(cli.RunConfig(pipeline="su2-brown", s_values=s_values))
    assert batches[0] == pipelines.SU2_LANES and batches[-1] == 1 and len(batches) < 10  # the charts ran in lanes
    assert [_row_bytes(row) for row in report["rows"]] == [_row_bytes(su2_brown_point(s)) for s in s_values]


def test_a_row_error_outside_scan_errors_is_raised_when_the_scan_reaches_that_row(monkeypatch):
    chart = pipelines.su2_chart_map_jet
    bad = Fraction(3, 20)

    def failing_chart(points):
        if any(p.s == bad for p in points):
            raise RuntimeError("boom")
        return chart(points)

    monkeypatch.setattr(pipelines, "su2_chart_map_jet", failing_chart)
    s_values = [Fraction(1, 10), bad, Fraction(1, 5)]
    rows = pipelines.su2_rows(s_values)
    assert su2_brown_point(s_values[0], next(rows))["twist_ok"] is True
    with pytest.raises(RuntimeError, match="boom"):
        su2_brown_point(bad, next(rows))
    assert su2_brown_point(s_values[2], next(rows))["twist_ok"] is True
