"""Per-parameter KAM pipelines: one fixed point in, one verdict row out.

Each function takes a single s value and returns a JSON-ready dict; scan
errors (singular charts, resonances, unrealizable parameters) are caught and
recorded in the row so a sweep never aborts on one bad parameter.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .birkhoff import (
    BirkhoffCoefficients,
    KamReport,
    TWIST_DET_TOL,
    alpha2_closed_form,
    birkhoff_coefficients,
    brjuno_partial_sum,
    diagonalized_jets,
    nonplanarity_check,
    nonresonance_check,
    twist_determinant,
)
from .charts import ChartJet, chart_linear_matrix, chart_map_jet, su2_chart_map_jet
from .errors import (
    ConsistencyError,
    DegenerateChartError,
    NonDiagonalizableError,
    PoleError,
    ResonanceError,
    ShapeMismatchError,
    SingularChartError,
    SpectrumStructureError,
    UnrealizableError,
)
from .mcg import fixed_family_su2, fixed_family_su3
from .spectral import SpectrumReport, build_C0, classify_spectrum
# not called: the SU(2) level comes from fixed_family_su2; perfbench/tracer.py looks it up here
from .varieties import kappa_su2  # noqa: F401

__all__ = ["su2_brown_point", "su3_main_point", "su3_kam_report", "SCAN_ERRORS"]

#: Everything a scan survives by recording instead of raising.
SCAN_ERRORS = (
    SingularChartError,
    DegenerateChartError,
    ResonanceError,
    UnrealizableError,
    PoleError,
    SpectrumStructureError,
    NonDiagonalizableError,
    ShapeMismatchError,
    ConsistencyError,
    OverflowError,  # values too large for a double
)


def _c(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def su2_brown_point(s) -> dict:
    """Fixed point, level, multiplier, and first Birkhoff coefficient on the SU(2) side.

    One ``fixed_family_su2`` call gives the fixed point and its level in
    integers; the row's floats and the chart are taken from it.
    """
    s = s if isinstance(s, Fraction) else Fraction(s)
    row: dict = {"s": float(s)}
    try:
        p0 = fixed_family_su2(s)
    except SCAN_ERRORS as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row
    row["fixed_point"] = list(p0.center())
    row["ell"] = p0.level_n / p0.b**4
    if s == 0:
        # the origin is the blown-up point: the level chart is singular there
        row["degenerate"] = True
        row["notes"] = "kappa = -2 origin; sphere-of-directions blow-up point"
        return row
    row["degenerate"] = False
    try:
        chart = su2_chart_map_jet(p0)
        L = chart_linear_matrix(chart)
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
        nf = diagonalized_jets(chart.map_jet, basis)
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


def _su3_verdicts(
    chart: ChartJet, L: np.ndarray, spectrum: SpectrumReport
) -> tuple[BirkhoffCoefficients, KamReport]:
    """Birkhoff coefficients and KAM verdicts from an SU(3) chart and its elliptic spectrum.

    Kept apart from the spectrum, so a scan row records the spectrum before
    this runs and a row whose normal form fails still reports it.
    """
    nf = diagonalized_jets(chart.map_jet, build_C0(L, spectrum))
    bc = birkhoff_coefficients(nf)
    det = twist_determinant(bc.alpha)
    omega = spectrum.elliptic_frequencies()
    flags = nonresonance_check([nf.lam[j] for j in range(nf.d)])
    return bc, KamReport(
        alpha_det=det,
        twist_ok=bool(abs(det) > TWIST_DET_TOL),
        nonplanarity_ok=nonplanarity_check(bc.b),
        resonance_flags=flags,
        brjuno_partial=max(brjuno_partial_sum(w).partial_sum for w in omega),
    )


def su3_kam_report(s, trunc_degree: int = 3) -> KamReport:
    """Twist/non-planarity verdicts for the SU(3) fixed point at parameter s; ResonanceError unless it is elliptic."""
    chart = chart_map_jet(fixed_family_su3(s), trunc_degree)
    L = chart_linear_matrix(chart)
    spectrum = classify_spectrum(L)
    if not spectrum.is_elliptic():
        raise ResonanceError(f"spectrum at s = {chart.spec.s} is not elliptic: {spectrum.classification}")
    return _su3_verdicts(chart, L, spectrum)[1]


def su3_main_point(s, trunc_degree: int = 3, dump_jets: bool = False) -> dict:
    """Full per-s row of the SU(3) pipeline: chart, spectrum, alpha matrix, verdicts.

    One ``fixed_family_su3`` call gives the exact fixed point and its level;
    the row's floats and the chart are taken from it.
    """
    s = s if isinstance(s, Fraction) else Fraction(s)
    row: dict = {"s": float(s)}
    try:
        fp = fixed_family_su3(s)
        try:
            row["fixed_point"] = [float(v) for v in fp.su3_point.coords9()]
            row["ell"] = float(fp.level.zeta)
        except OverflowError:
            stage = "level" if "fixed_point" in row else "fixed point"
            raise OverflowError(f"s = {s}: the {stage} does not fit a double") from None
        row["on_variety"] = bool(fp.level.in_deltoid())
        if not row["on_variety"]:
            row["notes"] = "fixed-line formula leaves the character variety at this s (formal chart only)"
        chart = chart_map_jet(fp, trunc_degree)
        row["residual_h"] = chart.residual_h()
        row["residual_level"] = chart.residual_level()
        L = chart_linear_matrix(chart)
        spectrum = classify_spectrum(L)
        row["spec_class"] = list(spectrum.classification)
        row["eigenvalues"] = [_c(v) for v in spectrum.eigenvalues]
        if dump_jets:
            row["jets"] = {
                "t_jet": chart.t_jet.to_json(),
                "z_jet": chart.z_jet.to_json(),
                "map_jet": [c.to_json() for c in chart.map_jet],
            }
        if not spectrum.is_elliptic():
            row["notes"] = "spectrum not elliptic; no KAM verdict claimed"
            return row
        row["omega"] = list(spectrum.elliptic_frequencies())
        bc, kam = _su3_verdicts(chart, L, spectrum)
        row["alpha"] = [[_c(bc.alpha[j, k]) for k in range(3)] for j in range(3)]
        row["max_im_b"] = float(np.max(np.abs(bc.b.imag)))
        row["alpha_det"] = _c(kam.alpha_det)
        row["twist_ok"] = kam.twist_ok
        row["nonplanar_ok"] = kam.nonplanarity_ok
        row["resonance_flags"] = [list(f) for f in kam.resonance_flags]
        row["brjuno_partial"] = kam.brjuno_partial
        row["verdict"] = kam.twist_ok and kam.nonplanarity_ok and not kam.resonance_flags
    except SCAN_ERRORS as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row
