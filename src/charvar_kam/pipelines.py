"""Per-parameter KAM pipelines: one fixed point in, one verdict row out.

Each function takes a single s value and returns a JSON-ready dict; scan
errors (singular charts, resonances, unrealizable parameters) are caught and
recorded in the row so a sweep never aborts on one bad parameter.
``su3_main_point`` is the only chain from an SU(3) fixed point to the KAM
verdicts; the ``--golden`` comparison reads the ``alpha_det`` of its degree-3
row (``cli.compare_golden``).

``_su2_row`` is the only SU(2) chain.  Rows run it together, up to
``SU2_LANES`` at a time: the fixed point and the verdicts run per row, and
the chart, the spectrum, C0 and the normal-form input run once for all rows
of a batch.  The chart and the normal-form input run on ``jets.Lanes``
coefficients, and the spectrum and C0 as stacked numpy calls; either gives
each row the bits it gets alone.  A stage raises for the whole batch when
one row fails it, and :func:`_in_lanes` runs the batch again in halves
until that row runs alone, so the error reaches only its own row.  An su2 scan reads its rows from
:func:`su2_rows`, which makes a batch when the batch's first row is read
and holds its rows until each is read; ``su2_brown_point(s)`` called alone
is a batch of one, on Python floats.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .birkhoff import (
    TWIST_DET_TOL,
    alpha2_closed_form,
    birkhoff_coefficients,
    brjuno_partial_sum,
    diagonalized_jets,
    nonplanarity_check,
    nonresonance_check,
    twist_determinant,
)
from .charts import chart_linear_matrix, chart_map_jet, su2_chart_map_jet
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
from .jets import LanesDisagree
from .mcg import fixed_family_su2, fixed_family_su3
from .spectral import build_C0, classify_spectrum
# not called: the SU(2) level comes from fixed_family_su2; perfbench/tracer.py looks it up here
from .varieties import kappa_su2  # noqa: F401

__all__ = ["su2_brown_point", "su2_rows", "su3_main_point", "SCAN_ERRORS", "SU2_LANES", "error_text"]

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

#: Longest ``error`` text a row keeps; a message prints s as an exact Fraction.
MAX_ERROR_CHARS = 500


def error_text(exc: Exception) -> str:
    """``"Type: message"`` for an ``error`` field; past ``MAX_ERROR_CHARS``, its first 250 and last 247 characters."""
    text = f"{type(exc).__name__}: {exc}"
    return text if len(text) <= MAX_ERROR_CHARS else f"{text[:250]}...{text[-247:]}"

#: Most SU(2) rows whose chart, spectrum, C0 and normal-form input run together.
#: A batch holds its rows' charts, spectra and normal-form inputs, about 7 kB
#: a row: 64 rows hold about 0.5 MB, and 256 rows made the rows of an su2
#: scan about 10% faster for 1.9 MB.
SU2_LANES = 64


def _c(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def su2_brown_point(s, row=None) -> dict:
    """Fixed point, level, multiplier, and first Birkhoff coefficient on the SU(2) side.

    One ``fixed_family_su2`` call gives the fixed point and its level in
    integers; the row's floats and the chart are taken from it.  ``row`` is
    what :func:`su2_rows` yields for ``s``, which an su2 scan hands in: it is
    returned, or raised when it is an exception.  Called alone, the row is
    ``su2_rows([s])``, a batch of one, which runs on Python floats.
    """
    if row is None:
        (row,) = su2_rows([s])
    if isinstance(row, Exception):
        raise row
    return row


def su2_rows(s_values):
    """The rows of ``s_values`` in order, ``SU2_LANES`` at a time, each batch made when its first row is read.

    Each row of a batch is the generator :func:`_su2_row`; every stage the
    rows yield runs once for all rows waiting on it (:func:`_in_lanes`), and
    its result, or the error the row raised there, goes back into each row.
    A row is its dict, or the exception outside ``SCAN_ERRORS`` it raised,
    which ``su2_brown_point`` raises again.  A batch holds its rows until
    each is read.
    """
    for start in range(0, len(s_values), SU2_LANES):
        batch = s_values[start : start + SU2_LANES]
        out: list = [None] * len(batch)
        sends = [(i, _su2_row(s), None) for i, s in enumerate(batch)]
        while sends:
            asked = []
            for i, row, value in sends:
                try:
                    asked.append((i, row, row.throw(value) if isinstance(value, Exception) else row.send(value)))
                except StopIteration as done:
                    out[i] = done.value
                except Exception as exc:  # raised again when the scan reaches this row
                    out[i] = exc
            sends = []
            for stage in dict.fromkeys(fn for _, _, (fn, _) in asked):
                waiting = [(i, row, args) for i, row, (fn, args) in asked if fn is stage]
                results = _in_lanes(stage, [args for _, _, args in waiting])
                sends += [(i, row, result) for (i, row, _), result in zip(waiting, results)]
        out.reverse()  # each row is dropped once read
        while out:
            yield out.pop()


def _in_lanes(stage, rows: list) -> list:
    """``stage`` on each row's arguments, all rows in one call; per row its result, or the exception it raises alone.

    ``stage`` takes one list per argument and returns one result per row, or
    raises.  This is the only place that sets a failing row apart.  Rows whose
    lanes disagree on a zero test split by the lanes' mask and run again; a
    batch that raises anything else splits in halves.  A single row runs on
    Python floats.
    """
    args = [list(column) for column in zip(*rows)]
    try:
        with np.errstate(all="ignore"):  # lanes follow Python floats, which overflow without a warning
            return stage(*args)
    except LanesDisagree as split:
        mask = split.mask.tolist()
    except Exception as exc:
        if len(rows) == 1:
            return [exc]
        mask = [i < len(rows) // 2 for i in range(len(rows))]
    parts = [iter(_in_lanes(stage, [r for r, m in zip(rows, mask) if m is side])) for side in (True, False)]
    return [next(parts[not m]) for m in mask]


def _su2_row(s):
    """The stages of one ``su2_brown_point`` row, returning the row.

    The chart, the spectrum, C0 and the normal-form input are yielded as
    ``(stage, args)``, each made at once with the other rows' of its batch
    (see :func:`su2_rows`).  The stages are looked up as module globals when
    they are yielded.
    """
    s = s if isinstance(s, Fraction) else Fraction(s)
    row: dict = {"s": float(s)}
    try:
        p0 = fixed_family_su2(s)
        row["fixed_point"] = list(p0.center())
        row["ell"] = p0.level_n / p0.b**4
        row["degenerate"] = s == 0
        if s == 0:
            # the origin is the blown-up point: the level chart is singular there
            row["notes"] = "kappa = -2 origin; sphere-of-directions blow-up point"
            return row
        chart = yield su2_chart_map_jet, (p0,)
        L = chart_linear_matrix(chart)
        report = yield classify_spectrum, (L,)
        row["spec_class"] = report.classification[0]
        lam = report.eigenvalues[report.pairing[0][0]]
        row["multiplier"] = _c(lam)
        if report.classification[0] != "elliptic":
            return row
        row["omega"] = report.omega[0]
        flags = nonresonance_check([lam])
        row["resonance_flags"] = [list(f) for f in flags]
        basis = yield build_C0, (L, report)
        nf = yield diagonalized_jets, (chart.map_jet, basis)
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
        row["error"] = error_text(exc)
    return row


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
        # all verdicts first: a row whose normal form fails reports the spectrum only
        nf = diagonalized_jets(chart.map_jet, build_C0(L, spectrum))
        bc = birkhoff_coefficients(nf)
        det = twist_determinant(bc.alpha)
        flags = nonresonance_check([nf.lam[j] for j in range(nf.d)])
        nonplanar_ok = nonplanarity_check(bc.b)
        brjuno = max(brjuno_partial_sum(w).partial_sum for w in row["omega"])
        row["alpha"] = [[_c(bc.alpha[j, k]) for k in range(3)] for j in range(3)]
        row["max_im_b"] = float(np.max(np.abs(bc.b.imag)))
        row["alpha_det"] = _c(det)
        row["twist_ok"] = bool(abs(det) > TWIST_DET_TOL)
        row["nonplanar_ok"] = nonplanar_ok
        row["resonance_flags"] = [list(f) for f in flags]
        row["brjuno_partial"] = brjuno
        row["verdict"] = row["twist_ok"] and nonplanar_ok and not flags
    except SCAN_ERRORS as exc:
        row["error"] = error_text(exc)
    return row
