"""Eigenanalysis of linearized actions: classification and diagonalizing bases.

Matrices here are tiny (n <= 8), so the eigensolver is numpy's; this module
adds the residual guarantees, conjugate-pair bookkeeping, elliptic/hyperbolic
tags, and the deterministic normalization of the diagonalizing basis C0 that
the normal-form computation depends on.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
import numpy as np

from .errors import NonDiagonalizableError, ResonanceError, SpectrumStructureError

__all__ = [
    "SpectrumReport",
    "DiagonalizingBasis",
    "eigen_small",
    "classify_spectrum",
    "build_C0",
    "UNIT_CIRCLE_TOL",
]

# The spectrum's verdict and health thresholds (the README's threshold table).
UNIT_CIRCLE_TOL = 1e-8  #: |abs(lambda) - 1| below this counts as "on the unit circle"
REPEAT_TOL = 1e-8  #: elliptic eigenvalues closer than this repeat, and are tagged resonant
_PARABOLIC_TOL = 1e-8  #: lambda in {+1, -1} within this counts as parabolic
REAL_AXIS_TOL = 1e-9  #: |Im lambda| at or below this counts as a real eigenvalue
PARTNER_TOL = 1e-6  #: an eigenvalue pairs within this times max(1, |target|) of its partner's target
EIGEN_RESIDUAL_TOL = 1e-9  #: an eigenpair residual above this times ||m|| is defective
EIGEN_COND_MAX = 1e12  #: an eigenvector basis condition number above this is defective
C0_RESIDUAL_TOL = 1e-9  #: an off-diagonal entry of C0^-1 m C0 above this times max(1, ||m||) fails C0
PHASE_LEAD_MIN = 1e-9  #: C0's phase is pinned at the first eigenvector entry of modulus above this


def eigen_small(m):
    """Eigendecomposition of a small (n <= 8) complex matrix.

    Returns (eigenvalues, eigenvectors) with eigenvectors as columns, and
    enforces the residual bound ||m v - lambda v|| <= EIGEN_RESIDUAL_TOL * ||m||
    for every pair; failing that, the matrix is declared defective.  A matrix
    whose norm overflows a double has no such bound and is rejected too.

    ``m`` may also be a list of 2-D numpy arrays of one shape, one matrix per
    row.  Then ``eig``, the eigenpair residuals and the singular values of
    the bases run once, on the stack, and one (eigenvalues, eigenvectors)
    per matrix returns; if any matrix fails, the call raises.  Each norm and
    check runs per matrix, since a stacked norm has other bits.
    """
    batch = _batch(m)
    ms = np.array(m if batch else [m], dtype=complex)
    if ms.ndim != 3 or ms.shape[1] != ms.shape[2]:
        raise ValueError(f"need a square matrix, got shape {ms.shape[1:]}")
    if ms.shape[1] > 8:
        raise ValueError("eigen_small is for matrices of size <= 8")
    try:
        vals, vecs = np.linalg.eig(ms)
        # a Jordan block yields (near-)parallel eigenvectors with tiny residuals,
        # so defectiveness must be caught through the basis conditioning: the
        # 2-norm condition number s_max / s_min, as np.linalg.cond computes it
        svs = np.linalg.svd(vecs, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NonDiagonalizableError(f"eigendecomposition failed: {exc}") from exc
    # a norm past the double range overflows quietly here: the checks below reject it
    with np.errstate(over="ignore", invalid="ignore"):
        # column k of each is m v_k - lambda_k v_k
        residuals = ms @ vecs - vecs * vals[:, None, :]
        pairs = [_checked_eigenpairs(*row) for row in zip(ms, vals, vecs, residuals, svs)]
    return pairs if batch else pairs[0]


def _checked_eigenpairs(m, vals, vecs, residuals, s):
    """``(vals, vecs)``, the eigenpairs of ``m``, once they pass :func:`eigen_small`'s checks."""
    scale = np.linalg.norm(m)
    residuals = np.linalg.norm(residuals, axis=0)
    if scale == 0.0:
        return vals, vecs
    s = s.tolist()
    cond = s[0] / s[-1] if s[-1] else math.inf
    if not cond <= EIGEN_COND_MAX:  # NaN fails
        raise NonDiagonalizableError(f"eigenvector basis condition number {cond:.3e}: matrix is defective")
    for k, res in enumerate(residuals.tolist()):
        if not res <= EIGEN_RESIDUAL_TOL * scale:  # NaN fails
            raise NonDiagonalizableError(
                f"eigenpair {k} residual {res:.3e} exceeds {EIGEN_RESIDUAL_TOL:.1e} * ||m||"
            )
    if not math.isfinite(scale):  # the bound above was inf
        raise NonDiagonalizableError(f"matrix norm {scale} is not finite")
    return vals, vecs


def _batch(m) -> bool:
    """True when ``m`` is a list of 2-D numpy arrays, one matrix per row, rather than one matrix."""
    return isinstance(m, list) and all(isinstance(a, np.ndarray) and a.ndim == 2 for a in m)


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of a real matrix organized into conjugate/reciprocal pairs.

    pairing holds index pairs (j, jbar) into eigenvalues with
    lambda_jbar ~ conj(lambda_j); classification tags each pair elliptic,
    hyperbolic, parabolic or resonant; omega holds arg(lambda)/2pi in
    (0, 1/2) for each elliptic pair (NaN placeholder otherwise).
    eigenvalues holds Python ``complex`` numbers, not numpy scalars.
    eigenvectors (columns, read by ``build_C0``) stays out of equality
    and hashing.
    """

    eigenvalues: tuple
    pairing: tuple
    classification: tuple
    omega: tuple
    eigenvectors: np.ndarray = field(compare=False, repr=False)

    def is_elliptic(self) -> bool:
        return bool(self.classification) and all(t == "elliptic" for t in self.classification)

    def elliptic_frequencies(self) -> tuple:
        return tuple(w for w, t in zip(self.omega, self.classification) if t == "elliptic")


def _partner(vals, used, j, target, real: bool = False) -> tuple:
    """(k, distance) of the unused k != j nearest ``target``, k None past PARTNER_TOL * max(1, |target|).

    With ``real``, only real eigenvalues count, by their real part.
    """
    best, best_err = None, math.inf
    for k, v in enumerate(vals):
        if used[k] or k == j or (real and abs(v.imag) > REAL_AXIS_TOL):
            continue
        err = abs((v.real if real else v) - target)
        if err < best_err:
            best, best_err = k, err
    return (best if best_err <= PARTNER_TOL * max(1.0, abs(target)) else None), best_err


def classify_spectrum(m):
    """Pair and tag the spectrum of a real square matrix (n <= 8, n even).

    Complex eigenvalues pair with their conjugates; real ones pair with their
    reciprocals (the matrices classified here have reciprocal spectra at
    fixed points of measure-preserving actions).  Elliptic means on the unit
    circle but not at +/-1; real off-circle pairs are hyperbolic; +/-1 is
    parabolic; a repeated elliptic eigenvalue is tagged resonant.

    ``m`` may also be a list of 2-D numpy arrays of one shape, one matrix
    per row: their eigendecompositions run as one stack (:func:`eigen_small`),
    and one report per row returns; if any row fails, the call raises.
    """
    if not _batch(m):
        return _paired(eigen_small(_real(np.asarray(m))))
    return [_paired(p) for p in eigen_small([_real(a) for a in m])]


def _real(m) -> np.ndarray:
    """``m`` as a float array; an imaginary entry that is not exactly 0, NaN included, is an error."""
    if np.iscomplexobj(m):
        if (m.imag != 0).any():
            raise SpectrumStructureError("classify_spectrum expects a real matrix")
        m = m.real
    return np.asarray(m, dtype=float)


def _paired(eigenpairs) -> SpectrumReport:
    """The :class:`SpectrumReport` of a matrix's ``(eigenvalues, eigenvectors)``."""
    vals, vecs = eigenpairs
    vals = vals.tolist()  # Python complex: the same abs (hypot) and phase as numpy's scalars
    n = len(vals)
    used = [False] * n
    pairing = []
    tags = []
    omegas = []
    order = sorted(range(n), key=lambda k: (-abs(vals[k].imag), -vals[k].real))
    for j in order:
        if used[j]:
            continue
        lam = vals[j]
        lam_r = lam.real
        if abs(lam.imag) > REAL_AXIS_TOL:
            best, best_err = _partner(vals, used, j, lam.conjugate())
            if best is None:
                raise SpectrumStructureError(
                    f"eigenvalue {lam} has no conjugate partner (best residual {best_err:.3e})"
                )
            pair = (j, best) if lam.imag > 0 else (best, j)
            lam_pos = vals[pair[0]]
            if abs(abs(lam_pos) - 1.0) < UNIT_CIRCLE_TOL:
                tag, omega = "elliptic", cmath.phase(lam_pos) / (2 * math.pi)
            else:
                # complex off-circle quadruple partner handling is out of scope
                tag, omega = "hyperbolic", math.nan
        elif abs(lam_r - 1.0) < _PARABOLIC_TOL or abs(lam_r + 1.0) < _PARABOLIC_TOL:
            best = _partner(vals, used, j, lam)[0]
            if best is None:
                raise SpectrumStructureError(f"unpaired parabolic eigenvalue {lam_r}")
            pair, tag, omega = (j, best), "parabolic", math.nan
        else:
            # 0 has no reciprocal
            best = _partner(vals, used, j, 1.0 / lam_r if lam_r else math.inf, real=True)[0]
            if best is None:
                raise SpectrumStructureError(f"real eigenvalue {lam_r} has no reciprocal partner")
            # the larger modulus first
            pair = (j, best) if abs(vals[j]) >= abs(vals[best]) else (best, j)
            tag, omega = "hyperbolic", math.nan
        used[j] = used[best] = True
        pairing.append(pair)
        tags.append(tag)
        omegas.append(omega)
    # repeated elliptic eigenvalues are resonant for the normal form
    ell = [vals[p[0]] for p, t in zip(pairing, tags) if t == "elliptic"]
    for a in range(len(ell)):
        for b in range(a + 1, len(ell)):
            if abs(ell[a] - ell[b]) < REPEAT_TOL:
                tags = ["resonant" if t == "elliptic" else t for t in tags]
    return SpectrumReport(
        eigenvalues=tuple(vals),
        pairing=tuple(pairing),
        classification=tuple(tags),
        omega=tuple(omegas),
        eigenvectors=vecs,
    )


@dataclass(frozen=True)
class DiagonalizingBasis:
    """C0 with conjugate-pair columns and its inverse.

    Column order is interleaved (xi_1, eta_1, xi_2, eta_2, ...): column 2j is
    the unit-norm eigenvector of the j-th elliptic eigenvalue (Im > 0) with
    its first above-threshold entry rotated to be real positive, and column
    2j+1 is the elementwise conjugate.  ``normalization["eigenvalues"]``
    holds the eigenvalue of each xi column.
    """

    C0: np.ndarray
    inverse: np.ndarray
    normalization: dict = field(default_factory=dict)


def build_C0(m, report):
    """Diagonalizing basis for a real matrix with fully elliptic spectrum.

    The columns of C0 are the eigenvectors of ``report = classify_spectrum(m)``,
    which tags repeated elliptic eigenvalues resonant.  Verifies the
    off-diagonal residual of C0^-1 m C0 against ``C0_RESIDUAL_TOL``, which
    also rejects a report of another matrix, and rejects a matrix whose norm
    overflows a double.

    ``m`` and ``report`` may also be lists, one matrix and its report per
    row.  Then ``inv`` and ``inv @ m @ C0`` run once, on the stack of the
    rows' C0, and one basis per row returns; if any row fails, the call
    raises.
    """
    if isinstance(report, SpectrumReport):
        return build_C0([m], [report])[0]
    ms = [np.asarray(a, dtype=float) for a in m]
    C0 = np.array([_pinned_columns(r) for r in report]).transpose(0, 2, 1).copy()  # in C order, as each row's C0 alone
    try:
        inv = np.linalg.inv(C0)
    except np.linalg.LinAlgError as exc:
        raise NonDiagonalizableError(f"eigenvector basis C0 is not invertible: {exc}") from exc
    # a norm past the double range overflows quietly here: the checks below reject it
    with np.errstate(over="ignore", invalid="ignore"):
        off = np.abs(inv @ np.array(ms) @ C0).reshape(len(C0), -1)
        off[:, :: C0.shape[1] + 1] = 0.0  # the diagonals
        return [_checked_basis(*row) for row in zip(ms, report, C0, inv, off.max(axis=1).tolist())]


def _pinned_columns(report: SpectrumReport) -> list:
    """The columns of C0 for an all-elliptic report: its unit eigenvectors, each phase pinned, and their conjugates."""
    if not report.is_elliptic():
        raise ResonanceError(
            f"build_C0 needs an all-elliptic spectrum, got tags {report.classification}"
        )
    cols = []
    for j, _ in report.pairing:
        v = report.eigenvectors[:, j]  # complex: eig of a real matrix with non-real eigenvalues
        v = v / np.linalg.norm(v)
        # deterministic phase: first entry above threshold made real positive
        lead = next(i for i in range(len(v)) if abs(v[i]) > PHASE_LEAD_MIN)
        v = v * (abs(v[lead]) / v[lead])
        cols.append(v)
        cols.append(v.conj())
    return cols


def _checked_basis(m, report, C0, inv, res) -> DiagonalizingBasis:
    """The basis of ``m`` once ``res``, the largest off-diagonal modulus of C0^-1 m C0, passes."""
    scale = max(1.0, float(np.linalg.norm(m)))
    if not res <= C0_RESIDUAL_TOL * scale:  # NaN fails
        raise NonDiagonalizableError(f"off-diagonal residual {res:.3e} exceeds tolerance")
    if math.isinf(scale):  # the bound above was inf
        raise NonDiagonalizableError(f"matrix norm {scale} is not finite")
    return DiagonalizingBasis(
        C0=C0,
        inverse=inv,
        normalization={"eigenvalues": [complex(report.eigenvalues[j]) for j, _ in report.pairing]},
    )
