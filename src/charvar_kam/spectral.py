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
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"need a square matrix, got shape {m.shape}")
    if m.shape[0] > 8:
        raise ValueError("eigen_small is for matrices of size <= 8")
    try:
        vals, vecs = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise NonDiagonalizableError(f"eigendecomposition failed: {exc}") from exc
    # a norm past the double range overflows quietly here: the checks below reject it
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.linalg.norm(m)
        # column k is m v_k - lambda_k v_k
        residuals = np.linalg.norm(m @ vecs - vecs * vals, axis=0)
    if scale == 0.0:
        return vals, vecs
    # a Jordan block yields (near-)parallel eigenvectors with tiny residuals,
    # so defectiveness must be caught through the basis conditioning: the
    # 2-norm condition number s_max / s_min, as np.linalg.cond computes it
    s = np.linalg.svd(vecs, compute_uv=False).tolist()
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


def classify_spectrum(m) -> SpectrumReport:
    """Pair and tag the spectrum of a real square matrix (n <= 8, n even).

    Complex eigenvalues pair with their conjugates; real ones pair with their
    reciprocals (the matrices classified here have reciprocal spectra at
    fixed points of measure-preserving actions).  Elliptic means on the unit
    circle but not at +/-1; real off-circle pairs are hyperbolic; +/-1 is
    parabolic; a repeated elliptic eigenvalue is tagged resonant.
    """
    m = np.asarray(m)
    if np.iscomplexobj(m) and np.max(np.abs(m.imag)) > 0:
        raise SpectrumStructureError("classify_spectrum expects a real matrix")
    vals, vecs = eigen_small(np.asarray(m, dtype=float))
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
                # complex off-circle quadruple partner handling is out of scope
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
            # 0 has no reciprocal
            best = _partner(vals, used, j, 1.0 / lam_r if lam_r else math.inf, real=True)[0]
            if best is None:
                raise SpectrumStructureError(f"real eigenvalue {lam_r} has no reciprocal partner")
            used[j] = used[best] = True
            big = j if abs(vals[j]) >= abs(vals[best]) else best
            small = best if big == j else j
            pairing.append((big, small))
            tags.append("hyperbolic")
            omegas.append(math.nan)
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


def build_C0(m, report: SpectrumReport) -> DiagonalizingBasis:
    """Diagonalizing basis for a real matrix with fully elliptic spectrum.

    The columns of C0 are the eigenvectors of ``report = classify_spectrum(m)``,
    which tags repeated elliptic eigenvalues resonant.  Verifies the
    off-diagonal residual of C0^-1 m C0 against ``C0_RESIDUAL_TOL``, which
    also rejects a report of another matrix, and rejects a matrix whose norm
    overflows a double.
    """
    m = np.asarray(m, dtype=float)
    if not report.is_elliptic():
        raise ResonanceError(
            f"build_C0 needs an all-elliptic spectrum, got tags {report.classification}"
        )
    n = m.shape[0]
    cols = []
    for j, _ in report.pairing:
        v = report.eigenvectors[:, j]  # complex: eig of a real matrix with non-real eigenvalues
        v = v / np.linalg.norm(v)
        # deterministic phase: first entry above threshold made real positive
        lead = next(i for i in range(n) if abs(v[i]) > PHASE_LEAD_MIN)
        v = v * (abs(v[lead]) / v[lead])
        cols.append(v)
        cols.append(v.conj())
    C0 = np.column_stack(cols)
    try:
        inv = np.linalg.inv(C0)
    except np.linalg.LinAlgError as exc:
        raise NonDiagonalizableError(f"eigenvector basis C0 is not invertible: {exc}") from exc
    # a norm past the double range overflows quietly here: the checks below reject it
    with np.errstate(over="ignore", invalid="ignore"):
        off = np.abs(inv @ m @ C0)
        scale = max(1.0, float(np.linalg.norm(m)))
    off.flat[:: n + 1] = 0.0  # the diagonal
    res = float(off.max())
    if not res <= C0_RESIDUAL_TOL * scale:  # NaN fails
        raise NonDiagonalizableError(f"off-diagonal residual {res:.3e} exceeds tolerance")
    if math.isinf(scale):  # the bound above was inf
        raise NonDiagonalizableError(f"matrix norm {scale} is not finite")
    return DiagonalizingBasis(
        C0=C0,
        inverse=inv,
        normalization={"eigenvalues": [complex(report.eigenvalues[j]) for j, _ in report.pairing]},
    )
