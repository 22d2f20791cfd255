"""Birkhoff normal-form coefficients and KAM hypothesis checks.

Inputs are jets of a diagonalized map: xi_j -> p_j = lambda_j xi_j + O2,
eta_j -> q_j = mu_j eta_j + O2, with mu = conj(lambda) on the unit circle.
The quadratic corrections phi_2, psi_2 solve the homological equations
monomial by monomial; the first Birkhoff coefficients alpha_jk are then read
off as the xi_j xi_k eta_k coefficients of p_j composed with the corrected
identity, which is their defining property.  That is all the normal form
reads: the 2-jets of p and q, and the cubic coefficients of p_j at its
structurally resonant monomials xi_j xi_k eta_k.  ``diagonalized_jets``
therefore builds the 2-jets and only those cubic coefficients (and their
mirror images eta_j xi_k eta_k in q_j).  The d = 1 closed form must agree
with this machinery to 1e-10, and does (this cross-check is the strongest
test of both).

Also here: the twist determinant, the frequency-map non-planarity test, the
non-resonance report, and the Brjuno partial-sum diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ResonanceError, ShapeMismatchError
from .jets import Jet, JetVector, Lanes, _combination, _compose, _monomials, jet_variables, stack_lanes, unstack_lanes
from .spectral import UNIT_CIRCLE_TOL, DiagonalizingBasis

__all__ = [
    "NormalFormInput",
    "BirkhoffCoefficients",
    "BrjunoResult",
    "diagonalized_jets",
    "nonresonance_check",
    "phi2_psi2",
    "alpha_matrix",
    "birkhoff_coefficients",
    "alpha2_closed_form",
    "twist_determinant",
    "nonplanarity_check",
    "brjuno_partial_sum",
    "RESONANCE_DENOM_TOL",
    "NORMAL_FORM_DEGREE",
]

#: Degree of the map jet the normal form works on: alpha_jk are degree-3
#: coefficients, and nothing downstream reads a higher degree.
NORMAL_FORM_DEGREE = 3

# The normal form's verdict and health thresholds (the README's threshold table).
LINEAR_PART_TOL = 1e-9  #: largest error allowed in the linear part of a diagonalized map jet
RESONANCE_DENOM_TOL = 1e-10  #: homological denominators smaller than this are resonant
RESONANCE_TOL = 1e-8  #: an eigenvalue product this near an eigenvalue, or a power this near 1, is resonant
RESONANCE_ORDER = 4  #: the highest order of the roots of unity ``nonresonance_check`` tests
TWIST_DET_TOL = 1e-6  #: |det alpha| above this asserts the twist condition
NONPLANARITY_DET_TOL = 1e-9  #: |det Re b| above this asserts a non-planar frequency map
BRJUNO_HUGE_QUOTIENT = 1e12  #: a continued-fraction partial quotient above this ends the Brjuno sum as rational


@dataclass(frozen=True)
class NormalFormInput:
    """Jets of a diagonalized map in variables (xi_1..xi_d, eta_1..eta_d), truncated at degree <= 3.

    The normal form reads the 2-jets of p and q and, for alpha_jk, the cubic
    coefficients of p_j at xi_j xi_k eta_k.  ``diagonalized_jets`` builds only
    those: the 2-jet of each component, plus the d cubic coefficients of p_j
    at xi_j xi_k eta_k and of q_j at eta_j xi_k eta_k (from the 3-jet of the
    chart map; a chart truncated below degree 3 gives 2-jets).  Jets built
    elsewhere may hold any terms; the normal form ignores the other cubic
    ones.
    """

    d: int
    p_jets: JetVector
    q_jets: JetVector
    lam: tuple
    mu: tuple

    def __post_init__(self):
        n = 2 * self.d
        if len(self.p_jets) != self.d or len(self.q_jets) != self.d:
            raise ShapeMismatchError("need d components for p and for q")
        if self.p_jets.num_vars != n or self.q_jets.num_vars != n:
            raise ShapeMismatchError(f"jets must live in {n} variables")
        if len(self.lam) != self.d or len(self.mu) != self.d:
            raise ShapeMismatchError("need d eigenvalues lambda and mu")

    def validate_linear_part(self):
        n = 2 * self.d
        for j in range(self.d):
            for block, jets, diag in (("xi", self.p_jets, self.lam), ("eta", self.q_jets, self.mu)):
                jet = jets[j]
                own = j if block == "xi" else self.d + j
                weights = _monomials(n, jet.trunc_degree).weights  # weights[i] is the code of variable i
                for i in range(n):
                    want = diag[j] if i == own else 0.0
                    got = complex(jet._coded.get(weights[i], 0))
                    if not abs(got - want) <= LINEAR_PART_TOL:  # NaN fails
                        raise ShapeMismatchError(
                            f"linear part of {block}_{j + 1} is off by {abs(got - want):.2e} at variable {i}"
                        )


def diagonalized_jets(map_jet, basis):
    """Conjugate a real 2d-component map jet by C0 into normal-form variables.

    ``map_jet`` has 2d components in 2d real variables, zero constant terms.
    The basis columns are interleaved; jets downstream use block variable
    order (xi_1..xi_d, eta_1..eta_d), so the permutation happens here.

    The normal form works on the 3-jet: a map jet of higher degree is
    truncated at ``NORMAL_FORM_DEGREE`` first (never raised to it).  With zero
    constant terms every coefficient up to degree 3 gets the same float
    contributions in the same order as at the map jet's own degree.

    Only what the normal form reads is built (see :class:`NormalFormInput`):
    every coefficient of degree <= 2, and at degree 3 only xi_j xi_k eta_k in
    p_j and eta_j xi_k eta_k in q_j.  The conjugation ``inv . map(C0 zeta)``
    runs as the full one would, with every other cubic key skipped where it
    would be formed (``jets._Products`` with a set of codes to keep), so each
    kept coefficient is the float the full conjugation gives, in the same
    relative key order: ``alpha_matrix`` composes p_j term by term in that
    order.

    ``map_jet`` and ``basis`` may also be lists, one map jet and one basis
    per row, whose map jets share their keys.  The conjugation then runs
    once for all rows, each coefficient a :class:`jets.Lanes` of one number
    per row, and the list of the rows' inputs returns, each validated and
    equal to the row's input alone.  Rows that disagree on a zero test
    whose value is used again raise ``jets.LanesDisagree``.
    """
    if isinstance(basis, DiagonalizingBasis):
        return diagonalized_jets([map_jet], [basis])[0]
    bases = basis
    map_jet = JetVector(map(stack_lanes, zip(*map_jet)))
    n = len(map_jet)
    if map_jet.num_vars != n or n % 2:
        raise ShapeMismatchError("map jet must be square with an even number of variables")
    if map_jet.trunc_degree > NORMAL_FORM_DEGREE:
        map_jet = JetVector(c.truncated(NORMAL_FORM_DEGREE) for c in map_jet)
    d = n // 2
    C0s, invs = [b.C0.tolist() for b in bases], [b.inverse.tolist() for b in bases]
    # block index -> interleaved index
    perm = [2 * j for j in range(d)] + [2 * j + 1 for j in range(d)]
    td = map_jet.trunc_degree
    table = _monomials(n, td)
    w = table.weights
    zeta = [{w[k]: 1.0 + 0.0j} for k in range(n)]
    cut = NORMAL_FORM_DEGREE * table.top  # the codes from here on are cubic

    def entry(matrices, i, k):
        """The (i, k) entries of the rows' matrices, as the lanes of Python complex numbers."""
        return Lanes.of([complex(m[i][k]) for m in matrices])

    inner = [
        Jet._raw(n, td, _combination(zeta, [entry(C0s, i, perm[k]) for k in range(n)], cut, ())) for i in range(n)
    ]
    # the cubic codes each output keeps: xi_j xi_k eta_k in p_j, eta_j xi_k eta_k in q_j
    resonant = [{w[r] + w[k] + w[d + k] for k in range(d)} for r in range(n)]
    keep = set().union(*resonant) if td == NORMAL_FORM_DEGREE else None  # a 2-jet has no cubic keys
    composed = [c._coded for c in _compose(map_jet.components, inner, False, keep)]
    out = [
        Jet._raw(n, td, _combination(composed, [entry(invs, perm[r], i) for i in range(n)], cut, resonant[r]))
        for r in range(n)
    ]
    nfs = []
    for b, jets in zip(bases, zip(*(unstack_lanes(jet, len(bases)) for jet in out))):
        lam = tuple(complex(b.normalization["eigenvalues"][j]) for j in range(d))
        mu = tuple(l.conjugate() for l in lam)
        nf = NormalFormInput(
            d=d,
            p_jets=JetVector(jets[:d]),
            q_jets=JetVector(jets[d:]),
            lam=lam,
            mu=mu,
        )
        nf.validate_linear_part()
        nfs.append(nf)
    return nfs


def _eig_product(lam, mu, exps) -> complex:
    """prod lambda_i^{a_i} * prod mu_i^{b_i} for a degree multi-index."""
    d = len(lam)
    out = 1.0 + 0.0j
    for i, e in enumerate(exps[:d]):
        if e:
            out *= lam[i] ** e
    for i, e in enumerate(exps[d:]):
        if e:
            out *= mu[i] ** e
    return out


def nonresonance_check(lam: Sequence[complex]) -> list:
    """Report resonances among unit eigenvalues.

    Returns tuples ("lambda_lambda" | "lambda_mu" | "mu_mu", j, m, n) for
    |lambda_j - lambda_m lambda_n| < RESONANCE_TOL (and the mu variants), plus
    ("root_of_unity", j, k) when lambda_j^k = 1 for k <= RESONANCE_ORDER.
    Indices are 1-based.  Report-only: an empty list means no violations.
    """
    lam = [complex(l) for l in lam]
    for l in lam:
        if abs(abs(l) - 1.0) > UNIT_CIRCLE_TOL:
            raise ValueError(f"nonresonance_check expects unit-modulus eigenvalues, got |{l}|")
    mu = [l.conjugate() for l in lam]
    d = len(lam)
    out = []
    for j in range(d):
        for m in range(d):
            for n in range(d):
                if abs(lam[m] * lam[n] - lam[j]) < RESONANCE_TOL:
                    out.append(("lambda_lambda", j + 1, m + 1, n + 1))
                if abs(lam[m] * mu[n] - lam[j]) < RESONANCE_TOL:
                    out.append(("lambda_mu", j + 1, m + 1, n + 1))
                if abs(mu[m] * mu[n] - lam[j]) < RESONANCE_TOL:
                    out.append(("mu_mu", j + 1, m + 1, n + 1))
    for j in range(d):
        for k in range(1, RESONANCE_ORDER + 1):
            if abs(lam[j] ** k - 1.0) < RESONANCE_TOL:
                out.append(("root_of_unity", j + 1, k))
    return out


def _solve_homological(jet: Jet, lam, mu, own: complex) -> Jet:
    """phi with phi(lam xi, mu eta) - own * phi = [jet]_2, coefficientwise."""
    n, td = jet.num_vars, jet.trunc_degree
    table = _monomials(n, td)
    low, high = 2 * table.top, 3 * table.top  # the codes of degree 2
    out = {}
    for code, c in jet._coded.items():
        if not low <= code < high:
            continue
        e = table.decode(code)
        denom = _eig_product(lam, mu, e) - own
        if not abs(denom) >= RESONANCE_DENOM_TOL:  # NaN fails
            raise ResonanceError(
                f"homological denominator {abs(denom):.2e} at monomial {e} is resonant"
            )
        v = complex(c) / denom
        if v:
            out[code] = v
    return Jet._raw(n, td, out)


def phi2_psi2(nf: NormalFormInput) -> tuple[JetVector, JetVector]:
    """Quadratic corrections of the normalizing change of coordinates.

    phi_{j,2} solves phi(lam xi, mu eta) - lambda_j phi = [p_j]_2 and psi_{j,2}
    the mu_j analogue; each monomial divides by its own eigenvalue-product
    denominator, so denominators below RESONANCE_DENOM_TOL raise.
    """
    phis = [_solve_homological(p, nf.lam, nf.mu, nf.lam[j]) for j, p in enumerate(nf.p_jets)]
    psis = [_solve_homological(q, nf.lam, nf.mu, nf.mu[j]) for j, q in enumerate(nf.q_jets)]
    return JetVector(phis), JetVector(psis)


def _corrected_identity(nf: NormalFormInput, phi2: JetVector, psi2: JetVector) -> list[Jet]:
    n = 2 * nf.d
    zeta = jet_variables(n, nf.p_jets.trunc_degree, coeff_one=1.0 + 0.0j)
    return [zeta[i] + phi2[i] for i in range(nf.d)] + [zeta[nf.d + i] + psi2[i] for i in range(nf.d)]


def alpha_matrix(nf: NormalFormInput, phi2: JetVector, psi2: JetVector) -> np.ndarray:
    """First Birkhoff coefficient matrix (alpha_jk).

    alpha_jk is the coefficient of xi_j xi_k eta_k in p_j composed with the
    quadratically corrected identity (id + phi_2, id + psi_2), truncated at
    the jets' degree: at that structurally resonant monomial the unknown
    cubic correction drops out of the functional equation and alpha_jk is
    what remains.  Below degree 3 there is no such monomial and alpha is 0.

    One composition (``jets._compose``) that keeps at the truncation degree
    only the d**2 codes xi_j xi_k eta_k: every key it keeps gets the items of
    the full composition in the same order, so each alpha_jk is the float
    the full composition gives, for any zero-constant ``phi2`` and ``psi2``
    of the normal form's shape (a constant raises ``ConstantTermError``,
    another shape ``ShapeMismatchError``).
    """
    d = nf.d
    if len(phi2) != d or len(psi2) != d:
        raise ShapeMismatchError(f"phi2 and psi2 must have {d} components")
    alpha = np.zeros((d, d), dtype=complex)
    td = nf.p_jets.trunc_degree
    if td < 3:
        return alpha
    w = _monomials(2 * d, td).weights
    resonant = [[w[j] + w[k] + w[d + k] for k in range(d)] for j in range(d)]  # xi_j xi_k eta_k
    keep = {t for ts in resonant for t in ts}
    composed = _compose(nf.p_jets.components, _corrected_identity(nf, phi2, psi2), False, keep)
    for j, comp in enumerate(composed):
        for k, target in enumerate(resonant[j]):
            alpha[j, k] = complex(comp._coded.get(target, 0))
    return alpha


@dataclass(frozen=True)
class BirkhoffCoefficients:
    """The alpha matrix and b = alpha/(i lambda)."""

    alpha: np.ndarray
    b: np.ndarray


def birkhoff_coefficients(nf: NormalFormInput) -> BirkhoffCoefficients:
    alpha = alpha_matrix(nf, *phi2_psi2(nf))
    b = np.array(
        [[alpha[j, k] / (1j * nf.lam[j]) for k in range(nf.d)] for j in range(nf.d)],
        dtype=complex,
    )
    return BirkhoffCoefficients(alpha=alpha, b=b)


def alpha2_closed_form(p2: Sequence[complex], q2: Sequence[complex], p31: complex, lam: complex) -> complex:
    """Closed-form first Birkhoff coefficient of a 2D elliptic map.

    p2 = (p20, p21, p22) and q2 = (q20, q21) [a third entry is accepted and
    ignored] are the quadratic coefficients of p and q in (xi, eta); p31 the
    xi^2 eta coefficient of p; mu = 1/lam.  Denominators require lambda != 1
    and lambda^3 != 1: the eta^2 -> xi^2 correction solves
    b20 (lambda^2 - mu) = q20, and lambda^2 - mu = (lambda^3 - 1)/lambda.
    """
    lam = complex(lam)
    if abs(lam - 1.0) < RESONANCE_TOL or abs(lam**3 - 1.0) < RESONANCE_TOL:
        raise ResonanceError(f"lambda = {lam} is (near) a root of unity of order 1 or 3")
    mu = 1.0 / lam
    p20, p21, p22 = (complex(c) for c in p2)
    q20, q21 = complex(q2[0]), complex(q2[1])
    return (
        2.0 * p20 * p21 / (lam * (mu - 1.0))
        + p21 * (lam * q21 + mu * p20) / (lam * mu * (lam - 1.0))
        + 2.0 * p22 * q20 / (lam * lam - mu)
        + complex(p31)
    )


def twist_determinant(alpha) -> complex:
    """Determinant of the alpha matrix (the torsion detector)."""
    return complex(np.linalg.det(np.asarray(alpha, dtype=complex)))


def nonplanarity_check(b) -> bool:
    """True iff the frequency map r -> omega + b r is non-planar: |det Re b| > NONPLANARITY_DET_TOL (1e-9).

    The image is affine, so it is non-planar iff Re b is nonsingular, whatever
    omega is; b may carry small imaginary parts from the eigenvector
    normalization, and the frequency map is real.  With b = alpha/(i lambda)
    row by row, |det b| = |det alpha|: this is the twist invariant of Re b
    with a looser tolerance than ``TWIST_DET_TOL``, not an independent check.
    """
    return bool(abs(np.linalg.det(np.asarray(b, dtype=complex).real)) > NONPLANARITY_DET_TOL)


@dataclass(frozen=True)
class BrjunoResult:
    """Partial Brjuno sum of a rotation number, with the quotients used."""

    partial_sum: float
    terms_used: int
    rational: bool
    quotients: tuple


def brjuno_partial_sum(theta, K: int = 20) -> BrjunoResult:
    """Partial sum sum_{k=1..K} log(q_{k+1}) / q_k of the Brjuno series.

    q_k are the continued-fraction convergent denominators of theta.  The
    expansion stops once denominators exceed 2^53 (beyond double precision
    the quotients of a float input are noise).  A terminating expansion or a
    partial quotient above ``BRJUNO_HUGE_QUOTIENT`` flags the input as
    rational and the sum so far is returned.

    The expansion is Euclid's algorithm on the numerator and denominator of
    the fractional part of theta, taken exactly (a float is converted without
    rounding), so Fraction input gives exact quotients.
    """
    if isinstance(theta, float):
        num, den = theta.as_integer_ratio()  # exact, in lowest terms
    else:
        x = Fraction(theta)
        num, den = x.numerator, x.denominator
    num %= den
    qs = [1]
    q_prev = 0
    quotients = []
    rational = False
    while len(qs) < K + 2:
        if num == 0:
            rational = True
            break
        a, r = divmod(den, num)
        if a > BRJUNO_HUGE_QUOTIENT:
            rational = True
            break
        quotients.append(a)
        q_new = a * qs[-1] + q_prev
        q_prev = qs[-1]
        qs.append(q_new)
        if q_new > 2**53:
            break
        num, den = r, num
    total = 0.0
    terms = 0
    for k in range(1, min(K, len(qs) - 2) + 1):
        total += math.log(qs[k + 1]) / qs[k]
        terms += 1
    return BrjunoResult(
        partial_sum=total, terms_used=terms, rational=rational, quotients=tuple(quotients)
    )
