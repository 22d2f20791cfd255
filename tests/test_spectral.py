import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from charvar_kam.errors import NonDiagonalizableError, ResonanceError, SpectrumStructureError
from charvar_kam.spectral import build_C0, classify_spectrum, eigen_small


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def block_diag(*blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    k = 0
    for b in blocks:
        out[k : k + b.shape[0], k : k + b.shape[0]] = b
        k += b.shape[0]
    return out


# ------------------------------------------------------------------ eigen_small


def test_eigen_small_linalg_error_is_typed(monkeypatch):
    from charvar_kam import spectral

    def failing_eig(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(spectral.np.linalg, "eig", failing_eig)
    with pytest.raises(NonDiagonalizableError) as info:
        eigen_small(np.diag([2.0, 3.0]))
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_eigen_small_diagonal():
    vals, _ = eigen_small(np.diag([2.0, 3.0]))
    assert sorted(v.real for v in vals) == [2.0, 3.0]


def test_eigen_small_cat_matrix():
    vals, vecs = eigen_small(np.array([[2.0, 1.0], [1.0, 1.0]]))
    expected = sorted([(3 + math.sqrt(5)) / 2, (3 - math.sqrt(5)) / 2])
    assert max(abs(a - b) for a, b in zip(sorted(v.real for v in vals), expected)) < 1e-12


def test_eigen_small_det_identity():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = rng.normal(size=(6, 6))
        vals, _ = eigen_small(m)
        det = np.linalg.det(m)
        assert abs(np.prod(vals) - det) < 1e-8 * max(1.0, abs(det))


def test_eigen_small_rejects_defective():
    with pytest.raises(NonDiagonalizableError):
        eigen_small(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_eigen_small_names_the_first_pair_past_the_residual_bound(monkeypatch):
    """One residual check for all pairs still reports the first bad pair, with the same message."""
    from charvar_kam import spectral

    def wrong_eig(m):
        return np.array([2.0, 3.5, 6.0], dtype=complex), np.eye(3, dtype=complex)

    monkeypatch.setattr(spectral.np.linalg, "eig", wrong_eig)
    with pytest.raises(NonDiagonalizableError, match=r"^eigenpair 1 residual 5\.000e-01 exceeds 1\.0e-09 \* \|\|m\|\|$"):
        eigen_small(np.diag([2.0, 3.0, 5.0]))


def test_eigen_small_singular_basis_has_infinite_condition(monkeypatch):
    from charvar_kam import spectral

    def parallel_eig(m):
        return np.array([1.0, 1.0], dtype=complex), np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)

    monkeypatch.setattr(spectral.np.linalg, "eig", parallel_eig)
    with pytest.raises(NonDiagonalizableError, match="^eigenvector basis condition number inf: matrix is defective$"):
        eigen_small(np.eye(2))


def test_eigen_small_condition_is_numpys_cond(monkeypatch):
    """The basis check compares ``np.linalg.cond`` of the eigenvectors, bit for bit, with its bound."""
    from charvar_kam import spectral

    rng = np.random.default_rng(11)
    for n in (2, 4, 6, 8):
        for _ in range(5):
            m = rng.normal(size=(n, n))
            cond = np.linalg.cond(np.linalg.eig(m.astype(complex))[1])
            monkeypatch.setattr(spectral, "EIGEN_COND_MAX", cond)
            eigen_small(m)
            monkeypatch.setattr(spectral, "EIGEN_COND_MAX", np.nextafter(cond, 0.0))
            with pytest.raises(NonDiagonalizableError, match="condition number"):
                eigen_small(m)


def test_eigen_small_rejects_a_nan_residual():
    """m @ v overflows to inf - inf = NaN on this finite matrix; a NaN residual is no pass."""
    with np.errstate(all="ignore"), pytest.raises(NonDiagonalizableError, match="^eigenpair 0 residual nan exceeds"):
        eigen_small(np.array([[1e308, 1e308], [1e308, 1e308]]))


def test_eigen_small_rejects_a_norm_that_overflows():
    """||m|| overflows to inf on this finite matrix, so every residual would pass an inf bound."""
    with warnings.catch_warnings(), pytest.raises(NonDiagonalizableError, match="^matrix norm inf is not finite$"):
        warnings.simplefilter("error")
        eigen_small(np.array([[1e308, -1e308], [1e308, 1e308]]))


def test_eigen_small_size_guard():
    with pytest.raises(ValueError):
        eigen_small(np.eye(9))


# ------------------------------------------------------------------ classify_spectrum


def test_classify_rotation_eighth():
    rep = classify_spectrum(rotation(math.pi / 4))
    assert rep.classification == ("elliptic",)
    assert abs(rep.omega[0] - 0.125) < 1e-12
    j, k = rep.pairing[0]
    assert rep.eigenvalues[j].imag > 0
    assert abs(rep.eigenvalues[j] - rep.eigenvalues[k].conjugate()) < 1e-9


def test_classify_cat_matrix_hyperbolic():
    rep = classify_spectrum(np.array([[2.0, 1.0], [1.0, 1.0]]))
    assert rep.classification == ("hyperbolic",)
    j, k = rep.pairing[0]
    lam = rep.eigenvalues[j]
    assert abs(lam - (3 + math.sqrt(5)) / 2) < 1e-10
    assert abs(rep.eigenvalues[k] - (3 - math.sqrt(5)) / 2) < 1e-10


def test_classify_three_elliptic_pairs():
    m = block_diag(rotation(0.3), rotation(0.7), rotation(1.1))
    rep = classify_spectrum(m)
    assert rep.is_elliptic()
    assert len(rep.pairing) == 3
    freqs = sorted(rep.elliptic_frequencies())
    expected = sorted([0.3 / (2 * math.pi), 0.7 / (2 * math.pi), 1.1 / (2 * math.pi)])
    assert max(abs(a - b) for a, b in zip(freqs, expected)) < 1e-12


def test_classify_repeated_elliptic_is_resonant():
    m = block_diag(rotation(0.5), rotation(0.5))
    rep = classify_spectrum(m)
    assert set(rep.classification) == {"resonant"}


def test_classify_parabolic():
    rep = classify_spectrum(np.eye(2))
    assert rep.classification == ("parabolic",)


def test_classify_rejects_complex_input():
    with pytest.raises(SpectrumStructureError):
        classify_spectrum(np.array([[1j, 0], [0, -1j]]))


def test_classify_mixed_spectrum():
    m = block_diag(rotation(0.4), np.array([[2.0, 1.0], [1.0, 1.0]]))
    rep = classify_spectrum(m)
    assert sorted(rep.classification) == ["elliptic", "hyperbolic"]


def test_classify_zero_eigenvalue_raises_without_warning():
    """A zero real eigenvalue has no reciprocal partner; no 1 / 0 is formed to find that out."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpectrumStructureError, match=r"^real eigenvalue 0\.0 has no reciprocal partner$"):
            classify_spectrum(np.diag([0.0, -2.0]))


def test_su3_row_with_zero_eigenvalue_records_error_without_warning():
    """At s = 1/4 + 10^-20 the chart's linear part has eigenvalue 0.0; the row records it quietly."""
    from charvar_kam.pipelines import su3_main_point

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = su3_main_point(Fraction(1, 4) + Fraction(1, 10**20))
    assert row["error"] == "SpectrumStructureError: real eigenvalue 0.0 has no reciprocal partner"


def test_spectrum_report_json():
    rep = classify_spectrum(rotation(0.3))
    assert len(rep.eigenvalues) == 2 and rep.classification == ("elliptic",)
    # the eigenvectors kept for build_C0 are left out of equality, hash and repr
    again = classify_spectrum(rotation(0.3))
    assert rep == again and hash(rep) == hash(again)
    assert rep.eigenvectors.shape == (2, 2) and "eigenvectors" not in repr(rep)


# ------------------------------------------------------------------ build_C0


def test_build_C0_rotation():
    theta = 0.37
    basis = build_C0(rotation(theta), classify_spectrum(rotation(theta)))
    C0 = basis.C0
    # conjugate-pair columns, unit norm, leading entry real positive
    assert np.allclose(C0[:, 1], np.conj(C0[:, 0]))
    assert abs(np.linalg.norm(C0[:, 0]) - 1.0) < 1e-12
    assert abs(C0[0, 0].imag) < 1e-12 and C0[0, 0].real > 0
    assert np.allclose(np.abs(C0), 1 / math.sqrt(2), atol=1e-12)
    diag = basis.inverse @ rotation(theta) @ C0
    assert abs(diag[0, 0] - np.exp(1j * theta)) < 1e-12
    assert abs(diag[0, 1]) < 1e-12 and abs(diag[1, 0]) < 1e-12


def test_build_C0_six_dim_residual():
    m = block_diag(rotation(0.3), rotation(0.8), rotation(1.4))
    basis = build_C0(m, classify_spectrum(m))
    diag = basis.inverse @ m @ basis.C0
    off = diag - np.diag(np.diag(diag))
    assert np.max(np.abs(off)) < 1e-9
    for j in range(3):
        assert np.allclose(basis.C0[:, 2 * j + 1], np.conj(basis.C0[:, 2 * j]))


def test_build_C0_rejects_resonant():
    m = block_diag(rotation(0.5), rotation(0.5))
    with pytest.raises(ResonanceError):
        build_C0(m, classify_spectrum(m))


def test_build_C0_rejects_hyperbolic():
    with pytest.raises(ResonanceError):
        m = np.array([[2.0, 1.0], [1.0, 1.0]])
        build_C0(m, classify_spectrum(m))


def test_build_C0_rejects_a_nan_entry():
    """A NaN in the matrix makes the off-diagonal residual NaN, which fails like a large one."""
    from charvar_kam import charts
    from charvar_kam.mcg import fixed_family_su2

    m = charts.chart_linear_matrix(charts.su2_chart_map_jet(fixed_family_su2(Fraction(1, 10))))
    report = classify_spectrum(m)
    build_C0(m, report)
    m[0, 1] = math.nan
    with pytest.raises(NonDiagonalizableError, match="^off-diagonal residual nan exceeds tolerance$"):
        build_C0(m, report)


def test_build_C0_rejects_a_norm_that_overflows():
    """An overflowing ||m|| makes the residual bound inf; the basis is refused, not returned."""
    from charvar_kam import charts
    from charvar_kam.mcg import fixed_family_su2

    m = charts.chart_linear_matrix(charts.su2_chart_map_jet(fixed_family_su2(Fraction(1, 10))))
    report = classify_spectrum(m)
    huge = np.array([[1e308, -1e308], [1e308, 1e308]])
    with warnings.catch_warnings(), pytest.raises(NonDiagonalizableError, match="^matrix norm inf is not finite$"):
        warnings.simplefilter("error")
        build_C0(huge, report)


def test_eigenvalue_continuity_small_step():
    # eigenvalues move slowly along a parameter path (pair-tracking premise)
    prev = None
    for k in range(5):
        theta = 0.4 + 1e-3 * k
        rep = classify_spectrum(rotation(theta))
        lam = rep.eigenvalues[rep.pairing[0][0]]
        if prev is not None:
            assert abs(abs(lam) - abs(prev)) < 0.1
            assert abs(lam - prev) < 0.1
        prev = lam


def _random_reciprocal(rng, n):
    """A real n x n matrix with reciprocal spectrum: elliptic, hyperbolic and identity 2x2 blocks, conjugated."""
    blocks = []
    for _ in range(n // 2):
        kind = rng.integers(5)
        if kind < 3:
            blocks.append(rotation(rng.uniform(0.05, math.pi - 0.05)))
        elif kind == 3:
            r = rng.uniform(1.5, 4.0) * rng.choice([-1.0, 1.0])
            blocks.append(np.diag([r, 1 / r]))
        else:
            blocks.append(np.eye(2) * rng.choice([-1.0, 1.0]))
    q = rng.normal(size=(n, n)) + 2 * np.eye(n)
    return q @ block_diag(*blocks) @ np.linalg.inv(q)


def _spectrum_matrices():
    from charvar_kam.charts import chart_linear_matrix, chart_map_jet, su2_chart_map_jet
    from charvar_kam.mcg import fixed_family_su2, fixed_family_su3

    window = [Fraction("0.239") + k * Fraction("0.0005") for k in range(21)]
    sweep = [Fraction("0.005") + k * Fraction("0.001") for k in range(245)]
    yield from (chart_linear_matrix(chart_map_jet(fixed_family_su3(s))) for s in window)
    yield from (chart_linear_matrix(su2_chart_map_jet(fixed_family_su2(s))) for s in sweep)
    rng = np.random.default_rng(43)
    for n in (2, 4, 6, 8):
        for _ in range(25):
            yield _random_reciprocal(rng, n)
            yield rng.normal(size=(n, n))  # mostly no partners: the errors must agree too
    yield block_diag(rotation(0.5), rotation(0.5), np.diag([2.0, 0.5]))  # a repeated elliptic pair


def test_classify_spectrum_pairs_as_on_numpy_scalars():
    """Pairing, tags, omega and error messages equal those of the pairing on numpy scalars."""
    from oracles import classify_spectrum_numpy

    kinds = set()
    for m in _spectrum_matrices():
        try:
            want = classify_spectrum_numpy(m)
        except SpectrumStructureError as exc:
            with pytest.raises(SpectrumStructureError) as info:
                classify_spectrum(m)
            assert str(info.value) == str(exc)
            kinds.add("error")
            continue
        rep = classify_spectrum(m)
        assert all(type(v) is complex for v in rep.eigenvalues)
        assert rep.eigenvalues == tuple(complex(v) for v in want[0])
        assert (rep.pairing, rep.classification) == want[1:3]
        assert [w.hex() for w in rep.omega] == [w.hex() for w in want[3]]
        kinds.update(rep.classification)
    assert kinds == {"elliptic", "hyperbolic", "parabolic", "resonant", "error"}
