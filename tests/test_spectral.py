import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charvar_kam.errors import NonDiagonalizableError, ResonanceError, SpectrumStructureError
from charvar_kam.pipelines import SCAN_ERRORS, _in_lanes
from charvar_kam.spectral import SpectrumReport, build_C0, classify_spectrum, eigen_small


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

    def wrong_eig(m):  # eigen_small calls eig on a stack, here of one matrix
        return np.array([[2.0, 3.5, 6.0]], dtype=complex), np.eye(3, dtype=complex)[None]

    monkeypatch.setattr(spectral.np.linalg, "eig", wrong_eig)
    with pytest.raises(NonDiagonalizableError, match=r"^eigenpair 1 residual 5\.000e-01 exceeds 1\.0e-09 \* \|\|m\|\|$"):
        eigen_small(np.diag([2.0, 3.0, 5.0]))


def test_eigen_small_singular_basis_has_infinite_condition(monkeypatch):
    from charvar_kam import spectral

    def parallel_eig(m):  # eigen_small calls eig on a stack, here of one matrix
        return np.array([[1.0, 1.0]], dtype=complex), np.array([[[1.0, 1.0], [0.0, 0.0]]], dtype=complex)

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


def test_classify_rejects_a_nan_imaginary_part():
    """An imaginary part that is NaN is not 0: the matrix is refused, alone and in lanes, not read by its real part."""
    m = np.array([[complex(0, math.nan), -1], [1, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpectrumStructureError, match="^classify_spectrum expects a real matrix$"):
            classify_spectrum(m)
        with pytest.raises(SpectrumStructureError, match="^classify_spectrum expects a real matrix$"):
            classify_spectrum([rotation(0.3), m])
        rotated, refused = _in_lanes(classify_spectrum, [(rotation(0.3),), (m,)])
    assert rotated == classify_spectrum(rotation(0.3))
    assert type(refused) is SpectrumStructureError


def test_classify_reads_a_complex_matrix_with_zero_imaginary_part_quietly():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = classify_spectrum(rotation(0.3).astype(complex))
    assert repr(rep) == repr(classify_spectrum(rotation(0.3)))


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


# the angle of a rotation block, and the eigenvalue of modulus above 1 of a reciprocal one
_ANGLES = st.floats(0.01, math.pi - 0.01)
_HYPERBOLIC = st.builds(lambda lam, sign: sign * lam, st.floats(1.01, 10.0), st.sampled_from([1.0, -1.0]))


@st.composite
def _block_spectra(draw):
    """1-3 blocks: rotations by angles at least 1e-6 apart, or, with a drawn repeat, all by the first angle;
    ``diag(lam, 1 / lam)``; and +-I.  The seed picks the orthogonal matrix that conjugates them."""
    repeat = draw(st.booleans())
    blocks, angles = [], []
    for kind in draw(st.lists(st.sampled_from(["elliptic", "hyperbolic", "parabolic"]), min_size=1, max_size=3)):
        if kind == "elliptic":
            if not (repeat and angles):
                angles.append(draw(_ANGLES.filter(lambda a: all(abs(a - b) >= 1e-6 for b in angles))))
            blocks.append((kind, angles[0] if repeat else angles[-1]))
        else:
            blocks.append((kind, draw(_HYPERBOLIC if kind == "hyperbolic" else st.sampled_from([1.0, -1.0]))))
    return blocks, draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_block_spectra())
@example(([("elliptic", 0.5), ("elliptic", 0.5), ("hyperbolic", -2.0)], 1))
@example(([("elliptic", 0.01), ("elliptic", math.pi - 0.01), ("parabolic", -1.0)], 2))
@example(([("elliptic", 1.0), ("elliptic", 1.0 + 1e-6), ("elliptic", 1.0)], 3))
@example(([("parabolic", 1.0), ("parabolic", 1.0), ("hyperbolic", 1.01)], 4))
def test_classify_spectrum_returns_the_tags_of_its_blocks(case):
    """On conjugated rotation, reciprocal and +-I blocks: the construction's tags, omegas and pair orientations."""
    spec, seed = case
    blocks = {
        "elliptic": rotation,
        "hyperbolic": lambda lam: np.diag([lam, 1 / lam]),
        "parabolic": lambda sign: sign * np.eye(2),
    }
    q = np.linalg.qr(np.random.default_rng(seed).normal(size=(2 * len(spec),) * 2))[0]
    rep = classify_spectrum(q @ block_diag(*(blocks[kind](v) for kind, v in spec)) @ q.T)
    angles = [v for kind, v in spec if kind == "elliptic"]
    resonant = len(set(angles)) < len(angles)
    tags = ["resonant" if kind == "elliptic" and resonant else kind for kind, _ in spec]
    assert sorted(rep.classification) == sorted(tags)
    lams = rep.eigenvalues
    elliptic = [(p, w) for p, w, t in zip(rep.pairing, rep.omega, rep.classification) if t in ("elliptic", "resonant")]
    assert all(lams[j].imag > 0 and abs(lams[j] - lams[k].conjugate()) < 1e-9 for (j, k), _ in elliptic)
    omegas = sorted(w for _, w in elliptic)
    assert max((abs(w - a / (2 * math.pi)) for w, a in zip(omegas, sorted(angles))), default=0.0) < 1e-12
    for (j, k), t in zip(rep.pairing, rep.classification):
        if t == "hyperbolic":
            assert abs(lams[j]) > abs(lams[k]) and abs(lams[j] * lams[k] - 1) < 1e-9


def test_one_matrix_given_as_a_list_of_its_rows_is_one_matrix():
    """A list of 1-D arrays is the rows of one matrix, not a batch: only a list of 2-D arrays is a batch."""
    rows = [np.array([0.0, -1.0]), np.array([1.0, 0.0])]
    assert classify_spectrum(rows).classification == ("elliptic",)
    assert repr(classify_spectrum(rows)) == repr(classify_spectrum(np.array(rows)))
    vals, vecs = eigen_small(rows)
    want_vals, want_vecs = eigen_small(np.array(rows))
    assert vals.tobytes() == want_vals.tobytes() and vecs.tobytes() == want_vecs.tobytes()


# ------------------------------------------------------------------ list calls in lanes


def _same_outcome(got, alone_call):
    """``got``, one row's result in lanes, raised what ``alone_call()`` raises, or nothing; returns the call's result or None."""
    try:
        want = alone_call()
    except Exception as exc:
        assert type(got) is type(exc) and str(got) == str(exc)
        return None
    assert not isinstance(got, Exception)
    return want


def _window_matrices():
    """6x6 linear parts of SU(3) charts in and around the paper's window, and one with an inf entry."""
    from charvar_kam.charts import chart_linear_matrix, chart_map_jet
    from charvar_kam.mcg import fixed_family_su3

    ms = [chart_linear_matrix(chart_map_jet(fixed_family_su3(Fraction(k, 10**4)))) for k in (2390, 2411, 2450, 2490)]
    broken = ms[1].copy()
    broken[2, 3] = math.inf
    return [ms[0], broken, ms[1], ms[2], block_diag(rotation(0.5), rotation(0.5), rotation(1.0)), ms[3]]


def _su2_mixed():
    """2x2 rows of every kind: elliptic, hyperbolic, parabolic, defective, zero, an inf entry, complex."""
    return [
        rotation(0.7),
        np.diag([2.0, 0.5]),
        np.eye(2),
        -np.eye(2),
        np.array([[1.0, 1.0], [0.0, 1.0]]),
        np.zeros((2, 2)),
        np.array([[math.inf, 0.0], [0.0, 1.0]]),
        np.array([[1j, 0.0], [0.0, -1j]]),
        rotation(2.1),
    ]


@pytest.mark.parametrize("mats", [_su2_mixed, _window_matrices], ids=["2x2", "6x6"])
def test_classify_spectrum_of_a_list_is_each_matrix_alone(mats):
    """Row by row, a list call in lanes gives the report or the exception of the matrix alone, with numpy's own eig bits.

    A direct list call that holds a failing row raises that row's scan error.
    """
    mats = mats()
    reports = _in_lanes(classify_spectrum, [(m,) for m in mats])
    assert len(reports) == len(mats)
    for m, got in zip(mats, reports):
        want = _same_outcome(got, lambda: classify_spectrum(m))
        if want is None:
            continue
        assert repr(got) == repr(want)  # eigenvalues, pairing, tags and omega, NaN placeholders included
        vals, vecs = np.linalg.eig(np.asarray(m, dtype=complex))
        assert np.array(got.eigenvalues).tobytes() == vals.tobytes()
        assert got.eigenvectors.tobytes() == vecs.tobytes() == want.eigenvectors.tobytes()
    # the failing rows change nothing of the others
    good = [m for m, r in zip(mats, reports) if not isinstance(r, Exception)]
    assert [repr(r) for r in classify_spectrum(good)] == [repr(r) for r in reports if not isinstance(r, Exception)]
    assert sum(isinstance(r, Exception) for r in reports) >= 1 and len(good) >= 2
    _raises_a_row_error(lambda: classify_spectrum(mats), reports)


def _raises_a_row_error(list_call, results):
    """``list_call()`` raises a scan error of the type and message of one failing row in ``results``."""
    with pytest.raises(SCAN_ERRORS) as info:
        list_call()
    failed = {(type(r), str(r)) for r in results if isinstance(r, Exception)}
    assert (type(info.value), str(info.value)) in failed


def _singular_report():
    """An elliptic report whose two eigenvectors are parallel, so its C0 is singular."""
    vecs = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    return SpectrumReport((1j, -1j), ((0, 1),), ("elliptic",), (0.25,), vecs)


@pytest.mark.parametrize("mats", [_su2_mixed, _window_matrices], ids=["2x2", "6x6"])
def test_build_C0_of_a_list_is_each_basis_alone(mats):
    """Row by row, a list call in lanes gives the basis or the exception of the row alone: C0, its inverse and eigenvalues.

    A direct list call that holds a failing row raises that row's scan error.
    """
    mats = mats()
    reports = _in_lanes(classify_spectrum, [(m,) for m in mats])
    rows = [(m, r) for m, r in zip(mats, reports) if not isinstance(r, Exception)]
    n = len(rows[0][0])
    sheared = np.eye(n) + np.eye(n, k=1)
    rows.insert(1, (rows[0][0], classify_spectrum(sheared @ rows[0][0] @ np.linalg.inv(sheared))))  # another matrix's
    if n == 2:
        rows.insert(2, (rotation(0.25), _singular_report()))
    bases = _in_lanes(build_C0, rows)
    assert len(bases) == len(rows)
    kinds = []
    for (m, report), got in zip(rows, bases):
        want = _same_outcome(got, lambda: build_C0(m, report))
        kinds.append(type(got).__name__)
        if want is None:
            continue
        assert got.C0.tobytes() == want.C0.tobytes() and got.inverse.tobytes() == want.inverse.tobytes()
        assert got.normalization == want.normalization
    good = [(m, r) for (m, r), b in zip(rows, bases) if not isinstance(b, Exception)]
    again = build_C0([m for m, _ in good], [r for _, r in good])
    assert [b.C0.tobytes() for b in again] == [b.C0.tobytes() for b in bases if not isinstance(b, Exception)]
    assert "ResonanceError" in kinds and "NonDiagonalizableError" in kinds and "DiagonalizingBasis" in kinds
    _raises_a_row_error(lambda: build_C0([m for m, _ in rows], [r for _, r in rows]), bases)
