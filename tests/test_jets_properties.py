"""Property tests of jet evaluation, powers, composition and coefficient reads, in exact arithmetic.

Random jets have ``int`` and ``Fraction`` coefficients and points have
``Fraction`` coordinates, so every check is an exact equality.  Examples are
derandomized and no example database is kept, so each run checks the same
cases.
"""

import functools
import math
import operator
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from charvar_kam.jets import Jet, JetVector

_SETTINGS = settings(derandomize=True, database=None, max_examples=60, deadline=None)

_COEFFS = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
)
_POINT_COORDS = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 5))


def _exponents(num_vars, max_total):
    """Every exponent tuple of ``num_vars`` entries with total degree at most ``max_total``."""
    if num_vars == 0:
        return [()]
    return [(head,) + tail for head in range(max_total + 1) for tail in _exponents(num_vars - 1, max_total - head)]


def _jets(num_vars, trunc_degree, max_degree=None):
    """Jets of one shape whose terms have degree at most ``max_degree`` (default: the truncation degree)."""
    top = trunc_degree if max_degree is None else max_degree
    coeffs = st.dictionaries(st.sampled_from(_exponents(num_vars, top)), _COEFFS, max_size=8)
    return coeffs.map(lambda c: Jet(num_vars, trunc_degree, c))


def _points(num_vars):
    return st.lists(_POINT_COORDS, min_size=num_vars, max_size=num_vars)


_SHAPES = st.tuples(st.integers(1, 3), st.integers(1, 4))


@st.composite
def _jet_pair_and_point(draw):
    nv, td = draw(_SHAPES)
    return draw(_jets(nv, td)), draw(_jets(nv, td)), draw(_points(nv))


@_SETTINGS
@given(_jet_pair_and_point())
def test_eval_of_a_sum_is_the_sum_of_the_evals(case):
    a, b, point = case
    assert (a + b).eval(point) == a.eval(point) + b.eval(point)


@st.composite
def _fitting_pair_and_point(draw):
    """Two jets whose degrees add up to at most the truncation degree, so their product loses no term."""
    nv, td = draw(_SHAPES)
    da = draw(st.integers(0, td))
    return draw(_jets(nv, td, da)), draw(_jets(nv, td, td - da)), draw(_points(nv))


@_SETTINGS
@given(_fitting_pair_and_point())
def test_eval_of_a_product_that_fits_is_the_product_of_the_evals(case):
    a, b, point = case
    assert (a * b).eval(point) == a.eval(point) * b.eval(point)


@_SETTINGS
@given(_jet_pair_and_point())
def test_eval_is_the_sum_of_the_terms(case):
    a, _, point = case
    naive = sum((c * math.prod(v**e for v, e in zip(point, exps)) for exps, c in a.coeffs.items()), 0)
    assert a.eval(point) == naive


@_SETTINGS
@given(_jet_pair_and_point(), st.integers(0, 5))
def test_power_is_the_repeated_product(case, n):
    a = case[0]
    one = Jet.constant(a.num_vars, a.trunc_degree, 1)
    product = functools.reduce(operator.mul, [a] * n, one)
    assert list((a**n).coeffs.items()) == list(product.coeffs.items())


@st.composite
def _two_maps_and_point(draw):
    """Two polynomial self-maps of one space, each of degree at most 2, and a point."""
    nv, td_inner, td_outer = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    inner = JetVector([draw(_jets(nv, td_inner)) for _ in range(nv)])
    outer = JetVector([draw(_jets(nv, td_outer)) for _ in range(nv)])
    return inner, outer, draw(_points(nv))


@_SETTINGS
@given(_two_maps_and_point())
def test_then_evaluates_as_the_composite(case):
    inner, outer, point = case
    assert inner.then(outer).eval(point) == outer.eval(inner.eval(point))


@_SETTINGS
@given(_jet_pair_and_point())
def test_a_jet_rebuilt_from_its_coefficients_is_equal(case):
    a = case[0]
    assert Jet(a.num_vars, a.trunc_degree, a.coeffs) == a
