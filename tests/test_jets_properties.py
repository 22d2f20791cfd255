"""Property tests of jet evaluation, powers, composition and coefficient reads.

Random exact jets have ``int`` and ``Fraction`` coefficients and points have
``Fraction`` coordinates, so every check is an exact equality.  The lane
coefficient type is checked against Python's own float and complex
arithmetic, bit for bit.  Random float jets, with float and complex
coefficients, check the kernels' products, compositions, substitutions and
square roots against the reference loops of ``oracles``, item for item and
bit for bit.  Examples are derandomized and no example database is kept, so
each run checks the same cases.
"""

import cmath
import functools
import math
import operator
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charvar_kam.jets import Jet, JetVector, Lanes, LanesDisagree, _isfinite, _sqrt, jet_sqrt, stack_lanes, unstack_lanes

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


# ------------------------------------------------------------------ lanes

_LANE_FLOATS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1.7976931348623157e308]),
)
_LANE_COMPLEX = st.builds(complex, _LANE_FLOATS, _LANE_FLOATS)


def _bits(x) -> tuple:
    """The bits of a float or complex; any NaN reads as one value, as the report prints every NaN alike."""
    parts = (x.real, x.imag) if isinstance(x, complex) else (x,)
    return (type(x),) + tuple("nan" if v != v else struct.pack("<d", v) for v in parts)


@st.composite
def _lanes_and_operand(draw):
    """Lane values of one kind, and an operand: a Python float, complex or int 0, or lanes of either kind."""
    n = draw(st.integers(2, 5))
    values = draw(st.lists(draw(st.sampled_from([_LANE_FLOATS, _LANE_COMPLEX])), min_size=n, max_size=n))
    lanes_of = st.sampled_from([_LANE_FLOATS, _LANE_COMPLEX]).flatmap(lambda k: st.lists(k, min_size=n, max_size=n))
    operand = draw(st.one_of(_LANE_FLOATS, _LANE_COMPLEX, st.just(0), lanes_of))
    return values, operand


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_lanes_and_operand())
def test_lane_arithmetic_is_pythons_lane_by_lane(case):
    values, operand = case
    lanes = Lanes.of(values)
    if isinstance(operand, list):
        other, others = Lanes.of(operand), operand
    else:
        other, others = operand, [operand] * len(values)
    with np.errstate(all="ignore"):  # Python floats overflow without a warning
        for op in (operator.add, operator.sub, operator.mul):
            got = op(lanes, other).values()
            assert list(map(_bits, got)) == [_bits(op(v, o)) for v, o in zip(values, others)], op
            got = op(other, lanes).values()
            assert list(map(_bits, got)) == [_bits(op(o, v)) for v, o in zip(values, others)], op
        assert list(map(_bits, (-lanes).values())) == [_bits(-v) for v in values]


_NEAR_ZERO = st.sampled_from([0.0, -0.0, 5e-324, -1.5, complex(0.0, -0.0), complex(-0.0, 5e-324), complex(2.0, 0.0)])


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(_NEAR_ZERO, min_size=2, max_size=6))
def test_lane_zero_tests_are_pythons_or_raise_with_the_mask(values):
    """``== 0`` raises at once when the lanes disagree.  A disagreeing zero test is True; the value then
    raises on its next use, and a jet that stores it loses the key in the lanes where it is zero."""
    if len(set(map(type, values))) > 1:
        values = [complex(v) for v in values]  # one kind per lanes
    nonzero, zero = [bool(v) for v in values], [v == 0 for v in values]
    if len(set(zero)) == 1:
        assert (Lanes.of(values) == 0) is zero[0]
    else:
        with pytest.raises(LanesDisagree) as caught:
            Lanes.of(values) == 0
        assert caught.value.mask.tolist() == zero
    lanes = Lanes.of(values)
    stored = bool(lanes)
    assert stored is any(nonzero)
    jet = Jet._raw(1, 1, {1: lanes} if stored else {})
    assert [j._coded for j in unstack_lanes(jet, len(values))] == [{1: v} if v else {} for v in values]
    if len(set(nonzero)) > 1:
        for use in (bool, operator.neg, lambda x: x + 0, lambda x: 1.0 * x):
            with pytest.raises(LanesDisagree) as caught:
                use(lanes)
            assert caught.value.mask.tolist() == nonzero


def _per_lane(held, lanes_test):
    """``lanes_test()`` is the lanes' answer to a test Python answers ``held`` lane by lane: a bool when every lane
    agrees, else LanesDisagree with the lanes where it holds."""
    if len(set(held)) == 1:
        assert lanes_test() is held[0]
    else:
        with pytest.raises(LanesDisagree) as caught:
            lanes_test()
        assert caught.value.mask.tolist() == held


_REAL_LANES = st.lists(_LANE_FLOATS, min_size=2, max_size=5)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_REAL_LANES, st.one_of(_LANE_FLOATS, st.integers(-3, 3)))
def test_lane_order_abs_and_division_are_pythons_lane_by_lane(values, x):
    lanes = Lanes.of(values)
    _per_lane([v < x for v in values], lambda: lanes < x)
    _per_lane([v <= x for v in values], lambda: lanes <= x)
    assert list(map(_bits, abs(lanes).values())) == [_bits(abs(v)) for v in values]
    if 0.0 in values:
        with pytest.raises(ZeroDivisionError):
            x / lanes
    else:
        with np.errstate(all="ignore"):  # Python floats overflow without a warning
            got = (x / lanes).values()
        assert list(map(_bits, got)) == [_bits(x / v) for v in values]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(st.one_of(_LANE_FLOATS, st.sampled_from([math.inf, -math.inf, math.nan])), min_size=2, max_size=5))
def test_lane_sqrt_and_isfinite_are_maths_lane_by_lane(values):
    _per_lane([math.isfinite(v) for v in values], lambda: _isfinite(Lanes.of(values)))
    z = [complex(v, 1.0) for v in values]
    _per_lane([cmath.isfinite(v) for v in z], lambda: _isfinite(Lanes.of(z)))
    roots = [abs(v) for v in values if v == v]
    if len(roots) > 1:
        assert list(map(_bits, _sqrt(Lanes.of(roots)).values())) == [_bits(math.sqrt(v)) for v in roots]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(st.one_of(_LANE_FLOATS, _LANE_COMPLEX, st.integers(-3, 3)), min_size=1, max_size=5))
def test_lanes_of_mixed_values_hold_one_kind_or_mark_the_complex_ones(values):
    """A complex value shares lanes with complex values only; ints and floats share float lanes."""
    if len(values) == 1:
        assert Lanes.of(values) is values[0]
        return
    is_complex = [type(v) is complex for v in values]
    if len(set(is_complex)) > 1:
        with pytest.raises(LanesDisagree) as caught:
            Lanes.of(values)
        assert caught.value.mask.tolist() == is_complex
    else:
        kind = complex if is_complex[0] else float
        assert list(map(_bits, Lanes.of(values).values())) == [_bits(kind(v)) for v in values]


@st.composite
def _jets_with_some_keys(draw):
    """Float jets of one shape, whose key lists (in storage order) may differ."""
    nv, td = draw(_SHAPES)
    monomials = st.sampled_from(_exponents(nv, td))
    n = draw(st.integers(1, 4))
    base = draw(st.lists(monomials, unique=True, max_size=5))
    jets = []
    for _ in range(n):
        keys = draw(st.one_of(st.just(base), st.permutations(base), st.lists(monomials, unique=True, max_size=5)))
        coeffs = draw(st.lists(st.floats(allow_nan=False).filter(bool), min_size=len(keys), max_size=len(keys)))
        jets.append(Jet(nv, td, dict(zip(keys, coeffs))))
    return jets


@_SETTINGS
@given(_jets_with_some_keys())
def test_stack_lanes_takes_jets_with_the_first_ones_keys_or_marks_them(jets):
    if len(jets) == 1:
        assert stack_lanes(jets) is jets[0]
        return
    same = [list(j._coded) == list(jets[0]._coded) for j in jets]
    if not all(same):
        with pytest.raises(LanesDisagree) as caught:
            stack_lanes(jets)
        assert caught.value.mask.tolist() == same
        return
    rows = unstack_lanes(stack_lanes(jets), len(jets))
    assert [list(r._coded.items()) for r in rows] == [list(j._coded.items()) for j in jets]


# ------------------------------------------------------------------ jets, float

_FLOAT_COEFFS = st.floats(-4.0, 4.0)
_COMPLEX_COEFFS = st.builds(complex, _FLOAT_COEFFS, _FLOAT_COEFFS)


@st.composite
def _float_jets(draw, num_vars, trunc_degree, constant=None, min_terms=0, max_terms=10):
    """Jets of one shape with float or complex coefficients (one kind per jet, or both mixed).

    ``constant`` is a strategy for the constant term; ``st.just(0.0)`` gives zero-constant jets.
    The monomials are a prefix of a drawn order, so a dense jet costs one draw per coefficient.
    """
    monomials = [e for e in _exponents(num_vars, trunc_degree) if constant is None or any(e)]
    kind = draw(st.sampled_from([_FLOAT_COEFFS, _COMPLEX_COEFFS, st.one_of(_FLOAT_COEFFS, _COMPLEX_COEFFS)]))
    size = draw(st.integers(min(min_terms, len(monomials)), min(max_terms, len(monomials))))
    order = draw(st.permutations(monomials))
    coeffs = dict(zip(order[:size], draw(st.lists(kind, min_size=size, max_size=size))))
    if constant is not None:
        coeffs[(0,) * num_vars] = draw(constant)
    return Jet(num_vars, trunc_degree, coeffs)


def _bit_items(items) -> list:
    return [(e, _bits(c)) for e, c in items]


@st.composite
def _float_jet_pair(draw):
    nv, td = draw(_SHAPES)
    return draw(_float_jets(nv, td)), draw(_float_jets(nv, td))


@_SETTINGS
@given(_float_jet_pair())
def test_float_product_matches_the_pair_scan(pair):
    from oracles import mul_items

    a, b = pair
    assert _bit_items((a * b).coeffs.items()) == _bit_items(mul_items(a, b))


@st.composite
def _float_outer_and_inner(draw):
    """An outer jet of 2 or 3 variables and one dense zero-constant inner jet per variable, in a shape of their own.

    With outer monomials in two variables and inner products that sum three or more terms per
    key, the order of a monomial's factors shows in the bits.
    """
    m, td_outer = draw(st.tuples(st.integers(2, 3), st.integers(2, 4)))
    nv, td = draw(st.tuples(st.integers(2, 3), st.integers(3, 4)))
    inner = [draw(_float_jets(nv, td, st.just(0.0), min_terms=4, max_terms=16)) for _ in range(m)]
    return draw(_float_jets(m, td_outer, min_terms=3)), inner


@_SETTINGS
@given(_float_outer_and_inner())
def test_float_composition_matches_the_per_term_loop(case):
    from oracles import compose_items

    outer, inner = case
    assert _bit_items(outer.compose(inner).coeffs.items()) == _bit_items(compose_items(outer, inner))


@st.composite
def _float_substitution(draw):
    """A jet, one of its variables, a zero-constant replacement and a target for every other variable."""
    nv, td_source = draw(_SHAPES)
    nv_t, td = draw(_SHAPES)
    var = draw(st.integers(0, nv - 1))
    var_map = {i: draw(st.integers(0, nv_t - 1)) for i in range(nv) if i != var}
    return draw(_float_jets(nv, td_source)), var, draw(_float_jets(nv_t, td, st.just(0.0))), var_map


@_SETTINGS
@given(_float_substitution())
def test_float_substitution_matches_the_pair_scan(case):
    from oracles import substitute_variable_items

    jet, var, replacement, var_map = case
    got = jet.substitute_variable(var, replacement, var_map).coeffs.items()
    assert _bit_items(got) == _bit_items(substitute_variable_items(jet, var, replacement, var_map))


# degrees 3 to 6 and dense jets: a power's keys then sum three or more products, so the
# order of the factors shows in the bits
_SQRT_SHAPES = st.tuples(st.integers(1, 3), st.integers(3, 6))


@_SETTINGS
@given(_SQRT_SHAPES.flatmap(lambda shape: _float_jets(*shape, st.floats(0.125, 8.0), max_terms=24)))
def test_float_jet_sqrt_matches_the_whole_jet_steps(a):
    from oracles import jet_sqrt_steps

    assert _bit_items(jet_sqrt(a).coeffs.items()) == _bit_items(jet_sqrt_steps(a).coeffs.items())
