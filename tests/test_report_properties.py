"""Property tests of the report: the JSON writer, and the rows a scan writes.

Examples are derandomized and no example database is kept, so each run
checks the same cases.
"""

import io
import json
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dump_json_recursive

from charvar_kam.cli import dump_deterministic_json
from charvar_kam.pipelines import su2_brown_point, su3_main_point

# ------------------------------------------------------------------ writer


class _Yielded(list):
    """A list that the writer is given as a generator of its (converted) items."""


_LEAVES = st.one_of(
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2250738585072e-308]),
    st.none(),
    st.text(max_size=6),
    st.sampled_from(["é", " ", "日本", '"\\', "\x00\n"]),
    st.just(Fraction(1, 3)),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(_Yielded),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    )


_VALUES = st.recursive(_LEAVES, _containers, max_leaves=16)


def _as_written(obj):
    """``obj`` with each ``_Yielded`` list a generator, as a scan hands its rows to the writer."""
    if isinstance(obj, dict):
        return {k: _as_written(v) for k, v in obj.items()}
    if isinstance(obj, _Yielded):
        return (_as_written(v) for v in obj)
    if isinstance(obj, (list, tuple)):
        return type(obj)(_as_written(v) for v in obj)
    return obj


def _loaded(obj):
    """What ``json.loads`` should give back for ``obj``: lists for sequences, ``str`` for other objects."""
    if isinstance(obj, dict):
        return {k: _loaded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_loaded(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return str(obj)


def _same(got, want) -> bool:
    """Equality in which NaN matches NaN and a bool matches only a bool."""
    if isinstance(want, dict):
        return isinstance(got, dict) and list(got) == list(want) and all(_same(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_same, got, want))
    if isinstance(want, float) and math.isnan(want):
        return isinstance(got, float) and math.isnan(got)
    return got == want and isinstance(got, bool) == isinstance(want, bool)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_VALUES)
def test_writer_matches_the_recursive_writer_and_round_trips(obj):
    for indent in (0, 2):
        want, got = io.StringIO(), io.StringIO()
        dump_json_recursive(obj, want, indent)
        dump_deterministic_json(_as_written(obj), got, indent)
        assert got.getvalue() == want.getvalue()
    assert _same(json.loads(got.getvalue()), _loaded(obj))


# ------------------------------------------------------------------ rows

_S_K = Fraction("0.2387717921882905")

_S = st.one_of(
    st.fractions(max_denominator=10**8),
    st.builds(
        lambda sign, mantissa, exponent: Fraction(sign * math.ldexp(mantissa, exponent)),
        st.sampled_from([1, -1]),
        st.floats(0.5, 1, exclude_max=True),
        st.integers(-1075, 1024),
    ),
    st.builds(
        lambda center, sign, exponent: center + sign * Fraction(10.0**exponent),
        st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(-1, 2), _S_K]),
        st.sampled_from([1, -1]),
        st.floats(-15, -1),
    ),
)


def _floats(obj):
    if isinstance(obj, float):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _floats(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _floats(v)


def _report_text(row) -> str:
    buf = io.StringIO()
    dump_deterministic_json(row, buf)
    return buf.getvalue()


def _check_row(point, s):
    row = point(s)
    if "error" not in row:
        assert all(math.isfinite(x) for x in _floats(row)), row
    assert _report_text(point(s)) == _report_text(row)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_S)
def test_su2_row_never_raises_is_finite_and_repeats(s):
    _check_row(su2_brown_point, s)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_S)
def test_su3_row_never_raises_is_finite_and_repeats(s):
    _check_row(su3_main_point, s)
