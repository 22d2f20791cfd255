"""Property tests of the report: the JSON writer, the rows a scan writes, and the ``--s`` grammar.

Examples are derandomized and no example database is kept, so each run
checks the same cases.
"""

import contextlib
import decimal
import io
import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import dump_json_recursive

from charvar_kam import cli
from charvar_kam.cli import dump_deterministic_json, parse_s_values
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


# ------------------------------------------------------------------ --s grammar

#: The least magnitude that ``float`` rounds past the largest double (half an ulp above it).
_DOUBLE_OVERFLOW = Fraction(2**1024 - 2**970)
_DECIMAL = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_RATIO = re.compile(r"([+-]?\d+)/(\d+)")


def _number(text, in_double_range=True):
    """The value of one number of an ``--s`` text, or None where the CLI must reject it."""
    text = text.strip()
    if sum(c.isdigit() for c in text) > cli.MAX_S_DIGITS:
        return None
    if _RATIO.fullmatch(text):
        num, den = map(int, text.split("/"))
        if not den:
            return None
        value = Fraction(num, den)
    elif _DECIMAL.fullmatch(text):
        exponent = text.lower().partition("e")[2]
        if exponent and abs(int(exponent)) > cli.MAX_S_DIGITS:
            return None  # rejected before its value is built
        value = Fraction(decimal.Decimal(text))
    else:
        return None
    if max(abs(value.numerator), value.denominator) >= 10**cli.MAX_S_DIGITS:
        return None
    return None if in_double_range and abs(value) >= _DOUBLE_OVERFLOW else value


def _s_values(text, cap):
    """The s values of an ``--s`` text with at most ``cap`` of them, or None where the CLI must reject it.

    A range's count and values are worked out in integers over one common denominator.
    """
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            return None
        start, stop, step = _number(parts[0]), _number(parts[1]), _number(parts[2], in_double_range=False)
        if None in (start, stop, step) or step <= 0:
            return None
        den = math.lcm(start.denominator, stop.denominator, step.denominator)
        a, b, d = (int(x * den) for x in (start, stop, step))
        count = (b - a) // d + 1 if b >= a else 0
        return None if count > cap else [Fraction(a + k * d, den) for k in range(count)]
    items = [p for p in text.split(",") if p.strip()]
    values = [_number(p) for p in items]
    return None if len(items) > cap or None in values else values


_SIGN = st.sampled_from(["", "-", "+"])
_DIGITS = st.text("0123456789", max_size=3)
_ODD_NUMBERS = [
    "", ".", "-", "abc", "inf", "-inf", "nan", "0x10", "1e", "1..2", "1/2/3", "1/0", "1/-2",
    "1e400", "-1e400", "1.7976931348623158e308", "-1.7976931348623159e308", "0.5", "1/2",
]


@st.composite
def _number_texts(draw):
    """One number as ``--s`` may spell it, well formed or not, maybe with spaces around it."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        text = draw(_SIGN) + draw(_DIGITS) + draw(st.sampled_from(["", "."])) + draw(_DIGITS)
        if draw(st.booleans()):
            text += draw(st.sampled_from("eE")) + draw(_SIGN) + draw(st.text("0123456789", min_size=1, max_size=7))
    elif kind == 1:
        text = draw(_SIGN) + draw(_DIGITS) + "/" + draw(_DIGITS)
    else:
        text = draw(st.sampled_from(_ODD_NUMBERS))
    return draw(st.sampled_from(["", " "])) + text + draw(st.sampled_from(["", " "]))


def _decimal(numerator, places):
    return str(decimal.Decimal(numerator).scaleb(-places))


@st.composite
def _caps_and_s_texts(draw):
    """A cap on the count of s values and an ``--s`` text: ranges and lists, some of about ``cap`` values.

    Beside small caps the real one, ``cli.MAX_S_VALUES``, is drawn only with ranges just over it: a scan of
    that many values is never built here (the explicit examples build one grid of exactly the cap).
    """
    cap = draw(st.integers(0, 44))
    cap = cli.MAX_S_VALUES if cap > 40 else cap
    kind = 2 if cap == cli.MAX_S_VALUES else draw(st.integers(0, 3))
    if kind == 0:
        parts = draw(st.lists(_number_texts(), min_size=3, max_size=3) | st.lists(_number_texts(), min_size=2, max_size=4))
        return cap, ":".join(parts)
    if kind == 1:
        return cap, ",".join(draw(st.lists(_number_texts() | st.sampled_from(["", " "]), max_size=5)))
    n = draw(st.integers(cap + 1, cap + 2) if cap == cli.MAX_S_VALUES else st.integers(max(0, cap - 2), cap + 2))
    if kind == 3:
        return cap, ",".join(draw(st.lists(st.sampled_from(["0.1", "-2", "1/3", " 7e-3 ", "-.25"]), min_size=n, max_size=n)))
    # a decimal range of n values, its stop up to a step short of the next one
    places, step = draw(st.integers(0, 5)), draw(st.integers(1, 20))
    start = draw(st.integers(-(10**4), 10**4))
    stop = start + (n - 1) * step + draw(st.integers(0, step - 1))
    return cap, f"{_decimal(start, places)}:{_decimal(stop, places)}:{_decimal(step, places)}"


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_caps_and_s_texts())
@example((cli.MAX_S_VALUES, "-0.5:0.49999:0.00001"))
@example((cli.MAX_S_VALUES, "0:1:0.00001"))
@example((cli.MAX_S_VALUES, "-1:0.5:0.1"))
@example((3, "0.1, 1/2"))
@example((3, "0:1.8e308:1e308"))
@example((3, "-1.8e308:0:1e308"))
@example((3, "1e-1999"))
@example((3, "1e-2000"))
@example((3, "1e-10000000"))
@example((3, "0:1:1e-100000"))
def test_s_text_parses_to_the_independent_values_or_exits_2_before_any_row(case):
    """An ``--s`` text either parses to the values an independent parser gives, or the CLI exits 2 with a
    config error before any row runs; so does a text that names the pole s = 1/2."""
    cap, text = case

    def no_row(*args):
        raise AssertionError("a row ran")

    expected = _s_values(text, cap)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "MAX_S_VALUES", cap)
        if expected is not None:
            assert parse_s_values(text) == expected
        else:
            with pytest.raises((ValueError, ZeroDivisionError)):
                parse_s_values(text)
        if expected is None or Fraction(1, 2) in expected:
            mp.setattr(cli, "su2_brown_point", no_row)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["--pipeline", "su2-brown", f"--s={text}"])
            assert (code, out.getvalue()) == (2, "")
            assert err.getvalue().startswith("config error: ") and err.getvalue().count("\n") == 1
