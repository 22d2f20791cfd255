import gc
import json
import random
from fractions import Fraction

import pytest
import sympy

from charvar_kam.errors import ConstantTermError, ShapeMismatchError
from charvar_kam.jets import (
    Jet,
    JetVector,
    _compose,
    _monomials,
    _fitting,
    _mul,
    jet_sqrt,
    jet_variables,
    stack_lanes,
)
from oracles import QQi


# ---------------------------------------------------------------- oracles


def random_jet(rng, num_vars, trunc_degree, *, exact=False, density=0.5):
    coeffs = {}
    for exps in _all_exponents(num_vars, trunc_degree):
        if rng.random() < density:
            if exact:
                coeffs[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            else:
                coeffs[exps] = rng.uniform(-2, 2)
    return Jet(num_vars, trunc_degree, coeffs)


def _all_exponents(num_vars, max_total):
    if num_vars == 0:
        yield ()
        return
    for head in range(max_total + 1):
        for tail in _all_exponents(num_vars - 1, max_total - head):
            yield (head,) + tail


def naive_product(a, b):
    """Untruncated convolution; the oracle for Jet.__mul__."""
    out = {}
    for ea, ca in a.coeffs.items():
        for eb, cb in b.coeffs.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def poly_eval(coeffs, point):
    """Plain sum-of-monomials evaluation; the oracle for Jet.eval."""
    total = 0
    for e, c in coeffs.items():
        term = c
        for x, k in zip(point, e):
            term *= x**k
        total += term
    return total


def to_sympy(jet, symbols):
    expr = 0
    for e, c in jet.coeffs.items():
        term = sympy.Rational(c) if isinstance(c, (int, Fraction)) else c
        for s, k in zip(symbols, e):
            term *= s**k
        expr += term
    return sympy.expand(expr)


# ---------------------------------------------------------------- add


def test_add_inverse_gives_zero():
    x, _ = jet_variables(2, 3)
    assert (x + (-x)).is_zero()


def test_add_disjoint_supports():
    x, = jet_variables(1, 3)
    got = (1 + x) + x * x
    assert got == Jet(1, 3, {(0,): 1, (1,): 1, (2,): 1})


def test_add_matches_pointwise_eval():
    rng = random.Random(7)
    for _ in range(10):
        a = random_jet(rng, 3, 3)
        b = random_jet(rng, 3, 3)
        s = a + b
        for _ in range(10):
            v = [rng.uniform(-1, 1) for _ in range(3)]
            assert abs(s.eval(v) - (a.eval(v) + b.eval(v))) < 1e-12


def test_add_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        Jet.zero(2, 3) + Jet.zero(3, 3)
    with pytest.raises(ShapeMismatchError):
        Jet.zero(2, 3) + Jet.zero(2, 4)


# ---------------------------------------------------------------- mul


def test_mul_monomials():
    x, y = jet_variables(2, 2)
    assert x * y == Jet(2, 2, {(1, 1): 1})


def test_mul_truncates():
    x, = jet_variables(1, 3)
    x2 = x * x
    assert (x2 * x2).is_zero()


def test_mul_matches_truncated_convolution():
    rng = random.Random(11)
    for _ in range(25):
        a = random_jet(rng, 3, 3, exact=True)
        b = random_jet(rng, 3, 3, exact=True)
        got = a * b
        full = naive_product(a, b)
        expected = {e: c for e, c in full.items() if sum(e) <= 3}
        assert got.coeffs == expected


_COEFF_KINDS = {
    "float": lambda rng: rng.choice((-1.5, -1.0, 0.5, 1.0, 2.0)) * rng.uniform(0.5, 2),
    "complex": lambda rng: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
    "Fraction": lambda rng: Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
    # the exact complex coefficients the P and Q reference expansion runs the kernels on
    "QQi": lambda rng: QQi(Fraction(rng.randint(-1, 1), 2), rng.randint(-1, 1)),
}


def random_typed_jet(rng, kind, num_vars, trunc_degree, density, zero_constant=False):
    draw = _COEFF_KINDS[kind]
    coeffs = {}
    for exps in _all_exponents(num_vars, trunc_degree):
        if (zero_constant and not any(exps)) or rng.random() >= density:
            continue
        coeffs[exps] = draw(rng)
    return Jet(num_vars, trunc_degree, coeffs)


_SHAPES = [(2, 3, 0.9), (6, 3, 0.5), (6, 5, 0.15), (7, 5, 0.1)]


@pytest.mark.parametrize("kind", sorted(_COEFF_KINDS))
@pytest.mark.parametrize("num_vars,trunc_degree,density", _SHAPES)
def test_mul_items_and_order_match_full_pair_scan(kind, num_vars, trunc_degree, density):
    """Values and insertion order equal those of the loop over every pair."""
    from oracles import mul_items

    rng = random.Random(f"mul {kind} {num_vars}x{trunc_degree}")
    for _ in range(3):
        a = random_typed_jet(rng, kind, num_vars, trunc_degree, density)
        b = random_typed_jet(rng, kind, num_vars, trunc_degree, density)
        assert list((a * b)._coeffs.items()) == mul_items(a, b)


@pytest.mark.parametrize("kind", sorted(_COEFF_KINDS))
@pytest.mark.parametrize("num_vars,trunc_degree,density", _SHAPES)
def test_substitute_variable_items_and_order_match_full_pair_scan(kind, num_vars, trunc_degree, density):
    from oracles import substitute_variable_items

    rng = random.Random(f"substitute {kind} {num_vars}x{trunc_degree}")
    var = num_vars // 2
    var_map = {i: i - (i > var) for i in range(num_vars) if i != var}
    for _ in range(3):
        jet = random_typed_jet(rng, kind, num_vars, trunc_degree, density)
        repl = random_typed_jet(rng, kind, num_vars - 1, trunc_degree, 2 * density, zero_constant=True)
        got = jet.substitute_variable(var, repl, var_map)
        assert list(got._coeffs.items()) == substitute_variable_items(jet, var, repl, var_map)


def test_mul_and_substitute_keep_order_when_partial_sums_cancel():
    """A key whose running sum hits zero is dropped and re-enters at the end."""
    from oracles import mul_items, substitute_variable_items

    a = Jet(2, 3, {(1, 0): 1, (0, 1): 1, (1, 1): 1, (2, 0): 1})
    b = Jet(2, 3, {(1, 0): 1, (0, 1): 1, (1, 1): 1, (2, 0): -1})
    # x^2 y gets 1 (x * xy), then -1 (y * x^2): zero, dropped; then 1 and 1
    got = list((a * b)._coeffs.items())
    assert got == mul_items(a, b)
    keys = [e for e, _ in got]
    assert keys.index((2, 1)) > keys.index((1, 2))
    assert dict(got)[(2, 1)] == 2
    # x y + y z + x z with y -> x - z: x z gets -1, then 1 (dropped), then 1
    outer = Jet(3, 3, {(1, 1, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1})
    repl = Jet(2, 3, {(1, 0): 1, (0, 1): -1})
    sub = list(outer.substitute_variable(1, repl, {0: 0, 2: 1})._coeffs.items())
    assert sub == substitute_variable_items(outer, 1, repl, {0: 0, 2: 1})
    assert sub == [((2, 0), 1), ((0, 2), -1), ((1, 1), 1)]


def sparse_typed_jet(rng, kind, num_vars, trunc_degree, terms, zero_constant=False):
    """A jet with about ``terms`` random monomials, drawn without listing the shape."""
    draw = _COEFF_KINDS[kind]
    coeffs = {}
    while len(coeffs) < terms:
        exps = [0] * num_vars
        for _ in range(rng.randint(1 if zero_constant else 0, trunc_degree)):
            exps[rng.randrange(num_vars)] += 1
        coeffs[tuple(exps)] = draw(rng)
    return Jet(num_vars, trunc_degree, coeffs)


def _plain_keys(jet):
    return all(type(k) is tuple and all(type(e) is int for e in k) for k in jet._coeffs)


@pytest.mark.parametrize("kind", ["float", "Fraction"])
def test_kernels_match_oracles_where_codes_pass_30_bits(kind):
    """9 variables at degree 12: codes reach 12 * 13**8 > 2**30; every key is a plain int tuple."""
    from oracles import compose_items, mul_items, substitute_variable_items

    assert 12 * 13**8 > 2**30
    rng = random.Random(f"wide codes {kind}")
    for _ in range(2):
        a = sparse_typed_jet(rng, kind, 9, 12, 40)
        b = sparse_typed_jet(rng, kind, 9, 12, 40)
        prod = a * b
        assert list(prod._coeffs.items()) == mul_items(a, b)
        assert max(map(sum, prod._coeffs)) == 12 and _plain_keys(prod)
        outer = sparse_typed_jet(rng, kind, 10, 12, 30)
        repl = sparse_typed_jet(rng, kind, 9, 12, 6, zero_constant=True)
        var_map = {i: 8 - i + (i > 4) for i in range(10) if i != 4}  # permuted
        sub = outer.substitute_variable(4, repl, var_map)
        assert list(sub._coeffs.items()) == substitute_variable_items(outer, 4, repl, var_map)
        assert _plain_keys(sub)
        outer9 = JetVector(sparse_typed_jet(rng, kind, 9, 12, 4) for _ in range(3))
        inner = [sparse_typed_jet(rng, kind, 9, 12, 2, zero_constant=True) for _ in range(9)]
        got = outer9.compose(inner)
        assert [list(c._coeffs.items()) for c in got] == [compose_items(c, inner) for c in outer9]
        assert all(_plain_keys(c) for c in got)


@pytest.mark.parametrize("kind", sorted(_COEFF_KINDS))
def test_kernels_match_oracles_in_one_variable(kind):
    from oracles import compose_items, mul_items, substitute_variable_items

    rng = random.Random(f"one variable {kind}")
    for _ in range(3):
        a = random_typed_jet(rng, kind, 1, 8, 0.8)
        b = random_typed_jet(rng, kind, 1, 8, 0.8)
        assert list((a * b)._coeffs.items()) == mul_items(a, b)
        inner = [random_typed_jet(rng, kind, 1, 8, 0.8, zero_constant=True)]
        assert list(a.compose(inner)._coeffs.items()) == compose_items(a, inner)
        # both source variables land on the one target variable
        outer = random_typed_jet(rng, kind, 2, 8, 0.5)
        sub = outer.substitute_variable(0, inner[0], {1: 0})
        assert list(sub._coeffs.items()) == substitute_variable_items(outer, 0, inner[0], {1: 0})
        assert all(_plain_keys(j) for j in (a * b, a.compose(inner), sub))


@pytest.mark.parametrize("kind", ["float", "complex", "Fraction"])
def test_substitute_variable_lower_degree_and_permuted_var_map(kind):
    """A replacement truncated below the outer jet sets the result's degree; var_map may permute."""
    from oracles import substitute_variable_items

    rng = random.Random(f"substitute lower {kind}")
    for _ in range(3):
        outer = random_typed_jet(rng, kind, 7, 5, 0.2)
        repl = random_typed_jet(rng, kind, 6, 3, 0.4, zero_constant=True)
        var_map = {0: 5, 1: 3, 2: 0, 4: 1, 5: 4, 6: 2}
        got = outer.substitute_variable(3, repl, var_map)
        assert (got.num_vars, got.trunc_degree) == (6, 3)
        assert list(got._coeffs.items()) == substitute_variable_items(outer, 3, repl, var_map)
        assert _plain_keys(got)
        linear = random_typed_jet(rng, kind, 6, 5, 0.9).homogeneous_part(1)
        got = outer.substitute_variable(3, linear, var_map)
        assert list(got._coeffs.items()) == substitute_variable_items(outer, 3, linear, var_map)


def test_substitute_variable_rejects_var_map_targets_outside_the_target_space():
    jet = Jet(2, 3, {(1, 1): 1.0, (0, 2): 2.0})
    repl = Jet(2, 3, {(1, 0): 1.0})
    for bad in ({1: -1}, {1: 2}, {1: 1.0}):
        with pytest.raises(ShapeMismatchError, match="var_map sends source variable 1"):
            jet.substitute_variable(0, repl, bad)
        with pytest.raises(ShapeMismatchError, match="var_map sends source variable 1"):
            JetVector([jet, jet]).substitute_variable(0, repl, bad)
    # two sources may share a target: x y + 2 y^2 with x -> x, y -> x
    assert jet.substitute_variable(0, repl, {1: 0}) == Jet(2, 3, {(2, 0): 3.0})


def _monomial(num_vars, *variables):
    """Exponent tuple of the product of ``variables`` in ``num_vars`` variables."""
    return tuple(sum(v == i for v in variables) for i in range(num_vars))


def _cancelling_component(num_vars, trunc_degree, var, var_map, one):
    """x_a x_var + x_var x_b + x_a x_b and a replacement x_var -> x_A - x_B.

    The key x_A x_B gets -1, then +1 (its sum cancels and it is dropped),
    then +1 again, so it re-enters last.
    """
    n, m = num_vars, num_vars - 1
    a, b = (i for i in (0, n - 1) if i != var)
    ta, tb = var_map[a], var_map[b]
    comp = Jet(n, trunc_degree, {_monomial(n, a, var): one, _monomial(n, var, b): one, _monomial(n, a, b): one})
    repl = Jet(m, trunc_degree, {_monomial(m, ta): one, _monomial(m, tb): -one})
    return comp, repl, [(_monomial(m, ta, ta), one), (_monomial(m, tb, tb), -one), (_monomial(m, ta, tb), one)]


_MAP_8_TO_7 = {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 7: 6}
_MAP_7_TO_6 = {0: 0, 1: 1, 2: 2, 3: 3, 5: 4, 6: 5}


@pytest.mark.parametrize("kind", ["float", "complex", "Fraction"])
@pytest.mark.parametrize(
    "num_vars,trunc_degree,var,var_map,density",
    [(8, 3, 6, _MAP_8_TO_7, 0.3), (8, 5, 6, _MAP_8_TO_7, 0.05), (7, 5, 4, _MAP_7_TO_6, 0.08)],
    ids=["8x3-7x3", "8x5-7x5", "7x5-6x5"],
)
def test_jetvector_substitute_matches_per_component_oracle(kind, num_vars, trunc_degree, var, var_map, density):
    """Shared powers give each component the items, in order, of its own substitution."""
    from oracles import substitute_variable_items

    rng = random.Random(f"vector substitute {kind} {num_vars}x{trunc_degree}")
    one = {"float": 1.0, "complex": 1.0 + 0.0j, "Fraction": Fraction(1)}[kind]
    cancel, linear, cancel_items = _cancelling_component(num_vars, trunc_degree, var, var_map, one)
    random_repl = random_typed_jet(rng, kind, num_vars - 1, trunc_degree, 2 * density, zero_constant=True)
    for repl in (random_repl, linear):
        comps = [random_typed_jet(rng, kind, num_vars, trunc_degree, density) for _ in range(3)]
        comps.insert(1, cancel)
        got = JetVector(comps).substitute_variable(var, repl, var_map)
        assert [list(c._coeffs.items()) for c in got] == [
            substitute_variable_items(c, var, repl, var_map) for c in comps
        ]
    assert list(got[1]._coeffs.items()) == cancel_items


def test_code_tables_hold_only_monomials_of_their_shape():
    """After one degree-5 SU(3) row each shape's table is within C(nv + td, td) entries."""
    import math

    from charvar_kam import charts, cli, jets

    charts._chart_cache.cache_clear()
    cli.run(cli.RunConfig(pipeline="su3-main", s_values=[Fraction("0.2411")], trunc_degree=5))
    tables = jets._MONOMIAL_TABLES
    assert {(7, 5), (6, 5), (6, 3)} <= set(tables)
    for (nv, td), table in tables.items():
        assert len(table.codes) == len(table.exps) <= math.comb(nv + td, td)
        for exps, code in table.codes.items():
            assert table.exps[code] == exps and code // table.top == sum(exps) <= td


def test_kernels_reject_a_key_outside_the_shape():
    """A key that would carry into the next digit raises and is not recorded.

    Jets store codes, so such a key can only come in through the constructor
    or a coefficient query: the constructor raises, the query reads 0.
    """
    from charvar_kam import jets

    with pytest.raises(ShapeMismatchError):
        Jet(2, 2, {(3, 0): 1.0}) * Jet.variable(1, 2, 2, 1.0)
    with pytest.raises(ShapeMismatchError):
        Jet(2, 2, {(3, -1): 1.0})
    x = Jet.variable(0, 2, 2, 1.0)
    assert x.coefficient((3, 0)) == x.coefficient((3, -1)) == 0 and x.coefficient((1, 0)) == 1.0
    table = jets._monomials(2, 2)
    assert (3, 0) not in table.codes and (3, 0) not in table.exps.values()
    assert (3, -1) not in table.codes and (3, -1) not in table.exps.values()


def test_decoding_a_code_outside_the_shape_leaves_the_table_intact():
    """decode raises on a code that is no monomial of the shape, before recording it.

    2 * top has exponent digits 0 and degree digit 2; recorded, it would be
    the code of the constant, and every later jet of the shape would lose
    its constant term.
    """
    table = _monomials(6, 3)
    # degree digit 2 over exponents 0; a negative code; digits summing to 6 > td with degree digit 6
    for code in (8192, -1, table.top, 3 + 3 * table.base + 6 * table.top):
        with pytest.raises(ShapeMismatchError):
            table.decode(code)
        assert code not in table.exps
    assert table.encode((0,) * 6) == 0
    assert Jet.constant(6, 3, 1.0).coefficient((0,) * 6) == 1.0
    assert table.decode(table.weights[2] + table.weights[5]) == (0, 0, 1, 0, 0, 1)


# ---------------------------------------------------------------- compose


def test_compose_square_of_sum():
    x, y = jet_variables(2, 3)
    outer = Jet(2, 3, {(2, 0): 1})  # x^2
    got = outer.compose([x + y, y])
    assert got == Jet(2, 3, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_compose_identity():
    rng = random.Random(3)
    a = random_jet(rng, 3, 3, exact=True)
    assert a.compose(jet_variables(3, 3), allow_constant=True) == a


def test_compose_matches_sympy_expansion():
    rng = random.Random(5)
    xs = sympy.symbols("s0 s1")
    for _ in range(8):
        outer = random_jet(rng, 2, 3, exact=True)
        inner = [random_jet(rng, 2, 3, exact=True) for _ in range(2)]
        inner = [j - j.constant_term() for j in inner]
        got = outer.compose(inner)
        full = to_sympy(outer, xs).subs(
            [(s, to_sympy(j, xs)) for s, j in zip(xs, inner)], simultaneous=True
        )
        truncated = 0
        for term in sympy.Poly(sympy.expand(full), *xs).terms():
            if sum(term[0]) <= 3:
                truncated += term[1] * xs[0] ** term[0][0] * xs[1] ** term[0][1]
        assert sympy.expand(to_sympy(got, xs) - truncated) == 0


def test_compose_rejects_constant_terms():
    x, y = jet_variables(2, 3)
    with pytest.raises(ConstantTermError):
        x.compose([x + 1, y])
    # identical call is authorized in recentering mode
    x.compose([x + 1, y], allow_constant=True)


def test_compose_component_count():
    x, y = jet_variables(2, 3)
    with pytest.raises(ShapeMismatchError):
        x.compose([y])


_COMPOSE_CASES = [
    # (kind, num_vars, trunc_degree, outer density, inner density, allow_constant)
    ("float", 2, 3, 0.9, 0.9, False),
    ("complex", 2, 3, 0.9, 0.9, False),
    ("float", 6, 3, 0.5, 0.5, False),
    ("complex", 6, 3, 0.5, 0.5, False),
    ("float", 6, 5, 0.15, 0.2, False),
    ("complex", 6, 5, 0.15, 0.2, False),
    ("Fraction", 8, 3, 0.1, 0.2, True),
    ("QQi", 8, 3, 0.1, 0.2, True),
]


@pytest.mark.parametrize("kind,num_vars,trunc_degree,density,inner_density,allow_constant", _COMPOSE_CASES)
def test_compose_items_and_order_match_per_component_loop(
    kind, num_vars, trunc_degree, density, inner_density, allow_constant
):
    """Shared products give each component the items, in order, of its own per-term loop."""
    from oracles import compose_items

    rng = random.Random(f"compose {kind} {num_vars}x{trunc_degree}")
    for _ in range(2):
        outer = JetVector(
            random_typed_jet(rng, kind, num_vars, trunc_degree, density) for _ in range(num_vars)
        )
        inner = [
            random_typed_jet(rng, kind, num_vars, trunc_degree, inner_density, zero_constant=not allow_constant)
            for _ in range(num_vars)
        ]
        want = [compose_items(c, inner, allow_constant) for c in outer]
        got = outer.compose(inner, allow_constant=allow_constant)
        assert [list(c._coeffs.items()) for c in got] == want
        for comp, items in zip(outer, want):
            assert list(comp.compose(inner, allow_constant=allow_constant)._coeffs.items()) == items


@pytest.mark.parametrize("kind,num_vars,trunc_degree,density,inner_density,allow_constant", _COMPOSE_CASES)
def test_products_kept_at_the_truncation_degree_match_the_full_ones(
    kind, num_vars, trunc_degree, density, inner_density, allow_constant
):
    """Keeping some codes at the truncation degree leaves every kept key's items and order as in the full result."""
    rng = random.Random(f"keep {kind} {num_vars}x{trunc_degree}")
    table = _monomials(num_vars, trunc_degree)
    cut = trunc_degree * table.top
    top_codes = [table.encode(e) for e in _all_exponents(num_vars, trunc_degree) if sum(e) == trunc_degree]
    for _ in range(2):
        keep = set(rng.sample(top_codes, len(top_codes) // 3))

        def kept(jet):
            return [(k, c) for k, c in jet._coded.items() if k < cut or k in keep]

        outer = JetVector(
            random_typed_jet(rng, kind, num_vars, trunc_degree, density) for _ in range(num_vars)
        )
        inner = [
            random_typed_jet(rng, kind, num_vars, trunc_degree, inner_density, zero_constant=not allow_constant)
            for _ in range(num_vars)
        ]
        got = _compose(outer.components, inner, allow_constant, keep)
        full = outer.compose(inner, allow_constant=allow_constant)
        assert [list(c._coded.items()) for c in got] == [kept(c) for c in full]
        assert any(len(g._coded) < len(f._coded) for g, f in zip(got, full))
        a, b = outer[0], outer[1]  # constants and terms at the truncation degree in both factors
        within = _fitting(b)
        assert list(_mul(a, within, keep)._coded.items()) == kept(a * b)
        assert list(_mul(a, within, set(top_codes))._coded.items()) == list((a * b)._coded.items())


@pytest.mark.parametrize("kind", sorted(_COEFF_KINDS) + ["int"])
@pytest.mark.parametrize("num_vars,trunc_degree,density", sorted({case[1:4] for case in _COMPOSE_CASES}))
def test_mul_matches_the_grouped_pair_loop(kind, num_vars, trunc_degree, density):
    """``Jet * Jet`` gives the items of ``Jet.__mul__``'s own grouped pair loop, in order and bit for bit."""
    from oracles import grouped_mul

    rng = random.Random(f"grouped mul {kind} {num_vars}x{trunc_degree}")
    draw = _COEFF_KINDS.get(kind, lambda r: r.randint(-3, 3))
    exponents = list(_all_exponents(num_vars, trunc_degree))
    for _ in range(3):
        a, b = (Jet(num_vars, trunc_degree, {e: draw(rng) for e in exponents if rng.random() < density}) for _ in range(2))
        assert _bits(a * b) == _bits(grouped_mul(a, b))


def test_compose_keeps_order_when_partial_sums_cancel():
    """A key whose running sum hits zero is dropped and re-enters where it comes back."""
    from oracles import compose_items

    x, y = jet_variables(2, 3)
    # x y + x^2 + y^2 with x -> x + y, y -> -x: x^2 gets -1, then 1 (dropped), then 1
    outer = JetVector([Jet(2, 3, {(1, 1): 1, (2, 0): 1, (0, 2): 1}), Jet(2, 3, {(2, 0): 1, (1, 1): 1})])
    inner = [x + y, -x]
    got = [list(c._coeffs.items()) for c in outer.compose(inner)]
    assert got == [compose_items(c, inner) for c in outer]
    assert got[0] == [((1, 1), 1), ((0, 2), 1), ((2, 0), 1)]


def test_compose_associativity():
    rng = random.Random(13)
    for _ in range(10):
        f = random_jet(rng, 2, 3, exact=True)
        g = [random_jet(rng, 2, 3, exact=True) for _ in range(2)]
        h = [random_jet(rng, 2, 3, exact=True) for _ in range(2)]
        g = [j - j.constant_term() for j in g]
        h = [j - j.constant_term() for j in h]
        lhs = f.compose(g).compose(h)
        rhs = f.compose([c.compose(h) for c in g])
        assert lhs == rhs


def test_substitute_variable_matches_compose():
    rng = random.Random(43)
    for _ in range(10):
        outer = random_jet(rng, 3, 3, exact=True)
        repl = random_jet(rng, 2, 3, exact=True)
        repl = repl - repl.constant_term()
        got = outer.substitute_variable(1, repl, {0: 0, 2: 1})
        # oracle: full composition with the identity slots spelled out
        x0, x1 = jet_variables(2, 3)
        want = outer.compose([x0, repl, x1])
        assert got == want


def test_substitute_variable_rejects_constant():
    x, y = jet_variables(2, 3)
    with pytest.raises(ConstantTermError):
        (x * y).substitute_variable(0, Jet.constant(1, 3, 2), {1: 0})


# ---------------------------------------------------------------- derivative


def test_derivative_monomial():
    x, y = jet_variables(2, 3)
    assert (x * x * y).derivative(0) == Jet(2, 3, {(1, 1): 2})


def test_derivative_constant():
    c = Jet.constant(2, 3, 5)
    assert c.derivative(0).is_zero()


def test_derivative_out_of_range():
    with pytest.raises(ShapeMismatchError):
        Jet.zero(2, 3).derivative(2)


def test_derivative_matches_finite_differences():
    rng = random.Random(17)
    a = random_jet(rng, 3, 3)
    for var in range(3):
        da = a.derivative(var)
        for _ in range(5):
            v = [rng.uniform(-0.5, 0.5) for _ in range(3)]
            h = 1e-5
            vp = list(v)
            vm = list(v)
            vp[var] += h
            vm[var] -= h
            fd = (a.eval(vp) - a.eval(vm)) / (2 * h)
            assert abs(da.eval(v) - fd) < 1e-6


def test_derivative_leibniz_and_linearity():
    rng = random.Random(19)
    for _ in range(10):
        a = random_jet(rng, 2, 2, exact=True)
        b = random_jet(rng, 2, 2, exact=True)
        wide_a = a.truncated(4)
        wide_b = b.truncated(4)
        assert (wide_a + wide_b).derivative(0) == wide_a.derivative(0) + wide_b.derivative(0)
        # degrees permit: deg(a) + deg(b) <= 4
        prod = wide_a * wide_b
        assert prod.derivative(1) == wide_a.derivative(1) * wide_b + wide_a * wide_b.derivative(1)


# ---------------------------------------------------------------- eval


def test_eval_constant_point():
    x, = jet_variables(1, 2)
    p = 1 + x + x * x
    assert p.eval([0]) == 1


def test_eval_product_point():
    x, y = jet_variables(2, 2)
    assert (x * y).eval([2, 3]) == 6


def test_eval_matches_naive_sum():
    rng = random.Random(23)
    for _ in range(20):
        a = random_jet(rng, 4, 3)
        v = [rng.uniform(-1, 1) for _ in range(4)]
        assert abs(a.eval(v) - poly_eval(a.coeffs, v)) < 1e-12


def test_eval_length_mismatch():
    with pytest.raises(ShapeMismatchError):
        Jet.zero(2, 2).eval([1.0])


def test_eval_homomorphism():
    rng = random.Random(29)
    for _ in range(20):
        a = random_jet(rng, 2, 4, exact=True, density=0.4)
        b = random_jet(rng, 2, 4, exact=True, density=0.4)
        a = Jet(2, 4, {e: c for e, c in a.coeffs.items() if sum(e) <= 2})
        b = Jet(2, 4, {e: c for e, c in b.coeffs.items() if sum(e) <= 2})
        v = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(2)]
        assert (a * b).eval(v) == a.eval(v) * b.eval(v)


# ---------------------------------------------------------------- ring laws


def test_ring_axioms_random_exact():
    rng = random.Random(31)
    zero = Jet.zero(2, 3)
    one = Jet.constant(2, 3, 1)
    for _ in range(1000):
        a = random_jet(rng, 2, 3, exact=True, density=0.3)
        b = random_jet(rng, 2, 3, exact=True, density=0.3)
        c = random_jet(rng, 2, 3, exact=True, density=0.3)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a


# ---------------------------------------------------------------- sqrt


def test_jet_sqrt_squares_back():
    rng = random.Random(37)
    for _ in range(10):
        a = random_jet(rng, 2, 3)
        a = a - a.constant_term() + rng.uniform(0.5, 3.0)
        r = jet_sqrt(a)
        back = r * r
        for e, c in (back - a).coeffs.items():
            if sum(e) <= 3:
                assert abs(c) < 1e-12


def test_jet_sqrt_rejects_nonpositive():
    x, = jet_variables(1, 3)
    with pytest.raises(ValueError):
        jet_sqrt(x)  # zero constant term


# ---------------------------------------------------------------- one-pass operations


def _bits(jet):
    """The stored items in order, each float by its hex and each exact number with its type."""

    def bits(c):
        if isinstance(c, float):
            return ("float", c.hex())
        if isinstance(c, complex):
            return ("complex", c.real.hex(), c.imag.hex())
        if isinstance(c, QQi):
            return ("QQi", type(c.re), c.re, type(c.im), c.im)
        return (type(c), c)

    return [(k, bits(c)) for k, c in jet._coded.items()]


#: Numbers each coefficient kind meets in the one-pass operations.
_SCALARS = {
    "float": [0, 0.0, -0.0, 3, 0.75, -1.25, Fraction(1, 3), 1e-300],
    "complex": [0, 2, -0.5, complex(0.5, -1.5), 1j],
    "Fraction": [0, 3, Fraction(-2, 3), 0.5, 1.25],
    "QQi": [0, -2, Fraction(1, 2), QQi(1, Fraction(-1, 3))],
}


@pytest.mark.parametrize("kind", sorted(_COEFF_KINDS))
def test_one_pass_operations_match_whole_jet_steps(kind):
    """Jet +- number, Jet - Jet and Jet * number give the former whole-jet results, item for item and bit for bit."""
    from oracles import jet_minus_jet, jet_plus_number, jet_times_number

    rng = random.Random(f"one pass {kind}")
    for num_vars, trunc_degree, density in _SHAPES[:3]:
        for _ in range(3):
            a = random_typed_jet(rng, kind, num_vars, trunc_degree, density)
            b = random_typed_jet(rng, kind, num_vars, trunc_degree, density)
            for x in _SCALARS[kind] + [_COEFF_KINDS[kind](rng)]:
                assert _bits(a + x) == _bits(jet_plus_number(a, x))
                assert _bits(x + a) == _bits(jet_plus_number(a, x))
                assert _bits(a - x) == _bits(jet_plus_number(a, -x))
                assert _bits(a * x) == _bits(jet_times_number(a, x))
                assert _bits(x * a) == _bits(jet_times_number(a, x))
            assert _bits(a - b) == _bits(jet_minus_jet(a, b))
            assert (a - a).is_zero()
            # a key that cancels leaves the dict, and comes back at the end
            c = a.constant_term()
            assert _bits((a - c) + c) == _bits(jet_plus_number(jet_plus_number(a, -c), c))
            half = Jet._raw(num_vars, trunc_degree, dict(list(a._coded.items())[::2]))
            assert _bits((a - half) + half) == _bits(jet_minus_jet(a, half) + half)


def test_one_pass_operations_drop_cancellation_and_underflow():
    from oracles import jet_minus_jet, jet_plus_number, jet_times_number

    a = Jet(2, 3, {(0, 0): 5e-324, (1, 0): 1e-300, (0, 1): 2.0, (1, 1): -3.0})
    b = Jet(2, 3, {(1, 1): -3.0, (0, 1): 1.0, (2, 0): 4.0})
    assert _bits(a - 5e-324) == _bits(jet_plus_number(a, -5e-324))
    assert 0 not in (a - 5e-324)._coded
    assert _bits(a * 1e-300) == _bits(jet_times_number(a, 1e-300))
    assert list((a * 1e-300)._coeffs) == [(0, 1), (1, 1)]  # 5e-324 and 1e-300 times 1e-300 underflow to 0.0
    diff = a - b
    assert _bits(diff) == _bits(jet_minus_jet(a, b))
    assert (1, 1) not in diff._coeffs
    back = diff + Jet(2, 3, {(1, 1): 1.0})
    assert list(back._coeffs)[-1] == (1, 1)


@pytest.mark.parametrize("kind", ["float", "complex", "Fraction", "int"])
def test_jet_sqrt_matches_whole_jet_steps(kind):
    """jet_sqrt gives the float bits and key order of the series built jet by jet from the constant-1 jet."""
    from oracles import jet_sqrt_steps

    rng = random.Random(f"sqrt {kind}")
    draw = _COEFF_KINDS.get(kind, lambda r: r.randint(-3, 3))
    constant = {"float": lambda r: r.uniform(0.1, 5.0), "complex": lambda r: r.uniform(0.1, 5.0)}
    constant = constant.get(kind, lambda r: Fraction(r.randint(1, 9), r.randint(1, 4)))
    for num_vars, trunc_degree, density in _SHAPES:
        for _ in range(3):
            coeffs = {e: draw(rng) for e in _all_exponents(num_vars, trunc_degree) if any(e) and rng.random() < density}
            coeffs[(0,) * num_vars] = constant(rng)
            a = Jet(num_vars, trunc_degree, coeffs)
            assert _bits(jet_sqrt(a)) == _bits(jet_sqrt_steps(a))
    # powers of w that underflow end the series early; tiny terms drop
    for a in (Jet(2, 3, {(0, 0): 1.0, (1, 0): 1e-200}), Jet(2, 3, {(0, 0): 4.0, (0, 1): 1e-320, (2, 0): 3.0})):
        assert _bits(jet_sqrt(a)) == _bits(jet_sqrt_steps(a))
    with pytest.raises(TypeError):
        jet_sqrt(Jet(2, 3, {(0, 0): 1, (1, 0): QQi(0, 1)}))
    with pytest.raises(TypeError):
        jet_sqrt_steps(Jet(2, 3, {(0, 0): 1, (1, 0): QQi(0, 1)}))


# ---------------------------------------------------------------- structure


def test_canonical_form_drops_zeros():
    jet = Jet(2, 3, {(1, 0): Fraction(0), (0, 1): 2})
    assert jet.coeffs == {(0, 1): 2}


def test_linear_coefficients_are_the_variables_coefficients_in_order():
    """One coefficient per variable, 0 where the variable's term is absent, whatever the coefficient type."""
    exact = Jet(4, 3, {(0, 0, 0, 0): 7, (0, 0, 0, 1): Fraction(-2, 3), (1, 0, 0, 0): 5, (2, 0, 0, 0): 9})
    want = [(int, 5), (int, 0), (int, 0), (Fraction, Fraction(-2, 3))]
    assert [(type(c), c) for c in exact.linear_coefficients()] == want
    floats = Jet(3, 2, {(0, 1, 0): -1.5, (1, 1, 0): 4.0, (0, 0, 2): 0.25, (0, 0, 0): 2.0})
    assert floats.linear_coefficients() == [0, -1.5, 0]
    assert Jet.zero(2, 3).linear_coefficients() == [0, 0]
    rows = [Jet(3, 3, {(0, 0, 1): x, (1, 0, 0): 2.0 * x, (1, 1, 0): 3.0}) for x in (0.5, -1.25)]
    lanes = stack_lanes(rows).linear_coefficients()
    assert [c if isinstance(c, int) else c.values() for c in lanes] == [[1.0, -2.5], 0, [0.5, -1.25]]
    rng = random.Random("linear coefficients")
    for num_vars, trunc_degree in [(1, 1), (2, 3), (6, 3), (7, 5)]:
        jet = random_jet(rng, num_vars, trunc_degree, density=0.4)
        units = [tuple(int(i == j) for j in range(num_vars)) for i in range(num_vars)]
        assert jet.linear_coefficients() == [jet.coefficient(u) for u in units]


def test_constructor_rejects_over_degree():
    with pytest.raises(ShapeMismatchError):
        Jet(2, 2, {(2, 1): 1})


def test_jetvector_shape_agreement():
    with pytest.raises(ShapeMismatchError):
        JetVector([Jet.zero(2, 3), Jet.zero(3, 3)])


def test_json_round_trip_graded_lex():
    jet = Jet(2, 3, {(0, 2): 1.5, (1, 0): -2.0, (0, 0): 3.0, (2, 1): 0.25})
    data = jet.to_json()
    # graded-lex: ascending degree, then lex ascending
    assert [t["exps"] for t in data["terms"]] == [[0, 0], [1, 0], [0, 2], [2, 1]]
    terms = json.loads(json.dumps(data))["terms"]
    assert {tuple(t["exps"]): complex(t["re"], t["im"]) for t in terms} == jet.coeffs


def test_immutability():
    jet = Jet.zero(2, 3)
    with pytest.raises(AttributeError):
        jet.num_vars = 5


def test_scalar_division():
    x, y = jet_variables(2, 3, coeff_one=Fraction(1))
    assert (x * 3) / 3 == x  # exact: integer divisor becomes a Fraction
    half = (x + y) / 2
    assert half.coefficient((1, 0)) == Fraction(1, 2)
    with pytest.raises(TypeError):
        x / y


def test_scalar_product_drops_underflowed_coefficients():
    """A coefficient that underflows to 0.0 is dropped, so the result stays canonical."""
    tiny = Jet.variable(0, 2, 3, 1e-200) * 1e-200
    assert tiny._coeffs == {}
    assert tiny.is_zero() and tiny.degree() == -1
    assert tiny == Jet.zero(2, 3)
    assert Jet.variable(0, 2, 3, 1e-200) / 1e200 == Jet.zero(2, 3)
    mixed = Jet(2, 3, {(1, 0): 1e-200, (0, 1): 2.0}) * 1e-200
    assert mixed._coeffs == {(0, 1): 2e-200}


def test_jetvector_eval_and_compose():
    x, y = jet_variables(2, 3)
    v = JetVector([x + y, x * y])
    assert [c.eval([2, 3]) for c in v] == [5, 6]
    w = v.compose([y, x])
    assert w[0] == x + y and w[1] == x * y


def test_compose_and_substitute_leave_no_reference_cycles():
    """The kernels' caches are freed by reference counting, not left for the cyclic collector."""
    x, y, z = jet_variables(3, 3, coeff_one=1.0)
    outer = x * y + x * z * z + y + z * z
    inner = [x + y * y, y + z * x, z]
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        JetVector([outer, outer * 2.0]).compose(inner)
        outer.compose(inner)
        JetVector([outer, outer * 2.0]).substitute_variable(0, y * z + y, {1: 1, 2: 2})
        outer.substitute_variable(0, y * z + y, {1: 1, 2: 2})
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
