"""Sparse multivariate polynomials truncated at a fixed total degree ("jets").

Jets are the carrier for every chart and normal-form computation in this
package.  Coefficients are duck-typed: exact work uses ``int`` / ``Fraction``
(the trace polynomials P and Q are expanded over the integers), floating work
uses ``float`` / ``complex``.  A coefficient only needs ``+``, ``*``, unary
``-``, equality and truthiness (zero tests as falsy).

Design notes
------------
* Canonical sparse form: zero coefficients are never stored, so two jets are
  equal iff their coefficient maps are equal.
* Truncation degree is fixed per jet; products and substitutions never form
  terms above it (each term only meets the terms of the other factor that
  fit), which is the semantics of jet arithmetic (not data loss).
* Storage is one dict per jet keyed by an integer code per monomial.  In a
  shape (n, td), with ``B = td + 1``, the code of ``e`` is
  ``sum(e_i * B**i) + |e| * B**n``: the low digits are the exponents and the
  top digit is the degree (see :class:`_Monomials`).  Every digit of a kept
  term is at most td, so digits never carry: the code of a product monomial
  is the sum of its factors' codes, a monomial's degree is ``code // B**n``,
  the terms of one degree form one range of codes and the constant's code is
  0.  Each key therefore gets the same products, added in the same order,
  with the same drops on cancellation and the same insertion order as with
  exponent-tuple keys.
* The kernels (``*``, composition and substitution) read and write codes
  only.  Exponent tuples appear at the edges: the constructor and
  ``coefficient`` encode them, and ``coeffs`` decodes the stored keys into a
  new dict, in storage order.  One table per shape caches the bijection.
* Products have one pairwise loop, ``_mul``: ``Jet.__mul__``, the powers
  and monomial products of compositions and substitutions, and the powers
  of ``jet_sqrt`` all run it.  Its right factor comes grouped by degree
  (``_fitting``: for each degree budget, the terms that fit it), and each
  power is grouped once for all the products it ends.
* Composition has one routine, ``JetVector.compose``: the powers of the inner
  components and the monomial products are built once and shared by all outer
  components, and ``Jet.compose`` is its one-component case.  Each component
  adds its terms in its own order, so it gets the same float sums as when
  composed alone.  The products come from :class:`_Products`.  Given a set
  of codes at the truncation degree, the products keep only those codes
  there (and every key below it): ``birkhoff.diagonalized_jets`` builds the
  normal-form input so, since the Birkhoff step reads no other coefficient
  of that degree, and ``birkhoff.alpha_matrix`` reaches :class:`_Products`
  the same way, through ``_compose``, keeping only the codes
  xi_j xi_k eta_k it reads.
* Substitution of one variable has one routine too,
  ``JetVector.substitute_variable``: the replacement's powers are built once
  for all components, by the same :class:`_Products` that builds a
  composition's powers (the one cache of powers), and
  ``Jet.substitute_variable`` is its one-component case.  A source term's
  split into the substituted exponent and the code of the rest comes from a
  table kept per substitution signature.
* Kernel caches (powers and monomial products, with their degree
  groupings) live for one call and are freed by reference counting when it
  returns: no cache is held by a function that refers to itself, a cycle
  that would keep it until the cyclic garbage collector runs.  The code and
  split tables are the only caches kept across calls.
* Evaluation and powers run through the same kernels: ``JetVector.eval``
  is one composition with the constant jets of the point (``Jet.eval`` is
  its one-component case), and ``a ** n`` is ``1 * a * ... * a``, the
  x^(k-1) * x order of every power :class:`_Products` builds.
* Jets are immutable values and safe to share between workers.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

from .errors import ConstantTermError, ShapeMismatchError

__all__ = [
    "Jet",
    "JetVector",
    "jet_sqrt",
    "jet_variables",
]


class Jet:
    """A polynomial in ``num_vars`` variables truncated at total degree ``trunc_degree``.

    ``coeffs`` maps exponent tuples to nonzero coefficients.  The constructor
    validates the degree invariant and canonicalizes (drops zeros); arithmetic
    goes through internal constructors that already maintain both.  Storage is
    one dict keyed by monomial code (see :class:`_Monomials`).
    """

    __slots__ = ("num_vars", "trunc_degree", "_coded")

    def __init__(self, num_vars: int, trunc_degree: int, coeffs: Mapping[tuple, object] | None = None):
        if num_vars < 1:
            raise ShapeMismatchError(f"num_vars must be positive, got {num_vars}")
        if trunc_degree < 1:
            raise ShapeMismatchError(f"trunc_degree must be positive, got {trunc_degree}")
        encode = _monomials(num_vars, trunc_degree).encode
        clean: dict[int, object] = {}
        for exps, c in (coeffs or {}).items():
            code = encode(tuple(exps))
            if c:
                clean[code] = c
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "trunc_degree", trunc_degree)
        object.__setattr__(self, "_coded", clean)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Jet is immutable")

    # -- internal fast constructor (coded dict already canonical & within degree) --
    @classmethod
    def _raw(cls, num_vars, trunc_degree, coded):
        # the slot descriptors set the slots past the immutability guard
        self = _new(cls)
        _set_num_vars(self, num_vars)
        _set_trunc_degree(self, trunc_degree)
        _set_coded(self, coded)
        return self

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, num_vars: int, trunc_degree: int) -> "Jet":
        return cls._raw(num_vars, trunc_degree, {})

    @classmethod
    def constant(cls, num_vars: int, trunc_degree: int, value) -> "Jet":
        if not value:
            return cls.zero(num_vars, trunc_degree)
        return cls._raw(num_vars, trunc_degree, {0: value})

    @classmethod
    def variable(cls, index: int, num_vars: int, trunc_degree: int, coeff=1) -> "Jet":
        if not 0 <= index < num_vars:
            raise ShapeMismatchError(f"variable index {index} out of range for {num_vars} variables")
        return cls._raw(num_vars, trunc_degree, {_monomials(num_vars, trunc_degree).weights[index]: coeff})

    # -- basic accessors ----------------------------------------------------
    @property
    def coeffs(self) -> dict[tuple, object]:
        """The coefficients keyed by exponent tuple, in storage order (a new dict)."""
        table = _monomials(self.num_vars, self.trunc_degree)
        exps_of, decode = table.exps.get, table.decode
        return {exps_of(k) or decode(k): c for k, c in self._coded.items()}

    # the name perfbench/tracer.py and the tests read
    _coeffs = coeffs

    def coefficient(self, exps: Sequence[int]):
        """Stored coefficient of the given exponent tuple (0 when absent or not a monomial of the shape)."""
        try:
            code = _monomials(self.num_vars, self.trunc_degree).encode(tuple(exps))
        except ShapeMismatchError:
            return 0
        return self._coded.get(code, 0)

    def constant_term(self):
        return self._coded.get(0, 0)

    def degree(self) -> int:
        """Total degree of the stored support (-1 for the zero jet)."""
        if not self._coded:
            return -1
        return max(self._coded) // _monomials(self.num_vars, self.trunc_degree).top

    def is_zero(self) -> bool:
        return not self._coded

    def sorted_terms(self):
        """Terms in graded-lex order: ascending total degree, then lex on exponents."""
        return sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def homogeneous_part(self, degree: int) -> "Jet":
        top = _monomials(self.num_vars, self.trunc_degree).top
        low, high = degree * top, (degree + 1) * top
        part = {k: c for k, c in self._coded.items() if low <= k < high}
        return Jet._raw(self.num_vars, self.trunc_degree, part)

    def truncated(self, trunc_degree: int) -> "Jet":
        """Copy truncated at a (possibly lower or higher) total degree."""
        if trunc_degree == self.trunc_degree:
            return self
        # codes depend on the truncation degree: re-encode in the new shape
        encode = _monomials(self.num_vars, trunc_degree).encode
        kept = {encode(e): c for e, c in self.coeffs.items() if sum(e) <= trunc_degree}
        return Jet._raw(self.num_vars, trunc_degree, kept)

    def map_coefficients(self, fn) -> "Jet":
        out = {}
        for k, c in self._coded.items():
            v = fn(c)
            if v:
                out[k] = v
        return Jet._raw(self.num_vars, self.trunc_degree, out)

    # -- ring operations ----------------------------------------------------
    def _check_shape(self, other: "Jet"):
        if self.num_vars != other.num_vars or self.trunc_degree != other.trunc_degree:
            raise ShapeMismatchError(
                f"shape mismatch: ({self.num_vars},{self.trunc_degree}) vs "
                f"({other.num_vars},{other.trunc_degree})"
            )

    def _plus_constant(self, value) -> "Jet":
        """``self + value`` for a number: one dict copy with key 0 updated (dropped if it cancels)."""
        out = dict(self._coded)
        if value:
            s = out.get(0, 0) + value
            if s:
                out[0] = s
            else:
                out.pop(0, None)
        return Jet._raw(self.num_vars, self.trunc_degree, out)

    def __add__(self, other):
        if not isinstance(other, Jet):
            return self._plus_constant(other)
        self._check_shape(other)
        out = dict(self._coded)
        for k, c in other._coded.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return Jet._raw(self.num_vars, self.trunc_degree, out)

    __radd__ = __add__

    def __neg__(self):
        return Jet._raw(self.num_vars, self.trunc_degree, {k: -c for k, c in self._coded.items()})

    def __sub__(self, other):
        if not isinstance(other, Jet):
            return self._plus_constant(-other)
        self._check_shape(other)
        # the sums of self + (-other), in one pass
        out = dict(self._coded)
        for k, c in other._coded.items():
            s = out.get(k, 0) - c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return Jet._raw(self.num_vars, self.trunc_degree, out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            out = {}
            if other:
                for k, c in self._coded.items():
                    v = c * other
                    if v:
                        out[k] = v
            return Jet._raw(self.num_vars, self.trunc_degree, out)
        self._check_shape(other)
        return _mul(self, _fitting(other))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, Jet):
            raise TypeError("jet division is only defined by scalars")
        inv = 1 / scalar if not isinstance(scalar, int) else Fraction(1, scalar)
        return self * inv

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative jet powers are not defined")
        # x**k is x**(k - 1) times x, as every power in the package is built
        result = Jet.constant(self.num_vars, self.trunc_degree, 1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return (
            self.num_vars == other.num_vars
            and self.trunc_degree == other.trunc_degree
            and self._coded == other._coded
        )

    def __hash__(self):
        return hash((self.num_vars, self.trunc_degree, frozenset(self._coded.items())))

    def __repr__(self):
        n = len(self._coded)
        return f"Jet(num_vars={self.num_vars}, trunc_degree={self.trunc_degree}, terms={n})"

    # -- calculus -----------------------------------------------------------
    def derivative(self, var: int) -> "Jet":
        """Formal partial derivative with respect to variable ``var``."""
        if not 0 <= var < self.num_vars:
            raise ShapeMismatchError(f"variable index {var} out of range")
        table = _monomials(self.num_vars, self.trunc_degree)
        place, step = table.base**var, table.weights[var]
        out = {}
        for code, c in self._coded.items():
            k = code // place % table.base  # the exponent of var
            if k:
                v = c * k
                if v:
                    lowered = code - step
                    out[lowered] = out.get(lowered, 0) + v
        return Jet._raw(self.num_vars, self.trunc_degree, {k: c for k, c in out.items() if c})

    def eval(self, point: Sequence[object]):
        """The value at a point; the one-component case of :meth:`JetVector.eval`."""
        return JetVector((self,)).eval(point)[0]

    # -- composition --------------------------------------------------------
    def compose(self, inner: Sequence["Jet"], allow_constant: bool = False) -> "Jet":
        """Truncated composition ``self(inner_1, ..., inner_n)``.

        The one-component case of :meth:`JetVector.compose`.

        Parameters
        ----------
        inner : sequence of Jet
            One component per variable of ``self``; all components must share
            a common shape, which becomes the shape of the result.
        allow_constant : bool
            Composition is only filtration-safe when the inner constant terms
            vanish.  Recentering substitutions (inner constants nonzero) must
            opt in explicitly.
        """
        return _compose((self,), inner, allow_constant)[0]

    def substitute_variable(self, var: int, replacement: "Jet", var_map: Mapping[int, int]) -> "Jet":
        """Replace one variable by a zero-constant jet, renumbering the rest.

        ``replacement`` lives in the target variable space; ``var_map`` sends
        every other source index to its target index (two sources may share
        a target).  This is composition with a vector that is the identity
        except in one slot, but costs only a key shift per term instead of a
        full power-cache composition.  The one-component case of
        :meth:`JetVector.substitute_variable`.
        """
        return _substitute((self,), var, replacement, var_map)[0]

    # -- serialization ------------------------------------------------------
    def to_json(self) -> dict:
        """JSON form {num_vars, trunc_degree, terms:[{exps, re, im}]} in graded-lex order."""
        terms = []
        for e, c in self.sorted_terms():
            z = complex(c)
            terms.append({"exps": list(e), "re": z.real, "im": z.imag})
        return {"num_vars": self.num_vars, "trunc_degree": self.trunc_degree, "terms": terms}

    @classmethod
    def from_json(cls, data: Mapping) -> "Jet":
        coeffs = {}
        for t in data["terms"]:
            c = complex(t["re"], t["im"])
            if c.imag == 0.0:
                c = c.real
            coeffs[tuple(t["exps"])] = c
        return cls(data["num_vars"], data["trunc_degree"], coeffs)


_new = object.__new__
_set_num_vars, _set_trunc_degree, _set_coded = (
    Jet.num_vars.__set__, Jet.trunc_degree.__set__, Jet._coded.__set__
)


class JetVector:
    """A tuple of jets sharing num_vars and trunc_degree (a polynomial map)."""

    __slots__ = ("components",)

    def __init__(self, components: Iterable[Jet]):
        comps = tuple(components)
        if not comps:
            raise ShapeMismatchError("JetVector needs at least one component")
        for c in comps:
            comps[0]._check_shape(c)
        object.__setattr__(self, "components", comps)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("JetVector is immutable")

    @property
    def num_vars(self) -> int:
        return self.components[0].num_vars

    @property
    def trunc_degree(self) -> int:
        return self.components[0].trunc_degree

    def __len__(self):
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __eq__(self, other):
        if not isinstance(other, JetVector):
            return NotImplemented
        return self.components == other.components

    def eval(self, point: Sequence[object]) -> tuple:
        """The value of every component at a point.

        One composition with the constant jets of the coordinates: each
        component's constant term is its value, exact for ``int`` and
        ``Fraction`` points.
        """
        inner = [Jet.constant(1, 1, v) for v in point]
        return tuple(c.constant_term() for c in _compose(self.components, inner, True))

    def then(self, other: "JetVector") -> "JetVector":
        """The composite map x -> other(self(x)), truncated at the product of the two degrees."""
        deg = self.trunc_degree * other.trunc_degree
        outer = JetVector(c.truncated(deg) for c in other)
        return outer.compose([c.truncated(deg) for c in self], allow_constant=True)

    def compose(self, inner: Sequence[Jet], allow_constant: bool = False) -> "JetVector":
        """Every component composed with ``inner``; see :meth:`Jet.compose`.

        The powers of the inner components and the monomial products are
        built once and shared by all components.
        """
        return JetVector(_compose(self.components, inner, allow_constant))

    def substitute_variable(self, var: int, replacement: Jet, var_map: Mapping[int, int]) -> "JetVector":
        """Every component with one variable replaced; see :meth:`Jet.substitute_variable`.

        The powers of the replacement are built once and shared by all
        components.
        """
        return JetVector(_substitute(self.components, var, replacement, var_map))

    def __repr__(self):
        return f"JetVector({len(self.components)} components, num_vars={self.num_vars}, trunc_degree={self.trunc_degree})"


def _compose(outers: Sequence[Jet], inner: Sequence[Jet], allow_constant: bool, keep=None) -> list[Jet]:
    """``[outer(inner_1, ..., inner_n) for outer in outers]``, truncated.

    ``outers`` share one shape (the components of a ``JetVector``).  With
    ``keep`` (a set of codes of the result's shape at its truncation degree)
    a result keeps every key below the truncation degree and only those codes
    at it, each with the items and relative order the full composition gives
    it (see :class:`_Products`); ``None`` keeps every key.

    Each monomial product ``prod_v inner_v^e_v`` is built once, as the product
    of its prefix (the monomial with its last variable dropped) and one power,
    which is the left-to-right order of a per-term product, and is shared by
    all components.  Each outer term ``c * x^e`` adds ``c * product`` into its
    component's dict, key by key in the product's order and dropping a key
    whose sum cancels: every key gets the same partial sums, in the same
    order, as ``acc = acc + product * c``.
    """
    inner = list(inner)
    if len(inner) != outers[0].num_vars:
        raise ShapeMismatchError(
            f"outer jet has {outers[0].num_vars} variables but {len(inner)} inner jets given"
        )
    for j in inner:
        inner[0]._check_shape(j)
    if not allow_constant:
        for i, j in enumerate(inner):
            if j.constant_term():
                raise ConstantTermError(
                    f"inner component {i} has a nonzero constant term; "
                    "pass allow_constant=True to recenter"
                )
    nv, td = inner[0].num_vars, inner[0].trunc_degree
    outer_table = _monomials(outers[0].num_vars, outers[0].trunc_degree)
    product = _Products(inner, outer_table, keep).product  # keyed by the outer monomial's code
    # zero-constant inner: each factor raises the degree, so a term above td adds nothing
    too_high = math.inf if allow_constant else (td + 1) * outer_table.top
    out = []
    for outer in outers:
        acc: dict[int, object] = {}  # the constant monomial's code is 0
        get, pop = acc.get, acc.pop
        for code, c in outer._coded.items():
            if not c or code >= too_high:
                continue
            if not code:
                s = get(0, 0) + c
                if s:
                    acc[0] = s
                else:
                    pop(0, None)
                continue
            for key, pc in product(code)._coded.items():
                s = get(key, 0) + pc * c
                if s:
                    acc[key] = s
                else:
                    pop(key, None)
        out.append(Jet._raw(nv, td, acc))
    return out


class _Products:
    """Powers of inner jets and the monomial products built from them, each built once.

    ``product(code)`` is the product of the inner components an outer
    monomial (given by its code in ``table``, the outer shape) names: the
    product of its prefix (the monomial with its last variable dropped) and
    one power, which is the left-to-right order of a per-term product; a
    power ``x_v**k`` is ``x_v**(k - 1)`` times ``x_v``.  Powers and products
    share one cache, keyed by the outer code.  Methods rather than recursive
    closures: a closure that calls itself refers to itself through its cell,
    and that cycle keeps the caches of every call alive until the cyclic
    garbage collector runs.

    With ``keep`` (a set of codes of the inner shape at its truncation
    degree), the inner components, powers and products keep all their keys
    below the truncation degree and only those codes at it (see
    :func:`_mul`); ``None`` keeps every key.  A factor's term at the
    truncation degree pairs only with the other factor's constant, into its
    own key, so every pair that reaches a kept key comes from kept terms:
    each kept key gets the same items, in the same relative order, as in the
    full product.  The right factor is always a power, whose terms are
    grouped by degree once (:meth:`within`) for every product it ends.
    """

    __slots__ = ("inner", "table", "keep", "products", "fitting")

    def __init__(self, inner: Sequence[Jet], table: "_Monomials", keep=None):
        if keep is not None:
            nv, td = inner[0].num_vars, inner[0].trunc_degree
            cut = td * _monomials(nv, td).top  # the codes from here on have the truncation degree
            inner = [Jet._raw(nv, td, {k: c for k, c in j._coded.items() if k < cut or k in keep}) for j in inner]
        self.inner, self.table, self.keep = inner, table, keep
        self.products: dict[int, Jet] = {}
        self.fitting: dict[int, list] = {}  # the code of a power -> _fitting of it

    def product(self, code: int) -> Jet:
        got = self.products.get(code)
        if got is None:
            exps = self.table.decode(code)
            last = len(exps) - 1
            while not exps[last]:
                last -= 1
            step = self.table.weights[last]
            power = exps[last] * step  # the code of x_last**e
            if code == step:
                got = self.inner[last]
            elif code == power:
                got = self._times(self.product(code - step), step)
            else:
                got = self._times(self.product(code - power), power)
            self.products[code] = got
        return got

    def within(self, code: int) -> list[list]:
        """``_fitting(self.product(code))``, built once."""
        got = self.fitting.get(code)
        if got is None:
            got = self.fitting[code] = _fitting(self.product(code))
        return got

    def _times(self, a: Jet, power: int) -> Jet:
        """``a`` times the power with outer code ``power``."""
        return _mul(a, self.within(power), self.keep)


def _fitting(b: Jet) -> list[list]:
    """``[terms of b of degree <= r for r in 0..trunc_degree]``, each list in ``b``'s order."""
    td = b.trunc_degree
    top = _monomials(b.num_vars, td).top
    items = list(b._coded.items())
    # degree <= r is code < (r + 1) * top; every term has degree <= td
    within = [[t for t in items if t[0] < bound] for bound in range(top, td * top + 1, top)]
    within.append(items)
    return within


def _mul(a: Jet, within: list, keep=None) -> Jet:
    """The truncated product ``a * b`` of one shape, where ``within`` is ``_fitting(b)``.

    The one pairwise product loop: ``a``'s terms in order, each with ``b``'s
    terms that fit, in order; a pair's key is ``ka + kb``, the code of the
    summed exponents.  With ``keep`` (a set of codes at the truncation
    degree) a pair whose key is at the truncation degree and not in ``keep``
    is skipped: every other key gets the same sums, with the same drops on
    cancellation, and keeps its place relative to the other kept keys.
    ``None`` keeps every key.
    """
    td = a.trunc_degree
    top = _monomials(a.num_vars, td).top
    # the codes from cut on have the truncation degree; no code of the shape reaches (td + 1) * top
    cut = ((td + 1) if keep is None else td) * top
    out: dict[int, object] = {}
    get, pop = out.get, out.pop
    for ka, ca in a._coded.items():
        for kb, cb in within[td - ka // top]:
            key = ka + kb
            if key >= cut and key not in keep:
                continue
            s = get(key, 0) + ca * cb
            if s:
                out[key] = s
            else:
                pop(key, None)
    return Jet._raw(a.num_vars, td, out)


def _substitute(outers: Sequence[Jet], var: int, replacement: Jet, var_map: Mapping[int, int]) -> list[Jet]:
    """``[outer.substitute_variable(var, replacement, var_map) for outer in outers]``.

    ``outers`` share one shape (the components of a ``JetVector``).  The
    powers of the replacement, each grouped by degree, are built once (by
    :class:`_Products`, as the powers of a one-variable outer) and shared by
    all components; each component adds its terms in its own order, so it
    gets the same sums as when substituted alone.  A source term's split
    into the exponent of ``var`` and the code of its other variables in the
    target shape comes from a table kept per substitution signature (see
    :class:`_Splits`).
    """
    source = outers[0]
    if not 0 <= var < source.num_vars:
        raise ShapeMismatchError(f"variable index {var} out of range")
    if replacement.constant_term():
        raise ConstantTermError("substitute_variable needs a zero-constant replacement")
    nv_t, td = replacement.num_vars, replacement.trunc_degree
    for i in range(source.num_vars):
        if i == var:
            continue
        if i not in var_map:
            raise ShapeMismatchError(f"var_map misses source variable {i}")
        if not (isinstance(var_map[i], int) and 0 <= var_map[i] < nv_t):
            raise ShapeMismatchError(
                f"var_map sends source variable {i} to {var_map[i]!r}, not one of the {nv_t} target variables"
            )
    targets = tuple(0 if i == var else var_map[i] for i in range(source.num_vars))
    splits = _splits(source.num_vars, source.trunc_degree, var, targets, nv_t, td)
    powers = _Products([replacement], _monomials(1, td))
    step = powers.table.weights[0]  # replacement**k has the code k * step
    out = []
    for outer in outers:
        # a term's other variables give one target code, and each power term
        # adds its own, the code of the summed exponents
        acc: dict[int, object] = {}
        get, pop = acc.get, acc.pop
        for code, c in outer._coded.items():
            k, rest_deg, rest = splits[code]
            if rest_deg + k > td:
                continue  # replacement has zero constant: each power adds >= k to the degree
            if k == 0:
                s = get(rest, 0) + c
                if s:
                    acc[rest] = s
                else:
                    pop(rest, None)
                continue
            for pk, pc in powers.within(k * step)[td - rest_deg]:
                key = pk + rest
                s = get(key, 0) + c * pc
                if s:
                    acc[key] = s
                else:
                    pop(key, None)
        out.append(Jet._raw(nv_t, td, acc))
    return out


class _Splits(dict):
    """Source code -> ``(k, rest_deg, rest)`` for one substitution signature.

    ``k`` is the exponent of the substituted variable, ``rest_deg`` the degree
    of the other variables and ``rest`` their code in the target shape.
    Entries fill as source monomials are first met.  ``rest`` is only read
    when ``rest_deg + k`` fits the target degree, so its digits never carry.
    """

    __slots__ = ("source", "var", "weights")

    def __init__(self, source: "_Monomials", var: int, weights: list):
        super().__init__()
        self.source, self.var, self.weights = source, var, weights

    def __missing__(self, code: int) -> tuple:
        exps = self.source.decode(code)
        k = exps[self.var]
        got = self[code] = (k, sum(exps) - k, sum(map(operator.mul, exps, self.weights)))
        return got


#: One split table per substitution signature: source shape, substituted
#: variable, target of every other variable, target shape.
_SPLIT_TABLES: dict[tuple, _Splits] = {}


def _splits(nv_s: int, td_s: int, var: int, targets: tuple, nv_t: int, td: int) -> _Splits:
    key = (nv_s, td_s, var, targets, nv_t, td)
    got = _SPLIT_TABLES.get(key)
    if got is None:
        weights = _monomials(nv_t, td).weights
        # var's own weight is 0: it comes in through the powers of the replacement
        got = _SPLIT_TABLES[key] = _Splits(
            _monomials(nv_s, td_s), var, [0 if i == var else weights[t] for i, t in enumerate(targets)]
        )
    return got


class _Monomials:
    """Integer codes of the monomials of one jet shape (num_vars, trunc_degree).

    With ``B = trunc_degree + 1`` and ``n = num_vars``,
    ``code(e) = sum(e_i * B**i) + |e| * B**n``: the low digits are the
    exponents and the top digit is the total degree, so ``weights[i] =
    B**i + B**n`` is the code of variable i, the constant's code is 0 and a
    monomial's degree is ``code // top`` with ``top = B**n``.  A monomial of
    the shape has every entry, and its degree, at most trunc_degree, so its
    digits never carry: codes add where exponents add, codes of one degree
    are one contiguous range, and decoding is exact.

    ``codes`` maps an exponent tuple to its code and ``exps`` maps a code
    back to its tuple.  Both fill as monomials are first met (:meth:`encode`
    for tuples, :meth:`decode` for codes), so a table holds only monomials
    that some jet of the shape has used: at most C(num_vars + trunc_degree,
    trunc_degree).
    """

    __slots__ = ("num_vars", "trunc_degree", "base", "top", "weights", "codes", "exps")

    def __init__(self, num_vars: int, trunc_degree: int):
        self.num_vars, self.trunc_degree = num_vars, trunc_degree
        self.base = trunc_degree + 1
        self.top = self.base**num_vars
        self.weights = [self.base**i + self.top for i in range(num_vars)]
        self.codes: dict[tuple, int] = {}
        self.exps: dict[int, tuple] = {}

    def encode(self, exps: tuple) -> int:
        """Code of an exponent tuple; ShapeMismatchError unless it is a monomial of the shape."""
        got = self.codes.get(exps)
        if got is None:
            try:
                ints = tuple(map(operator.index, exps))
            except TypeError:
                ints = ()
            if len(ints) != self.num_vars or min(ints) < 0:
                raise ShapeMismatchError(f"bad multi-index {exps} for {self.num_vars} variables")
            if sum(ints) > self.trunc_degree:
                raise ShapeMismatchError(f"multi-index {exps} exceeds truncation degree {self.trunc_degree}")
            got = self.codes[ints] = sum(map(operator.mul, ints, self.weights))
            self.exps[got] = ints
        return got

    def decode(self, code: int) -> tuple:
        """Exponent tuple of a code of the shape; ShapeMismatchError unless it is one.

        A code is checked before it enters the shared table.  Each exponent
        digit is at most trunc_degree by construction (a remainder mod
        ``base``); their sum must equal the degree digit ``code // top``, and
        that must be at most trunc_degree.
        """
        got = self.exps.get(code)
        if got is None:
            digits, rest = [], code
            for _ in range(self.num_vars):
                rest, e = divmod(rest, self.base)
                digits.append(e)
            if sum(digits) != rest or rest > self.trunc_degree:
                shape = (self.num_vars, self.trunc_degree)
                raise ShapeMismatchError(f"code {code} is no monomial of shape {shape}")
            got = self.exps[code] = tuple(digits)
            self.codes[got] = code
        return got


#: One code table per jet shape, shared by every jet of that shape.  The
#: tables only cache a fixed bijection, so sharing them changes no result.
_MONOMIAL_TABLES: dict[tuple[int, int], _Monomials] = {}


def _monomials(num_vars: int, trunc_degree: int) -> _Monomials:
    got = _MONOMIAL_TABLES.get((num_vars, trunc_degree))
    if got is None:
        got = _MONOMIAL_TABLES[num_vars, trunc_degree] = _Monomials(num_vars, trunc_degree)
    return got


def jet_variables(num_vars: int, trunc_degree: int, coeff_one=1) -> tuple[Jet, ...]:
    """The coordinate jets (x_0, ..., x_{n-1}) of a given shape."""
    return tuple(Jet.variable(i, num_vars, trunc_degree, coeff_one) for i in range(num_vars))


def jet_sqrt(a: Jet) -> Jet:
    """Jet of sqrt(a) via the binomial series around the constant term.

    The constant term must be strictly positive (real); the result has float
    (or complex, if ``a`` does) coefficients.  Used for the explicit chart
    eliminations, whose radicand positivity is a precondition.
    """
    c = a.constant_term()
    if isinstance(c, complex):
        raise ValueError("jet_sqrt is defined for real-coefficient jets only")
    c_f = float(c)
    if c_f <= 0.0:
        raise ValueError(f"jet_sqrt needs a positive constant term, got {c_f}")
    w = (a - c) * (1.0 / c_f)  # zero constant term
    within = _fitting(w)
    # sqrt(c(1+w)) = sqrt(c) * sum binom(1/2, k) w^k; the powers start at w,
    # which is the constant-1 jet times w bit for bit
    acc = {0: 1.0}
    get, pop = acc.get, acc.pop
    coeff = 1.0
    w_pow = w
    for k in range(1, a.trunc_degree + 1):
        coeff *= (0.5 - (k - 1)) / k
        if k > 1:
            w_pow = _mul(w_pow, within)
        if w_pow.is_zero():
            break
        # the steps of acc + w_pow * coeff
        for key, v in w_pow._coded.items():
            v = v * coeff
            if v:
                s = get(key, 0) + v
                if s:
                    acc[key] = s
                else:
                    pop(key, None)
    return Jet._raw(a.num_vars, a.trunc_degree, acc) * math.sqrt(c_f)
