"""Sparse multivariate polynomials truncated at a fixed total degree ("jets").

Jets are the carrier for every chart and normal-form computation in this
package.  Coefficients are duck-typed: exact work uses ``int``/``Fraction``
(or :class:`QQi` for Gaussian rationals), floating work uses ``float`` /
``complex``.  A coefficient only needs ``+``, ``*``, unary ``-``, equality
and truthiness (zero tests as falsy).

Design notes
------------
* Canonical sparse form: zero coefficients are never stored, so two jets are
  equal iff their coefficient maps are equal.
* Truncation degree is fixed per jet; products and substitutions never form
  terms above it (each term only meets the terms of the other factor that
  fit), which is the semantics of jet arithmetic (not data loss).
* Composition has one routine, ``JetVector.compose``: the powers of the inner
  components and the monomial products are built once and shared by all outer
  components, and ``Jet.compose`` is its one-component case.  Each component
  adds its terms in its own order, so it gets the same float sums as when
  composed alone.
* The three kernels (``*``, ``substitute_variable`` and composition) sum into
  dicts keyed by an integer code per monomial, not by exponent tuples.  In a
  shape (nv, td) the code of ``e`` is ``sum(e_i * (td + 1)**i)``: every entry
  of a kept term is at most td, so the digits never carry, the code of a
  product monomial is the sum of the codes of its factors, and codes and
  tuples match one to one.  Each key therefore gets the same products, added
  in the same order, with the same drops on cancellation and the same
  insertion order as with tuple keys; only the key type of the scratch dict
  changes.  One table per shape (:class:`_Monomials`) maps tuples to codes and
  back by dict lookup and fills as monomials are first met; results carry the
  table's tuples, so ``_coeffs`` keys stay plain tuples of ints.
* Jets are immutable values and safe to share between workers.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import ConstantTermError, ShapeMismatchError

__all__ = [
    "QQi",
    "Jet",
    "JetVector",
    "jet_sqrt",
    "normalized_coefficient",
    "jet_variables",
]


class QQi:
    """Gaussian rational a + b*i with exact Fraction parts.

    Used to expand the unitary-coordinate substitution exactly; the final
    polynomials must come out with identically zero imaginary parts and
    that cancellation is checked exactly, so floats are not acceptable there.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("QQi is immutable")

    def __add__(self, other):
        other = _as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return QQi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return QQi(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return QQi(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return QQi(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def conjugate(self):
        return QQi(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = _as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"QQi({self.re!r}, {self.im!r})"


def _as_qqi(value):
    if isinstance(value, QQi):
        return value
    if isinstance(value, (int, Fraction)):
        return QQi(value)
    return NotImplemented


class Jet:
    """A polynomial in ``num_vars`` variables truncated at total degree ``trunc_degree``.

    ``coeffs`` maps exponent tuples to nonzero coefficients.  The constructor
    validates the degree invariant and canonicalizes (drops zeros); arithmetic
    goes through internal constructors that already maintain both.
    """

    __slots__ = ("num_vars", "trunc_degree", "_coeffs")

    def __init__(self, num_vars: int, trunc_degree: int, coeffs: Mapping[tuple, object] | None = None):
        if num_vars < 1:
            raise ShapeMismatchError(f"num_vars must be positive, got {num_vars}")
        if trunc_degree < 1:
            raise ShapeMismatchError(f"trunc_degree must be positive, got {trunc_degree}")
        clean: dict[tuple, object] = {}
        for exps, c in (coeffs or {}).items():
            exps = tuple(exps)
            if len(exps) != num_vars or any(e < 0 for e in exps):
                raise ShapeMismatchError(f"bad multi-index {exps} for {num_vars} variables")
            if sum(exps) > trunc_degree:
                raise ShapeMismatchError(
                    f"multi-index {exps} exceeds truncation degree {trunc_degree}"
                )
            if c:
                clean[exps] = c
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "trunc_degree", trunc_degree)
        object.__setattr__(self, "_coeffs", clean)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Jet is immutable")

    # -- internal fast constructor (dict already canonical & within degree) --
    @classmethod
    def _raw(cls, num_vars, trunc_degree, coeffs):
        self = object.__new__(cls)
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "trunc_degree", trunc_degree)
        object.__setattr__(self, "_coeffs", coeffs)
        return self

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, num_vars: int, trunc_degree: int) -> "Jet":
        return cls._raw(num_vars, trunc_degree, {})

    @classmethod
    def constant(cls, num_vars: int, trunc_degree: int, value) -> "Jet":
        if not value:
            return cls.zero(num_vars, trunc_degree)
        return cls._raw(num_vars, trunc_degree, {(0,) * num_vars: value})

    @classmethod
    def variable(cls, index: int, num_vars: int, trunc_degree: int, coeff=1) -> "Jet":
        if not 0 <= index < num_vars:
            raise ShapeMismatchError(f"variable index {index} out of range for {num_vars} variables")
        exps = tuple(1 if i == index else 0 for i in range(num_vars))
        return cls._raw(num_vars, trunc_degree, {exps: coeff})

    # -- basic accessors ----------------------------------------------------
    @property
    def coeffs(self) -> Mapping[tuple, object]:
        return dict(self._coeffs)

    def coefficient(self, exps: Sequence[int]):
        """Stored coefficient of the given exponent tuple (0 when absent)."""
        return self._coeffs.get(tuple(exps), 0)

    def constant_term(self):
        return self._coeffs.get((0,) * self.num_vars, 0)

    def degree(self) -> int:
        """Total degree of the stored support (-1 for the zero jet)."""
        return max((sum(e) for e in self._coeffs), default=-1)

    def is_zero(self) -> bool:
        return not self._coeffs

    def sorted_terms(self):
        """Terms in graded-lex order: ascending total degree, then lex on exponents."""
        return sorted(self._coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def homogeneous_part(self, degree: int) -> "Jet":
        part = {e: c for e, c in self._coeffs.items() if sum(e) == degree}
        return Jet._raw(self.num_vars, self.trunc_degree, part)

    def truncated(self, trunc_degree: int) -> "Jet":
        """Copy truncated at a (possibly lower or higher) total degree."""
        kept = {e: c for e, c in self._coeffs.items() if sum(e) <= trunc_degree}
        return Jet._raw(self.num_vars, trunc_degree, kept)

    def map_coefficients(self, fn) -> "Jet":
        out = {}
        for e, c in self._coeffs.items():
            v = fn(c)
            if v:
                out[e] = v
        return Jet._raw(self.num_vars, self.trunc_degree, out)

    # -- ring operations ----------------------------------------------------
    def _check_shape(self, other: "Jet"):
        if self.num_vars != other.num_vars or self.trunc_degree != other.trunc_degree:
            raise ShapeMismatchError(
                f"shape mismatch: ({self.num_vars},{self.trunc_degree}) vs "
                f"({other.num_vars},{other.trunc_degree})"
            )

    def __add__(self, other):
        if not isinstance(other, Jet):
            return self + Jet.constant(self.num_vars, self.trunc_degree, other)
        self._check_shape(other)
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Jet._raw(self.num_vars, self.trunc_degree, out)

    __radd__ = __add__

    def __neg__(self):
        return Jet._raw(self.num_vars, self.trunc_degree, {e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else Jet.constant(self.num_vars, self.trunc_degree, -other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            if not other:
                return Jet.zero(self.num_vars, self.trunc_degree)
            return self.map_coefficients(lambda c: c * other)
        self._check_shape(other)
        td = self.trunc_degree
        table = _monomials(self.num_vars, td)
        code_of, encode = table.codes.get, table.encode
        # within[r]: the coded terms of other of degree <= r, in other's dict
        # order, so each key gets the same contributions in the same order as
        # a full scan
        within: list[list] = [[] for _ in range(td + 1)]
        for eb, cb in other._coeffs.items():
            kb, db = code_of(eb) or encode(eb)
            for r in range(db, td + 1):
                within[r].append((kb, cb))
        # keyed by code: a pair's key is ka + kb, the code of the summed exponents
        out: dict[int, object] = {}
        get, pop = out.get, out.pop
        for ea, ca in self._coeffs.items():
            ka, da = code_of(ea) or encode(ea)
            for kb, cb in within[td - da]:
                key = ka + kb
                s = get(key, 0) + ca * cb
                if s:
                    out[key] = s
                else:
                    pop(key, None)
        return Jet._raw(self.num_vars, td, table.decoded(out))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, Jet):
            raise TypeError("jet division is only defined by scalars")
        inv = 1 / scalar if not isinstance(scalar, int) else Fraction(1, scalar)
        return self * inv

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative jet powers are not defined")
        result = Jet.constant(self.num_vars, self.trunc_degree, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return (
            self.num_vars == other.num_vars
            and self.trunc_degree == other.trunc_degree
            and self._coeffs == other._coeffs
        )

    def __hash__(self):
        return hash((self.num_vars, self.trunc_degree, frozenset(self._coeffs.items())))

    def __repr__(self):
        n = len(self._coeffs)
        return f"Jet(num_vars={self.num_vars}, trunc_degree={self.trunc_degree}, terms={n})"

    # -- calculus -----------------------------------------------------------
    def derivative(self, var: int) -> "Jet":
        """Formal partial derivative with respect to variable ``var``."""
        if not 0 <= var < self.num_vars:
            raise ShapeMismatchError(f"variable index {var} out of range")
        out = {}
        for e, c in self._coeffs.items():
            k = e[var]
            if k:
                ne = e[:var] + (k - 1,) + e[var + 1 :]
                v = c * k
                if v:
                    out[ne] = out.get(ne, 0) + v
        return Jet._raw(self.num_vars, self.trunc_degree, {e: c for e, c in out.items() if c})

    def eval(self, point: Sequence[object]):
        """Evaluate at a point, with a variable-by-variable Horner recursion."""
        if len(point) != self.num_vars:
            raise ShapeMismatchError(
                f"point has {len(point)} coordinates, jet has {self.num_vars} variables"
            )
        if not self._coeffs:
            return 0
        return _horner(self._coeffs, tuple(point), 0, self.num_vars)

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
        every other source index to its target index.  This is composition
        with a vector that is the identity except in one slot, but costs only
        an exponent shift per term instead of a full power-cache composition.
        """
        if not 0 <= var < self.num_vars:
            raise ShapeMismatchError(f"variable index {var} out of range")
        if replacement.constant_term():
            raise ConstantTermError("substitute_variable needs a zero-constant replacement")
        nv_t, td = replacement.num_vars, replacement.trunc_degree
        for i in range(self.num_vars):
            if i != var and i not in var_map:
                raise ShapeMismatchError(f"var_map misses source variable {i}")
        table = _monomials(nv_t, td)
        code_of, encode = table.codes.get, table.encode
        # target code weight of each source variable; var itself comes in
        # through the powers of the replacement
        weights = [0 if i == var else table.weights[var_map[i]] for i in range(self.num_vars)]
        powers: dict[int, Jet] = {1: replacement}

        def power(k: int) -> "Jet":
            got = powers.get(k)
            if got is None:
                got = power(k - 1) * replacement
                powers[k] = got
            return got

        coded: dict[int, list] = {}
        fitting: dict[tuple, list] = {}

        def power_within(k: int, room: int) -> list:
            """Coded terms of power(k) of degree <= room, in dict order."""
            got = fitting.get((k, room))
            if got is None:
                terms = coded.get(k)
                if terms is None:
                    terms = coded[k] = [(code_of(pe) or encode(pe), pc) for pe, pc in power(k)._coeffs.items()]
                got = fitting[k, room] = [(pk, pc) for (pk, pd), pc in terms if pd <= room]
            return got

        # keyed by target code: a term's other variables give one code, and
        # each power term adds its own, the code of the summed exponents
        out: dict[int, object] = {}
        get, pop = out.get, out.pop
        for e, c in self._coeffs.items():
            k = e[var]
            rest_deg = sum(e) - k
            if rest_deg + k > td:
                continue  # replacement has zero constant: each power adds >= k to the degree
            rest = sum(map(operator.mul, e, weights))
            if k == 0:
                s = get(rest, 0) + c
                if s:
                    out[rest] = s
                else:
                    pop(rest, None)
                continue
            for pk, pc in power_within(k, td - rest_deg):
                key = pk + rest
                s = get(key, 0) + c * pc
                if s:
                    out[key] = s
                else:
                    pop(key, None)
        return Jet._raw(nv_t, td, table.decoded(out))

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


def _horner(coeffs: Mapping[tuple, object], point: tuple, var: int, num_vars: int):
    if var == num_vars:
        # only the empty exponent tail remains
        return next(iter(coeffs.values()))
    groups: dict[int, dict] = {}
    for e, c in coeffs.items():
        groups.setdefault(e[var], {})[e] = c
    x = point[var]
    acc = None
    prev = None
    for k in sorted(groups, reverse=True):
        sub = _horner(groups[k], point, var + 1, num_vars)
        if acc is None:
            acc = sub
        else:
            for _ in range(prev - k):
                acc = acc * x
            acc = acc + sub
        prev = k
    for _ in range(prev):
        acc = acc * x
    return acc


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

    def eval(self, point):
        return [c.eval(point) for c in self.components]

    def compose(self, inner: Sequence[Jet], allow_constant: bool = False) -> "JetVector":
        """Every component composed with ``inner``; see :meth:`Jet.compose`.

        The powers of the inner components and the monomial products are
        built once and shared by all components.
        """
        return JetVector(_compose(self.components, inner, allow_constant))

    def map_coefficients(self, fn) -> "JetVector":
        return JetVector([c.map_coefficients(fn) for c in self.components])

    def __repr__(self):
        return f"JetVector({len(self.components)} components, num_vars={self.num_vars}, trunc_degree={self.trunc_degree})"


def _compose(outers: Sequence[Jet], inner: Sequence[Jet], allow_constant: bool) -> list[Jet]:
    """``[outer(inner_1, ..., inner_n) for outer in outers]``, truncated.

    ``outers`` share one variable count (the components of a ``JetVector``).

    Each monomial product ``prod_v inner_v^e_v`` is built once, as the product
    of its prefix (the monomial with its last variable dropped) and one power,
    which is the left-to-right order of a per-term product, and its items are
    coded once (see :class:`_Monomials`) for all components.  Each outer term
    ``c * x^e`` adds ``c * product`` into its component's dict, key by key in
    the product's order and dropping a key whose sum cancels: every key gets
    the same partial sums, in the same order, as ``acc = acc + product * c``.
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
    powers: list[dict[int, Jet]] = [{1: j} for j in inner]

    def power(v: int, k: int) -> Jet:
        cache = powers[v]
        got = cache.get(k)
        if got is None:
            got = power(v, k - 1) * inner[v]
            cache[k] = got
        return got

    products: dict[tuple, Jet] = {}

    def product(exps: tuple) -> Jet:
        got = products.get(exps)
        if got is None:
            last = max(v for v, e in enumerate(exps) if e)
            got = power(last, exps[last])
            if any(exps[:last]):
                got = product(exps[:last] + (0,) * (len(exps) - last)) * got
            products[exps] = got
        return got

    table = _monomials(nv, td)
    code_of, encode = table.codes.get, table.encode
    coded: dict[tuple, list] = {}

    def coded_product(exps: tuple) -> list:
        """(code, coefficient) items of product(exps), in its dict order."""
        got = coded.get(exps)
        if got is None:
            got = [((code_of(e) or encode(e))[0], pc) for e, pc in product(exps)._coeffs.items()]
            coded[exps] = got
        return got

    out = []
    for outer in outers:
        acc: dict[int, object] = {}  # keyed by code, the constant monomial's is 0
        get, pop = acc.get, acc.pop
        for exps, c in outer._coeffs.items():
            if not c or (not allow_constant and sum(exps) > td):
                continue  # adds nothing (zero-constant inner: each factor raises degree)
            if any(exps):
                terms = [(key, pc * c) for key, pc in coded_product(exps)]
            else:
                terms = ((0, c),)
            for key, v in terms:
                s = get(key, 0) + v
                if s:
                    acc[key] = s
                else:
                    pop(key, None)
        out.append(Jet._raw(nv, td, table.decoded(acc)))
    return out


class _Monomials:
    """Integer codes of the monomials of one jet shape (num_vars, trunc_degree).

    ``code(e) = sum(e_i * (trunc_degree + 1)**i)``, so ``weights[i]`` is the
    code of variable i.  A monomial of the shape has every entry at most
    trunc_degree, so its code's base-(trunc_degree + 1) digits are its
    exponents: codes add where exponents add, and decoding is exact.

    ``codes`` maps an exponent tuple to ``(code, degree)`` and ``exps`` maps a
    code back to its tuple.  Both fill as monomials are first met (the
    kernels look up ``codes.get`` / ``exps.get`` and call :meth:`encode` /
    :meth:`decode` on a miss), so a table holds only monomials that some jet
    of the shape has used: at most C(num_vars + trunc_degree, trunc_degree).
    """

    __slots__ = ("base", "weights", "codes", "exps")

    def __init__(self, num_vars: int, trunc_degree: int):
        self.base = trunc_degree + 1
        self.weights = [self.base**i for i in range(num_vars)]
        self.codes: dict[tuple, tuple[int, int]] = {}
        self.exps: dict[int, tuple] = {}

    def encode(self, exps: tuple) -> tuple[int, int]:
        """``(code, degree)`` of a monomial met for the first time."""
        code = sum(map(operator.mul, map(int, exps), self.weights))
        if self._digits(code) != exps or sum(exps) > self.base - 1:
            raise ShapeMismatchError(
                f"multi-index {exps} is not a monomial of {len(self.weights)} variables "
                f"truncated at degree {self.base - 1}"
            )
        return self.codes[self.decode(code)]

    def decode(self, code: int) -> tuple:
        """Exponent tuple of a code met for the first time."""
        exps = self.exps[code] = self._digits(code)
        self.codes[exps] = (code, sum(exps))
        return exps

    def _digits(self, code: int) -> tuple:
        digits = []
        for _ in self.weights:
            code, e = divmod(code, self.base)
            digits.append(e)
        return tuple(digits)

    def decoded(self, coded: dict) -> dict:
        """``coded`` with each code replaced by its tuple, in the same order."""
        exps_of, decode = self.exps.get, self.decode
        return {exps_of(k) or decode(k): c for k, c in coded.items()}


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
    if isinstance(c, (complex, QQi)):
        raise ValueError("jet_sqrt is defined for real-coefficient jets only")
    c_f = float(c)
    if c_f <= 0.0:
        raise ValueError(f"jet_sqrt needs a positive constant term, got {c_f}")
    w = (a - c) * (1.0 / c_f)  # zero constant term
    root = math.sqrt(c_f)
    # sqrt(c(1+w)) = sqrt(c) * sum binom(1/2, k) w^k
    acc = Jet.constant(a.num_vars, a.trunc_degree, 1.0)
    coeff = 1.0
    w_pow = Jet.constant(a.num_vars, a.trunc_degree, 1.0)
    half = 0.5
    for k in range(1, a.trunc_degree + 1):
        coeff *= (half - (k - 1)) / k
        w_pow = w_pow * w
        if w_pow.is_zero():
            break
        acc = acc + w_pow * coeff
    return acc * root


def normalized_coefficient(a: Jet, upper: Sequence[int], lower: Sequence[int]):
    """Ordered-monomial coefficient of ``xi_{a_1}...xi_{a_n} eta_{b_1}...eta_{b_m}``.

    The jet's variables are interpreted as (xi_1..xi_d, eta_1..eta_d), indices
    in ``upper``/``lower`` are 1-based.  The stored coefficient of the
    corresponding unordered monomial is divided by the multiplicity factor
    n! m! / (prod of multiplicity factorials), so that ordered-monomial
    normal-form formulas apply verbatim.
    """
    if a.num_vars % 2 != 0:
        raise ShapeMismatchError("normalized_coefficient needs an (xi, eta) jet with 2d variables")
    d = a.num_vars // 2
    exps = [0] * a.num_vars
    for i in upper:
        if not 1 <= i <= d:
            raise ShapeMismatchError(f"xi index {i} out of range 1..{d}")
        exps[i - 1] += 1
    for i in lower:
        if not 1 <= i <= d:
            raise ShapeMismatchError(f"eta index {i} out of range 1..{d}")
        exps[d + i - 1] += 1
    if sum(exps) > a.trunc_degree:
        raise ShapeMismatchError("requested monomial exceeds the truncation degree")
    stored = a.coefficient(exps)
    if not stored:
        return 0
    factor = math.factorial(len(upper)) * math.factorial(len(lower))
    for mult_source in (exps[:d], exps[d:]):
        for m in mult_source:
            factor //= math.factorial(m)
    if factor == 1:
        return stored
    if isinstance(stored, (int, Fraction)):
        return stored * Fraction(1, factor)
    if isinstance(stored, QQi):
        return stored * QQi(Fraction(1, factor))
    return stored / factor
