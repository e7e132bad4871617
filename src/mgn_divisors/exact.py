"""Exact scalar arithmetic: rationals, multivariate polynomials, linear solving.

Everything in this package computes over these types; there is no floating
point anywhere.  An exact scalar has one stored normal form, `scalar(x)`: an
`int` when the value is integral, else a `fractions.Fraction` with a
denominator above 1, never a float.  Divisor-class coefficients, `Poly`
coefficients and test-curve pairings keep it, so integral arithmetic runs on
ints, which are far cheaper than Fractions.  `rat` still coerces to Fraction
where a quotient is taken, in `Poly` division and in `solve_linear`: there
`int / int` would be a float.  `solve_linear` takes a right side of exact
numbers or `Poly`s, so one solver serves the certificates' numeric systems
and the symbolic Pic(M_{1,2}) system of `family.b_from_pic12`.
Rationals serialize as "p/q" strings, or "p" when integral, never as floats.

`Poly` arithmetic builds its results in canonical order: sums start from the
first coefficient rather than a zero seed, operands over the same variables
are not remapped, and a result only has its zero terms and unused variables
dropped, not a second sort.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from operator import add


Scalar = int | Fraction

_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def rat(x) -> Fraction:
    """Coerce an int or Fraction to Fraction; reject floats outright."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def scalar(x) -> Scalar:
    """The normal form of an exact scalar: an int when x is integral, else a
    Fraction with a denominator above 1.  A float, or anything else that is
    not an int or a Fraction, raises TypeError."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):  # a bool or another int subclass
        return int(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def rat_str(x: Scalar) -> str:
    """Canonical wire form: "p/q", or just "p" when the denominator is 1."""
    if isinstance(x, int):  # a bool prints as "1"/"0"
        return str(int(x))
    return str(rat(x))


HALF = Fraction(1, 2)


def half(x):
    """x / 2, exactly: an even int stays an int, anything else is HALF * x
    (a Fraction, or a Poly through Poly.__rmul__)."""
    if type(x) is int and not x & 1:
        return x // 2
    return HALF * x


def parse_rat(s: str) -> Fraction:
    """Read the wire form "p" or "p/q"; anything else, a JSON number or a
    zero denominator included, raises ValueError."""
    if not isinstance(s, str):
        raise ValueError(f"a rational literal is a string, not {type(s).__name__}: {s!r}")
    s = s.strip()
    if not _RAT_RE.match(s):
        raise ValueError(f"not a rational literal: {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {s!r}") from None


class Poly:
    """Multivariate polynomial with exact rational coefficients over named variables.

    Canonical form: variable names sorted, variables that do not occur are
    dropped, no zero terms, every coefficient in the normal form of `scalar`.
    Equality is therefore decidable by direct comparison of the term maps.
    Instances are immutable.  The constructor accepts any variable order and
    int or Fraction coefficients; the arithmetic goes through `_canonical`.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables=(), terms=None):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"repeated variable name in {variables}")
        raw = {}
        for expo, coef in (terms or {}).items():
            expo = tuple(expo)
            if len(expo) != len(variables):
                raise ValueError("exponent vector length does not match variables")
            coef = scalar(coef)
            raw[expo] = raw[expo] + coef if expo in raw else coef
        names = tuple(sorted(variables))
        if names != variables:
            order = [variables.index(nm) for nm in names]
            raw = {tuple(e[k] for k in order): c for e, c in raw.items()}
        self._set_canonical(names, raw)

    def _set_canonical(self, names, terms):
        """Store `terms`, scalar coefficients keyed by exponent tuples over the
        sorted `names`, without the zero terms and the variables no term uses."""
        terms = {e: scalar(c) for e, c in terms.items() if c}
        used = [k for k in range(len(names)) if any(e[k] for e in terms)]
        if len(used) < len(names):
            names = tuple(names[k] for k in used)
            terms = {tuple(e[k] for k in used): c for e, c in terms.items()}
        object.__setattr__(self, "variables", names)
        object.__setattr__(self, "terms", terms)

    @classmethod
    def _canonical(cls, names, terms) -> "Poly":
        """The Poly of `terms` over sorted `names`, as `_set_canonical` stores it:
        for results that are already in sorted variable order."""
        p = object.__new__(cls)
        p._set_canonical(names, terms)
        return p

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @classmethod
    def var(cls, name: str) -> "Poly":
        return cls._canonical((name,), {(1,): 1})

    @classmethod
    def const(cls, c: Scalar) -> "Poly":
        return cls._canonical((), {(): scalar(c)})

    @property
    def is_constant(self) -> bool:
        return not self.variables

    def constant_value(self) -> Scalar:
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return self.terms.get((), 0)

    def _aligned(self, other: "Poly"):
        """Both term maps over one sorted variable tuple; a map already over it is not remapped."""
        if self.variables == other.variables:
            return self.variables, self.terms, other.terms
        names = tuple(sorted(set(self.variables) | set(other.variables)))

        def remap(p):
            if p.variables == names:
                return p.terms
            idx = [p.variables.index(nm) if nm in p.variables else None for nm in names]
            return {
                tuple(e[k] if k is not None else 0 for k in idx): c
                for e, c in p.terms.items()
            }

        return names, remap(self), remap(other)

    @staticmethod
    def _coerce(x) -> "Poly":
        if isinstance(x, Poly):
            return x
        return Poly.const(x)

    def __add__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        names, a, b = self._aligned(other)
        out = dict(a)
        for e, c in b.items():
            out[e] = out[e] + c if e in out else c
        return Poly._canonical(names, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly._canonical(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        try:
            return self + (-self._coerce(other))
        except TypeError:
            return NotImplemented

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        names, a, b = self._aligned(other)
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(add, e1, e2))
                c = c1 * c2
                out[e] = out[e] + c if e in out else c
        return Poly._canonical(names, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = rat(other)
        if not c:
            raise ZeroDivisionError("division of Poly by zero")
        return Poly._canonical(self.variables, {e: v / c for e, v in self.terms.items()})

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("Poly exponent must be a non-negative integer")
        if k == 0:
            return Poly.const(1)
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_constant and self.constant_value() == other
        if not isinstance(other, Poly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        """The terms, highest exponents first, joined by " + "; "0" when there are none."""
        parts = []
        for expo, coef in sorted(self.terms.items(), reverse=True):
            factors = [
                nm if e == 1 else f"{nm}^{e}"
                for nm, e in zip(self.variables, expo)
                if e
            ]
            head = "*".join(factors)
            if head:
                parts.append(f"{coef}*{head}" if coef != 1 else head)
            else:
                parts.append(str(coef))
        return " + ".join(parts) or "0"

    def __repr__(self):
        return f"Poly({self})"


# status is "unique", "underdetermined" or "infeasible"; vector, for "unique"
# only, holds numbers in the normal form of `scalar`, or Polys
LinearSolution = namedtuple("LinearSolution", "status vector", defaults=(None,))


UNDERDETERMINED = LinearSolution("underdetermined")
INFEASIBLE = LinearSolution("infeasible")


def solve_linear(matrix, rhs) -> LinearSolution:
    """Solve matrix * x = rhs by exact Gaussian elimination, pivoting on the
    first nonzero entry (deterministic).

    Matrix entries are coerced by `rat`.  A right-side entry is an exact
    number or a `Poly`: elimination only divides by matrix entries, so a
    symbolic right side takes the same steps and yields a `Poly` solution.
    There "infeasible" means a non-zero residual polynomial, one that does
    not vanish identically.  Returns the unique solution, its numbers in the
    normal form of `scalar`, when the rank equals the unknown count, otherwise
    the Underdetermined / Infeasible variants.
    A row-count mismatch or a ragged matrix raises ValueError.
    """
    m = [[rat(x) for x in row] for row in matrix]
    t = [x if isinstance(x, Poly) else rat(x) for x in rhs]
    if len(m) != len(t):
        raise ValueError("matrix and rhs have different row counts")
    if m and any(len(row) != len(m[0]) for row in m):
        raise ValueError("ragged matrix")
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        t[r], t[pivot] = t[pivot], t[r]
        for i in range(r + 1, n_rows):
            if m[i][c] == 0:
                continue
            f = m[i][c] / m[r][c]
            for j in range(c, n_cols):
                m[i][j] -= f * m[r][j]
            t[i] -= f * t[r]
        r += 1
    for i in range(r, n_rows):
        if t[i] != 0:
            return INFEASIBLE
    if r < n_cols:
        return UNDERDETERMINED
    # full column rank: every column has a pivot, so pivot k sits at (k, k)
    x = [Fraction(0)] * n_cols
    for k in range(n_cols - 1, -1, -1):
        s = t[k]
        for j in range(k + 1, n_cols):
            s -= m[k][j] * x[j]
        x[k] = s / m[k][k]
    return LinearSolution("unique", tuple(v if isinstance(v, Poly) else scalar(v) for v in x))
