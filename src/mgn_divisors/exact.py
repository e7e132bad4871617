"""Exact scalar arithmetic: rationals, multivariate polynomials, linear solving.

Everything in this package computes over these types; there is no floating
point anywhere.  Rationals are `fractions.Fraction` (arbitrary precision,
always in lowest terms) and serialize as "p/q" strings, never as floats.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction


Scalar = int | Fraction

_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def rat(x) -> Fraction:
    """Coerce an int or Fraction to Fraction; reject floats outright."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def rat_str(x: Scalar) -> str:
    """Canonical wire form: "p/q", or just "p" when the denominator is 1."""
    return str(rat(x))


def parse_rat(s: str) -> Fraction:
    s = s.strip()
    if not _RAT_RE.match(s):
        raise ValueError(f"not a rational literal: {s!r}")
    return Fraction(s)


class Poly:
    """Multivariate polynomial with exact rational coefficients over named variables.

    Canonical form: variable names sorted, variables that do not occur are
    dropped, no zero terms.  Equality is therefore decidable by direct
    comparison of the term maps.  Instances are immutable.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables=(), terms=None):
        variables = tuple(variables)
        raw = {}
        for expo, coef in (terms or {}).items():
            expo = tuple(expo)
            if len(expo) != len(variables):
                raise ValueError("exponent vector length does not match variables")
            coef = rat(coef)
            if coef:
                raw[expo] = raw.get(expo, Fraction(0)) + coef
        raw = {e: c for e, c in raw.items() if c}
        used = [k for k in range(len(variables)) if any(e[k] for e in raw)]
        names = sorted(variables[k] for k in used)
        order = [variables.index(nm) for nm in names]
        object.__setattr__(self, "variables", tuple(names))
        object.__setattr__(
            self, "terms", {tuple(e[k] for k in order): c for e, c in raw.items()}
        )

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @classmethod
    def var(cls, name: str) -> "Poly":
        return cls((name,), {(1,): Fraction(1)})

    @classmethod
    def const(cls, c: Scalar) -> "Poly":
        return cls((), {(): rat(c)} if c else {})

    @property
    def is_constant(self) -> bool:
        return not self.variables

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return self.terms.get((), Fraction(0))

    def _aligned(self, other: "Poly"):
        names = tuple(sorted(set(self.variables) | set(other.variables)))

        def remap(p):
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
        return Poly.const(rat(x))

    def __add__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        names, a, b = self._aligned(other)
        out = dict(a)
        for e, c in b.items():
            out[e] = out.get(e, Fraction(0)) + c
        return Poly(names, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.variables, {e: -c for e, c in self.terms.items()})

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
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return Poly(names, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = rat(other)
        if not c:
            raise ZeroDivisionError("division of Poly by zero")
        return Poly(self.variables, {e: v / c for e, v in self.terms.items()})

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("Poly exponent must be a non-negative integer")
        out = Poly.const(1)
        for _ in range(k):
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

    def eval(self, assignment) -> Fraction:
        """Exact evaluation; every variable must be bound."""
        missing = [v for v in self.variables if v not in assignment]
        if missing:
            raise ValueError(f"missing variable binding(s): {', '.join(missing)}")
        total = Fraction(0)
        for expo, coef in self.terms.items():
            v = coef
            for name, e in zip(self.variables, expo):
                v *= rat(assignment[name]) ** e
            total += v
        return total

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
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
        return "Poly(" + " + ".join(parts) + ")"


@dataclass(frozen=True)
class LinearSystem:
    """A rectangular exact linear system matrix * x = rhs."""

    matrix: tuple
    rhs: tuple

    def __init__(self, matrix, rhs):
        matrix = tuple(tuple(rat(x) for x in row) for row in matrix)
        rhs = tuple(rat(x) for x in rhs)
        if len(matrix) != len(rhs):
            raise ValueError("matrix and rhs have different row counts")
        if matrix and any(len(r) != len(matrix[0]) for r in matrix):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "rhs", rhs)


@dataclass(frozen=True)
class LinearSolution:
    status: str  # "unique" | "underdetermined" | "infeasible"
    vector: tuple | None = None

    @property
    def is_unique(self) -> bool:
        return self.status == "unique"


UNDERDETERMINED = LinearSolution("underdetermined")
INFEASIBLE = LinearSolution("infeasible")


def solve_linear(system: LinearSystem) -> LinearSolution:
    """Exact Gaussian elimination, pivot on first nonzero entry (deterministic).

    Returns the unique solution when rank equals the unknown count, otherwise
    the Underdetermined / Infeasible variants.  Never approximate.
    """
    m = [list(row) for row in system.matrix]
    t = list(system.rhs)
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    piv_rows: list[int] = []
    piv_cols: list[int] = []
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
        piv_rows.append(r)
        piv_cols.append(c)
        r += 1
    for i in range(r, n_rows):
        if t[i] != 0:
            return INFEASIBLE
    if len(piv_cols) < n_cols:
        return UNDERDETERMINED
    x = [Fraction(0)] * n_cols
    for k in range(len(piv_cols) - 1, -1, -1):
        row, col = piv_rows[k], piv_cols[k]
        s = t[row]
        for j in range(col + 1, n_cols):
            s -= m[row][j] * x[j]
        x[col] = s / m[row][col]
    return LinearSolution("unique", tuple(x))


def invert_matrix(matrix) -> list[list[Fraction]]:
    """Exact inverse of a square matrix; raises on singular input."""
    n = len(matrix)
    cols = []
    for j in range(n):
        e = [Fraction(1) if i == j else Fraction(0) for i in range(n)]
        sol = solve_linear(LinearSystem(matrix, e))
        if not sol.is_unique:
            raise ValueError("matrix is singular")
        cols.append(sol.vector)
    return [[cols[j][i] for j in range(n)] for i in range(n)]
