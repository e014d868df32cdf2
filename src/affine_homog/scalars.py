"""Exact coefficient domains: rationals, rational functions in one
parameter, and towers of at most two square roots of rationals.

All three kinds interoperate with ``int`` and ``fractions.Fraction``
through the usual arithmetic operators, so polynomial and linear-algebra
code can stay generic over the coefficient type.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, neg
from typing import Collection, List, Optional, Sequence, Tuple


class ScalarError(ArithmeticError):
    pass


class InputError(ValueError):
    """A malformed or inconsistent input, not a mathematical failure."""


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise ScalarError(f"not a rational: {x!r}")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" with optional sign, exactly. Exponent notation
    is refused before ``Fraction`` would build its power of ten."""
    try:
        if "e" in text.lower():
            raise ValueError("exponent notation")
        return Fraction(text.strip())
    except (AttributeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational: {text!r}") from exc


def positive_power(x, k: int):
    """``x`` to the power ``k`` >= 1 by repeated squaring from the lowest
    set bit: ``k.bit_length() - 1`` squarings and one product for each
    further set bit."""
    out = None
    while True:
        if k & 1:
            out = x if out is None else out * x
        k >>= 1
        if not k:
            return out
        x = x * x


# ---------------------------------------------------------------------------
# univariate polynomials over Q (Fraction coefficients) or Z (int ones, as in
# RationalFunc): coefficient tuples, constant term first, no trailing zeros

def _utrim(c: Sequence[Fraction]) -> tuple:
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _umul(a, b):
    """The product of two coefficient tuples (ints or Fractions) with
    nonzero last entries, which has one too."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _udivmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    while len(a) >= len(b) and _utrim(a):
        a = list(_utrim(a))
        if len(a) < len(b):
            break
        k = len(a) - len(b)
        c = a[-1] / lead
        q[k] = c
        for i, y in enumerate(b):
            a[i + k] -= c * y
        a.pop()
    return _utrim(q), _utrim(a)


def _ugcd(a, b):
    while b:
        a, b = b, _udivmod(a, b)[1]
    if a:
        a = tuple(x / a[-1] for x in a)  # monic
    return a


def _ueval(a, v):
    acc = 0
    for c in reversed(a):
        acc = acc * v + c
    return acc


def _ustr(a, var):
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if not c:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            xs = var if k == 1 else f"{var}^{k}"
            if c == 1:
                parts.append(xs)
            elif c == -1:
                parts.append(f"-{xs}")
            else:
                parts.append(f"{c}*{xs}")
    out = parts[0]
    for p in parts[1:]:
        out += f"+{p}" if not p.startswith("-") else p
    return out


def _primitive_part(ints: List[int]) -> Tuple[int, tuple]:
    """(g, ints / g) for g the content of a list of ints whose last entry
    is nonzero, signed so that the part has a positive last entry."""
    g = gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return g, tuple(c // g for c in ints)


def _split(coeffs) -> Tuple[Fraction, tuple]:
    """(content, primitive part) of trimmed Fraction coefficients."""
    if not coeffs:
        return Fraction(0), ()
    ints, den = over_common_denominator(coeffs)
    g, part = _primitive_part(ints)
    return Fraction(g, den), part


def _sum(s1, n1, s2, n2) -> Tuple[Fraction, tuple]:
    """s1*n1 + s2*n2 for rational s1, s2 and integer tuples n1, n2, as
    (content, primitive part); zero is (0, ())."""
    q1, q2 = s1.denominator, s2.denominator
    a, b = s1.numerator * q2, s2.numerator * q1
    if len(n1) < len(n2):
        a, n1, b, n2 = b, n2, a, n1
    m = [a * c for c in n1]
    for i, c in enumerate(n2):
        m[i] += b * c
    while m and not m[-1]:
        m.pop()
    if not m:
        return Fraction(0), ()
    g, part = _primitive_part(m)
    return Fraction(g, q1 * q2), part


_ONE = (1,)


class RationalFunc:
    """Exact rational function in one named parameter over Q.

    Canonical form: the value is ``s * N(b) / D(b)`` with ``s`` one
    ``Fraction`` and ``N``, ``D`` coprime tuples of ``int`` (constant term
    first, no trailing zeros), each primitive with a positive last entry;
    zero is ``s = 0``, ``N = ()``, ``D = (1,)``. The form is unique, so
    equality compares the three fields. ``num`` and ``den`` read the value
    as coprime ``Fraction`` tuples with ``den`` monic, and the hash is
    taken of those.

    The arithmetic is on the integer tuples, with one ``Fraction``
    operation on the contents. The general constructor divides out a
    polynomial gcd over Q; an operation skips it where the gcd is
    provably 1:

    - the product of two polynomials, ``s1*s2 * N1*N2``: by Gauss's lemma
      a product of primitive polynomials is primitive, so nothing is
      divided at all;
    - a product by or a quotient by a constant, and negation, which change
      ``s`` only (an ``int`` or ``Fraction`` operand is taken as it is);
    - a sum with a polynomial ``p`` (a constant included),
      ``(s*N + p*D)/D``: gcd(s*N + p*D, D) = gcd(N, D) = 1, so only the
      integer content of the new numerator is divided out.

    A sum of two values with non-constant denominators, every other
    product and every quotient by a non-constant value run the general
    constructor.
    """

    __slots__ = ("var", "s", "n", "d")

    def __init__(self, num, den=_ONE, var="b"):
        num = _utrim([as_fraction(c) for c in num])
        den = _utrim([as_fraction(c) for c in den])
        if not den:
            raise ZeroDivisionError("zero denominator")
        if len(den) > 1:
            g = _ugcd(num, den)
            if len(g) > 1:
                num = _udivmod(num, g)[0]
                den = _udivmod(den, g)[0]
        self.var = var
        self.s, self.n = _split(num)
        content, self.d = _split(den)
        self.s /= content

    @classmethod
    def _canonical(cls, s, n, d, var) -> "RationalFunc":
        """Wrap fields that are already in canonical form."""
        r = object.__new__(cls)
        r.var = var
        r.s = s
        r.n = n
        r.d = d
        return r

    @classmethod
    def _reduced(cls, s, n, d, var) -> "RationalFunc":
        """The general constructor, on s * n/d for integer tuples n, d."""
        r = cls(n, d, var)
        r.s *= s
        return r

    @classmethod
    def const(cls, q, var="b") -> "RationalFunc":
        q = as_fraction(q)
        return cls._canonical(q, _ONE if q else (), _ONE, var)

    @classmethod
    def gen(cls, var="b") -> "RationalFunc":
        return cls._canonical(Fraction(1), (0, 1), _ONE, var)

    @property
    def num(self) -> tuple:
        """The numerator's Fraction coefficients over the monic ``den``."""
        k = self.s / self.d[-1]
        return tuple(k * c for c in self.n)

    @property
    def den(self) -> tuple:
        """The monic denominator's Fraction coefficients."""
        lc = self.d[-1]
        return tuple(Fraction(c, lc) for c in self.d)

    # -- predicates

    def is_constant(self) -> bool:
        return len(self.n) <= 1 and len(self.d) == 1

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ScalarError(f"not constant: {self}")
        return self.s

    # -- coercion

    def _operand(self, other):
        """(s, N, D) of a RationalFunc in this parameter, or of an int or
        Fraction ``c`` as (c, (1,), (1,)); None for any other type."""
        if isinstance(other, RationalFunc):
            if other.var != self.var:
                raise ScalarError("parameter name mismatch")
            return other.s, other.n, other.d
        if isinstance(other, (int, Fraction)):
            return other, _ONE, _ONE
        return None

    # -- arithmetic

    def _plus(self, s2, n2, d2) -> "RationalFunc":
        if not s2:
            return self
        s1, n1, d1 = self.s, self.n, self.d
        if len(d1) > 1 and len(d2) > 1:
            s, n = _sum(s1, _umul(n1, d2), s2, _umul(n2, d1))
            return RationalFunc._reduced(s, n, _umul(d1, d2), self.var)
        if len(d2) > 1:
            s1, n1, d1, s2, n2, d2 = s2, n2, d2, s1, n1, d1
        # s2*n2 is a polynomial, so (s1*n1 + s2*n2*d1)/d1 is in lowest
        # terms; it is zero only if d1 is 1
        s, n = _sum(s1, n1, s2, _umul(n2, d1) if len(d1) > 1 else n2)
        return RationalFunc._canonical(s, n, d1, self.var)

    def __add__(self, other):
        t = self._operand(other)
        if t is None:
            return NotImplemented
        return self._plus(*t)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunc._canonical(-self.s, self.n, self.d, self.var)

    def __sub__(self, other):
        t = self._operand(other)
        if t is None:
            return NotImplemented
        return self._plus(-t[0], t[1], t[2])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        t = self._operand(other)
        if t is None:
            return NotImplemented
        s2, n2, d2 = t
        s = self.s * s2
        if not s:
            return RationalFunc.const(0, self.var)
        n1, d1 = self.n, self.d
        if len(n2) == 1 and len(d2) == 1:
            return RationalFunc._canonical(s, n1, d1, self.var)
        if len(n1) == 1 and len(d1) == 1:
            return RationalFunc._canonical(s, n2, d2, self.var)
        if len(d1) == 1 and len(d2) == 1:
            return RationalFunc._canonical(s, _umul(n1, n2), _ONE, self.var)
        return RationalFunc._reduced(s, _umul(n1, n2), _umul(d1, d2), self.var)

    __rmul__ = __mul__

    def __truediv__(self, other):
        t = self._operand(other)
        if t is None:
            return NotImplemented
        s2, n2, d2 = t
        if not s2:
            raise ZeroDivisionError("division by zero rational function")
        if len(n2) == 1 and len(d2) == 1:
            return RationalFunc._canonical(self.s / s2, self.n, self.d, self.var)
        return RationalFunc._reduced(self.s / s2, _umul(self.n, d2),
                                     _umul(self.d, n2), self.var)

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return RationalFunc.const(other, var=self.var) / self

    def __pow__(self, k: int):
        if k < 0:
            return (RationalFunc.const(1, var=self.var) / self) ** (-k)
        if not k:
            return RationalFunc.const(1, var=self.var)
        return positive_power(self, k)

    def __eq__(self, other):
        t = self._operand(other)
        if t is None:
            return NotImplemented
        s2, n2, d2 = t
        return self.s == s2 and (not s2 or (self.n == n2 and self.d == d2))

    def __hash__(self):
        # a constant equals, so must hash as, the Fraction it holds
        if self.is_constant():
            return hash(self.s)
        return hash((self.var, self.num, self.den))

    def __bool__(self):
        return bool(self.s)

    def __call__(self, value):
        """Evaluate at an exact value (Fraction or another RationalFunc)."""
        num = self.num
        n = _ueval(num, value) if num else (
            value * 0 if isinstance(value, RationalFunc) else Fraction(0))
        d = _ueval(self.den, value)
        if isinstance(value, (int, Fraction)):
            if d == 0:
                raise ZeroDivisionError(f"pole of {self} at {value}")
            return as_fraction(n) / as_fraction(d)
        return n / d

    def __str__(self):
        ns = _ustr(self.num, self.var)
        if len(self.d) == 1:
            return ns
        return f"({ns})/({_ustr(self.den, self.var)})"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# quadratic extension towers

class Tower:
    """A tower Q(g_1, ..., g_n), n <= 2, with each generator a declared
    square root of a nonzero rational, ``squares[i] = g_i^2``.

    The coordinate at index S is that of the basis product g_S of the
    generators in the bit set S, so g_S g_T = (prod_{i in S & T} a_i)
    g_{S ^ T} with a_i = ``squares[i]``. No product of squares may be a
    rational square, so the tower is a field: the norm of a nonzero
    element, its product with its conjugates (the element with the signs
    of the generators in a nonempty set T flipped), is a nonzero rational.
    """

    def __init__(self, names: Sequence[str] = (), squares: Sequence = ()):
        if len(names) != len(squares):
            raise ScalarError("names/squares length mismatch")
        if len(names) > 2:
            raise ScalarError("extension tower deeper than 2 not supported")
        self.names = tuple(names)
        self.squares = tuple(as_fraction(a) for a in squares)
        # factors[S]: the product of the squares of the generators in S
        self.factors = [Fraction(1)]
        for a in self.squares:
            self.factors += [f * a for f in self.factors]
        if any(rational_sqrt(f) is not None for f in self.factors[1:]):
            raise ScalarError("the squares do not give a field")
        self.dim = len(self.factors)

    def basis_labels(self):
        return ["*".join(n for i, n in enumerate(self.names) if s >> i & 1) or "1"
                for s in range(self.dim)]

    def const(self, q) -> "TowerElement":
        return TowerElement(self, [as_fraction(q)] + [Fraction(0)] * (self.dim - 1))

    def generator(self, i: int) -> "TowerElement":
        v = [Fraction(0)] * self.dim
        v[1 << i] = Fraction(1)
        return TowerElement(self, v)

    def mul(self, a, b) -> tuple:
        """The product of two coordinate vectors."""
        out = [Fraction(0)] * len(a)
        for s, x in enumerate(a):
            if x:
                for t, y in enumerate(b):
                    if y:
                        out[s ^ t] += self.factors[s & t] * x * y
        return tuple(out)

    def inverse(self, a) -> tuple:
        """The inverse of a coordinate vector: the product of its
        conjugates over its norm."""
        num = (Fraction(1),) + (Fraction(0),) * (len(a) - 1)
        for t in range(1, len(a)):
            num = self.mul(num, [-x if (s & t).bit_count() & 1 else x
                                 for s, x in enumerate(a)])
        norm = self.mul(a, num)[0]
        if not norm:
            raise ZeroDivisionError("division by zero tower element")
        return tuple(x / norm for x in num)


class TowerElement:
    """Element of a quadratic extension tower, coordinates on the
    multiplicative basis of the declared generators."""

    __slots__ = ("tower", "vec")

    def __init__(self, tower: Tower, coords):
        self.tower = tower
        vec = [as_fraction(c) for c in coords]
        if len(vec) != tower.dim:
            raise ScalarError("coordinate length mismatch")
        self.vec = tuple(vec)

    def _coerce(self, other):
        if isinstance(other, TowerElement):
            if other.tower is self.tower or (
                    other.tower.names == self.tower.names
                    and other.tower.squares == self.tower.squares):
                return other
            raise ScalarError("tower mismatch")
        if isinstance(other, (int, Fraction)):
            return self.tower.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return TowerElement(self.tower, map(add, self.vec, o.vec))

    __radd__ = __add__

    def __neg__(self):
        return TowerElement(self.tower, map(neg, self.vec))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return TowerElement(self.tower, self.tower.mul(self.vec, o.vec))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * TowerElement(self.tower, self.tower.inverse(o.vec))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.vec == o.vec

    def __hash__(self):
        # a rational element equals, so must hash as, its Fraction
        if not any(self.vec[1:]):
            return hash(self.vec[0])
        return hash((self.tower.names, self.vec))

    def __bool__(self):
        return any(self.vec)

    def to_json(self):
        return {"basis": self.tower.basis_labels(),
                "coords": [str(c) for c in self.vec]}

    def __str__(self):
        labels = self.tower.basis_labels()
        parts = [f"{c}*{lb}" if lb != "1" else str(c)
                 for c, lb in zip(self.vec, labels) if c]
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


def primitive(ints: List[int]) -> List[int]:
    """An integer vector divided by its content (zero stays zero)."""
    g = gcd(*ints)
    return [a // g for a in ints] if g > 1 else ints


def over_common_denominator(vec: Collection[Fraction]) -> Tuple[List[int], int]:
    """(numerators, den): a vector of rationals as integers over the lcm
    of its denominators."""
    den = lcm(*(c.denominator for c in vec))
    return [c.numerator * (den // c.denominator) for c in vec], den


def primitive_integers(vec: Sequence[Fraction]) -> List[int]:
    """The primitive integer vector that is a positive multiple of a
    vector of rationals."""
    return primitive(over_common_denominator(vec)[0])


def _iroot_exact(m: int, n: int) -> Optional[int]:
    """r with r**n == m for an integer m >= 0, or None."""
    if m < 2:
        return m
    # integer Newton iteration from above converges to floor(m ** (1/n))
    r = 1 << -(-m.bit_length() // n)
    while True:
        s = ((n - 1) * r + m // r ** (n - 1)) // n
        if s >= r:
            break
        r = s
    return r if r ** n == m else None


def rational_nth_root(q: Fraction, n: int):
    """Exact n-th root of a positive rational, or None."""
    q = as_fraction(q)
    if q <= 0 or n <= 0:
        return None
    rn = _iroot_exact(q.numerator, n)
    rd = _iroot_exact(q.denominator, n)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


def rational_sqrt(q: Fraction):
    """Exact square root of a non-negative rational, or None."""
    q = as_fraction(q)
    return q if q == 0 else rational_nth_root(q, 2)


def ratfunc_sqrt(r: RationalFunc) -> Optional[RationalFunc]:
    """Exact square root of a rational function, or None. Numerator and
    denominator are coprime, so each must be a square; the root of each
    is solved from the top coefficient down and checked by squaring."""
    roots = []
    for a in (r.num, r.den):
        if not a:
            roots.append(())
            continue
        d = len(a) - 1
        lead = rational_sqrt(a[-1]) if d % 2 == 0 else None
        if lead is None:
            return None
        h = d // 2
        q = [Fraction(0)] * (h + 1)
        q[h] = lead
        # coefficient k of q*q is 2*lead*q[k-h] plus products of known entries
        for k in range(d - 1, h - 1, -1):
            s = sum((q[i] * q[k - i] for i in range(k - h + 1, h)), Fraction(0))
            q[k - h] = (a[k] - s) / (2 * lead)
        if _umul(q, q) != a:
            return None
        roots.append(q)
    return RationalFunc(*roots, var=r.var)
