"""Exact coefficient domains: rationals, rational functions in one
parameter, and quadratic extension towers of depth at most 2.

All three kinds interoperate with ``int`` and ``fractions.Fraction``
through the usual arithmetic operators, so polynomial and linear-algebra
code can stay generic over the coefficient type.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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


def scalar_str(x) -> str:
    """Canonical exact string form ("-3/4", "(b+1)/(b-2)", ...)."""
    return str(x)


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
# univariate polynomials over Q, used as numerator/denominator of RationalFunc
# (coefficient tuples, constant term first, no trailing zeros)

def _utrim(c: Sequence[Fraction]) -> tuple:
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _uadd(a, b):
    n = max(len(a), len(b))
    return _utrim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                   for i in range(n)])


def _uneg(a):
    return tuple(-x for x in a)


def _umul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _utrim(out)


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


_ONE = (Fraction(1),)


class RationalFunc:
    """Exact rational function in one named parameter over Q.

    Canonical form: ``num`` and ``den`` are trimmed coefficient tuples of
    ``Fraction``s, coprime, with ``den`` monic, so equality and hashing
    compare tuples. The general constructor restores that form with a
    polynomial gcd. An operation skips the gcd only where the gcd is
    provably 1, and then builds its result with ``_canonical``:

    - any denominator of length 1 (the gcd with a constant is a unit);
    - ``r + p`` and ``r - p`` for a polynomial ``p`` (including a constant):
      ``(num + p*den)/den``, since gcd(num + p*den, den) = gcd(num, den);
    - ``c*r`` and ``r/c`` for a nonzero constant ``c``, and negation, which
      scale ``num`` only;
    - the product of two polynomials.

    Every other quotient and product keeps the general constructor.
    """

    __slots__ = ("var", "num", "den")

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
        lc = den[-1]
        if lc != 1:
            num = tuple(c / lc for c in num)
            den = tuple(c / lc for c in den)
        self.var = var
        self.num = num
        self.den = den

    @classmethod
    def _canonical(cls, num, den, var) -> "RationalFunc":
        """Wrap a pair that is already in canonical form."""
        r = object.__new__(cls)
        r.var = var
        r.num = num
        r.den = den
        return r

    @classmethod
    def const(cls, q, var="b") -> "RationalFunc":
        q = as_fraction(q)
        return cls._canonical((q,) if q else (), _ONE, var)

    @classmethod
    def gen(cls, var="b") -> "RationalFunc":
        return cls._canonical((Fraction(0), Fraction(1)), _ONE, var)

    # -- predicates

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and len(self.den) == 1

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ScalarError(f"not constant: {self}")
        return self.num[0] / self.den[0] if self.num else Fraction(0)

    # -- coercion

    def _coerce(self, other):
        if isinstance(other, RationalFunc):
            if other.var != self.var:
                raise ScalarError("parameter name mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunc.const(other, var=self.var)
        return None

    # -- arithmetic

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if len(self.den) > 1 and len(o.den) > 1:
            return RationalFunc(_uadd(_umul(self.num, o.den), _umul(o.num, self.den)),
                                _umul(self.den, o.den), var=self.var)
        if len(o.den) > 1:
            self, o = o, self
        # o is a polynomial, so (num + o*den)/den is already in lowest terms
        shifted = _umul(o.num, self.den) if len(self.den) > 1 else o.num
        return RationalFunc._canonical(_uadd(self.num, shifted), self.den, self.var)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunc._canonical(_uneg(self.num), self.den, self.var)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, c: Fraction) -> "RationalFunc":
        num = tuple(x * c for x in self.num) if c else ()
        return RationalFunc._canonical(num, self.den if c else _ONE, self.var)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_constant():
            return self._scale(o.num[0] if o.num else 0)
        if self.is_constant():
            return o._scale(self.num[0] if self.num else 0)
        if len(self.den) == 1 and len(o.den) == 1:
            return RationalFunc._canonical(_umul(self.num, o.num), _ONE, self.var)
        return RationalFunc(_umul(self.num, o.num), _umul(self.den, o.den),
                            var=self.var)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("division by zero rational function")
        if o.is_constant():
            return self._scale(1 / o.num[0])
        return RationalFunc(_umul(self.num, o.den), _umul(self.den, o.num),
                            var=self.var)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if k < 0:
            return (RationalFunc.const(1, var=self.var) / self) ** (-k)
        if not k:
            return RationalFunc.const(1, var=self.var)
        return positive_power(self, k)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # a constant equals, so must hash as, the Fraction it holds
        if self.is_constant():
            return hash(self.as_fraction())
        return hash((self.var, self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def __call__(self, value):
        """Evaluate at an exact value (Fraction or another RationalFunc)."""
        n = _ueval(self.num, value) if self.num else (
            value * 0 if isinstance(value, RationalFunc) else Fraction(0))
        d = _ueval(self.den, value)
        if isinstance(value, (int, Fraction)):
            if d == 0:
                raise ZeroDivisionError(f"pole of {self} at {value}")
            return as_fraction(n) / as_fraction(d)
        return n / d

    def __str__(self):
        ns = _ustr(self.num, self.var)
        if self.den == _ONE:
            return ns
        return f"({ns})/({_ustr(self.den, self.var)})"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# quadratic extension towers

class Tower:
    """A tower Q(g1, g2, ...) with each generator a declared square root.

    ``squares[i]`` is the square of generator ``i``, an element of the
    sub-tower of depth ``i`` (a Fraction at depth 0). Depth is capped at 2.
    """

    def __init__(self, names: Sequence[str] = (), squares: Sequence = ()):
        if len(names) != len(squares):
            raise ScalarError("names/squares length mismatch")
        if len(names) > 2:
            raise ScalarError("extension tower deeper than 2 not supported")
        self.names = tuple(names)
        self.squares = []
        for i, s in enumerate(squares):
            if isinstance(s, TowerElement):
                s = s.vec
            elif isinstance(s, (int, Fraction)):
                s = (as_fraction(s),)
            self.squares.append(_resize(s, 1 << i))

    @property
    def depth(self) -> int:
        return len(self.names)

    @property
    def dim(self) -> int:
        return 1 << self.depth

    def basis_labels(self):
        labels = ["1"]
        for name in self.names:
            labels = labels + [lb + "*" + name if lb != "1" else name
                               for lb in labels]
        return labels

    def const(self, q) -> "TowerElement":
        return TowerElement(self, [as_fraction(q)] + [Fraction(0)] * (self.dim - 1))

    def generator(self, i: int) -> "TowerElement":
        v = [Fraction(0)] * self.dim
        v[1 << i] = Fraction(1)
        return TowerElement(self, v)

    def extend(self, name: str, square) -> "Tower":
        sq = square.vec if isinstance(square, TowerElement) else as_fraction(square)
        return Tower(self.names + (name,), list(self.squares) + [sq])

    def lift(self, elem: "TowerElement") -> "TowerElement":
        """Re-express an element of a sub-tower in this tower."""
        return TowerElement(self, _resize(elem.vec, self.dim))


def _resize(vec, n):
    vec = list(vec)
    if len(vec) > n:
        if any(vec[n:]):
            raise ScalarError("element does not fit in sub-tower")
        vec = vec[:n]
    return tuple(vec) + (Fraction(0),) * (n - len(vec))


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vneg(a):
    return tuple(-x for x in a)


def _vmul(squares, a, b):
    """Multiply two coordinate vectors of length 2**d recursively."""
    n = len(a)
    if n == 1:
        return (a[0] * b[0],)
    h = n // 2
    s = squares[-1]  # square of the top generator, vector of length h
    sq = _resize(s, h)
    a0, a1 = a[:h], a[h:]
    b0, b1 = b[:h], b[h:]
    sub = squares[:-1]
    lo = _vadd(_vmul(sub, a0, b0), _vmul(sub, _vmul(sub, a1, b1), sq))
    hi = _vadd(_vmul(sub, a0, b1), _vmul(sub, a1, b0))
    return lo + hi


def _vinv(squares, a):
    n = len(a)
    if n == 1:
        if not a[0]:
            raise ZeroDivisionError("division by zero tower element")
        return (1 / a[0],)
    h = n // 2
    sq = _resize(squares[-1], h)
    a0, a1 = a[:h], a[h:]
    sub = squares[:-1]
    norm = _vadd(_vmul(sub, a0, a0), _vneg(_vmul(sub, _vmul(sub, a1, a1), sq)))
    ninv = _vinv(sub, norm)
    return _vmul(sub, a0, ninv) + _vneg(_vmul(sub, a1, ninv))


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

    def _squares(self):
        return [self.tower.squares[i] for i in range(self.tower.depth)]

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return TowerElement(self.tower, _vadd(self.vec, o.vec))

    __radd__ = __add__

    def __neg__(self):
        return TowerElement(self.tower, _vneg(self.vec))

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
        return TowerElement(self.tower, _vmul(self._squares(), self.vec, o.vec))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * TowerElement(self.tower, _vinv(self._squares(), o.vec))

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
        if self.is_rational():
            return hash(self.vec[0])
        return hash((self.tower.names, self.vec))

    def __bool__(self):
        return any(self.vec)

    def is_rational(self) -> bool:
        return not any(self.vec[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ScalarError(f"not rational: {self}")
        return self.vec[0]

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
