"""Sparse multivariate polynomials over an exact coefficient domain.

Exponent vectors are tuples aligned with an explicit ambient variable
list. Stored terms never carry zero coefficients. ``grevlex_key`` sorts
monomials for display and for the order of equations; the Groebner
bases take lex, which compares exponent tuples as they are.
Coefficients may be Fractions, rational functions, tower elements, or
(for constraint bookkeeping) other Polys.

Every product goes through ``_mul_terms``. When both operands have at
least two terms and every coefficient is exactly a Fraction, it works
fraction-free: each operand is scaled to integer numerators over the lcm
of its denominators, the integer products are summed per monomial, and
each nonzero sum becomes one Fraction over the product of the two
denominators, so a gcd is paid once per output term instead of once per
pair. Any other operand takes the term-by-term loop. The value decides
the branch, and both give the same terms of the same types. A product
kept to degrees lo..hi visits only the pairs it keeps (``_windows``).
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .scalars import (RationalFunc, TowerElement, over_common_denominator,
                      positive_power)

Mono = Tuple[int, ...]

XYZ = ("x", "y", "z")

# the coefficient types a polynomial compares equal to as a constant
_SCALARS = (int, Fraction, RationalFunc, TowerElement)


class VariableMismatch(ValueError):
    pass


def grevlex_key(m: Mono):
    """Sort key: ascending order ends at the grevlex-largest monomial."""
    return (sum(m), tuple(-e for e in reversed(m)))


def _add_terms(d: Dict[Mono, object], terms: Iterable[Tuple[Mono, object]]):
    """Add the (monomial, coefficient) pairs ``terms`` into ``d`` in place,
    in their order, dropping cancelled entries."""
    for m, c in terms:
        if m in d:
            s = d[m] + c
            if s:
                d[m] = s
            else:
                del d[m]
        elif c:
            d[m] = c


def _windows(b: Iterable[Tuple[Mono, object]], max_degree, min_degree: int):
    """d1 -> the terms of b whose degree d2 has min_degree <= d1 + d2 <=
    max_degree (all of b for a max_degree of None), in b's order. Each
    degree's window is filtered once, so a product visits only the pairs
    it keeps."""
    if max_degree is None:
        return lambda d1: b
    b = [(m, sum(m), x) for m, x in b]
    cache: Dict[int, list] = {}

    def window(d1):
        if d1 not in cache:
            cache[d1] = [(m, x) for m, d2, x in b if min_degree <= d1 + d2 <= max_degree]
        return cache[d1]
    return window


def _mul_terms(a: Mapping[Mono, object], b: Mapping[Mono, object],
               max_degree, min_degree: int = 0) -> Dict[Mono, object]:
    """Product of two term dicts, with only the terms of degrees
    ``min_degree..max_degree`` (a ``max_degree`` of None keeps all); each
    coefficient is ``ca * cb``. Two Fraction operands of several terms are
    multiplied fraction-free (see the module docstring)."""
    if (len(a) > 1 and len(b) > 1
            and all(type(c) is Fraction for c in a.values())
            and all(type(c) is Fraction for c in b.values())):
        na, da = over_common_denominator(a.values())
        nb, db = over_common_denominator(b.values())
        window = _windows(list(zip(b, nb)), max_degree, min_degree)
        sums: Dict[Mono, int] = {}
        for m1, n1 in zip(a, na):
            for m2, n2 in window(sum(m1)):
                m = tuple(map(add, m1, m2))
                sums[m] = sums.get(m, 0) + n1 * n2
        den = da * db
        return {m: Fraction(n, den) for m, n in sums.items() if n}
    window = _windows(b.items(), max_degree, min_degree)
    d: Dict[Mono, object] = {}
    for m1, c1 in a.items():
        for m2, c2 in window(sum(m1)):
            m = tuple(x + y for x, y in zip(m1, m2))
            c = c1 * c2
            if m in d:
                s = d[m] + c
                if s:
                    d[m] = s
                else:
                    del d[m]
            elif c:
                d[m] = c
    return d


class Poly:
    """Immutable sparse polynomial."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Mapping[Mono, object] = ()):
        """Validate and merge ``terms`` (a mapping or (exponents,
        coefficient) pairs): check each arity, drop zero coefficients and
        sum repeated monomials."""
        self.vars = tuple(vars)
        d: Dict[Mono, object] = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for m, c in items:
            if len(m) != len(self.vars):
                raise VariableMismatch("exponent arity mismatch")
            if c:
                m = tuple(m)
                if m in d:
                    c = d[m] + c
                    if c:
                        d[m] = c
                    else:
                        del d[m]
                else:
                    d[m] = c
        self.terms = d

    @classmethod
    def _canonical(cls, vars: Tuple[str, ...], terms: Dict[Mono, object]) -> "Poly":
        """Wrap a term dict that is already canonical: tuple exponents of
        the arity of ``vars`` (a tuple) and no zero coefficient."""
        p = object.__new__(cls)
        p.vars = vars
        p.terms = terms
        return p

    # -- constructors

    @classmethod
    def zero(cls, vars: Sequence[str] = XYZ) -> "Poly":
        return cls(vars)

    @classmethod
    def const(cls, c, vars: Sequence[str] = XYZ) -> "Poly":
        if isinstance(c, int):
            c = Fraction(c)
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def var(cls, name: str, vars: Sequence[str] = XYZ) -> "Poly":
        vars = tuple(vars)
        i = vars.index(name)
        m = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls(vars, {m: Fraction(1)})

    # -- basic queries

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def coefficient(self, expo: Mono):
        return self.terms.get(tuple(expo), Fraction(0))

    def constant_term(self):
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def sorted_terms(self):
        """Terms in descending grevlex order (leading term first)."""
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]),
                      reverse=True)

    # -- arithmetic

    def _check(self, other: "Poly"):
        if self.vars != other.vars:
            raise VariableMismatch(f"{self.vars} vs {other.vars}")

    def _coerce(self, other):
        if isinstance(other, Poly):
            self._check(other)
            return other
        if not isinstance(other, _SCALARS):
            raise TypeError(f"cannot combine a polynomial with a "
                            f"{type(other).__name__}")
        return Poly.const(other, self.vars)

    def __add__(self, other):
        d = dict(self.terms)
        _add_terms(d, self._coerce(other).terms.items())
        return Poly._canonical(self.vars, d)

    __radd__ = __add__

    def __neg__(self):
        return Poly._canonical(self.vars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, Poly) and other.vars == self.vars:
            return Poly._canonical(self.vars,
                                   _mul_terms(self.terms, other.terms, None))
        if isinstance(other, Poly):
            raise VariableMismatch(f"{self.vars} vs {other.vars}")
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return self.scale(other)

    __rmul__ = __mul__

    def mul_truncated(self, other: "Poly", max_degree: int,
                      min_degree: int = 0) -> "Poly":
        """The terms of degrees min_degree..max_degree of the product."""
        self._check(other)
        return Poly._canonical(self.vars, _mul_terms(self.terms, other.terms,
                                                     max_degree, min_degree))

    def scale(self, c) -> "Poly":
        if not isinstance(c, _SCALARS):
            raise TypeError(f"cannot scale a polynomial by a "
                            f"{type(c).__name__}")
        if isinstance(c, int):
            c = Fraction(c)
        if not c:
            return Poly(self.vars)
        # every coefficient domain, towers included, has no zero divisors
        return Poly._canonical(self.vars, {m: co * c for m, co in self.terms.items()})

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        if not k:
            return Poly.const(Fraction(1), self.vars)
        return positive_power(self, k)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.vars == other.vars and self.terms == other.terms
        if isinstance(other, _SCALARS):
            return self.terms == Poly.const(other, self.vars).terms
        return NotImplemented

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- calculus / structure

    def partial(self, name: str) -> "Poly":
        # distinct monomials have distinct derivatives, and c * m[i] != 0
        i = self.vars.index(name)
        return Poly._canonical(self.vars, {
            m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i]
            for m, c in self.terms.items() if m[i]})

    def truncate(self, max_degree: int) -> "Poly":
        """This polynomial without its terms above ``max_degree``: itself
        when it has none."""
        kept = {m: c for m, c in self.terms.items() if sum(m) <= max_degree}
        if len(kept) == len(self.terms):
            return self
        return Poly._canonical(self.vars, kept)

    def homogeneous_part(self, degree: int) -> "Poly":
        return Poly._canonical(
            self.vars, {m: c for m, c in self.terms.items() if sum(m) == degree})

    def substitute(self, images: Mapping[str, "Poly"], max_degree=None) -> "Poly":
        """Ring homomorphism sending each variable to its image, dropping
        every term above ``max_degree`` (None keeps all).

        Unlisted variables map to the same-named variable of the image
        ring. All images must share one ambient ring.
        """
        some = next(iter(images.values()), None)
        tgt_vars = some.vars if some is not None else self.vars
        # an unlisted variable keeps its exponent, moved to its target slot
        moved = [(i, tgt_vars.index(v)) for i, v in enumerate(self.vars)
                 if v not in images]
        # powers[i][e] holds the terms of the i-th image to the power e
        powers = [(i, [None, images[v].terms])
                  for i, v in enumerate(self.vars) if v in images]
        zero = [0] * len(tgt_vars)
        out: Dict[Mono, object] = {}
        for m, c in self.terms.items():
            base = list(zero)
            for i, j in moved:
                base[j] = m[i]
            if max_degree is not None and sum(base) > max_degree:
                continue
            acc = {tuple(base): Fraction(c) if isinstance(c, int) else c}
            for i, pw in powers:
                e = m[i]
                if e:
                    while len(pw) <= e:
                        pw.append(_mul_terms(pw[-1], pw[1], max_degree))
                    acc = _mul_terms(acc, pw[e], max_degree)
                    if not acc:
                        break
            _add_terms(out, acc.items())
        return Poly._canonical(tgt_vars, out)

    def eval(self, values: Mapping[str, object]):
        """Full evaluation at scalar values (every variable that occurs is
        bound); each power of a value is computed once."""
        powers = {}
        acc = None
        for m, c in self.terms.items():
            t = c
            for v, e in zip(self.vars, m):
                if e:
                    pw = powers.get((v, e))
                    if pw is None:
                        pw = powers[v, e] = values[v] ** e
                    t = t * pw
            acc = t if acc is None else acc + t
        return acc if acc is not None else Fraction(0)

    def map_coefficients(self, fn, vars=None) -> "Poly":
        return Poly(vars if vars is not None else self.vars,
                    {m: fn(c) for m, c in self.terms.items()})

    # -- display

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            mono = "*".join(
                (v if e == 1 else f"{v}^{e}")
                for v, e in zip(self.vars, m) if e)
            cs = str(c)
            if isinstance(c, Poly) or ("+" in cs or ("-" in cs[1:])):
                cs = f"({cs})"
            if mono:
                parts.append(mono if cs == "1" else
                             f"-{mono}" if cs == "-1" else f"{cs}*{mono}")
            else:
                parts.append(cs)
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out

    __repr__ = __str__
