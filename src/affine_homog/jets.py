"""Truncated power series (jets): a polynomial plus an inclusive
truncation order. Arithmetic auto-truncates to the minimum order of the
operands. A jet is a value: its polynomial and order never change, so its
gradient is computed on the first request and kept."""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence, Tuple

from .poly import GREVLEX, Poly, XYZ
from .scalars import InputError, parse_rational, positive_power, scalar_str


class Jet:
    # _gradient is set by the first gradient() call
    __slots__ = ("poly", "order", "_gradient")

    def __init__(self, poly: Poly, order: int):
        if order < 0:
            raise ValueError("negative truncation order")
        self.poly = poly.truncate(order)
        self.order = order

    @classmethod
    def _canonical(cls, poly: Poly, order: int) -> "Jet":
        """Wrap a polynomial already known to have no term above
        ``order`` (>= 0), without the truncation pass."""
        j = object.__new__(cls)
        j.poly = poly
        j.order = order
        return j

    @classmethod
    def zero(cls, order: int, vars: Sequence[str] = XYZ) -> "Jet":
        return cls(Poly.zero(vars), order)

    @classmethod
    def const(cls, c, order: int, vars: Sequence[str] = XYZ) -> "Jet":
        return cls(Poly.const(c, vars), order)

    @property
    def vars(self):
        return self.poly.vars

    def gradient(self) -> Tuple[Poly, ...]:
        """The partials of the polynomial by each of its variables, in
        order: (F_x, F_y, F_z) for a jet in x, y, z. Computed once per
        jet."""
        try:
            return self._gradient
        except AttributeError:
            self._gradient = tuple(self.poly.partial(n) for n in self.vars)
            return self._gradient

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __bool__(self):
        return bool(self.poly)

    def _coerce(self, other):
        if isinstance(other, Jet):
            return other
        return Jet(self.poly._coerce(other), self.order)

    def __add__(self, other):
        o = self._coerce(other)
        return Jet(self.poly + o.poly, min(self.order, o.order))

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.poly, self.order)

    def __sub__(self, other):
        o = self._coerce(other)
        return Jet(self.poly - o.poly, min(self.order, o.order))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            n = min(self.order, other.order)
            return Jet(self.poly.mul_truncated(other.poly, n), n)
        return Jet(self.poly * other, self.order)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        if not k:
            return Jet.const(Fraction(1), self.order, self.vars)
        return positive_power(self, k)

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.inverse()
        if isinstance(other, int):
            other = Fraction(other)
        return Jet(self.poly.map_coefficients(lambda c: c / other), self.order)

    def __eq__(self, other):
        if isinstance(other, Jet):
            return self.order == other.order and self.poly == other.poly
        return self.poly == other

    def __hash__(self):
        return hash((self.poly, self.order))

    def inverse(self) -> "Jet":
        """Multiplicative inverse; the constant term must be invertible."""
        c0 = self.poly.constant_term()
        if not c0:
            raise ZeroDivisionError("jet with zero constant term")
        x0 = Jet.const(Fraction(1) / c0, 0, self.vars)
        return solve_series(lambda x: self * x - 1, c0, x0, self.order)

    def sqrt(self) -> "Jet":
        """Square root with constant term 1 (used by series checks)."""
        if self.poly.constant_term() != 1:
            raise ValueError("jet sqrt requires constant term 1")
        r0 = Jet.const(Fraction(1), 0, self.vars)
        return solve_series(lambda r: r * r - self, Fraction(2), r0, self.order)

    def truncate(self, order: int) -> "Jet":
        return Jet(self.poly, min(self.order, order))

    def homogeneous_part(self, degree: int) -> Poly:
        return self.poly.homogeneous_part(degree)

    # -- serialization (order, grevlex-sorted terms, exact strings)

    def to_json(self):
        terms = []
        for m, c in sorted(self.poly.terms.items(),
                           key=lambda t: GREVLEX.key(t[0])):
            if hasattr(c, "to_json"):
                cs = c.to_json()
            else:
                cs = scalar_str(c)
            terms.append({"m": list(m), "c": cs})
        return {"order": self.order, "vars": list(self.vars), "terms": terms}

    @classmethod
    def from_json(cls, data) -> "Jet":
        """Inverse of ``to_json`` for rational coefficients; malformed data
        (an order or an exponent that is not an int, or a negative one, or
        a monomial listed twice, which ``to_json`` never writes) raises
        InputError."""
        try:
            vars = tuple(data.get("vars", XYZ))
            pairs = [(tuple(t["m"]), parse_rational(t["c"])) for t in data["terms"]]
            terms = dict(pairs)
            order = data["order"]
            if type(order) is not int or any(type(e) is not int or e < 0 for m in terms for e in m):
                raise ValueError("the order and the exponents must be integers, "
                                 "the exponents non-negative")
            if len(terms) < len(pairs):
                raise ValueError("a monomial is listed twice")
            return cls(Poly(vars, terms), order)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed jet JSON ({type(exc).__name__}: {exc})") from exc

    def __str__(self):
        return f"{self.poly} + O({self.order + 1})"

    __repr__ = __str__


def solve_series(residual: Callable[[Jet], Jet], slope, w: Jet,
                 order: int) -> Jet:
    """The jet w, to ``order``, with residual(w) = 0, by chord iteration.

    ``w`` is the 0-jet of the solution and ``slope`` the (nonzero) scalar
    derivative of the residual there. Each step lifts w to one order
    higher and applies w <- w - residual(w)/slope: the error then gains
    one order, because the true derivative differs from ``slope`` only in
    positive degree. The solution is unique modulo O(order+1).
    """
    for k in range(1, order + 1):
        w = Jet(w.poly, k)
        w = w - residual(w) / slope
    return w
