"""Surface equation front end.

Parses implicit defining equations over W,X,Y,Z (explicit '*', '^' with
rational or 'alpha' exponents, exp and log) into a syntax tree of tagged
tuples, and Taylor-expands them at a basepoint into a graph-form jet
w = F(x,y,z) by evaluating the equation on jets and solving it for w order
by order.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .jets import Jet, solve_series
from .poly import Poly
from .scalars import (InputError, RationalFunc, parse_rational,
                      rational_nth_root)

GRAPH_VARS = ("x", "y", "z")


class ParseError(InputError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class DomainError(ValueError):
    pass


# -- syntax tree ---------------------------------------------------------------
#
# A node is a tuple tagged by its kind:
#   leaves      ("var", "W"), ("const", Fraction), ("alpha",)
#   operations  ("+", a, b), ("-", a, b), ("*", a, b), ("^", base, exponent),
#               ("exp", a), ("log", a)
#   ("known", jet)  a subtree without W, held as its jet (expand_graph)
# The children of a node are its entries that are tuples; the exponent of
# a "^" node is a "const" or "alpha" leaf.


# -- tokenizer / recursive descent -------------------------------------------

# The deepest bracket nesting, and the deepest syntax tree, an equation may
# have. Parsing recurses a few frames per bracket and evaluation one frame
# per tree level, so both stay far inside Python's recursion limit; a flat
# sum of n terms is a tree n levels deep.
MAX_DEPTH = 100

# The cost budget of constants. A number literal has at most MAX_DIGITS
# digits. A constant exponent p/q has |p| <= MAX_EXPONENT and
# q <= MAX_EXPONENT, and the numerators along a chain of nested powers,
# as in (X^p1)^p2, multiply to at most MAX_EXPONENT in absolute value
# (an exponent 0 counts as 1). So each power of a literal has at most
# MAX_DIGITS * MAX_EXPONENT = 4,000 digits, inside Python's 4,300-digit
# limit on integer string conversion, and an input past the budget is
# refused before anything is evaluated.
MAX_DIGITS = 40
MAX_EXPONENT = 100

# The budget of a power whose base or exponent comes from outside the
# equation (a basepoint coordinate, an --alpha exponent), which the parser
# cannot see: every exact constant power c^p is checked when it is
# evaluated, and refused before it is computed when its numerator or
# denominator would have more than the MAX_DIGITS * MAX_EXPONENT digits a
# power of a literal can reach.
MAX_POWER_DIGITS = MAX_DIGITS * MAX_EXPONENT
_POWER_LIMIT = 10 ** MAX_POWER_DIGITS

_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|(alpha|exp|log)|([WXYZ])|([-+*^()=]))")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise ParseError(f"unexpected character {text[pos]!r}", pos)
                break
            kind = ("num" if m.group(1) else "word" if m.group(2)
                    else "var" if m.group(3) else "op")
            if (kind == "num"
                    and len(m.group(1).replace("/", "")) > MAX_DIGITS):
                raise ParseError(f"number literal longer than {MAX_DIGITS} "
                                 f"digits", m.start(1))
            self.tokens.append((kind, m.group(m.lastindex), m.start(m.lastindex)))
            pos = m.end()
        self.i = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def take(self, value=None):
        kind, tok, pos = self.peek()
        if tok is None or (value is not None and tok != value):
            raise ParseError(f"expected {value!r}" if value else "unexpected end",
                             pos)
        self.i += 1
        return kind, tok, pos

    def open(self):
        """Take a '(' that nests at most MAX_DEPTH brackets deep."""
        pos = self.take("(")[2]
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ParseError(f"brackets nest deeper than {MAX_DEPTH}", pos)

    def close(self):
        self.take(")")
        self.nesting -= 1

    def parse_equation(self) -> tuple:
        """The residual lhs - rhs, the tree that is evaluated."""
        lhs = self.parse_expr()
        self.take("=")
        rhs = self.parse_expr()
        kind, tok, pos = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok!r}", pos)
        residual = ("-", lhs, rhs)
        depth, power = _tree_measures(residual)
        if depth > MAX_DEPTH:
            raise ParseError(f"expression tree deeper than {MAX_DEPTH} levels",
                             0)
        if power > MAX_EXPONENT:
            raise ParseError(f"nested powers multiply their exponents past "
                             f"{MAX_EXPONENT}", 0)
        return residual

    def parse_expr(self) -> tuple:
        kind, tok, pos = self.peek()
        negate = False
        if tok == "-":
            self.take()
            negate = True
        elif tok == "+":
            self.take()
        node = self.parse_term()
        if negate:
            node = ("-", ("const", Fraction(0)), node)
        while True:
            kind, tok, pos = self.peek()
            if tok == "+":
                self.take()
                node = ("+", node, self.parse_term())
            elif tok == "-":
                self.take()
                node = ("-", node, self.parse_term())
            else:
                return node

    def parse_term(self) -> tuple:
        node = self.parse_factor()
        while True:
            kind, tok, pos = self.peek()
            if tok == "*":
                self.take()
                node = ("*", node, self.parse_factor())
            else:
                return node

    def parse_factor(self) -> tuple:
        node = self.parse_atom()
        kind, tok, pos = self.peek()
        if tok == "^":
            self.take()
            node = ("^", node, self.parse_exponent())
        return node

    def parse_exponent(self) -> tuple:
        kind, tok, pos = self.peek()
        if tok == "(":
            self.open()
            e = self.parse_exponent()
            self.close()
            return e
        neg = False
        if tok == "-":
            self.take()
            neg = True
            kind, tok, pos = self.peek()
        if kind == "num":
            self.take()
            num = parse_rational(tok)
            kind2, tok2, _ = self.peek()
            if tok2 == "/":
                raise ParseError("malformed rational exponent", pos)
            if max(num.numerator, num.denominator) > MAX_EXPONENT:
                raise ParseError(f"exponent {num} past the budget: numerator"
                                 f" and denominator at most {MAX_EXPONENT}",
                                 pos)
            return ("const", -num if neg else num)
        if tok == "alpha":
            self.take()
            if neg:
                raise ParseError("negated parameter exponent not supported", pos)
            return ("alpha",)
        raise ParseError("expected rational or alpha exponent", pos)

    def parse_atom(self) -> tuple:
        kind, tok, pos = self.peek()
        if kind == "var":
            self.take()
            return ("var", tok)
        if kind == "num":
            self.take()
            return ("const", parse_rational(tok))
        if tok == "alpha":
            self.take()
            return ("alpha",)
        if tok in ("exp", "log"):
            self.take()
            self.open()
            arg = self.parse_expr()
            self.close()
            return (tok, arg)
        if tok == "(":
            self.open()
            node = self.parse_expr()
            self.close()
            return node
        raise ParseError(f"unexpected token {tok!r}" if tok else "unexpected end",
                         pos)


def _tree_measures(node: tuple) -> Tuple[int, int]:
    """(levels of the syntax tree, the largest product of |numerators| of
    the constant exponents along a chain of nested powers, where an
    exponent 0 counts as 1), counted without recursion."""
    depth, power, todo = 0, 1, [(node, 1, 1)]
    while todo:
        n, d, k = todo.pop()
        if n[0] == "^" and n[2][0] == "const":
            k *= abs(n[2][1].numerator) or 1
        depth, power = max(depth, d), max(power, k)
        todo.extend((c, d + 1, k) for c in _children(n))
    return depth, power


def _children(node: tuple):
    return [c for c in node if isinstance(c, tuple)]


# -- SurfaceSpec --------------------------------------------------------------

class SurfaceSpec:
    """``residual`` is the syntax tree of lhs - rhs, ``basepoint`` is
    (W, X, Y, Z) and ``alpha`` the binding of alpha, if any."""
    __slots__ = ("residual", "basepoint", "alpha")

    def __init__(self, residual: tuple,
                 basepoint: Tuple[Fraction, Fraction, Fraction, Fraction],
                 alpha: Optional[Fraction] = None):
        self.residual = residual
        self.basepoint = basepoint
        self.alpha = alpha


def parse_surface(text: str, basepoint, alpha=None) -> SurfaceSpec:
    """Parse an implicit equation and validate the basepoint on it."""
    residual = _Parser(text).parse_equation()
    bp = tuple(parse_rational(str(c)) if not isinstance(c, Fraction) else c
               for c in basepoint)
    if len(bp) != 4:
        raise InputError("basepoint must have four components (W,X,Y,Z)")
    if alpha is not None and not isinstance(alpha, (Fraction, RationalFunc)):
        alpha = parse_rational(str(alpha))
    if alpha is None and _uses(residual, ("alpha",)):
        raise InputError("equation uses alpha but no binding was given")
    at_bp = _ambient_images(bp, Jet.zero(0, GRAPH_VARS))
    val = eval_jet(residual, at_bp, 0, alpha).poly.constant_term()
    if val != 0:
        raise InputError(f"basepoint does not satisfy the equation (residual {val})")
    return SurfaceSpec(residual, bp, alpha)


def _uses(node: tuple, leaf: tuple) -> bool:
    """Does ``leaf`` occur in the tree of ``node``?"""
    return node == leaf or any(_uses(c, leaf) for c in _children(node))


# -- Taylor primitives ----------------------------------------------------------

def _check_power(c, p: int):
    """Raise InputError when the rational c to the integer power p would
    have a numerator or denominator of more than MAX_POWER_DIGITS digits.
    n^|p| >= 2^(|p|(bits(n) - 1)), so past that bound it is refused
    unseen, and below it n^|p| has fewer than twice the budget's bits and
    is compared exactly."""
    if not isinstance(c, (int, Fraction)):
        return
    p = abs(p)
    for n in (abs(c.numerator), c.denominator):
        if (p * (n.bit_length() - 1) >= _POWER_LIMIT.bit_length()
                or n ** p >= _POWER_LIMIT):
            raise InputError(f"a constant power would have more than "
                             f"{MAX_POWER_DIGITS} digits")


def taylor_primitive(fn: str, center: Fraction, order: int,
                     exponent: Optional[Fraction] = None) -> Jet:
    """Univariate jet of fn(center + u) in the variable u.

    exp requires center 0 and log requires center 1 so the coefficients
    stay rational; pow takes a non-integer exponent (eval_jet computes
    integer powers itself) and requires an exact rational value at the
    center.
    """
    if fn == "exp":
        if center != 0:
            raise DomainError("exp expansion needs center 0 for exact coefficients")
        terms = {}
        fact = Fraction(1)
        for k in range(order + 1):
            terms[(k,)] = Fraction(1) / fact
            fact *= k + 1
        return Jet(Poly(("u",), terms), order)
    if fn == "log":
        if center <= 0:
            raise DomainError("log expansion needs a positive center")
        if center != 1:
            raise DomainError("log expansion needs center 1 for exact coefficients")
        terms = {}
        for k in range(1, order + 1):
            terms[(k,)] = Fraction((-1) ** (k + 1), k)
        return Jet(Poly(("u",), terms), order)
    if fn == "pow":
        if exponent is None or exponent.denominator == 1:
            raise ValueError("pow requires a non-integer exponent")
        if center <= 0:
            raise DomainError("non-integer power needs a positive center")
        root = rational_nth_root(center, exponent.denominator)
        if root is None:
            raise DomainError(f"{center}^(1/{exponent.denominator}) is "
                              f"irrational")
        _check_power(root, exponent.numerator)
        c_pow = root ** exponent.numerator
        # binomial series: sum_k binom(e,k) center^(e-k) u^k
        terms = {(0,): c_pow}
        coeff = c_pow
        for k in range(1, order + 1):
            coeff = coeff * (exponent - (k - 1)) / k / center
            terms[(k,)] = coeff
        return Jet(Poly(("u",), terms), order)
    raise ValueError(f"unknown primitive {fn!r}")


# -- jet evaluation of a syntax tree -------------------------------------------------

def _compose_primitive(fn: str, arg: Jet, order: int,
                       exponent: Optional[Fraction] = None) -> Jet:
    center = arg.poly.constant_term()
    if not isinstance(center, Fraction):
        raise DomainError("primitive center must be rational")
    series = taylor_primitive(fn, center, order, exponent)
    delta = arg - Jet.const(center, arg.order, arg.vars)
    # delta has zero constant term, so truncating at the order is exact
    return Jet(series.poly.substitute({"u": delta.poly}, max_degree=order),
               delta.order)


# -- graph expansion -----------------------------------------------------------------

def expand_graph(spec: SurfaceSpec, order: int) -> Jet:
    """Solve the implicit equation for W near the basepoint.

    Returns the jet w(x,y,z) of the graph offset, zero constant term,
    where (x,y,z) are offsets of (X,Y,Z) and w the offset of W. The
    w-slope of the equation at the basepoint, read off its 1-jet in
    (x, y, z, w), drives a chord iteration on jets. Each maximal subtree
    of the equation without W is evaluated once, at ``order``; a chord
    step to order k reads it truncated to k and evaluates only the nodes
    that depend on W. Truncation commutes with every jet operation, so
    this is the jet that evaluating the whole equation at each step gives.
    """
    w1 = Jet(Poly.var("w", GRAPH_VARS + ("w",)), 1)
    lin = eval_jet(spec.residual, _ambient_images(spec.basepoint, w1), 1,
                   spec.alpha)
    slope = lin.poly.coefficient((0, 0, 0, 1))
    if slope == 0:
        raise DomainError("cannot solve for W at the basepoint "
                          "(implicit function condition fails)")
    xyz = _ambient_images(spec.basepoint, Jet.zero(order, GRAPH_VARS))
    w_side = _hoist_w_free(spec.residual, xyz, order, spec.alpha)
    w0 = Poly.const(spec.basepoint[0], GRAPH_VARS)

    def residual(w: Jet) -> Jet:
        return eval_jet(w_side, {"W": Jet(w.poly + w0, w.order)}, w.order,
                        spec.alpha)

    return solve_series(residual, slope, Jet.zero(0, GRAPH_VARS), order)


def _hoist_w_free(node: tuple, images: Dict[str, Jet], order: int,
                  alpha) -> tuple:
    """``node`` with each maximal subtree free of W replaced by its jet at
    ``order`` on ``images``."""
    if not _uses(node, ("var", "W")):
        return ("known", eval_jet(node, images, order, alpha))
    if node[0] == "var":
        return node
    if node[0] == "^":  # the exponent is a "const" or "alpha" leaf
        return ("^", _hoist_w_free(node[1], images, order, alpha), node[2])
    return (node[0], *(_hoist_w_free(c, images, order, alpha)
                       for c in node[1:]))


def eval_jet(node: tuple, images: Dict[str, Jet], order: int,
             alpha: Optional[Fraction] = None) -> Jet:
    """Evaluate a syntax tree on jets. ``images`` sends each ambient
    variable to a jet whose constant term is that basepoint coordinate; a
    "known" node evaluates to its jet truncated to ``order``."""
    some = next(iter(images.values()))
    vars = some.vars

    def ev(n: tuple) -> Jet:
        tag = n[0]
        if tag == "var":
            return images[n[1]]
        if tag == "known":
            return Jet(n[1].poly, order)
        if tag == "const":
            return Jet.const(n[1], order, vars)
        if tag == "alpha":
            if alpha is None:
                raise ValueError("unbound parameter alpha")
            return Jet.const(alpha, order, vars)
        if tag == "+":
            return ev(n[1]) + ev(n[2])
        if tag == "-":
            return ev(n[1]) - ev(n[2])
        if tag == "*":
            return ev(n[1]) * ev(n[2])
        if tag == "^":
            e = n[2][1] if n[2][0] == "const" else alpha
            if e is None:
                raise ValueError("unbound parameter alpha")
            base = ev(n[1])
            if e.denominator != 1:
                return _compose_primitive("pow", base, order, e)
            center = base.poly.constant_term()
            if e < 0 and center == 0:
                raise DomainError("negative power at center 0")
            _check_power(center, e.numerator)
            return base ** e.numerator
        if tag in ("exp", "log"):
            return _compose_primitive(tag, ev(n[1]), order)
        raise TypeError(f"unknown node {n!r}")

    return ev(node)


def _ambient_images(basepoint, w: Jet) -> Dict[str, Jet]:
    """W, X, Y, Z as jets at the basepoint, with W the offset w (a jet in
    x, y, z and possibly further variables)."""
    w0, x0, y0, z0 = basepoint
    n, vars = w.order, w.vars
    return {
        "W": Jet(w.poly + Poly.const(w0, vars), n),
        "X": Jet(Poly.const(x0, vars) + Poly.var("x", vars), n),
        "Y": Jet(Poly.const(y0, vars) + Poly.var("y", vars), n),
        "Z": Jet(Poly.const(z0, vars) + Poly.var("z", vars), n),
    }

