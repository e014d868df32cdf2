import builtins
from fractions import Fraction as F

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from affine_homog import poly as poly_module
from affine_homog.jets import Jet
from affine_homog.poly import Poly, VariableMismatch, _mul_terms, grevlex_key
from affine_homog.scalars import RationalFunc, Tower

XYZ = ("x", "y", "z")
X = Poly.var("x")
Y = Poly.var("y")
Z = Poly.var("z")


# -- Poly operations only tests need, shared with the other test modules

def monomial(expo, c=F(1), vars=XYZ):
    """The polynomial c x^expo."""
    return Poly(vars, {tuple(expo): c})


def total_degree(p):
    """The largest degree of a term of p, -1 for the zero polynomial."""
    return max((sum(m) for m in p.terms), default=-1)


def leading_coefficient(p, key=grevlex_key):
    """The coefficient of the largest monomial of p under the sort key
    (grevlex by default; a key of None is lex)."""
    return p.terms[max(p.terms, key=key)]


def monic(p, key=grevlex_key):
    """p over its leading coefficient, an int one made a Fraction so that
    no quotient is a float."""
    c = leading_coefficient(p, key)
    if isinstance(c, int):
        c = F(c)
    return p if c == 1 else Poly(p.vars, {m: a / c for m, a in p.terms.items()})


def test_constructor_drops_zero_coefficients():
    p = Poly(("x", "y", "z"), {(1, 0, 0): F(0), (0, 1, 0): F(2)})
    assert (1, 0, 0) not in p.terms
    assert p == Y.scale(2)


def test_arithmetic_against_expanded_product():
    p = (X + Y) * (X - Y)
    assert p == X * X - Y * Y
    q = (X + Y + Z) * (X + Y + Z)
    assert q.coefficient((1, 1, 0)) == 2
    assert q.coefficient((2, 0, 0)) == 1


def test_mul_truncated_matches_truncated_product():
    p = (X + Y) * (X + Z) * (Y + Z)
    q = X * Y + Z * Z
    assert p.mul_truncated(q, 4) == (p * q).truncate(4)
    # Fraction operands take the fraction-free branch, a RationalFunc
    # coefficient the term-by-term one
    for q in (q, q + Z.scale(RationalFunc.gen())):
        full = p * q
        for hi in range(7):
            for lo in range(hi + 2):
                want = {m: c for m, c in full.terms.items() if lo <= sum(m) <= hi}
                assert p.mul_truncated(q, hi, lo).terms == want, (hi, lo)


def test_partial_and_eval():
    p = X * X * Y + Z.scale(3)
    assert p.partial("x") == (X * Y).scale(2)
    assert p.partial("z") == Poly.const(F(3))
    assert p.eval({"x": F(2), "y": F(3), "z": F(-1)}) == 12 - 3


def test_substitute_composition():
    p = X * X + Y
    images = {"x": Y + Z, "y": X}
    q = p.substitute(images)
    assert q == (Y + Z) * (Y + Z) + X
    assert p.substitute(images, max_degree=1) == X


def test_homogeneous_part_sums_to_whole():
    p = (X + Y + Z + Poly.const(F(1))) * (X - Z)
    total = Poly.zero()
    for d in range(total_degree(p) + 1):
        total = total + p.homogeneous_part(d)
    assert total == p


def test_variable_mismatch_raises():
    p = Poly.var("x", ("x", "y"))
    q = Poly.var("x", ("x", "z"))
    with pytest.raises(VariableMismatch):
        p + q


def test_immutability_via_hashable_terms():
    p = X + Y
    before = dict(p.terms)
    _ = p + Z
    assert dict(p.terms) == before


def test_equality_only_with_polys_and_scalars():
    zero = Poly.zero()
    for other in (None, [], {}):
        assert zero != other and other != zero
        assert Jet.zero(3) != other
    assert zero == 0 and Poly.const(F(1, 2)) == F(1, 2)


def test_arithmetic_only_with_polys_and_scalars():
    x = Poly.var("x")
    for other in (None, []):
        for op in (lambda a, b: a + b, lambda a, b: a - b,
                   lambda a, b: a * b):
            for a, b in ((x, other), (other, x),
                         (Jet.zero(3), other), (other, Jet.zero(3))):
                with pytest.raises(TypeError):
                    op(a, b)
    b = RationalFunc.gen()
    assert x + 1 == 1 + x and (x - F(1, 2)).constant_term() == F(-1, 2)
    assert (x + b).constant_term() == b
    assert (x * 2).coefficient((1, 0, 0)) == 2 and (b * x) == x.scale(b)
    assert (Jet.zero(3) + 1) == Jet.const(F(1), 3)
    assert (Jet.zero(3) - b).poly.constant_term() == -b


def test_scale_only_by_scalars():
    # a float would break exactness, and a non-scalar must not pass as zero
    x = Poly.var("x")
    for other in (None, [], 0.5, "a"):
        with pytest.raises(TypeError):
            x.scale(other)
    assert x.scale(0).is_zero() and x.scale(F(1, 2)) == x * F(1, 2)


# -- substitution against sympy ----------------------------------------------------

SOURCE = ("x", "y", "z", "w")
SYMBOLS = {v: sp.Symbol(v) for v in SOURCE + ("t",)}
coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def _terms(nvars, max_degree, max_terms):
    monos = st.tuples(*[st.integers(0, max_degree)] * nvars).filter(
        lambda m: sum(m) <= max_degree)
    return st.dictionaries(monos, coefficients, max_size=max_terms)


def _to_sympy(p):
    return sum((sp.Rational(c.numerator, c.denominator)
                * sp.Mul(*[SYMBOLS[v] ** e for v, e in zip(p.vars, m)])
                for m, c in p.terms.items()), sp.Integer(0))


@st.composite
def substitutions(draw):
    """(p, images, max_degree): some variables without an image, zero,
    constant and general images, and image rings that drop substituted
    variables, add one, or reorder them."""
    p = Poly(SOURCE, draw(_terms(4, 4, 6)))
    mapped = draw(st.lists(st.sampled_from(SOURCE), min_size=1,
                           max_size=4, unique=True))
    kept = [v for v in SOURCE if v not in mapped]
    kept += draw(st.lists(st.sampled_from(mapped + ["t"]), unique=True))
    ring = tuple(draw(st.permutations(kept)))
    images = {}
    for v in mapped:
        kind = draw(st.sampled_from(("zero", "constant", "general")))
        if kind == "zero":
            images[v] = Poly.zero(ring)
        elif kind == "constant":
            images[v] = Poly.const(draw(coefficients), ring)
        else:
            images[v] = Poly(ring, draw(_terms(len(ring), 2, 3)))
    return p, images, draw(st.none() | st.integers(0, 5))


@settings(max_examples=200, deadline=None)
@given(substitutions())
def test_substitute_matches_sympy(case):
    p, images, max_degree = case
    ring = next(iter(images.values())).vars
    got = p.substitute(images, max_degree)
    assert got.vars == ring
    assert max_degree is None or all(sum(m) <= max_degree for m in got.terms)
    want = sp.expand(_to_sympy(p).subs(
        {SYMBOLS[v]: _to_sympy(q) for v, q in images.items()},
        simultaneous=True))
    if max_degree is not None:
        want = sum((term for term in sp.Add.make_args(want)
                    if sp.Poly(term, *[SYMBOLS[v] for v in ring]).total_degree()
                    <= max_degree) if ring else [want], sp.Integer(0))
    assert sp.expand(_to_sympy(got) - want) == 0


# -- results built without re-validation ------------------------------------------

_B = RationalFunc.gen()
_TOWER = Tower(("s",), (F(2),))
_S = _TOWER.generator(0)
_AC = ("a", "c")
_A, _C = Poly.var("a", _AC), Poly.var("c", _AC)
# per coefficient domain: nonzero coefficients (negatives included, so that
# sums cancel) and nonzero scalars to scale by
DOMAINS = (
    ((F(1), F(-1), F(2), F(-3, 2), F(1, 3)), (F(2), F(-1, 3))),
    ((RationalFunc.const(1), _B, _B + 1, -_B, 1 / (_B - 1), F(2)),
     (_B, F(-2), 1 / (_B + 1))),
    ((_TOWER.const(1), _S, 1 + _S, -_S, _TOWER.const(-1)), (_S, 1 - _S, F(3))),
    ((_A, _C, _A + 1, -_A, Poly.const(2, _AC)), (F(-1), F(5, 2))),
)
MONOS = [(i, j, k) for i in range(4) for j in range(4) for k in range(4)
         if i + j + k <= 3]


@st.composite
def fast_path_cases(draw):
    values, scalars = draw(st.sampled_from(DOMAINS))
    pairs = lambda: draw(st.lists(st.tuples(st.sampled_from(MONOS),
                                            st.sampled_from(values)), max_size=5))
    p, r = Poly(XYZ, pairs()), Poly(XYZ, pairs())
    minus_p = Poly(XYZ, [(m, -c) for m, c in p.terms.items()])
    # q is r, or cancels p partly or wholly
    q = draw(st.sampled_from([r, r + minus_p, minus_p]))
    return p, q, draw(st.sampled_from(scalars)), draw(st.integers(0, 4))


def _check_canonical(r, want_pairs):
    """r is canonical and holds the terms that the validating constructor
    makes of ``want_pairs``."""
    assert type(r.vars) is tuple
    assert all(type(m) is tuple and len(m) == len(r.vars) for m in r.terms)
    assert all(r.terms.values())
    assert r == Poly(r.vars, r.terms)
    assert r.terms == Poly(r.vars, want_pairs).terms


@settings(max_examples=200, deadline=None)
@given(fast_path_cases())
def test_fast_path_results_equal_validated_terms(case):
    p, q, c, d = case
    P, Q = list(p.terms.items()), list(q.terms.items())
    prod = [(tuple(x + y for x, y in zip(m1, m2)), c1 * c2)
            for m1, c1 in P for m2, c2 in Q]
    _check_canonical(p + q, P + Q)
    _check_canonical(p - q, P + [(m, -a) for m, a in Q])
    _check_canonical(-p, [(m, -a) for m, a in P])
    _check_canonical(p * q, prod)
    _check_canonical(p.mul_truncated(q, d), [(m, a) for m, a in prod if sum(m) <= d])
    for lo in range(1, d + 2):
        _check_canonical(p.mul_truncated(q, d, lo),
                         [(m, a) for m, a in prod if lo <= sum(m) <= d])
    _check_canonical(p.scale(c), [(m, a * c) for m, a in P])
    _check_canonical(p.partial("y"), [((m[0], m[1] - 1, m[2]), a * m[1])
                                      for m, a in P if m[1]])
    _check_canonical(p.truncate(d), [(m, a) for m, a in P if sum(m) <= d])
    _check_canonical(p.homogeneous_part(d), [(m, a) for m, a in P if sum(m) == d])
    images = {"x": q, "z": Y - X}
    # each term's image, summed by the validating constructor
    parts = [(images["x"] ** m[0] * Y ** m[1] * images["z"] ** m[2]
              * Poly.const(a)).terms.items() for m, a in P]
    for top in (None, d):
        _check_canonical(p.substitute(images, max_degree=top),
                         [(m, a) for t in parts for m, a in t
                          if top is None or sum(m) <= top])


@settings(max_examples=200, deadline=None)
@given(fast_path_cases())
def test_truncation_that_drops_nothing_builds_nothing(case):
    p = case[0]
    top = max(total_degree(p), 0)
    assert p.truncate(top) is p
    assert Jet(p, top).poly is p
    assert Jet(p, top + 1).poly is p


# -- evaluation ---------------------------------------------------------------------

class _Recording(dict):
    """A value mapping that records each variable read from it."""

    def __init__(self, values):
        super().__init__(values)
        self.read = set()

    def __getitem__(self, v):
        self.read.add(v)
        return super().__getitem__(v)


@st.composite
def evaluations(draw):
    """(p, values): a polynomial in x, y, z, w with repeated powers, and
    Fraction or RationalFunc values for all four variables."""
    p = Poly(SOURCE, draw(_terms(4, 4, 6)))
    pool = draw(st.sampled_from((
        (F(0), F(1), F(-1), F(2), F(-3, 2), F(1, 3)),
        (RationalFunc.const(0), RationalFunc.const(2), _B, _B + 1, -_B,
         1 / (_B - 1), _B * _B - F(1, 2)))))
    return p, {v: draw(st.sampled_from(pool)) for v in SOURCE}


@settings(max_examples=200, deadline=None)
@given(evaluations())
def test_eval_matches_term_by_term_oracle(case):
    p, values = case
    want = F(0)
    for m, c in p.terms.items():
        t = c
        for v, e in zip(p.vars, m):
            t = t * values[v] ** e
        want = want + t
    values = _Recording(values)
    assert p.eval(values) == want
    # only the variables that occur are read
    assert values.read == {v for m in p.terms for v, e in zip(p.vars, m) if e}


# -- the product kernel -------------------------------------------------------------

MUL_VALUES = (F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2), F(3, 4), F(-5, 6))


def _reference_product(a, b, max_degree, min_degree=0):
    """Term by term: every pair's product, summed per monomial."""
    d = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            if max_degree is None or min_degree <= sum(m) <= max_degree:
                d[m] = d[m] + c1 * c2 if m in d else c1 * c2
    return {m: c for m, c in d.items() if c}


@st.composite
def products(draw):
    """(a, b, max_degree, min_degree): operands of one or several terms; b
    may negate one term of a, so that cross terms cancel; one or both
    operands may hold int coefficients, or one a RationalFunc coefficient.
    The lower bound may exceed the upper one."""
    term_dict = st.dictionaries(st.sampled_from(MONOS),
                                st.sampled_from(MUL_VALUES),
                                min_size=1, max_size=5)
    a = draw(term_dict)
    if draw(st.booleans()):
        first = next(iter(a))
        b = {m: -c if m == first else c for m, c in a.items()}
    else:
        b = draw(term_dict)
    kind = draw(st.sampled_from(("fraction", "int", "ints", "rationalfunc")))
    if kind in ("int", "ints"):
        a = {m: c.numerator for m, c in a.items()}
    if kind == "ints":
        b = {m: c.numerator for m, c in b.items()}
    elif kind == "rationalfunc":
        m = draw(st.sampled_from(sorted(b)))
        b[m] = draw(st.sampled_from((_B, _B + 1, 1 / (_B - 1))))
    top = draw(st.none() | st.just(0) | st.integers(1, 6))
    return a, b, top, 0 if top is None else draw(st.integers(0, top + 1))


@settings(max_examples=200, deadline=None)
@given(products())
def test_mul_terms_equals_term_by_term_product(case):
    a, b, top, lo = case
    got = _mul_terms(a, b, top, lo)
    want = _reference_product(a, b, top, lo)
    assert got == want
    assert {m: type(c) for m, c in got.items()} == \
        {m: type(c) for m, c in want.items()}
    assert all(got.values())


@pytest.mark.parametrize("top, lo", [(None, 0), (0, 0), (3, 2), (5, 5)])
@pytest.mark.parametrize("kind", ("fraction", "int"))
def test_windowed_product_takes_each_term_degree_once(kind, top, lo, monkeypatch):
    # a window is filtered once per degree of a, not tested per pair: each
    # term's degree is summed once, b's only when there is a window
    a = {m: F(k + 1, 2) for k, m in enumerate(MONOS)}
    b = {m: F(-1, k + 2) for k, m in enumerate(MONOS)}
    if kind == "int":
        a = {m: k + 1 for k, m in enumerate(MONOS)}
        b = {m: -k - 2 for k, m in enumerate(MONOS)}
    degrees = []
    monkeypatch.setattr(poly_module, "sum",
                        lambda m: degrees.append(m) or builtins.sum(m), raising=False)
    got = _mul_terms(a, b, top, lo)
    monkeypatch.undo()
    assert len(degrees) == len(a) + (0 if top is None else len(b))
    assert got == _reference_product(a, b, top, lo)


# -- powers ---------------------------------------------------------------------------

POWER_BASES = (  # (x, x to the power 0)
    (Poly(XYZ, {(1, 0, 0): F(1, 2), (0, 1, 1): F(-3), (0, 0, 0): F(2)}),
     Poly.const(1)),
    (Jet(Poly(XYZ, {(0, 0, 0): F(1), (1, 0, 0): F(-2, 3), (0, 1, 0): F(1)}), 6),
     Jet.const(1, 6)),
    ((_B + F(1, 3)) / (_B - 2), RationalFunc.const(1)),
)


@pytest.mark.parametrize("x, one", POWER_BASES,
                         ids=lambda x: type(x).__name__)
def test_power_is_repeated_product_with_fewest_products(x, one, monkeypatch):
    folds = [one]
    for _ in range(9):
        folds.append(folds[-1] * x)
    calls = []
    cls, mul = type(x), type(x).__mul__
    monkeypatch.setattr(cls, "__mul__",
                        lambda s, o: calls.append(1) or mul(s, o))
    for k, want in enumerate(folds):
        calls.clear()
        assert x ** k == want
        # one squaring per bit below the top one, one product per further
        # set bit: x ** 2 is a single product
        assert len(calls) == (k.bit_length() + bin(k).count("1") - 2
                              if k else 0)
