"""Arithmetic in Q[eps] and the localized field Q(eps)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from waring import EpsPoly, EpsScalar, LinearForm, PoleAtZero
from conftest import F, epoly, esc


def rand_epoly(rng, max_deg=4, height=9, allow_zero=True):
    terms = {}
    for e in range(max_deg + 1):
        if rng.random() < 0.5:
            terms[e] = Fraction(rng.randint(-height, height))
    p = EpsPoly(terms)
    if p.is_zero and not allow_zero:
        return EpsPoly.const(rng.randint(1, height))
    return p


# -- EpsPoly ----------------------------------------------------------------


def test_epoly_canonical_zero_terms_dropped():
    assert EpsPoly({0: F(1), 1: F(0)}) == EpsPoly.const(1)
    assert EpsPoly({3: F(0)}).is_zero
    assert EpsPoly.zero().degree() == -1
    assert not EpsPoly.zero()
    assert EpsPoly.const(2)


def test_epoly_basic_ops():
    one, e = EpsPoly.const(1), EpsPoly.eps()
    assert (one + e) * (one - e) == one - e * e
    assert (one + e) ** 3 == EpsPoly({0: F(1), 1: F(3), 2: F(3), 3: F(1)})
    assert -e + e == EpsPoly.zero()
    assert (one + e * e * e).derivative() == EpsPoly({2: F(3)})


def test_epoly_valuation_and_lowest():
    p = EpsPoly({2: F(5), 4: F(-1)})
    assert p.valuation() == 2
    assert p.lowest() == (2, F(5))
    assert p.degree() == 4
    assert p.coeff(3) == 0
    assert p.at_zero() == 0
    with pytest.raises(ValueError):
        EpsPoly.zero().valuation()


def test_epoly_pairs_ascending():
    p = EpsPoly({4: F(1), 0: F(2), 2: F(-3)})
    assert p.pairs() == ((0, F(2)), (2, F(-3)), (4, F(1)))


def test_epoly_divmod_property():
    rng = random.Random(11)
    for _ in range(60):
        a = rand_epoly(rng)
        b = rand_epoly(rng, allow_zero=False)
        q, r = divmod(a, b)
        assert a == q * b + r
        assert r.is_zero or r.degree() < b.degree()


def test_epoly_exact_div():
    a = epoly((0, 1), (1, 1))
    b = epoly((0, -1), (1, 1))
    assert (a * b).exact_div(a) == b
    with pytest.raises(ValueError):
        epoly((1, 1)).exact_div(a)


def test_epoly_gcd_properties():
    rng = random.Random(5)
    for _ in range(40):
        g = rand_epoly(rng, max_deg=2, allow_zero=False)
        a = rand_epoly(rng, max_deg=3, allow_zero=False)
        b = rand_epoly(rng, max_deg=3, allow_zero=False)
        d = EpsPoly.gcd(a * g, b * g)
        assert not d.is_zero
        # g divides the gcd, and the gcd divides both products
        _, rg = divmod(d, g)
        assert rg.is_zero
        _, r1 = divmod(a * g, d)
        _, r2 = divmod(b * g, d)
        assert r1.is_zero and r2.is_zero
    # gcd with zero is the monic of the other argument
    p = epoly((0, 2), (1, 4))
    assert EpsPoly.gcd(p, EpsPoly.zero()) == p.monic()
    assert EpsPoly.gcd(EpsPoly.zero(), p) == p.monic()


def test_epoly_monic():
    p = epoly((1, 3), (2, 6))
    assert p.monic() == epoly((1, F(1, 2)), (2, 1))


# -- EpsScalar --------------------------------------------------------------


def test_escalar_canonical_reduction():
    # common factors cancel, denominator lowest coefficient is scaled to 1
    num = epoly((0, -1), (2, 1))  # (eps-1)(eps+1)
    den = epoly((0, -1), (1, 1))  # eps - 1
    s = EpsScalar(num, den)
    assert s.is_polynomial
    assert s.num == epoly((0, 1), (1, 1))
    t = EpsScalar(EpsPoly.const(1), EpsPoly.const(2))
    assert t.num == EpsPoly.const(F(1, 2))
    assert t.den == EpsPoly.const(1)


def test_escalar_structural_equality_is_semantic():
    a = EpsScalar(EpsPoly.const(1), epoly((0, 1), (1, -1)))
    b = a * esc((0, 1), (1, -1))
    assert b == EpsScalar.one()
    assert hash(b) == hash(EpsScalar.one())


def test_equal_values_hash_equally_across_scalar_kinds():
    # a constant scalar equals its Fraction, a polynomial scalar its EpsPoly:
    # each must hash as what it equals, or sets and dicts split equal keys
    for c in (F(0), F(1), F(-2), F(3, 7)):
        for x in (EpsScalar.from_rational(c), EpsPoly.const(c)):
            assert x == c and hash(x) == hash(c)
            assert len({x, c}) == 1
    assert len({EpsScalar.from_rational(1), F(1), 1, EpsPoly.const(1)}) == 1
    p = epoly((0, 1), (2, F(1, 3)))
    assert EpsScalar.from_poly(p) == p and hash(EpsScalar.from_poly(p)) == hash(p)
    # so a form over Q(eps) equal to a rational one hashes as it does
    rational = (F(1), F(-2), F(0))
    lifted = tuple(EpsScalar.from_rational(c) for c in rational)
    assert lifted == rational and hash(lifted) == hash(rational)
    assert len({LinearForm(rational), LinearForm(lifted)}) == 1


def test_escalar_zero_and_one():
    assert EpsScalar.zero().is_zero
    assert not EpsScalar.zero()
    assert EpsScalar.one() == EpsScalar.from_rational(1)
    with pytest.raises(ValueError):
        EpsScalar.zero().valuation()
    with pytest.raises(ZeroDivisionError):
        EpsScalar.one() / EpsScalar.zero()


def test_escalar_valuation_lead_limit():
    s = EpsScalar.eps(-2) * EpsScalar.from_rational(F(3, 4))
    assert s.valuation() == -2
    with pytest.raises(PoleAtZero):
        s.limit()
    assert EpsScalar.eps(1).limit() == 0
    assert esc((0, 5), (1, 7)).limit() == 5
    # a unit denominator does not disturb the limit
    u = EpsScalar(epoly((0, 3), (1, 1)), epoly((0, 1), (1, 2)))
    assert u.limit() == 3


def test_escalar_field_properties():
    rng = random.Random(17)
    for _ in range(50):
        a = EpsScalar(rand_epoly(rng, 3), rand_epoly(rng, 2, allow_zero=False))
        b = EpsScalar(rand_epoly(rng, 3), rand_epoly(rng, 2, allow_zero=False))
        c = EpsScalar(rand_epoly(rng, 2, allow_zero=False), rand_epoly(rng, 2, allow_zero=False))
        assert (a + b) * c == a * c + b * c
        assert a - b == -(b - a)
        assert a * c / c == a
        assert (a + b) - b == a
    x = esc((0, 1), (1, 1))
    assert x ** 3 == x * x * x
    assert x ** 0 == EpsScalar.one()
    assert x ** -1 == EpsScalar.one() / x


def test_escalar_mixed_scalar_coercion():
    assert EpsScalar.one() + 1 == EpsScalar.from_rational(2)
    assert 2 * EpsScalar.eps() == EpsScalar.eps() * 2
    assert 1 - EpsScalar.eps() == EpsScalar.one() - EpsScalar.eps()
    assert 1 / EpsScalar.eps() == EpsScalar.eps(-1)
    assert EpsScalar.from_rational(F(1, 3)) * 3 == EpsScalar.one()


# -- fast paths against the plain algorithms -----------------------------------


PROPERTY = settings(max_examples=150)

small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def ref_gcd(a, b):
    """Plain Euclidean monic gcd, the definition the fast path must match."""
    while not b.is_zero:
        a, b = b, divmod(a, b)[1]
    return a.monic()


def ref_canonical(num, den):
    """(num, den) reduced by ref_gcd, with den's lowest coefficient 1."""
    if num.is_zero:
        return EpsPoly.zero(), EpsPoly.const(1)
    g = ref_gcd(num, den)
    num, den = divmod(num, g)[0], divmod(den, g)[0]
    inv = 1 / den.lowest()[1]
    return num * inv, den * inv


general_polys = st.dictionaries(
    st.integers(0, 5), small_fractions, max_size=4
).map(EpsPoly)
monomials = st.builds(
    lambda k, c: EpsPoly({k: c}),
    st.integers(0, 5),
    small_fractions.filter(bool),
)
constants = small_fractions.filter(bool).map(EpsPoly.const)
any_polys = st.one_of(general_polys, monomials, constants)


@PROPERTY
@given(any_polys, any_polys)
def test_gcd_matches_euclid(a, b):
    got = EpsPoly.gcd(a, b)
    want = ref_gcd(a, b)
    assert got.pairs() == want.pairs()


@PROPERTY
@given(general_polys, st.one_of(monomials, constants))
def test_exact_div_by_a_monomial_matches_division(p, m):
    q, r = divmod(p, m)
    if r.is_zero:
        assert p.exact_div(m).pairs() == q.pairs()
    else:
        with pytest.raises(ValueError):
            p.exact_div(m)


@PROPERTY
@given(any_polys, st.one_of(general_polys, monomials, constants).filter(bool))
def test_escalar_canonical_form_matches_reference(num, den):
    s = EpsScalar(num, den)
    want_num, want_den = ref_canonical(num, den)
    assert s.num.pairs() == want_num.pairs()
    assert s.den.pairs() == want_den.pairs()
