"""Rank oracles (catalecticant, binary-form algorithm) and family generators."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from waring import (
    BorderDecomposition,
    EpsScalar,
    HomoPoly,
    LinearForm,
    WaringDecomposition,
    catalecticant_bound,
    check_border,
    gen_family,
    gen_multibase,
    gen_osculating,
    gen_random,
    gen_tangent,
    is_local,
    multiply_by_power,
    sylvester_rank,
    verify_waring,
)
from waring.oracle import _block
from conftest import F, mono, rand_poly


# -- catalecticant ----------------------------------------------------------


def test_catalecticant_frozen_values():
    x2y = mono(2, (2, 1))
    assert catalecticant_bound(x2y, 0) == 1
    assert catalecticant_bound(x2y, 1) == 2
    assert catalecticant_bound(x2y, 2) == 2
    assert catalecticant_bound(x2y, 3) == 1

    xyz = mono(3, (1, 1, 1))
    assert catalecticant_bound(xyz, 1) == 3
    assert catalecticant_bound(xyz, 2) == 3

    fermat = mono(3, (3, 0, 0)) + mono(3, (0, 3, 0)) + mono(3, (0, 0, 3))
    assert catalecticant_bound(fermat, 1) == 3

    assert catalecticant_bound(mono(2, (2, 2)), 2) == 3
    assert catalecticant_bound(mono(2, (4, 0)) + mono(2, (1, 3)), 2) == 3

    # a pure power has every catalecticant of rank one
    pw = mono(2, (4, 0)) + mono(2, (3, 1), 4) + mono(2, (2, 2), 6) + mono(2, (1, 3), 4) + mono(2, (0, 4))
    for s in range(5):
        assert catalecticant_bound(pw, s) == 1


def test_catalecticant_validation():
    with pytest.raises(ValueError):
        catalecticant_bound(HomoPoly.zero(2, 2), 1)
    with pytest.raises(ValueError):
        catalecticant_bound(mono(2, (2, 0)), 3)


def sympy_catalecticant_rank(f, s):
    """Independent reimplementation straight from sympy differentiation."""
    syms = sympy.symbols(f"v0:{f.nvars}")
    expr = sympy.Integer(0)
    for m, c in f.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for t, e in zip(syms, m):
            term *= t**e
        expr += term

    def monos(deg):
        out = []
        for picks in combinations_with_replacement(range(f.nvars), deg):
            e = [0] * f.nvars
            for i in picks:
                e[i] += 1
            out.append(tuple(e))
        return out

    cols = monos(f.degree - s)
    rows = []
    for alpha in monos(s):
        g = expr
        for t, o in zip(syms, alpha):
            for _ in range(o):
                g = sympy.diff(g, t)
        gp = sympy.Poly(g, *syms) if g != 0 else None
        row = []
        for m in cols:
            if gp is None:
                row.append(0)
            else:
                row.append(gp.coeff_monomial(sympy.prod(t**e for t, e in zip(syms, m))))
        rows.append(row)
    return sympy.Matrix(rows).rank()


def test_catalecticant_matches_sympy_on_random_forms():
    rng = random.Random(47)
    for _ in range(12):
        n = rng.randint(2, 3)
        d = rng.randint(2, 4)
        f = rand_poly(rng, n, d, height=5)
        for s in range(d + 1):
            assert catalecticant_bound(f, s) == sympy_catalecticant_rank(f, s)


# -- binary-form rank algorithm ---------------------------------------------


def test_sylvester_frozen_classics():
    assert sylvester_rank(mono(2, (3, 0))) == (1, 1)
    assert sylvester_rank(mono(2, (2, 1))) == (3, 2)
    assert sylvester_rank(mono(2, (3, 0)) + mono(2, (0, 3))) == (2, 2)
    assert sylvester_rank(mono(2, (2, 2))) == (3, 3)
    # square-free kernel form: rank s on the nose
    assert sylvester_rank(mono(2, (4, 0)) + mono(2, (1, 3))) == (3, 3)
    # kernel form with a repeated root: rank jumps to d + 2 - s
    assert sylvester_rank(mono(2, (3, 2))) == (4, 3)


def test_sylvester_monomials_closed_form():
    for a in range(1, 6):
        for b in range(1, 6):
            if a + b > 7:
                continue
            wr, bwr = sylvester_rank(mono(2, (a, b)))
            assert wr == max(a, b) + 1
            assert bwr == min(a, b) + 1


def test_sylvester_linear_form():
    assert sylvester_rank(mono(2, (1, 0)) + mono(2, (0, 1), 2)) == (1, 1)


def test_sylvester_validation():
    with pytest.raises(ValueError):
        sylvester_rank(mono(3, (1, 1, 1)))
    with pytest.raises(ValueError):
        sylvester_rank(HomoPoly.zero(2, 3))


def test_sylvester_scaling_invariance():
    rng = random.Random(53)
    for _ in range(10):
        f = rand_poly(rng, 2, rng.randint(2, 6), height=7)
        assert sylvester_rank(f) == sylvester_rank(f.scale(F(3, 7)))


# -- generators -------------------------------------------------------------


def test_gen_tangent_is_first_order_osculating():
    f1, B1 = gen_tangent(5)
    f2, B2 = gen_osculating(5, 1)
    assert f1 == f2 and B1 == B2
    assert f1 == mono(2, (4, 1))
    assert B1.rank() == 2


def test_gen_osculating_certificates():
    for d, j in [(4, 2), (5, 2), (6, 3)]:
        f, B = gen_osculating(d, j)
        assert f == mono(2, (d - j, j))
        assert B.rank() == j + 1
        out = check_border(B, f)
        assert out.ok and out.q == 1
        # divided-difference weights sum to zero for j >= 1
        total = EpsScalar.zero()
        for w, _ in B.summands:
            total = total + w
        assert total.is_zero
        assert is_local(B) is not None


def test_gen_osculating_validation():
    with pytest.raises(ValueError):
        gen_osculating(3, 0)
    with pytest.raises(ValueError):
        gen_osculating(3, 3)
    with pytest.raises(ValueError):
        gen_osculating(1, 1)


def test_gen_multibase_certificates():
    for d in (2, 5):
        f, B = gen_multibase(d)
        assert B.rank() == 4
        assert f.coeff((d - 1, 0, 1, 0)) == d
        assert f.coeff((0, d - 1, 0, 1)) == d
        assert check_border(B, f).ok
        assert is_local(B) is None


def test_gen_random_is_deterministic_and_verified():
    f1, B1 = gen_random(3, 3, 4, seed=12)
    f2, B2 = gen_random(3, 3, 4, seed=12)
    assert f1 == f2 and B1 == B2
    f3, _ = gen_random(3, 3, 4, seed=13)
    assert f3 != f1
    for seed in range(25):
        f, B = gen_random(2, 4, 3, seed=seed)
        assert not f.is_zero
        assert B.rank() == 3
        out = check_border(B, f)
        assert out.ok


def test_gen_random_respects_the_advertised_shapes():
    for seed in range(10):
        _, B = gen_random(3, 5, 4, seed=seed)
        for w, form in B.summands:
            # weights are a single term c * eps^-j with 0 <= j <= degree; for
            # j > 0 the eps power sits in the denominator canonically
            assert len(w.num.pairs()) == 1
            assert len(w.den.pairs()) == 1
            assert -B.degree <= w.valuation() <= 0
            # forms are l0 + i * eps * l1: polynomial in eps of degree <= 1,
            # l0 and l1 integer with entries in [-3, 3], and i <= degree
            for c in form.coefs:
                if c.is_zero:
                    continue
                assert c.is_polynomial
                assert c.num.degree() <= 1
                for e, coeff in c.num.pairs():
                    assert coeff.denominator == 1
                    assert abs(coeff) <= (3 if e == 0 else 3 * B.degree)


def _total_valuation(w, form, degree):
    return w.valuation() + degree * min(c.valuation() for c in form.coefs if not c.is_zero)


@st.composite
def blocks(draw):
    """(n, d, j, c, l0, l1) for one divided-difference block."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    j = draw(st.integers(0, d))
    c = draw(st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool))
    vector = st.lists(st.integers(-5, 5), min_size=n, max_size=n).filter(any).map(tuple)
    return n, d, j, c, draw(vector), draw(vector)


@settings(max_examples=100)
@given(blocks())
def test_block_tends_to_its_closed_form(block):
    n, d, j, c, l0, l1 = block
    summands = _block(c, l0, l1, j)
    assert len(summands) == j + 1
    B = BorderDecomposition(n, d, summands)
    limit = (LinearForm(l0).power(d - j) * LinearForm(l1).power(j)).scale(
        c * factorial(j) * comb(d, j))
    assert check_border(B, limit).ok
    if j >= 1:
        assert all(_total_valuation(w, form, d) == -j for w, form in B.summands)


@settings(max_examples=100)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(1, 8), st.integers(0, 10**6))
def test_gen_random_builds_degenerate_certificates(nvars, degree, rank, seed):
    f, B = gen_random(nvars, degree, rank, seed=seed)
    assert B.rank() == rank
    assert not f.is_zero
    assert check_border(B, f).ok
    assert gen_random(nvars, degree, rank, seed=seed) == (f, B)
    # every block of two or more summands has a pole in each; only a last
    # block of one converges on its own
    converging = [s for s in B.summands if _total_valuation(*s, degree) >= 0]
    assert len(converging) <= 1


def test_gen_random_repairs_block_limits_that_cancel(monkeypatch):
    # at this seed the two blocks, a divided difference and a single power,
    # first have limits that cancel; the last block's weights are doubled,
    # and the target is that block's own limit
    limits = []
    real = BorderDecomposition.expand

    def recorded(self, through=None):
        S = real(self, through)
        limits.append(S.limit_at_zero())
        return S

    monkeypatch.setattr(BorderDecomposition, "expand", recorded)
    f, B = gen_random(1, 1, 3, seed=143)
    monkeypatch.undo()
    assert len(limits) == 2 and limits[0].is_zero and limits[1] == f
    assert not f.is_zero and check_border(B, f).ok
    assert [w.valuation() for w, _ in B.summands] == [-1, -1, 0]
    # the divided difference's limit is -f, and the doubled power is 2 f
    first, last = (BorderDecomposition(1, 1, part).expand(through=0).limit_at_zero()
                   for part in (B.summands[:2], B.summands[2:]))
    assert first == -f and last == f.scale(2)


def test_gen_random_validation():
    with pytest.raises(ValueError):
        gen_random(0, 3, 2)
    with pytest.raises(ValueError):
        gen_random(2, 0, 2)
    with pytest.raises(ValueError):
        gen_random(2, 3, 0)


def test_gen_family_dispatch():
    assert gen_family("tangent", d=3) == gen_tangent(3)
    assert gen_family("osculating", d=5, j=2) == gen_osculating(5, 2)
    assert gen_family("multibase", d=4) == gen_multibase(4)
    assert gen_family("random", d=3, nvars=2, rank=2, seed=7) == gen_random(2, 3, 2, seed=7)
    with pytest.raises(ValueError):
        gen_family("tangent")
    with pytest.raises(ValueError):
        gen_family("osculating", d=5)
    with pytest.raises(ValueError):
        gen_family("random", d=3)
    with pytest.raises(ValueError):
        gen_family("cubature", d=3)
    # a parameter the family does not read is refused, not ignored; seed is
    # exempt, as the command line always passes one
    valid = {"tangent": {"d": 4}, "multibase": {"d": 4}, "osculating": {"d": 4, "j": 2},
             "random": {"d": 4, "nvars": 2, "rank": 2}}
    for family, name, value in [("tangent", "j", 2), ("tangent", "rank", 20),
                                ("tangent", "nvars", 2), ("multibase", "j", 1),
                                ("multibase", "nvars", 4), ("osculating", "rank", 3),
                                ("osculating", "nvars", 2), ("random", "j", 1)]:
        with pytest.raises(ValueError, match=f"the {family} family takes no {name}$"):
            gen_family(family, **valid[family], **{name: value})
    assert gen_family("tangent", d=3, seed=5) == gen_tangent(3)


# -- monomial decompositions ------------------------------------------------


def monomial_upper(exps):
    """A monomial from a power of its first variable, multiplying the others
    in one at a time; x * z^2 takes the three summands of e = 1, k = 2."""
    n = len(exps)
    first = next(i for i, e in enumerate(exps) if e)
    W = WaringDecomposition(n, exps[first], ((F(1), LinearForm.variable(n, first)),))
    for i in range(first + 1, n):
        if exps[i]:
            W = multiply_by_power(W, LinearForm.variable(n, i), exps[i])
    return W


def test_monomial_upper_xz2():
    W = monomial_upper((1, 0, 2))
    assert W.rank() == 3
    assert verify_waring(W, mono(3, (1, 0, 2)))
    forms = {form.coefs for _, form in W.summands}
    assert forms == {(F(1), F(0), F(0)), (F(1), F(0), F(1)), (F(1), F(0), F(-1))}


def test_monomial_upper_various():
    cases = [(3,), (0, 2), (2, 3), (1, 1, 1), (0, 1, 0, 2)]
    for exps in cases:
        W = monomial_upper(exps)
        assert verify_waring(W, mono(len(exps), exps))


def test_monomial_upper_pure_power_is_rank_one():
    W = monomial_upper((0, 4, 0))
    assert W.rank() == 1
    assert W.summands[0][1].coefs == (F(0), F(1), F(0))
