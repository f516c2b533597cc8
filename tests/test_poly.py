"""Homogeneous polynomials and linear forms, rational and eps-valued."""

import random
from fractions import Fraction
from math import comb, factorial, lcm

import pytest
from hypothesis import given, settings, strategies as st

from waring import (
    BorderDecomposition,
    EpsPoly,
    EpsScalar,
    HomoPoly,
    LinearForm,
    SingularMatrixError,
    WaringDecomposition,
    diagonalize,
    falling_factorial,
    monomials_of_degree,
    multiply_by_power,
    normalize_border,
    poly,
    restrict_vars_zero,
)
from waring.linalg import rat_inverse
from test_golden_documents import dense_certificate
from conftest import (
    F,
    compose_with_unit_denominators,
    eps_matrix_rows,
    esc,
    lf,
    mono,
    rand_poly,
    ref_is_parallel,
    ref_substitute,
    ref_substitute_form,
    repeated_product,
)


def test_falling_factorial_values():
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(7, 0) == 1
    assert falling_factorial(4, 4) == factorial(4)
    assert falling_factorial(3, 1) == 3


def test_monomials_of_degree_enumeration():
    for n in range(1, 4):
        for d in range(0, 5):
            ms = monomials_of_degree(n, d)
            assert len(ms) == comb(n + d - 1, d)
            assert len(set(ms)) == len(ms)
            assert all(len(m) == n and sum(m) == d for m in ms)


def ref_compositions(total, parts):
    """The recursive enumeration: first entry ascending, then the rest."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in ref_compositions(total - first, parts - 1):
            yield (first,) + rest


def test_compositions_keep_the_recursive_order():
    for n in range(1, 6):
        for d in range(0, 6):
            assert list(poly._compositions(d, n)) == list(ref_compositions(d, n))
            assert monomials_of_degree(n, d) == tuple(
                sorted(ref_compositions(d, n), key=poly.monomial_key))


def test_a_power_in_1500_variables_expands():
    # one recursion level per variable passed Python's limit near 1000
    n = 1500
    W = WaringDecomposition(n, 1, ((F(2), LinearForm([F(i % 7 - 3) for i in range(n)])),))
    S = W.expand()
    assert len(S) == sum(1 for i in range(n) if i % 7 != 3)
    assert S.coeff((1,) + (0,) * (n - 1)) == -6
    assert len(monomials_of_degree(n, 1)) == n


def test_homopoly_construction_and_access():
    f = HomoPoly(2, 2, {(2, 0): F(1), (1, 1): F(0), (0, 2): F(-3)})
    assert f.coeff((1, 1)) == 0
    assert f.coeff((0, 2)) == -3
    assert len(f) == 2
    assert f.monomials() == ((2, 0), (0, 2))  # graded-lex, largest first
    assert not f.is_zero
    assert HomoPoly.zero(3, 4).is_zero


def test_homopoly_rejects_bad_terms():
    with pytest.raises(ValueError):
        HomoPoly(2, 2, {(1, 0): F(1)})  # wrong total degree
    with pytest.raises(ValueError):
        HomoPoly(2, 2, {(1, 1, 0): F(1)})  # wrong arity


def test_homopoly_ring_ops():
    x = mono(2, (1, 0))
    y = mono(2, (0, 1))
    f = (x + y) * (x + y)
    assert f == mono(2, (2, 0)) + mono(2, (1, 1), 2) + mono(2, (0, 2))
    assert f - f == HomoPoly.zero(2, 2)
    assert f.scale(F(1, 2)).coeff((1, 1)) == 1
    with pytest.raises(ValueError):
        x + mono(2, (2, 0))  # degree mismatch


def test_homopoly_differentiate():
    f = mono(2, (3, 0)) + mono(2, (1, 2))  # x^3 + x y^2
    assert f.differentiate(0) == mono(2, (2, 0), 3) + mono(2, (0, 2))
    assert f.differentiate(1, 2) == mono(2, (1, 0), 2)
    assert f.differentiate(1, 3).is_zero


def test_homopoly_substitute_linear():
    f = mono(2, (2, 0))  # x^2
    g = f.substitute_linear([[F(1), F(1)], [F(0), F(1)]])  # x -> x + y
    assert g == mono(2, (2, 0)) + mono(2, (1, 1), 2) + mono(2, (0, 2))


def test_homopoly_used_vars_and_var_windows():
    f = mono(3, (2, 0, 1))
    g = mono(4, (2, 0, 0, 0))
    assert g.nvars == 4 and g.coeff((2, 0, 0, 0)) == 1
    assert g.take_vars(2) == mono(2, (2, 0))
    with pytest.raises(ValueError):
        f.take_vars(2)  # drops a used variable


def test_homopoly_restrict_zero():
    f = mono(3, (1, 1, 1)) + mono(3, (3, 0, 0))
    assert f.restrict_zero([1]) == mono(3, (3, 0, 0))
    assert f.restrict_zero([0]).is_zero


def test_homopoly_eps_lift_and_limit():
    f = mono(2, (2, 0)) + mono(2, (0, 2), 3)
    lifted = HomoPoly(2, 2, {m: EpsScalar.from_rational(c) for m, c in f.items()})
    assert lifted.limit_at_zero() == f
    g = lifted.scale(EpsScalar.eps(1)) + HomoPoly(2, 2, {(1, 1): EpsScalar.one()})
    assert g.min_valuation() == (0, (1, 1))
    assert g.limit_at_zero() == mono(2, (1, 1))


def test_linearform_power_binomial():
    form = lf(F(1), F(2))
    p = form.power(3)
    assert p == (
        mono(2, (3, 0))
        + mono(2, (2, 1), 6)
        + mono(2, (1, 2), 12)
        + mono(2, (0, 3), 8)
    )
    assert form.power(1) == mono(2, (1, 0)) + mono(2, (0, 1), 2)


def test_linearform_eps_power():
    # LinearForm.power is rational; a form over Q(eps) expands as a
    # one-summand border certificate
    form = lf(EpsScalar.one(), EpsScalar.eps())
    with pytest.raises(TypeError):
        form.power(2)
    p = BorderDecomposition(2, 2, ((EpsScalar.one(), form),)).expand()
    assert p.limit_at_zero() == mono(2, (2, 0))
    assert p.coeff((1, 1)) == EpsScalar.eps() * 2


def test_linearform_parallel_and_scale():
    # multiply_by_power's parallel test, by cross-multiplication on rows,
    # against the scalar ratio test: a form parallel to z becomes one power
    # of z, rescaled
    for a, b, parallel in [((2, 4), (1, 2), True), ((1, 1), (1, 2), False),
                           ((1, 0), (0, 1), False)]:
        l, z = lf(*map(F, a)), lf(*map(F, b))
        assert ref_is_parallel(l, z) is parallel
        out = multiply_by_power(WaringDecomposition(2, 1, ((F(1), l),)), z, 1)
        assert (out.rank() == 1 and out.summands[0][1] == z) is parallel
    out = multiply_by_power(WaringDecomposition(2, 1, ((F(1), lf(F(2), F(4))),)),
                            lf(F(-1, 3), F(-2, 3)), 2)
    assert out.summands == ((F(-6), lf(F(-1, 3), F(-2, 3))),)


def test_linearform_substitute_matches_poly_substitution():
    rng = random.Random(3)
    rows = [[F(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
    form = lf(F(1), F(-2), F(3))
    d = 3
    lhs = WaringDecomposition(3, d, ((F(1), form),)).substitute(rows).expand()
    rhs = form.power(d).substitute_linear(rows)
    assert lhs == rhs


def test_linearform_restrict_and_windows():
    # restriction acts on a certificate's rows; widening on a decomposition's
    form = lf(F(0), F(1), F(2))
    B = BorderDecomposition(3, 2, ((F(1), form),))
    assert restrict_vars_zero(B, [1]).summands[0][1] == (F(0), F(0), F(2))
    assert restrict_vars_zero(B, [1, 2]).rank() == 0
    wide = WaringDecomposition(3, 2, ((F(1), form),)).extend_vars(4)
    assert wide.summands[0][1].coefs == (F(0), F(1), F(2), F(0))


def test_linearform_variable_and_derivative():
    v = LinearForm.variable(3, 1)
    assert v.coefs == (F(0), F(1), F(0))
    # the derivative of a form in a variable is that variable's coefficient
    assert lf(F(2), F(5)).power(1).differentiate(1) == HomoPoly(2, 0, {(0, 0): F(5)})


def test_linearform_rejects_degenerate_input():
    with pytest.raises(ValueError):
        LinearForm(())
    with pytest.raises(ValueError):
        LinearForm((F(0), F(0)))
    # mixed scalar kinds are lifted to eps uniformly, never left mixed
    form = LinearForm((F(1), esc((0, 1))))
    assert not form.is_rational
    assert all(isinstance(c, EpsScalar) for c in form.coefs)


def test_substitute_roundtrip_random():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(1, 3)
        d = rng.randint(1, 4)
        f = rand_poly(rng, n, d)
        # a random unimodular-ish upper triangular change of variables
        rows = [
            [F(1) if i == j else (F(rng.randint(-2, 2)) if j > i else F(0)) for j in range(n)]
            for i in range(n)
        ]
        inv = _invert_unitriangular(rows)
        assert f.substitute_linear(rows).substitute_linear(inv) == f


def _invert_unitriangular(rows):
    n = len(rows)
    inv = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            s = sum(rows[i][k] * inv[k][j] for k in range(i + 1, n))
            inv[i][j] = -s
    return inv


# -- LinearForm.power against the repeated product ------------------------------


PROPERTY = settings(max_examples=80)

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)
eps_polys = st.dictionaries(st.integers(0, 3), small_fractions, max_size=3).map(EpsPoly)
poly_scalars = eps_polys.map(EpsScalar.from_poly)
quotient_scalars = st.builds(EpsScalar, eps_polys, eps_polys.filter(bool))


def nonzero(coefs):
    # a linear form is never the zero vector
    return any(coefs)


def form_power(coefs, d):
    """The d-th power of the form: ``LinearForm.power`` over Q (and at
    d = 0), the expansion of a one-summand border certificate over Q(eps)."""
    form = LinearForm(coefs)
    if form.is_rational or d == 0:
        return form.power(d)
    with pytest.raises(TypeError):
        form.power(d)
    return BorderDecomposition(form.nvars, d, ((EpsScalar.one(), form),)).expand()


def assert_power_matches(coefs, d):
    got = form_power(coefs, d)
    want = repeated_product(coefs, d)
    assert (got.nvars, got.degree) == (want.nvars, want.degree)
    assert dict(got.items()) == dict(want.items())
    for m, c in want.items():
        assert type(got.coeff(m)) is type(c)


@PROPERTY
@given(st.lists(small_fractions, min_size=1, max_size=4).filter(nonzero), st.integers(0, 7))
def test_form_power_rational(coefs, d):
    assert_power_matches(coefs, d)


@PROPERTY
@given(st.lists(poly_scalars, min_size=1, max_size=3).filter(nonzero), st.integers(0, 6))
def test_form_power_over_q_eps_polynomials(coefs, d):
    assert_power_matches(coefs, d)


@PROPERTY
@given(st.lists(st.one_of(quotient_scalars, poly_scalars), min_size=1, max_size=3)
       .filter(nonzero),
       st.integers(0, 4))
def test_form_power_with_quotient_coefficients(coefs, d):
    assert_power_matches(coefs, d)


@PROPERTY
@given(st.lists(st.one_of(small_fractions, poly_scalars), min_size=2, max_size=3)
       .filter(nonzero),
       st.integers(0, 5))
def test_form_power_mixed_scalar_kinds(coefs, d):
    # a form never mixes kinds: a mixed row is lifted to EpsScalars, and its
    # power is that of the lifted row
    lifted = [c if isinstance(c, EpsScalar) else EpsScalar.from_rational(c) for c in coefs]
    assert LinearForm(coefs) == tuple(lifted)
    assert_power_matches(lifted, d)


# -- substitute_linear over Q against a product of row powers ------------------


def assert_substitution_matches(f, rows):
    got = f.substitute_linear(rows)
    want = ref_substitute(f, rows)
    assert (got.nvars, got.degree) == (want.nvars, want.degree)
    assert dict(got.items()) == dict(want.items())
    assert all(type(c) is Fraction for _, c in got.items())


# zero entries often, small and large denominators, both signs
entries = st.one_of(
    st.just(F(0)),
    small_fractions,
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**12),
)


@st.composite
def rational_substitutions(draw, max_degree=4):
    n = draw(st.integers(1, 4))
    d = draw(st.integers(0, max_degree))
    rows = draw(st.lists(
        st.one_of(st.just([F(0)] * n), st.lists(entries, min_size=n, max_size=n)),
        min_size=n, max_size=n))
    monos = monomials_of_degree(n, d)
    terms = draw(st.dictionaries(st.sampled_from(monos), entries, max_size=len(monos)))
    return HomoPoly(n, d, terms), rows


@PROPERTY
@given(rational_substitutions())
def test_rational_substitute_linear_matches_row_products(case):
    # zero polynomials, degree 0 and zero rows included
    f, rows = case
    assert_substitution_matches(f, rows)


@PROPERTY
@given(rational_substitutions(max_degree=3), st.data())
def test_rational_substitute_linear_round_trips_through_the_inverse(case, data):
    f, rows = case
    try:
        inv = rat_inverse(rows)
    except SingularMatrixError:
        # an invertible unit-triangular matrix with the drawn upper part
        n = len(rows)
        rows = [[F(1) if i == j else (r[j] if j > i else F(0)) for j in range(n)]
                for i, r in enumerate(rows)]
        inv = rat_inverse(rows)
    g = f.substitute_linear(rows)
    assert_substitution_matches(f, rows)
    assert g.substitute_linear(inv) == f


def ref_tuple_keyed_substitute(p, forms):
    """The integer substitution with monomials kept as exponent tuples: a
    product of two terms adds the tuples entrywise.  Same clearing, same
    term order as ``poly._rational_substitute``."""
    n = p.nvars
    rows = []
    for form in forms:
        support = [i for i, c in enumerate(form) if c]
        den = lcm(*(form[i].denominator for i in support))
        rows.append((den, support, [form[i].numerator * (den // form[i].denominator)
                                    for i in support]))
    parts, L = [], 1
    for m, c in p.items():
        D = c.denominator
        if any(e and not rows[i][1] for i, e in enumerate(m)):
            continue
        for (den, _, _), e in zip(rows, m):
            D *= den**e
        L = lcm(L, D)
        parts.append((m, c.numerator, D))
    acc = {}
    for m, num, D in parts:
        piece = [((0,) * n, num * (L // D))]
        for i, e in enumerate(m):
            if e:
                _, support, ints = rows[i]
                got = poly._int_power_terms(ints, e, n, support)
                out = {}
                for m1, c1 in piece:
                    for m2, c2 in got:
                        k = tuple(a + b for a, b in zip(m1, m2))
                        out[k] = out.get(k, 0) + c1 * c2
                piece = list(out.items())
        for k, v in piece:
            acc[k] = acc.get(k, 0) + v
    return [(m, Fraction(v, L)) for m, v in acc.items() if v]


def _sparse_poly(rng, n, d, count, entry):
    """count random terms; each exponent vector is a uniform cut of d into n
    parts, so pure powers such as x0**d turn up too."""
    terms = {}
    for _ in range(count):
        cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
        terms[tuple(b - a for a, b in zip([0] + cuts, cuts + [d]))] = entry()
    return HomoPoly(n, d, terms)


@pytest.mark.parametrize("n, d, count", [(2, 64, 12), (64, 2, 30), (3, 5, 20), (4, 3, 20)])
def test_kronecker_keyed_substitution_matches_tuple_keys(n, d, count):
    # the document ceilings (degree 64, 64 variables), zero rows and
    # denominators up to 10**12; the terms come out in the same order
    rng = random.Random(n * 1000 + d)

    def entry(big_share):
        # rows get few denominators up to 10**12: each row is cleared over
        # its lcm, and many would make the 64-variable case a benchmark of
        # big-integer arithmetic
        big = 10**12 if rng.random() < big_share else 9
        return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, big)) or F(1)

    p = _sparse_poly(rng, n, d, count, lambda: entry(0.5))
    sparse = 0.3 if n > 2 else 0
    for zero_row in (None, 0, n - 1):
        forms = [tuple(F(0) if i == zero_row or rng.random() < sparse else entry(0.03)
                       for _ in range(n)) for i in range(n)]
        got = poly._rational_substitute(p, forms)
        assert list(got.items()) == ref_tuple_keyed_substitute(p, forms)


def test_only_rational_rows_and_coefficients_take_the_integer_substitution(monkeypatch):
    # rational input runs on integers; a polynomial or rows over Q(eps) are
    # refused before any work
    calls = []
    real = poly._rational_substitute
    monkeypatch.setattr(poly, "_rational_substitute",
                        lambda p, forms: calls.append(1) or real(p, forms))
    f = HomoPoly(2, 2, {(2, 0): F(1, 3), (1, 1): F(-2)})
    rows = [[1, F(1, 2)], [F(0), F(-5, 7)]]  # ints count as rational
    f.substitute_linear(rows)
    assert len(calls) == 1
    eps_rows = [[EpsScalar.one(), esc((1, 1))], [EpsScalar.zero(), EpsScalar.one()]]
    with pytest.raises(TypeError):
        f.substitute_linear(eps_rows)
    with pytest.raises(TypeError):
        HomoPoly(2, 2, {m: EpsScalar.from_rational(c) for m, c in f.items()}).substitute_linear(
            [[F(1), F(2)], [F(0), F(1)]])
    with pytest.raises(TypeError):
        HomoPoly.zero(2, 2).substitute_linear(eps_rows)
    assert len(calls) == 1


# -- a decomposition's substitute against the scalar product c . M -------------


big_fractions = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**12)
rational_entries = st.one_of(st.just(F(0)), small_fractions, big_fractions)
big_eps_polys = st.dictionaries(
    st.integers(0, 3), st.one_of(small_fractions, big_fractions), max_size=3).map(EpsPoly)
# Fractions are the constant polynomials
q_eps_entries = st.one_of(st.just(EpsScalar.zero()), big_eps_polys.map(EpsScalar.from_poly),
                          rational_entries)
any_entries = st.one_of(q_eps_entries, quotient_scalars)


@st.composite
def form_substitutions(draw, entries):
    """(forms, rows): zero rows often, and forms over the same entries."""
    n = draw(st.integers(1, 4))
    row = st.lists(entries, min_size=n, max_size=n)
    rows = draw(st.lists(st.one_of(st.just([F(0)] * n), row), min_size=n, max_size=n))
    forms = draw(st.lists(row.filter(nonzero), min_size=1, max_size=4))
    return [LinearForm(c) for c in forms], rows


def waring_substitute(forms, rows):
    """The forms as the summands of a weight-1 Waring decomposition, each
    composed with x -> Mx."""
    return WaringDecomposition(len(rows), 1, tuple((F(1), f) for f in forms)).substitute(rows)


def assert_forms_match(forms, rows):
    """A Waring decomposition's substitute over Q and a certificate's over
    Q(eps) against the scalar product; the Waring one refuses Q(eps) input."""
    want = [ref_substitute_form(f, rows) for f in forms]
    rational = all(isinstance(x, Fraction) for r in rows for x in r) and all(
        f.is_rational for f in forms)
    B = BorderDecomposition(len(rows), 1, tuple((F(1), f) for f in forms))
    if not all(any(w) for w in want):
        with pytest.raises(ValueError):
            B.substitute(rows)
        if rational:
            with pytest.raises(ValueError):
                waring_substitute(forms, rows)
        return
    got = [g for _, g in B.substitute(rows).summands]
    assert [list(g) for g in got] == want
    assert all(type(c) is EpsScalar for g in got for c in g)
    if not rational:
        with pytest.raises(TypeError):
            waring_substitute(forms, rows)
        return
    W = waring_substitute(forms, rows)
    assert all(type(x) is int for row in W.rows for x in row)
    got = [g for _, g in W.summands]
    assert len(got) == len(forms)
    for form, g, w in zip(forms, got, want):
        assert isinstance(g, LinearForm) and list(g) == w
        assert all(type(c) is Fraction for c in g)


@PROPERTY
@given(form_substitutions(rational_entries))
def test_substitute_forms_rational(case):
    assert_forms_match(*case)


@PROPERTY
@given(form_substitutions(q_eps_entries))
def test_substitute_forms_over_q_eps_polynomials(case):
    # EpsScalars come out canonical: equality with the reference is
    # structural, and their denominators are 1
    forms, rows = case
    assert_forms_match(forms, rows)
    if all(any(ref_substitute_form(f, rows)) for f in forms):
        B = BorderDecomposition(len(rows), 1, tuple((F(1), f) for f in forms))
        for _, g in B.substitute(rows).summands:
            assert all(c.is_polynomial for c in g)


@PROPERTY
@given(form_substitutions(any_entries))
def test_substitute_forms_with_quotient_entries(case):
    assert_forms_match(*case)


def test_substitute_forms_on_a_non_polynomial_entry():
    unit = EpsScalar(EpsPoly({0: F(1)}), EpsPoly({0: F(1), 1: F(1)}))  # 1/(1+eps)
    rows = [[unit, esc((1, 2))], [EpsScalar.zero(), EpsScalar.one()]]
    forms = [lf(EpsScalar.one(), esc((0, 3), (2, F(1, 5)))), lf(F(1), F(-2))]
    assert_forms_match(forms, rows)
    with pytest.raises(ValueError):
        BorderDecomposition(2, 1, tuple((F(1), f) for f in forms)).substitute(rows[:1])


def count_gcd_calls(monkeypatch):
    """A list that gets one entry per EpsPoly.gcd call from now on."""
    calls = []
    gcd = EpsPoly.gcd
    monkeypatch.setattr(EpsPoly, "gcd", staticmethod(lambda a, b: calls.append(1) or gcd(a, b)))
    return calls


def test_diagonalize_and_waring_substitute_take_the_integer_paths(monkeypatch):
    # the staircase transform's entries are polynomials in eps, and the way
    # back is rational: no substitution reduces a scalar by a gcd
    for args in [(21, 4, 3, (1, 2), 4), (22, 5, 3, (2,), 3)]:
        f, B = dense_certificate(*args)
        D = diagonalize(B, f)
        A = eps_matrix_rows(D.transform)
        assert all(x.is_polynomial for r in A for x in r)
        assert all(isinstance(c, EpsScalar) for _, g in D.decomposition.summands for c in g)
        W = WaringDecomposition(f.nvars, f.degree, tuple(
            (F(k + 1), LinearForm([F(k - i, 3) for i in range(f.nvars)]))
            for k in range(3)))
        N = normalize_border(B)
        calls = count_gcd_calls(monkeypatch)
        N.substitute(A)
        W2 = W.substitute(D.base_change_inv)
        monkeypatch.undo()
        assert calls == []
        assert all(type(c) is Fraction for _, g in W2.summands for c in g)
    ident = [[F(1) if i == j else F(0) for j in range(5)] for i in range(5)]
    calls = count_gcd_calls(monkeypatch)
    assert B.substitute(ident) == B
    assert calls == []


def test_a_unit_denominator_transform_reduces_each_coefficient_at_most_once(monkeypatch):
    # composed with I + eps/(1+eps) N, the certificate's staircase transform
    # has non-monomial denominators; each output coefficient is built once
    f, B = dense_certificate(22, 5, 3, (2,), 3)
    B = compose_with_unit_denominators(B)
    # the transform's rows are built as EpsScalars when read: read them
    # before counting, so only the substitution's own reductions count
    rows = eps_matrix_rows(diagonalize(B, f).transform)
    assert any(len(x.den.pairs()) > 1 for r in rows for x in r)
    N = normalize_border(B)
    forms = [g for _, g in N.summands]
    calls = count_gcd_calls(monkeypatch)
    got = N.substitute(rows)
    monkeypatch.undo()
    assert len(calls) <= len(forms) * B.nvars
    assert [list(g) for _, g in got.summands] == [ref_substitute_form(g, rows) for g in forms]
