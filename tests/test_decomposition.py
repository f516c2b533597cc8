"""Decomposition containers, exact border verification, normalization."""

import operator
import random
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from waring import (
    BorderDecomposition,
    DegenerateDecompositionError,
    EpsPoly,
    EpsScalar,
    HomoPoly,
    InvariantError,
    LinearForm,
    WaringDecomposition,
    check_border,
    essential_rank,
    essential_reduce,
    is_local,
    multiply_by_power,
    normalize_border,
    restrict_vars_zero,
    verify_waring,
)
from waring import poly
from waring.linalg import rat_inverse
from waring.oracle import gen_random, gen_tangent, gen_multibase
from conftest import (
    F,
    compose_with_unit_denominators,
    eps,
    esc,
    lf,
    mono,
    ref_extend_summands,
    ref_merged,
    ref_multiply_by_power,
    ref_normalize_border,
    ref_substitute,
    ref_substitute_form,
    ref_waring_expand,
    repeated_product,
    unit_denominator_tangent,
)
from test_golden_documents import dense_certificate
from test_poly import count_gcd_calls


def x_var(n, i):
    return LinearForm.variable(n, i)


# -- WaringDecomposition ----------------------------------------------------


def test_waring_expand_classic_xy():
    # xy = (x+y)^2/4 - (x-y)^2/4
    W = WaringDecomposition(
        2, 2, ((F(1, 4), lf(F(1), F(1))), (F(-1, 4), lf(F(1), F(-1)))),
    )
    assert W.expand() == mono(2, (1, 1))
    assert verify_waring(W, mono(2, (1, 1)))
    assert not verify_waring(W, mono(2, (2, 0)))


def test_waring_rejects_junk():
    with pytest.raises(ValueError):
        WaringDecomposition(2, 2, ((F(0), lf(F(1), F(0))),))
    with pytest.raises(TypeError):
        WaringDecomposition(2, 2, ((F(1), lf(eps(), EpsScalar.one())),))
    with pytest.raises(ValueError):
        WaringDecomposition(2, 2, ((F(1), lf(F(1), F(0), F(0))),))
    with pytest.raises(ValueError):
        WaringDecomposition(2, 0, ())


def test_waring_merged_combines_and_cancels():
    a = lf(F(1), F(1))
    W = WaringDecomposition(
        2, 3, ((F(2), a), (F(3), a), (F(1), lf(F(1), F(0))), (F(-1), lf(F(1), F(0)))),
    )
    M = W.merged()
    assert M.rank() == 1
    assert M.summands[0][0] == 5
    assert M.expand() == W.expand()


def test_waring_add():
    W = WaringDecomposition(2, 2, ((F(1), lf(F(1), F(1))),))
    both = W + W
    assert both.rank() == 2
    assert both.expand() == W.expand().scale(2)


def test_waring_substitute_is_composition():
    W = WaringDecomposition(2, 2, ((F(1), lf(F(1), F(2))), (F(-2), lf(F(0), F(1)))))
    rows = [[F(1), F(1)], [F(0), F(1)]]
    assert W.substitute(rows).expand() == W.expand().substitute_linear(rows)


def test_waring_extend_vars():
    W = WaringDecomposition(1, 2, ((F(1), lf(F(1))),)).extend_vars(3)
    assert W.nvars == 3
    assert W.expand() == mono(3, (2, 0, 0))


# -- rows against the Fraction / LinearForm references ---------------------


row_scalars = st.one_of(st.just(F(0)), st.fractions(-6, 6, max_denominator=5),
                        st.fractions(-10**9, 10**9, max_denominator=10**6))
row_weights = st.fractions(-6, 6, max_denominator=7).filter(bool)


@st.composite
def waring_cases(draw):
    """(W, summands): 1-5 summands in 1-4 variables and degree 1-4, with
    rational non-integer, zero and negative entries; some summands repeat
    an earlier form, or a rational multiple of it, under another weight."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 4))
    coefs = st.lists(row_scalars, min_size=n, max_size=n).filter(any)
    summands = []
    for _ in range(draw(st.integers(1, 5))):
        w = draw(row_weights)
        if summands and draw(st.booleans()):
            _, form = draw(st.sampled_from(summands))
            scale = draw(st.sampled_from([F(1), F(-1), F(2, 3), F(-5, 2)]))
            summands.append((w, LinearForm([c * scale for c in form])))
        else:
            summands.append((w, LinearForm(draw(coefs))))
    return WaringDecomposition(n, d, tuple(summands)), summands


def rows_in_lowest_terms(W):
    for wn, wd, den, *cs in W.rows:
        assert wn != 0 and wd > 0 and gcd(wn, wd) == 1
        assert den > 0 and gcd(den, *cs) == 1 and any(cs)
    return all(type(x) is int for row in W.rows for x in row)


@settings(max_examples=120)
@given(waring_cases())
def test_waring_rows_rebuild_from_their_summands(case):
    W, summands = case
    assert rows_in_lowest_terms(W)
    assert list(W.summands) == summands
    again = WaringDecomposition(W.nvars, W.degree, W.summands)
    assert again == W and hash(again) == hash(W)
    assert again.rows == W.rows


@settings(max_examples=120)
@given(waring_cases(), st.data())
def test_waring_row_steps_match_the_scalar_references(case, data):
    W, summands = case
    n, d = W.nvars, W.degree
    assert W.expand() == ref_waring_expand(n, d, summands)
    M = W.merged()
    assert rows_in_lowest_terms(M)
    assert list(M.summands) == ref_merged(summands)
    both = W + M
    assert list(both.summands) == summands + ref_merged(summands)
    wide = W.extend_vars(n + data.draw(st.integers(0, 2)))
    assert rows_in_lowest_terms(wide)
    assert list(wide.summands) == ref_extend_summands(summands, wide.nvars)
    rows = data.draw(st.lists(st.lists(row_scalars, min_size=n, max_size=n),
                              min_size=n, max_size=n))
    want = [(w, ref_substitute_form(form, rows)) for w, form in summands]
    if not all(any(form) for _, form in want):
        with pytest.raises(ValueError):
            W.substitute(rows)
        return
    got = W.substitute(rows)
    assert rows_in_lowest_terms(got)
    assert [(w, list(form)) for w, form in got.summands] == want


@settings(max_examples=80)
@given(waring_cases(), st.data())
def test_multiply_by_power_rows_match_the_scalar_reference(case, data):
    # z is a general rational form, or a rational multiple of one of W's
    # forms, so the parallel branch runs too
    W, summands = case
    n = W.nvars
    if data.draw(st.booleans()):
        _, form = data.draw(st.sampled_from(summands))
        z = LinearForm([c * data.draw(row_weights) for c in form])
    else:
        z = LinearForm(data.draw(st.lists(row_scalars, min_size=n, max_size=n).filter(any)))
    k = data.draw(st.integers(1, 3))
    out = multiply_by_power(W, z, k)
    assert rows_in_lowest_terms(out)
    assert list(out.summands) == ref_multiply_by_power(summands, W.degree, z, k)


# -- check_border ----------------------------------------------------------


def test_border_exact_certificate_has_no_residual():
    B = BorderDecomposition(2, 2, ((F(1, 4), lf(F(1), F(1))), (F(-1, 4), lf(F(1), F(-1)))))
    out = check_border(B, mono(2, (1, 1)))
    assert out.ok and out.q is None
    assert out.reason == "ok" and out.witness is None


def test_border_tangent_has_first_order_residual():
    f, B = gen_tangent(3)
    out = check_border(B, f)
    assert out.ok and out.q == 1


def test_border_pole_detected_with_witness():
    B = BorderDecomposition(2, 3, ((EpsScalar.eps(-1), x_var(2, 0)),))
    out = check_border(B, mono(2, (3, 0)))
    assert not out.ok
    assert "pole" in out.reason
    assert out.witness == (3, 0)


def test_border_wrong_limit():
    f, B = gen_tangent(3)
    out = check_border(B, mono(2, (3, 0)))
    assert not out.ok
    assert out.reason == "limit differs from target"
    assert out.witness is not None


def test_border_degenerate_sum_raises():
    B = BorderDecomposition(2, 3, ((F(1), x_var(2, 0)), (F(-1), x_var(2, 0))))
    with pytest.raises(DegenerateDecompositionError):
        check_border(B, mono(2, (3, 0)))
    # against the zero target the empty expansion is fine
    out = check_border(B, HomoPoly.zero(2, 3))
    assert out.ok and out.q is None


def test_border_shape_mismatch():
    f, B = gen_tangent(3)
    with pytest.raises(ValueError):
        check_border(B, mono(3, (2, 1, 0)))


def test_border_residual_order_is_exactly_min_valuation():
    # weight eps^2 on a second summand leaves a residual at order 2
    B = BorderDecomposition(
        2, 2, ((F(1), lf(F(1), F(0))), (EpsScalar.eps(2), lf(F(0), F(1)))),
    )
    out = check_border(B, mono(2, (2, 0)))
    assert out.ok and out.q == 2


def test_border_residual_order_matches_the_expanded_difference():
    # q against the minimal valuation of the expansion minus the lifted
    # target, on passing and failing targets; x^2 is missing from the
    # exact sum of the first case, so it reads 0 there
    exact = BorderDecomposition(2, 2, ((F(1, 4), lf(F(1), F(1))), (F(-1, 4), lf(F(1), F(-1)))))
    cases = [(mono(2, (1, 1)), exact), gen_tangent(3), gen_tangent(5), gen_multibase(4)]
    cases += [gen_random(2, 3, 3, seed=seed) for seed in range(4)]
    for f, B in cases:
        first = (f.degree,) + (0,) * (f.nvars - 1)
        for target in (f, f + mono(f.nvars, first), f + mono(f.nvars, first[::-1], 3)):
            out = check_border(B, target)
            if "pole" in out.reason:
                continue
            diff = B.expand() - HomoPoly(target.nvars, target.degree, {
                m: EpsScalar.from_rational(c) for m, c in target.items()})
            assert out.q == (None if diff.is_zero else diff.min_valuation()[0])
    assert check_border(exact, mono(2, (1, 1)) + mono(2, (2, 0))).q == 0


# -- normalize_border -------------------------------------------------------


def test_normalize_extracts_content_and_clears_denominators():
    # form eps*x + eps^2*y with weight eps^-2: content eps moves out
    w = EpsScalar.eps(-2)
    form = lf(eps(1), eps(2))
    B = BorderDecomposition(2, 2, ((w, form),))
    N = normalize_border(B)
    assert N.rank() == 1
    w2, form2 = N.summands[0]
    assert all(c.is_zero or c.is_polynomial for c in form2.coefs)
    v = min(c.valuation() for c in form2.coefs if not c.is_zero)
    assert v == 0
    assert N.expand().limit_at_zero() == B.expand().limit_at_zero()


def test_normalize_clears_rational_function_coefficients():
    unit = EpsScalar(EpsPoly.const(1), EpsPoly({0: F(1), 1: F(1)}))  # 1/(1+eps)
    B = BorderDecomposition(2, 2, ((F(1), lf(unit, EpsScalar.one())),))
    N = normalize_border(B)
    for _, form in N.summands:
        assert all(c.is_zero or c.is_polynomial for c in form.coefs)
    assert N.expand().limit_at_zero() == B.expand().limit_at_zero()


def test_normalize_truncates_unreachable_tails():
    # weight of valuation 0 cannot see eps^1 tails of the form
    B = BorderDecomposition(2, 2, ((F(1), lf(EpsScalar.one() , eps(1))),))
    N = normalize_border(B)
    _, form = N.summands[0]
    assert form.coefs[1].is_zero
    assert N.expand().limit_at_zero() == B.expand().limit_at_zero()


def test_normalize_preserves_verification_on_random_certificates():
    for seed in range(12):
        f, B = gen_random(2, 3, 3, seed=seed)
        N = normalize_border(B)
        assert check_border(N, f).ok
        assert N.rank() <= B.rank()


def test_normalize_idempotent():
    for seed in (0, 3, 5):
        f, B = gen_random(2, 4, 2, seed=seed)
        N = normalize_border(B)
        assert normalize_border(N) == N


# -- bases and locality -----------------------------------------------------


def test_base_of_form():
    def base(form):
        return is_local(BorderDecomposition(2, 1, ((F(1), form),))).coefs

    assert base(lf(EpsScalar.one(), eps(1))) == (F(1), F(0))
    assert base(lf(eps(1), EpsScalar.one())) == (F(0), F(1))
    assert base(lf(EpsScalar.from_rational(2), eps(1))) == (F(1), F(0))
    assert base(lf(esc((2, 3)), esc((2, 5)))) == (F(1), F(5, 3))


def test_is_local():
    f, B = gen_tangent(4)
    base = is_local(B)
    assert base is not None and base.coefs == (F(1), F(0))
    _, M = gen_multibase(4)
    assert is_local(M) is None


# -- essential variables ----------------------------------------------------


def test_essential_rank_values():
    assert essential_rank(mono(2, (2, 1)) + mono(2, (1, 2), 2) + mono(2, (0, 3))) == 2
    binary_cube = mono(2, (3, 0)) + mono(2, (2, 1), 3) + mono(2, (1, 2), 3) + mono(2, (0, 3))
    assert essential_rank(binary_cube) == 1  # (x+y)^3
    assert essential_rank(mono(3, (2, 1, 0))) == 2
    assert essential_rank(mono(3, (3, 0, 0)) + mono(3, (0, 3, 0)) + mono(3, (0, 0, 3))) == 3
    assert essential_rank(HomoPoly.zero(2, 2)) == 0


def test_essential_reduce_identity_when_full_rank():
    f, B = gen_tangent(3)
    f1, B1, T, N = essential_reduce(f, B)
    assert N == 2 and f1 == f and T == [[F(1), F(0)], [F(0), F(1)]]


def test_essential_reduce_drops_unused_direction():
    # tangent certificate for u^2 v at u = x + z, v = y, inside 3 variables
    f, B = gen_tangent(3)
    rows = [[F(1), F(0), F(1)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]
    f3 = HomoPoly(3, 3, {m + (0,): c for m, c in f.items()}).substitute_linear(rows)
    B3 = BorderDecomposition(3, 3, tuple((w, LinearForm(g + (F(0),))) for w, g in B.summands))
    B3 = B3.substitute([[EpsScalar.from_rational(x) for x in r] for r in rows])
    assert check_border(B3, f3).ok
    f1, B1, T, N = essential_reduce(f3, B3)
    assert N == 2
    assert all(not any(m[N:]) for m, _ in f1.items())
    assert check_border(B1, f1).ok
    # T is exactly invertible and conjugating back recovers f
    assert f1.substitute_linear(rat_inverse(T)) == f3


def test_essential_reduce_random_certificates_agree():
    for seed in range(10):
        f, B = gen_random(3, 3, 4, seed=seed)
        f1, B1, T, N = essential_reduce(f, B)
        assert N == essential_rank(f)
        assert check_border(B1, f1).ok
        if N < 3:
            assert all(not any(m[N:]) for m, _ in f1.items())


def test_essential_reduce_rank_deficit_is_an_error():
    f = mono(3, (1, 1, 1))  # three essential variables
    B = BorderDecomposition(3, 3, ((F(1), x_var(3, 0)),))
    with pytest.raises(InvariantError):
        essential_reduce(f, B)
    with pytest.raises(ValueError):
        essential_reduce(HomoPoly.zero(3, 3), B)


# -- restriction ------------------------------------------------------------


def test_restrict_vars_zero_drops_vanishing_summands():
    B = BorderDecomposition(
        2, 2, ((F(1), lf(EpsScalar.one(), eps(1))), (F(1), lf(EpsScalar.zero(), eps(1)))),
    )
    R = restrict_vars_zero(B, [1])
    assert R.rank() == 1
    assert R.expand() == B.expand().restrict_zero([1])
    with pytest.raises(ValueError):
        restrict_vars_zero(B, [2])


def test_restrict_vars_zero_commutes_with_expansion():
    rng = random.Random(1)
    for seed in range(8):
        f, B = gen_random(3, 3, 3, seed=seed)
        kill = [rng.randint(0, 2)]
        R = restrict_vars_zero(B, kill)
        assert R.expand() == B.expand().restrict_zero(kill)


# -- expansion kernel against repeated multiplication ------------------------


# Expansion by repeated HomoPoly multiplication, summand by summand: the
# reference the properties below compare the kernel against, sharing no
# code with it.
def ref_weighted_power_sum(nvars, degree, summands):
    out = HomoPoly.zero(nvars, degree)
    for w, form in summands:
        out = out + repeated_product(form, degree).scale(w)
    return out


def assert_same_expansion(D):
    got = D.expand()
    want = ref_weighted_power_sum(D.nvars, D.degree, D.summands)
    assert (got.nvars, got.degree) == (want.nvars, want.degree)
    assert dict(got.items()) == dict(want.items())
    for m, c in want.items():
        g = got.coeff(m)
        assert type(g) is type(c)
        if isinstance(c, EpsScalar):
            assert g.num.pairs() == c.num.pairs()
            assert g.den.pairs() == c.den.pairs()
            assert all(type(a) is Fraction for _, a in g.num.pairs() + g.den.pairs())
    return got


PROPERTY = settings(max_examples=60)

fractions = st.fractions(min_value=-6, max_value=6, max_denominator=5)
nonzero_fractions = fractions.filter(bool)
eps_polys = st.dictionaries(st.integers(0, 3), nonzero_fractions, max_size=3).map(EpsPoly)
nonzero_eps_polys = eps_polys.filter(bool)
poly_scalars = eps_polys.map(EpsScalar.from_poly)
laurent_scalars = st.builds(
    lambda p, k: EpsScalar.from_poly(p) * EpsScalar.eps(-k), eps_polys, st.integers(0, 3)
)
laurent_weights = st.builds(
    lambda p, k: EpsScalar.from_poly(p) * EpsScalar.eps(-k), nonzero_eps_polys, st.integers(0, 3)
)
# denominators such as 1 + eps or 2 - eps^2 that are not powers of eps
quotient_scalars = st.builds(
    EpsScalar, eps_polys,
    st.builds(lambda p, c: p + EpsPoly.const(c), nonzero_eps_polys, nonzero_fractions).filter(bool),
)


@st.composite
def decompositions(draw, weights, coefs, cls, max_degree=5):
    """A decomposition whose forms repeat: summands draw forms from a pool."""
    nvars = draw(st.integers(1, 3))
    degree = draw(st.integers(1, max_degree))
    vectors = st.lists(coefs, min_size=nvars, max_size=nvars).filter(any)
    pool = draw(st.lists(vectors, min_size=1, max_size=3))
    picks = draw(st.lists(st.tuples(weights, st.sampled_from(pool)), min_size=1, max_size=5))
    return cls(nvars, degree, tuple((w, LinearForm(v)) for w, v in picks))


def cancelled(D):
    """D followed by its own summands with negated weights: expands to zero."""
    return type(D)(D.nvars, D.degree, D.summands + tuple((-w, f) for w, f in D.summands))


@PROPERTY
@given(decompositions(nonzero_fractions, fractions, WaringDecomposition))
def test_rational_expansion_matches_the_scalar_loop(W):
    assert_same_expansion(W)
    assert assert_same_expansion(cancelled(W)).is_zero


@PROPERTY
@given(decompositions(laurent_weights, poly_scalars, BorderDecomposition))
def test_eps_polynomial_forms_with_pole_weights_match_the_scalar_loop(B):
    assert_same_expansion(B)


@PROPERTY
@given(decompositions(laurent_weights, laurent_scalars, BorderDecomposition))
def test_laurent_expansion_matches_the_scalar_loop(B):
    assert_same_expansion(B)
    assert_same_expansion(normalize_border(B))


# Q(eps) arithmetic with general denominators runs the Euclidean gcd on every
# operation, in the kernel's fallback and the reference alike: keep these small
SLOW_PROPERTY = settings(max_examples=25)
mixed_weights = st.one_of(laurent_weights, quotient_scalars.filter(bool))
mixed_coefs = st.one_of(quotient_scalars, laurent_scalars)


@SLOW_PROPERTY
@given(decompositions(mixed_weights, mixed_coefs, BorderDecomposition, max_degree=3))
def test_non_monomial_denominators_match_the_scalar_loop(B):
    assert_same_expansion(B)


@SLOW_PROPERTY
@given(st.one_of(decompositions(laurent_weights, laurent_scalars, BorderDecomposition),
                 decompositions(mixed_weights, mixed_coefs, BorderDecomposition, max_degree=2)))
def test_exact_cancellation_is_degenerate(B):
    C = cancelled(B)
    assert assert_same_expansion(C).is_zero
    f = HomoPoly.monomial(B.nvars, (B.degree,) + (0,) * (B.nvars - 1))
    with pytest.raises(DegenerateDecompositionError):
        check_border(C, f)


def test_only_non_monomial_denominators_take_the_scalar_loop(monkeypatch):
    calls = []
    loop = poly._scalar_power_sum
    monkeypatch.setattr(poly, "_scalar_power_sum", lambda *a: calls.append(1) or loop(*a))
    f, B = gen_tangent(5)
    assert check_border(B, f).ok and check_border(normalize_border(B), f).ok
    assert calls == []
    f, B = unit_denominator_tangent()
    assert check_border(B, f).ok
    assert calls == [1]


# -- normalization against the scalar reference -----------------------------


def non_monomial_denominators(form):
    return sum(len(c.den.pairs()) > 1 for c in form)


def assert_normalizes_like_the_reference(B):
    """normalize_border against ref_normalize_border, summand by summand, and
    its own contract: polynomial forms with a coefficient of valuation 0,
    idempotence, and an expansion that moves only at valuation >= 1."""
    N, R = normalize_border(B), ref_normalize_border(B)
    assert N.rank() == R.rank() == B.rank()
    for (w, form), (rw, rform), (_, given_form) in zip(N.summands, R.summands, B.summands):
        assert all(c.is_zero or c.is_polynomial for c in form)
        assert min(c.valuation() for c in form if c) == 0
        if non_monomial_denominators(given_form) <= 1:
            assert (w, form) == (rw, rform)
        else:
            # the reference's lcm need not be 1 at eps = 0: the same
            # summand, up to one rational factor
            lam = next(c / r for c, r in zip(form, rform) if r)
            assert lam.is_polynomial and lam.num.degree() == 0
            assert form == LinearForm([c * lam for c in rform])
            assert w == rw / lam**B.degree
    assert normalize_border(N) == N
    moved = N.expand() - B.expand()
    assert moved.is_zero or moved.min_valuation()[0] >= 1


@PROPERTY
@given(decompositions(laurent_weights, laurent_scalars, BorderDecomposition))
def test_laurent_normalization_matches_the_scalar_reference(B):
    assert_normalizes_like_the_reference(B)


# denominators drawn as products of units that share factors, so that the
# reference's monic gcds leave an lcm whose value at eps = 0 is not 1
shared_units = [EpsPoly({0: F(1), 1: F(2)}), EpsPoly({0: F(1), 1: F(-1)}),
                EpsPoly({0: F(1), 2: F(3)})]
shared_unit_scalars = st.builds(
    lambda p, units: EpsScalar(p, reduce(operator.mul, units)),
    nonzero_eps_polys, st.lists(st.sampled_from(shared_units), min_size=1, max_size=2))


@SLOW_PROPERTY
@given(st.one_of(
    decompositions(mixed_weights, mixed_coefs, BorderDecomposition, max_degree=3),
    decompositions(laurent_weights, shared_unit_scalars, BorderDecomposition, max_degree=2)))
def test_normalization_with_non_monomial_denominators_matches_the_scalar_reference(B):
    assert_normalizes_like_the_reference(B)


def test_normalize_pins_a_form_with_two_related_unit_denominators():
    # 1/(1+2eps) and 1/((1+2eps)(1-eps)): the lcm, normalized to 1 at
    # eps = 0, is (1+2eps)(1-eps); the weight eps^-1 keeps the eps^1 tail
    u = EpsPoly({0: F(1), 1: F(2)})
    v = EpsPoly({0: F(1), 1: F(-1)})
    form = lf(EpsScalar(EpsPoly.const(1), u), EpsScalar(EpsPoly.const(1), u * v))
    B = BorderDecomposition(2, 2, ((EpsScalar.eps(-1), form),))
    ((w, got),) = normalize_border(B).summands
    assert got == lf(esc((0, 1), (1, -1)), EpsScalar.one())
    assert w == EpsScalar(EpsPoly.const(1), EpsPoly.eps() * u * u * v * v)
    # the reference clears by 2(1+2eps)(1-eps): the same summand scaled by 2
    ((rw, ref),) = ref_normalize_border(B).summands
    assert ref == lf(esc((0, 2), (1, -2)), EpsScalar.from_rational(2))
    assert rw == w / 4


def test_dense_certificate_checks_and_normalizes_without_a_gcd(monkeypatch):
    f, B = dense_certificate(22, 5, 3, (2,), 3)
    calls = count_gcd_calls(monkeypatch)
    assert check_border(B, f).ok
    assert calls == []
    normalize_border(B)
    assert calls == []


# -- every row-level step against its EpsScalar reference ---------------------


def assert_held_as_cleared(C):
    """C's rows are the codec's clearing of its summands: rebuilt from its
    own summands it is equal and hashes the same, so certificate equality
    is by value."""
    again = BorderDecomposition(C.nvars, C.degree, C.summands)
    assert again == C and hash(again) == hash(C)


def assert_steps_match_the_scalar_references(B, rows, kill):
    """expand, normalize_border, substitute, restrict_vars_zero and
    take_vars on the rows B holds, each against its reference on B's
    summands as EpsScalars."""
    assert_held_as_cleared(B)
    assert_same_expansion(B)
    assert_normalizes_like_the_reference(B)
    assert_held_as_cleared(normalize_border(B))
    want = [ref_substitute_form(form, rows) for _, form in B.summands]
    if all(any(w) for w in want):
        S = B.substitute(rows)
        assert [(w, list(g)) for w, g in S.summands] == [
            (w, v) for (w, _), v in zip(B.summands, want)]
        assert S.expand() == ref_substitute(B.expand(), rows)
        assert_held_as_cleared(S)
    else:
        with pytest.raises(ValueError):
            B.substitute(rows)
    R = restrict_vars_zero(B, kill)
    assert [(w, list(g)) for w, g in R.summands] == [
        (w, v) for w, v in ((w, [F(0) if i in kill else c for i, c in enumerate(form)])
                            for w, form in B.summands) if any(v)]
    assert R.expand() == B.expand().restrict_zero(kill)
    assert_held_as_cleared(R)
    E = BorderDecomposition(B.nvars + 1, B.degree,
                            [(w, LinearForm(f + (F(0),))) for w, f in B.summands])
    assert E.take_vars(B.nvars) == B
    with pytest.raises(ValueError):
        restrict_vars_zero(B, [B.nvars])
    if any(form[-1] for _, form in B.summands):
        with pytest.raises(ValueError):
            B.take_vars(B.nvars - 1)


@st.composite
def certificate_steps(draw, certificates, entries):
    """(B, rows, kill): a certificate, a square matrix of entries, and a set
    of variables to restrict to zero."""
    B = draw(certificates)
    n = B.nvars
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    kill = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return B, rows, kill


laurent_certificates = decompositions(laurent_weights, laurent_scalars, BorderDecomposition)


@PROPERTY
@given(certificate_steps(laurent_certificates, st.one_of(fractions, laurent_scalars)))
def test_row_steps_on_laurent_certificates_match_the_scalar_references(case):
    assert_steps_match_the_scalar_references(*case)


@SLOW_PROPERTY
@given(certificate_steps(
    decompositions(laurent_weights, laurent_scalars, BorderDecomposition, max_degree=2)
    .map(compose_with_unit_denominators),
    fractions))
def test_row_steps_on_unit_denominator_certificates_match_the_scalar_references(case):
    assert_steps_match_the_scalar_references(*case)


@pytest.mark.parametrize("make", [
    lambda: gen_tangent(4), lambda: gen_multibase(3), lambda: gen_random(3, 3, 4, seed=2),
    lambda: dense_certificate(21, 4, 3, (1, 2), 4), unit_denominator_tangent,
    lambda: (None, compose_with_unit_denominators(gen_random(3, 2, 3, seed=5)[1])),
], ids=["tangent4", "multibase3", "random", "dense_n4", "unit_tangent", "unit_random"])
def test_row_steps_on_the_corpus_match_the_scalar_references(make):
    _, B = make()
    n = B.nvars
    rows = [[F((i + 2 * j) % 5 - 2, 1 + (i * j) % 3) for j in range(n)] for i in range(n)]
    assert_steps_match_the_scalar_references(B, rows, {0})
    assert_steps_match_the_scalar_references(B, [[eps(i - j) if i >= j else F(0) for j in range(n)]
                                                 for i in range(n)], {n - 1})
