"""The debordering recursion and its building blocks."""

import dataclasses
import importlib
import random
from fractions import Fraction
from math import comb, isqrt, log10, sqrt

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from waring import (
    BorderDecomposition,
    CertificateCheckError,
    DeborderConfig,
    EpsPoly,
    EpsScalar,
    HomoPoly,
    InvariantError,
    LinearForm,
    VerificationError,
    WaringDecomposition,
    check_border,
    deborder,
    dense_decompose,
    diagonalize,
    extract_local_cofactor,
    multiply_by_power,
    paper_bound,
    partition_into_local,
    split_and_group,
    verify_waring,
)
from waring.oracle import (
    gen_multibase,
    gen_osculating,
    gen_random,
    gen_tangent,
    sylvester_rank,
)
from waring.linalg import rat_solve
from waring.poly import monomials_of_degree
from conftest import (
    F,
    assert_staircase_invariants,
    compose_with_unit_denominators,
    eps,
    lf,
    mono,
    unit_denominator_tangent,
)
from test_golden_documents import dense_certificate


# -- a-priori bound ---------------------------------------------------------


def test_paper_bound_small_cases():
    assert paper_bound(3, 1) == 3
    assert paper_bound(1, 1) == 1
    assert paper_bound(17, 1) == 17


def test_paper_bound_frozen_values():
    # ceilings of d * r**(10*sqrt(r)), checked below by plain high-precision
    # evaluation at two different precisions
    assert paper_bound(3, 2) == 54242
    assert paper_bound(4, 2) == 72322
    assert paper_bound(10, 2) == 180804
    assert paper_bound(3, 5) == 12781025284522298


def test_paper_bound_against_plain_mpmath():
    # squares (exact integer values) and non-squares, at two precisions well
    # past the value's digit count
    for r in range(2, 82):
        for d in (1, 2, 3, 4, 7, 31):
            digits = int(10 * sqrt(r) * log10(r) + log10(d)) + 1
            ceilings = set()
            for dps in (digits + 20, digits + 60):
                with mpmath.workdps(dps):
                    v = mpmath.mpf(d) * mpmath.mpf(r) ** (10 * mpmath.sqrt(r))
                    ceilings.add(int(mpmath.ceil(v)))
            assert ceilings == {paper_bound(d, r)}, (d, r)


def test_paper_bound_monotone_in_degree():
    assert paper_bound(5, 3) - paper_bound(4, 3) > 0
    with pytest.raises(ValueError):
        paper_bound(0, 2)
    with pytest.raises(ValueError):
        paper_bound(3, 0)


# -- partition into local parts ---------------------------------------------


def test_partition_multibase_two_groups():
    f, B = gen_multibase(5)
    groups = partition_into_local(B, f)
    assert len(groups) == 2
    total = HomoPoly.zero(4, 5)
    for Bk, fk in groups:
        assert Bk.rank() == 2
        assert check_border(Bk, fk).ok
        total = total + fk
    assert total == f


def test_partition_local_certificate_is_one_group():
    f, B = gen_tangent(4)
    groups = partition_into_local(B, f)
    assert len(groups) == 1
    assert groups[0][1] == f


def test_partition_group_convergence_is_checked():
    # the full sum converges (poles at the two bases cancel exactly), but the
    # group based at x and the group based at y each diverge on their own
    one, zero, e = EpsScalar.one(), EpsScalar.zero(), eps(1)
    B = BorderDecomposition(
        2,
        2,
        (
            (eps(-2), lf(one, e)),
            (-eps(-2), lf(one, zero)),
            (-eps(-2), lf(e, one)),
            (eps(-2), lf(zero, one)),
        ),
    )
    f = mono(2, (0, 2)) - mono(2, (2, 0))
    out = check_border(B, f)
    assert out.ok and out.q is None
    with pytest.raises(CertificateCheckError) as info:
        partition_into_local(B, f)
    assert info.value.check == "group-convergence"
    assert "base" in info.value.witness


def test_partition_rejects_empty_or_mismatched():
    f, B = gen_tangent(3)
    with pytest.raises(ValueError):
        partition_into_local(BorderDecomposition(2, 3, ()), f)
    with pytest.raises(ValueError):
        partition_into_local(B, mono(2, (4, 0)))


# -- local cofactor ---------------------------------------------------------


def test_extract_local_cofactor():
    const = extract_local_cofactor(mono(2, (3, 0)), 1)
    assert const.degree == 0 and const.coeff((0, 0)) == 1
    g = extract_local_cofactor(mono(2, (2, 1)), 2)
    assert g == mono(2, (0, 1))
    full = extract_local_cofactor(mono(2, (2, 1)), 4)  # degree + 1: nothing divided out
    assert full == mono(2, (2, 1))


def test_extract_local_cofactor_divisibility_is_checked():
    with pytest.raises(CertificateCheckError) as info:
        extract_local_cofactor(mono(2, (0, 3)), 2)
    assert info.value.check == "base-power-divisibility"
    assert info.value.witness["required_power"] == 2


def test_extract_local_cofactor_witness_is_the_first_violator_in_graded_lex_order():
    # x0^2 divides x0^3*x1 only; of the other three, x0*x1^3 comes first in
    # graded-lex order whatever order the terms were inserted in
    orders = [(0, 4), (3, 1), (1, 3)], [(3, 1), (1, 3), (0, 4)], [(1, 3), (0, 4), (3, 1)]
    for order in orders:
        f = HomoPoly(2, 4, {m: F(1) for m in order})
        with pytest.raises(CertificateCheckError) as info:
            extract_local_cofactor(f, 3)
        assert info.value.witness == {"monomial": [1, 3], "required_power": 2}


def test_extract_local_cofactor_validation():
    with pytest.raises(ValueError):
        extract_local_cofactor(mono(2, (2, 1)), 0)
    with pytest.raises(ValueError):
        extract_local_cofactor(mono(2, (2, 1)), 5)


# -- Y/Z split --------------------------------------------------------------


def test_split_and_group_charges_first_z_variable():
    g = (
        mono(3, (2, 0, 0))
        + mono(3, (1, 1, 0))
        + mono(3, (0, 2, 0))
        + mono(3, (1, 0, 1))
        + mono(3, (0, 0, 2))
    )
    f0, parts = split_and_group(g, 1)
    assert f0 == mono(3, (2, 0, 0))
    assert set(parts) == {(1, 1), (1, 2), (2, 1), (2, 2)}
    assert parts[(1, 1)] == mono(3, (1, 0, 0))
    assert parts[(1, 2)] == mono(3, (0, 0, 0))
    assert parts[(2, 1)] == mono(3, (1, 0, 0))
    assert parts[(2, 2)] == mono(3, (0, 0, 0))
    # cofactor of z_i carries no z_j with j <= i
    for (i, k), gik in parts.items():
        for m, _ in gik.items():
            assert all(m[1 + j] == 0 for j in range(i))


@st.composite
def _poly_and_y(draw):
    nvars = draw(st.integers(2, 4))
    degree = draw(st.integers(1, 4))
    pool = monomials_of_degree(nvars, degree)
    chosen = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8, unique=True))
    coefs = draw(st.lists(st.integers(-5, 5).filter(bool), min_size=len(chosen),
                          max_size=len(chosen)))
    g = HomoPoly(nvars, degree, {m: F(c) for m, c in zip(chosen, coefs)})
    return g, draw(st.integers(1, nvars - 1))


@given(_poly_and_y())
def test_split_and_group_reassembles_property(case):
    # f0 + sum z_i**k * g_{i,k} == g, and no g_{i,k} involves z_j for j <= i
    g, y = case
    f0, parts = split_and_group(g, y)
    assert all(all(e == 0 for e in m[y:]) for m, _ in f0.items())
    total = f0
    for (i, k), gik in parts.items():
        assert 1 <= i <= g.nvars - y and k >= 1 and gik.degree == g.degree - k
        for m, _ in gik.items():
            assert all(m[y + j - 1] == 0 for j in range(1, i + 1))
        zk = tuple(k if j == y + i - 1 else 0 for j in range(g.nvars))
        total = total + mono(g.nvars, zk) * gik
    assert total == g


def test_split_and_group_validation():
    g = mono(2, (1, 1))
    with pytest.raises(ValueError):
        split_and_group(g, 0)
    with pytest.raises(ValueError):
        split_and_group(g, 2)


# -- dense base case --------------------------------------------------------


def test_dense_xy():
    W = dense_decompose(mono(2, (1, 1)))
    assert verify_waring(W, mono(2, (1, 1)))
    assert W.rank() <= comb(2 + 2 - 1, 2)


def test_dense_degree_one_is_the_form_itself():
    h = mono(3, (1, 0, 0), 2) + mono(3, (0, 0, 1), -5)
    W = dense_decompose(h)
    assert W.rank() == 1
    assert W.summands[0][0] == 1
    assert W.summands[0][1].coefs == (F(2), F(0), F(-5))


def test_dense_is_deterministic():
    h = mono(3, (2, 1, 0)) + mono(3, (0, 1, 2), -3)
    assert dense_decompose(h) == dense_decompose(h)
    assert verify_waring(dense_decompose(h), h)


@pytest.mark.parametrize("m, terms", [
    (3, {(2, 1, 0): 1, (0, 0, 3): 1}),
    (3, {(1, 1, 1): 1}),
    (4, {(0, 3, 0, 0): 1, (1, 0, 1, 1): 1}),
])
def test_dense_keeps_every_weight_of_a_sparse_target(m, terms):
    # with the unsheared forms x0 + a.x' only 7, 8 and 11 weights are
    # nonzero here: the rank hangs on which monomials the target lacks
    h = HomoPoly(m, 3, {mon: F(c) for mon, c in terms.items()})
    W = dense_decompose(h)
    assert verify_waring(W, h)
    assert W.rank() == comb(m + 2, 3)


@pytest.mark.parametrize("e", [20, 24, 30])
def test_dense_solves_two_variable_targets_of_high_degree(e):
    # random draws with coefficients in [-9, 9] repeat directions in two
    # variables and found no solvable system for x^(e-1) y at these degrees
    h = mono(2, (e - 1, 1))
    assert verify_waring(dense_decompose(h), h)


@st.composite
def _dense_targets(draw):
    # degree >= 2: a degree-1 target is returned as its own form
    nvars = draw(st.integers(1, 4))
    degree = draw(st.integers(2, 5))
    pool = monomials_of_degree(nvars, degree)
    chosen = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True))
    coefs = draw(st.lists(st.fractions(-9, 9, max_denominator=7).filter(bool),
                          min_size=len(chosen), max_size=len(chosen)))
    return HomoPoly(nvars, degree, dict(zip(chosen, coefs)))


@settings(max_examples=40)
@given(_dense_targets())
def test_dense_decompose_property(h):
    m, e = h.nvars, h.degree
    W = dense_decompose(h)
    assert verify_waring(W, h)
    assert W.rank() <= comb(m + e - 1, e)
    assert dense_decompose(h) == W
    for _, form in W.summands:
        # x0 + sum_i (a_i + |a|) x_i, a on the principal lattice
        # {a in N^(m-1) : |a| <= e}; the coefficients of x_1.. sum to m * |a|
        c = form.coefs
        assert c[0] == 1 and all(x.denominator == 1 for x in c)
        size = Fraction(sum(c[1:], Fraction(0)), m)
        a = [x - size for x in c[1:]]
        assert size.denominator == 1 and all(x >= 0 for x in a) and sum(a) == size <= e


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("e", [1, 2, 3, 4])
def test_dense_weights_match_the_unscaled_lattice_solve(m, e):
    # the solve divides each row by its multinomial and clears the target
    # over one denominator; the weights must be those of the plain system
    rng = random.Random(100 * m + e)
    basis = monomials_of_degree(m, e)
    h = HomoPoly(m, e, {mon: Fraction(rng.randint(-99, 99), rng.choice([1, 3, 8, 49, 10**9 + 7]))
                        for mon in rng.sample(basis, min(len(basis), 8))})
    W = dense_decompose(h)
    assert verify_waring(W, h)
    if e == 1:  # the target is its own form; there is no solve
        return
    forms = [lf(*((1,) + tuple(a + e - mon[0] for a in mon[1:]))) for mon in basis]
    powers = [form.power(e) for form in forms]
    sol = rat_solve([[p.coeff(mon) for p in powers] for mon in basis],
                    [h.coeff(mon) for mon in basis])
    assert W.summands == tuple((w, form) for w, form in zip(sol, forms) if w)


def test_dense_rejects_zero():
    with pytest.raises(ValueError):
        dense_decompose(HomoPoly.zero(2, 2))


# -- multiplication by a power of a variable --------------------------------


def test_multiply_by_power_xz2_exact_shape():
    # x * z^2 from the rank-one start x: three summands at nodes 0, 1, -1
    W = WaringDecomposition(3, 1, ((F(1), LinearForm.variable(3, 0)),))
    z = LinearForm.variable(3, 2)
    out = multiply_by_power(W, z, 2)
    assert verify_waring(out, mono(3, (1, 0, 2)))
    got = {(w, form.coefs) for w, form in out.summands}
    assert got == {
        (F(-1, 3), (F(1), F(0), F(0))),
        (F(1, 6), (F(1), F(0), F(1))),
        (F(1, 6), (F(1), F(0), F(-1))),
    }


def test_multiply_by_power_parallel_shortcut():
    W = WaringDecomposition(3, 2, ((F(3), LinearForm((F(0), F(0), F(2)))),))
    z = LinearForm.variable(3, 2)
    out = multiply_by_power(W, z, 1)
    assert out.rank() == 1
    w, form = out.summands[0]
    assert form.coefs == (F(0), F(0), F(1))
    assert w == F(12)  # 3 * 2^2 from rescaling the parallel form onto z
    assert verify_waring(out, mono(3, (0, 0, 3), 12))


def test_multiply_by_power_general_products():
    rng = random.Random(2)
    for e in (1, 2, 3):
        for k in (1, 2):
            W = WaringDecomposition(
                2, e, ((F(1), lf(F(1), F(1))), (F(-2), lf(F(1), F(-1)))),
            )
            z = LinearForm.variable(2, 1)
            out = multiply_by_power(W, z, k)
            assert out.degree == e + k
            assert verify_waring(out, W.expand() * z.power(k))


@st.composite
def power_products(draw):
    """(W, z, k): a rational W of 1-3 summands in 2-3 variables and degree
    1-4, a multiplier z that is random or a multiple of one of W's forms,
    and k in 1..3."""
    n = draw(st.integers(2, 3))
    e = draw(st.integers(1, 4))
    coefs = st.lists(st.fractions(-3, 3, max_denominator=3), min_size=n, max_size=n).filter(any)
    weights = st.fractions(-4, 4, max_denominator=3).filter(bool)
    summands = draw(st.lists(st.tuples(weights, coefs.map(LinearForm)), min_size=1, max_size=3))
    W = WaringDecomposition(n, e, tuple(summands))
    if draw(st.booleans()):
        k = draw(weights)
        z = LinearForm([c * k for c in draw(st.sampled_from(summands))[1]])
    else:
        z = draw(coefs.map(LinearForm))
    return W, z, draw(st.integers(1, 3))


@settings(max_examples=60)
@given(power_products())
def test_multiply_by_power_property(case):
    W, z, k = case
    out = multiply_by_power(W, z, k)
    assert verify_waring(out, W.expand() * z.power(k))
    assert out.rank() <= sum(W.degree + k + 1 for _ in W.summands)


def test_multiply_by_power_validation():
    W = WaringDecomposition(2, 2, ((F(1), lf(F(1), F(1))),))
    with pytest.raises(ValueError):
        multiply_by_power(W, LinearForm.variable(2, 0), 0)
    with pytest.raises(ValueError):
        multiply_by_power(W, LinearForm.variable(3, 0), 1)
    with pytest.raises(ValueError):
        multiply_by_power(W, lf(EpsScalar.one(), eps(1)), 1)


# -- the full recursion -----------------------------------------------------


@pytest.mark.parametrize("gen", [lambda: gen_tangent(3), lambda: gen_multibase(5)],
                         ids=["tangent3", "multibase5"])
def test_deborder_outputs_hold_only_int_rows(gen):
    # the smoke certificates of the families benchmark, at the default
    # config and at the forced split: a result holds its shape and one
    # tuple of ints per summand, and no Fraction or LinearForm
    f, B = gen()
    for cfg in (DeborderConfig(), DeborderConfig(y_size=1, base_threshold=1)):
        W, _ = deborder(f, B, cfg)
        held = [getattr(W, name) for name in type(W).__slots__]
        assert [type(x) for x in held] == [int, int, tuple]
        assert all(type(row) is tuple and len(row) == W.nvars + 3 for row in W.rows)
        assert all(type(x) is int for row in W.rows for x in row)


def test_deborder_tangent_cubic():
    f, B = gen_tangent(3)
    W, report = deborder(f, B)
    assert report.verified
    assert verify_waring(W, f)
    wr, bwr = sylvester_rank(f)
    assert (wr, bwr) == (3, 2)
    assert wr <= report.achieved_rank <= 4
    assert report.paper_bound == 54242
    assert report.achieved_rank <= report.paper_bound
    cases = [t.case for t in report.trace]
    assert cases[0] == "LOCAL"
    assert "BASE" in cases  # rank 2 goes through the dense solver


def test_deborder_multibase_traces_two_local_groups():
    f, B = gen_multibase(5)
    W, report = deborder(f, B)
    assert report.verified and verify_waring(W, f)
    assert sum(1 for t in report.trace if t.case == "LOCAL") == 2


def test_deborder_report_is_reproducible():
    f, B = gen_tangent(4)
    W1, r1 = deborder(f, B)
    W2, r2 = deborder(f, B)
    assert W1 == W2 and r1 == r2
    W3, r3 = deborder(f, B, DeborderConfig(base_threshold=9))
    assert r3.verified and verify_waring(W3, f)


def test_deborder_forced_split_runs_the_derivative_branches():
    f, B = gen_random(5, 3, 5, seed=8)
    cfg = DeborderConfig(y_size=1, base_threshold=1)
    W, report = deborder(f, B, cfg)
    assert report.verified and verify_waring(W, f)
    cases = [t.case for t in report.trace]
    assert "NONLOCAL" in cases
    branches = [t for t in report.trace if t.branch_k]
    assert branches, "no derivative branch was recorded"
    # z_i is the i-th Z variable (i >= 1); differentiating in it drops at
    # least the first pivot row, so every branch has a smaller rank
    assert {(t.branch_i, t.branch_k) for t in branches} == {(1, 1), (1, 2), (2, 1), (2, 2)}
    assert all(t.rank < B.rank() for t in branches)


def test_deborder_forced_split_on_local_certificate():
    f, B = gen_random(4, 5, 5, seed=21)
    cfg = DeborderConfig(y_size=2, base_threshold=1)
    W, report = deborder(f, B, cfg)
    assert report.verified and verify_waring(W, f)


# certificates whose forms carry the non-monomial denominator 1 + eps: two
# dense certificates composed with I + eps/(1+eps) N, and a tangent one
UNIT_DENOMINATOR_INPUTS = {
    "dense_n4": lambda: composed_dense_certificate(21, 4, 3, (1, 2), 4),
    "dense_n5": lambda: composed_dense_certificate(22, 5, 3, (2,), 3),
    "tangent": unit_denominator_tangent,
}


def composed_dense_certificate(*args):
    f, B = dense_certificate(*args)
    B = compose_with_unit_denominators(B)
    assert any(len(c.den.pairs()) > 1 for _, g in B.summands for c in g)
    return f, B


@pytest.mark.parametrize("name", sorted(UNIT_DENOMINATOR_INPUTS))
@pytest.mark.parametrize("cfg", [DeborderConfig(), DeborderConfig(y_size=1, base_threshold=1)],
                         ids=["default", "split"])
def test_deborder_on_unit_denominators(name, cfg):
    f, B = UNIT_DENOMINATOR_INPUTS[name]()
    W, report = deborder(f, B, cfg)
    assert report.verified and verify_waring(W, f)
    assert report.achieved_rank == W.rank() <= paper_bound(f.degree, B.rank())


@pytest.mark.parametrize("name", sorted(UNIT_DENOMINATOR_INPUTS))
def test_staircase_invariants_on_unit_denominators(name):
    assert_staircase_invariants(*UNIT_DENOMINATOR_INPUTS[name]())


def test_deborder_rank_one_exact():
    B = BorderDecomposition(2, 3, ((F(5), lf(F(1), F(2))),))
    f = lf(F(1), F(2)).power(3).scale(5)
    W, report = deborder(f, B)
    assert report.achieved_rank == 1
    assert verify_waring(W, f)


def test_deborder_config_rejects_y_size_below_one():
    for bad in (0, -1, -7):
        with pytest.raises(ValueError, match="y_size"):
            DeborderConfig(y_size=bad)
    assert DeborderConfig(y_size=1).y_size == 1
    assert DeborderConfig().y_size is None


def test_deborder_rejects_failing_certificates():
    B = BorderDecomposition(2, 3, ((eps(-1), LinearForm.variable(2, 0)),))
    with pytest.raises(VerificationError):
        deborder(mono(2, (3, 0)), B)
    f, B2 = gen_tangent(3)
    with pytest.raises(VerificationError):
        deborder(mono(2, (3, 0)), B2)
    with pytest.raises(ValueError):
        deborder(HomoPoly.zero(2, 3), B2)
    with pytest.raises(ValueError):
        deborder(mono(3, (2, 1, 0)), B2)


def test_deborder_default_y_size_routes_small_ranks_densely():
    # floor(10*sqrt(r)) >= 10 at these sizes, so no NONLOCAL splits appear
    for seed in range(4):
        f, B = gen_random(3, 4, 4, seed=seed)
        _, report = deborder(f, B)
        assert all(t.case != "NONLOCAL" for t in report.trace)
        assert isqrt(100 * 4) == 20


def test_deborder_achieved_ranks_bounded_by_input_data():
    for seed in range(6):
        f, B = gen_random(2, 4, 3, seed=seed)
        W, report = deborder(f, B)
        assert report.verified
        assert report.achieved_rank == W.rank()
        assert report.achieved_rank <= report.paper_bound


# -- faults that only the kept checks can catch ---------------------------
#
# Each certificate is verified once, where it enters the pipeline; the
# transformations between checks are not re-expanded.  These tests corrupt
# such a transformation from outside and show that a kept check still stops
# the run.

_DEBORDER = importlib.import_module("waring.deborder")


def test_fault_in_diagonalized_weights_is_caught_by_the_branch_check(monkeypatch):
    real = _DEBORDER.diagonalize

    def doubled(B, f):
        D = real(B, f)
        return dataclasses.replace(D, decomposition=D.decomposition.scale_weights(2))

    # the partition reads the certificate as given, so the doubled staircase
    # weights first reach a derivative certificate under the forced split
    monkeypatch.setattr(_DEBORDER, "diagonalize", doubled)
    f, B = gen_multibase(5)
    with pytest.raises(InvariantError, match="branch certificate"):
        deborder(f, B, DeborderConfig(y_size=1, base_threshold=1))


@pytest.mark.parametrize("make,cfg", [
    # the local cofactor times a power of x0, in ``_dense_base``
    pytest.param(lambda: gen_tangent(5), DeborderConfig(), id="tangent5-default"),
    # the branch (z_1, order 3) times z_1**3, in ``_split``'s reassembly; the
    # branch's own product is x0 times x0, which takes the parallel shortcut
    pytest.param(lambda: gen_osculating(6, 3), DeborderConfig(y_size=1, base_threshold=1),
                 id="osculating63-split"),
])
def test_fault_in_an_interpolation_weight_is_caught(monkeypatch, make, cfg):
    real = _DEBORDER.solve_vandermonde

    def perturbed(nodes, rhs):
        out = real(nodes, rhs)
        out[-1] += 1
        return out

    f, B = make()
    monkeypatch.setattr(_DEBORDER, "solve_vandermonde", perturbed)
    with pytest.raises(InvariantError, match="power multiplication changed the polynomial"):
        deborder(f, B, cfg)


def test_partition_rejects_a_target_its_groups_do_not_sum_to():
    f, B = gen_multibase(5)
    with pytest.raises(InvariantError, match="group limits do not sum"):
        partition_into_local(B, f.scale(2))


def test_fault_in_diagonalized_limit_is_caught_by_the_result_check(monkeypatch):
    real = _DEBORDER.diagonalize

    def shifted(B, f):
        D = real(B, f)
        x0_power = mono(f.nvars, (f.degree,) + (0,) * (f.nvars - 1))
        return dataclasses.replace(D, limit=D.limit + x0_power)

    f, B = gen_random(3, 3, 6, seed=1)
    _, report = deborder(f, B)
    assert [t.case for t in report.trace] == ["BASE"]  # the dense route
    monkeypatch.setattr(_DEBORDER, "diagonalize", shifted)
    # the dense solve decomposes the shifted limit exactly; the assembled
    # result is then checked against f itself
    with pytest.raises(InvariantError, match="does not expand to"):
        deborder(f, B)


def test_fault_in_a_derivative_certificate_is_caught_by_the_branch_check(monkeypatch):
    real = _DEBORDER.derivative_decomposition

    def corrupted(D, var, order):
        out = real(D, var, order)
        (w, form), *rest = out.summands
        return BorderDecomposition(out.nvars, out.degree, ((w * 3, form), *rest))

    monkeypatch.setattr(_DEBORDER, "derivative_decomposition", corrupted)
    f, B = gen_random(5, 3, 5, seed=8)
    with pytest.raises(InvariantError, match="branch certificate"):
        deborder(f, B, DeborderConfig(y_size=1, base_threshold=1))


def test_fault_in_a_branch_result_is_caught_where_the_branch_returns(monkeypatch):
    real = _DEBORDER.dense_decompose

    def doubled(h):
        W = real(h)
        return WaringDecomposition(W.nvars, W.degree, tuple((2 * w, l) for w, l in W.summands))

    # osculating (6, 3) under the forced split: no dense solve at the top
    # level, one inside the branch (z_1, order 3)
    f, B = gen_osculating(6, 3)
    cfg = DeborderConfig(y_size=1, base_threshold=1)
    _, report = deborder(f, B, cfg)
    assert [(t.case, t.branch_i, t.branch_k) for t in report.trace] == [
        ("LOCAL", 0, 0), ("LOCAL", 1, 3), ("BASE", 1, 3)]
    monkeypatch.setattr(_DEBORDER, "dense_decompose", doubled)
    with pytest.raises(InvariantError, match=r"branch result \(z_1, order 3\)"):
        deborder(f, B, cfg)


# -- how often each check runs ----------------------------------------------


def _count_calls(monkeypatch, name):
    real = getattr(_DEBORDER, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(_DEBORDER, name, counted)
    return calls


def test_local_run_verifies_the_input_and_the_result_once(monkeypatch):
    f, B = gen_tangent(5)
    borders = _count_calls(monkeypatch, "check_border")
    results = _count_calls(monkeypatch, "verify_waring")
    W, report = deborder(f, B)
    assert report.verified
    assert len(borders) == 1 and borders[0] == (B, f)
    assert len(results) == 1 and results[0] == (W, f)


@pytest.mark.parametrize("make,cfg,expected", [
    pytest.param(lambda: gen_tangent(5), DeborderConfig(), 1, id="tangent5-default"),
    pytest.param(lambda: gen_multibase(5), DeborderConfig(), 2, id="multibase5-default"),
    pytest.param(lambda: gen_random(5, 3, 5, seed=8),
                 DeborderConfig(y_size=1, base_threshold=1), 5, id="random8-split"),
])
def test_diagonalize_runs_once_per_local_group_and_nonlocal_level(monkeypatch, make, cfg, expected):
    f, B = make()
    staircases = _count_calls(monkeypatch, "diagonalize")
    _, report = deborder(f, B, cfg)
    cases = [t.case for t in report.trace]
    # every nonlocal level of these runs splits, so each records NONLOCAL
    assert len(staircases) == expected == cases.count("LOCAL") + cases.count("NONLOCAL")


def test_split_run_verifies_each_branch_once_each_way(monkeypatch):
    f, B = gen_random(5, 3, 5, seed=8)
    branches = _count_calls(monkeypatch, "derivative_decomposition")
    borders = _count_calls(monkeypatch, "check_border")
    results = _count_calls(monkeypatch, "verify_waring")
    _, report = deborder(f, B, DeborderConfig(y_size=1, base_threshold=1))
    assert report.verified and branches
    assert len(borders) == len(results) == 1 + len(branches)
    # branch targets are checked both ways; the last result check is the final one
    targets = [args[1] for args in borders[1:]]
    assert all(any(h == t for t in targets) for _, h in results[:-1])
    assert results[-1][1] == f


# -- a held certificate is cleared once ----------------------------------------


def count_clearing_and_scalars(monkeypatch):
    """Lists that record, from now on: each ``_int_eps_row`` call on a
    LinearForm (a form cleared again), each LinearForm built over Q(eps) (a
    form's coefficients rebuilt as scalars), each EpsScalar built by its
    constructor, and each EpsPoly.gcd call."""
    cleared, rebuilt, built, gcds = [], [], [], []
    for name in ("epsilon", "poly", "decomp", "diagonal", "linalg", "deborder"):
        mod = importlib.import_module(f"waring.{name}")
        real = getattr(mod, "_int_eps_row", None)
        if real is not None:
            monkeypatch.setattr(mod, "_int_eps_row", lambda row, real=real: (
                isinstance(row, LinearForm) and cleared.append(row)) or real(row))
    new = LinearForm.__new__

    def counted_new(cls, coefs):
        form = new(cls, coefs)
        if not form.is_rational:
            rebuilt.append(form)
        return form

    monkeypatch.setattr(LinearForm, "__new__", staticmethod(counted_new))
    init = EpsScalar.__init__
    monkeypatch.setattr(EpsScalar, "__init__",
                        lambda self, *a: built.append(1) or init(self, *a))
    gcd = EpsPoly.gcd
    monkeypatch.setattr(EpsPoly, "gcd", staticmethod(lambda a, b: gcds.append(1) or gcd(a, b)))
    return cleared, rebuilt, built, gcds


@pytest.mark.parametrize("make", [
    lambda: dense_certificate(21, 4, 3, (1, 2), 4),
    lambda: dense_certificate(22, 5, 3, (2,), 3),
    lambda: gen_tangent(5), lambda: gen_osculating(10, 4), lambda: gen_multibase(5),
], ids=["dense_n4", "dense_n5", "tangent5", "osculating104", "multibase5"])
def test_a_held_laurent_certificate_is_never_cleared_again_or_rebuilt(monkeypatch, make):
    # the default route diagonalizes every group or level; the staircase and
    # the local-base check read rows, so no scalar is built at all
    f, B = make()
    cleared, rebuilt, built, gcds = count_clearing_and_scalars(monkeypatch)
    diagonalize(B, f)
    W, _ = deborder(f, B)
    monkeypatch.undo()
    assert (cleared, rebuilt, built, gcds) == ([], [], [], [])
    assert verify_waring(W, f)


def test_the_forced_split_still_builds_weight_scalars(monkeypatch):
    # the derivative certificates' weights and the branch scaling stay
    # EpsScalar arithmetic, which the bench's families layer records
    f, B = gen_multibase(5)
    cleared, rebuilt, built, gcds = count_clearing_and_scalars(monkeypatch)
    W, report = deborder(f, B, DeborderConfig(y_size=1, base_threshold=1))
    monkeypatch.undo()
    assert any(t.branch_k for t in report.trace)  # derivative branches ran
    assert (cleared, rebuilt) == ([], [])
    assert built and gcds
