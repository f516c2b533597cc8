"""Staircase diagonalization over the valuation ring and derivative certificates."""

import pytest
from hypothesis import given, settings, strategies as st

from waring import (
    BorderDecomposition,
    EpsPoly,
    EpsScalar,
    HomoPoly,
    InvariantError,
    LinearForm,
    NoPivotError,
    PoleAtZero,
    SingularMatrixError,
    ZeroDerivativeError,
    check_border,
    derivative_decomposition,
    diagonalize,
    falling_factorial,
    normalize_border,
)
from waring import diagonal
from waring.epsilon import _eps_of
from waring.linalg import EpsMatrix
from waring.oracle import gen_multibase, gen_random, gen_tangent
from conftest import (
    F,
    RefPivot,
    RefPivots,
    assert_staircase_invariants,
    eps,
    eps_matrix,
    esc,
    field_rref,
    int_pivot,
    int_row,
    mono,
    ref_reduce_vector,
)


def kept_pivots(*pivots):
    """A diagonal._Pivots holding the given integer pivots, in order."""
    out = diagonal._Pivots()
    for pv in pivots:
        out.append(pv)
    return out


def test_reduce_step_picks_minimal_valuation_first():
    cands = [(EpsScalar.one(), eps(1)), (EpsScalar.one(), EpsScalar.zero())]
    idx, val, *red = diagonal._select_pivot([int_row(v) for v in cands], kept_pivots())
    assert (idx, val) == (0, 0)
    assert tuple(red) == int_row(cands[0])


def test_reduce_step_cancels_against_a_pivot():
    p1 = int_pivot(0, 0, (EpsScalar.one(), eps(1)))
    idx, val, *red = diagonal._select_pivot(
        [int_row((EpsScalar.one(), EpsScalar.zero()))], kept_pivots(p1))
    assert (idx, val) == (0, 1)
    assert tuple(red) == int_row((EpsScalar.zero(), -eps(1)))


def test_reduce_step_exhausted():
    p1 = int_pivot(0, 0, (EpsScalar.one(), eps(1)))
    p2 = int_pivot(1, 1, (EpsScalar.zero(), -eps(1)))
    with pytest.raises(NoPivotError):
        diagonal._select_pivot([int_row((EpsScalar.one(), EpsScalar.zero()))],
                               kept_pivots(p1, p2))


def test_diagonalize_tangent_staircase():
    f, B = gen_tangent(3)
    D = assert_staircase_invariants(f, B)
    assert D.pivots == ((0, 0), (1, 1))
    assert D.p == 2
    assert sorted(D.perm) == [0, 1]


def test_diagonalize_multibase_keeps_two_bases():
    f, B = gen_multibase(5)
    D = assert_staircase_invariants(f, B)
    assert D.p == 4
    assert [q for _, q in D.pivots] == [0, 0, 1, 1]


def test_diagonalize_rejects_empty_or_mismatched():
    f, B = gen_tangent(3)
    with pytest.raises(ValueError):
        diagonalize(BorderDecomposition(2, 3, ()), f)
    with pytest.raises(ValueError):
        diagonalize(B, mono(3, (2, 1, 0)))


def test_diagonalize_cancelling_pair_still_finds_a_pivot():
    # two copies of the same form cancel in the expansion, but the first one
    # is a perfectly good pivot; against the zero target this verifies as exact
    B = BorderDecomposition(
        2, 2, ((F(1), LinearForm.variable(2, 0)), (F(-1), LinearForm.variable(2, 0))),
    )
    D = diagonalize(B, HomoPoly.zero(2, 2))
    assert D.p == 1
    assert D.limit.is_zero


@pytest.mark.parametrize("fault,cause", [(-1, PoleAtZero), (1, SingularMatrixError)])
def test_diagonalize_rejects_a_transform_that_is_not_a_unit_at_zero(monkeypatch, fault, cause):
    # the inverted pivot frame gets an eps**-1 (a pole) or an eps (singular
    # at eps = 0) on its diagonal; the one elimination of A(0) must refuse it
    f, B = gen_tangent(3)
    bad = eps_matrix([[EpsScalar.one(), EpsScalar.zero()], [EpsScalar.zero(), eps(fault)]])
    monkeypatch.setattr(EpsMatrix, "inverse", lambda self: bad)
    with pytest.raises(InvariantError, match="change of variables is not a unit at eps = 0") as info:
        diagonalize(B, f)
    assert isinstance(info.value.__cause__, cause)


def test_a_repeated_pivot_lead_cannot_complete_the_frame(monkeypatch):
    # x0^3 + x1^3 in three variables: two pivots, one standard vector short
    # of a frame; with every lead read as x0's, the leads are dependent
    B = BorderDecomposition(3, 3, tuple((F(1), LinearForm.variable(3, i)) for i in (0, 1)))
    f = mono(3, (3, 0, 0)) + mono(3, (0, 3, 0))
    assert diagonalize(B, f).p == 2
    monkeypatch.setattr(diagonal.Pivot, "lead", property(lambda self: [1, 0, 0]))
    with pytest.raises(InvariantError, match="could not complete the pivot frame to a basis"):
        diagonalize(B, f)


def test_diagonalize_random_corpus_invariants():
    shapes = [(2, 3, 3), (3, 3, 4), (2, 4, 2), (3, 4, 5), (4, 3, 4)]
    count = 0
    for nvars, degree, rank in shapes:
        for seed in range(6):
            f, B = gen_random(nvars, degree, rank, seed=seed)
            assert_staircase_invariants(f, B)
            count += 1
    assert count == 30


def test_derivative_of_pure_power():
    B = BorderDecomposition(1, 4, ((F(1), LinearForm.variable(1, 0)),))
    f = mono(1, (4,))
    D = diagonalize(B, f)
    out = derivative_decomposition(D, 0, 1)
    assert out.rank() == 1
    w, form = out.summands[0]
    assert w == EpsScalar.from_rational(4)
    assert out.degree == 3
    assert check_border(out, mono(1, (3,), 4)).ok


def test_derivative_tangent_single_summand():
    # d/dy of x^2 y keeps only the summand whose form involves y
    f, B = gen_tangent(3)
    D = diagonalize(B, f)
    out = derivative_decomposition(D, 1, 1)
    assert out.rank() <= D.decomposition.rank() - 1
    target = D.limit.differentiate(1)
    assert check_border(out, target).ok
    # the weights carry the falling factorial (d)_order
    assert falling_factorial(3, 1) == 3


def test_derivative_zero_raises_typed_error():
    f, B = gen_tangent(3)
    D = diagonalize(B, f)
    with pytest.raises(ZeroDerivativeError):
        derivative_decomposition(D, 1, 2)  # y^2-derivative of x^2 y


def test_derivative_absent_variable_is_a_zero_derivative():
    f, B = gen_tangent(3)
    f3 = HomoPoly(3, 3, {m + (0,): c for m, c in f.items()})
    B3 = BorderDecomposition(3, 3, tuple((w, LinearForm(g + (F(0),))) for w, g in B.summands))
    D = diagonalize(B3, f3)
    assert D.p == 2
    with pytest.raises(ZeroDerivativeError):
        derivative_decomposition(D, 2, 1)


def test_derivative_argument_validation():
    f, B = gen_tangent(3)
    D = diagonalize(B, f)
    with pytest.raises(ValueError):
        derivative_decomposition(D, 0, 0)
    with pytest.raises(ValueError):
        derivative_decomposition(D, 0, 3)
    with pytest.raises(ValueError):
        derivative_decomposition(D, -1, 1)


def test_derivative_counts_and_targets_on_random_corpus():
    checked = 0
    for nvars, degree, rank in [(2, 3, 3), (3, 4, 4), (3, 3, 5)]:
        for seed in range(5):
            f, B = gen_random(nvars, degree, rank, seed=seed)
            D = diagonalize(B, f)
            r = D.decomposition.rank()
            d = D.decomposition.degree
            for var in range(D.p):
                for order in range(1, min(3, d)):
                    try:
                        out = derivative_decomposition(D, var, order)
                    except ZeroDerivativeError:
                        continue
                    assert out.rank() <= r - var
                    target = D.limit.differentiate(var, order)
                    assert check_border(out, target).ok
                    checked += 1
    assert checked > 20


def test_pivot_search_stops_at_nvars_pivots_and_drops_nothing(monkeypatch):
    # One reduce step per pivot; a step past that is taken only when the
    # search runs out of candidates before nvars pivots, and it must raise
    # NoPivotError.  With nvars pivots the leftovers are not reduced, and
    # reducing them against the final pivots certifies every one zero.
    from test_golden_documents import dense_certificate

    calls = []
    real = diagonal._select_pivot

    def counted(rows, pivots):
        calls.append(pivots)
        return real(rows, pivots)

    monkeypatch.setattr(diagonal, "_select_pivot", counted)
    cases = [dense_certificate(21, 4, 3, (1, 2), 4), dense_certificate(22, 5, 3, (2,), 3)]
    cases += [gen_random(n, d, r, seed=s)
              for n, d, r in [(2, 3, 3), (3, 3, 5), (4, 3, 6), (4, 3, 4), (3, 3, 2)]
              for s in range(3)]
    stopped = 0
    for f, B in cases:
        calls.clear()
        D = diagonalize(B, f)
        n, leftovers = B.nvars, D.perm[D.p:]
        if D.p == n or not leftovers:
            assert len(calls) == D.p
        else:
            assert len(calls) == D.p + 1
        if D.p == n and leftovers:
            stopped += 1
            rows = [int_row(normalize_border(B).summands[i][1]) for i in leftovers]
            # every step is handed the one list that diagonalize appends to,
            # so the last call's argument now holds all the pivots
            with pytest.raises(NoPivotError):
                real(rows, calls[-1])
    assert stopped >= 5  # the corpus exercises the stop (9 of its 17 inputs)


small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
scalars = st.one_of(
    st.just(EpsScalar.zero()),
    st.dictionaries(st.integers(0, 2), small, max_size=2).map(EpsPoly).map(EpsScalar.from_poly),
    st.builds(lambda a, b: EpsScalar.from_rational(a) / (1 + EpsScalar.from_rational(b) * eps(1)),
              small, small),
)


@st.composite
def span_cases(draw):
    """Vectors, some of them combinations of earlier ones, and candidates
    in or out of their span."""
    n = draw(st.integers(1, 4))
    vec = st.lists(scalars, min_size=n, max_size=n)
    vecs = []
    for _ in range(draw(st.integers(0, 5))):
        if vecs and draw(st.booleans()):
            coefs = draw(st.lists(scalars, min_size=len(vecs), max_size=len(vecs)))
            v = [sum((c * u[j] for c, u in zip(coefs, vecs)), EpsScalar.zero())
                 for j in range(n)]
        else:
            v = draw(vec)
        vecs.append(tuple(v))
    cands = draw(st.lists(vec, min_size=1, max_size=3))
    if vecs:
        coefs = draw(st.lists(scalars, min_size=len(vecs), max_size=len(vecs)))
        cands.append([sum((c * u[j] for c, u in zip(coefs, vecs)), EpsScalar.zero())
                      for j in range(n)])
    return vecs, cands


@settings(max_examples=60)
@given(span_cases())
def test_kept_echelon_answers_the_span_check_like_eps_rref(case):
    # dependent pivot sets included: the answer is rank(vecs + [v]) == len(vecs),
    # read off the field Gauss-Jordan reference
    vecs, cands = case
    # the kept form grows between checks, as in the pivot search
    pivots = diagonal._Pivots()
    for k in range(len(vecs) + 1):
        for v in cands:
            assert pivots.spans(int_row(v)[0]) == (len(field_rref(list(vecs[:k]) + [v])[1]) == k)
        if k < len(vecs):
            pivots.append(int_pivot(k, 0, vecs[k]))


# -- the integer pivot search against the EpsScalar reference -----------------


def eps_vector(lists, den):
    """The vector lists / den of EpsScalars, den a positive integer."""
    return tuple(_eps_of(x, [den]) for x in lists)


def reduce_both(row, pivots, ref, reduce=diagonal._reduce_vector):
    """Run the integer reduction of the row (lists, den) and the reference on
    its EpsScalars; assert they agree on the None result, the valuation and
    the reduced vector, and return the reference's answer."""
    got = reduce(row, pivots)
    want = ref_reduce_vector(eps_vector(*row), ref)
    if want is None:
        assert got is None
    else:
        val, lists, den = got
        assert (val, eps_vector(lists, den)) == want
    return want


poly_scalars = st.one_of(
    st.just(EpsScalar.zero()),
    st.dictionaries(st.integers(0, 3), small, min_size=1, max_size=3)
    .map(EpsPoly).map(EpsScalar.from_poly),
)


@st.composite
def polynomial_vectors(draw):
    """Vectors over Q[eps], some of them Q[eps]-combinations of earlier ones,
    so that candidates reduce to zero, chase tails and fail span checks."""
    n = draw(st.integers(1, 4))
    vecs = []
    for _ in range(draw(st.integers(1, 6))):
        if vecs and draw(st.booleans()):
            coefs = draw(st.lists(poly_scalars, min_size=len(vecs), max_size=len(vecs)))
            v = [sum((c * u[j] for c, u in zip(coefs, vecs)), EpsScalar.zero())
                 for j in range(n)]
        else:
            v = draw(st.lists(poly_scalars, min_size=n, max_size=n))
        vecs.append(tuple(v))
    return vecs


@settings(max_examples=80)
@given(polynomial_vectors())
def test_integer_pivot_search_matches_the_eps_scalar_reference(vecs):
    # the search diagonalize runs: reduce every remaining vector, keep the
    # first of minimal valuation as the next pivot, up to nvars pivots
    n = len(vecs[0])
    vecs = [v for v in vecs if any(v)]  # a linear form is not zero
    pivots, ref = diagonal._Pivots(), RefPivots()
    remaining = list(range(len(vecs)))
    while remaining and len(pivots) < n:
        rows = [int_row(vecs[i]) for i in remaining]
        results = [reduce_both(row, pivots, ref) for row in rows]
        kept = [(r[0], k) for k, r in enumerate(results) if r is not None]
        if not kept:
            with pytest.raises(NoPivotError):
                diagonal._select_pivot(rows, pivots)
            break
        val, k = min(kept)
        red = results[k][1]
        assert diagonal._select_pivot(rows, pivots) == (k, val) + int_row(red)
        pivots.append(int_pivot(remaining.pop(k), val, red))
        ref.append(RefPivot(val, red))


def test_tail_chase_is_certified_zero_by_the_span_check():
    # x against (1 - eps) x: every subtraction leaves eps**k x, one order up,
    # so only the span check stops the reduction
    one, zero = EpsScalar.one(), EpsScalar.zero()
    u = (one - eps(1), zero)
    pv, ref = int_pivot(0, 0, u), RefPivot(0, u)
    assert reduce_both(int_row((one, zero)), kept_pivots(pv), RefPivots([ref])) is None
    # the same with a pivot frame of two, the chase in the second variable
    u2 = (zero, eps(1) - eps(2))
    pv2, ref2 = int_pivot(1, 1, u2), RefPivot(1, u2)
    for v in [(zero, eps(1)), (one - eps(1), eps(3)), (eps(2), eps(2))]:
        assert reduce_both(int_row(v), kept_pivots(pv, pv2), RefPivots([ref, ref2])) is None
    with pytest.raises(NoPivotError):
        diagonal._select_pivot([int_row((one, zero)), int_row((eps(2), eps(2)))],
                               kept_pivots(pv, pv2))


def load_bench_workloads():
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("waring_bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_integer_pivot_search_matches_the_reference_on_the_corpora(monkeypatch):
    # every reduction of every diagonalize call the golden documents and the
    # benchmark's dense workload (seed 1) make, checked against the reference
    import waring
    from test_golden_documents import CONFIGS, EXPANSION_INPUTS, GENERATORS

    real_reduce, real_spans = diagonal._reduce_vector, diagonal._Pivots.spans
    reductions, answers = [], []

    def checked(row, pivots):
        ref = RefPivots(RefPivot(pv.valuation, eps_vector(pv.lists, pv.den)) for pv in pivots)
        reductions.append(reduce_both(row, pivots, ref))
        return real_reduce(row, pivots)

    def spans(self, v):
        answers.append(real_spans(self, v))
        return answers[-1]

    monkeypatch.setattr(diagonal, "_reduce_vector", checked)
    monkeypatch.setattr(diagonal._Pivots, "spans", spans)
    cases = [(*gen(*args), cfg) for gen, args in GENERATORS.values() for cfg in CONFIGS.values()]
    cases += [(*make(), waring.DeborderConfig()) for make in EXPANSION_INPUTS.values()]
    dense = load_bench_workloads().build_dense(waring, 1, False)
    cases += [(f, B, cfg) for _, f, B, cfg in dense.inputs]
    for f, B, cfg in cases:
        waring.deborder(f, B, cfg)
    assert len(reductions) > 500
    assert None in reductions
    assert True in answers and False in answers


def test_span_check_clears_polynomial_denominators_per_vector():
    # the same column carries different denominators in different vectors:
    # v = (1 + eps) u, and w differs from such a multiple in one entry
    one, unit = EpsScalar.one(), esc((0, 1), (1, 1))
    u = (one / unit, one, eps(1) / (1 + eps(2)))
    v = (one, unit, unit * u[2])
    w = (one, unit + eps(1), unit * u[2])
    # each vector is cleared to Z[eps] by its own denominators (int_row,
    # ``epsilon._int_eps_row``), so the kept echelon holds non-constant leads
    pivots, ref = kept_pivots(int_pivot(0, 0, u)), RefPivots([RefPivot(0, u)])
    assert pivots.spans(int_row(v)[0]) and ref.spans(v)
    assert not pivots.spans(int_row(w)[0]) and not ref.spans(w)
