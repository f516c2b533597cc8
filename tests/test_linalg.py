"""Exact linear algebra over Q and over Q(eps)."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from waring import EpsScalar, PoleAtZero, SingularMatrixError
from waring.linalg import (
    EpsMatrix,
    _basis_completion,
    rat_inverse,
    rat_nullspace,
    rat_rank,
    rat_solve,
    solve_vandermonde,
)
from conftest import (
    F,
    eps_matrix,
    eps_matrix_rows,
    esc,
    field_rref,
    greedy_completion,
    is_unit_at_zero,
)


# The Fraction Gauss-Jordan that the fraction-free kernel replaced is the
# reference the property tests below compare against.
def ref_rref(rows):
    return field_rref([[Fraction(x) for x in r] for r in rows])


def ref_nullspace(rows):
    ncols = len(rows[0])
    rref, pivots = ref_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(v)
    return basis


def ref_solve(rows, rhs):
    ncols = len(rows[0])
    rref, pivots = ref_rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = rref[r][ncols]
    return x


def ref_inverse(rows):
    n = len(rows)
    rref, pivots = ref_rref([list(r) + [1 if i == j else 0 for j in range(n)]
                             for i, r in enumerate(rows)])
    if pivots[:n] != list(range(n)):
        return None
    return [r[n:] for r in rref[:n]]


# ints and Fractions mixed, zero drawn often
entries = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
)


@st.composite
def rational_matrices(draw, nrows=None, ncols=None):
    """Wide, tall or square; a low-rank product half the time; zeroed rows and columns."""
    nrows = nrows or draw(st.integers(1, 6))
    ncols = ncols or draw(st.integers(1, 7))

    def block(r, c):
        return draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r))

    if draw(st.booleans()):
        k = draw(st.integers(0, min(nrows, ncols)))
        B, C = block(nrows, k), block(k, ncols)
        A = [[sum((B[i][t] * C[t][j] for t in range(k)), 0) for j in range(ncols)]
             for i in range(nrows)]
    else:
        A = block(nrows, ncols)
    zero_rows = draw(st.sets(st.integers(0, nrows - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=2))
    return [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(r)]
            for i, r in enumerate(A)]


def all_fractions(rows):
    return all(type(x) is Fraction for r in rows for x in r)


@given(rational_matrices())
def test_rank_nullspace_match_the_fraction_reference(A):
    _, pivots = ref_rref(A)
    assert rat_rank(A) == len(pivots)
    ker = rat_nullspace(A)
    assert ker == ref_nullspace(A)
    assert all_fractions(ker)


@given(rational_matrices(), st.data())
def test_solve_matches_the_fraction_reference(A, data):
    if data.draw(st.booleans()):
        x = data.draw(st.lists(entries, min_size=len(A[0]), max_size=len(A[0])))
        b = [sum((a * t for a, t in zip(r, x)), 0) for r in A]  # consistent
    else:
        b = data.draw(st.lists(entries, min_size=len(A), max_size=len(A)))
    sol = rat_solve(A, b)
    assert sol == ref_solve(A, b)
    if sol is not None:
        assert all_fractions([sol])


@given(st.integers(1, 6).flatmap(lambda n: rational_matrices(n, n)))
def test_inverse_matches_the_fraction_reference(A):
    expected = ref_inverse(A)
    if expected is None:
        with pytest.raises(SingularMatrixError):
            rat_inverse(A)
    else:
        inv = rat_inverse(A)
        assert inv == expected
        assert all_fractions(inv)


# entries with denominators up to 10**9 + 7, next to the small ones
wide_entries = st.one_of(
    entries,
    st.builds(Fraction, st.integers(-10**9, 10**9), st.sampled_from([10**9 + 7, 998244353])),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**9 + 7),
)


@st.composite
def systems(draw):
    """(kind, A, b): a tall, wide, rank-deficient but consistent or
    inconsistent system, or one whose first row is 0 in the first column
    while a later row is not, so that the first pivot needs a row swap."""
    kind = draw(st.sampled_from(["tall", "wide", "deficient", "inconsistent", "row_swap"]))

    def block(r, c):
        return draw(st.lists(st.lists(wide_entries, min_size=c, max_size=c),
                             min_size=r, max_size=r))

    if kind == "tall":
        ncols = draw(st.integers(1, 4))
        nrows = ncols + draw(st.integers(1, 3))
    elif kind == "wide":
        nrows = draw(st.integers(1, 4))
        ncols = nrows + draw(st.integers(1, 3))
    else:
        nrows = draw(st.integers(2, 5))
        ncols = nrows if draw(st.booleans()) else draw(st.integers(1, 5))
    if kind in ("deficient", "inconsistent"):
        k = draw(st.integers(0, min(nrows, ncols) - 1))
        B, C = block(nrows, k), block(k, ncols)
        A = [[sum((B[i][t] * C[t][j] for t in range(k)), Fraction(0)) for j in range(ncols)]
             for i in range(nrows)]
    else:
        A = block(nrows, ncols)
    if kind == "row_swap":
        A[0][0] = 0
        A[draw(st.integers(1, nrows - 1))][0] = draw(wide_entries.filter(bool))
    x = draw(st.lists(wide_entries, min_size=ncols, max_size=ncols))
    b = [sum((a * t for a, t in zip(r, x)), Fraction(0)) for r in A]
    if kind == "inconsistent":
        b = [v + w for v, w in zip(b, draw(st.lists(wide_entries.filter(bool),
                                                    min_size=nrows, max_size=nrows)))]
    elif kind != "deficient" and draw(st.booleans()):
        b = draw(st.lists(wide_entries, min_size=nrows, max_size=nrows))
    return kind, A, b


@settings(max_examples=150)
@given(systems())
def test_forward_elimination_matches_the_fraction_references(case):
    kind, A, b = case
    _, pivots = ref_rref(A)
    sol = rat_solve(A, b)
    assert sol == ref_solve(A, b)
    if kind == "inconsistent":
        assume(sol is None)  # b moved off the column space of A
    if kind == "deficient":
        assert sol is not None
        assert [sum((a * t for a, t in zip(r, sol)), Fraction(0)) for r in A] == b
    if sol is not None:
        assert all_fractions([sol])
        assert all(sol[j] == 0 for j in range(len(A[0])) if j not in pivots)
    ker = rat_nullspace(A)
    assert ker == ref_nullspace(A)
    assert all_fractions(ker)
    assert rat_rank(A) == len(pivots)
    if len(A) == len(A[0]):
        want = ref_inverse(A)
        if want is None:
            with pytest.raises(SingularMatrixError):
                rat_inverse(A)
        else:
            assert rat_inverse(A) == want


@pytest.mark.parametrize("func,args", [
    (rat_nullspace, ([[1], [2, 3]],)),
    (rat_rank, ([[1], [2, 3]],)),
    (rat_rank, ([[1, 2], [3]],)),
    (rat_nullspace, ([[1, 2], [3]],)),
    (rat_solve, ([[1, 2], [3]], [1, 2])),
    (rat_inverse, ([[1, 2], [3]],)),
], ids=["nullspace_short_first", "rank_short_first", "rank_short_last", "nullspace", "solve",
        "inverse"])
def test_ragged_rows_are_a_value_error(func, args):
    with pytest.raises(ValueError):
        func(*args)


def test_entries_over_q_eps_are_a_type_error():
    with pytest.raises(TypeError):
        rat_rank([[EpsScalar.one(), EpsScalar.eps()]])


def rand_matrix(rng, rows, cols, height=6):
    return [[F(rng.randint(-height, height)) for _ in range(cols)] for _ in range(rows)]


def test_rank_solve_and_nullspace_read_the_reference_echelon():
    rng = random.Random(7)
    for _ in range(30):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = rand_matrix(rng, m, n)
        R, pivots = ref_rref(A)
        assert len(pivots) == rat_rank(A)
        assert pivots == sorted(pivots)
        free = [j for j in range(n) if j not in pivots]
        # A x = (column j of A), free unknowns 0, is solved by column j of
        # the reduced echelon form on the pivots: e_j for a pivot column j
        for j in range(n):
            x = rat_solve(A, [r[j] for r in A])
            assert [x[pc] for pc in pivots] == [R[k][j] for k in range(len(pivots))]
            assert all(x[fc] == 0 for fc in free)
        # the kernel vector of free column fc is e_fc minus R's column fc
        ker = rat_nullspace(A)
        assert len(ker) == len(free)
        for v, fc in zip(ker, free):
            assert [v[c] for c in free] == [int(c == fc) for c in free]
            assert [v[pc] for pc in pivots] == [-R[k][fc] for k in range(len(pivots))]
        # the echelon form has the same row space: same rank and kernel basis
        assert rat_rank(R) == len(pivots)
        assert rat_nullspace(R) == ker


def test_rank_matches_sympy():
    rng = random.Random(19)
    for _ in range(25):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = rand_matrix(rng, m, n)
        expected = sympy.Matrix([[sympy.Rational(x) for x in row] for row in A]).rank()
        assert rat_rank(A) == expected


def test_nullspace_is_a_basis_of_the_kernel():
    rng = random.Random(29)
    for _ in range(25):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        A = rand_matrix(rng, m, n, height=3)
        ker = rat_nullspace(A)
        assert len(ker) == n - rat_rank(A)
        for v in ker:
            assert all(sum(row[j] * v[j] for j in range(n)) == 0 for row in A)
        if ker:
            assert rat_rank(ker) == len(ker)


@settings(max_examples=80)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.lists(st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(1, 2)]),
             min_size=n, max_size=n),
    max_size=n + 1))))
def test_basis_completion_picks_what_the_greedy_scan_picks(case):
    n, vectors = case
    if vectors and rat_rank(vectors) < len(vectors):
        with pytest.raises(ValueError):
            _basis_completion(vectors, n)
        return
    got = _basis_completion(vectors, n)
    assert got == greedy_completion(vectors, n)
    frame = vectors + [[F(1 if i == j else 0) for i in range(n)] for j in got]
    assert len(frame) == rat_rank(frame) == n


def test_solve_unique_and_underdetermined():
    A = [[F(2), F(1)], [F(1), F(3)]]
    b = [F(5), F(10)]
    x = rat_solve(A, b)
    assert x == [F(1), F(3)]
    # consistent singular system still gets a solution
    A2 = [[F(1), F(2)], [F(2), F(4)]]
    x2 = rat_solve(A2, [F(3), F(6)])
    assert x2 is not None
    assert all(sum(r[j] * x2[j] for j in range(2)) == rhs for r, rhs in zip(A2, [F(3), F(6)]))
    # inconsistent system
    assert rat_solve(A2, [F(3), F(7)]) is None


def test_solve_random_roundtrip():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 4)
        A = rand_matrix(rng, n, n)
        xs = [F(rng.randint(-5, 5)) for _ in range(n)]
        b = [sum(A[i][j] * xs[j] for j in range(n)) for i in range(n)]
        sol = rat_solve(A, b)
        assert sol is not None
        assert [sum(A[i][j] * sol[j] for j in range(n)) for i in range(n)] == b


def test_inverse():
    rng = random.Random(37)
    for _ in range(20):
        n = rng.randint(1, 4)
        A = rand_matrix(rng, n, n)
        if rat_rank(A) < n:
            with pytest.raises(SingularMatrixError):
                rat_inverse(A)
            continue
        Ainv = rat_inverse(A)
        prod = [
            [sum(A[i][k] * Ainv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert prod == [[F(1 if i == j else 0) for j in range(n)] for i in range(n)]


def test_vandermonde_interpolation_identity():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(1, 6)
        nodes = rng.sample(range(-8, 9), n)
        nodes = [F(t) for t in nodes]
        rhs = [F(rng.randint(-9, 9)) for _ in range(n)]
        c = solve_vandermonde(nodes, rhs)
        # moments sum_j c_j t_j^i reproduce the right-hand side
        for i in range(n):
            assert sum(cj * t**i for cj, t in zip(c, nodes)) == rhs[i]


def test_vandermonde_rejects_repeated_nodes():
    with pytest.raises(ValueError):
        solve_vandermonde([F(1), F(1)], [F(0), F(0)])


def test_eps_matrix_inverse_over_the_field():
    one = EpsScalar.one()
    e = EpsScalar.eps()
    M = eps_matrix([[one, e], [EpsScalar.zero(), one]])
    assert is_unit_at_zero(M)
    Mr, Minv = eps_matrix_rows(M), eps_matrix_rows(M.inverse())
    zero = EpsScalar.zero()
    product = [
        [sum((Mr[i][k] * Minv[k][j] for k in range(2)), zero) for j in range(2)]
        for i in range(2)
    ]
    assert product == [[one, zero], [zero, one]]
    assert Minv[0][1] == -e
    # eps on the diagonal: invertible over Q(eps), but not a unit at zero
    N = eps_matrix([[e]])
    assert not is_unit_at_zero(N)
    assert eps_matrix_rows(N.inverse())[0][0] == EpsScalar.eps(-1)
    with pytest.raises(PoleAtZero):
        N.inverse().at_zero()


def ref_eps_inverse(rows):
    """Gauss-Jordan over the field Q(eps) on [M | I]; None when singular."""
    n = len(rows)
    one, zero = EpsScalar.one(), EpsScalar.zero()
    rref, pivots = field_rref([list(r) + [one if i == j else zero for j in range(n)]
                               for i, r in enumerate(rows)])
    if pivots[:n] != list(range(n)):
        return None
    return [r[n:] for r in rref]


def eps_entries(terms):
    """c0 * eps**k + ... + c_(terms-1) * eps**(k + terms - 1), k in -1..1."""
    return st.builds(
        lambda cs, k: esc(*enumerate(cs)) * EpsScalar.eps(k),
        st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4),
                 min_size=1, max_size=terms),
        st.integers(-1, 1))


divisors = st.sampled_from([esc((0, 1), (1, 1)), esc((0, 2), (2, -1)), esc((1, 1), (2, 1))])


@st.composite
def eps_matrices(draw):
    # polynomials in eps and poles, and up to two quotients by units
    # (1 + eps, 2 - eps^2) or by a non-unit (1 + eps) * eps at zero; above
    # n = 3 the entries are monomials, as the field reference slows down
    # sharply on dense rational functions
    n = draw(st.integers(1, 5))
    entries = eps_entries(2 if n <= 3 else 1)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = (rows[i][j] + 1) / draw(divisors)
    if n > 1 and draw(st.integers(0, 3)) == 0:
        # make the last row a combination of the others: singular
        cs = draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum((c * r[j] for c, r in zip(cs, rows)), EpsScalar.zero())
                    for j in range(n)]
    return rows


def eps_structure(x):
    return x.num.pairs(), x.den.pairs()


@settings(max_examples=40)
@given(eps_matrices())
def test_eps_matrix_inverse_matches_gauss_jordan_over_the_field(rows):
    want = ref_eps_inverse(rows)
    if want is None:
        with pytest.raises(SingularMatrixError):
            eps_matrix(rows).inverse()
        return
    got = eps_matrix_rows(eps_matrix(rows).inverse())
    assert [[eps_structure(x) for x in r] for r in got] == \
        [[eps_structure(x) for x in r] for r in want]


def test_eps_matrix_inverse_with_a_non_constant_determinant():
    one, e = EpsScalar.one(), EpsScalar.eps()
    quotient = one / esc((0, 1), (1, 1))  # 1 / (1 + eps)
    for rows in ([[e]], [[one, one], [one, one + e]], [[quotient, one], [e, quotient]]):
        got = eps_matrix_rows(eps_matrix(rows).inverse())
        want = ref_eps_inverse(rows)
        assert [[eps_structure(x) for x in r] for r in got] == \
            [[eps_structure(x) for x in r] for r in want]
    assert eps_matrix_rows(eps_matrix([[e]]).inverse())[0][0] == EpsScalar.eps(-1)


def test_eps_matrix_singular():
    one = EpsScalar.one()
    M = eps_matrix([[one, one], [one, one]])
    with pytest.raises(SingularMatrixError):
        M.inverse()


def test_eps_matrix_at_zero_and_lifting():
    M = eps_matrix([[1, F(1, 2)], [0, esc((0, 1), (1, 3))]])
    assert M.at_zero() == [[F(1), F(1, 2)], [F(0), F(1)]]
    assert is_unit_at_zero(M)


def assert_at_zero_is_the_entrywise_limit(M):
    """M.at_zero() against limit() of every entry of M: equal, and
    PoleAtZero exactly when some entry has a pole."""
    try:
        want = [[x.limit() for x in r] for r in eps_matrix_rows(M)]
    except PoleAtZero:
        with pytest.raises(PoleAtZero):
            M.at_zero()
        return
    assert M.at_zero() == want


@settings(max_examples=40)
@given(eps_matrices())
def test_eps_matrix_at_zero_is_the_entrywise_limit(rows):
    M = eps_matrix(rows)
    assert_at_zero_is_the_entrywise_limit(M)
    try:
        Minv = M.inverse()
    except SingularMatrixError:
        return
    assert_at_zero_is_the_entrywise_limit(Minv)


def test_eps_matrix_at_zero_over_a_denominator_of_positive_valuation():
    # I held as (eps I) / eps, and its inverse, held over the last pivot
    # eps**2: regular at zero although the denominator vanishes there
    ident = EpsMatrix([[0, 1], [], [], [0, 1]], [0, 1])
    for M in (ident, ident.inverse()):
        assert M.den[0] == 0
        assert_at_zero_is_the_entrywise_limit(M)
        assert M.at_zero() == [[F(1), F(0)], [F(0), F(1)]]
    # x0 / (eps (1 + eps)) is a pole, x1 / (eps (1 + eps)) with x1 = eps is not
    M = EpsMatrix([[1], [0, 1], [], [0, 1, 1]], [0, 1, 1])
    assert_at_zero_is_the_entrywise_limit(M)
    with pytest.raises(PoleAtZero) as info:
        M.at_zero()
    assert info.value.witness == (0, 0)
    M = EpsMatrix([[0, 2], [0, 1], [], [0, 1, 1]], [0, 1, 1])
    assert_at_zero_is_the_entrywise_limit(M)
    assert M.at_zero() == [[F(2), F(1)], [F(0), F(1)]]


@settings(max_examples=40)
@given(
    st.lists(st.fractions(min_value=-12, max_value=12, max_denominator=5),
             min_size=1, max_size=25, unique=True).flatmap(
        lambda nodes: st.tuples(
            st.just(nodes),
            st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7),
                     min_size=len(nodes), max_size=len(nodes)),
        )
    )
)
def test_vandermonde_matches_dense_solve(case):
    nodes, rhs = case
    rows = [[t**s for t in nodes] for s in range(len(nodes))]
    assert solve_vandermonde(nodes, rhs) == rat_solve(rows, rhs)


vandermonde_nodes = st.one_of(
    st.lists(st.integers(-30, 30), min_size=1, max_size=20, unique=True),
    st.lists(st.fractions(-12, 12, max_denominator=8), min_size=1, max_size=20, unique=True),
)


@st.composite
def vandermonde_rhs(draw, n):
    """Dense, sparse (one or two nonzero entries) or all-zero right-hand sides."""
    values = st.fractions(-9, 9, max_denominator=7)
    kind = draw(st.sampled_from(["dense", "sparse", "zero"]))
    rhs = [F(0)] * n
    if kind == "dense":
        rhs = draw(st.lists(values, min_size=n, max_size=n))
    elif kind == "sparse":
        for s in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2)):
            rhs[s] = draw(values.filter(bool))
    return rhs


@settings(max_examples=150)
@given(vandermonde_nodes.flatmap(lambda nodes: st.tuples(st.just(nodes),
                                                         vandermonde_rhs(len(nodes)))))
def test_vandermonde_matches_the_transposed_system(case):
    # integral nodes as ints or as Fractions, and non-integral nodes, give
    # the Fractions rat_solve gives on sum_j c_j t_j**s = rhs[s]
    nodes, rhs = case
    rows = [[F(t) ** s for t in nodes] for s in range(len(nodes))]
    want = rat_solve(rows, rhs)
    for given_nodes in (nodes, [F(t) for t in nodes]):
        got = solve_vandermonde(given_nodes, rhs)
        assert got == want
        assert all(type(c) is Fraction for c in got)
    if not any(rhs):
        assert want == [F(0)] * len(nodes)


@given(vandermonde_nodes, st.data())
def test_vandermonde_rejects_duplicate_nodes(nodes, data):
    t = data.draw(st.sampled_from(nodes))
    twin = F(t) if isinstance(t, int) else t
    at = data.draw(st.integers(0, len(nodes)))
    nodes = nodes[:at] + [twin] + nodes[at:]
    with pytest.raises(ValueError, match="duplicate"):
        solve_vandermonde(nodes, [F(1)] * len(nodes))
