"""Shared builders and invariant checkers for the test suite."""

import os
from collections import namedtuple
from fractions import Fraction
from math import comb, lcm
from pathlib import Path

from hypothesis import settings

import waring
from waring import (
    BorderCheck,
    BorderDecomposition,
    DegenerateDecompositionError,
    EpsPoly,
    EpsScalar,
    HomoPoly,
    InvariantError,
    LinearForm,
    NoPivotError,
    PoleAtZero,
    check_border,
    diagonalize,
    is_local,
    normalize_border,
    restrict_vars_zero,
    staircase_check,
)
from waring.decomp import _partial_coefficient_rows
from waring import diagonal
from waring.diagonal import DiagonalizedDecomposition, Pivot
from waring.epsilon import _eps_of, _int_eps_row, _lowest
from waring.linalg import EpsMatrix, _basis_completion, rat_inverse, rat_nullspace, rat_rank
from waring.linalg import solve_vandermonde
from waring.poly import _substitute_row


# property tests run the same examples every time, write no example
# database, and have no per-example deadline on a loaded host
settings.register_profile("waring", deadline=None, derandomize=True, database=None)
settings.load_profile("waring")


# environment for a fresh `python -m waring.cli` process that imports the
# package under test
FRESH_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(Path(waring.__file__).resolve().parent.parent)]
    + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


def F(a, b=1):
    return Fraction(a, b)


def eps(k=1):
    return EpsScalar.eps(k)


def epoly(*pairs):
    """EpsPoly from (exponent, coefficient) pairs."""
    return EpsPoly({e: Fraction(c) for e, c in pairs})


def esc(*pairs):
    """Polynomial EpsScalar from (exponent, coefficient) pairs."""
    return EpsScalar.from_poly(epoly(*pairs))


def lf(*coefs):
    return LinearForm(tuple(coefs))


def mono(nvars, exps, c=1):
    return HomoPoly.monomial(nvars, tuple(exps), Fraction(c))


def rand_poly(rng, nvars, degree, height=9):
    """Nonzero random homogeneous polynomial with small integer coefficients."""
    from waring.poly import monomials_of_degree

    while True:
        terms = {}
        for m in monomials_of_degree(nvars, degree):
            if rng.random() < 0.5:
                continue
            c = rng.randint(-height, height)
            if c:
                terms[m] = Fraction(c)
        if terms:
            return HomoPoly(nvars, degree, terms)


def repeated_product(coefs, d):
    """l * l * ... * l through HomoPoly multiplication alone."""
    n = len(coefs)
    out = HomoPoly(n, 0, {(0,) * n: Fraction(1)})
    linear = HomoPoly(n, 1, {
        tuple(1 if j == i else 0 for j in range(n)): c for i, c in enumerate(coefs) if c
    })
    for _ in range(d):
        out = out * linear
    return out


def ref_substitute(f, rows):
    """f(Mx) as a sum over monomials of products of row powers, each power a
    repeated product; rows over Q or Q(eps)."""
    n = f.nvars
    total = HomoPoly.zero(n, f.degree)
    for m, c in f.items():
        piece = HomoPoly(n, 0, {(0,) * n: Fraction(1)})
        for row, e in zip(rows, m):
            piece = piece * repeated_product(row, e)
        total = total + piece.scale(c)
    return total


def ref_substitute_form(coefs, rows):
    """c . M, multiplying and adding one scalar at a time."""
    out = [Fraction(0)] * len(rows)
    for c, row in zip(coefs, rows):
        for j, x in enumerate(row):
            out[j] = out[j] + c * x
    return out


# -- Fraction / LinearForm references for WaringDecomposition's rows ---------
# Each takes and returns (weight, LinearForm) pairs, one scalar at a time.


def ref_is_parallel(a, b):
    """True if the two forms are proportional, by one ratio per entry."""
    if len(a) != len(b):
        return False
    ratio = None
    for x, y in zip(a, b):
        if x == 0 and y == 0:
            continue
        if x == 0 or y == 0:
            return False
        r = x / y
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    return True


def ref_waring_expand(nvars, degree, summands):
    """sum of w * l**degree, each power a repeated product."""
    total = HomoPoly.zero(nvars, degree)
    for w, form in summands:
        total = total + repeated_product(form, degree).scale(w)
    return total


def ref_merged(summands):
    """Weights of equal forms added, in order of first appearance; zero
    sums dropped."""
    acc = {}
    for w, form in summands:
        acc[form] = acc.get(form, 0) + w
    return [(w, form) for form, w in acc.items() if w != 0]


def ref_extend_summands(summands, nvars):
    return [(w, LinearForm(tuple(form) + (Fraction(0),) * (nvars - len(form))))
            for w, form in summands]


def ref_partial_rows(f):
    """The coefficient vectors of f's first partials over the sorted
    monomials they use, built through ``HomoPoly.differentiate``."""
    partials = [f.differentiate(i) for i in range(f.nvars)]
    basis = sorted({m for p in partials for m, _ in p.items()})
    return [[p.coeff(m) for m in basis] for p in partials]


def ref_multiply_by_power(summands, e, z, k):
    """The summands of multiply_by_power(W, z, k), W of degree e, built with
    Fraction and LinearForm arithmetic: a form parallel to z becomes z,
    any other l becomes l + t z at every node t with a nonzero coefficient."""
    n = e + k + 1
    nodes = [Fraction(0)]
    step = 1
    while len(nodes) < n:
        nodes += [Fraction(step), Fraction(-step)]
        step += 1
    nodes = nodes[:n]
    rhs = [Fraction(0)] * n
    rhs[k] = Fraction(1, comb(e + k, k))
    coeffs = solve_vandermonde(nodes, rhs)
    out = []
    for w, form in summands:
        if ref_is_parallel(form, z):
            s = next(a / b for a, b in zip(form, z) if b != 0)
            out.append((w * s**e, z))
            continue
        for t, c in zip(nodes, coeffs):
            if c:
                out.append((w * c, LinearForm([a + t * b for a, b in zip(form, z)])))
    return ref_merged(out)


def field_rref(rows):
    """Reduced row echelon form by plain Gauss-Jordan over a field (Q or
    Q(eps): the entries are Fractions or EpsScalars); returns (rref, pivot
    columns).  The reference the fraction-free kernels are checked against.
    """
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return m, pivots


def int_row(vec):
    """vec as the pivot search holds it: (lists, den), dense integer
    eps-lists over one integer, vec = lists / den over Q[eps].  A vector
    outside Q[eps] is first multiplied by the lcm of its polynomial
    denominators, which keeps its Q(eps)-span, all a span check reads; den
    is then 1."""
    lists, s = _int_eps_row(vec)
    return lists, s[0] if len(s) == 1 else 1


def int_pivot(index, valuation, vec):
    """The integer ``diagonal.Pivot`` of the vector vec."""
    return Pivot(index, valuation, *int_row(vec))


# a pivot of the reference search: its valuation and its vector of EpsScalars
RefPivot = namedtuple("RefPivot", "valuation vector")


class RefPivots(list):
    """The pivot search's echelon over the field Q(eps), on EpsScalars: the
    reference the integer ``diagonal._Pivots`` is checked against.  Holds
    RefPivot pairs; each echelon row is 1 at its pivot column and 0 at the pivot
    columns of the rows before it; ``spans`` folds in the pivots appended
    since it last ran.
    """

    def __init__(self, pivots=()):
        super().__init__(pivots)
        self.rows = []
        self.folded = 0

    def residual(self, v):
        v = list(v)
        for col, row in self.rows:
            c = v[col]
            if c:
                v = [a - c * b if b else a for a, b in zip(v, row)]
        return v

    def spans(self, v):
        """rank(pivot vectors + [v]) == number of pivots, over Q(eps)."""
        for pv in self[self.folded:]:
            r = self.residual(pv.vector)
            col = next((j for j, c in enumerate(r) if c), None)
            if col is not None:
                inv = 1 / r[col]
                self.rows.append((col, [c * inv if c else c for c in r]))
        self.folded = len(self)
        return len(self.rows) + any(self.residual(v)) == len(self)


def ref_reduce_vector(vec, pivots):
    """The pivot reduction on EpsScalars, against a RefPivots: None when
    the vector is certified zero in the ring-span of the pivots, else
    (valuation, reduced vector)."""
    v = list(vec)
    qmax = max((p.valuation for p in pivots), default=None)
    in_span = None
    while True:
        if all(c.is_zero for c in v):
            return None
        val = min(c.valuation() for c in v if not c.is_zero)
        if qmax is not None and val > qmax:
            if in_span is None:
                in_span = pivots.spans(v)
            if in_span:
                return None
        lead = [c.num.coeff(val) for c in v]
        eligible = [p for p in pivots if p.valuation <= val]
        if not eligible:
            return val, tuple(v)
        # the lead solve by field_rref, free unknowns 0
        k = len(eligible)
        rref, cols = field_rref([[p.vector[i].num.coeff(p.valuation) for p in eligible]
                                 + [lead[i]] for i in range(len(v))])
        if k in cols:
            return val, tuple(v)
        sol = [Fraction(0)] * k
        for r, col in enumerate(cols):
            sol[col] = rref[r][k]
        for c, p in zip(sol, eligible):
            if c != 0:
                mult = EpsScalar.from_poly(EpsPoly({val - p.valuation: c}))
                v = [a - mult * b for a, b in zip(v, p.vector)]


def ref_normalize_border(B):
    """Normalization on EpsScalars: per summand, the form's eps-content moves
    into the weight, the coefficients are multiplied by the lcm of their
    denominators (built with monic gcds, so its value at eps = 0 need not
    be 1) and the weight divided by its d-th power, and each coefficient is
    cut above eps**t, t = max(0, -val(weight)).  The reference
    ``normalize_border`` is checked against."""
    d = B.degree
    out = []
    for w, form in B.summands:
        coefs = list(form.coefs)
        v = min(c.valuation() for c in coefs if not c.is_zero)
        if v != 0:
            coefs = [c * EpsScalar.eps(-v) for c in coefs]
            w = w * EpsScalar.eps(v * d)
        den = EpsPoly.const(1)
        for c in coefs:
            if not c.is_zero and not c.is_polynomial:
                den = den * c.den.exact_div(EpsPoly.gcd(den, c.den))
        if den.degree() > 0:
            scale = EpsScalar.from_poly(den)
            coefs = [c * scale for c in coefs]
            w = w / scale**d
        t = max(0, -w.valuation())
        coefs = [EpsScalar.from_poly(EpsPoly({e: a for e, a in c.num.pairs() if e <= t}))
                 for c in coefs]
        out.append((w, LinearForm(coefs)))
    return BorderDecomposition(B.nvars, d, tuple(out))


def ref_scale_weights(B, s):
    """Every weight multiplied by s as an EpsScalar, the certificate then
    cleared again from its summands: the reference ``scale_weights`` is
    checked against."""
    s = EpsScalar.from_rational(s) if isinstance(s, (int, Fraction)) else s
    if s.is_zero:
        raise ValueError("scaling weights by zero")
    return BorderDecomposition(B.nvars, B.degree, [(w * s, form) for w, form in B.summands])


def ref_top_order(B):
    """The highest eps-order B's expansion can reach, read off EpsScalar
    weights and their EpsPoly degrees, or None when some denominator is not
    a power of eps: the reference ``decomp._top_order`` is checked against."""
    top = None
    for w, form in B.summands:
        lists, den = _int_eps_row(form)
        if any(den[:-1]) or w.den.valuation() < w.den.degree():
            return None
        t = w.num.degree() - w.den.degree() + B.degree * (max(map(len, lists)) - len(den))
        top = t if top is None else max(top, t)
    return top


def ref_base_of_row(lists):
    """The base direction of a form cleared to lists, as Fractions: the
    leads at the lists' common valuation over the first nonzero lead.  The
    reference ``decomp._base_of_row``'s integer keys are checked against."""
    v = min(next(i for i, c in enumerate(x) if c) for x in lists if x)
    leads = [x[v] if len(x) > v else 0 for x in lists]
    first = next(x for x in leads if x)
    return tuple(Fraction(x, first) for x in leads)


def greedy_completion(vectors, n):
    """The standard vectors' indices that complete the independent vectors
    to a basis of Q^n, one rank per try: the scan that
    ``linalg._basis_completion`` replaced, kept as its reference."""
    chosen = []
    for j in range(n):
        e = [F(1 if i == j else 0) for i in range(n)]
        trial = [list(v) for v in vectors] + [
            [F(1 if i == k else 0) for i in range(n)] for k in chosen] + [e]
        if rat_rank(trial) == len(trial):
            chosen.append(j)
    return chosen


def eps_matrix(rows):
    """The EpsMatrix of rows of EpsScalars, Fractions and ints, cleared by
    the codec."""
    return EpsMatrix(*_int_eps_row([x for r in rows for x in r]))


def eps_matrix_rows(M):
    """The entries of the EpsMatrix M as rows of EpsScalars."""
    n = M.dim
    return [[_eps_of(x, M.den) for x in M.lists[i * n:(i + 1) * n]] for i in range(n)]


def is_unit_at_zero(M):
    """All entries of the EpsMatrix M regular at 0 and M(0) invertible over Q."""
    try:
        m0 = M.at_zero()
    except PoleAtZero:
        return False
    return rat_rank(m0) == M.dim


def unit_denominator_tangent():
    """Tangent certificate of x^2 y whose moving form is x + eps/(1+eps) y."""
    t = EpsScalar(EpsPoly({1: F(1)}), EpsPoly({0: F(1), 1: F(1)}))
    w = EpsScalar.eps(-1) * F(1, 3)
    B = BorderDecomposition(2, 3, (
        (w, LinearForm((EpsScalar.one(), t))),
        (-w, LinearForm((EpsScalar.one(), EpsScalar.zero()))),
    ))
    return HomoPoly.monomial(2, (2, 1)), B


# Two certificates of an earlier seeded generator, which drew every form
# coefficient as a polynomial in eps and rejected the draws whose sum had a
# pole, as cleared rows (wl, wden, lists, den).  Their runs under the Y/Z
# split are pinned in tests/test_golden_documents.py and tests/test_deborder.py.
FROZEN_ROWS = {
    # five variables, degree 3: NONLOCAL at y_size = 1
    "random5_3_5_s8": (5, 3, (
        ([-3], [7], [[], [], [16], [0, 0, -5], [-30, -4]], [10]),
        ([7], [6], [[0, -70, -80], [], [0, 0, 15], [], [30, -48]], [30]),
        ([-7], [0, 0, 8], [[], [], [], [0, -35, 28], []], [20]),
        ([-1], [2], [[-420], [140, 0, 360], [], [105, 504], [-105, -630]], [420]),
        ([-7], [6], [[-108, 0, -12], [36, -28], [0, 0, 162], [], [0, 63]], [36]),
    )),
    # four variables, degree 5: two local groups at y_size = 2
    "random4_5_5_s21": (4, 5, (
        ([-3], [1], [[240, 40, -24], [], [0, 0, 45], []], [120]),
        ([0, 5], [4], [[0, 0, -5], [], [], [0, 0, 28]], [4]),
        ([0, 0, -2], [5], [[12, -2], [4], [-2, 0, -3], [4]], [4]),
        ([1], [1], [[63, 1512, 504], [], [-672, -432, -448], []], [504]),
        ([-1], [3], [[0, 0, -4], [], [0, -1], []], [1]),
    )),
}


def frozen_certificate(name):
    """(f, B) for one of FROZEN_ROWS: B built from its rows, f its limit."""
    nvars, degree, rows = FROZEN_ROWS[name]
    B = BorderDecomposition._of_rows(nvars, degree, rows)
    return B.expand(through=0).limit_at_zero(), B


def embed_certificate(f, B, rows):
    """f and B padded with unused variables to len(rows), then composed with
    the change of variables that replaces variable i by the form rows[i]."""
    n = len(rows)
    pad = (0,) * (n - f.nvars)
    fn = HomoPoly(n, f.degree, {m + pad: c for m, c in f.items()}).substitute_linear(rows)
    Bn = BorderDecomposition(n, B.degree, tuple(
        (w, LinearForm(g + (F(0),) * len(pad))) for w, g in B.summands))
    return fn, Bn.substitute([[EpsScalar.from_rational(x) for x in r] for r in rows])


# inputs whose top level is inessential, as (x, y) -> (x - y, z) inside three
# variables (kernel (1, 1, 0), kept coordinates 0 and 2), or, for the four
# variables of gen_multibase, x0 -> x0 + x4 and x3 -> x3 - x4 inside five
# (kernel (-1, 0, 0, 1, 1), which has entries on the kept coordinates 0..3)
SHEAR_IN_3 = [[F(1), F(-1), F(0)], [F(0), F(0), F(1)], [F(0), F(1), F(0)]]
SHEAR_IN_5 = [[F(x) for x in row] for row in [
    [1, 0, 0, 0, 1],
    [0, 1, 0, 0, 0],
    [0, 0, 1, 0, 0],
    [0, 0, 0, 1, -1],
    [0, 0, 0, 0, 1],
]]


def ref_essential_reduce(f, B):
    """essential_reduce by rotation: f(Tx) and B(Tx) for T = [e_J | K], K
    the kernel of f's partials and e_J its completion, then restricted to
    the first N variables, where they live."""
    n = f.nvars
    rows = _partial_coefficient_rows(f)
    kernel = rat_nullspace([[rows[i][j] for i in range(n)] for j in range(len(rows[0]))])
    N = n - len(kernel)
    if N > B.rank():
        raise InvariantError(
            f"target has {N} essential variables but the certificate has rank {B.rank()}")
    if N == n:
        return f, B, [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)], N
    cols = [[Fraction(1 if i == j else 0) for i in range(n)]
            for j in _basis_completion(kernel, n)] + kernel
    T = [[cols[j][i] for j in range(n)] for i in range(n)]
    f2 = f.substitute_linear(T)
    if any(any(m[N:]) for m, _ in f2.items()):
        raise InvariantError("essential reduction left a trailing variable in use")
    B2 = restrict_vars_zero(B.substitute(T), range(N, n))
    return f2.take_vars(N), BorderDecomposition(N, B.degree, tuple(
        (w, LinearForm(form[:N])) for w, form in B2.summands)), T, N


def ref_diagonalize(B, f):
    """diagonalize with every pivot frame G inverted: A = G**-1 by
    ``EpsMatrix.inverse``, each row moved by ``_substitute_row`` and the
    limit built as f(A(0) x), also when G = S*I.  The reference the
    identity-frame route of ``diagonalize`` is checked against."""
    Bn = normalize_border(B)
    n = Bn.nvars
    rows = [(lists, den[0]) for _, _, lists, den in Bn.cleared]
    pivots = diagonal._Pivots()
    remaining = list(range(len(rows)))
    while remaining and len(pivots) < n:
        try:
            j, val, lists, den = diagonal._select_pivot([rows[i] for i in remaining], pivots)
        except NoPivotError:
            break
        pivots.append(Pivot(remaining.pop(j), val, lists, den))
    S = lcm(*(pv.den for pv in pivots))
    grows = [[[c * (S // pv.den) for c in x[pv.valuation:]] for x in pv.lists] for pv in pivots]
    if len(grows) < n:
        pad = _basis_completion([_lowest(pv.lists)[1] for pv in pivots], n)
        grows += [[[S] if i == j else [] for i in range(n)] for j in pad]
    A = EpsMatrix([x for r in grows for x in r], [S]).inverse()
    A0 = A.at_zero()
    order = [pv.original_index for pv in pivots] + remaining
    summands = [(*Bn.cleared[i][:2], *_substitute_row(*Bn.cleared[i][2:], A.lists, A.den))
                for i in order]
    return DiagonalizedDecomposition(
        decomposition=BorderDecomposition._of_rows(n, Bn.degree, summands),
        transform=A,
        base_change=tuple(tuple(r) for r in A0),
        base_change_inv=tuple(tuple(r) for r in rat_inverse(A0)),
        pivots=tuple((k, pv.valuation) for k, pv in enumerate(pivots)),
        perm=tuple(order),
        limit=f.substitute_linear(A0),
    )


def assert_matches_ref_diagonalize(B, f):
    """diagonalize(B, f) equals ref_diagonalize(B, f) field by field: the
    rows, the transform's entries over Q(eps), both base changes, pivots,
    perm and the limit's terms in order.  Returns the result."""
    D, R = diagonalize(B, f), ref_diagonalize(B, f)
    assert D.decomposition.cleared == R.decomposition.cleared
    assert eps_matrix_rows(D.transform) == eps_matrix_rows(R.transform)
    assert (D.base_change, D.base_change_inv) == (R.base_change, R.base_change_inv)
    assert (D.pivots, D.perm) == (R.pivots, R.perm)
    assert list(D.limit.items()) == list(R.limit.items())
    return D


def ref_check_border(B, f):
    """check_border read off B's full expansion: the verdict, q over every
    coefficient of (expansion - f), the pole and limit witnesses."""
    S = B.expand()
    if S.is_zero:
        if f.is_zero:
            return BorderCheck(True, None, "exact (zero)", None)
        raise DegenerateDecompositionError(
            "expanded sum is identically zero against a nonzero target")
    val, wit = S.min_valuation()
    if val < 0:
        return BorderCheck(False, None, f"pole of order {-val} at eps = 0", wit)
    lifted = HomoPoly(f.nvars, f.degree, {m: EpsScalar.from_rational(c) for m, c in f.items()})
    diff = S - lifted
    q = None if diff.is_zero else diff.min_valuation()[0]
    limit = S.limit_at_zero()
    if limit == f:
        return BorderCheck(True, q, "ok", None)
    return BorderCheck(False, q, "limit differs from target", (limit - f).monomials()[0])


def common_denominator(scalars):
    """The lcm of the scalars' denominators, as an EpsScalar."""
    den = EpsPoly.const(1)
    for c in scalars:
        if c.den != den:
            den = den * c.den.exact_div(EpsPoly.gcd(den, c.den))
    return EpsScalar(den)


def compose_with_unit_denominators(B):
    """B composed with A(eps) = I + eps/(1+eps) N, N the strictly upper
    triangular matrix of ones.  A(0) = I, so the limit is unchanged, while
    the forms now carry the non-monomial denominator 1 + eps."""
    n = B.nvars
    t = EpsScalar(EpsPoly({1: F(1)}), EpsPoly({0: F(1), 1: F(1)}))
    one, zero = EpsScalar.one(), EpsScalar.zero()
    return B.substitute([[one if i == j else t if j > i else zero for j in range(n)]
                         for i in range(n)])


def assert_staircase_invariants(f, B):
    """Diagonalize and assert every structural property, returning the result.

    Checked here on top of staircase_check itself: the first pivot valuation
    is zero and the valuations are monotone, the change of variables is a
    unit at eps = 0 with an exactly invertible value, the transformed
    expansion equals the original one composed with the transform, the
    transformed certificate still proves the transformed limit and equals
    the certificate rebuilt from its summands, and a local certificate stays
    local.  The pivots tell the two apart: the input has one base exactly
    when there is no second pivot at valuation 0.
    """
    D = diagonalize(B, f)
    staircase_check(D)

    qs = [q for _, q in D.pivots]
    assert qs[0] == 0
    assert all(a <= b for a, b in zip(qs, qs[1:]))
    assert 1 <= D.p <= min(B.rank(), B.nvars)

    assert is_unit_at_zero(D.transform)
    rat_inverse(D.base_change)  # raises if singular
    ident = [[Fraction(1 if i == j else 0) for j in range(B.nvars)] for i in range(B.nvars)]
    prod = [
        [sum(D.base_change[i][k] * D.base_change_inv[k][j] for k in range(B.nvars))
         for j in range(B.nvars)]
        for i in range(B.nvars)
    ]
    assert prod == ident

    # diagonalize works on the normalized certificate; up to summand order
    # the transformed expansion is its expansion composed with the transform.
    # Both sides are multiplied by c1 * c2**d, c1 and c2 the common
    # denominators of the expansion and of the transform, so the reference
    # composes polynomials in eps: (c1 p)(c2 A x) = c1 c2**d p(A x)
    normalized = normalize_border(B).expand()
    transformed = D.decomposition.expand()
    c1 = common_denominator(c for _, c in normalized.items())
    A = eps_matrix_rows(D.transform)
    c2 = common_denominator(x for r in A for x in r)
    assert transformed.scale(c1 * c2**B.degree) == ref_substitute(
        normalized.scale(c1), [[x * c2 for x in r] for r in A])

    out = check_border(D.decomposition, D.limit)
    assert out.ok
    # the transformed rows are the codec's clearing of their values
    again = BorderDecomposition(B.nvars, B.degree, D.decomposition.summands)
    assert again == D.decomposition and hash(again) == hash(D.decomposition)
    assert D.limit == f.substitute_linear(D.base_change)

    local = is_local(B) is not None
    assert (is_local(D.decomposition) is not None) == local
    assert (D.p == 1 or D.pivots[1][1] >= 1) == local
    return D
