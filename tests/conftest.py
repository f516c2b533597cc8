"""Shared builders and invariant checkers for the test suite."""

import os
from fractions import Fraction
from pathlib import Path

from hypothesis import settings

import waring
from waring import (
    BorderDecomposition,
    EpsPoly,
    EpsScalar,
    HomoPoly,
    LinearForm,
    PoleAtZero,
    check_border,
    diagonalize,
    is_local,
    normalize_border,
    staircase_check,
)
from waring.linalg import rat_inverse, rat_rank


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


class RefPivots(list):
    """The pivot search's echelon over the field Q(eps), on EpsScalars: the
    reference the integer ``diagonal._Pivots`` is checked against.  Each
    row is 1 at its pivot column and 0 at the pivot columns of the rows
    before it; ``spans`` folds in the pivots appended since it last ran.
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
        rref, cols = field_rref([[Fraction(p.lead[i]) for p in eligible] + [lead[i]]
                                 for i in range(len(v))])
        if k in cols:
            return val, tuple(v)
        sol = [Fraction(0)] * k
        for r, col in enumerate(cols):
            sol[col] = rref[r][k]
        for c, p in zip(sol, eligible):
            if c != 0:
                mult = EpsScalar.from_poly(EpsPoly({val - p.valuation: c}))
                v = [a - mult * b for a, b in zip(v, p.vector)]


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


def assert_staircase_invariants(f, B):
    """Diagonalize and assert every structural property, returning the result.

    Checked here on top of staircase_check itself: the first pivot valuation
    is zero and the valuations are monotone, the change of variables is a
    unit at eps = 0 with an exactly invertible value, the transformed
    expansion equals the original one composed with the transform, the
    transformed certificate still proves the transformed limit, and a local
    certificate stays local.
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
    # the transformed expansion is its expansion composed with the transform
    normalized = normalize_border(B).expand()
    transformed = D.decomposition.expand()
    assert transformed == normalized.substitute_linear(D.transform.rows)

    out = check_border(D.decomposition, D.limit)
    assert out.ok
    assert D.limit == f.substitute_linear(D.base_change)

    if is_local(B) is not None:
        assert is_local(D.decomposition) is not None
    return D
