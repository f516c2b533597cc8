"""Independent rank certification and generators for test families.

Sylvester's algorithm computes the exact Waring and border Waring rank of a
binary form from the kernels of its catalecticant (Hankel) matrices; the
catalecticant rank in any number of variables is a lower bound for both.
These are the yardsticks the decomposition pipeline is measured against, so
they deliberately share no code with it beyond basic polynomial arithmetic.

The generators build border certificates with known ranks: the tangent and
osculating families (divided differences along x + i*eps*y), a two-base
family on disjoint variable pairs, and seeded random certificates whose
target is defined as the limit of the drawn sum.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb
from typing import List, Sequence, Tuple

from .decomp import BorderDecomposition, check_border
from .epsilon import EpsPoly, EpsScalar
from .errors import DrawsExhaustedError, InvariantError
from .linalg import rat_nullspace, rat_rank
from .poly import HomoPoly, LinearForm, falling_factorial, monomials_of_degree


def catalecticant_bound(f: HomoPoly, s: int) -> int:
    """Rank of the s-th catalecticant of f; a lower bound for border rank.

    Rows are indexed by the degree-s derivative operators, columns by the
    degree-(d-s) monomials; the entry is the corresponding coefficient of the
    differentiated polynomial.  Row scalings do not change the rank, so no
    multinomial normalization is needed.
    """
    if f.is_zero:
        raise ValueError("catalecticant of the zero polynomial")
    if not 0 <= s <= f.degree:
        raise ValueError("s must lie between 0 and the degree")
    cols = monomials_of_degree(f.nvars, f.degree - s)
    rows: List[List[Fraction]] = []
    for alpha in monomials_of_degree(f.nvars, s):
        g = f
        for var, order in enumerate(alpha):
            if order:
                g = g.differentiate(var, order)
        rows.append([g.coeff(m) for m in cols])
    return rat_rank(rows)


def _binary_square_free(gamma: Sequence[Fraction], s: int) -> bool:
    """Is sum_j gamma_j X^(s-j) Y^j square-free over the algebraic closure?

    Dehomogenize at t = Y/X: the X-multiplicity is s minus the t-degree, and
    the rest is square-free iff gcd(h, h') is constant.  EpsPoly serves as
    the univariate polynomial ring here.
    """
    h = EpsPoly({j: c for j, c in enumerate(gamma) if c != 0})
    if s - h.degree() > 1:
        return False
    return EpsPoly.gcd(h, h.derivative()).degree() == 0


def sylvester_rank(f: HomoPoly) -> Tuple[int, int]:
    """Exact (Waring rank, border Waring rank) of a binary form.

    Walk s upward until the s-th Hankel matrix H[i][j] = b_{i+j} (with b_m
    the coefficient of x^{d-m} y^m divided by C(d, m)) acquires a kernel;
    that s is the border rank.  A kernel vector is a binary form; if it is
    square-free, or the kernel has dimension at least 2 (a pencil always
    contains a square-free member at the minimal s), the Waring rank is s as
    well, otherwise it is d + 2 - s.
    """
    if f.nvars != 2:
        raise ValueError("Sylvester's algorithm applies to binary forms")
    if f.is_zero:
        raise ValueError("rank of the zero form")
    d = f.degree
    if d < 1:
        raise ValueError("degree must be at least 1")
    b = [f.coeff((d - m, m)) / comb(d, m) for m in range(d + 1)]
    for s in range(1, d + 1):
        H = [[b[i + j] for j in range(s + 1)] for i in range(d - s + 1)]
        kernel = rat_nullspace(H)
        if not kernel:
            continue
        if len(kernel) > 1:
            return s, s
        wr = s if _binary_square_free(kernel[0], s) else d + 2 - s
        return wr, s
    raise InvariantError("no rank-deficient catalecticant up to s = d")


# ---------------------------------------------------------------------------
# generators


def gen_osculating(d: int, j: int) -> Tuple[HomoPoly, BorderDecomposition]:
    """Certificate for x^(d-j) y^j from j-th divided differences.

    Summands are (x + i*eps*y)^d for i = 0..j with weights
    (-1)^(j-i) C(j, i) / ((d)_j eps^j); the j-th finite difference of i^m
    vanishes for m < j and equals j! at m = j, which isolates the eps^j
    coefficient.  j = 1 is the tangent construction.
    """
    if d < 2 or not 1 <= j <= d - 1:
        raise ValueError("need d >= 2 and 1 <= j <= d-1")
    f = HomoPoly(2, d, {(d - j, j): Fraction(1)})
    ff = falling_factorial(d, j)
    summands = []
    for i in range(j + 1):
        c = Fraction((-1) ** (j - i) * comb(j, i), ff)
        w = EpsScalar.from_rational(c) * EpsScalar.eps(-j)
        form = LinearForm((EpsScalar.one(), EpsScalar.from_poly(EpsPoly({1: Fraction(i)}))
                           if i else EpsScalar.zero()))
        summands.append((w, form))
    B = BorderDecomposition(2, d, tuple(summands))
    _require_verified(B, f, "osculating family")
    return f, B


def gen_tangent(d: int) -> Tuple[HomoPoly, BorderDecomposition]:
    """Certificate for x^(d-1) y: the j = 1 osculating family."""
    return gen_osculating(d, 1)


def gen_multibase(d: int) -> Tuple[HomoPoly, BorderDecomposition]:
    """Two tangent certificates on disjoint variable pairs.

    Four summands at the two bases x and y, with limit
    d * (x^(d-1) u + y^(d-1) v) in the variable order (x, y, u, v).
    """
    if d < 2:
        raise ValueError("need d >= 2")
    dd = Fraction(d)
    f = HomoPoly(4, d, {(d - 1, 0, 1, 0): dd, (0, d - 1, 0, 1): dd})
    one = EpsScalar.one()
    zero = EpsScalar.zero()
    e1 = EpsScalar.eps(1)
    wpos = EpsScalar.eps(-1)
    summands = (
        (wpos, LinearForm((one, zero, e1, zero))),
        (-wpos, LinearForm((one, zero, zero, zero))),
        (wpos, LinearForm((zero, one, zero, e1))),
        (-wpos, LinearForm((zero, one, zero, zero))),
    )
    B = BorderDecomposition(4, d, summands)
    _require_verified(B, f, "multibase family")
    return f, B


def _rand_rational(rng: random.Random) -> Fraction:
    """Nonzero rational of height at most 9."""
    return Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 9))


def _rand_eps_coef(rng: random.Random) -> EpsScalar:
    """Polynomial in eps of degree <= 2, sparse, height <= 9; may be zero."""
    terms = {}
    for e in range(3):
        if rng.random() < 0.6:
            continue
        terms[e] = _rand_rational(rng)
    return EpsScalar.from_poly(EpsPoly(terms))


# draws gen_random tries before it gives up
_RANDOM_RETRIES = 2000


def gen_random(
    nvars: int, degree: int, rank: int, seed: int = 0
) -> Tuple[HomoPoly, BorderDecomposition]:
    """Seeded random certificate; the target is the limit of the drawn sum.

    Forms have eps-polynomial coefficients of degree <= 2 and height <= 9,
    weights are c * eps^v with v in [-2, 2].  Draws whose sum has a pole at
    eps = 0 or a zero limit are rejected, so every returned pair verifies by
    construction.  When every draw is rejected it raises
    DrawsExhaustedError.
    """
    if nvars < 1 or degree < 1 or rank < 1:
        raise ValueError("nvars, degree and rank must be at least 1")
    rng = random.Random(seed)
    for _ in range(_RANDOM_RETRIES):
        summands = []
        for _i in range(rank):
            while True:
                coefs = tuple(_rand_eps_coef(rng) for _ in range(nvars))
                if any(not c.is_zero for c in coefs):
                    break
            w = EpsScalar.from_rational(_rand_rational(rng)) * EpsScalar.eps(
                rng.randint(-2, 2)
            )
            summands.append((w, LinearForm(coefs)))
        B = BorderDecomposition(nvars, degree, tuple(summands))
        S = B.expand()
        if S.is_zero or S.min_valuation()[0] < 0:
            continue
        f = S.limit_at_zero()
        if f.is_zero:
            continue
        return f, B
    raise DrawsExhaustedError(
        f"no convergent random certificate in {_RANDOM_RETRIES} draws "
        f"(nvars {nvars}, degree {degree}, rank {rank}, seed {seed}); "
        "try another seed or a lower rank")


def gen_family(
    family: str,
    d: int | None = None,
    j: int | None = None,
    nvars: int | None = None,
    rank: int | None = None,
    seed: int = 0,
) -> Tuple[HomoPoly, BorderDecomposition]:
    """Dispatch by family tag; unused parameters must be left unset."""
    if family == "tangent":
        if d is None:
            raise ValueError("tangent family needs d")
        return gen_tangent(d)
    if family == "osculating":
        if d is None or j is None:
            raise ValueError("osculating family needs d and j")
        return gen_osculating(d, j)
    if family == "multibase":
        if d is None:
            raise ValueError("multibase family needs d")
        return gen_multibase(d)
    if family == "random":
        if d is None or nvars is None or rank is None:
            raise ValueError("random family needs d, nvars and rank")
        return gen_random(nvars, d, rank, seed)
    raise ValueError(f"unknown family {family!r}")


def _require_verified(B: BorderDecomposition, f: HomoPoly, what: str) -> None:
    out = check_border(B, f)
    if not out.ok:
        raise InvariantError(f"{what} certificate fails verification: {out.reason}")


__all__ = [
    "catalecticant_bound",
    "gen_family",
    "gen_multibase",
    "gen_osculating",
    "gen_random",
    "gen_tangent",
    "sylvester_rank",
]
