"""Independent rank certification and generators for test families.

Sylvester's algorithm computes the exact Waring and border Waring rank of a
binary form from the kernels of its catalecticant (Hankel) matrices; the
catalecticant rank in any number of variables is a lower bound for both.
These are the yardsticks the decomposition pipeline is measured against, so
they deliberately share no code with it beyond basic polynomial arithmetic.

The generators build border certificates with known ranks, every one from
``_block``, a divided difference along a line whose poles cancel within the
block: the tangent and osculating families (along x + t*y), a two-base
family of two tangent blocks on disjoint variable pairs, and seeded random
certificates of blocks along random lines, whose target is the limit of
the sum.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb
from typing import List, Sequence, Tuple

from .decomp import BorderDecomposition, check_border
from .epsilon import EpsPoly, EpsScalar
from .errors import InvariantError
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


def _block(
    c: int | Fraction, l0: Sequence[int], l1: Sequence[int], j: int
) -> List[Tuple[EpsScalar, LinearForm]]:
    """The j-th divided difference of c (l0 + t l1)^d at t = 0, eps, ..., j eps.

    Summand i = 0..j is c (-1)^(j-i) C(j, i) eps^-j (l0 + i eps l1)^d, any
    d >= j.  Expanding the powers, the block's eps^(m-j) coefficient is
    c C(d, m) D_m l0^(d-m) l1^m, where D_m = sum_i (-1)^(j-i) C(j, i) i^m is
    the j-th forward difference of i^m at 0: 0 for m < j (i^m has degree
    below j) and j! at m = j.  So the poles cancel, the block tends to
    c j! C(d, j) l0^(d-j) l1^j, nonzero for nonzero c, l0, l1, and for
    j >= 1 each summand has a pole of order j.
    """
    pole = EpsScalar.eps(-j)
    return [
        (EpsScalar.from_rational(c * (-1) ** (j - i) * comb(j, i)) * pole,
         LinearForm([EpsScalar.from_poly(EpsPoly({0: Fraction(a), 1: Fraction(i * b)}))
                     for a, b in zip(l0, l1)]))
        for i in range(j + 1)
    ]


def gen_osculating(d: int, j: int) -> Tuple[HomoPoly, BorderDecomposition]:
    """Certificate for x^(d-j) y^j: the ``_block`` along x + t*y with
    c = 1 / (d)_j.  j = 1 is the tangent construction."""
    if d < 2 or not 1 <= j <= d - 1:
        raise ValueError("need d >= 2 and 1 <= j <= d-1")
    f = HomoPoly(2, d, {(d - j, j): Fraction(1)})
    B = BorderDecomposition(2, d, _block(Fraction(1, falling_factorial(d, j)), (1, 0), (0, 1), j))
    _require_verified(B, f, "osculating family")
    return f, B


def gen_tangent(d: int) -> Tuple[HomoPoly, BorderDecomposition]:
    """Certificate for x^(d-1) y: the j = 1 osculating family."""
    return gen_osculating(d, 1)


def gen_multibase(d: int) -> Tuple[HomoPoly, BorderDecomposition]:
    """Tangent ``_block``s (c = 1) along x + t*u and y + t*v, moving summand
    first; the limit is d * (x^(d-1) u + y^(d-1) v) in the order (x, y, u, v)."""
    if d < 2:
        raise ValueError("need d >= 2")
    dd = Fraction(d)
    f = HomoPoly(4, d, {(d - 1, 0, 1, 0): dd, (0, d - 1, 0, 1): dd})
    B = BorderDecomposition(4, d, _block(1, (1, 0, 0, 0), (0, 0, 1, 0), 1)[::-1]
                            + _block(1, (0, 1, 0, 0), (0, 0, 0, 1), 1)[::-1])
    _require_verified(B, f, "multibase family")
    return f, B


def _rand_rational(rng: random.Random) -> Fraction:
    """Nonzero rational of height at most 9."""
    return Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 9))


def _rand_vector(rng: random.Random, n: int) -> Tuple[int, ...]:
    """Nonzero integer vector, entries in [-3, 3]; a zero draw gets a 1..3 entry."""
    v = [rng.randint(-3, 3) for _ in range(n)]
    if not any(v):
        v[rng.randrange(n)] = rng.randint(1, 3)
    return tuple(v)


def gen_random(
    nvars: int, degree: int, rank: int, seed: int = 0
) -> Tuple[HomoPoly, BorderDecomposition]:
    """Seeded certificate of ``_block``s along random lines.

    A block holds k summands, k drawn from [2, min(left, degree + 1)] (1 for
    a last single one), with j = k - 1, c of height <= 9 and random integer
    l0, l1.  The target is the limit of the sum; ``limit_at_zero`` raises on
    a pole, so taking it verifies the certificate.  When the block limits
    cancel, the last block's weights are doubled, leaving its own limit.
    """
    if nvars < 1 or degree < 1 or rank < 1:
        raise ValueError("nvars, degree and rank must be at least 1")
    rng = random.Random(seed)
    summands = []
    left = rank
    while left:
        k = 1 if left == 1 else rng.randint(2, min(left, degree + 1))
        c = _rand_rational(rng)
        l0, l1 = _rand_vector(rng, nvars), _rand_vector(rng, nvars)
        summands += _block(c, l0, l1, k - 1)
        left -= k
    B = BorderDecomposition(nvars, degree, summands)
    f = B.expand(through=0).limit_at_zero()
    if f.is_zero:
        # the block limits cancel; the last block, doubled, adds its own limit once more
        summands[-k:] = [(w * 2, form) for w, form in summands[-k:]]
        B = BorderDecomposition(nvars, degree, summands)
        f = B.expand(through=0).limit_at_zero()
    return f, B


# each family's generator and the parameters it reads, in its argument order;
# the random generator also reads seed
_FAMILIES = {
    "tangent": (gen_tangent, ("d",)),
    "osculating": (gen_osculating, ("d", "j")),
    "multibase": (gen_multibase, ("d",)),
    "random": (gen_random, ("nvars", "d", "rank")),
}


def _refuse_unread(family: str, flag: str, **given) -> None:
    """Raise ValueError on the first parameter given a value that a known
    family does not read, naming it after the prefix ``flag``."""
    for k, v in given.items():
        if v is not None and k not in _FAMILIES[family][1]:
            raise ValueError(f"the {family} family takes no {flag}{k}")


def gen_family(
    family: str,
    d: int | None = None,
    j: int | None = None,
    nvars: int | None = None,
    rank: int | None = None,
    seed: int = 0,
) -> Tuple[HomoPoly, BorderDecomposition]:
    """Dispatch by family tag; unused parameters must be left unset.

    A value for a parameter the family does not read raises ValueError, as
    does a parameter it reads left unset; seed alone is exempt, as only the
    random family reads it.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    _refuse_unread(family, "", j=j, nvars=nvars, rank=rank)
    gen, reads = _FAMILIES[family]
    args = [{"d": d, "j": j, "nvars": nvars, "rank": rank}[k] for k in reads]
    if None in args:
        raise ValueError(f"{family} family needs {', '.join(reads)}")
    return gen(*args, seed=seed) if family == "random" else gen(*args)


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
