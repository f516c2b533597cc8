"""Turning border certificates into exact weighted Waring decompositions.

The driver ``deborder`` takes a homogeneous polynomial f together with a
border certificate (a sum of weighted powers of linear forms over Q(eps)
whose limit at eps = 0 is f) and produces a plain rational decomposition
f = sum w_i * l_i**degree, exactly verified, together with a report carrying
the achieved rank, a certified a-priori ceiling, and a trace of which path
each recursion step took.

The recursion, per level:

1. rotate away inessential variables;
2. if degree >= rank - 1, partition the summands by the direction their
   forms degenerate to, and diagonalize each group (diagonal.py); a group
   converges on its own and its limit is divisible by a power of its base
   variable (both checked, not assumed); the cofactor has degree < rank, so
   small ranks fall to a dense solve and large ones to the Y/Z split below;
3. otherwise diagonalize the whole certificate once, then split the
   variables into a Y block and a Z block: monomials supported on Y go to a
   dense solve, and the cofactor of z_i**k (for the first Z variable
   present) is handled recursively, with a certificate obtained by
   differentiating the staircase summands k times in z_i and restricting
   z_1..z_i to zero.  Differentiation keeps at most rank - (pivot index)
   summands, so the branch rank drops strictly and the recursion
   terminates;
4. pieces are reassembled with ``multiply_by_power``, which rewrites
   l**e * z**k as a sum of e + k + 1 powers through exact interpolation.

Verification policy.  Each check sits where its object enters or leaves:
the input certificate is verified by exact expansion in ``deborder``, and
each derivative branch certificate in ``_split``, which opens the branch;
``_split`` also verifies the decomposition the branch returns against the
branch target, and ``deborder`` verifies the final decomposition against f
and holds it to the ceiling ``paper_bound``.  ``multiply_by_power`` still
checks its own output as well (ROADMAP item 1 says when that check goes).
The structural hypotheses the paper's lemmas rest on (group convergence,
divisibility of a local limit by a power of its base variable, the
staircase, the derivative summand cap) are checked wherever they are used.
Steps between these points (the diagonalization of a group or of a
nonlocal level, differentiation, restriction, the dense solve, the Y/Z
split) are not re-expanded: a fault in one surfaces at the next check, at
the latest in the final verification.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Dict, List, Optional, Tuple

from .decomp import (
    BorderDecomposition,
    WaringDecomposition,
    _base_of_row,
    check_border,
    essential_reduce,
    restrict_vars_zero,
    verify_waring,
)
from .diagonal import (
    DiagonalizedDecomposition,
    derivative_decomposition,
    diagonalize,
)
from .epsilon import _int_rat_row
from .errors import CertificateCheckError, InvariantError, VerificationError
from .linalg import rat_inverse, rat_solve, solve_vandermonde
from .poly import HomoPoly, LinearForm, monomials_of_degree


@dataclass(frozen=True)
class DeborderConfig:
    """Knobs for the debordering recursion.

    y_size overrides the Y-block width, which must be at least 1.  The
    dense solve itself has no setting: its forms are fixed by the target's
    shape (``dense_decompose``).

    The Y/Z split is the paper's route to its rank bound.  A certificate of
    rank r with p pivots is solved densely when r <= base_threshold or
    p <= the Y-block width, and split otherwise.  The default width
    floor(10 * sqrt(r)) is at least r, hence at least p, for every r up to
    100.  So base_threshold changes a route only together with an explicit
    y_size (at a threshold of 2 or more), or at ranks above 100 with a
    threshold above 100.  At the default settings every rank up to 100 is
    solved densely, and only an explicit y_size (1 or 2, say) reaches the
    split.
    """

    base_threshold: int = 4
    y_size: Optional[int] = None

    def __post_init__(self):
        if self.y_size is not None and self.y_size < 1:
            raise ValueError(f"y_size must be at least 1, got {self.y_size}")


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One recursion step: which case fired, at what rank and degree.

    branch_i and branch_k identify the derivative branch (Z-variable
    ordinal and derivative order) that spawned the step; both are 0 for the
    top level and for pieces of the current level.
    """

    case: str  # "LOCAL" | "NONLOCAL" | "BASE"
    rank: int
    degree: int
    branch_i: int
    branch_k: int


@dataclass(frozen=True, slots=True)
class DeborderReport:
    achieved_rank: int
    paper_bound: int
    verified: bool
    trace: Tuple[TraceRecord, ...]


def _ceil(x: decimal.Decimal) -> int:
    return int(x.to_integral_value(rounding=decimal.ROUND_CEILING))


def _bound_bracket(d: int, r: int, prec: int) -> Tuple[int, int]:
    """Ceilings of a lower and an upper bound of d * r**(10 * sqrt(r)), r >= 2.

    decimal's sqrt, ln and exp are correctly rounded, within half an ulp of
    the true value, so stepping each result two ulps outward brackets it;
    the products round outward through the context's rounding direction.
    """
    near = decimal.Context(prec=prec, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    up = near.copy()
    up.rounding = decimal.ROUND_CEILING
    down = near.copy()
    down.rounding = decimal.ROUND_FLOOR

    def outward(x):
        return near.next_minus(near.next_minus(x)), near.next_plus(near.next_plus(x))

    s_lo, s_hi = outward(near.sqrt(r))
    l_lo, l_hi = outward(near.ln(r))
    e_lo = outward(near.exp(down.multiply(down.multiply(10, s_lo), l_lo)))[0]
    e_hi = outward(near.exp(up.multiply(up.multiply(10, s_hi), l_hi)))[1]
    return _ceil(down.multiply(d, e_lo)), _ceil(up.multiply(d, e_hi))


def bound_digits(d: int, r: int) -> int:
    """Decimal digit count of d * r**(10 * sqrt(r)), estimated in floating point.

    floor(log10 d + 10 * sqrt(r) * log10 r) + 1; exact unless the value lies
    within rounding error of a power of ten.
    """
    return int(math.log10(d) + 10 * math.sqrt(r) * math.log10(r)) + 1


def paper_bound(d: int, r: int) -> int:
    """Exact integer ceiling of d * r**(10 * sqrt(r)); d itself for r = 1.

    For a square r the value is an integer and is computed exactly.
    Otherwise it is irrational, and a certified bracket (``_bound_bracket``)
    is evaluated with the precision doubled until the ceilings of both of
    its ends agree, which pins down the ceiling.
    """
    if d < 1 or r < 1:
        raise ValueError("degree and rank must be at least 1")
    if r == 1:
        return d
    root = math.isqrt(r)
    if root * root == r:
        return d * r ** (10 * root)
    # decimal digits of the value, plus a margin
    prec = bound_digits(d, r) + 29
    for _ in range(6):
        lo, hi = _bound_bracket(d, r, prec)
        if lo == hi:
            return hi
        prec *= 2
    raise InvariantError("bound bracket did not narrow to one ceiling")


def partition_into_local(
    B: BorderDecomposition, f: HomoPoly
) -> List[Tuple[BorderDecomposition, HomoPoly]]:
    """Group summands by the rational direction their forms degenerate to.

    Each group must converge at eps = 0 on its own; that is a structural
    hypothesis about the certificate (the full sum converging does not imply
    it), so a violating group raises CertificateCheckError with check tag
    "group-convergence".  Returns [(B_k, f_k)] by first appearance in B;
    group limits f_k may be zero, and they sum to f (asserted).
    """
    if B.rank() == 0:
        raise ValueError("cannot partition an empty decomposition")
    if f.nvars != B.nvars or f.degree != B.degree:
        raise ValueError("target polynomial shape does not match the decomposition")
    buckets: Dict[Tuple[Fraction, ...], List] = {}
    for row in B.cleared:
        buckets.setdefault(_base_of_row(row[1]), []).append(row)
    out: List[Tuple[BorderDecomposition, HomoPoly]] = []
    total = HomoPoly.zero(f.nvars, f.degree)
    for key, rows in buckets.items():
        Bk = BorderDecomposition._of_rows(B.nvars, B.degree, rows)
        S = Bk.expand()
        if S.is_zero:
            fk = HomoPoly.zero(f.nvars, f.degree)
        else:
            val, wit = S.min_valuation()
            if val < 0:
                raise CertificateCheckError(
                    "group-convergence",
                    f"the group based at {LinearForm(key)!r} has a pole of order "
                    f"{-val} at eps = 0",
                    witness={"base": [str(c) for c in key], "monomial": list(wit)},
                )
            fk = S.limit_at_zero()
        total = total + fk
        out.append((Bk, fk))
    if total != f:
        raise InvariantError("group limits do not sum to the target")
    return out


def extract_local_cofactor(f: HomoPoly, rank: int) -> HomoPoly:
    """Exact quotient of f by x0**(degree - rank + 1).

    A local certificate of the given rank forces its limit to be divisible
    by that power of the base variable; divisibility is a checked hypothesis
    (tag "base-power-divisibility"), not an assumption.  The quotient has
    degree rank - 1.  The witness of a failure is the first monomial in
    graded-lex order that x0**(degree - rank + 1) does not divide.
    """
    if rank < 1:
        raise ValueError("rank must be at least 1")
    e = f.degree - rank + 1
    if e < 0:
        raise ValueError("rank exceeds degree + 1")
    if e == 0:
        return f
    acc = {}
    for m, c in f.items():
        if m[0] < e:
            m = next(k for k in f.monomials() if k[0] < e)
            raise CertificateCheckError(
                "base-power-divisibility",
                f"local limit is not divisible by x0^{e}",
                witness={"monomial": list(m), "required_power": e},
            )
        acc[(m[0] - e,) + m[1:]] = c
    return HomoPoly(f.nvars, f.degree - e, acc)


def split_and_group(
    g: HomoPoly, y: int
) -> Tuple[HomoPoly, Dict[Tuple[int, int], HomoPoly]]:
    """Write g = f0 + sum z_i**k * g_{i,k} over the Z variables y, y+1, ...

    f0 collects the monomials supported on the first y variables.  Every
    other monomial is charged to its first Z variable z_i (variable index
    y + i - 1, i starting at 1) and the exponent k it carries there, so each
    cofactor g_{i,k} involves no z_j with j <= i.
    """
    if not 1 <= y < g.nvars:
        raise ValueError("Y block must be a proper nonempty prefix of the variables")
    f0acc: Dict[Tuple[int, ...], object] = {}
    table: Dict[Tuple[int, int], Dict[Tuple[int, ...], object]] = {}
    for m, c in g.items():
        zj = next((j for j in range(y, g.nvars) if m[j] > 0), None)
        if zj is None:
            f0acc[m] = c
            continue
        k = m[zj]
        q = m[:zj] + (0,) + m[zj + 1 :]
        table.setdefault((zj - y + 1, k), {})[q] = c
    f0 = HomoPoly(g.nvars, g.degree, f0acc)
    parts = {
        key: HomoPoly(g.nvars, g.degree - key[1], acc)
        for key, acc in sorted(table.items())
    }
    return f0, parts


def dense_decompose(h: HomoPoly) -> WaringDecomposition:
    """Decompose h by solving a square linear system against lattice forms.

    The forms are x0 + sum_i (a_i + |a|) x_i, one for each point a of the
    principal lattice {a in N^(m-1) : |a| <= e}; the monomial basis of
    degree e indexes that lattice through its last m - 1 exponents.  The
    shear a -> a + |a| (1, ..., 1) is linear with determinant m, so their
    e-th powers are those of the forms x0 + a.x' under an invertible change
    of variables.  Those span the forms of degree e: by apolarity, a form of
    degree e apolar to every one of them is, at x0 = 1, a polynomial of
    degree <= e vanishing on the lattice, and the principal lattice is
    unisolvent for degree <= e (Chung and Yao, "On lattices admitting unique
    Lagrange interpolations", SIAM J. Numer. Anal. 14, 1977), so that form
    is zero.  The system is therefore nonsingular for every target, and
    nothing is drawn or re-tried; zero weights are dropped with their forms.
    The shear keeps the rank from hanging on which monomials h lacks: the
    lattice's Lagrange polynomials factor into the lines a_i = k and
    |a| = k; unsheared, a line a_i = k involves x0 and x_i alone, and
    against a sparse target (diagonalized limits often are) a number of
    weights that depends on the target vanish; sheared, every factor
    involves all of x_1 .. x_(m-1).  The point a = 0 is still x0 itself,
    which ``multiply_by_power`` turns into one power of x0.
    The rows come from ``LinearForm.power``.  The entry of form b in row
    mon is multinomial(mon) * b**mon; each row is divided by its multinomial
    and the target is cleared over one common denominator L, so the
    fraction-free solve runs on the integers b**mon, and the weights are
    its solution over L.
    Degree-1 targets are themselves linear forms and need no solve.  The
    result is not re-expanded here; in ``deborder`` the check of the
    enclosing result (a branch's or the final one) covers it.
    """
    if h.is_zero:
        raise ValueError("dense decomposition of the zero polynomial")
    e = h.degree
    m = h.nvars
    if e < 1:
        raise ValueError("dense decomposition needs degree >= 1")
    if e == 1:
        coefs = tuple(h.coeff(tuple(1 if j == i else 0 for j in range(m))) for i in range(m))
        return WaringDecomposition(m, 1, ((Fraction(1), LinearForm(coefs)),))
    basis = monomials_of_degree(m, e)
    # a = mon[1:], so |a| = e - mon[0]
    forms = [(1,) + tuple(a + e - mon[0] for a in mon[1:]) for mon in basis]
    powers = [LinearForm(form).power(e) for form in forms]
    mults = [factorial(e) // math.prod(map(factorial, mon)) for mon in basis]
    rows = [[p.coeff(mon).numerator // k for p in powers] for mon, k in zip(basis, mults)]
    rhs = [(h.coeff(mon), k) for mon, k in zip(basis, mults)]
    L = math.lcm(*(c.denominator * k for c, k in rhs))
    sol = rat_solve(rows, [c.numerator * (L // (c.denominator * k)) for c, k in rhs])
    if sol is None:
        raise InvariantError("the lattice system is inconsistent")
    # each form leads with 1, so it is in lowest terms over 1
    out = []
    for w, form in zip(sol, forms):
        if w:
            wd = w.denominator * L
            g = math.gcd(w.numerator, wd)
            out.append((w.numerator // g, wd // g, 1, *form))
    return WaringDecomposition._of_rows(m, e, out)


def _interpolation_nodes(count: int) -> List[Fraction]:
    out = [Fraction(0)]
    step = 1
    while len(out) < count:
        out.append(Fraction(step))
        if len(out) < count:
            out.append(Fraction(-step))
        step += 1
    return out


def multiply_by_power(W: WaringDecomposition, z: LinearForm, k: int) -> WaringDecomposition:
    """Exact decomposition of (the polynomial of W) times z**k.

    Per summand w * l**e: when l is parallel to z the product is a single
    power of z; otherwise l**e * z**k = sum_j c_j (l + t_j z)**(e+k) with
    nodes t_j = 0, 1, -1, 2, -2, ... and the c_j solving a transposed
    Vandermonde system whose right-hand side is delta_{s,k} / C(e+k, k).
    The work is on W's rows: with z cleared to zc / zd and a node
    t = tn / td, the form c / den + t z is (c zd td + tn zc den) over
    den zd td, reduced by one gcd, and c is parallel to zc when the
    cross-products c_i zc_p - zc_i c_p all vanish.  Duplicate output forms
    are merged.  The identity is re-checked by exact expansion.
    """
    if k < 1:
        raise ValueError("power must be at least 1")
    if not z.is_rational:
        raise ValueError("multiplier must be a rational form")
    if z.nvars != W.nvars:
        raise ValueError("multiplier arity mismatch")
    e = W.degree
    nodes = _interpolation_nodes(e + k + 1)
    rhs = [Fraction(0)] * (e + k + 1)
    rhs[k] = Fraction(1, comb(e + k, k))
    coeffs = solve_vandermonde(nodes, rhs)
    terms = [(t.numerator, t.denominator, c.numerator, c.denominator)
             for t, c in zip(nodes, coeffs) if c]
    zc, zd = _int_rat_row(z)
    zrow = (zd, *zc)
    p = next(i for i, x in enumerate(zc) if x)
    zp = zc[p]
    out = []
    for row in W.rows:
        wn, wd, den = row[:3]
        cs = row[3:]
        cp = cs[p]
        if cp and all(c * zp == x * cp for c, x in zip(cs, zc)):
            # l = s z with s = (cp / den) / (zp / zd)
            sn, sd = cp * zd, den * zp
            if sd < 0:
                sn, sd = -sn, -sd
            wn, wd = wn * sn**e, wd * sd**e
            g = math.gcd(wn, wd)
            out.append((wn // g, wd // g) + zrow)
            continue
        for tn, td, cn, cd in terms:
            fden = den * zd * td
            form = [c * zd * td + tn * x * den for c, x in zip(cs, zc)]
            g = math.gcd(fden, *form)
            pn, pd = wn * cn, wd * cd
            h = math.gcd(pn, pd)
            out.append((pn // h, pd // h, fden // g, *[x // g for x in form]))
    res = WaringDecomposition._of_rows(W.nvars, e + k, out).merged()
    if res.expand() != W.expand() * z.power(k):
        raise InvariantError("power multiplication changed the polynomial")
    return res


class _Session:
    """Mutable state threaded through one deborder run."""

    def __init__(self, cfg: DeborderConfig):
        self.cfg = cfg
        self.trace: List[TraceRecord] = []

    def y_size(self, rank: int) -> int:
        if self.cfg.y_size is not None:
            return self.cfg.y_size
        return math.isqrt(100 * rank)

    def record(self, case: str, rank: int, degree: int, bi: int, bk: int) -> None:
        self.trace.append(TraceRecord(case, rank, degree, bi, bk))


def deborder(
    f: HomoPoly, B: BorderDecomposition, config: Optional[DeborderConfig] = None
) -> Tuple[WaringDecomposition, DeborderReport]:
    """Convert a verified border certificate for f into an exact decomposition.

    Raises VerificationError if the input certificate does not verify,
    CertificateCheckError if one of the checked structural hypotheses fails
    on this certificate, and InvariantError on any internal inconsistency.
    The input certificate and the returned decomposition are verified here
    by exact expansion, and the rank is held to paper_bound(degree, input
    rank), which the report carries alongside the recursion trace.
    """
    cfg = config if config is not None else DeborderConfig()
    if f.nvars != B.nvars or f.degree != B.degree:
        raise ValueError("target polynomial shape does not match the certificate")
    if f.is_zero:
        raise ValueError("the zero polynomial needs no decomposition")
    chk = check_border(B, f)
    if not chk.ok:
        raise VerificationError(
            f"input certificate fails verification: {chk.reason}", witness=chk.witness
        )
    ses = _Session(cfg)
    W = _rec(f, B, ses, 0, 0, B.rank() + 1).merged()
    verified = verify_waring(W, f)
    if not verified:
        raise InvariantError("assembled decomposition does not expand to the target")
    bound = paper_bound(f.degree, B.rank())
    if W.rank() > bound:
        raise InvariantError(
            f"achieved rank {W.rank()} exceeds the certified ceiling {bound}"
        )
    report = DeborderReport(
        achieved_rank=W.rank(),
        paper_bound=bound,
        verified=verified,
        trace=tuple(ses.trace),
    )
    return W, report


def _rec(
    f: HomoPoly, B: BorderDecomposition, ses: _Session, bi: int, bk: int, fuel: int
) -> WaringDecomposition:
    """One recursion level: essential variables, then the diagonalized solve."""
    if fuel <= 0:
        raise InvariantError("recursion did not terminate within the rank budget")
    f1, B1, T, N = essential_reduce(f, B)
    n = f.nvars
    if N < n:
        B1 = restrict_vars_zero(B1, range(N, n)).take_vars(N)
        f1 = f1.take_vars(N)
        W1 = _solve(f1, B1, ses, bi, bk, fuel)
        return W1.extend_vars(n).substitute(rat_inverse(T))
    return _solve(f, B, ses, bi, bk, fuel)


def _solve(
    f: HomoPoly, B: BorderDecomposition, ses: _Session, bi: int, bk: int, fuel: int
) -> WaringDecomposition:
    """Partition B as given (``_local`` diagonalizes each group) or, on the
    nonlocal route, diagonalize B once; f uses all of its variables essentially."""
    if f.degree >= B.rank() - 1:
        W = None
        for Bk, fk in partition_into_local(B, f):
            if fk.is_zero:
                continue
            Wk = _local(fk, Bk, ses, bi, bk, fuel)
            W = Wk if W is None else W + Wk
        if W is None:
            raise InvariantError("every group had zero limit against a nonzero target")
        return W
    D = diagonalize(B, f)
    if D.p != f.nvars:
        raise InvariantError(
            f"{D.p} pivots for an essential target in {f.nvars} variables"
        )
    W = _dense_or_split(D.limit, 0, D, B.rank(), ses, bi, bk, fuel, "NONLOCAL")
    return W.substitute(D.base_change_inv)


def _local(
    fk: HomoPoly, Bk: BorderDecomposition, ses: _Session, bi: int, bk: int, fuel: int
) -> WaringDecomposition:
    """Handle one group whose forms all degenerate to a common direction."""
    rk = Bk.rank()
    d = fk.degree
    ses.record("LOCAL", rk, d, bi, bk)
    Dk = diagonalize(Bk, fk)
    g = extract_local_cofactor(Dk.limit, rk)
    epow = d - rk + 1
    if rk == 1:
        n = fk.nvars
        c = g.coeff((0,) * n)
        W = WaringDecomposition(n, d, ((c, LinearForm.variable(n, 0)),))
    else:
        W = _dense_or_split(g, epow, Dk, rk, ses, bi, bk, fuel)
    return W.substitute(Dk.base_change_inv)


def _dense_or_split(
    g: HomoPoly,
    epow: int,
    D: DiagonalizedDecomposition,
    rr: int,
    ses: _Session,
    bi: int,
    bk: int,
    fuel: int,
    split_case: Optional[str] = None,
) -> WaringDecomposition:
    """Decompose x0**epow * g, g a polynomial in the D.p pivot variables of D.

    Small ranks, and Y blocks wide enough to hold every pivot, go to the
    dense solve; the rest to the Y/Z split, recorded as split_case if given.
    """
    if rr <= ses.cfg.base_threshold or D.p <= ses.y_size(rr):
        return _dense_base(g, D.p, epow, rr, ses, bi, bk)
    if split_case is not None:
        ses.record(split_case, rr, g.degree, bi, bk)
    return _split(g, epow, D, rr, ses, bi, bk, fuel)


def _dense_base(
    g: HomoPoly, p: int, epow: int, rr: int, ses: _Session, bi: int, bk: int
) -> WaringDecomposition:
    """Dense solve of g on its first p variables, times x0**epow."""
    ses.record("BASE", rr, g.degree, bi, bk)
    n = g.nvars
    W = dense_decompose(g.take_vars(p)).extend_vars(n)
    return multiply_by_power(W, LinearForm.variable(n, 0), epow) if epow else W


def _split(
    g: HomoPoly,
    epow: int,
    D: DiagonalizedDecomposition,
    rr: int,
    ses: _Session,
    bi: int,
    bk: int,
    fuel: int,
) -> WaringDecomposition:
    """Decompose x0**epow * g by splitting g over a Y/Z variable block.

    The Y part goes to the dense solver.  The cofactor of z_i**k recurses on
    a certificate made by differentiating the staircase summands k times in
    z_i, restricting z_1..z_i to zero and dividing the weights by k!; the
    piece is reassembled by interpolation against z_i**k.
    """
    n = g.nvars
    y = ses.y_size(rr)
    d = D.decomposition.degree
    f0, parts = split_and_group(g, y)
    total: Optional[WaringDecomposition] = None
    if not f0.is_zero:
        total = _dense_base(f0, y, epow, rr, ses, bi, bk)
    for (i, k), gik in parts.items():
        zvar = y + i - 1
        z = LinearForm.variable(n, zvar)
        if epow:
            xp = tuple(epow if j == 0 else 0 for j in range(n))
            h = HomoPoly.monomial(n, xp) * gik
        else:
            h = gik
        if h.degree == 0:
            c = h.coeff((0,) * n)
            piece = WaringDecomposition(n, d, ((c, z),))
        else:
            Bik = derivative_decomposition(D, zvar, k)
            Bik = restrict_vars_zero(Bik, range(y, zvar + 1))
            Bik = Bik.scale_weights(Fraction(1, factorial(k)))
            res = check_border(Bik, h)
            if not res.ok:
                raise InvariantError(
                    f"branch certificate (z_{i}, order {k}) fails: {res.reason}"
                )
            Wh = _rec(h, Bik, ses, i, k, fuel - 1)
            if not verify_waring(Wh, h):
                raise InvariantError(
                    f"branch result (z_{i}, order {k}) does not expand to its target"
                )
            piece = multiply_by_power(Wh, z, k)
        total = piece if total is None else total + piece
    if total is None:
        raise InvariantError("Y/Z split produced no pieces for a nonzero polynomial")
    return total


__all__ = [
    "DeborderConfig",
    "DeborderReport",
    "TraceRecord",
    "bound_digits",
    "deborder",
    "dense_decompose",
    "extract_local_cofactor",
    "multiply_by_power",
    "paper_bound",
    "partition_into_local",
    "split_and_group",
]
