"""Turning border certificates into exact weighted Waring decompositions.

The driver ``deborder`` takes a homogeneous polynomial f together with a
border certificate (a sum of weighted powers of linear forms over Q(eps)
whose limit at eps = 0 is f) and produces a plain rational decomposition
f = sum w_i * l_i**degree, exactly verified, together with a report carrying
the achieved rank, a certified a-priori ceiling, and a trace of which path
each recursion step took.

The recursion, per level (``_Level``; the route rule is in ``_Level._step``):

1. restrict f and the certificate to the essential variables of f, exactly,
   since f is constant along the kernel of its first partials;
2. if degree >= rank - 1, partition the summands by the direction their
   forms degenerate to; each local group converges on its own, and once
   diagonalized its limit is x0**(degree - rank + 1) * g (both checked, not
   assumed); summands that all share one direction are one group, the
   level itself; otherwise the whole certificate is one nonlocal group;
3. one diagonalized step per group (diagonal.py): a local group of rank 1
   is one power of x0, small ranks and few pivots go to a dense solve of g,
   and the rest to the Y/Z split: monomials supported on the Y block go to
   a dense solve, and the cofactor of z_i**k (for the first Z variable
   present) is a new level, with a certificate obtained by differentiating
   the staircase summands k times in z_i and restricting z_1..z_i to zero.
   Differentiation keeps at most rank - (pivot index) summands, so the
   branch rank drops strictly and the recursion terminates;
4. pieces are reassembled with ``multiply_by_power``, which rewrites
   l**e * z**k as a sum of e + k + 1 powers through exact interpolation.

Verification policy.  Each check sits where its object enters or leaves:
the input certificate is verified by exact expansion in ``deborder``, and
each derivative branch certificate in ``_Level._split``, which opens the
branch; it also verifies the decomposition the branch returns against the
branch target, and ``deborder`` verifies the final decomposition against f
and holds it to the ceiling ``paper_bound``.  ``multiply_by_power`` still
checks its own output as well (ROADMAP item 1 says when that check goes).
The structural hypotheses the paper's lemmas rest on (group convergence,
a local group staying based at x0 once diagonalized, divisibility of a
local limit by a power of its base variable, the staircase, the derivative
summand cap) are checked wherever they are used, each once: the base by
``_Level._step``, from the pivots ``diagonalize`` returns, since the
diagonalization itself does not group its input by base.
Group convergence is checked by ``partition_into_local``, which expands
each group through eps**0; the recursion calls it only at a local level
whose summands degenerate to two or more directions.  A level whose
summands share one direction is its own group and is not re-expanded: its
convergence and limit are those of the certificate verified where it
entered (the input or a branch), and the exact restrictions in between
keep both.
Steps between these points (the diagonalization of a group or of a
nonlocal level, differentiation, restriction, the dense solve, the Y/Z
split) are not re-expanded: a fault in one surfaces at the next check, at
the latest in the final verification.
"""

from __future__ import annotations

import decimal
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, factorial
from typing import Dict, List, Optional, Tuple

from .decomp import (
    BorderDecomposition,
    WaringDecomposition,
    _group_by_base,
    check_border,
    essential_reduce,
    is_local,
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

    base_threshold and y_size (the Y-block width, at least 1) enter only the
    route rule, stated in ``_Level._step`` with the settings that reach the
    Y/Z split.  The dense solve itself has no setting: its forms are fixed by
    the target's shape (``dense_decompose``).
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


@lru_cache(maxsize=256)
def paper_bound(d: int, r: int) -> int:
    """Exact integer ceiling of d * r**(10 * sqrt(r)); d itself for r = 1.

    For a square r the value is an integer and is computed exactly.
    Otherwise it is irrational, and a certified bracket (``_bound_bracket``)
    is evaluated with the precision doubled until the ceilings of both of
    its ends agree, which pins down the ceiling.  A pure function of
    (d, r), so the 256 pairs asked for most recently are kept.
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
    out: List[Tuple[BorderDecomposition, HomoPoly]] = []
    total = HomoPoly.zero(f.nvars, f.degree)
    for rows in _group_by_base(B).values():
        Bk = BorderDecomposition._of_rows(B.nvars, B.degree, rows)
        S = Bk.expand(through=0)  # a pole and the limit sit at orders <= 0
        if S.is_zero:
            fk = HomoPoly.zero(f.nvars, f.degree)
        else:
            val, wit = S.min_valuation()
            if val < 0:
                base = is_local(Bk)
                raise CertificateCheckError(
                    "group-convergence",
                    f"the group based at {base!r} has a pole of order {-val} at eps = 0",
                    witness={"base": [str(c) for c in base], "monomial": list(wit)},
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


def _interpolation_nodes(count: int) -> List[int]:
    out = [0]
    step = 1
    while len(out) < count:
        out.append(step)
        if len(out) < count:
            out.append(-step)
        step += 1
    return out


def multiply_by_power(W: WaringDecomposition, z: LinearForm, k: int) -> WaringDecomposition:
    """Exact decomposition of (the polynomial of W) times z**k.

    Per summand w * l**e: when l is parallel to z the product is a single
    power of z; otherwise l**e * z**k = sum_j c_j (l + t_j z)**(e+k) with
    nodes t_j = 0, 1, -1, 2, -2, ... and the c_j solving a transposed
    Vandermonde system whose right-hand side is delta_{s,k} / C(e+k, k).
    The work is on W's rows: with z cleared to zc / zd and an integer
    node t, the form c / den + t z is (c zd + t zc den) over den zd,
    reduced by one gcd, and c is parallel to zc when the cross-products
    c_i zc_p - zc_i c_p all vanish.  Duplicate output forms are merged.
    The identity is re-checked by exact expansion.
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
    terms = [(t, c.numerator, c.denominator) for t, c in zip(nodes, coeffs) if c]
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
        for t, cn, cd in terms:
            fden = den * zd
            form = [c * zd + t * x * den for c, x in zip(cs, zc)]
            g = math.gcd(fden, *form)
            pn, pd = wn * cn, wd * cd
            h = math.gcd(pn, pd)
            out.append((pn // h, pd // h, fden // g, *[x // g for x in form]))
    res = WaringDecomposition._of_rows(W.nvars, e + k, out).merged()
    if res.expand() != W.expand() * z.power(k):
        raise InvariantError("power multiplication changed the polynomial")
    return res


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
    top = _Level(cfg, [], (0, 0), B.rank() + 1)
    W = top.solve(f, B).merged()
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
        trace=tuple(top.trace),
    )
    return W, report


def _is_identity(M) -> bool:
    """Mapping back through the square rational matrix M changes nothing."""
    return all(x == int(i == j) for i, row in enumerate(M) for j, x in enumerate(row))


def _concat(pieces: List[WaringDecomposition], empty: str) -> WaringDecomposition:
    if not pieces:
        raise InvariantError(empty)
    return reduce(operator.add, pieces)


@dataclass
class _Level:
    """One recursion level of a deborder run.

    It holds the derivative branch (i, k) that opened it, (0, 0) at the top,
    and the rank budget left: each branch spends one unit, so a branch whose
    rank failed to drop stops the run.  The config and the trace list are
    the run's, shared by every level.
    """

    cfg: DeborderConfig
    trace: List[TraceRecord]
    branch: Tuple[int, int]
    fuel: int

    def record(self, case: str, rank: int, degree: int) -> None:
        self.trace.append(TraceRecord(case, rank, degree, *self.branch))

    def solve(self, f: HomoPoly, B: BorderDecomposition) -> WaringDecomposition:
        """Restrict f and B to the essential variables of f; then, when
        degree >= rank - 1, take each local group with a nonzero limit
        through ``_step``, else the whole certificate in one nonlocal
        ``_step``; map the result back through T**-1, a step skipped when T
        is the identity.  Summands of one base direction are the one group
        (B, f), with no partition."""
        if self.fuel <= 0:
            raise InvariantError("recursion did not terminate within the rank budget")
        n = f.nvars
        f, B, T, N = essential_reduce(f, B)
        if f.degree >= B.rank() - 1:
            groups = [(B, f)] if is_local(B) is not None else partition_into_local(B, f)
            W = _concat(
                [self._step(fk, Bk, local=True) for Bk, fk in groups if not fk.is_zero],
                "every group had zero limit against a nonzero target",
            )
        else:
            W = self._step(f, B, local=False)
        W = W.extend_vars(n) if N < n else W
        return W if _is_identity(T) else W.substitute(rat_inverse(T))

    def _step(self, f: HomoPoly, B: BorderDecomposition, local: bool) -> WaringDecomposition:
        """Diagonalize B against f, decompose the limit, and map it back.

        A local group's limit is x0**epow * g with epow = degree - rank + 1
        (``extract_local_cofactor``) and is recorded LOCAL; a nonlocal level
        decomposes the limit itself (epow = 0), and every one of its
        variables must be a pivot.  g lies in the p pivot variables.

        A local group must stay based at x0, and the check reads the
        pivots: the second pivot, if any, has valuation q_1 >= 1.  Every
        normalized row has valuation 0 and A(0) is invertible, so every
        transformed row has a nonzero eps**0 part, which is its base.  Once
        ``staircase_check`` has passed, q_1 >= 1 leaves x0 alone at eps**0
        in every row (an x_j coefficient has valuation >= q_j), so all rows
        share the base x0; and q_1 = 0 makes pivot row 1 x1 + O(eps), a
        second base beside pivot row 0's x0.  So the test agrees with
        grouping the transformed rows by base.  A nonlocal level reads no
        base, and the test does not run there.  The
        route, for rank r and Y-block width y (cfg.y_size, by default
        floor(10 * sqrt(r))):

        - r = 1 (a local group only): one power of x0;
        - r <= cfg.base_threshold or p <= y: a dense solve of g;
        - otherwise the Y/Z split (``_split``), recorded NONLOCAL on a
          nonlocal level.

        The result is mapped back to the level's coordinates through
        A(0)**-1, a step skipped when the staircase frame is the identity.

        Since p <= r, the default width holds every pivot for r up to 100.
        So base_threshold changes a route only together with an explicit
        y_size (at a threshold of 2 or more), or at ranks above 100 with a
        threshold above 100; at the default settings every rank up to 100
        is solved densely.
        """
        r, d, n = B.rank(), f.degree, f.nvars
        D = diagonalize(B, f)
        if local:
            if D.p > 1 and D.pivots[1][1] == 0:
                raise InvariantError("local input did not stay based at x0")
            self.record("LOCAL", r, d)
            g, epow = extract_local_cofactor(D.limit, r), d - r + 1
        elif D.p != n:
            raise InvariantError(f"{D.p} pivots for an essential target in {n} variables")
        else:
            g, epow = D.limit, 0
        y = self.cfg.y_size if self.cfg.y_size is not None else math.isqrt(100 * r)
        if r == 1:
            W = WaringDecomposition(n, d, ((g.coeff((0,) * n), LinearForm.variable(n, 0)),))
        elif r <= self.cfg.base_threshold or D.p <= y:
            W = self._dense(g, D.p, epow, r)
        else:
            if not local:
                self.record("NONLOCAL", r, d)
            W = self._split(g, epow, D, r, y)
        return W if _is_identity(D.base_change_inv) else W.substitute(D.base_change_inv)

    def _dense(self, g: HomoPoly, p: int, epow: int, rank: int) -> WaringDecomposition:
        """Dense solve of g on its first p variables, times x0**epow."""
        self.record("BASE", rank, g.degree)
        n = g.nvars
        W = dense_decompose(g.take_vars(p)).extend_vars(n)
        return multiply_by_power(W, LinearForm.variable(n, 0), epow) if epow else W

    def _split(
        self, g: HomoPoly, epow: int, D: DiagonalizedDecomposition, rank: int, y: int
    ) -> WaringDecomposition:
        """Decompose x0**epow * g by splitting g over a Y/Z variable block.

        The Y part goes to the dense solver.  The cofactor of z_i**k recurses
        on a certificate made by differentiating the staircase summands k
        times in z_i, restricting z_1..z_i to zero and dividing the weights
        by k!; the piece is reassembled by interpolation against z_i**k.
        """
        n = g.nvars
        d = D.decomposition.degree
        f0, parts = split_and_group(g, y)
        pieces = [] if f0.is_zero else [self._dense(f0, y, epow, rank)]
        for (i, k), h in parts.items():
            zvar = y + i - 1
            z = LinearForm.variable(n, zvar)
            if epow:
                h = HomoPoly.monomial(n, tuple(epow if j == 0 else 0 for j in range(n))) * h
            if h.degree == 0:
                pieces.append(WaringDecomposition(n, d, ((h.coeff((0,) * n), z),)))
                continue
            Bik = derivative_decomposition(D, zvar, k)
            Bik = restrict_vars_zero(Bik, range(y, zvar + 1))
            Bik = Bik.scale_weights(Fraction(1, factorial(k)))
            res = check_border(Bik, h)
            if not res.ok:
                raise InvariantError(
                    f"branch certificate (z_{i}, order {k}) fails: {res.reason}"
                )
            Wh = _Level(self.cfg, self.trace, (i, k), self.fuel - 1).solve(h, Bik)
            if not verify_waring(Wh, h):
                raise InvariantError(
                    f"branch result (z_{i}, order {k}) does not expand to its target"
                )
            pieces.append(multiply_by_power(Wh, z, k))
        return _concat(pieces, "Y/Z split produced no pieces for a nonzero polynomial")


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
