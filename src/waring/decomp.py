"""Weighted Waring decompositions, border decompositions, and their checks.

A ``WaringDecomposition`` represents sum w_i * l_i**d over Q, holding each
summand as one flat row of ints: the weight and the form, each cleared to
integers over its denominator in lowest terms.  Every step reads and
writes rows: ``expand``, ``merged``, ``substitute``, ``extend_vars`` and
concatenation.  A ``BorderDecomposition`` is the same sum with weights and
form coefficients in Q(eps).  Verification is always by exact expansion: a
border decomposition certifies its limit polynomial iff every coefficient of
the expanded sum has eps-valuation >= 0 and the entrywise limit equals the
target.

A border certificate holds each form as a row, cleared once to integer
eps-lists over one denominator; every step here reads and writes rows:
``expand``, ``substitute``, ``restrict_vars_zero``, ``take_vars``,
``normalize_border``, and the base directions that ``is_local`` and the
partition read (``_base_of_row``).

``normalize_border`` brings a border certificate to the working shape the
diagonalization step expects: per summand, the eps-content of the form is
moved into the weight, denominators are cleared from the form (a unit at 0,
absorbed by the weight), and form tails that provably cannot affect the limit
are cut.  ``check_border`` reads the residual order off each expanded
coefficient's numerator and denominator, without building the difference.
``essential_reduce`` rotates away variables the target polynomial does not
genuinely use; its frame is the kernel of f's partials, completed to a basis
by standard vectors read off one echelon (``linalg._basis_completion``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import List, NamedTuple, Optional, Tuple

from .epsilon import _ZERO, EpsScalar, _eps_of, _int_eps_row, _int_rat_row, _lowest
from .epsilon import _reduce_row, _residual_order
from .errors import DegenerateDecompositionError, InvariantError
from .linalg import _basis_completion, rat_nullspace, rat_rank
from .poly import HomoPoly, LinearForm, Monomial, _int_poly_mul
from .poly import _cleared_power_sum, _row_power_sum, _substitute_row


class WaringDecomposition:
    """sum of weight * form**degree over the summands; exact over Q.

    Each summand is held as one flat row of ints,
    (wn, wd, den, c_0, ..., c_(n-1)): the weight wn / wd and the form
    c / den, each in lowest terms with a positive denominator, so equality
    and hashing are by value.  ``summands`` builds the (Fraction,
    LinearForm) pairs each time it is read.
    """

    __slots__ = ("nvars", "degree", "rows")

    def __init__(self, nvars: int, degree: int, summands):
        if degree < 1:
            raise ValueError("decomposition degree must be at least 1")
        rows = []
        for w, form in summands:
            if isinstance(w, int):
                w = Fraction(w)
            if not isinstance(w, Fraction) or not form.is_rational:
                raise TypeError("Waring decompositions are rational; use BorderDecomposition")
            if w == 0:
                raise ValueError("zero weight in decomposition")
            if form.nvars != nvars:
                raise ValueError("form arity mismatch")
            ints, den = _int_rat_row(form)
            rows.append((w.numerator, w.denominator, den, *ints))
        self.nvars, self.degree, self.rows = nvars, degree, tuple(rows)

    @classmethod
    def _of_rows(cls, nvars: int, degree: int, rows) -> "WaringDecomposition":
        """The decomposition of rows already in lowest terms."""
        out = cls.__new__(cls)
        out.nvars, out.degree, out.rows = nvars, degree, tuple(rows)
        return out

    @property
    def summands(self) -> Tuple[Tuple[Fraction, LinearForm], ...]:
        return tuple((Fraction(row[0], row[1]),
                      LinearForm([Fraction(c, row[2]) for c in row[3:]]))
                     for row in self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WaringDecomposition):
            return NotImplemented
        return (self.nvars, self.degree, self.rows) == (other.nvars, other.degree, other.rows)

    def __hash__(self):
        return hash((self.nvars, self.degree, self.rows))

    def __repr__(self) -> str:
        return f"WaringDecomposition({self.nvars}, {self.degree}, {self.summands!r})"

    def rank(self) -> int:
        return len(self.rows)

    def expand(self) -> HomoPoly:
        return _row_power_sum(self.nvars, self.degree, self.rows)

    def __add__(self, other: "WaringDecomposition") -> "WaringDecomposition":
        if self.nvars != other.nvars or self.degree != other.degree:
            raise ValueError("cannot concatenate decompositions of different shape")
        return WaringDecomposition._of_rows(self.nvars, self.degree, self.rows + other.rows)

    def merged(self) -> "WaringDecomposition":
        """Combine summands with identical forms, in order of first
        appearance; drop cancelled ones."""
        acc: dict = {}
        for row in self.rows:
            form = row[2:]
            got = acc.get(form)
            if got is None:
                acc[form] = row[:2]
                continue
            (a, b), (c, d) = got, row[:2]
            if b == d:
                acc[form] = (a + c, b)
            else:
                m = b // gcd(b, d) * d
                acc[form] = (a * (m // b) + c * (m // d), m)
        out = []
        for form, (a, b) in acc.items():
            if a:
                g = gcd(a, b)
                out.append((a // g, b // g) + form)
        return WaringDecomposition._of_rows(self.nvars, self.degree, out)

    def substitute(self, rows) -> "WaringDecomposition":
        """Apply the change of variables x -> Mx to every form: M, rational,
        is cleared once, and each form c / den becomes (c . M) / den."""
        n = self.nvars
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("substitution matrix has wrong shape")
        flat = [x for r in rows for x in r]
        if not all(isinstance(x, (int, Fraction)) for x in flat):
            raise TypeError("a Waring decomposition substitutes rational rows only")
        M, S = _int_rat_row(flat)
        cols = [M[j::n] for j in range(n)]
        out = []
        for row in self.rows:
            cs = row[3:]
            new = [sum(map(mul, cs, col)) for col in cols]
            if not any(new):
                raise ValueError("the zero vector is not a linear form")
            den = row[2] * S
            g = gcd(den, *new)
            out.append((row[0], row[1], den // g, *[c // g for c in new]))
        return WaringDecomposition._of_rows(n, self.degree, out)

    def extend_vars(self, nvars: int) -> "WaringDecomposition":
        if nvars < self.nvars:
            raise ValueError("extend_vars cannot shrink")
        pad = (0,) * (nvars - self.nvars)
        return WaringDecomposition._of_rows(nvars, self.degree, [row + pad for row in self.rows])


class BorderDecomposition:
    """sum of weight * form**degree with scalars in Q(eps).

    Each summand is held as (w, lists, den): its EpsScalar weight, and its
    form as the codec clears it (``epsilon._int_eps_row``) once, when the
    certificate is built.  Every step keeps rows in that clearing
    (``epsilon._reduce_row``), so equality and hashing are by value.
    ``summands`` builds the (weight, LinearForm) pairs each time it is read.
    """

    __slots__ = ("nvars", "degree", "cleared")

    def __init__(self, nvars: int, degree: int, summands):
        if degree < 1:
            raise ValueError("decomposition degree must be at least 1")
        cleared = []
        for w, form in summands:
            if isinstance(w, (int, Fraction)):
                w = EpsScalar.from_rational(w)
            if w.is_zero:
                raise ValueError("zero weight in border decomposition")
            if form.nvars != nvars:
                raise ValueError("form arity mismatch")
            cleared.append((w, *_int_eps_row(form)))
        self.nvars, self.degree, self.cleared = nvars, degree, tuple(cleared)

    @classmethod
    def _of_rows(cls, nvars: int, degree: int, cleared) -> "BorderDecomposition":
        """The certificate of rows already in the codec's clearing."""
        out = cls.__new__(cls)
        out.nvars, out.degree, out.cleared = nvars, degree, tuple(cleared)
        return out

    @property
    def summands(self) -> Tuple[Tuple[EpsScalar, LinearForm], ...]:
        return tuple((w, LinearForm([_eps_of(x, den) for x in lists]))
                     for w, lists, den in self.cleared)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BorderDecomposition):
            return NotImplemented
        return (self.nvars, self.degree, self.cleared) == (other.nvars, other.degree, other.cleared)

    def __hash__(self):
        return hash((self.nvars, self.degree, tuple(w for w, _, _ in self.cleared)))

    def __repr__(self) -> str:
        return f"BorderDecomposition({self.nvars}, {self.degree}, {self.summands!r})"

    def rank(self) -> int:
        return len(self.cleared)

    def expand(self, through: Optional[int] = None) -> HomoPoly:
        """The weighted sum, every coefficient exact through eps**through
        and cut above it; in full when through is None.  Over a denominator
        that is not a power of eps the sum is always in full."""
        return _cleared_power_sum(self.nvars, self.degree, self.cleared, through)

    def scale_weights(self, s) -> "BorderDecomposition":
        s = EpsScalar.from_rational(s) if isinstance(s, (int, Fraction)) else s
        if s.is_zero:
            raise ValueError("scaling weights by zero")
        return BorderDecomposition._of_rows(
            self.nvars, self.degree, [(w * s, lists, den) for w, lists, den in self.cleared])

    def substitute(self, rows) -> "BorderDecomposition":
        """Apply the change of variables x -> Mx to every form; the matrix,
        over Q or Q(eps), is cleared once."""
        n = self.nvars
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("substitution matrix has wrong shape")
        M, S = _int_eps_row([x for r in rows for x in r])
        return BorderDecomposition._of_rows(n, self.degree, [
            (w, *_substitute_row(lists, den, M, S)) for w, lists, den in self.cleared])

    def take_vars(self, nvars: int) -> "BorderDecomposition":
        """Drop trailing variables, which no form may use."""
        if nvars > self.nvars or any(any(lists[nvars:]) for _, lists, _ in self.cleared):
            raise ValueError("take_vars cannot grow or drop a variable a form uses")
        return BorderDecomposition._of_rows(nvars, self.degree, [
            (w, lists[:nvars], den) for w, lists, den in self.cleared])


class BorderCheck(NamedTuple):
    """Outcome of an exact border verification."""

    ok: bool
    q: Optional[int]  # min valuation of (expansion - target); None when exact
    reason: str
    witness: Optional[Monomial]


def _top_order(B: BorderDecomposition) -> Optional[int]:
    """The highest eps-order B's expansion can reach, or None when some
    denominator is not a power of eps (the expansion is then never cut)."""
    top = None
    for w, lists, den in B.cleared:
        if any(den[:-1]) or w.den.valuation() < w.den.degree():
            return None
        t = w.num.degree() - w.den.degree() + B.degree * (max(map(len, lists)) - len(den))
        top = t if top is None else max(top, t)
    return top


def check_border(B: BorderDecomposition, f: HomoPoly) -> BorderCheck:
    """Exact verification of a border certificate, with diagnostics.

    ok is True iff the expansion converges at eps = 0 with limit exactly f.
    q is the diagnostic order: the minimal eps-valuation over the
    coefficients of (expansion - f), or None when the expansion equals f
    with no eps dependence at all (and on a pole); on success q >= 1
    whenever it is not None.  On failure, witness is a monomial where the
    pole sits or where the limit differs from f.  An expansion that is
    identically zero against a nonzero f raises
    DegenerateDecompositionError.

    The verdict reads orders <= 0 of the expansion and q reads order 1, so
    the expansion is cut at eps**t, t = 1 first.  t doubles while q is not
    yet determined (the residual vanishes through eps**t, or the expansion
    does) and the cut still drops orders.
    """
    if f.nvars != B.nvars or f.degree != B.degree:
        raise ValueError("target polynomial shape does not match the decomposition")
    top = _top_order(B)
    t = 1
    while True:
        cut = t if top is not None and t < top else None
        S = B.expand(through=cut)
        if S.is_zero:
            if cut is not None:
                t *= 2
                continue
            if f.is_zero:
                return BorderCheck(True, None, "exact (zero)", None)
            raise DegenerateDecompositionError(
                "expanded sum is identically zero against a nonzero target"
            )
        val, wit = S.min_valuation()
        if val < 0:
            return BorderCheck(False, None, f"pole of order {-val} at eps = 0", wit)
        # q from each coefficient num / den of S: val(num - f_m den) - val(den),
        # and 0 for a monomial of f that S lacks; a cut leaves every
        # valuation up to t exact, and a residual that vanishes through t
        # has none
        q = None
        hits = 0
        for m, c in S.items():
            fm = f.coeff(m)
            hits += fm != 0
            v = _residual_order(c, fm)
            if v is not None:
                q = v if q is None else min(q, v)
        if hits < len(f):
            q = 0
        if q is None and cut is not None:
            t *= 2
            continue
        limit = S.limit_at_zero()
        if limit == f:
            return BorderCheck(True, q, "ok", None)
        wit = (limit - f).monomials()[0]
        return BorderCheck(False, q, "limit differs from target", wit)


def verify_waring(W: WaringDecomposition, f: HomoPoly) -> bool:
    """Exact equality of the expanded weighted sum with f."""
    if f.nvars != W.nvars or f.degree != W.degree:
        raise ValueError("target polynomial shape does not match the decomposition")
    return W.expand() == f


def normalize_border(B: BorderDecomposition) -> BorderDecomposition:
    """Canonical working form: polynomial, content-free forms; tails cut.

    With a form held as lists / den, v the lists' common valuation and c
    den's lowest nonzero entry, form = (eps**v * c / den) * N, N the lists
    shifted down by v, over c: a polynomial form with a coefficient of
    valuation 0.  The weight takes the factor's d-th power, and N is cut
    above eps**t, t = max(0, -val(new weight)).  A cut tail contributes
    valuation >= 1 to the expansion, so the limit is unchanged, and no form
    vanishes.  den / (c * eps**val(den)) is the lcm of the coefficients'
    denominators, 1 at eps = 0; that fixes N, so normalizing is idempotent.
    """
    d = B.degree
    out = []
    for w, lists, den in B.cleared:
        v, _ = _lowest(lists)
        _, (c,) = _lowest([den])
        if v or len(den) > 1:
            (wl,), wden = _int_eps_row((w,))
            for _ in range(d):
                wden = _int_poly_mul(wden, den)
            cd = c**d
            w = _eps_of([0] * (v * d) + [x * cd for x in wl], wden)
        t = max(0, -w.valuation())
        out.append((w, *_reduce_row([x[v:v + t + 1] for x in lists], [c])))
    return BorderDecomposition._of_rows(B.nvars, d, out)


def _base_of_row(lists) -> Tuple[Fraction, ...]:
    """The base direction of a form cleared to lists: the leads of the lists
    at their common valuation, divided by the first nonzero lead."""
    _, leads = _lowest(lists)
    first = next(x for x in leads if x)
    return tuple(Fraction(x, first) for x in leads)


def is_local(B: BorderDecomposition) -> Optional[LinearForm]:
    """The common base if all summands degenerate to one direction, else None."""
    bases = {_base_of_row(lists) for _, lists, _ in B.cleared}
    return LinearForm(bases.pop()) if len(bases) == 1 else None


def _partial_coefficient_rows(f: HomoPoly) -> List[List[Fraction]]:
    """Rows = coefficient vectors of the first partials in a fixed monomial
    basis, the sorted monomials they use.  Each term c * x**m of f puts
    m_i * c at m - e_i in partial i; distinct m give distinct m - e_i, so
    nothing accumulates."""
    partials = [{} for _ in range(f.nvars)]
    for m, c in f.items():
        for i, e in enumerate(m):
            if e:
                partials[i][m[:i] + (e - 1,) + m[i + 1:]] = e * c
    basis = sorted({m for p in partials for m in p})
    return [[p.get(m, _ZERO) for m in basis] for p in partials]


def essential_rank(f: HomoPoly) -> int:
    """Dimension of the span of the first partial derivatives."""
    if f.is_zero:
        return 0
    return rat_rank(_partial_coefficient_rows(f))


def essential_reduce(
    f: HomoPoly, B: BorderDecomposition
) -> Tuple[HomoPoly, BorderDecomposition, List[List[Fraction]], int]:
    """Rotate coordinates so f uses only its essential variables.

    Returns (f', B', T, N) with f' = f(Tx) supported on the first N variables,
    B' the certificate composed with the same T, and T exactly invertible over
    Q.  N is the rank of the span of first partials of f.  A valid certificate
    always satisfies N <= B.rank(); violation raises InvariantError.
    """
    if f.is_zero:
        raise ValueError("essential_reduce of the zero polynomial")
    n = f.nvars
    rows = _partial_coefficient_rows(f)
    # directions v with sum_i v_i * (d f / d x_i) = 0: kernel of the matrix
    # whose columns are the partials, so f is translation-invariant along v
    cols_matrix = [[rows[i][j] for i in range(n)] for j in range(len(rows[0]))]
    kernel = rat_nullspace(cols_matrix)
    N = n - len(kernel)
    if N > B.rank():
        raise InvariantError(
            f"target has {N} essential variables but the certificate has rank {B.rank()}"
        )
    if N == n:
        T = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        return f, B, T, N
    # columns: the standard vectors completing the kernel to a basis, then the kernel
    cols = [[Fraction(1 if i == j else 0) for i in range(n)]
            for j in _basis_completion(kernel, n)] + kernel
    T = [[cols[j][i] for j in range(n)] for i in range(n)]  # vectors as columns
    f2 = f.substitute_linear(T)
    if any(any(m[N:]) for m, _ in f2.items()):
        raise InvariantError("essential reduction left a trailing variable in use")
    B2 = B.substitute(T)
    return f2, B2, T, N


def restrict_vars_zero(B: BorderDecomposition, vars_to_zero) -> BorderDecomposition:
    """Set the listed variables to zero in every form; drop vanished summands.

    Exact: the expansion of the result is the expansion of B with those
    variables set to zero, so valuations cannot drop and the limit restricts.
    """
    kill = set(vars_to_zero)
    for i in kill:
        if not 0 <= i < B.nvars:
            raise ValueError(f"variable index {i} out of range")
    out = []
    for w, lists, den in B.cleared:
        if any(lists[i] for i in kill):
            lists = [[] if i in kill else x for i, x in enumerate(lists)]
            if not any(lists):
                continue
            lists, den = _reduce_row(lists, den)
        out.append((w, lists, den))
    return BorderDecomposition._of_rows(B.nvars, B.degree, out)
